"""Finite status automata for requirements.

Every requirement gets a small state machine over status labels. Two update
functions advance a status against a freshly computed base state: the action
variant decrements deadline/duration counters (actions advance time), the
event variant leaves counters alone except that an exhausted duration still
expires. A transition-reward function pays the requirement's reward on
compliant consecutive state pairs: where a condition on the state before
and one on the state after both hold.

Status labels: `-` (stateless), `I` (inactive), `R` (in force), `A`
(activated, duration kinds), `A(k)` (k ticks to the deadline), `R(k)`
(k duration ticks left).

Tie rule: cancellation is checked before satisfaction in every row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from obd.dsl import (
    EvaluationError,
    Formula,
    ObdError,
    ReqKind,
    Requirement,
    eval_formula,
)


class UnknownStatusError(ObdError):
    pass


@dataclass(frozen=True)
class RequirementAutomaton:
    requirement: Requirement
    statuses: tuple  # of str, distinct labels
    initial_status: str

    @property
    def name(self) -> str:
        return self.requirement.name


def build_automaton(req: Requirement) -> RequirementAutomaton:
    """Status domain per requirement kind.

    UA/UM are stateless (single label). CA/CM get {I, R}. Deadline kinds get
    a countdown A(D)..A(1); duration kinds get A plus R(P)..R(1); combined
    kinds chain the deadline countdown into the duration countdown.
    """
    kind = req.kind
    if kind in (ReqKind.UA, ReqKind.UM):
        return RequirementAutomaton(req, ("-",), "-")
    if kind in (ReqKind.CA, ReqKind.CM):
        return RequirementAutomaton(req, ("I", "R"), "I")
    statuses = ["I"]
    if kind.has_deadline:
        statuses += [f"A({k})" for k in range(req.deadline, 0, -1)]
    elif kind.has_duration:
        statuses.append("A")
    if kind.has_duration:
        statuses += [f"R({k})" for k in range(req.duration, 0, -1)]
    return RequirementAutomaton(req, tuple(statuses), "I")


def status_count(req: Requirement) -> int:
    """How many statuses `build_automaton(req)` lists, without listing
    them."""
    if req.kind in (ReqKind.UA, ReqKind.UM):
        return 1
    if req.kind in (ReqKind.CA, ReqKind.CM):
        return 2
    return (1 + (req.deadline if req.kind.has_deadline else 1)
            + (req.duration if req.kind.has_duration else 0))


def _counter(status: str) -> Optional[tuple]:
    if status.endswith(")") and "(" in status:
        head, _, num = status[:-1].partition("(")
        return head, int(num)
    return None


def _sat(f: Optional[Formula], base: Mapping[str, str]) -> bool:
    return f is not None and eval_formula(f, base)


def _update(auto: RequirementAutomaton, status: str, new_base: Mapping[str, str],
            time_step: bool) -> str:
    req = auto.requirement
    kind = req.kind
    if status not in auto.statuses:
        raise UnknownStatusError(
            f"requirement '{req.name}': unknown status '{status}'")
    if kind in (ReqKind.UA, ReqKind.UM):
        return "-"

    s = _sat(req.required, new_base)
    a = _sat(req.activation, new_base)
    z = _sat(req.cancellation, new_base)

    if kind is ReqKind.CA:
        if status == "I":
            return "R" if a else "I"
        return "I" if (z or s) else "R"
    if kind is ReqKind.CM:
        if status == "I":
            return "R" if a else "I"
        return "I" if z else "R"

    if status == "I":
        if not a:
            return "I"
        if kind.has_deadline:
            return f"A({req.deadline})"
        return "A"

    if status == "A":  # duration kinds without deadline
        if z:
            return "I"
        if s:
            return f"R({req.duration})"
        return "A"

    head, k = _counter(status)
    if head == "A":
        if z:
            return "I"
        flexible_exit = kind in (ReqKind.DFA,)
        duration_entry_any = kind in (ReqKind.PDFM, ReqKind.RPDFM)
        duration_entry_last = kind in (ReqKind.PDEM, ReqKind.RPDEM)
        if flexible_exit and s:
            return "I"
        if duration_entry_any and s:
            return f"R({req.duration})"
        if not time_step:
            if duration_entry_last and k == 1 and s:
                return f"R({req.duration})"
            return status
        if k == 1:
            if duration_entry_last and s:
                return f"R({req.duration})"
            return "I"
        return f"A({k - 1})"

    # head == "R": duration countdown
    if z:
        return "I"
    if kind.is_strict and not s:
        return "I"
    if k == 1:
        return "I"
    if not time_step:
        return status
    return f"R({k - 1})"


def update_action(auto: RequirementAutomaton, status: str,
                  new_base: Mapping[str, str]) -> str:
    """Advance a status after an action step (counters decrement)."""
    return _update(auto, status, new_base, time_step=True)


def update_event(auto: RequirementAutomaton, status: str,
                 new_base: Mapping[str, str]) -> str:
    """Advance a status after an event occurrence.

    Identical to the action variant except that counter-decrement rows are
    removed: events happen concurrently with actions and do not consume
    time. An exhausted duration counter R(1) still expires to I.
    """
    return _update(auto, status, new_base, time_step=False)


# Every kind's reward condition, in two parts: the before-part reads the
# status before a step and whether the required formula held there, the
# after-part the status after it and whether the required and the
# cancellation formulas hold there. The reward is paid exactly where both
# parts hold.
REWARD_PARTS = {
    ReqKind.UA: (lambda st, s: not s, lambda st, s, z: s),
    ReqKind.UM: (lambda st, s: s, lambda st, s, z: s),
    ReqKind.CA: (lambda st, s: st == "R" and not s, lambda st, s, z: s),
    ReqKind.CM: (lambda st, s: st == "R", lambda st, s, z: s and not z),
    ReqKind.DEA: (lambda st, s: st == "A(1)", lambda st, s, z: s),
    ReqKind.DFA: (lambda st, s: st.startswith("A(") and not s,
                  lambda st, s, z: s),
    ReqKind.DEM: (lambda st, s: st == "A(1)" and s, lambda st, s, z: s),
    ReqKind.DFM: (lambda st, s: st.startswith("A(") and s,
                  lambda st, s, z: s),
}
# compliant in the duration window, before and after
REWARD_PARTS.update(dict.fromkeys(
    (ReqKind.PM, ReqKind.PDEM, ReqKind.PDFM),
    (lambda st, s: s and st.startswith("R("),
     lambda st, s, z: s and st.startswith("R("))))
# strict duration kinds: one reward on leaving R(1) compliantly
REWARD_PARTS.update(dict.fromkeys(
    (ReqKind.RPM, ReqKind.RPDEM, ReqKind.RPDFM),
    (lambda st, s: st == "R(1)", lambda st, s, z: s)))


def reward(auto: RequirementAutomaton, before: Mapping[str, str],
           after: Mapping[str, str]) -> int:
    """Reward earned by this requirement on the transition before -> after,
    where both parts of its REWARD_PARTS condition hold.

    Both arguments are full expanded states: base atoms plus this
    requirement's status atom.
    """
    req = auto.requirement
    if req.kind in (ReqKind.UA, ReqKind.UM):
        st_before = st_after = "-"
    else:
        name = req.name
        if name not in before or name not in after:
            raise EvaluationError(
                f"missing status atom for requirement '{name}'")
        st_before, st_after = before[name], after[name]
    paid_before, paid_after = REWARD_PARTS[req.kind]
    if (paid_before(st_before, _sat(req.required, before))
            and paid_after(st_after, _sat(req.required, after),
                           _sat(req.cancellation, after))):
        return req.reward
    return 0
