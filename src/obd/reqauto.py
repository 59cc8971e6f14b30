"""Finite status automata for requirements.

Every requirement gets a small state machine over status labels. Two update
functions advance a status against a freshly computed base state: the action
variant decrements deadline/duration counters (actions advance time), the
event variant leaves counters alone except that an exhausted duration still
expires. Both read the base state only through the truth of the
requirement's three formulas there, and `advance` takes those truths as
bits: the compiler computes them from its masks and evaluates no formula
on a state. A transition-reward function pays the requirement's reward
on compliant consecutive state pairs: where a condition on the state
before and one on the state after both hold.

Status labels: `-` (stateless), `I` (inactive), `R` (in force), `A`
(activated, duration kinds), `A(k)` (k ticks to the deadline), `R(k)`
(k duration ticks left).

The update reads each kind's behaviour from the letters that spell it
(`ReqKind`'s properties), never from a list of kinds: U is stateless; C
stays in R until cancelled or, for A (achieve), satisfied; D counts a
deadline down, ending at its first satisfied tick when F (flexible) and
achieve, and entering the duration at any satisfied tick when F or only
at the last when E (exact); P counts a duration down, and RP ends it at
the first tick the goal fails. Tie rule: the activation decides from I;
from every other status cancellation is checked once, before
satisfaction.
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
    """Status domain per requirement kind, read from its letters.

    U kinds are stateless (single label). The others start in I, then
    count down a deadline A(D)..A(1) (D), wait in A for the duration to
    start (P without D) or stay in force in R (neither); P appends the
    duration countdown R(P)..R(1).
    """
    kind = req.kind
    if not kind.is_conditional:
        return RequirementAutomaton(req, ("-",), "-")
    statuses = ["I"]
    if kind.has_deadline:
        statuses += [f"A({k})" for k in range(req.deadline, 0, -1)]
    else:
        statuses.append("A" if kind.has_duration else "R")
    if kind.has_duration:
        statuses += [f"R({k})" for k in range(req.duration, 0, -1)]
    return RequirementAutomaton(req, tuple(statuses), "I")


def status_count(req: Requirement) -> int:
    """How many statuses `build_automaton(req)` lists, without listing
    them."""
    if not req.kind.is_conditional:
        return 1
    return (1 + (req.deadline if req.kind.has_deadline else 1)
            + (req.duration if req.kind.has_duration else 0))


def _sat(f: Optional[Formula], base: Mapping[str, str]) -> bool:
    return f is not None and eval_formula(f, base)


def _truth_bits(req: Requirement, base: Mapping[str, str]) -> int:
    """The truth of the requirement's required, activation and
    cancellation formulas in `base`, as the bits 4, 2 and 1."""
    return (4 * _sat(req.required, base) + 2 * _sat(req.activation, base)
            + _sat(req.cancellation, base))


def advance(auto: RequirementAutomaton, status: str, truths: int,
            time_step: bool) -> str:
    """The status after a step into a state where the requirement's
    formulas hold as `truths` says, the bits 4, 2 and 1 standing for its
    required, activation and cancellation formulas: an action step when
    `time_step`, which decrements counters, else an event occurrence."""
    req = auto.requirement
    kind = req.kind
    if status not in auto.statuses:
        raise UnknownStatusError(
            f"requirement '{req.name}': unknown status '{status}'")
    if not kind.is_conditional:
        return "-"
    if status == "I":
        if not truths & 2:  # activation
            return "I"
        if kind.has_deadline:
            return f"A({req.deadline})"
        return "A" if kind.has_duration else "R"
    if truths & 1:  # cancellation
        return "I"
    s = bool(truths & 4)  # required
    if status == "R":  # C: in force until an achieve goal holds
        return "I" if s and kind.is_achieve else "R"
    if status == "A":  # P without D: waiting for the duration to start
        return f"R({req.duration})" if s else "A"
    k = int(status[2:-1])
    if status[0] == "A":  # D: the deadline countdown
        # F: the goal may hold at any tick of the window, E: at the last
        if s and (kind.is_flexible or k == 1) and kind.has_duration:
            return f"R({req.duration})"
        if s and kind.is_flexible and kind.is_achieve:
            return "I"
        if not time_step:
            return status
        return "I" if k == 1 else f"A({k - 1})"
    # R(k), P: the duration countdown; RP ends at the first violation
    if k == 1 or (kind.is_strict and not s):
        return "I"
    return f"R({k - 1})" if time_step else status


def update_action(auto: RequirementAutomaton, status: str,
                  new_base: Mapping[str, str]) -> str:
    """Advance a status after an action step (counters decrement)."""
    return advance(auto, status, _truth_bits(auto.requirement, new_base),
                   time_step=True)


def update_event(auto: RequirementAutomaton, status: str,
                 new_base: Mapping[str, str]) -> str:
    """Advance a status after an event occurrence.

    Identical to the action variant except that counter-decrement rows are
    removed: events happen concurrently with actions and do not consume
    time. An exhausted duration counter R(1) still expires to I.
    """
    return advance(auto, status, _truth_bits(auto.requirement, new_base),
                   time_step=False)


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
    if not req.kind.is_conditional:
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
