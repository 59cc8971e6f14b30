"""Independent oracles used by the test suite.

Everything here is written from the normative tables and execution rules
directly, on purpose duplicating none of the production code paths: a
literal case-table transcription of the requirement status updates and
rewards, a brute-force interleaving enumerator for one tick of
action-then-events, one sampled tick computed straight through, a run
of such ticks drawing one scalar at a time from numpy's generator, the
per-state occurrence probabilities of an event, the pairs of effective
event matrices whose exact products differ, a dict-keyed forward-search
planner on the determinized model and a replanning controller around
it, exhaustive policy enumeration for tiny MDPs, a random model
generator, and readers of obdmdp/1 and obdpolicy/1 that take one line
at a time.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
from fractions import Fraction

import numpy as np

from obd.compiler import (
    DEFAULT_STATE_LIMIT,
    FORMAT_MDP,
    ROW_SUM_TOL,
    CompileError,
    StateLimitError,
    StateSpace,
    state_lines,
)
from obd.dsl import (
    ActionBranch,
    ActionDesc,
    Atom,
    And,
    BoolLit,
    DomainModel,
    Effect,
    EventBranch,
    EventDesc,
    Not,
    Or,
    ReqKind,
    Requirement,
    VariableDecl,
)
from obd.solver import FORMAT_POLICY, SolverError


# ---------------------------------------------------------------------------
# Minimal independent formula evaluation


def holds(f, atoms) -> bool:
    if f is None:
        return False
    if isinstance(f, Atom):
        return atoms[f.var] == f.value
    if isinstance(f, BoolLit):
        return f.value
    if isinstance(f, Not):
        return not holds(f.operand, atoms)
    if isinstance(f, And):
        return holds(f.left, atoms) and holds(f.right, atoms)
    if isinstance(f, Or):
        return holds(f.left, atoms) or holds(f.right, atoms)
    raise TypeError(f)


# ---------------------------------------------------------------------------
# Normative status-update tables.
#
# oracle_update(req, st, x, time_step) transcribes, case by case, the
# update of requirement status `st` against the newly computed base state
# `x`; time_step=False removes exactly the counter-decrement rows (the
# event variant), everything else is identical.


def oracle_statuses(req: Requirement):
    kind = req.kind
    if kind in (ReqKind.UA, ReqKind.UM):
        return ("-",)
    if kind in (ReqKind.CA, ReqKind.CM):
        return ("I", "R")
    out = ["I"]
    if kind.has_deadline:
        out += [f"A({k})" for k in range(req.deadline, 0, -1)]
    elif kind.has_duration:
        out += ["A"]
    if kind.has_duration:
        out += [f"R({k})" for k in range(req.duration, 0, -1)]
    return tuple(out)


def oracle_update(req: Requirement, st: str, x, time_step: bool) -> str:
    kind = req.kind
    S, A, Z = req.required, req.activation, req.cancellation
    D, P = req.deadline, req.duration

    if kind in (ReqKind.UA, ReqKind.UM):
        return "-"

    if kind is ReqKind.CA:
        if st == "I" and holds(A, x):
            return "R"
        if st == "R" and (holds(Z, x) or holds(S, x)):
            return "I"
        return st

    if kind is ReqKind.CM:
        if st == "I" and holds(A, x):
            return "R"
        if st == "R" and holds(Z, x):
            return "I"
        return st

    if kind in (ReqKind.DEA, ReqKind.DEM, ReqKind.DFM):
        # countdown with no early exit (DFM rewards within the window but
        # keeps counting; DEA/DEM must hit the deadline tick)
        if st == "I":
            return f"A({D})" if holds(A, x) else "I"
        k = int(st[2:-1])
        if holds(Z, x):
            return "I"
        if time_step:
            return "I" if k == 1 else f"A({k - 1})"
        return st

    if kind is ReqKind.DFA:
        if st == "I":
            return f"A({D})" if holds(A, x) else "I"
        k = int(st[2:-1])
        if holds(Z, x):
            return "I"
        if holds(S, x):
            return "I"
        if time_step:
            return "I" if k == 1 else f"A({k - 1})"
        return st

    if kind in (ReqKind.PM, ReqKind.RPM):
        # upd_PM / upd^e_PM, with the strict early exit added for RPM
        if st == "I":
            return "A" if holds(A, x) else "I"
        if st == "A":
            if holds(Z, x):
                return "I"
            if holds(S, x) and not holds(Z, x):
                return f"R({P})"
            return "A"
        t = int(st[2:-1])
        if holds(Z, x):
            return "I"
        if kind is ReqKind.RPM and not holds(S, x):
            return "I"
        if t == 1:
            return "I"
        if time_step and not holds(Z, x):
            return f"R({t - 1})"
        return st

    # combined deadline + duration kinds
    entry_any = kind in (ReqKind.PDFM, ReqKind.RPDFM)
    strict = kind.is_strict
    if st == "I":
        return f"A({D})" if holds(A, x) else "I"
    head = st[0]
    k = int(st[2:-1])
    if head == "A":
        if holds(Z, x):
            return "I"
        if entry_any and holds(S, x):
            return f"R({P})"
        if k == 1 and not entry_any and holds(S, x) and not holds(Z, x):
            if not time_step:
                return f"R({P})"
            return f"R({P})"
        if time_step:
            return "I" if k == 1 else f"A({k - 1})"
        return st
    if holds(Z, x):
        return "I"
    if strict and not holds(S, x):
        return "I"
    if k == 1:
        return "I"
    if time_step:
        return f"R({k - 1})"
    return st


def oracle_reward(req: Requirement, before, after) -> int:
    """Reward tables; before/after are full expanded states."""
    kind = req.kind
    r = req.reward
    S, Z = req.required, req.cancellation
    name = req.name
    st_b = before.get(name)
    st_a = after.get(name)
    in_r = lambda st: st is not None and st.startswith("R(")
    in_a = lambda st: st is not None and st.startswith("A(")

    if kind is ReqKind.UA:
        return r if not holds(S, before) and holds(S, after) else 0
    if kind is ReqKind.UM:
        return r if holds(S, before) and holds(S, after) else 0
    if kind is ReqKind.CA:
        return r if st_b == "R" and not holds(S, before) and holds(S, after) \
            else 0
    if kind is ReqKind.CM:
        return r if st_b == "R" and holds(S, after) and not holds(Z, after) \
            else 0
    if kind is ReqKind.DEA:
        return r if st_b == "A(1)" and holds(S, after) else 0
    if kind is ReqKind.DFA:
        return r if in_a(st_b) and not holds(S, before) and holds(S, after) \
            else 0
    if kind is ReqKind.DEM:
        return r if st_b == "A(1)" and holds(S, before) and holds(S, after) \
            else 0
    if kind is ReqKind.DFM:
        return r if in_a(st_b) and holds(S, before) and holds(S, after) else 0
    if kind in (ReqKind.PM, ReqKind.PDEM, ReqKind.PDFM):
        return r if (holds(S, before) and in_r(st_b)
                     and holds(S, after) and in_r(st_a)) else 0
    return r if st_b == "R(1)" and holds(S, after) else 0


# ---------------------------------------------------------------------------
# Brute-force one-tick enumerator: action first, then every event in
# declaration order with an occur/not-occur split, statuses via the
# reference tables above.


def _matched(branches, base):
    found = [br for br in branches if holds(br.precondition, base)]
    assert len(found) <= 1, "oracle assumes disjoint preconditions"
    return found[0] if found else None


def _apply(base, assignments):
    new = dict(base)
    for var, value in assignments:
        new[var] = value
    return new


def interleaving_distribution(model: DomainModel, space, action: ActionDesc,
                              state_index: int):
    """Distribution over successor indices for one tick: exact Fractions."""
    state = space.state(state_index)
    base_names = space.names[:space.n_base]
    base = {v: state[v] for v in base_names}
    statuses = {r.name: state[r.name] for r in model.requirements}

    def advance(sts, new_base, time_step):
        return {r.name: oracle_update(r, sts[r.name], new_base, time_step)
                for r in model.requirements}

    # action phase
    branch = _matched(action.branches, base)
    outcomes = []
    residual = Fraction(1)
    if branch is not None:
        for eff in branch.effects:
            nb = _apply(base, eff.assignments)
            outcomes.append((nb, advance(statuses, nb, True),
                             eff.probability))
            residual -= eff.probability
    if residual > 0:
        outcomes.append((base, advance(statuses, base, True), residual))

    # event phases
    for event in model.events:
        next_outcomes = []
        for nb, sts, p in outcomes:
            br = _matched(event.branches, nb)
            if br is None:
                next_outcomes.append((nb, sts, p))
                continue
            op = br.occurrence_probability
            if op < 1:
                next_outcomes.append((nb, sts, p * (1 - op)))
            rem = Fraction(1)
            for eff in br.effects:
                eb = _apply(nb, eff.assignments)
                next_outcomes.append((eb, advance(sts, eb, False), p * op
                                      * eff.probability))
                rem -= eff.probability
            if rem > 0:
                next_outcomes.append((nb, advance(sts, nb, False),
                                      p * op * rem))
        outcomes = next_outcomes

    dist = {}
    for nb, sts, p in outcomes:
        full = dict(nb)
        full.update(sts)
        idx = space.index_of(full)
        dist[idx] = dist.get(idx, Fraction(0)) + p
    return dist


def occurrence_vector(event: EventDesc, space) -> list:
    """O_e: per state, the occurrence probability of the event's branch
    whose precondition holds there, 0 where none does."""
    out = []
    for i in range(space.size):
        branch = _matched(event.branches, space.state(i))
        out.append(branch.occurrence_probability if branch is not None
                   else Fraction(0))
    return out


def pair_rewards(model: DomainModel, space, action: ActionDesc,
                 i: int, j: int) -> int:
    before = space.state(i)
    after = space.state(j)
    total = -action.cost
    for req in model.requirements:
        total += oracle_reward(req, before, after)
    return total


# ---------------------------------------------------------------------------
# One simulation tick, straight-line: the reference for the simulator's
# step tables. It decodes the state, matches branches (first match, as the
# simulator does), samples effects, advances statuses and pays rewards on
# every call, drawing from `rng` exactly where a tick draws.


def _sample_effects(branch, base, rng) -> dict:
    """One effect of the branch, or the residual no-change outcome."""
    u = rng.random()
    acc = 0.0
    for eff in branch.effects:
        acc += float(eff.probability)
        if u < acc:
            return _apply(base, eff.assignments)
    return dict(base)


def _first_match(branches, base):
    return next((br for br in branches if holds(br.precondition, base)), None)


def oracle_step(mdp, state_index: int, action_name: str, rng):
    """(next index, reward earned, satisfied requirement names) of one
    tick of `mdp`, a model compiled from source."""
    space = mdp.space
    model = mdp.model
    before = space.state(state_index)
    base = {name: before[name] for name in space.names[:space.n_base]}
    statuses = {req.name: before[req.name] for req in model.requirements}
    action = mdp.actions[mdp.action_names.index(action_name)]

    def advance(new_base, time_step):
        return {req.name: oracle_update(req, statuses[req.name], new_base,
                                        time_step)
                for req in model.requirements}

    branch = _first_match(action.branches, base)
    if branch is not None:
        base = _sample_effects(branch, base, rng)
    statuses = advance(base, True)
    for event in model.events:
        branch = _first_match(event.branches, base)
        if branch is None:
            continue
        if rng.random() >= float(branch.occurrence_probability):
            continue
        base = _sample_effects(branch, base, rng)
        statuses = advance(base, False)

    after = dict(base)
    after.update(statuses)
    satisfied = tuple(req.name for req in model.requirements
                      if oracle_reward(req, before, after))
    next_index = space.index_of(after)
    return (next_index, pair_rewards(model, space, action, state_index,
                                     next_index), satisfied)


def oracle_run(mdp, controller, ticks: int, seed: int) -> tuple:
    """(total reward, satisfaction counts, plan failures) of `ticks` ticks
    of `controller` from the initial state, every tick by `oracle_step`,
    every draw one scalar call of `np.random.default_rng(seed)`."""
    rng = np.random.default_rng(seed)
    total = 0.0
    counts = {}
    state = mdp.initial_index
    for _ in range(ticks):
        action = controller.choose(state, rng)
        next_state, earned, satisfied = oracle_step(mdp, state, action, rng)
        controller.observe(state, action, next_state)
        total += earned
        for name in satisfied:
            counts[name] = counts.get(name, 0) + 1
        state = next_state
    return total, counts, controller.plan_failures


# ---------------------------------------------------------------------------
# Forward-search planner on dict base states


def determinized_successor(action: ActionDesc, base: dict):
    """Most-likely effect of the action's matched branch (ties: first
    declared); None when no precondition holds or nothing changes."""
    branch = _first_match(action.branches, base)
    if branch is None or not branch.effects:
        return None
    best = max(branch.effects, key=lambda eff: eff.probability)
    new = _apply(base, best.assignments)
    return new if new != base else None


def oracle_plan(model: DomainModel, start_base: dict, goal,
                budget: int = 10_000):
    """Uniform-cost forward search over the determinized base-state graph,
    keyed by dicts: events ignored, each action replaced by its most
    likely effect. The cheapest plan (ties: shorter, then lexicographic
    action order), or None when the budget runs out or the goal is
    unreachable."""
    var_order = [v.name for v in model.variables]

    def key(base):
        return tuple(base[v] for v in var_order)

    start = dict(start_base)
    frontier = [(0, 0, (), key(start), start)]
    seen = set()
    expanded = 0
    while frontier and expanded < budget:
        cost, length, actions, k, base = heapq.heappop(frontier)
        if holds(goal, base):
            return list(actions)
        if k in seen:
            continue
        seen.add(k)
        expanded += 1
        for action in model.actions:
            succ = determinized_successor(action, base)
            if succ is None:
                continue
            sk = key(succ)
            if sk in seen:
                continue
            heapq.heappush(frontier, (cost + action.cost, length + 1,
                                      actions + (action.name,), sk, succ))
    return None


class OracleReplanningController:
    """The monitor/plan/execute baseline worked straight through on dicts:
    every tick with an empty plan decodes the state, collects the active
    achieve requirements (an unconditional one while its formula is
    false, a conditional one while its status is not "I"), joins them
    left to right with Or and searches with `oracle_plan`."""

    name = "replan"

    def __init__(self, mdp, budget: int = 10_000):
        self.mdp = mdp
        self.budget = budget
        self.plan_failures = 0
        self.plan_queue = []
        self.predicted = None  # the base dict expected after the action

    def _base(self, state: dict) -> dict:
        return {v.name: state[v.name] for v in self.mdp.model.variables}

    def choose(self, state_index: int, rng) -> str:
        model = self.mdp.model
        state = self.mdp.space.state(state_index)
        base = self._base(state)
        if not self.plan_queue:
            goals = [req.required for req in model.requirements
                     if req.kind.value.endswith("A")
                     and (not holds(req.required, base)
                          if req.activation is None
                          else state[req.name] != "I")]
            if not goals:
                self.predicted = None
                return "noop"
            goal = goals[0]
            for g in goals[1:]:
                goal = Or(goal, g)
            found = oracle_plan(model, base, goal, self.budget)
            if not found:  # unreachable or out of budget (empty = met)
                if found is None:
                    self.plan_failures += 1
                self.predicted = None
                return "noop"
            self.plan_queue = found
        name = self.plan_queue.pop(0)
        action = self.mdp.actions[self.mdp.action_names.index(name)]
        succ = determinized_successor(action, base)
        self.predicted = base if succ is None else succ
        return name

    def observe(self, prev_index: int, action: str, next_index: int) -> None:
        if self.predicted is not None and self._base(
                self.mdp.space.state(next_index)) != self.predicted:
            self.plan_failures += 1
            self.plan_queue = []
            self.predicted = None


# ---------------------------------------------------------------------------
# Event commutation by exact products


def noncommuting_pairs(effective) -> list:
    """Every index pair (i, j), i < j, of the effective event matrices
    (exact SparseMatrix instances) whose two products Phat_i Phat_j and
    Phat_j Phat_i, multiplied out exactly, differ."""
    return [(i, j) for i, j in itertools.combinations(range(len(effective)), 2)
            if effective[i].matmul(effective[j])
            != effective[j].matmul(effective[i])]


# ---------------------------------------------------------------------------
# obdmdp/1 and obdpolicy/1 read one line at a time


def oracle_load_mdp(text: str, limit: int = DEFAULT_STATE_LIMIT) -> dict:
    """`compiler.load_mdp` read line by line, with the same diagnostics.

    Returns a plain dict: `gamma` (a Fraction), `states`, `initial`,
    `space`, `actions` ((name, cost) pairs) and, per action name,
    `transitions` and `rewards`, each a dict (row, col) -> the float read,
    whose exact value is Fraction(float)."""
    lines = text.splitlines()
    if not lines or lines[0] != FORMAT_MDP:
        raise CompileError(f"not an {FORMAT_MDP} document")
    pos = 1  # index of the next line; line numbers are 1-based

    def error(message: str):
        return CompileError(f"line {pos}: {message}")

    def fields(tag: str) -> list:
        nonlocal pos
        if pos >= len(lines):
            pos += 1
            raise error(f"expected '{tag}' line, got end of input")
        parts = lines[pos].split()
        pos += 1
        if not parts or parts[0] != tag:
            raise error(f"expected '{tag}' line, got: {lines[pos - 1]!r}")
        return parts[1:]

    def single(tag: str) -> str:
        parts = fields(tag)
        if len(parts) != 1:
            raise error(f"'{tag}' takes one value")
        return parts[0]

    def integer(text: str, low=None, high=None) -> int:
        try:
            value = int(text)
        except ValueError:
            raise error(f"not an integer: {text!r}") from None
        if low is not None and value < low:
            raise error(f"{value} is below {low}")
        if high is not None and value >= high:
            raise error(f"{value} is not below {high}")
        return value

    field = single("gamma")
    try:
        approx = float(field)
        gamma = Fraction(field) if 0 < approx < 1 else None
    except ValueError:
        raise error("discount factor is not a number") from None
    if gamma is None:
        raise error(f"discount factor {approx} outside (0,1)")
    n_states = integer(single("states"), 1)
    if n_states > limit:
        raise StateLimitError(f"state space has {n_states} states, "
                              f"exceeding the limit of {limit}")
    n_actions = integer(single("actions"), 1)
    initial = integer(single("initial"), 0, n_states)

    first_state = pos
    raw_states = []
    for index in range(n_states):
        parts = fields("state")
        if not parts or integer(parts[0], 0) != index:
            raise error(f"expected state {index}")
        atoms = [p.partition("=") for p in parts[1:]]
        if any(not sep for _, sep, _ in atoms):
            raise error("state atoms must read var=value")
        raw_states.append([(a, c) for a, _, c in atoms])
        if [a for a, _ in raw_states[-1]] != [a for a, _ in raw_states[0]]:
            raise error("state variables differ from those of state 0")
    names = tuple(a for a, _ in raw_states[0])
    values: dict = {name: [] for name in names}
    for state in raw_states:
        for name, value in state:
            if value not in values[name]:
                values[name].append(value)
    space = StateSpace(names, tuple(tuple(values[n]) for n in names),
                       len(names))
    for number, want in enumerate(itertools.islice(
            state_lines(space), n_states + 1), first_state + 1):
        got = lines[number - 1] if number <= len(lines) else ""
        if got.split() != want.split():
            pos = number
            raise error(f"expected '{want}', got: {got!r}")
    if space.size < n_states:
        pos = first_state + space.size + 1
        raise error(f"state {space.size} repeats an earlier assignment")

    actions = []
    triples: dict = {}  # (action, tag) -> {(row, col): value}
    action_line: dict = {}  # action -> the number of its line
    first_t: dict = {}  # (action, row) -> the number of its first `t` line
    while True:
        if pos >= len(lines):
            pos += 1
            raise error("missing 'end' line")
        parts = lines[pos].split()
        pos += 1
        if parts == ["end"]:
            break
        tag = parts[0] if parts else ""
        if tag == "action":
            if len(parts) != 3:
                raise error("'action' takes a name and a cost")
            if any(name == parts[1] for name, _ in actions):
                raise error(f"action '{parts[1]}' appears twice")
            actions.append((parts[1], integer(parts[2])))
            action_line[parts[1]] = pos
            for t in ("t", "r"):
                triples[parts[1], t] = {}
        elif tag in ("t", "r"):
            if not actions:
                raise error(f"'{tag}' line before any 'action' line")
            if len(parts) != 4:
                raise error(f"'{tag}' takes a row, a column and a value")
            at = (integer(parts[1], 0, n_states),
                  integer(parts[2], 0, n_states))
            try:
                value = float(parts[3])
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise error(f"not a finite number: {parts[3]!r}")
            if tag == "t" and value < 0:
                raise error(f"negative probability: {parts[3]!r}")
            entries = triples[actions[-1][0], tag]
            if at in entries:
                raise error(f"second '{tag}' entry for {at[0]} {at[1]}")
            entries[at] = value
            if tag == "t":
                first_t.setdefault((actions[-1][0], at[0]), pos)
        else:
            raise error(f"unexpected line: {lines[pos - 1]!r}")
    if len(actions) != n_actions:
        raise error(f"expected {n_actions} actions, found {len(actions)}")
    bad = []  # (line, action, row, sum) of every row not summing to 1
    for name, _ in actions:
        totals = [0.0] * n_states
        for (row, _), value in sorted(triples[name, "t"].items()):
            totals[row] += value
        bad += [(first_t.get((name, row), action_line[name]), name, row,
                 total)
                for row, total in enumerate(totals)
                if abs(total - 1.0) > ROW_SUM_TOL]
    if bad:
        pos, name, row, total = min(bad)
        raise error(f"action '{name}': transition row {row} sums to {total}")
    return {"gamma": gamma, "states": n_states, "initial": initial,
            "space": space, "actions": tuple(actions),
            "transitions": {a: triples[a, "t"] for a, _ in actions},
            "rewards": {a: triples[a, "r"] for a, _ in actions}}


def oracle_load_policy(text: str, action_names, n_states: int) -> dict:
    """`solver.load_policy` read line by line, with the same diagnostics:
    state -> (action index, the float read)."""
    lines = text.splitlines()
    if not lines or lines[0] != FORMAT_POLICY:
        raise SolverError(f"not an {FORMAT_POLICY} document")
    out: dict = {}
    number = 1  # line number, 1-based

    def error(message: str):
        return SolverError(f"line {number}: {message}")

    for number, line in enumerate(lines[1:], start=2):
        parts = line.split()
        if len(parts) != 3:
            raise error(f"expected '<state> <action> <value>', got: {line!r}")
        index, name, value = parts
        try:
            state = int(index)
        except ValueError:
            raise error(f"not a state index: {index!r}") from None
        if not 0 <= state < n_states:
            raise error(f"state {state} outside 0..{n_states - 1}")
        if state in out:
            raise error(f"second line for state {state}")
        if name not in action_names:
            raise error(f"unknown action '{name}'")
        try:
            number_read = float(value)
        except ValueError:
            number_read = math.nan
        if not math.isfinite(number_read):
            raise error(f"not a finite number: {value!r}")
        out[state] = (action_names.index(name), number_read)
    missing = [s for s in range(n_states) if s not in out]
    if missing:
        number = len(lines) + 1
        raise error(f"end of input with {len(missing)} of {n_states} states "
                    f"missing, the first being state {missing[0]}")
    return out


# ---------------------------------------------------------------------------
# Exhaustive policy enumeration for tiny MDPs


def exhaustive_optimal_values(mdp) -> np.ndarray:
    """Pointwise-best value over every deterministic stationary policy."""
    n = mdp.n_states
    gamma = float(mdp.gamma)
    mats = [mdp.transition_csr(name).toarray() for name in mdp.action_names]
    rvec = [np.asarray(mdp.transition_csr(name).multiply(
        mdp.reward_csr(name)).sum(axis=1)).ravel()
        for name in mdp.action_names]
    best = np.full(n, -np.inf)
    for policy in itertools.product(range(len(mats)), repeat=n):
        p = np.vstack([mats[policy[s]][s] for s in range(n)])
        r = np.array([rvec[policy[s]][s] for s in range(n)])
        v = np.linalg.solve(np.eye(n) - gamma * p, r)
        best = np.maximum(best, v)
    return best


# ---------------------------------------------------------------------------
# Random model generation (desk scale, single-branch actions/events)

ALL_KINDS = list(ReqKind)


def _random_formula(rng: random.Random, variables, depth=2):
    if depth == 0 or rng.random() < 0.4:
        var = rng.choice(variables)
        return Atom(var.name, rng.choice(var.domain))
    roll = rng.random()
    if roll < 0.2:
        return Not(_random_formula(rng, variables, depth - 1))
    left = _random_formula(rng, variables, depth - 1)
    right = _random_formula(rng, variables, depth - 1)
    return And(left, right) if roll < 0.6 else Or(left, right)


def _random_effects(rng: random.Random, variables):
    effects = []
    remaining = Fraction(1)
    for _ in range(rng.randint(1, 2)):
        num = rng.randint(1, remaining.numerator * 10 // remaining.denominator)
        prob = Fraction(num, 10)
        chosen = rng.sample(variables, rng.randint(1, min(2, len(variables))))
        assignments = tuple((v.name, rng.choice(v.domain)) for v in chosen)
        effects.append(Effect(assignments, prob))
        remaining -= prob
        if remaining <= 0:
            break
    return tuple(effects)


def random_model(rng: random.Random, with_requirement=True) -> DomainModel:
    """A small well-formed model: <=64 states, <=3 events, single-branch
    actions/events (so preconditions cannot overlap)."""
    n_vars = rng.randint(2, 3)
    variables = []
    for v in range(n_vars):
        size = rng.choice([2, 2, 3]) if n_vars == 2 else 2
        if size == 2:
            variables.append(VariableDecl(f"v{v}"))
        else:
            variables.append(VariableDecl(
                f"v{v}", tuple(f"c{i}" for i in range(size))))

    actions = []
    for a in range(rng.randint(1, 2)):
        pre = _random_formula(rng, variables)
        if rng.random() < 0.2:
            pre = BoolLit(True)
        actions.append(ActionDesc(
            f"a{a}", (ActionBranch(pre, _random_effects(rng, variables)),),
            cost=rng.randint(0, 5)))

    events = []
    for e in range(rng.randint(0, 3)):
        op = Fraction(rng.randint(1, 10), 10)
        events.append(EventDesc(
            f"e{e}",
            (EventBranch(_random_formula(rng, variables), op,
                         _random_effects(rng, variables)),)))

    requirements = ()
    if with_requirement:
        kind = rng.choice(ALL_KINDS)
        deadline = rng.randint(1, 2) if kind.has_deadline else None
        duration = rng.randint(1, 2) if kind.has_duration else None
        activation = _random_formula(rng, variables) \
            if kind.is_conditional else None
        cancellation = _random_formula(rng, variables) \
            if kind.is_conditional and rng.random() < 0.5 else None
        requirements = (Requirement(
            "m", kind, _random_formula(rng, variables), activation,
            cancellation, deadline, duration, rng.randint(1, 100)),)

    initial = tuple((v.name, rng.choice(v.domain)) for v in variables)
    return DomainModel(tuple(variables), tuple(actions), tuple(events),
                       requirements, initial)
