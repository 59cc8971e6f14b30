"""Discrete-time simulation of a compiled model under a controller.

Each tick the controller picks an action; its effect branch is sampled,
then every event whose precondition holds in the running intermediate
state fires independently with its occurrence probability, in declaration
order, at most once. This mirrors the compiler's matrix product exactly,
so empirical step frequencies converge to the implicit transition rows.

Every outcome of a tick is a function of the state, the action and the
draws, so `step` looks it up in tables kept on the model (memo functions,
Michie 1968): per action, its cost and, per base state, the matched
branch's effects as cumulative thresholds and successor bases, and the
successor of its most likely effect, which the replanning controller
searches; per event and base state, the matched branch's occurrence
probability and effects; per action or event step, the status tuple
after it; per (state before, state after), the requirement rewards and
the names of the requirements satisfied; and per state, the goal table
the replanning controller plans toward there: per base state, whether
any achieve requirement active in the state holds there, which the
planner tests at every node it pops, one table per distinct set of
active requirements; plan takes no other kind of goal. The simulator's
own branch matcher and `reqauto`'s status updates and reward fill each
entry the first time it is read; the compiled matrices are never read,
so criterion 6 still compares two transcriptions of the tick. The goal
fills read the decoded base and status dicts the other fills keep,
read-only. The tables are freed with their model and grow with the
states and transitions the runs on it visit.

Randomness comes from numpy's default bit generator (PCG64, O'Neill
2014), seeded per run, so traces replay across platforms. A run reads its
draws through `Draws`, which takes the generator's raw 64-bit output in
blocks and returns exactly what `Generator.random()` and
`Generator.integers(n)` would, one scalar call at a time, for a fraction
of their call cost. `step` and the controllers accept either.
"""

from __future__ import annotations

import csv
import heapq
import io
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from obd.dsl import ObdError, eval_formula
from obd.compiler import MdpModel, NOOP
from obd.reqauto import reward as requirement_reward, update_action, update_event
from obd.solver import Strategy


class SimulationError(ObdError):
    pass


def require_source(mdp: MdpModel) -> None:
    """Raise SimulationError unless `mdp` was compiled from `.obd` source
    in this process: a model read from obdmdp/1 has no branches to sample."""
    if mdp.model is None:
        raise SimulationError("model was loaded from obdmdp text; "
                              "simulation needs an in-process compile")


# ---------------------------------------------------------------------------
# Step tables


class _Memo(dict):
    """A dict that computes a missing entry with `fill` on first read."""

    def __init__(self, fill: Callable):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


class _Tables(NamedTuple):
    n_statuses: int  # S, in state index = base index * S + sigma
    # action name -> (cost, outcomes, successors); per base index, each
    # is None when no branch matches, else the outcomes are the effects
    # as ((cumulative probability, successor base), ...) and the
    # successor is the base after the most likely effect (ties: first
    # declared), or None when there is none or the base is unchanged
    actions: dict
    # per event, declaration order: base index -> None, or
    # (occurrence probability, effects as above)
    events: tuple
    after_action: _Memo  # successor base * S + sigma -> sigma after
    after_event: _Memo  # the same, for an event occurrence
    rewards: _Memo  # (index before, index after) -> (reward, satisfied)
    bases: _Memo  # base index -> {variable: value}; read-only
    statuses: _Memo  # sigma -> {requirement: status}; read-only
    # state index -> None when no achieve requirement is active, else
    # (base index -> whether any active one holds there); one table per
    # distinct set of active requirements
    goals: _Memo


def _new_tables(mdp: MdpModel) -> _Tables:
    require_source(mdp)
    space = mdp.space
    automata = mdp.automata
    n_statuses = space.n_statuses
    base_names = space.names[:space.n_base]

    def base(b: int) -> dict:  # the first fill at any base: checks indices
        if not 0 <= b * n_statuses < space.size:
            raise SimulationError(f"state index outside 0..{space.size - 1}")
        state = space.state(b * n_statuses)
        return {name: state[name] for name in base_names}

    def statuses(sigma: int) -> dict:
        state = space.state(sigma)
        return {auto.name: state[auto.name] for auto in automata}

    bases = _Memo(base)
    status_dicts = _Memo(statuses)

    def matched(branches, entry) -> _Memo:
        """base index -> entry(branch, b) for the first branch whose
        precondition holds at the base, else None."""
        def fill(b: int):
            base = bases[b]
            for branch in branches:
                if eval_formula(branch.precondition, base):
                    return entry(branch, b)
            return None
        return _Memo(fill)

    def successor(b: int, eff) -> int:
        state = space.state(b * n_statuses)
        state.update(eff.assignments)
        return space.index_of(state) // n_statuses

    def effects(branch, b: int) -> tuple:
        """Each effect's cumulative probability, summed in declaration
        order as floats, and the base it leads to; a draw below no
        threshold leaves the base unchanged."""
        out = []
        acc = 0.0
        for eff in branch.effects:
            acc += float(eff.probability)
            out.append((acc, successor(b, eff)))
        return tuple(out)

    def most_likely(branch, b: int):
        if not branch.effects:
            return None
        succ = successor(b, max(branch.effects, key=lambda e: e.probability))
        return None if succ == b else succ

    def occurrence(branch, b: int) -> tuple:
        return float(branch.occurrence_probability), effects(branch, b)

    def after_step(update) -> _Memo:
        def fill(key: int) -> int:
            b, sigma = divmod(key, n_statuses)
            new_base = bases[b]
            before = status_dicts[sigma]
            state = dict(new_base)
            state.update((auto.name, update(auto, before[auto.name], new_base))
                         for auto in automata)
            return space.index_of(state) % n_statuses
        return _Memo(fill)

    def reward(key: tuple) -> tuple:
        before, after = space.state(key[0]), space.state(key[1])
        total = 0
        satisfied = []
        for auto in automata:
            r = requirement_reward(auto, before, after)
            if r:
                satisfied.append(auto.name)
            total += r
        return total, tuple(satisfied)

    # achieve requirements: an unconditional one is active while its
    # formula is false at the base, a conditional one while its status
    # is not "I" (inactive)
    achieve = [(auto.name, auto.requirement.required,
                auto.requirement.kind.is_conditional)
               for auto in automata if auto.requirement.kind.is_achieve]

    def goal_table(active: tuple) -> _Memo:
        """base index -> whether any goal `active` indexes holds there,
        tried in declaration order."""
        required = [achieve[k][1] for k in active]
        return _Memo(lambda b: any(eval_formula(f, bases[b])
                                   for f in required))

    goal_tables = _Memo(goal_table)

    def goal(i: int) -> Optional[_Memo]:
        b, sigma = divmod(i, n_statuses)
        base, statuses = bases[b], status_dicts[sigma]
        active = tuple(k for k, (name, required, conditional)
                       in enumerate(achieve)
                       if (statuses[name] != "I" if conditional
                           else not eval_formula(required, base)))
        return goal_tables[active] if active else None

    return _Tables(
        n_statuses,
        {name: (action.cost, matched(action.branches, effects),
                matched(action.branches, most_likely))
         for name, action in zip(mdp.action_names, mdp.actions)},
        tuple(matched(event.branches, occurrence)
              for event in mdp.model.events),
        after_step(update_action), after_step(update_event), _Memo(reward),
        bases, status_dicts, _Memo(goal))


def _tables(mdp: MdpModel) -> _Tables:
    if mdp.step_tables is None:
        mdp.step_tables = _new_tables(mdp)
    return mdp.step_tables


# ---------------------------------------------------------------------------
# Draws


BLOCK = 4096  # raw 64-bit words read from the bit generator at a time
_LOW = 0xFFFFFFFF


class Draws:
    """The draws of `np.random.default_rng(seed)`'s `random()` and
    `integers(n)`, bit for bit, read from blocks of its raw PCG64 words.

    `random()` turns each word into (word >> 11) * 2**-53. `integers(n)`
    is Lemire's multiply-shift rejection on 32-bit draws (Lemire 2019),
    as numpy takes it for 1 <= n <= 2**32: a 32-bit draw takes the low
    half of a fresh word and keeps the high half for the next 32-bit
    draw, which 64-bit draws neither use nor clear (PCG64's
    `has_uint32`); n = 1 draws nothing.
    """

    __slots__ = ("_bits", "_words", "_doubles", "_next", "_kept")

    def __init__(self, seed: int):
        self._bits = np.random.default_rng(seed).bit_generator
        self._kept = None  # the high half kept for the next 32-bit draw
        self._refill()

    def _refill(self) -> None:
        words = self._bits.random_raw(BLOCK)
        self._words = words.tolist()
        self._doubles = ((words >> 11) * 2.0 ** -53).tolist()
        self._next = 0

    def random(self) -> float:
        i = self._next
        if i == BLOCK:
            self._refill()
            i = 0
        self._next = i + 1
        return self._doubles[i]

    def _uint32(self) -> int:
        kept = self._kept
        if kept is not None:
            self._kept = None
            return kept
        i = self._next
        if i == BLOCK:
            self._refill()
            i = 0
        self._next = i + 1
        word = self._words[i]
        self._kept = word >> 32
        return word & _LOW

    def integers(self, n: int) -> int:
        """Uniform on 0..n-1, for 1 <= n <= 2**32; numpy draws 64 bits
        above that, which this does not reproduce."""
        if not 1 <= n <= 1 << 32:
            raise ValueError(f"integers: n = {n} outside 1..2**32")
        if n == 1:
            return 0
        m = self._uint32() * n
        if m & _LOW < n:  # n bounds the rejection threshold
            threshold = (1 << 32) % n
            while m & _LOW < threshold:
                m = self._uint32() * n
        return m >> 32


# ---------------------------------------------------------------------------
# One simulation step


def step(mdp: MdpModel, state_index: int, action_name: str, rng):
    """Advance one tick: apply the action, then fire events.

    Returns (next_state_index, reward_earned, satisfied_requirement_names).
    The reward is the same quantity the compiled reward matrix assigns to
    the sampled transition (requirement rewards minus action cost). Draws
    one number for the action when a branch matches, and for each event
    whose branch matches one for its occurrence and, when it occurs, one
    for its effect.
    """
    n_statuses, actions, events, after_action, after_event, rewards, _, \
        _, _ = _tables(mdp)
    b, sigma = divmod(state_index, n_statuses)
    try:
        cost, outcomes, _ = actions[action_name]
    except KeyError:
        raise SimulationError(f"unknown action '{action_name}'") from None

    effects = outcomes[b]
    if effects is not None:
        u = rng.random()
        for threshold, successor in effects:
            if u < threshold:
                b = successor
                break
    sigma = after_action[b * n_statuses + sigma]

    for outcomes in events:
        outcome = outcomes[b]
        if outcome is None:
            continue
        occurrence, effects = outcome
        if rng.random() >= occurrence:
            continue
        u = rng.random()
        for threshold, successor in effects:
            if u < threshold:
                b = successor
                break
        sigma = after_event[b * n_statuses + sigma]

    next_index = b * n_statuses + sigma
    reward, satisfied = rewards[state_index, next_index]
    return next_index, reward - cost, satisfied


# ---------------------------------------------------------------------------
# Controllers


class Controller:
    """Picks an action name for a state; may observe outcomes."""

    name = "controller"
    plan_failures = 0

    def choose(self, state_index: int, rng) -> str:
        raise NotImplementedError

    def observe(self, prev_index: int, action: str, next_index: int) -> None:
        pass


class ReflexController(Controller):
    """Constant-time lookup of the precomputed optimal action."""

    name = "reflex"

    def __init__(self, mdp: MdpModel, strategy: Strategy):
        self.table = [mdp.action_names[a] for a in strategy.actions]

    def choose(self, state_index: int, rng) -> str:
        return self.table[state_index]


class RandomController(Controller):
    """Uniform choice over all actions; the floor any planner must beat."""

    name = "random"

    def __init__(self, mdp: MdpModel):
        self.action_names = mdp.action_names

    def choose(self, state_index: int, rng) -> str:
        return self.action_names[rng.integers(len(self.action_names))]


# ---------------------------------------------------------------------------
# Forward-search planner on the determinized model


PLANNER_BUDGET = 10_000  # nodes a search may expand


def plan(mdp: MdpModel, start: int, goal: _Memo,
         budget: int = PLANNER_BUDGET) -> Optional[list]:
    """Uniform-cost forward search over the determinized base-state graph,
    from base index `start`, toward a goal table of the step tables (base
    index -> whether the goal holds there).

    Events are ignored; each action is replaced by its most likely effect.
    Returns the cheapest plan (ties: shorter, then lexicographic action
    order) or None when the budget runs out or the goal is unreachable.
    """
    records = _tables(mdp).actions.items()
    frontier = [(0, 0, (), start)]
    seen = set()
    expanded = 0
    while frontier and expanded < budget:
        cost, length, actions, b = heapq.heappop(frontier)
        if goal[b]:
            return list(actions)
        if b in seen:
            continue
        seen.add(b)
        expanded += 1
        for name, (action_cost, _, successors) in records:
            succ = successors[b]
            if succ is None or succ in seen:
                continue
            heapq.heappush(frontier, (cost + action_cost, length + 1,
                                      actions + (name,), succ))
    return None


class ReplanningController(Controller):
    """Monitor/plan/execute baseline: plans toward any of the currently
    active achieve requirements, follows the plan to its end, and replans
    when the world diverges from the plan's prediction."""

    name = "replan"

    def __init__(self, mdp: MdpModel, budget: int = PLANNER_BUDGET):
        self.mdp = mdp
        self.tables = _tables(mdp)  # goals and successors, read-only
        self.budget = budget
        self.plan_queue: list = []
        self.predicted: Optional[int] = None  # base index after the action

    def choose(self, state_index: int, rng) -> str:
        b = state_index // self.tables.n_statuses
        if not self.plan_queue:
            goal = self.tables.goals[state_index]
            if goal is None:
                self.predicted = None
                return NOOP
            found = plan(self.mdp, b, goal, self.budget)
            if not found:  # unreachable or out of budget (empty = met)
                if found is None:
                    self.plan_failures += 1
                self.predicted = None
                return NOOP
            self.plan_queue = found
        action_name = self.plan_queue.pop(0)
        succ = self.tables.actions[action_name][2][b]
        self.predicted = b if succ is None else succ
        return action_name

    def observe(self, prev_index: int, action: str, next_index: int) -> None:
        if self.predicted is not None \
                and next_index // self.tables.n_statuses != self.predicted:
            self.plan_failures += 1
            self.plan_queue = []
            self.predicted = None


# ---------------------------------------------------------------------------
# Runs and metrics


@dataclass
class Metrics:
    seed: int
    controller: str
    ticks: int
    total_reward: float = 0.0
    satisfaction_counts: dict = field(default_factory=dict)
    latencies_ns: list = field(default_factory=list)
    plan_failures: int = 0

    @property
    def total_satisfactions(self) -> int:
        return sum(self.satisfaction_counts.values())

    @property
    def goals_per_tick(self) -> float:
        return self.total_satisfactions / self.ticks if self.ticks else 0.0

    @property
    def mean_reward(self) -> float:
        return self.total_reward / self.ticks if self.ticks else 0.0

    @property
    def median_latency_ns(self) -> float:
        return statistics.median(self.latencies_ns) if self.latencies_ns else 0.0


CSV_FIELDS = ("seed", "controller", "ticks", "goalsPerTick", "meanReward",
              "medianLatencyNs", "planFailures")


def run(mdp: MdpModel, controller: Controller, ticks: int,
        seed: int) -> Metrics:
    """Simulate `ticks` steps from the initial state; reproducible for a
    fixed (model, controller, ticks, seed)."""
    rng = Draws(seed)
    metrics = Metrics(seed=seed, controller=controller.name, ticks=ticks)
    state = mdp.initial_index
    for _ in range(ticks):
        t0 = time.perf_counter_ns()
        action = controller.choose(state, rng)
        metrics.latencies_ns.append(time.perf_counter_ns() - t0)
        next_state, earned, satisfied = step(mdp, state, action, rng)
        controller.observe(state, action, next_state)
        metrics.total_reward += earned
        for name in satisfied:
            metrics.satisfaction_counts[name] = \
                metrics.satisfaction_counts.get(name, 0) + 1
        state = next_state
    metrics.plan_failures = controller.plan_failures
    return metrics


def metrics_csv(rows) -> str:
    """One CSV row per run."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_FIELDS)
    for m in rows:
        writer.writerow([m.seed, m.controller, m.ticks,
                         f"{m.goals_per_tick:.6f}", f"{m.mean_reward:.6f}",
                         f"{m.median_latency_ns:.0f}", m.plan_failures])
    return out.getvalue()


def metrics_summary(rows) -> str:
    lines = []
    for m in rows:
        lines.append(
            f"{m.controller} seed={m.seed}: {m.ticks} ticks, "
            f"{m.goals_per_tick:.4f} goals/tick, "
            f"mean reward {m.mean_reward:.3f}, "
            f"median decision {m.median_latency_ns:.0f} ns, "
            f"{m.plan_failures} plan failures")
    return "\n".join(lines) + "\n"
