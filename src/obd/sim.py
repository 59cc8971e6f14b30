"""Discrete-time simulation of a compiled model under a controller.

Each tick the controller picks an action; its effect branch is sampled,
then every event whose precondition holds in the running intermediate
state fires independently with its occurrence probability, in declaration
order, at most once. This mirrors the compiler's matrix product exactly,
so empirical step frequencies converge to the implicit transition rows.

Randomness comes from numpy's default generator (PCG64), seeded per run,
so traces replay across platforms.
"""

from __future__ import annotations

import csv
import heapq
import io
import statistics
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from obd.dsl import ActionDesc, DomainModel, Formula, ObdError, Or, eval_formula
from obd.compiler import MdpModel, NOOP
from obd.reqauto import reward as requirement_reward, update_action, update_event
from obd.solver import Strategy


class SimulationError(ObdError):
    pass


# ---------------------------------------------------------------------------
# One simulation step


def _sample_effects(branch, base: dict, rng) -> dict:
    """Pick one effect set of the branch (or the residual no-change
    outcome) and apply it to the base."""
    u = rng.random()
    acc = 0.0
    for eff in branch.effects:
        acc += float(eff.probability)
        if u < acc:
            new = dict(base)
            for var, value in eff.assignments:
                new[var] = value
            return new
    return dict(base)


def _matched_branch(branches, base: dict):
    for br in branches:
        if eval_formula(br.precondition, base):
            return br
    return None


def step(mdp: MdpModel, state_index: int, action_name: str, rng):
    """Advance one tick: apply the action, then fire events.

    Returns (next_state_index, reward_earned, satisfied_requirement_names).
    The reward is the same quantity the compiled reward matrix assigns to
    the sampled transition (requirement rewards minus action cost).
    """
    if mdp.model is None:
        raise SimulationError("model was loaded from obdmdp text; "
                              "simulation needs an in-process compile")
    space = mdp.space
    automata = mdp.automata
    before = space.state(state_index)
    base_names = space.names[:space.n_base]
    base = {name: before[name] for name in base_names}
    statuses = {auto.name: before[auto.name] for auto in automata}

    try:
        action = mdp.actions[mdp.action_names.index(action_name)]
    except ValueError:
        raise SimulationError(f"unknown action '{action_name}'") from None

    branch = _matched_branch(action.branches, base)
    new_base = _sample_effects(branch, base, rng) if branch is not None else base
    statuses = {auto.name: update_action(auto, statuses[auto.name], new_base)
                for auto in automata}
    base = new_base

    for event in mdp.model.events:
        branch = _matched_branch(event.branches, base)
        if branch is None:
            continue
        if rng.random() >= float(branch.occurrence_probability):
            continue
        base = _sample_effects(branch, base, rng)
        statuses = {auto.name: update_event(auto, statuses[auto.name], base)
                    for auto in automata}

    after = dict(base)
    after.update(statuses)
    next_index = space.index_of(after)

    earned = -action.cost
    satisfied = []
    for auto in automata:
        r = requirement_reward(auto, before, after)
        if r:
            satisfied.append(auto.name)
        earned += r
    return next_index, earned, tuple(satisfied)


# ---------------------------------------------------------------------------
# Controllers


class Controller:
    """Picks an action name for a state; may observe outcomes."""

    name = "controller"

    def choose(self, state_index: int, rng) -> str:
        raise NotImplementedError

    def observe(self, prev_index: int, action: str, next_index: int) -> None:
        pass

    @property
    def plan_failures(self) -> int:
        return 0


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


def _determinized_successor(action: ActionDesc, base: dict):
    """Most-likely effect of the action's matched branch (ties: first
    declared); None when no precondition holds or nothing changes."""
    branch = _matched_branch(action.branches, base)
    if branch is None or not branch.effects:
        return None
    best = max(branch.effects, key=lambda eff: eff.probability)
    new = dict(base)
    for var, value in best.assignments:
        new[var] = value
    return new if new != base else None


def plan(model: DomainModel, start_base: dict, goal: Formula,
         budget: int = 10_000) -> Optional[list]:
    """Uniform-cost forward search over the determinized base-state graph.

    Events are ignored; each action is replaced by its most likely effect.
    Returns the cheapest plan (ties: shorter, then lexicographic action
    order) or None when the budget runs out or the goal is unreachable.
    """
    var_order = [v.name for v in model.variables]

    def key(base):
        return tuple(base[v] for v in var_order)

    start = dict(start_base)
    frontier = [(0, 0, (), key(start), start)]
    seen = set()
    expanded = 0
    while frontier and expanded < budget:
        cost, length, actions, k, base = heapq.heappop(frontier)
        if eval_formula(goal, base):
            return list(actions)
        if k in seen:
            continue
        seen.add(k)
        expanded += 1
        for action in model.actions:
            succ = _determinized_successor(action, base)
            if succ is None:
                continue
            sk = key(succ)
            if sk in seen:
                continue
            heapq.heappush(frontier, (cost + action.cost, length + 1,
                                      actions + (action.name,), sk, succ))
    return None


class ReplanningController(Controller):
    """Monitor/plan/execute baseline: plans toward the disjunction of the
    currently active achieve requirements, follows the plan to its end,
    and replans when the world diverges from the plan's prediction."""

    name = "replan"

    def __init__(self, mdp: MdpModel, budget: int = 10_000):
        if mdp.model is None:
            raise SimulationError("replanning needs an in-process compile")
        self.mdp = mdp
        self.model = mdp.model
        self.budget = budget
        self.plan_queue: list = []
        self.predicted_base: Optional[dict] = None
        self.current_base: Optional[dict] = None
        self.failures = 0
        # achieve requirements, each with whether it waits for activation
        self.tracked = [(auto, auto.requirement.kind.is_conditional)
                        for auto in mdp.automata
                        if auto.requirement.kind.is_achieve]
        self.actions = {a.name: a for a in self.model.actions}

    @property
    def plan_failures(self) -> int:
        return self.failures

    def _base_of(self, state: dict) -> dict:
        return {name: state[name]
                for name in self.mdp.space.names[:self.mdp.space.n_base]}

    def _active_goals(self, state: dict, base: dict) -> list:
        goals = []
        for auto, conditional in self.tracked:
            req = auto.requirement
            if not conditional:
                if not eval_formula(req.required, base):
                    goals.append(req.required)
            elif state[auto.name] != "I":
                goals.append(req.required)
        return goals

    def choose(self, state_index: int, rng) -> str:
        if self.plan_queue:
            return self._execute_head()
        state = self.mdp.space.state(state_index)
        base = self._base_of(state)
        goals = self._active_goals(state, base)
        if not goals:
            self.predicted_base = None
            return NOOP
        goal = goals[0]
        for g in goals[1:]:
            goal = Or(goal, g)
        found = plan(self.model, base, goal, self.budget)
        if not found:  # unreachable or budget exhausted (empty = already met)
            if found is None:
                self.failures += 1
            self.predicted_base = None
            return NOOP
        self.plan_queue = found
        self.current_base = base
        return self._execute_head()

    def _execute_head(self) -> str:
        action_name = self.plan_queue.pop(0)
        predicted = _determinized_successor(self.actions[action_name],
                                            self.current_base)
        self.predicted_base = predicted if predicted is not None \
            else dict(self.current_base)
        return action_name

    def observe(self, prev_index: int, action: str, next_index: int) -> None:
        actual = self._base_of(self.mdp.space.state(next_index))
        if self.predicted_base is not None:
            if actual != self.predicted_base:
                self.failures += 1
                self.plan_queue = []
                self.predicted_base = None
        self.current_base = actual


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
    rng = np.random.default_rng(seed)
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
