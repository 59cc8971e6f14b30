"""Optimal memoryless strategies for compiled models.

Value iteration runs Bellman backups to a max-norm stopping rule; policy
iteration alternates exact evaluation with greedy improvement. Every entry
point reads one Bellman operator built once per solve, with all actions'
transition rows stacked in one matrix, and policy evaluation is always a
direct sparse solve. Both solvers return the same Strategy shape: a total
state-to-action map with its value function and solver metadata.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from obd.compiler import MdpModel, float_column, join_columns, text_table
from obd.dsl import ObdError

FORMAT_POLICY = "obdpolicy/1"
DEFAULT_EPSILON = 1e-6
ROW_SUM_TOL = 1e-9


class SolverError(ObdError):
    pass


@dataclass
class Strategy:
    """Per-state optimal action (indices into the model's action list),
    its value function, and how it was obtained."""

    actions: np.ndarray  # int, shape (n_states,)
    values: np.ndarray  # float, shape (n_states,)
    iterations: int
    residual: float
    method: str

    def action_name(self, mdp: MdpModel, state: int) -> str:
        return mdp.action_names[self.actions[state]]


class _Bellman:
    """The Bellman operator of a model: every action's transition rows
    stacked in one CSR (row a*n + s), their expected one-step rewards, and
    a defensive row-stochasticity re-check."""

    def __init__(self, mdp: MdpModel):
        n = mdp.n_states
        p = sp.vstack([mdp.transition_csr(a) for a in mdp.action_names],
                      format="csr")
        r = sp.vstack([mdp.reward_csr(a) for a in mdp.action_names],
                      format="csr")
        sums = np.asarray(p.sum(axis=1)).ravel()
        bad = np.flatnonzero(np.abs(sums - 1.0) > ROW_SUM_TOL)
        if bad.size:
            action, state = divmod(int(bad[0]), n)
            raise SolverError(
                f"action '{mdp.action_names[action]}': transition row "
                f"{state} sums to {sums[bad[0]]}")
        self.n = n
        self.gamma = float(mdp.gamma)
        self.matrix = p
        self.expected = np.asarray(p.multiply(r).sum(axis=1)).ravel()

    def q_values(self, values: np.ndarray) -> np.ndarray:
        """Q-values, shape (n_actions, n_states)."""
        return (self.expected + self.gamma * (self.matrix @ values)).reshape(
            -1, self.n)

    def evaluate(self, policy: np.ndarray) -> np.ndarray:
        """Solve (I - gamma*P_pi) V = r_pi directly."""
        rows = policy * self.n + np.arange(self.n)
        system = (sp.identity(self.n, format="csr")
                  - self.gamma * self.matrix[rows])
        return spla.spsolve(system.tocsc(), self.expected[rows])


def greedy_policy(mdp: MdpModel, values: np.ndarray) -> Strategy:
    """One-step lookahead argmax; ties go to the lowest action index
    (noop is index 0)."""
    q = _Bellman(mdp).q_values(values)
    return Strategy(actions=np.argmax(q, axis=0), values=q.max(axis=0),
                    iterations=0, residual=0.0, method="greedy")


def value_iteration(mdp: MdpModel,
                    epsilon: float = DEFAULT_EPSILON) -> Strategy:
    """Bellman backups from V=0 until the max-norm residual drops below
    epsilon*(1-gamma)/(2*gamma); the result is within epsilon of optimal."""
    if not epsilon > 0:  # nan too, which would stop before the first sweep
        raise SolverError("epsilon must be positive")
    bellman = _Bellman(mdp)
    threshold = epsilon * (1.0 - bellman.gamma) / (2.0 * bellman.gamma)
    values = np.zeros(mdp.n_states)
    iterations = 0
    residual = np.inf
    while residual >= threshold:
        new_values = bellman.q_values(values).max(axis=0)
        residual = float(np.max(np.abs(new_values - values)))
        values = new_values
        iterations += 1
    return Strategy(actions=np.argmax(bellman.q_values(values), axis=0),
                    values=values, iterations=iterations, residual=residual,
                    method="value-iteration")


def evaluate_policy(mdp: MdpModel, policy: np.ndarray) -> np.ndarray:
    """Values of a fixed policy, by one direct sparse solve."""
    return _Bellman(mdp).evaluate(policy)


def policy_iteration(mdp: MdpModel) -> Strategy:
    """Exact evaluation + greedy improvement until the policy is stable."""
    bellman = _Bellman(mdp)
    states = np.arange(mdp.n_states)
    policy = np.zeros(mdp.n_states, dtype=np.int64)
    iterations = 0
    while True:
        values = bellman.evaluate(policy)
        iterations += 1
        q = bellman.q_values(values)
        improved = np.argmax(q, axis=0)
        # keep the incumbent action when it is still (tied-)optimal, so the
        # iteration cannot cycle between equal-value policies
        keep = np.isclose(q[policy, states], q.max(axis=0),
                          rtol=0.0, atol=1e-12)
        improved[keep] = policy[keep]
        if np.array_equal(improved, policy):
            return Strategy(actions=policy, values=values,
                            iterations=iterations, residual=0.0,
                            method="policy-iteration")
        policy = improved


# ---------------------------------------------------------------------------
# Strategy export (format obdpolicy/1)


def dump_policy(strategy: Strategy, mdp: MdpModel) -> str:
    """One `<state> <action> <value>` line per state, written as one
    block like the triples of obdmdp/1."""
    n = mdp.n_states
    return FORMAT_POLICY + "\n" + join_columns(
        (text_table(f"{s} " for s in range(n)), np.arange(n)),
        (text_table(f"{a} " for a in mdp.action_names), strategy.actions),
        float_column(strategy.values, "{!r}\n"))


def load_policy(text: str, mdp: MdpModel) -> Strategy:
    """Parse an obdpolicy/1 document for `mdp`: one `<state> <action>
    <value>` line per state. Malformed documents raise SolverError naming
    the line."""
    lines = text.splitlines()
    if not lines or lines[0] != FORMAT_POLICY:
        raise SolverError(f"not an {FORMAT_POLICY} document")
    n = mdp.n_states
    actions = np.full(n, -1, dtype=np.int64)
    values = np.zeros(n)
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
        if not 0 <= state < n:
            raise error(f"state {state} outside 0..{n - 1}")
        if actions[state] >= 0:
            raise error(f"second line for state {state}")
        if name not in mdp.action_names:
            raise error(f"unknown action '{name}'")
        try:
            values[state] = float(value)
        except ValueError:
            values[state] = math.nan
        if not math.isfinite(values[state]):
            raise error(f"not a finite number: {value!r}")
        actions[state] = mdp.action_names.index(name)
    missing = np.flatnonzero(actions < 0)
    if missing.size:
        number = len(lines) + 1
        raise error(f"end of input with {missing.size} of {n} states "
                    f"missing, the first being state {missing[0]}")
    return Strategy(actions=actions, values=values, iterations=0,
                    residual=0.0, method="loaded")


def policy_to_json(strategy: Strategy, mdp: MdpModel) -> str:
    doc = {
        "format": FORMAT_POLICY,
        "method": strategy.method,
        "iterations": strategy.iterations,
        "residual": strategy.residual,
        "states": [
            {"index": s,
             "action": mdp.action_names[strategy.actions[s]],
             "value": float(strategy.values[s])}
            for s in range(mdp.n_states)
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
