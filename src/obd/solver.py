"""Optimal memoryless strategies for compiled models.

Value iteration runs Bellman backups to a max-norm stopping rule; policy
iteration alternates exact evaluation with greedy improvement. Both return
the same Strategy shape: a total state-to-action map with its value
function and solver metadata.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from obd.compiler import MdpModel
from obd.dsl import ObdError

FORMAT_POLICY = "obdpolicy/1"
DEFAULT_EPSILON = 1e-6
DIRECT_SOLVE_LIMIT = 50_000
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


def _prepared(mdp: MdpModel):
    """CSR transition matrices and expected one-step rewards per action,
    with a defensive row-stochasticity re-check."""
    mats = []
    expected = []
    for name in mdp.action_names:
        p = mdp.transition_csr(name)
        sums = np.asarray(p.sum(axis=1)).ravel()
        if np.max(np.abs(sums - 1.0)) > ROW_SUM_TOL:
            bad = int(np.argmax(np.abs(sums - 1.0)))
            raise SolverError(
                f"action '{name}': transition row {bad} sums to {sums[bad]}")
        r = mdp.reward_csr(name)
        expected.append(np.asarray(p.multiply(r).sum(axis=1)).ravel())
        mats.append(p)
    return mats, expected


def _q_values(mats, expected, gamma: float, values: np.ndarray) -> np.ndarray:
    return np.column_stack(
        [r + gamma * (p @ values) for p, r in zip(mats, expected)])


def greedy_policy(mdp: MdpModel, values: np.ndarray) -> Strategy:
    """One-step lookahead argmax; ties go to the lowest action index
    (noop is index 0)."""
    mats, expected = _prepared(mdp)
    q = _q_values(mats, expected, float(mdp.gamma), values)
    actions = np.argmax(q, axis=1)
    return Strategy(actions=actions, values=q.max(axis=1),
                    iterations=0, residual=0.0, method="greedy")


def value_iteration(mdp: MdpModel,
                    epsilon: float = DEFAULT_EPSILON) -> Strategy:
    """Bellman backups from V=0 until the max-norm residual drops below
    epsilon*(1-gamma)/(2*gamma); the result is within epsilon of optimal."""
    if epsilon <= 0:
        raise SolverError("epsilon must be positive")
    gamma = float(mdp.gamma)
    mats, expected = _prepared(mdp)
    threshold = epsilon * (1.0 - gamma) / (2.0 * gamma)
    values = np.zeros(mdp.n_states)
    iterations = 0
    residual = np.inf
    while residual >= threshold:
        q = _q_values(mats, expected, gamma, values)
        new_values = q.max(axis=1) if q.size else values
        residual = float(np.max(np.abs(new_values - values))) if q.size else 0.0
        values = new_values
        iterations += 1
    q = _q_values(mats, expected, gamma, values)
    return Strategy(actions=np.argmax(q, axis=1), values=values,
                    iterations=iterations, residual=residual,
                    method="value-iteration")


def _stacked(mats, expected):
    """All actions' transition rows in one CSR (row a*n + s) and their
    expected rewards, so a policy's rows are one gather."""
    return sp.vstack(mats, format="csr"), np.concatenate(expected)


def _policy_matrices(stacked, stacked_expected, policy: np.ndarray):
    rows = policy * len(policy) + np.arange(len(policy))
    return stacked[rows], stacked_expected[rows]


def evaluate_policy(mdp: MdpModel, policy: np.ndarray) -> np.ndarray:
    """Solve (I - gamma*P_pi) V = r_pi; direct sparse solve below the size
    cutoff, fixed-point iteration above it."""
    gamma = float(mdp.gamma)
    mats, expected = _prepared(mdp)
    p_pi, r_pi = _policy_matrices(*_stacked(mats, expected), policy)
    n = mdp.n_states
    if n <= DIRECT_SOLVE_LIMIT:
        system = sp.identity(n, format="csr") - gamma * p_pi
        return spla.spsolve(system.tocsc(), r_pi)
    values = np.zeros(n)
    threshold = DEFAULT_EPSILON * (1.0 - gamma)
    while True:
        new_values = r_pi + gamma * (p_pi @ values)
        if np.max(np.abs(new_values - values)) < threshold:
            return new_values
        values = new_values


def policy_iteration(mdp: MdpModel) -> Strategy:
    """Exact evaluation + greedy improvement until the policy is stable."""
    gamma = float(mdp.gamma)
    mats, expected = _prepared(mdp)
    stacked = _stacked(mats, expected)
    n = mdp.n_states
    policy = np.zeros(n, dtype=np.int64)
    iterations = 0
    while True:
        p_pi, r_pi = _policy_matrices(*stacked, policy)
        system = sp.identity(n, format="csr") - gamma * p_pi
        values = spla.spsolve(system.tocsc(), r_pi) if n > 1 else \
            np.array([r_pi[0] / (1.0 - gamma * p_pi[0, 0])])
        iterations += 1
        q = _q_values(mats, expected, gamma, values)
        improved = np.argmax(q, axis=1)
        # keep the incumbent action when it is still (tied-)optimal, so the
        # iteration cannot cycle between equal-value policies
        keep = np.isclose(q[np.arange(n), policy], q.max(axis=1),
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
    lines = [FORMAT_POLICY]
    for s in range(mdp.n_states):
        name = mdp.action_names[strategy.actions[s]]
        lines.append(f"{s} {name} {float(strategy.values[s])!r}")
    return "\n".join(lines) + "\n"


def load_policy(text: str, mdp: MdpModel) -> Strategy:
    lines = text.splitlines()
    if not lines or lines[0] != FORMAT_POLICY:
        raise SolverError(f"not an {FORMAT_POLICY} document")
    actions = np.zeros(mdp.n_states, dtype=np.int64)
    values = np.zeros(mdp.n_states)
    for line in lines[1:]:
        idx, name, value = line.split()
        actions[int(idx)] = mdp.action_names.index(name)
        values[int(idx)] = float(value)
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
