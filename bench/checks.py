"""Output checks. Each returns a list of problems; empty means the output
is correct.

The exact checks compare the compiler against `tests/oracles.py`, which
transcribes the semantics independently of the production code. The
solver checks recompute the Bellman operator from the float matrices, so
the solver is not the only judge of its own output.
"""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np

import oracles

ORACLE_ROWS_PER_PASS = 16
# Float slack when comparing Q-values, relative to the largest |Q|.
Q_RELATIVE_TOL = 1e-9


def oracle_rows(mdp, rng: random.Random) -> list:
    """Compare a seeded sample of compiled (state, action) rows, and the
    rewards on their support, exactly against the interleaving oracle."""
    problems = []
    for _ in range(ORACLE_ROWS_PER_PASS):
        state = rng.randrange(mdp.n_states)
        k = rng.randrange(mdp.n_actions)
        name, action = mdp.action_names[k], mdp.actions[k]
        expected = oracles.interleaving_distribution(
            mdp.model, mdp.space, action, state)
        row = dict(mdp.transitions[name].row(state))
        if row != expected:
            problems.append(f"row ({state}, {name}) differs from the oracle")
            continue
        rewards = mdp.rewards[name]
        for j in row:
            want = oracles.pair_rewards(mdp.model, mdp.space, action, state, j)
            if rewards.get(state, j) != want:
                problems.append(f"reward ({state}, {name}, {j}) is "
                                f"{rewards.get(state, j)}, oracle {want}")
    return problems


def row_sums(mdp) -> list:
    """Every compiled transition row sums to exactly one."""
    problems = []
    for name in mdp.action_names:
        t = mdp.transitions[name]
        for i in range(mdp.n_states):
            total = sum(t.row(i).values(), Fraction(0))
            if total != 1:
                problems.append(f"row ({i}, {name}) sums to {total}")
                break
    return problems


def _q_values(mdp, values: np.ndarray) -> np.ndarray:
    gamma = float(mdp.gamma)
    columns = []
    for name in mdp.action_names:
        p = mdp.transition_csr(name)
        expected = np.asarray(p.multiply(mdp.reward_csr(name)).sum(axis=1))
        columns.append(expected.ravel() + gamma * (p @ values))
    return np.column_stack(columns)


def solutions(mdp, vi, pi, epsilon: float) -> list:
    """VI against its own stopping rule, and VI against PI up to ties.

    The Bellman residual ||T v - v|| of the VI values is recomputed here
    and must be below the VI stopping threshold. VI and PI values must
    agree within epsilon. Where the two action maps differ, both actions
    must be within tolerance of the best Q under the PI values: the float
    slack scales with |Q|, plus 2*gamma*||v_vi - v_pi||, the most a
    greedy action on VI's values can lose.
    """
    problems = []
    gamma = float(mdp.gamma)
    threshold = epsilon * (1.0 - gamma) / (2.0 * gamma)
    residual = float(np.max(np.abs(_q_values(mdp, vi.values).max(axis=1)
                                   - vi.values)))
    if not residual < threshold:
        problems.append(f"VI Bellman residual {residual:.3e} is not below "
                        f"its threshold {threshold:.3e}")

    gap = float(np.max(np.abs(vi.values - pi.values)))
    if not gap <= epsilon:
        problems.append(f"VI and PI values differ by {gap:.3e}")
    q = _q_values(mdp, pi.values)
    best = q.max(axis=1)
    tol = Q_RELATIVE_TOL * max(1.0, float(np.max(np.abs(q)))) \
        + 2.0 * gamma * gap
    differ = np.flatnonzero(vi.actions != pi.actions)
    for label, actions in (("VI", vi.actions), ("PI", pi.actions)):
        loss = best[differ] - q[differ, actions[differ]]
        if loss.size and float(loss.max()) > tol:
            s = int(differ[np.argmax(loss)])
            problems.append(f"{label} action at state {s} is "
                            f"{float(loss.max()):.3e} below the best Q")
    return problems


def controller_ordering(goals: dict, ordering: tuple) -> list:
    """Mean goals per tick must not increase along `ordering`."""
    means = {c: float(np.mean(goals[c])) for c in ordering}
    for better, worse in zip(ordering, ordering[1:]):
        if means[better] < means[worse]:
            return [f"{better} {means[better]:.4f} < {worse} "
                    f"{means[worse]:.4f} goals/tick"]
    return []
