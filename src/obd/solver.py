"""Optimal memoryless strategies for compiled models.

Value iteration runs Bellman backups to a max-norm stopping rule; policy
iteration alternates exact evaluation with greedy improvement. Every entry
point reads one Bellman operator built once per model. For a compiled
model it reads the factors, never the multiplied-out transition matrices:
the event product E and every action's explicit rows X_a, row s of X_a
being the stacked row a*n + s. A backup is then q = r + gamma * X (E v),
two sparse products of the factors' size. A model read from obdmdp/1 has
only the products P_a, and so does a compiled model small enough that
building them exactly costs less than the second product per sweep
saves; there a backup is q = r + gamma * P v, as the model read back
computes it. The operator is built one action block (X_a or P_a) at a
time and gathers only the rows it keeps: no stack of every action's rows
is ever formed.

The operator keeps only the stacked rows that noop does not dominate. A
row a*n + s (a >= 1) is dropped when it equals noop's row s entry for
entry and its expected reward is no higher: wherever an action cannot
fire, X_a and P_a repeat noop's row. The two rows then give the same
float product, rounding is monotone, so fl(x + r_a) <= fl(x + r_noop),
and a tie in the argmax goes to noop, index 0: the row is never the max
nor the argmax, and no result changes (an exact, precomputed case of
action elimination; MacQueen 1967, Puterman 1994 §6.7). On the benchmark
models 72% of the rows of actions other than noop are dropped (4,416 of
6,144 at 2 tables, 17,664 of 24,576 with serve within 3), 122 of 192 on
restaurant.obd.

The kept rows lie in layers of n rows. A kept row's layer is its rank
among its own state's kept rows, noop's row being layer 0, and every
slot of the depth + 1 layers that no kept row claims repeats noop's row.
A VI sweep takes the max over the layers, which is the max over the kept
rows bit for bit: a repeat has noop's Q-value to the bit, and max never
rounds. The layers are 3 deep at 2 tables, where 320 (1,280 with serve
within 3) of the 3n slots repeat noop's row. The full Q grid and policy
evaluation read a dropped row from noop's slot.

Policy evaluation multiplies P_pi = X[pi] E out in float (or takes the
rows of P), orders the states by the strongly connected components of
P_pi, sources first, so that I - gamma*P_pi is block upper triangular
(Tarjan 1972; Duff & Reid 1978), and factors it once with SuperLU in that
order without pivoting. That is safe because the matrix is strictly
diagonally dominant by rows; the order only keeps the fill small. Both
solvers return the same Strategy shape: a total state-to-action map with
its value function and solver metadata.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from obd.compiler import (
    MdpModel,
    check_lines,
    float_column,
    gather_rows,
    join_columns,
    parse_column,
    read_columns,
    repeats,
    text_table,
)
from obd.dsl import ObdError

FORMAT_POLICY = "obdpolicy/1"
DEFAULT_EPSILON = 1e-6
ROW_SUM_TOL = 1e-9
# Models whose products X_a E take at most this many terms X(i,k) E(k,j)
# are swept through their exact products. Value iteration that builds them
# first was at most as slow as sweeping the factors up to 3,278 terms,
# 4-10% slower at 4,768 and 6,258 terms, and 2.9x slower at 60,648
# (restaurant models, medians of 21 runs, scipy 1.17, 2-vCPU x86 VM).
PRODUCT_TERMS = 4096
# Float slack of policy iteration, relative to the largest |Q| (at least
# 1): Q-values this close to the best are ties, and values may fall this
# far below the previous policy's, where exact arithmetic never falls.
TIE_RELATIVE_TOL = 1e-12
DECREASE_RELATIVE_TOL = 1e-9


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
    # how the solve converged, one entry per iteration; empty for greedy
    # and loaded strategies
    residuals: tuple = ()  # VI: the max-norm residual of each sweep
    changes: tuple = ()  # PI: how many actions each improvement changed


def _factored(mdp: MdpModel) -> bool:
    """Whether to sweep the factors rather than the exact products P_a:
    when the model has factors and building the products would take more
    than PRODUCT_TERMS terms X(i,k) E(k,j)."""
    if mdp.events is None:
        return False
    fan_out = np.diff(mdp.events.indptr)
    terms = sum(int(fan_out[m.indices].sum()) for m in mdp.explicit.values())
    return terms > PRODUCT_TERMS


def component_order(p) -> np.ndarray:
    """The states of a square sparse matrix grouped by strongly connected
    component, sources first: each component is contiguous and no entry
    leads back to an earlier component, so p[order][:, order] is block
    upper triangular. SciPy numbers the components as Tarjan's algorithm
    completes them, sinks first."""
    # imported at first use, as is SuperLU in evaluate: both load
    # scipy.linalg, which nothing before policy evaluation needs
    from scipy.sparse import csgraph
    _, labels = csgraph.connected_components(p, directed=True,
                                             connection="strong")
    return np.argsort(-labels, kind="stable")


def _row_sums(indptr: np.ndarray, data: np.ndarray) -> np.ndarray:
    """The sum of every row of a CSR matrix as SciPy's sum(axis=1) takes
    it: one np.add.reduceat over the stored entries of the non-empty
    rows."""
    out = np.zeros(indptr.size - 1)
    rows = (indptr[1:] != indptr[:-1]).nonzero()[0]
    out[rows] = np.add.reduceat(data, indptr[rows])
    return out


def _expected_products(p, r) -> np.ndarray:
    """The row sums of P_a * R_a (SparseMatrix), rounded as SciPy's
    p.csr.multiply(r.csr).sum(axis=1) rounds them: over the non-zero
    products only, in column order. Where R_a has the pattern of P_a, as
    compile_model builds it, on the same index arrays, the products are
    taken entry by entry, without SciPy's merge of two patterns."""
    if not all(x is y or np.array_equal(x, y) for x, y in
               ((p.indptr, r.indptr), (p.indices, r.indices))):
        m = p.csr.multiply(r.csr)
        return _row_sums(m.indptr, m.data)
    products = p.csr.data * r.csr.data
    nonzero = products != 0
    before = np.zeros(products.size + 1, dtype=np.int64)  # non-zero ones
    np.cumsum(nonzero, out=before[1:])
    return _row_sums(before[p.indptr], products[nonzero])


def _action_blocks(mdp: MdpModel, events):
    """Every action's block of the operator in action order, each with
    its expected one-step rewards: X_a, applied after the event product
    `events` E, with -c_a + sum_k r_k g_k(s) (X_a E h_k)(s), or P_a itself
    (`events` is None) with the row sums of P_a * R_a. Raises SolverError
    at the first row whose transition probabilities do not sum to 1."""
    n = mdp.n_states
    if events is not None:
        reach = events @ np.ones(n)
        factors = mdp.reward_factors
        if factors:
            after = events @ np.column_stack(
                [f.after for f in factors]).astype(np.float64)
            before = np.column_stack([float(f.reward) * f.before
                                      for f in factors])
    for action, name in zip(mdp.actions, mdp.action_names):
        if events is not None:
            block = mdp.explicit[name].csr
            sums = block @ reach
            expected = np.full(n, -float(action.cost))
            if factors:
                expected += np.einsum("ik,ik->i", block @ after, before)
        else:
            block = mdp.transition_csr(name)
            sums = _row_sums(block.indptr, block.data)
            expected = _expected_products(mdp.transitions[name],
                                          mdp.rewards[name])
        bad = (np.abs(sums - 1.0) > ROW_SUM_TOL).nonzero()[0]
        if bad.size:
            raise SolverError(f"action '{name}': transition row {bad[0]} "
                              f"sums to {sums[bad[0]]}")
        yield block, expected


def _undominated(block, lengths: np.ndarray, expected: np.ndarray,
                 noop, noop_lengths: np.ndarray,
                 noop_expected: np.ndarray) -> np.ndarray:
    """The states, ascending, whose row of an action's block (`lengths`
    entries each) the Bellman max must read: every state unless the row
    equals noop's row entry for entry (the same columns and float64
    values) and its expected reward is no higher than noop's. Such a
    row's product with any vector is noop's, so its Q-value is never
    above noop's, and a tie goes to noop, the lowest index."""
    alike = ((lengths == noop_lengths)
             & (expected <= noop_expected)).nonzero()[0]
    _, take = gather_rows(block.indptr, alike)
    row = np.repeat(alike, lengths[alike])  # of each entry taken
    noop_take = take + (noop.indptr - block.indptr)[row]
    differ = (block.indices[take] != noop.indices[noop_take]) \
        | (block.data[take] != noop.data[noop_take])
    keep = np.ones(lengths.size, dtype=bool)
    keep[alike] = False
    keep[row[differ]] = True
    return keep.nonzero()[0]


class _Bellman:
    """The Bellman operator of a model, built one action block at a time
    (_action_blocks): the explicit rows X_a, then applied after the event
    product `events` E, or the transition rows P_a themselves (`events`
    is None). `expected` holds the expected one-step reward of every
    stacked row a*n + s.

    Only the rows that noop does not dominate (_undominated) are kept,
    each in a slot of `matrix`, which holds `depth` + 1 layers of n rows:
    slot l*n + s holds state s's row of its l-th kept action, noop's row
    being layer 0, and every slot that no kept row claims repeats noop's
    row. `slot_expected` holds each slot's expected reward, noop's for a
    repeat. `expand` maps every stacked row to its slot, a dropped row to
    noop's."""

    def __init__(self, mdp: MdpModel):
        n = mdp.n_states
        self.n = n
        self.gamma = float(mdp.gamma)
        self.states = np.arange(n)
        self.events = mdp.events.csr if _factored(mdp) else None
        self.expected = np.empty(mdp.n_actions * n)
        self.expand = np.empty(mdp.n_actions * n, dtype=np.int64)
        layer = np.zeros(n, dtype=np.int64)  # kept rows so far, per state
        claims = []  # (block, rows, their slots, lengths, expected rewards)
        for a, (block, expected) in enumerate(_action_blocks(mdp,
                                                             self.events)):
            lengths = block.indptr[1:] - block.indptr[:-1]
            self.expected[a * n:(a + 1) * n] = expected
            self.expand[a * n:(a + 1) * n] = self.states
            if a == 0:
                noop, noop_lengths, noop_expected = block, lengths, expected
                continue
            kept = _undominated(block, lengths, expected,
                                noop, noop_lengths, noop_expected)
            layer[kept] += 1
            slots = layer[kept] * n + kept
            self.expand[a * n + kept] = slots
            claims.append((block, kept, slots, lengths[kept], expected[kept]))
        self.depth = int(layer.max(initial=0))
        # slot l*n + s (l >= 1) is unclaimed where s keeps fewer than l rows
        level, rows = (np.arange(1, self.depth + 1)[:, None] > layer).nonzero()
        claims.append((noop, rows, (level + 1) * n + rows, noop_lengths[rows],
                       noop_expected[rows]))
        size = (self.depth + 1) * n
        lengths = np.empty(size, dtype=np.int64)
        lengths[:n] = noop_lengths
        self.slot_expected = np.empty(size)
        self.slot_expected[:n] = noop_expected
        for _, _, slots, row_lengths, expected in claims:
            lengths[slots] = row_lengths
            self.slot_expected[slots] = expected
        indptr = np.zeros(size + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        data = np.empty(indptr[-1])
        indices = np.empty(indptr[-1], dtype=noop.indices.dtype)
        first = noop.indptr[-1]  # layer 0 is noop's block itself
        data[:first], indices[:first] = noop.data[:first], noop.indices[:first]
        for block, rows, slots, row_lengths, _ in claims:
            _, source = gather_rows(block.indptr, rows)
            target = source + np.repeat(indptr[slots] - block.indptr[rows],
                                        row_lengths)
            data[target] = block.data[source]
            indices[target] = block.indices[source]
        self.matrix = sp.csr_matrix((data, indices, indptr),
                                    shape=(size, noop.shape[1]))

    def _slot_q(self, values: np.ndarray) -> np.ndarray:
        """gamma times each slot's product with the values."""
        if self.events is not None:
            values = self.events @ values
        q = self.matrix @ values
        q *= self.gamma
        return q

    def best(self, values: np.ndarray) -> np.ndarray:
        """The largest Q-value of every state: the max over the layers. A
        repeat of noop's row has noop's Q-value to the bit, and max never
        rounds, so the repeats change no result."""
        q = self._slot_q(values)
        q += self.slot_expected
        # down axis 0; q.max(axis=0) would add a Python call per sweep
        return np.maximum.reduce(q.reshape(-1, self.n))

    def q_values(self, values: np.ndarray) -> np.ndarray:
        """Q-values of every action, shape (n_actions, n_states): a dropped
        row takes its product from noop's row, its expected reward from
        its own."""
        q = self._slot_q(values)[self.expand]
        q += self.expected
        return q.reshape(-1, self.n)

    def evaluate(self, policy: np.ndarray) -> np.ndarray:
        """Solve (I - gamma*P_pi) V = r_pi, P_pi = X[pi] E, by one LU
        factorization in component order (component_order) without
        pivoting. The matrix is strictly diagonally dominant by rows:
        every row of P_pi is non-negative (load_mdp rejects a negative
        probability) and sums to 1 (checked at construction), and
        gamma < 1. So are its Schur complements, whatever the symmetric
        order, and no pivot is zero. The order only decides the fill:
        with P_pi block triangular, eliminating one component leaves the
        diagonal blocks of the others unchanged."""
        import scipy.sparse.linalg as spla
        n = self.n
        rows = policy * n + self.states
        indptr, take = gather_rows(self.matrix.indptr, self.expand[rows])
        p = sp.csr_matrix((self.matrix.data[take], self.matrix.indices[take],
                           indptr), shape=(n, self.matrix.shape[1]))
        if self.events is not None:
            p = p @ self.events
        order = component_order(p)
        position = np.empty_like(order)
        position[order] = self.states
        # row k of A = (I - gamma*P)[order][:, order] is row order[k] of
        # -gamma*P, then its diagonal 1, taken from after P's entries
        indptr, take = gather_rows(p.indptr, order, extra=1)
        take[indptr[1:] - 1] = p.indptr[-1] + order
        # A's CSR arrays read as CSC are A transposed, the form SuperLU
        # factored fastest; solve(trans="T") solves with A itself
        system = sp.csc_matrix(
            (np.append(-self.gamma * p.data, np.ones(n))[take],
             position[np.append(p.indices, self.states)[take]], indptr),
            shape=(n, n))
        system.sum_duplicates()  # adds the 1 to -gamma*P(s, s)
        try:
            lu = spla.splu(system, permc_spec="NATURAL",
                           diag_pivot_thresh=0.0)
        except RuntimeError as exc:  # SuperLU's allocation failures
            raise SolverError(f"policy evaluation: sparse LU of {n} states "
                              f"failed: {exc}") from None
        values = np.empty(n)
        values[order] = lu.solve(self.expected[rows[order]], trans="T")
        return values


def _bellman(mdp: MdpModel) -> _Bellman:
    if mdp.bellman is None:
        mdp.bellman = _Bellman(mdp)
    return mdp.bellman


def greedy_policy(mdp: MdpModel, values: np.ndarray) -> Strategy:
    """One-step lookahead argmax; ties go to the lowest action index
    (noop is index 0)."""
    q = _bellman(mdp).q_values(values)
    return Strategy(actions=np.argmax(q, axis=0), values=q.max(axis=0),
                    iterations=0, residual=0.0, method="greedy")


def value_iteration(mdp: MdpModel,
                    epsilon: float = DEFAULT_EPSILON) -> Strategy:
    """Bellman backups from V=0 until the max-norm residual drops below
    epsilon*(1-gamma)/(2*gamma); the result is within epsilon of optimal."""
    if not epsilon > 0:  # nan too, which would stop before the first sweep
        raise SolverError("epsilon must be positive")
    if epsilon == np.inf:  # the first sweep's residual would pass
        raise SolverError("epsilon must be finite")
    bellman = _bellman(mdp)
    threshold = epsilon * (1.0 - bellman.gamma) / (2.0 * bellman.gamma)
    if threshold == 0.0:  # no residual is below 0, so no sweep would stop
        raise SolverError(f"epsilon {epsilon!r} is too small: the stopping "
                          "threshold epsilon*(1-gamma)/(2*gamma) underflows "
                          "to 0")
    values = np.zeros(mdp.n_states)
    change = np.empty(mdp.n_states)  # each sweep's, in one buffer
    residuals = []
    residual = np.inf
    while residual >= threshold:
        new_values = bellman.best(values)
        # positional out and the array method: out= and np.max would add
        # call overhead to a small model's sweep of a few us
        np.subtract(new_values, values, change)
        residual = float(np.absolute(change, change).max())
        residuals.append(residual)
        values = new_values
    return Strategy(actions=np.argmax(bellman.q_values(values), axis=0),
                    values=values, iterations=len(residuals),
                    residual=residual, method="value-iteration",
                    residuals=tuple(residuals))


def evaluate_policy(mdp: MdpModel, policy: np.ndarray) -> np.ndarray:
    """Values of a fixed policy, one action index per state, by one
    sparse LU factorization in component order (_Bellman.evaluate)."""
    policy = np.asarray(policy)
    if not np.issubdtype(policy.dtype, np.integer):
        raise SolverError(
            f"policy must hold integer action indices, not {policy.dtype}")
    if policy.shape != (mdp.n_states,):
        raise SolverError(f"policy has shape {policy.shape}, "
                          f"not ({mdp.n_states},)")
    bad = np.flatnonzero((policy < 0) | (policy >= mdp.n_actions))
    if bad.size:
        raise SolverError(f"policy: action {policy[bad[0]]} of state "
                          f"{bad[0]} outside 0..{mdp.n_actions - 1}")
    return _bellman(mdp).evaluate(policy.astype(np.int64))


def policy_iteration(mdp: MdpModel) -> Strategy:
    """Exact evaluation + greedy improvement until the policy is stable.

    In exact arithmetic the values never decrease and no policy comes
    back, so the iteration ends; a decrease beyond float slack or a
    repeated policy means evaluation is wrong, and raises SolverError
    instead of looping."""
    bellman = _bellman(mdp)
    states = np.arange(mdp.n_states)
    policy = np.zeros(mdp.n_states, dtype=np.int64)
    seen = {policy.tobytes()}
    previous = None
    changes = []
    while True:
        values = bellman.evaluate(policy)
        iterations = len(changes) + 1
        scale = max(1.0, float(abs(values).max()))
        if previous is not None and \
                (values - previous).min() < -DECREASE_RELATIVE_TOL * scale:
            raise SolverError(f"policy iteration: values decreased at "
                              f"iteration {iterations}; evaluation is wrong")
        q = bellman.q_values(values)
        # actions within float slack of the best are tied: keep the
        # incumbent when it is one of them, so that the iteration cannot
        # cycle between equal-value policies, else take the lowest index
        tie = TIE_RELATIVE_TOL * max(1.0, float(abs(q).max()))
        tied = q >= q.max(axis=0) - tie
        improved = np.where(tied[policy, states], policy,
                            np.argmax(tied, axis=0))
        changes.append(int(np.count_nonzero(improved != policy)))
        if not changes[-1]:
            return Strategy(actions=policy, values=values,
                            iterations=iterations, residual=0.0,
                            method="policy-iteration",
                            changes=tuple(changes))
        if improved.tobytes() in seen:
            raise SolverError(f"policy iteration: iteration {iterations} "
                              "returned to an earlier policy; evaluation "
                              "is wrong")
        seen.add(improved.tobytes())
        policy, previous = improved, values


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
    """Parse an obdpolicy/1 document for `mdp` by columns, as load_mdp does;
    a malformed document raises SolverError naming the line."""
    lines = text.splitlines()
    if not lines or lines[0] != FORMAT_POLICY:
        raise SolverError(f"not an {FORMAT_POLICY} document")
    n = mdp.n_states
    fields, counts = read_columns(lines[1:], 3)
    states, failed = parse_column(fields[:, 0], int)
    index = {name: a for a, name in enumerate(mdp.action_names)}
    actions = np.array([index.get(a, -1) for a in fields[:, 1]], np.int64)
    values, bad = parse_column(fields[:, 2], float)
    check_lines(SolverError, 2, [
        (counts != 3, "expected '<state> <action> <value>', got: {line!r}"),
        (failed, "not a state index: {state!r}"),
        ((states < 0) | (states >= n), f"state {{state}} outside 0..{n - 1}"),
        (repeats(states), "second line for state {state}"),
        (actions < 0, "unknown action '{action}'"),
        (bad | ~np.isfinite(values), "not a finite number: {value!r}")],
        line=lines[1:], **dict(zip(("state", "action", "value"), fields.T)))
    strategy = Strategy(actions=np.full(n, -1), values=np.zeros(n),
                        iterations=0, residual=0.0, method="loaded")
    strategy.actions[states], strategy.values[states] = actions, values
    missing = np.flatnonzero(strategy.actions < 0)
    if missing.size:
        raise SolverError(f"line {len(lines) + 1}: end of input with "
                          f"{missing.size} of {n} states missing, the first "
                          f"being state {missing[0]}")
    return strategy


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
