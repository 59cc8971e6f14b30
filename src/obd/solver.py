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
time, each the model's own CSR, and gathers only the rows it keeps: no
stack of every action's rows, and no copy of a block, is ever formed.

X_a (E v) reads E v only at the columns of X_a, the states an action
step can lead to, and compile_model folds E at those rows alone (400 of
1,024 at 2 tables, 60,000 of 393,216 at 4); its other rows are empty.
The operator views the held rows without a copy: E's float arrays, with
row pointers taken at the held rows, form the compact matrix of those
rows, and the gathered slot matrix has its columns numbered to them
once. The reward factors' E h_k are read from the stored E, 0 on the
rows it does not hold, which no X_a reads.

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

The kept rows lie in depth + 1 layers of n rows (3 at 2 tables), and one
table, source, names each slot's action: slot l*n + s holds state s's
l-th kept action, and noop (0) is layer 0 and every slot no kept row
claims (320 of the 3n slots at 2 tables, 1,280 with serve within 3). A
VI sweep takes the max over the layers, the max over the kept rows bit
for bit (a repeat of noop's row has noop's Q-value to the bit; max never
rounds). One improvement step, _Bellman.improve, chooses each state's
layer. With no incumbent (greedy_policy, VI's final actions) it takes
the first layer holding the max: kept actions rise layer by layer, so
that is the full argmax, ties to the lowest index.

Policy iteration holds a layer per state, improved with itself as the
incumbent, and reads source only for its Strategy. A repeat of noop's
row ties wherever layer 0 does and lies above it, so no step chooses
one: each layer PI holds names a distinct action. Any policy may start
PI (Puterman 1994 §6.4). It starts where a few of value iteration's
sweeps lead, as modified policy iteration does (Puterman & Shin 1978):
the improvement step, with noop's layer as the incumbent, applied to the
values of VI's first PI_START_SWEEPS sweeps from V = 0 (fewer if they
meet VI's default stopping rule). Both solvers run the one sweep loop,
_sweeps. On every benchmark model that start is already PI's final
policy, so PI evaluates once; with no sweeps it is the myopic policy,
the improvement of V = 0.

Policy evaluation reads the factors too. P_pi = X[pi] E, X[pi] being
each state's slot row for its action, so it solves
(I - gamma*E X[pi]) w = E r_pi over E's held rows, w being the value of
each post-action, pre-event state, and sets V = r_pi + gamma*X[pi] w
(Henderson & Searle 1981); without factors it solves
(I - gamma*P_pi) V = r_pi. SuperLU factors the system once without
pivoting, ordered by its strongly connected components, sources first,
so that it is block upper triangular (Tarjan 1972; Duff & Reid 1978),
and with one-column panels: the diagonal blocks are small (at most 78
rows at 2 tables), and wider panels only add overhead.

Every product of a vector by the operator's matrices (E v, and the slots'
rows times that, in VI's sweeps and the improvement step) goes through
one routine, _product, which calls SciPy's CSR kernel csr_matvec itself:
the kernel that csr_matrix @ vector calls, so with the same sums in the
same order and the same floats. @ first runs Python-level dispatch that
costs more than the kernel at bench sizes: on restaurant.obd, matrix @ v
took 3.5 us against the kernel's 1.5 us; on restaurant_text(2, 0),
events @ v 8.6 against 6.3 us and matrix @ x 7.7 against 6.1 us (scipy
1.17, 2-vCPU x86 VM). The kernel's contract: x and the output are
contiguous float64 vectors of the matrix's width and height, indptr and
indices share one dtype (SciPy's constructor unifies them), and the
output is zeroed first, because the kernel adds to it and checks no
size. The sweep loop allocates the event product's, the slots' and a
spare values buffer once per call; each sweep takes the max over the
layers into the spare buffer and swaps it with the values.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse._sparsetools import csr_matvec

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
# Models whose products X_a E take at most this many terms X(i,k) E(k,j)
# are swept through the products, which dump_mdp exports anyway. With only
# the rows of E that an action step reaches kept, VI alone sweeps the
# factors faster from 806 terms, but VI plus export was faster on the
# products up to 15,198 terms and slower at 60,648; PI, over E's held
# rows on the factors, was faster on the products up to 3,278 terms and
# slower from 15,198 (restaurant models, scipy 1.17, 2-vCPU x86 VM; README).
PRODUCT_TERMS = 4096
# Float slacks of policy iteration, each relative to at least 1: Q-values
# within TIE_RELATIVE_TOL * max |best Q| of their state's best Q are ties,
# and values may fall DECREASE_RELATIVE_TOL * max |V| below the previous
# policy's, where exact arithmetic never falls.
TIE_RELATIVE_TOL = 1e-12
DECREASE_RELATIVE_TOL = 1e-9
# Policy iteration starts from the improvement of the values that value
# iteration's first PI_START_SWEEPS sweeps reach; 0 starts at the myopic
# policy. On every benchmark model that policy stops changing by sweep 28
# (restaurant_text(2, s) and within=3 for s = 0-2; sweep 2 on
# restaurant.obd, 8 at 3 tables) and is PI's final policy, so PI
# evaluates once instead of 3-5 times. A sweep cost 1/30 of an
# evaluation on restaurant.obd, 1/51-1/68 at 2 tables and 1/80 at 3
# (2-vCPU x86 VM).
PI_START_SWEEPS = 32


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
    # how the solve converged; empty for greedy and loaded strategies
    # VI: the max-norm residual of each sweep; PI: of its warm-up sweeps
    residuals: tuple = ()
    # PI, one entry per evaluation (empty for VI): how many actions each
    # improvement changed, and the strong components of each P_pi as
    # (count, largest)
    changes: tuple = ()
    components: tuple = ()


def _factored(mdp: MdpModel) -> bool:
    """Whether to sweep the factors rather than the exact products P_a:
    when the model has factors and building the products would take more
    than PRODUCT_TERMS terms X(i,k) E(k,j)."""
    if mdp.events is None:
        return False
    fan_out = np.diff(mdp.events.indptr)
    terms = sum(int(fan_out[m.indices].sum()) for m in mdp.explicit.values())
    return terms > PRODUCT_TERMS


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


def _action_blocks(mdp: MdpModel, factored: bool) -> tuple:
    """Every action's block of the operator in action order, each the
    model's own CSR, and the (n_actions, n) table of their expected
    one-step rewards: X_a with -c_a + sum_k r_k g_k(s) (X_a E h_k)(s), E
    being the stored event product (E h_k is 0 on the rows E does not
    hold, which no X_a reads), or P_a (not `factored`) with the row sums
    of P_a * R_a."""
    blocks, expected = [], np.empty((mdp.n_actions, mdp.n_states))
    factors = factored and mdp.reward_factors
    if factors:
        after = mdp.events.csr @ np.column_stack(
            [f.after for f in factors]).astype(np.float64)
        before = np.column_stack([float(f.reward) * f.before
                                  for f in factors])
    for a, (action, name) in enumerate(zip(mdp.actions, mdp.action_names)):
        if factored:
            blocks.append(mdp.explicit[name].csr)
            expected[a] = -float(action.cost)
            if factors:
                expected[a] += np.einsum("ik,ik->i", blocks[a] @ after,
                                         before)
        else:
            blocks.append(mdp.transition_csr(name))
            expected[a] = _expected_products(mdp.transitions[name],
                                             mdp.rewards[name])
    return blocks, expected


def _undominated(block, expected: np.ndarray, noop,
                 noop_expected: np.ndarray) -> np.ndarray:
    """The states, ascending, whose row of an action's block the Bellman
    max must read: every state unless the row equals noop's row entry for
    entry (the same columns and float64 values) and its expected reward
    is no higher than noop's. Such a row's product with any vector is
    noop's, so its Q-value is never above noop's, and a tie goes to noop,
    the lowest index."""
    lengths, noop_lengths = np.diff(block.indptr), np.diff(noop.indptr)
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


def _product(matrix, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """matrix @ x, a CSR matrix times a vector, into `out` by the kernel
    that @ calls, without @'s dispatch. x and out are contiguous float64
    vectors of the matrix's width and height; the kernel checks no size
    and adds to what `out` holds, so `out` is zeroed first, as @ zeroes
    its result."""
    out.fill(0.0)
    csr_matvec(*matrix.shape, matrix.indptr, matrix.indices, matrix.data, x,
               out)
    return out


class _Bellman:
    """The Bellman operator of a model, built one action block at a time
    (_action_blocks): the explicit rows X_a, then applied after `events`,
    the rows of the event product E that some X_a reads, to which the
    slot matrix's columns are numbered, or the transition rows P_a
    themselves (`events` is None). `expected[a, s]` is the expected
    one-step reward of action a in state s.

    Only the rows that noop does not dominate (_undominated) are kept,
    each in a slot of `matrix`, which holds `depth` + 1 layers of n rows.
    `source[l, s]` is the action whose row slot l*n + s holds: state s's
    l-th kept action, noop (0) being layer 0 and every slot that no kept
    row claims. `slot_expected` holds each slot's expected reward. The
    solvers' only argmax and tie rule is `improve`'s choice of layers."""

    def __init__(self, mdp: MdpModel):
        n = mdp.n_states
        self.n = n
        self.gamma = float(mdp.gamma)
        self.states = np.arange(n)
        if _factored(mdp):
            e = mdp.events.csr  # the rows E holds, the only ones read
            reads = np.flatnonzero(np.diff(e.indptr))
            self.events = sp.csr_matrix((e.data, e.indices, np.append(
                e.indptr[reads], e.nnz)), shape=(reads.size, n))
        else:
            reads, self.events = self.states, None  # P_a reads every state
        blocks, self.expected = _action_blocks(mdp, self.events is not None)
        self.source = np.zeros((mdp.n_actions, n), dtype=np.int64)
        layer = np.zeros(n, dtype=np.int64)  # kept rows so far, per state
        for a in range(1, len(blocks)):
            kept = _undominated(blocks[a], self.expected[a], blocks[0],
                                self.expected[0])
            layer[kept] += 1
            self.source[layer[kept], kept] = a
        self.depth = int(layer.max(initial=0))
        # the layers in use; the copy frees the rows no state reached
        self.source = self.source[:self.depth + 1].copy()
        self.slot_expected = self.expected[self.source, self.states].ravel()
        held = [np.flatnonzero(self.source == a) for a in range(len(blocks))]
        lengths = np.empty(self.source.size, dtype=np.int64)
        for block, slots in zip(blocks, held):
            lengths[slots] = np.diff(block.indptr)[slots % n]
        indptr = np.zeros(lengths.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        data = np.empty(indptr[-1])
        indices = np.empty(indptr[-1], dtype=blocks[0].indices.dtype)
        for block, slots in zip(blocks, held):
            rows = slots % n
            _, take = gather_rows(block.indptr, rows)
            target = take + np.repeat(indptr[slots] - block.indptr[rows],
                                      lengths[slots])
            data[target] = block.data[take]
            indices[target] = block.indices[take]
        if self.events is not None:  # columns numbered to E's held rows
            position = np.empty(n, dtype=indices.dtype)
            position[reads] = np.arange(reads.size)
            indices = position[indices]
        self.matrix = sp.csr_matrix((data, indices, indptr),
                                    shape=(lengths.size, reads.size))

    def buffers(self) -> tuple:
        """Fresh buffers for layers: the event product's (one entry per
        held row of E) and the slots' ((depth + 1) * n)."""
        return np.empty(self.matrix.shape[1]), np.empty(self.matrix.shape[0])

    def layers(self, values: np.ndarray, moved: np.ndarray,
               slots: np.ndarray) -> np.ndarray:
        """The Q-value r + gamma * X (E v) of every slot for the values (a
        contiguous float64 vector), into `slots`, as depth + 1 layers of n
        states: a state's max over them is its max over every action. E v
        goes into `moved` first when the operator has factors."""
        if self.events is not None:
            values = _product(self.events, values, moved)
        _product(self.matrix, values, slots)
        slots *= self.gamma
        slots += self.slot_expected
        return slots.reshape(-1, self.n)

    def improve(self, values: np.ndarray, buffers: tuple,
                incumbent: np.ndarray | None = None) -> tuple:
        """Each state's chosen layer and its best Q-value, taken into
        `buffers`: with no incumbent, the first layer holding the max.
        Given an incumbent layer per state, Q-values within
        TIE_RELATIVE_TOL * max(1, max |best|) of the best are tied; the
        incumbent stays where it is tied, so that policy iteration cannot
        cycle between equal-value policies (Puterman 1994 §6.4), else the
        first tied layer is chosen."""
        q = self.layers(values, *buffers)
        if incumbent is None:
            layer = np.argmax(q, axis=0)
            return layer, q[layer, self.states]
        best = q.max(axis=0)
        tied = q >= best - TIE_RELATIVE_TOL * max(1.0, abs(best).max())
        return np.where(tied[incumbent, self.states], incumbent,
                        np.argmax(tied, axis=0)), best

    def evaluate(self, layer: np.ndarray, rewards: np.ndarray) -> tuple:
        """The values of a policy and P_pi's strong components as (count,
        largest); row s of X[pi] is slot layer[s]*n + s, r_pi `rewards`.
        One LU factorization in component order without pivoting solves
        (I - gamma*M) w = b: M = E X[pi], b = E r_pi and V = r_pi + gamma
        X[pi] w, or without events M = P_pi, b = r_pi and V = w. M is
        non-negative with rows summing to 1 (load_mdp rejects a negative
        probability and a row sum more than ROW_SUM_TOL from 1; a compiled
        row sums to 1 by construction), and gamma < 1: the system and its
        Schur complements, in any symmetric order, are strictly diagonally
        dominant by rows, so no pivot is zero. The order only decides the
        fill."""
        import scipy.sparse.linalg as spla
        n, m, e = self.n, self.matrix.shape[1], self.events
        indptr, take = gather_rows(self.matrix.indptr,
                                   layer * n + self.states)
        x = sp.csr_matrix((self.matrix.data[take], self.matrix.indices[take],
                           indptr), shape=(n, m))
        labels = _strong_labels(x, e)
        sizes = np.bincount(labels[:n])  # at the state nodes: P_pi's
        order = np.argsort(-labels[labels.size - m:], kind="stable")
        system = _ordered_system(x if e is None else e @ x, order, self.gamma)
        right = rewards if e is None else e @ rewards
        try:  # splu's sum_duplicates adds the 1 to -gamma*M(k, k)
            lu = spla.splu(system, permc_spec="NATURAL",
                           diag_pivot_thresh=0.0, panel_size=1)
        except RuntimeError as exc:  # SuperLU's allocation failures
            raise SolverError(f"policy evaluation: sparse LU of {m} states "
                              f"failed: {exc}") from None
        values = np.empty(m)
        values[order] = lu.solve(right[order], trans="T")
        if e is not None:
            values = rewards + self.gamma * (x @ values)
        return values, (int(np.count_nonzero(sizes)), int(sizes.max()))


def _strong_labels(x, events) -> np.ndarray:
    """SciPy's strong component labels, sinks first, of x = P_pi or, with
    events, of the layered graph [[0, x], [E, 0]] built from the two
    patterns: its n state nodes share a component iff they share one in
    P_pi = x E, and its nodes of E's rows iff they share one in E x."""
    from scipy.sparse import csgraph  # loads scipy.linalg, as splu does
    if events is not None:  # the state nodes first, then E's rows
        x = sp.csr_matrix(
            (np.ones(x.nnz + events.nnz),
             np.concatenate([x.indices + x.shape[0], events.indices]),
             np.concatenate([x.indptr, x.nnz + events.indptr[1:]])),
            shape=(x.shape[0] + events.shape[0],) * 2)
    return csgraph.connected_components(x, connection="strong")[1]


def _ordered_system(matrix, order: np.ndarray, gamma: float):
    """A = (I - gamma*M)[order][:, order], M a square CSR matrix, as CSC
    on A's CSR arrays: A transposed, the form SuperLU factors fastest, and
    solve(trans="T") solves with A. Row k of A is row order[k] of
    -gamma*M, then its diagonal 1 in an extra slot."""
    position = np.empty(order.size, dtype=matrix.indices.dtype)
    position[order] = np.arange(order.size)
    indptr, take = gather_rows(matrix.indptr, order, extra=1)
    diagonal = indptr[1:] - 1
    take[diagonal] = 0  # any entry: the diagonal is written below
    data = matrix.data[take]
    data *= -gamma
    data[diagonal] = 1.0
    columns = position[matrix.indices[take]]
    columns[diagonal] = np.arange(order.size)
    return sp.csc_matrix((data, columns, indptr), shape=matrix.shape)


def _bellman(mdp: MdpModel) -> _Bellman:
    if mdp.bellman is None:
        mdp.bellman = _Bellman(mdp)
    return mdp.bellman


def greedy_policy(mdp: MdpModel, values: np.ndarray) -> Strategy:
    """One-step lookahead argmax (_Bellman.improve with no incumbent);
    ties go to the lowest action index (noop is index 0). `values` must
    hold one finite real number per state."""
    values = np.asarray(values)
    if not (np.issubdtype(values.dtype, np.integer)
            or np.issubdtype(values.dtype, np.floating)):  # bool is neither
        raise SolverError(
            f"values must hold real numbers, not {values.dtype}")
    if values.shape != (mdp.n_states,):
        raise SolverError(f"values has shape {values.shape}, "
                          f"not ({mdp.n_states},)")
    # the product kernel reads a contiguous float64 vector
    values = np.ascontiguousarray(values, dtype=np.float64)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise SolverError(f"values: {values[bad[0]]} of state {bad[0]} "
                          "is not finite")
    bellman = _bellman(mdp)
    layer, best = bellman.improve(values, bellman.buffers())
    return Strategy(actions=bellman.source[layer, bellman.states],
                    values=best, iterations=0, residual=0.0, method="greedy")


def _sweeps(bellman: _Bellman, epsilon: float, limit: int) -> tuple:
    """Bellman backups from V = 0 until the max-norm residual drops below
    epsilon*(1-gamma)/(2*gamma) or `limit` sweeps are done: the values and
    every sweep's residual. Value iteration's loop, and policy
    iteration's warm-up."""
    threshold = epsilon * (1.0 - bellman.gamma) / (2.0 * bellman.gamma)
    if threshold == 0.0:  # no residual is below 0, so no sweep would stop
        raise SolverError(f"epsilon {epsilon!r} is too small: the stopping "
                          "threshold epsilon*(1-gamma)/(2*gamma) underflows "
                          "to 0")
    # every sweep writes into these buffers, allocated once per call
    moved, slots = bellman.buffers()
    values, spare = np.zeros(bellman.n), np.empty(bellman.n)
    change = np.empty(bellman.n)
    residuals = []
    residual = np.inf
    while residual >= threshold and len(residuals) < limit:
        # down axis 0 into the spare buffer, then swapped with the values;
        # positional out and the array method: out= and np.max would add
        # call overhead to a small model's sweep of a few us
        np.maximum.reduce(bellman.layers(values, moved, slots), 0, None,
                          spare)
        np.subtract(spare, values, change)
        residual = float(np.absolute(change, change).max())
        residuals.append(residual)
        values, spare = spare, values
    return values, residuals, (moved, slots)


def value_iteration(mdp: MdpModel,
                    epsilon: float = DEFAULT_EPSILON) -> Strategy:
    """Bellman backups from V=0 until the max-norm residual drops below
    epsilon*(1-gamma)/(2*gamma); the result is within epsilon of optimal."""
    if not epsilon > 0:  # nan too, which would stop before the first sweep
        raise SolverError("epsilon must be positive")
    if epsilon == np.inf:  # the first sweep's residual would pass
        raise SolverError("epsilon must be finite")
    bellman = _bellman(mdp)
    values, residuals, buffers = _sweeps(bellman, epsilon, sys.maxsize)
    layer, _ = bellman.improve(values, buffers)
    return Strategy(actions=bellman.source[layer, bellman.states],
                    values=values, iterations=len(residuals),
                    residual=residuals[-1], method="value-iteration",
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
    bellman = _bellman(mdp)
    # a dropped action reads noop's row, layer 0, with its own reward
    return bellman.evaluate((bellman.source == policy).argmax(axis=0),
                            bellman.expected[policy, bellman.states])[0]


def policy_iteration(mdp: MdpModel) -> Strategy:
    """Exact evaluation + greedy improvement until the policy is stable,
    starting at the improvement of all-noop on the values of value
    iteration's first PI_START_SWEEPS sweeps, whose residuals the
    Strategy keeps.

    In exact arithmetic the values never decrease and no policy comes
    back, so the iteration ends; a decrease beyond float slack or a
    repeated policy means evaluation is wrong, and raises SolverError
    instead of looping."""
    bellman = _bellman(mdp)
    start, residuals, buffers = _sweeps(bellman, DEFAULT_EPSILON,
                                        PI_START_SWEEPS)
    rewards = bellman.slot_expected.reshape(-1, mdp.n_states)
    layer, _ = bellman.improve(start, buffers,
                               incumbent=np.zeros(mdp.n_states, np.int64))
    seen = {layer.tobytes()}
    previous = None
    changes, components = [], []
    while True:
        values, found = bellman.evaluate(layer,
                                         rewards[layer, bellman.states])
        components.append(found)
        iterations = len(changes) + 1
        scale = max(1.0, float(abs(values).max()))
        if previous is not None and \
                (values - previous).min() < -DECREASE_RELATIVE_TOL * scale:
            raise SolverError(f"policy iteration: values decreased at "
                              f"iteration {iterations}; evaluation is wrong")
        improved, _ = bellman.improve(values, buffers, incumbent=layer)
        changes.append(int(np.count_nonzero(improved != layer)))
        if not changes[-1]:
            return Strategy(actions=bellman.source[layer, bellman.states],
                            values=values, iterations=iterations,
                            residual=0.0, method="policy-iteration",
                            residuals=tuple(residuals),
                            changes=tuple(changes),
                            components=tuple(components))
        if improved.tobytes() in seen:
            raise SolverError(f"policy iteration: iteration {iterations} "
                              "returned to an earlier policy; evaluation "
                              "is wrong")
        seen.add(improved.tobytes())
        layer, previous = improved, values


# ---------------------------------------------------------------------------
# Strategy export (format obdpolicy/1)


def dump_policy(strategy: Strategy, mdp: MdpModel) -> str:
    """One `<state> <action> <value>` line per state, written as one
    block like the triples of obdmdp/1."""
    n = mdp.n_states
    return FORMAT_POLICY + "\n" + join_columns(
        (text_table(f"{s} " for s in range(n)), np.arange(n)),
        (text_table(f"{a} " for a in mdp.action_names), strategy.actions),
        float_column(strategy.values))


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
