"""Compile a domain model into a discounted-reward MDP.

Pipeline: enumerate every assignment of state variables and requirement
statuses, build every action's and event's step matrix with one builder
(an event branch fires with its occurrence probability, the rest of the
mass stays put), warn about every pair of events whose step matrices do
not commute (found by a fingerprint, without multiplying them), and fold
the events, in declaration order, into one event product E at the rows
an action step reaches (P_a = X_a E reads no other), from those rows of
the first event's matrix; E's other rows stay empty. The model keeps its
factors: E, each action's explicit matrix X_a, and one reward factor
(r_k, g_k, h_k) per requirement k, the reward r_k being paid on a
transition s -> j where g_k(s) and h_k(j) hold: the before-part and the
after-part of the requirement's reward condition in `reqauto`. The
implicit-event matrix P_a = X_a E (action first, then the events) and the
reward matrix R_a = -c_a + sum_k r_k g_k(s) h_k(j) on its support are
multiplied out only when first read. Probabilities stay exact rationals
until the matrices are exported for the solver.

State index `b * S + sigma` pairs the base state `b` (the declared
variables) with the status tuple `sigma` (one status per requirement, S
tuples in all). Every formula is evaluated once per base state, as a
boolean mask. A requirement's status update and the parts of its reward
condition see a state only through its status and the truth of the
requirement's formulas, so each is tabulated from one `reqauto` call per
distinct key and then looked up for every state: two status tables, after
an action and after an event, serve every matrix.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from typing import NamedTuple, Optional

import numpy as np
import scipy.sparse as sp

from obd.dsl import (
    ActionDesc,
    And,
    Atom,
    BoolLit,
    Diagnostic,
    DomainModel,
    EventDesc,
    NOOP,
    Not,
    ObdError,
    Or,
    format_formula,
    subformulas,
    validate,
)
from obd.reqauto import (
    REWARD_PARTS,
    advance,
    build_automaton,
    status_count,
)

DEFAULT_GAMMA = Fraction(19, 20)
DEFAULT_STATE_LIMIT = 2_000_000
FORMAT_MDP = "obdmdp/1"
# How far from 1 a transition row read from obdmdp/1 may sum: the floats
# written for a compiled row round its exact probabilities.
ROW_SUM_TOL = 1e-9


class CompileError(ObdError):
    pass


class StateLimitError(CompileError):
    pass


def _check_size(size: int, limit: int) -> None:
    if size > limit:
        raise StateLimitError(f"state space has {size} states, "
                              f"exceeding the limit of {limit}")


# ---------------------------------------------------------------------------
# State space


def _digits(domains) -> np.ndarray:
    """Value indices of every assignment over `domains`, one row per
    mixed-radix index, the first domain the most significant digit."""
    count = math.prod(len(d) for d in domains)
    out = np.empty((count, len(domains)), dtype=np.int64)
    rest = np.arange(count)
    for pos in range(len(domains) - 1, -1, -1):
        rest, out[:, pos] = np.divmod(rest, len(domains[pos]))
    return out


@dataclass(frozen=True)
class StateSpace:
    """Lexicographic bijection between indices and full variable assignments.

    Order: declared state variables first, then one variable per
    requirement; value order is declaration order. The first variable is
    the most significant digit of the mixed-radix index.
    """

    names: tuple  # variable names, state vars then requirement vars
    domains: tuple  # tuple of value tuples, parallel to names
    n_base: int  # how many leading entries are state variables

    @property
    def size(self) -> int:
        return math.prod(len(d) for d in self.domains)

    @property
    def n_statuses(self) -> int:
        """Status tuples per base state: the S of `index = b * S + sigma`."""
        return math.prod(len(d) for d in self.domains[self.n_base:])

    @cached_property
    def base_digits(self) -> np.ndarray:
        """Value index of each state variable, one row per base state."""
        return _digits(self.domains[:self.n_base])

    @cached_property
    def status_digits(self) -> np.ndarray:
        """Status index of each requirement, one row per status tuple."""
        return _digits(self.domains[self.n_base:])

    def index_of(self, assignment: Mapping[str, str]) -> int:
        idx = 0
        for name, domain in zip(self.names, self.domains):
            idx = idx * len(domain) + domain.index(assignment[name])
        return idx

    def state(self, index: int) -> dict:
        names, domains = self.names, self.domains
        values = [0] * len(names)
        for pos in range(len(names) - 1, -1, -1):
            index, values[pos] = divmod(index, len(domains[pos]))
        return {name: domains[pos][values[pos]]
                for pos, name in enumerate(names)}

    def atoms(self, index: int) -> tuple:
        state = self.state(index)
        return tuple((name, state[name]) for name in self.names)


def enumerate_states(model: DomainModel, automata) -> StateSpace:
    """Deterministic state enumeration."""
    names = [v.name for v in model.variables]
    domains = [v.domain for v in model.variables]
    for auto in automata:
        names.append(auto.name)
        domains.append(auto.statuses)
    return StateSpace(tuple(names), tuple(domains), len(model.variables))


# ---------------------------------------------------------------------------
# Sparse matrices over exact rationals


# Numerators are int64 when a bound on every value computed from them, the
# sums of products included, is below this; Python ints otherwise. Keeping
# stored values below 2**62 leaves room for one more addition.
_INT64_BOUND = 2 ** 62
# Integers below this are exact float64 values.
_FLOAT_EXACT = 2 ** 53
# Numerators that SparseMatrix checks against the denominator before it
# takes the gcd of them all.
_GCD_PROBE = 16
# Products taking more than this many terms X(i,k) Y(k,j) are multiplied by
# SciPy's int64 kernel when they fit it. Against the numpy path it took
# 1.7-3.6x as long below 4,096 terms (a fixed cost of about 130 us),
# 0.67-1.5x between 4,096 and 8,192, and 0.43-0.94x above 8,192 (toy and
# restaurant models, minimum of 5 runs, scipy 1.17, 2-vCPU x86 VM).
SCIPY_TERMS = 8192


def _dtype(bound: int):
    """int64 when `bound` bounds every |value| below _INT64_BOUND, object
    (Python ints, which never overflow) otherwise."""
    return np.int64 if bound < _INT64_BOUND else object


def _magnitude(numerators: np.ndarray) -> int:
    """Largest absolute value in an integer array, as a Python int."""
    if not numerators.size:
        return 0
    return max(int(numerators.max()), -int(numerators.min()))


def gather_rows(indptr: np.ndarray, rows: np.ndarray, extra: int = 0):
    """Row pointers of the rows `rows` of a CSR matrix with row pointers
    `indptr`, each followed by `extra` more slots, and for every entry the
    position in the matrix's arrays that it takes (past the row's end for
    the extra slots, which the caller points elsewhere). A numpy gather:
    on models of a few dozen states, SciPy's m[rows] costs several times
    more in call overhead."""
    starts = indptr[rows]
    counts = indptr[rows + 1] - starts + extra
    out = np.zeros(rows.size + 1, dtype=indptr.dtype)
    np.cumsum(counts, out=out[1:])
    take = np.arange(out[-1])
    take += np.repeat(starts - out[:-1], counts)
    return out, take


class SparseMatrix:
    """Square sparse matrix of exact rationals.

    Canonical CSR: one entry per position, columns ascending within each
    row, stored zeros kept. Values are integer numerators over one common
    denominator, in lowest terms, which makes equal matrices equal field by
    field. The numerators are int64 when every one is below 2**62 in
    absolute value, Python ints in an object array otherwise; `largest` is
    that absolute value. Instances are not modified after construction:
    `csr`, the float64 copy for the solver, is built once.
    """

    def __init__(self, size: int, indptr, indices, numerators,
                 denominator: int = 1):
        numerators = np.asarray(numerators)
        largest = _magnitude(numerators)
        # a few numerators usually prove lowest terms already; the full
        # gcd is taken only when they share a factor with the denominator
        common = math.gcd(denominator, *numerators[:_GCD_PROBE].tolist())
        if common > 1:
            divisor = int(np.gcd.reduce(numerators))
            common = math.gcd(denominator, divisor)
        if common > 1:
            if divisor:  # else all are 0 and `common` may not fit int64
                numerators = numerators // common
                largest //= common
            denominator //= common
        self.size = size
        self.indptr = indptr
        self.indices = indices
        self.numerators = numerators.astype(_dtype(largest), copy=False)
        self.denominator = denominator
        self.largest = largest

    @classmethod
    def from_entries(cls, size: int, rows, cols, numerators,
                     denominator: int = 1) -> "SparseMatrix":
        """Matrix of coordinate entries given in any order; entries at the
        same position are summed."""
        key = rows * size + cols
        order = np.argsort(key, kind="stable")
        key, numerators = key[order], numerators[order]
        starts = np.flatnonzero(np.diff(key, prepend=-1))
        if len(starts) < len(key):
            terms = int(np.diff(starts, append=len(key)).max())
            numerators = np.add.reduceat(numerators.astype(
                _dtype(_magnitude(numerators) * terms), copy=False), starts)
            key = key[starts]
        rows = key // size
        indptr = np.zeros(size + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=size), out=indptr[1:])
        return cls(size, indptr, key - rows * size, numerators, denominator)

    @classmethod
    def from_floats(cls, size: int, rows, cols, values) -> "SparseMatrix":
        """The exact binary values of the float64 `values`, at distinct
        positions in row-major order; `csr` holds the floats, -0.0 kept."""
        # each value is m * 2**(e - 53), m = mantissa * 2**53 an integer
        mantissas, exponents = np.frexp(values)
        low = min(0, int(exponents.min(initial=53)) - 53)  # over 2**-low
        shifts = exponents.astype(np.int64) - 53 - low
        dtype = _dtype(2 ** (53 + int(shifts.max(initial=0))))
        indptr = np.zeros(size + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=size), out=indptr[1:])
        matrix = cls(size, indptr, cols, (mantissas * 2.0 ** 53).astype(
            np.int64).astype(dtype) << shifts.astype(dtype), 2 ** -low)
        matrix.csr = sp.csr_matrix((values, cols, indptr), shape=(size, size))
        return matrix

    @classmethod
    def identity(cls, size: int) -> "SparseMatrix":
        return cls(size, np.arange(size + 1), np.arange(size),
                   np.ones(size, dtype=np.int64))

    def entry_rows(self) -> np.ndarray:
        """Row index of every stored entry, parallel to `indices`."""
        return np.repeat(np.arange(self.size), np.diff(self.indptr))

    def nnz(self) -> int:
        return len(self.indices)

    def row(self, i: int) -> dict:
        """Column -> exact Fraction for the stored entries of row i."""
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return {j: Fraction(n, self.denominator) for j, n in zip(
            self.indices[lo:hi].tolist(), self.numerators[lo:hi].tolist())}

    def get(self, i: int, j: int) -> Fraction:
        lo, hi = self.indptr[i], self.indptr[i + 1]
        k = lo + np.searchsorted(self.indices[lo:hi], j)
        if k < hi and self.indices[k] == j:
            return Fraction(int(self.numerators[k]), self.denominator)
        return Fraction(0)

    def row_sums(self) -> list:
        sums = np.zeros(self.size, dtype=object)
        np.add.at(sums, self.entry_rows(), self.numerators)
        return [Fraction(s, self.denominator) for s in sums.tolist()]

    def matmul(self, other: "SparseMatrix") -> "SparseMatrix":
        """Exact product: every entry (i, k) of self meets row k of other.

        A product of more than SCIPY_TERMS terms runs through SciPy's int64
        `csr @ csr` (Gustavson's row-by-row product) when it cannot
        overflow and loses no entry there: every numerator of both factors
        is positive, since SciPy drops entries that sum to 0, and
        self.largest * other.largest * (longest row of self), which bounds
        every sum of terms, is below 2**62, since SciPy does not check
        overflow. Every other product expands its terms with numpy: each
        is bounded by the product of the two largest numerators, which
        picks its dtype, and from_entries bounds their sums, keeping those
        that are 0. Terms are counted only when size * min(nnz of either),
        which bounds them, exceeds SCIPY_TERMS: every entry of one factor
        meets at most `size` entries of the other."""
        denominator = self.denominator * other.denominator
        if self.size * min(len(self.indices), len(other.indices)) \
                > SCIPY_TERMS \
                and np.bincount(self.indices, minlength=self.size) \
                @ (other.indptr[1:] - other.indptr[:-1]) > SCIPY_TERMS \
                and self.largest * other.largest \
                * int(np.diff(self.indptr).max()) < _INT64_BOUND \
                and self.numerators.min() > 0 and other.numerators.min() > 0:
            shape = (self.size, self.size)
            product = sp.csr_matrix(
                (self.numerators, self.indices, self.indptr), shape=shape) \
                @ sp.csr_matrix(
                    (other.numerators, other.indices, other.indptr),
                    shape=shape)
            product.sort_indices()
            return SparseMatrix(self.size, product.indptr.astype(np.int64),
                                product.indices.astype(np.int64),
                                product.data, denominator)
        offsets, positions = gather_rows(other.indptr, self.indices)
        counts = offsets[1:] - offsets[:-1]
        dtype = _dtype(self.largest * other.largest)
        return SparseMatrix.from_entries(
            self.size, np.repeat(self.entry_rows(), counts),
            other.indices[positions],
            np.repeat(self.numerators.astype(dtype, copy=False), counts)
            * other.numerators.astype(dtype, copy=False)[positions],
            denominator)

    @cached_property
    def csr(self) -> sp.csr_matrix:
        """float64 copy holding the float of each exact Fraction. Below
        2**53 numerators and denominator are exact doubles and IEEE
        division rounds correctly; otherwise the division is done on
        Python ints, which round correctly too."""
        if self.denominator < _FLOAT_EXACT and self.largest < _FLOAT_EXACT:
            data = self.numerators.astype(np.float64) / self.denominator
        else:
            data = (self.numerators.astype(object)
                    / self.denominator).astype(np.float64)
        return sp.csr_matrix((data, self.indices, self.indptr),
                             shape=(self.size, self.size))

    def held_rows(self, held: np.ndarray) -> "SparseMatrix":
        """This matrix with the rows outside the boolean mask `held` empty."""
        lengths = np.diff(self.indptr)
        indptr = np.zeros(self.size + 1, dtype=np.int64)
        np.cumsum(lengths * held, out=indptr[1:])
        keep = np.repeat(held, lengths)
        return SparseMatrix(self.size, indptr, self.indices[keep],
                            self.numerators[keep], self.denominator)

    def __eq__(self, other):
        return (isinstance(other, SparseMatrix) and self.size == other.size
                and self.denominator == other.denominator
                and np.array_equal(self.indptr, other.indptr)
                and np.array_equal(self.indices, other.indices)
                and np.array_equal(self.numerators, other.numerators))


# ---------------------------------------------------------------------------
# Base-state masks and status tables


def _mask(f, space: StateSpace) -> np.ndarray:
    """Truth of formula `f` in every base state; an absent formula is
    false. Each distinct subformula is evaluated once, without
    recursion."""
    n = len(space.base_digits)
    if f is None:
        return np.zeros(n, dtype=bool)
    masks = {}
    for g in subformulas(f):
        if isinstance(g, Atom):
            pos = space.names.index(g.var)
            mask = space.base_digits[:, pos] == space.domains[pos].index(g.value)
        elif isinstance(g, BoolLit):
            mask = np.full(n, g.value, dtype=bool)
        elif isinstance(g, Not):
            mask = ~masks[id(g.operand)]
        elif isinstance(g, And):
            mask = masks[id(g.left)] & masks[id(g.right)]
        elif isinstance(g, Or):
            mask = masks[id(g.left)] | masks[id(g.right)]
        else:
            raise TypeError(f"not a formula node: {g!r}")
        masks[id(g)] = mask
    return masks[id(f)]


def _matched_branches(branches, owner: str, space: StateSpace) -> np.ndarray:
    """Per base state, the index of the branch whose precondition holds
    there, -1 where none does. Overlapping preconditions raise, naming the
    first state where they overlap."""
    masks = [_mask(br.precondition, space) for br in branches]
    overlap = np.flatnonzero(np.sum(masks, axis=0) > 1) if masks else ()
    if len(overlap):
        b = int(overlap[0])
        first, second = [br for br, m in zip(branches, masks) if m[b]][:2]
        state = space.state(b * space.n_statuses)
        witness = " ".join(f"{name}={value}" for name, value in state.items())
        raise CompileError(
            f"{owner}: preconditions "
            f"'{format_formula(first.precondition)}' and "
            f"'{format_formula(second.precondition)}' overlap in state "
            f"{{{witness}}}")
    matched = np.full(len(space.base_digits), -1, dtype=np.int64)
    for k, mask in enumerate(masks):
        matched[mask] = k
    return matched


def _targets(space: StateSpace, bases: np.ndarray, assignments) -> np.ndarray:
    """Base state indices after applying `assignments` to each of `bases`."""
    radices = [len(d) for d in space.domains[:space.n_base]]
    out = bases
    for var, value in assignments:
        pos = space.names.index(var)
        offset = space.domains[pos].index(value) \
            - space.base_digits[out, pos]
        out = out + offset * math.prod(radices[pos + 1:])
    return out


def _truth_codes(auto, space: StateSpace):
    """Per base state, the index of its truth combination of the
    requirement's required, activation and cancellation formulas among the
    distinct combinations; and each combination, those truths as the bits
    4, 2 and 1, as reqauto.advance reads them."""
    req = auto.requirement
    bits = (4 * _mask(req.required, space) + 2 * _mask(req.activation, space)
            + _mask(req.cancellation, space))
    combos, codes = np.unique(bits, return_inverse=True)
    return codes, combos


def _next_statuses(space: StateSpace, automata, truths,
                   time_step: bool) -> np.ndarray:
    """Status tuple after one step, an action's when `time_step` and an
    event's otherwise, for every successor base state (rows) and status
    tuple before the step (columns). `reqauto.advance` is called once per
    requirement, status and distinct truth combination (`truths`, one per
    requirement)."""
    out = np.zeros((len(space.base_digits), space.n_statuses), dtype=np.int64)
    stride = space.n_statuses
    for k, (auto, (codes, combos)) in enumerate(zip(automata, truths)):
        stride //= len(auto.statuses)
        table = np.array([[auto.statuses.index(advance(auto, status, bits,
                                                       time_step))
                           for status in auto.statuses]
                          for bits in combos.tolist()])
        out += table[codes][:, space.status_digits[:, k]] * stride
    return out


# ---------------------------------------------------------------------------
# Matrix construction


def _explicit_matrix(branches, firing, owner: str, space: StateSpace,
                     successors: np.ndarray) -> SparseMatrix:
    """One action or event step. A base state that branch k matches fires
    with probability firing[k], one that no branch matches with
    firing[-1]. Firing takes the branch's effects, the residual
    probability keeping the base, and advances the statuses against the
    successor base by the `_next_statuses` table `successors`; the mass
    that does not fire stays where it is, statuses included."""
    matched = _matched_branches(branches, owner, space)
    # row b * S + sigma, column b' * S + (status tuple after sigma at b')
    n_sigma = space.n_statuses
    unchanged = np.arange(n_sigma)
    pieces = []  # (rows, columns, probability)
    for k in range(-1, len(branches)):
        bases = np.flatnonzero(matched == k)
        sources = (bases[:, None] * n_sigma + unchanged).ravel()
        effects = branches[k].effects if k >= 0 else ()
        moves = [(_targets(space, bases, eff.assignments), eff.probability)
                 for eff in effects]
        residual = 1 - sum(eff.probability for eff in effects)
        if residual > 0:
            moves.append((bases, residual))
        if firing[k]:
            pieces += [(sources,
                        (t[:, None] * n_sigma + successors[t]).ravel(),
                        firing[k] * p) for t, p in moves]
        if firing[k] < 1:
            pieces.append((sources, sources, 1 - firing[k]))
    rows, cols, probs = zip(*pieces)
    denominator = math.lcm(*(p.denominator for p in probs))
    # probabilities: every numerator and every sum of them is at most
    # the denominator
    numerators = np.repeat(
        np.array([p.numerator * (denominator // p.denominator)
                  for p in probs], dtype=_dtype(denominator)),
        [len(r) for r in rows])
    return SparseMatrix.from_entries(space.size, np.concatenate(rows),
                                     np.concatenate(cols), numerators,
                                     denominator)


def explicit_action_matrix(action: ActionDesc, space: StateSpace,
                           successors: np.ndarray) -> SparseMatrix:
    """Per-state action execution; statuses advance by `successors`.

    States where no precondition holds self-loop on the base but still
    advance statuses. Overlapping preconditions raise with a witness state.
    """
    return _explicit_matrix(action.branches, [1] * (len(action.branches) + 1),
                            f"action '{action.name}'", space, successors)


def effective_event_matrix(event: EventDesc, space: StateSpace,
                           successors: np.ndarray) -> SparseMatrix:
    """P-hat_e = diag(O_e) Pr_e + diag(1 - O_e): the event step in which a
    matched branch fires with its occurrence probability and an unmatched
    state never does; statuses advance by `successors`, the table after
    an event."""
    return _explicit_matrix(
        event.branches,
        [br.occurrence_probability for br in event.branches] + [0],
        f"event '{event.name}'", space, successors)


def events_matrix(effective_matrices) -> SparseMatrix:
    """Left-to-right product of a non-empty list of effective event
    matrices in declaration order, folded from the first (no product with
    the identity)."""
    return reduce(SparseMatrix.matmul, effective_matrices)


def implicit_action_matrix(explicit: SparseMatrix,
                           events: SparseMatrix) -> SparseMatrix:
    """Sequential composition, action first, then all events."""
    return explicit.matmul(events)


class RewardFactor(NamedTuple):
    """One requirement's reward, `reward` on every transition from a state
    where `before` holds to one where `after` holds (per-state masks)."""

    reward: int
    before: np.ndarray
    after: np.ndarray


def _reward_factor(auto, k: int, space: StateSpace, truths) -> RewardFactor:
    """Requirement k's reward, r * g(s) * h(j) on a transition s -> j: g
    and h are the two parts of its `reqauto.REWARD_PARTS` condition, each
    called once per status and distinct truth combination (`truths`, from
    `_truth_codes`) and looked up for every state."""
    req = auto.requirement
    paid_before, paid_after = REWARD_PARTS[req.kind]
    codes, bits = truths
    combos = [(bool(c & 4), bool(c & 1)) for c in bits.tolist()]
    g = np.array([[paid_before(st, s) for s, _ in combos]
                  for st in auto.statuses], dtype=bool)
    h = np.array([[paid_after(st, s, z) for s, z in combos]
                  for st in auto.statuses], dtype=bool)
    # row b, column sigma: state b * S + sigma
    at = (space.status_digits[:, k], codes[:, None])
    return RewardFactor(req.reward, g[at].ravel(), h[at].ravel())


def reward_matrix(action: ActionDesc, implicit: SparseMatrix,
                  factors) -> SparseMatrix:
    """Transition rewards on the support of the implicit matrix: the
    reward of every factor whose `before` holds at the row and `after` at
    the column, minus the action cost (entries may be negative, zeros
    stay stored)."""
    before, after = implicit.entry_rows(), implicit.indices
    bound = abs(action.cost) + sum(abs(f.reward) for f in factors)
    total = np.full(implicit.nnz(), -action.cost, dtype=_dtype(bound))
    for f in factors:
        total[f.before[before] & f.after[after]] += f.reward
    return SparseMatrix(implicit.size, implicit.indptr, implicit.indices,
                        total)


# ---------------------------------------------------------------------------
# Whole-model compilation


class _Products(Mapping):
    """Action name -> SparseMatrix, built by `build(name)` when first
    read and kept."""

    def __init__(self, names: tuple, build: Callable[[str], SparseMatrix]):
        self._names = names
        self._build = build
        self._built: dict = {}

    def __getitem__(self, name: str) -> SparseMatrix:
        if name not in self._built:
            self._built[name] = self._build(name)  # KeyError if unknown
        return self._built[name]

    def __iter__(self):
        return iter(self._names)

    def __len__(self) -> int:
        return len(self._names)


# Compared by identity: the fields hold numpy arrays, which have no
# single truth value for == to return.
@dataclass(eq=False)
class MdpModel:
    space: StateSpace
    action_names: tuple  # noop first, then declaration order
    actions: tuple  # of ActionDesc, parallel to action_names
    # The factors; None for a model read from obdmdp/1, which holds only
    # the products. E, the event product, at the rows an action step
    # reaches (the columns of every X_a), every other row empty:
    events: Optional[SparseMatrix]
    explicit: Optional[Mapping]  # action name -> X_a
    reward_factors: Optional[tuple]  # one RewardFactor per requirement
    transitions: Mapping  # action name -> P_a = X_a E, built when read
    rewards: Mapping  # action name -> R_a on the support of P_a, same
    gamma: Fraction
    initial_index: int
    model: Optional[DomainModel] = None
    automata: tuple = ()
    warnings: tuple = ()  # of dsl.Diagnostic
    step_tables: object = None  # the simulator's memo tables, on first use
    bellman: object = None  # the solver's Bellman operator, on first use

    @property
    def n_states(self) -> int:
        return self.space.size

    @property
    def n_actions(self) -> int:
        return len(self.action_names)

    def transition_csr(self, name: str) -> sp.csr_matrix:
        return self.transitions[name].csr

    def reward_csr(self, name: str) -> sp.csr_matrix:
        return self.rewards[name].csr


# Freivalds' fingerprint of the event commutators: this many fixed random
# vectors with entries below 2**_FINGERPRINT_BITS, drawn from a generator
# with a constant seed, so that the warnings are the same on every run.
_FINGERPRINT_BITS = 20
_FINGERPRINT_VECTORS = 3
_FINGERPRINT_SEED = 1977


def _check_commutation(events, effective) -> list:
    """Event folding uses declaration order; warn, at the later event of
    the pair, for every pair of events whose effective matrices do not
    commute, by Freivalds' fingerprint (Freivalds 1977; Schwartz 1980).

    With N_e the numerators of Phat_e over its denominator d_e,
    Phat_i Phat_j - Phat_j Phat_i = (N_i N_j - N_j N_i) / (d_i d_j). Pair
    (i, j) warns iff N_i (N_j R) != N_j (N_i R), compared exactly, for the
    fixed random n x V matrix R (V = _FINGERPRINT_VECTORS, entries below
    2**B, B = _FINGERPRINT_BITS): a flagged pair does not commute, and one
    that does not is missed with probability at most 2**-(B*V) = 2**-60.
    Every N_e is non-negative with rows summing to at most 2 d_e, so every
    value is below 4 d_i d_j 2**B; that bound picks int64 or Python ints."""
    if len(effective) < 2:
        return []
    n = effective[0].size
    dtype = _dtype(4 * max(m.denominator for m in effective) ** 2
                   * 2 ** _FINGERPRINT_BITS)

    def times(m):  # dense -> N_m @ dense
        if dtype is object:  # SciPy has no Python-int matrices
            def product(dense):
                out = np.zeros(dense.shape, dtype=object)
                np.add.at(out, m.entry_rows(),
                          m.numerators[:, None] * dense[m.indices])
                return out
            return product
        return sp.csr_matrix((m.numerators, m.indices, m.indptr),
                             shape=(n, n)).__matmul__

    products = [times(m) for m in effective]
    vectors = np.random.default_rng(_FINGERPRINT_SEED).integers(
        2 ** _FINGERPRINT_BITS, size=(n, _FINGERPRINT_VECTORS)).astype(dtype)
    once = [p(vectors) for p in products]  # N_e R
    return [Diagnostic("warning", f"events '{events[i].name}' and "
                       f"'{events[j].name}' do not commute; using "
                       "declaration order", events[j].line, events[j].col)
            for i, j in itertools.combinations(range(len(effective)), 2)
            if not np.array_equal(products[i](once[j]),
                                  products[j](once[i]))]


def compile_model(model: DomainModel, gamma: Fraction = DEFAULT_GAMMA,
                  limit: int = DEFAULT_STATE_LIMIT) -> MdpModel:
    """Assemble the full MDP: state space, discount factor, the event
    product at the rows an action step reaches, the explicit matrix of
    each action (noop included) and the reward factors; the
    implicit-event transition and reward matrices are built when first
    read. A discount factor outside (0,1), also as a float64, and the
    first error `dsl.validate` finds in the model raise CompileError;
    more than `limit` states raise StateLimitError."""
    if not (0 < gamma < 1):  # before Fraction(), which rejects nan and inf
        raise CompileError(f"discount factor {gamma} outside (0,1)")
    if not (0 < float(gamma) < 1):  # as the solver and obdmdp/1 read it
        raise CompileError(f"discount factor {gamma} is {float(gamma)!r} "
                           "as a float64, outside (0,1)")
    gamma = Fraction(gamma)
    errors = [d.message for d in validate(model) if d.severity == "error"]
    if errors:
        raise CompileError(errors[0])
    # counted before any automaton lists the statuses of a huge deadline
    size = math.prod(len(v.domain) for v in model.variables) \
        * math.prod(status_count(r) for r in model.requirements)
    _check_size(size, limit)

    automata = tuple(build_automaton(r) for r in model.requirements)
    space = enumerate_states(model, automata)

    truths = [_truth_codes(auto, space) for auto in automata]
    after_event = _next_statuses(space, automata, truths, time_step=False)
    effective = [effective_event_matrix(ev, space, after_event)
                 for ev in model.events]
    warnings = _check_commutation(model.events, effective)

    noop = ActionDesc(NOOP, branches=(), cost=0)
    all_actions = (noop,) + tuple(model.actions)
    names = tuple(a.name for a in all_actions)
    after_action = _next_statuses(space, automata, truths, time_step=True)
    explicit = {a.name: explicit_action_matrix(a, space, after_action)
                for a in all_actions}
    # X_a E reads E only at the columns of X_a: fold its rows there alone
    reached = np.zeros(space.size, dtype=bool)
    for m in explicit.values():
        reached[m.indices] = True
    first = effective[0] if effective else SparseMatrix.identity(space.size)
    events = events_matrix([first.held_rows(reached)] + effective[1:])
    factors = tuple(_reward_factor(auto, k, space, t)
                    for k, (auto, t) in enumerate(zip(automata, truths)))
    transitions = _Products(
        names, lambda name: implicit_action_matrix(explicit[name], events))
    by_name = dict(zip(names, all_actions))
    rewards = _Products(names, lambda name: reward_matrix(
        by_name[name], transitions[name], factors))

    initial = dict(model.initial_state)
    for auto in automata:
        initial[auto.name] = auto.initial_status
    return MdpModel(
        space=space,
        action_names=names,
        actions=all_actions,
        events=events,
        explicit=explicit,
        reward_factors=factors,
        transitions=transitions,
        rewards=rewards,
        gamma=gamma,
        initial_index=space.index_of(initial),
        model=model,
        automata=automata,
        warnings=tuple(warnings),
    )


# ---------------------------------------------------------------------------
# Serialization (format obdmdp/1)
#
#   obdmdp/1
#   gamma <float>
#   states <n>
#   actions <m>
#   initial <index>
#   state <index> <var=value> ...          (one line per state)
#   action <name> <cost>                   (then its triples)
#   t <row> <col> <probability>
#   r <row> <col> <reward>
#   end
#
# Large sections are written and read as whole blocks. The writer encodes
# each distinct piece of text (a line's tag, a row or column number, the
# repr of a float) once into a fixed-width record of a table, gathers one
# record per column and line into one record array and drops the padding.
# The reader splits a section into its fields at once, as str.split does,
# reads each column with Python's own int or float, checks each condition
# as a mask over whole columns and names the earliest failing line.

_PAD = b"\xff"  # pads table records; UTF-8 never uses this byte


def text_table(texts) -> np.ndarray:
    """The UTF-8 bytes of each text as one fixed-width record (a numpy
    void type), padded to a common width with _PAD."""
    encoded = [t.encode() for t in texts]
    table = np.array(encoded, dtype=bytes)
    rows = table.view(np.uint8).reshape(len(encoded), table.itemsize)
    lengths = np.array([len(e) for e in encoded], dtype=np.int64)
    rows[np.arange(table.itemsize) >= lengths[:, None]] = _PAD[0]
    return table.view(f"V{table.itemsize}")


def float_column(values: np.ndarray) -> tuple:
    """(table, index) column writing each value as its repr and a
    newline: one text per distinct float, distinct by bit pattern so that
    0.0 and -0.0 keep their own texts."""
    bits = np.ascontiguousarray(values, dtype=np.float64).view(np.int64)
    distinct, inverse = np.unique(bits, return_inverse=True)
    return text_table(f"{v!r}\n" for v in
                      distinct.view(np.float64).tolist()), inverse


def join_columns(*columns) -> str:
    """Text whose k-th piece is, for each (table, index) column in turn,
    record index[k] of the table; a scalar index gives every piece the
    same record."""
    indices = [index for _, index in columns]
    block = np.empty(np.broadcast(*indices).shape,
                     dtype=[(f"c{k}", table.dtype)
                            for k, (table, _) in enumerate(columns)])
    for k, (table, index) in enumerate(columns):
        block[f"c{k}"] = table[index]
    return block.tobytes().translate(None, _PAD).decode()


def state_lines(space: StateSpace):
    """The `state` line of every state of `space`, in index order."""
    # the product varies the last variable fastest: the state index order
    tokens = [[f"{name}={value}" for value in domain]
              for name, domain in zip(space.names, space.domains)]
    return (f"state {i} {' '.join(atoms)}"
            for i, atoms in enumerate(itertools.product(*tokens)))


def dump_mdp(mdp: MdpModel) -> str:
    lines = [FORMAT_MDP,
             f"gamma {float(mdp.gamma)!r}",
             f"states {mdp.n_states}",
             f"actions {mdp.n_actions}",
             f"initial {mdp.initial_index}"]
    lines.extend(state_lines(mdp.space))
    parts = ["\n".join(lines) + "\n"]
    tags = text_table(["t ", "r "])
    numbers = text_table(f"{j} " for j in range(mdp.n_states))
    for action in mdp.actions:
        parts.append(f"action {action.name} {action.cost}\n")
        for tag, m in enumerate((mdp.transitions[action.name],
                                 mdp.rewards[action.name])):
            parts.append(join_columns((tags, tag), (numbers, m.entry_rows()),
                                      (numbers, m.indices),
                                      float_column(m.csr.data)))
    parts.append("end\n")
    return "".join(parts)


def read_columns(lines, width: int) -> tuple:
    """The fields of `lines`, split by `str.split`, as `width` object columns
    (short lines padded with "", long ones cut), and each line's count."""
    counts = np.fromiter(map(len, map(str.split, lines)), np.int64, len(lines))
    fields = np.array(" ".join(lines).split() + [""], dtype=object)
    at = (np.cumsum(counts) - counts)[:, None] + np.arange(width)
    at[np.arange(width) >= counts[:, None]] = -1
    return fields[at], counts


def parse_column(texts, kind) -> tuple:
    """Each text as Python's own `kind` (int or float) reads it, ints at
    most 2**62 in absolute value, and the mask of those rejected (read 0)."""
    dtype = np.int64 if kind is int else np.float64
    failed = np.zeros(len(texts), dtype=bool)
    try:
        return np.fromiter(map(kind, texts), dtype, len(texts)), failed
    except (ValueError, OverflowError):  # then one text at a time
        values = np.zeros(len(texts), dtype)
    bound = _INT64_BOUND if kind is int else math.inf
    for k, text in enumerate(texts):
        try:
            values[k] = min(max(kind(text), -bound), bound)
        except ValueError:
            failed[k] = True
    return values, failed


def repeats(keys: np.ndarray) -> np.ndarray:
    """Per entry, whether an earlier entry has the same key."""
    order, out = np.argsort(keys, kind="stable"), np.zeros(len(keys), bool)
    out[order[1:]] = keys[order[1:]] == keys[order[:-1]]
    return out


def check_lines(error, first_line: int, checks, **columns) -> None:
    """Raise `error` naming the earliest line, from `first_line` on, that a
    check (mask, message) flags; the message formats the line's `columns`."""
    firsts = [np.argmax(m) if np.any(m) else math.inf for m, _ in checks]
    if (k := min(firsts)) < math.inf:  # then the first check failing there
        raise error(f"line {first_line + k}: " + checks[firsts.index(k)][1]
                    .format(**{name: col[k] for name, col in columns.items()}))


def _integer_checks(texts, name: str, low: int, high=math.inf) -> tuple:
    """`texts` as ints, and the checks that each (`name`) is in [low, high)."""
    values, failed = parse_column(texts, int)
    return values, [(failed, f"not an integer: {{{name}!r}}"),
                    (values < low, f"{{{name}}} is below {low}"),
                    (values >= high, f"{{{name}}} is not below {high}")]


def load_mdp(text: str, limit: int = DEFAULT_STATE_LIMIT) -> MdpModel:
    """Parse an obdmdp/1 document back into a solvable model.

    Probabilities and rewards come back as the exact values of the written
    floats; the domain model and automata are not recoverable from this
    format, so the result supports solving and export but not simulation.
    Malformed documents raise CompileError naming the line; a `states`
    count above `limit` raises StateLimitError before any state is read.
    """
    lines = text.splitlines()
    if not lines or lines[0] != FORMAT_MDP:
        raise CompileError(f"not an {FORMAT_MDP} document")
    header = []  # the states, actions and initial counts
    for k, tag in enumerate(("gamma", "states", "actions", "initial"), 2):
        parts = lines[k - 1].split() if k <= len(lines) else None
        if parts is None or parts[:1] != [tag] or len(parts) != 2:
            got = "end of input" if parts is None else repr(lines[k - 1])
            raise CompileError(f"line {k}: expected '{tag} <value>', got: "
                               f"{got}")
        if tag == "gamma":
            (approx,), failed = parse_column(parts[1:], float)
            check_lines(CompileError, 2, [
                (failed, "discount factor is not a number"),
                ([not 0 < approx < 1], f"discount factor {approx} outside "
                                       "(0,1)")])
            gamma = Fraction(parts[1])  # in range: no exponent 1e999999999
            continue
        check_lines(CompileError, k, _integer_checks(
            parts[1:], "value", *(0, header[0]) if header[1:] else (1,))[1],
            value=parts[1:])
        header.append(int(parts[1]))
        _check_size(header[0], limit)
    n_states, n_actions, initial = header
    # each assignment once, in index order, and no more (as dump_mdp writes)
    if len(lines) < 5 + n_states:
        raise CompileError(f"line {len(lines) + 1}: expected 'state' line, "
                           "got end of input")
    got = (lines[5:6 + n_states] + [""])[:n_states + 1]
    fields = read_columns(got, max(1, len(got[0].split())))[0]
    check_lines(CompileError, 6, [(fields[:-1, 0] != "state", "expected "
                                   "'state' line, got: {line!r}")], line=got)
    atoms = np.array(list(map(str.partition, fields[:-1, 2:].ravel(),
                              itertools.repeat("="))), dtype=object)
    atoms = atoms.reshape(n_states, -1, 3)  # var, "=", value
    names = tuple(atoms[0, :, 0].tolist())
    space = StateSpace(names, tuple(tuple(dict.fromkeys(atoms[:, [
        j for j, other in enumerate(names) if other == name], 2].ravel()
        .tolist())) for name in names), len(names))  # a name has one domain
    expected = list(itertools.islice(state_lines(space), n_states + 1))
    check_lines(CompileError, 6, [(np.fromiter(map(
        list.__ne__, map(str.split, got), map(str.split, expected)), bool),
        "expected '{want}', got: {line!r}")], want=expected, line=got)
    if space.size < n_states:
        raise CompileError(f"line {6 + space.size}: state {space.size} "
                           "repeats an earlier assignment")
    # up to the first `end` line, each action's `t` and `r` lines after it
    start = 6 + n_states  # the number of the first line after the states
    fields, counts = read_columns(lines[start - 1:], 4)
    ends = np.flatnonzero((fields[:, 0] == "end") & (counts == 1))
    stop = int(ends[0]) if ends.size else len(fields)
    fields, counts, tags = fields[:stop], counts[:stop], fields[:stop, 0]
    is_action, is_t, is_r = tags == "action", tags == "t", tags == "r"
    is_triple, named = is_t | is_r, np.flatnonzero(is_action)
    action_of = np.cumsum(is_action) - 1  # -1 before the first
    triples = np.where(is_triple[:, None], fields[:, 1:], "0")
    rows, row_checks = _integer_checks(triples[:, 0], "row", 0, n_states)
    cols, col_checks = _integer_checks(triples[:, 1], "col", 0, n_states)
    values, failed = parse_column(triples[:, 2], float)
    # sorted by action, tag and position, the other lines (negative) first
    group = 2 * action_of + is_r
    key = np.where(is_triple, (group.astype(_dtype(
        2 * (len(named) + 1) * n_states ** 2)) * n_states + rows) * n_states
        + cols, -1 - np.arange(stop))
    bad = np.zeros((2, stop), dtype=bool)  # action lines: form, name
    bad[:, named] = (counts[named] != 3) | parse_column(
        fields[named, 2], int)[1], repeats(fields[named, 1])
    check_lines(CompileError, start, [
        (~(is_action | is_triple), "unexpected line: {line!r}"),
        (bad[0], "'action' takes a name and an integer cost"),
        (bad[1], "action '{row}' appears twice"),
        (is_triple & (action_of < 0), "'{tag}' line before any 'action' line"),
        (is_triple & (counts != 4),
         "'{tag}' takes a row, a column and a value"),
        *row_checks, *col_checks,
        (failed | ~np.isfinite(values), "not a finite number: {value!r}"),
        (is_t & (values < 0), "negative probability: {value!r}"),
        (repeats(key), "second '{tag}' entry for {row} {col}")],
        line=lines[start - 1:], **dict(zip(("tag", "row", "col", "value"),
                                           fields.T)))
    if not ends.size:
        raise CompileError(f"line {len(lines) + 1}: missing 'end' line")
    if len(named) != n_actions:
        raise CompileError(f"line {start + stop}: expected {n_actions} "
                           f"actions, found {len(named)}")
    names = tuple(fields[named, 1].tolist())
    order = np.argsort(key, kind="stable")[stop - is_triple.sum():]
    entries = np.split(order, np.searchsorted(group[order],
                                              np.arange(1, 2 * len(names))))
    # every transition row sums to 1, added in column order; a row that
    # does not is named at its first `t` line, or at its action's line
    sums = np.array([np.bincount(rows[at], values[at], n_states)
                     for at in entries[0::2]])
    bad = (np.abs(sums - 1.0) > ROW_SUM_TOL).nonzero()
    if bad[0].size:
        line = np.full(sums.shape, stop)  # each row's first `t` line
        np.minimum.at(line, (action_of[is_t], rows[is_t]),
                      np.flatnonzero(is_t))
        line = np.where(line < stop, line, named[:, None])[bad]
        k = np.argmin(line)
        raise CompileError(f"line {start + line[k]}: action "
                           f"'{names[bad[0][k]]}': transition row "
                           f"{bad[1][k]} sums to {sums[bad][k]}")
    matrices = [SparseMatrix.from_floats(n_states, rows[at], cols[at],
                                         values[at]) for at in entries]
    return MdpModel(space=space, action_names=names, actions=tuple(
        ActionDesc(name, branches=(), cost=int(cost))
        for name, cost in fields[named, 1:3].tolist()),
        events=None, explicit=None, reward_factors=None,
        transitions=dict(zip(names, matrices[0::2])),
        rewards=dict(zip(names, matrices[1::2])),
        gamma=gamma, initial_index=initial)
