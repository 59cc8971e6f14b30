"""State-space enumeration and matrix pipeline tests.

The reference transition distributions come from the brute-force
interleaving enumerator in tests/oracles.py, which walks every action
branch and every occur/skip split of every event explicitly.
"""

import math
import random
import sys
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from obd import compiler, dsl, reqauto
from obd.compiler import (
    CompileError,
    SparseMatrix,
    StateLimitError,
    compile_model,
    dump_mdp,
    effective_event_matrix,
    enumerate_states,
    events_matrix,
    explicit_action_matrix,
    implicit_action_matrix,
    load_mdp,
)
from obd.dsl import (
    And,
    Atom,
    Effect,
    EventDesc,
    ReqKind,
    Requirement,
    parse_domain,
    validate,
)
from obd.reqauto import advance, build_automaton

import oracles

ROOT = Path(__file__).parent.parent
sys.path.insert(0, str(ROOT / "bench"))

from models import restaurant_text  # noqa: E402


def _space_and_automata(model):
    automata = tuple(build_automaton(r) for r in model.requirements)
    return enumerate_states(model, automata), automata


def _after(model, time_step: bool):
    """The space and its status table after an action step (`time_step`)
    or an event."""
    space, automata = _space_and_automata(model)
    truths = [compiler._truth_codes(auto, space) for auto in automata]
    return space, compiler._next_statuses(space, automata, truths,
                                          time_step)


# ---------------------------------------------------------------------------
# Two booleans, one conditional achieve requirement: the 8-state model


def test_toy_state_count(toy_mdp):
    assert toy_mdp.n_states == 8
    assert toy_mdp.space.names == ("x", "y", "m")
    assert toy_mdp.space.n_base == 2


def test_toy_indexing_is_lexicographic(toy_mdp):
    space = toy_mdp.space
    # first declared variable most significant, values in domain order
    assert space.state(0) == {"x": "tt", "y": "tt", "m": "I"}
    assert space.state(7) == {"x": "ff", "y": "ff", "m": "R"}
    for i in range(8):
        assert space.index_of(space.state(i)) == i


def test_toy_action_transition_entry(toy_model, toy_mdp):
    """From {!x, !y, m=R}, action a reaches {x, !y, m=I} with the x-effect
    probability 0.8 after the event is skipped (it requires !x)."""
    space = toy_mdp.space
    s2 = space.index_of({"x": "ff", "y": "ff", "m": "R"})
    s4 = space.index_of({"x": "tt", "y": "ff", "m": "I"})
    assert toy_mdp.transitions["a"].get(s2, s4) == Fraction(4, 5)


def test_toy_occurrence_vector(toy_model):
    space, _ = _space_and_automata(toy_model)
    occ = oracles.occurrence_vector(toy_model.events[0], space)
    for i in range(8):
        expected = Fraction(1, 5) if space.state(i)["x"] == "ff" \
            else Fraction(0)
        assert occ[i] == expected


def test_toy_reward_entry(toy_model, toy_mdp):
    space = toy_mdp.space
    s2 = space.index_of({"x": "ff", "y": "ff", "m": "R"})
    s4 = space.index_of({"x": "tt", "y": "ff", "m": "I"})
    assert toy_mdp.rewards["a"].get(s2, s4) == Fraction(90)


# ---------------------------------------------------------------------------
# Pipeline composition identities


# an event with a residual, a branch that always fires and states neither
# branch matches, read by a requirement with a deadline
RESIDUAL_EVENT = """
    Variable x
    Variable y
    Action a if x effects <!x prob 1/2>
    Event e if !x occur prob 1/3 effects <x prob 1/2>
            if x & y occur prob 1 effects <!y>
    ReqID m achieve y within 2 if x reward 1
    Init { x, y }
"""


def test_effective_event_formula(toy_model):
    """P-hat_e = diag(O_e) Pr_e + diag(1 - O_e), entry by entry, where Pr_e
    is the event step whose every branch always fires."""
    for model in (toy_model, parse_domain(RESIDUAL_EVENT)):
        space, after = _after(model, time_step=False)
        for event in model.events:
            always = replace(event, branches=tuple(
                replace(br, occurrence_probability=Fraction(1))
                for br in event.branches))
            explicit = effective_event_matrix(always, space, after)
            occ = oracles.occurrence_vector(event, space)
            effective = effective_event_matrix(event, space, after)
            for i in range(space.size):
                for j in range(space.size):
                    expected = occ[i] * explicit.get(i, j)
                    if i == j:
                        expected += 1 - occ[i]
                    assert effective.get(i, j) == expected


def test_events_matrix_single_is_itself(toy_model):
    space, after = _after(toy_model, time_step=False)
    effective = effective_event_matrix(toy_model.events[0], space, after)
    assert events_matrix([effective]) == effective


def test_implicit_is_explicit_times_events(toy_model):
    space, after_event = _after(toy_model, time_step=False)
    _, after_action = _after(toy_model, time_step=True)
    ev = events_matrix([effective_event_matrix(
        toy_model.events[0], space, after_event)])
    for action in toy_model.actions:
        explicit = explicit_action_matrix(action, space, after_action)
        assert implicit_action_matrix(explicit, ev) == explicit.matmul(ev)


# ---------------------------------------------------------------------------
# Brute-force interleaving oracle


def _check_against_oracle(model, mdp):
    space = mdp.space
    for action in mdp.actions:  # includes noop
        t = mdp.transitions[action.name]
        for i in range(space.size):
            expected = oracles.interleaving_distribution(
                model, space, action, i)
            assert dict(t.row(i)) == expected, (action.name, i)
            assert sum(expected.values()) == 1
    for action in mdp.actions:
        r = mdp.rewards[action.name]
        t = mdp.transitions[action.name]
        for i in range(space.size):
            for j in t.row(i):
                assert r.get(i, j) == oracles.pair_rewards(
                    model, space, action, i, j)


def test_toy_matches_brute_force(toy_model, toy_mdp):
    _check_against_oracle(toy_model, toy_mdp)


@pytest.mark.parametrize("seed", range(20))
def test_random_models_match_brute_force(seed):
    model = oracles.random_model(random.Random(1000 + seed))
    mdp = compile_model(model)
    _check_against_oracle(model, mdp)


# required s, activation a, cancellation z: an action moves s, events move
# a and z, so one step reaches every truth combination of the three
EVERY_TRUTH = """
    Variable s
    Variable a
    Variable z
    Action set_s if !s effects <s prob 1/2>
    Action clear_s if s effects <!s prob 1/2>
    Event flip_a if a occur prob 1/2 effects <!a>
        if !a occur prob 1/2 effects <a>
    Event flip_z if z occur prob 1/2 effects <!z>
        if !z occur prob 1/2 effects <z>
    Init { !s, !a, !z }
"""


@pytest.mark.parametrize("kind", list(ReqKind), ids=lambda k: k.value)
def test_every_kind_matches_brute_force(kind):
    """Every requirement kind's reward factor, with three distinct
    formulas, against the oracle's reward table."""
    req = Requirement(
        "m", kind, Atom("s", "tt"),
        Atom("a", "tt") if kind.is_conditional else None,
        Atom("z", "tt") if kind.is_conditional else None,
        2 if kind.has_deadline else None, 2 if kind.has_duration else None,
        7)
    model = replace(parse_domain(EVERY_TRUTH), requirements=(req,))
    _check_against_oracle(model, compile_model(model))


def test_fold_stays_exact_beyond_int64():
    """Events with distinct large prime denominators: the folded rows'
    denominators pass 2**63, and every row still equals the oracle."""
    primes = [(1000003, 1000033), (1000037, 1000039), (999983, 999979),
              (999961, 999959)]
    lines = [f"Variable x{k}" for k in range(len(primes))]
    lines.append("Action a if x0 effects <!x0 prob 1/999953>")
    for k, (p, q) in enumerate(primes):
        lines.append(f"Event e{k} if x{k} occur prob 1/{p} "
                     f"effects <!x{k} prob {q - 1}/{q}>")
    init = ", ".join(f"x{k}" for k in range(len(primes)))
    model = parse_domain("\n".join(lines) + f"\nInit {{ {init} }}\n")
    mdp = compile_model(model)
    _check_against_oracle(model, mdp)
    assert max(v.denominator for i in range(mdp.n_states)
               for v in mdp.transitions["a"].row(i).values()) > 2 ** 63


# ---------------------------------------------------------------------------
# int64 numerators and the bound that switches to Python ints


def _python_product(a, b):
    """indptr, indices, numerators (Python ints) and denominator of the
    exact product a @ b, summed entry by entry over Python ints and
    reduced to lowest terms; positions the product reaches keep their
    entry even when it sums to 0."""
    def rows(m):
        return [list(zip(m.indices[m.indptr[i]:m.indptr[i + 1]].tolist(),
                         m.numerators[m.indptr[i]:m.indptr[i + 1]].tolist()))
                for i in range(m.size)]
    right = rows(b)
    indptr, indices, numerators = [0], [], []
    for row in rows(a):
        sums = {}
        for k, x in row:
            for j, y in right[k]:
                sums[j] = sums.get(j, 0) + x * y
        indices += sorted(sums)
        numerators += [sums[j] for j in sorted(sums)]
        indptr.append(len(indices))
    denominator = a.denominator * b.denominator
    common = math.gcd(denominator, *numerators)
    return (indptr, indices, [n // common for n in numerators],
            denominator // common)


def _fields(m):
    return (m.indptr.tolist(), m.indices.tolist(), m.numerators.tolist(),
            m.denominator)


def _two_by_two(numerators, denominator):
    return SparseMatrix(2, np.array([0, 2, 4]), np.array([0, 1, 0, 1]),
                        np.array(numerators, dtype=object), denominator)


@pytest.mark.parametrize("p, q, dtype", [(2 ** 31 - 1, 2 ** 30, np.int64),
                                         (2 ** 31, 2 ** 30, object),
                                         (2 ** 31, 2 ** 31, object)])
def test_matmul_at_the_int64_bound(p, q, dtype):
    """Row 0 of the left factor holds p twice, the right factor's
    largest numerator is q: the bound 2*p*q sits just below 2**62, at it,
    and past int64. Entry (0, 0) of the product is 2*p*q."""
    left = _two_by_two([p, p, 1, 0], 7)
    right = _two_by_two([q, 1, q, 3], 2 ** 70 + 1)
    assert left.numerators.dtype == right.numerators.dtype == np.int64
    assert left.largest * right.largest * 2 == 2 * p * q
    product = left.matmul(right)
    assert product.numerators.dtype == dtype
    assert _fields(product) == _python_product(left, right)


def test_from_entries_sums_int64_past_the_bound():
    """Entries at one position are summed as Python ints when their sum
    could pass the bound, even when each one is int64."""
    m = SparseMatrix.from_entries(
        2, np.array([0, 0, 1, 0]), np.array([1, 1, 0, 1]),
        np.array([2 ** 62, 2 ** 62, 1, 2 ** 62], dtype=np.int64))
    assert m.numerators.tolist() == [3 * 2 ** 62, 1]
    assert m.numerators.dtype == object


def test_numerators_fit_int64_after_reduction():
    """Numerators past 2**62 that share a factor with the denominator are
    stored reduced, as int64."""
    m = _two_by_two([3 * 2 ** 61, 3, 0, 6], 9)
    assert m.numerators.dtype == np.int64
    assert m.numerators.tolist() == [2 ** 61, 1, 0, 2]
    assert m.denominator == 3 and m.largest == 2 ** 61
    assert m.get(0, 0) == Fraction(3 * 2 ** 61, 9)


def test_fold_crosses_the_int64_bound_and_matches_the_oracle():
    """Five events whose prime occurrence and effect denominators
    multiply to about 2**12 each: the fold's common denominator grows by
    12 or 13 bits per event, its first four products stay int64 and the
    fifth passes the bound; every row of every product still equals the
    oracle's."""
    primes = [(59, 61), (67, 71), (73, 79), (83, 89), (97, 101)]
    lines = [f"Variable x{k}" for k in range(len(primes))]
    lines.append("Action a if x0 effects <!x0 prob 1/53>")
    for k, (p, q) in enumerate(primes):
        lines.append(f"Event e{k} if x{k} occur prob 1/{p} "
                     f"effects <!x{k} prob {q - 1}/{q}>")
    init = ", ".join(f"x{k}" for k in range(len(primes)))
    model = parse_domain("\n".join(lines) + f"\nInit {{ {init} }}\n")
    space, after = _after(model, time_step=False)
    product, dtypes = SparseMatrix.identity(space.size), []
    for event in model.events:
        product = product.matmul(effective_event_matrix(event, space, after))
        dtypes.append(product.numerators.dtype)
    assert dtypes == [np.int64] * 4 + [object]
    mdp = compile_model(model)
    assert mdp.events == product
    _check_against_oracle(model, mdp)


def test_gcd_probe_sees_a_factor_a_later_numerator_lacks():
    """The first 16 numerators share the factor 2 with the denominator and
    the 17th does not: nothing divides them all, so they stay as given."""
    numerators = [2 * k for k in range(1, 17)] + [5, 7]
    m = _diagonal(numerators, 10)
    assert m.denominator == 10 and m.numerators.tolist() == numerators
    assert m.numerators.dtype == np.int64
    assert all(m.get(i, i) == Fraction(n, 10)
               for i, n in enumerate(numerators))


def test_gcd_probe_past_sixteen_stored_zeros():
    """The first 16 numerators are stored zeros, so the factor 3 that all
    numerators share with the denominator shows only past them; it is
    still divided out."""
    numerators = [0] * 16 + [3, 6, 12]
    m = _diagonal(numerators, 9)
    assert m.denominator == 3
    assert m.numerators.tolist() == [0] * 16 + [1, 2, 4]
    assert all(m.get(i, i) == Fraction(n, 9)
               for i, n in enumerate(numerators))


def _diagonal(numerators, denominator):
    n = len(numerators)
    return SparseMatrix(n, np.arange(n + 1), np.arange(n),
                        np.array(numerators, dtype=np.int64), denominator)


# ---------------------------------------------------------------------------
# SciPy's int64 kernel against the numpy product


def _spy_from_entries(monkeypatch) -> list:
    """One item per SparseMatrix.from_entries call from now on: the numpy
    product calls it once, SciPy's kernel never."""
    calls = []
    original = SparseMatrix.from_entries
    monkeypatch.setattr(SparseMatrix, "from_entries", staticmethod(
        lambda *args: calls.append(args[0]) or original(*args)))
    return calls


def _kernel_products(model, monkeypatch, terms):
    """Fields and their dtypes for the event fold and every X_a E,
    with compiler.SCIPY_TERMS set to `terms`; the number of products
    multiplied, those of the fold included; and how many of them the numpy
    path made."""
    mdp = compile_model(model)
    effective = _effective(model)
    monkeypatch.setattr(compiler, "SCIPY_TERMS", terms)
    calls = _spy_from_entries(monkeypatch)
    events = events_matrix(effective
                           or [SparseMatrix.identity(mdp.n_states)])
    products = [events] + [implicit_action_matrix(mdp.explicit[name], events)
                           for name in mdp.action_names]
    monkeypatch.undo()
    multiplied = max(len(effective) - 1, 0) + mdp.n_actions
    return ([_fields(m) + (m.indptr.dtype, m.indices.dtype,
                           m.numerators.dtype) for m in products],
            multiplied, len(calls))


@pytest.mark.parametrize("seed", range(3))
def test_scipy_and_numpy_products_agree_on_restaurants(monkeypatch, seed):
    """Every product of the 2-table deadline models, each forced through
    one kernel and then the other: the same fields and dtype."""
    model = parse_domain(restaurant_text(2, seed, within=3))
    scipy_products, multiplied, numpy_made = _kernel_products(
        model, monkeypatch, -1)
    numpy_products, _, made = _kernel_products(model, monkeypatch, 10 ** 9)
    assert numpy_made == 0 and made == multiplied
    assert scipy_products == numpy_products


def test_scipy_and_numpy_products_agree_on_random_models(monkeypatch):
    """30 random models, every product forced through each kernel."""
    through_scipy = 0
    for seed in range(30):
        model = oracles.random_model(random.Random(seed))
        scipy_products, multiplied, numpy_made = _kernel_products(
            model, monkeypatch, -1)
        numpy_products, _, _ = _kernel_products(model, monkeypatch, 10 ** 9)
        assert scipy_products == numpy_products, seed
        through_scipy += multiplied - numpy_made
    assert through_scipy > 0


def _terms(a, b) -> int:
    return int(np.diff(b.indptr)[a.indices].sum())


def test_product_above_the_threshold_keeps_a_stored_zero(monkeypatch):
    """Row 0 of the left factor holds one stored zero, the other rows are
    dense: SciPy would drop the zero entries of row 0 of the product, so
    the numpy path makes it, and they stay."""
    n = 100
    left = SparseMatrix(
        n, np.concatenate([[0], 1 + np.arange(n) * n]),
        np.concatenate([[0], np.tile(np.arange(n), n - 1)]),
        np.arange(n * (n - 1) + 1), 7)
    right = SparseMatrix.from_entries(  # row k: columns k and k + 1 mod n
        n, np.repeat(np.arange(n), 2),
        np.column_stack([np.arange(n), (np.arange(n) + 1) % n]).ravel(),
        np.ones(2 * n, dtype=np.int64), 3)
    assert _terms(left, right) > compiler.SCIPY_TERMS
    calls = _spy_from_entries(monkeypatch)
    product = left.matmul(right)
    assert len(calls) == 1
    assert product.row(0) == {0: 0, 1: 0}
    assert _fields(product) == _python_product(left, right)


@pytest.mark.parametrize("p, dtype, kernel", [(2 ** 27 - 1, np.int64, "scipy"),
                                              (2 ** 27, object, "numpy"),
                                              (2 ** 28, object, "numpy")])
def test_scipy_product_at_the_int64_bound(monkeypatch, p, dtype, kernel):
    """Every row of the left factor holds p in all 128 columns and every
    row of the right factor holds q = 2**28 in column 0: each entry of
    column 0 of the product is 128 * p * q, the bound itself, just below
    2**62, at it, and at 2**63, where SciPy's int64 sums would
    overflow."""
    n, q = 128, 2 ** 28
    left = SparseMatrix(n, np.arange(n + 1) * n, np.tile(np.arange(n), n),
                        np.full(n * n, p, dtype=np.int64), 5)
    right = SparseMatrix(n, np.arange(n + 1), np.zeros(n, dtype=np.int64),
                         np.full(n, q, dtype=np.int64), 11)
    assert _terms(left, right) > compiler.SCIPY_TERMS
    assert left.largest * right.largest * n == n * p * q
    calls = _spy_from_entries(monkeypatch)
    product = left.matmul(right)
    assert len(calls) == (kernel == "numpy")
    assert product.numerators.dtype == dtype
    assert _fields(product) == _python_product(left, right)


def test_single_steps_with_denominators_past_int64():
    """An action whose effect probabilities have denominators near 2**32
    (their lcm passes 2**63) and an event whose occurrence and effect
    denominators multiply past 2**62: the explicit and effective matrices
    are built over Python ints and match the oracle."""
    model = parse_domain("""
        Variable x
        Variable y
        Action a if x effects <!x prob 1/4294967291> <y prob 1/4294967279>
        Event e if y occur prob 1/4294967231 effects <!y prob 1/4294967197>
        Init { x, y }
    """)
    mdp = compile_model(model)
    assert mdp.explicit["a"].denominator > 2 ** 63
    assert mdp.events.denominator > 2 ** 63
    _check_against_oracle(model, mdp)


def test_zero_matrix_over_a_large_denominator():
    m = SparseMatrix(2, np.array([0, 1, 2]), np.array([0, 1]),
                     np.zeros(2, dtype=np.int64), 2 ** 70)
    assert m.numerators.tolist() == [0, 0] and m.denominator == 1


def _bits(values) -> list:
    return np.array(values, dtype=np.float64).view(np.int64).tolist()


@pytest.mark.parametrize("denominator", [
    2 ** 53 - 1, 2 ** 53, 2 ** 53 + 1, 3 * 2 ** 51 + 1, 2 ** 52 - 3])
def test_float_export_is_the_float_of_the_fraction(denominator):
    """Numerators and denominators just below, at and above 2**53, where
    the export switches from float division to Python int division."""
    rng = random.Random(denominator)
    numerators = [2 ** 53 - 1, 2 ** 53, 2 ** 53 + 1, -(2 ** 53 - 1),
                  -(2 ** 53 + 1), 1, 0, denominator - 1]
    numerators += [rng.randrange(-2 ** 54, 2 ** 54) for _ in range(200)]
    size = len(numerators)
    m = SparseMatrix(size, np.arange(size + 1), np.arange(size),
                     np.array(numerators, dtype=object), denominator)
    assert _bits(m.csr.data) == _bits(
        [float(Fraction(n, denominator)) for n in numerators])


def test_float_export_rounds_like_the_fraction_below_2_53():
    """On the float-division path every value is the correctly rounded
    quotient."""
    rng = random.Random(53)
    numerators = [rng.randrange(1, 2 ** 53) for _ in range(2000)]
    denominator = rng.randrange(2 ** 52, 2 ** 53) | 1
    m = SparseMatrix(len(numerators), np.arange(len(numerators) + 1),
                     np.arange(len(numerators)),
                     np.array(numerators, dtype=np.int64), denominator)
    assert m.denominator < 2 ** 53 and m.largest < 2 ** 53
    assert _bits(m.csr.data) == _bits(
        [float(Fraction(n, denominator)) for n in numerators])


@pytest.mark.parametrize("cost, reward, dtype", [
    (2 ** 62 - 8, 5, np.int64),
    (2 ** 63 + 1, 5, object),  # past int64 itself
    (1, 3 * 2 ** 61, object),  # the two rewards sum past int64
])
def test_reward_matrix_near_the_int64_bound(cost, reward, dtype):
    """The bound is the cost plus every requirement's reward. Both
    requirements pay on the step into x: from 2**62 the rewards are
    Python ints, and either way equal the oracle's exact sums."""
    model = parse_domain(f"""
        Variable x
        Variable y
        Action a if !x effects <x prob 1/2> cost {cost}
        Event e if x occur prob 1/3 effects <!x>
        ReqID m achieve x reward {reward}
        ReqID n achieve x reward {reward}
        Init {{ !x, y }}
    """)
    mdp = compile_model(model)
    assert mdp.rewards["a"].numerators.dtype == dtype
    _check_against_oracle(model, mdp)


def test_rows_are_exactly_stochastic(toy_mdp, restaurant_mdp):
    for mdp in (toy_mdp, restaurant_mdp):
        for name in mdp.action_names:
            for total in mdp.transitions[name].row_sums():
                assert total == 1


# ---------------------------------------------------------------------------
# Structural properties


def test_noop_is_first_action(toy_mdp):
    assert toy_mdp.action_names[0] == "noop"
    assert toy_mdp.actions[0].cost == 0
    assert toy_mdp.actions[0].branches == ()


def test_noop_only_moves_via_events(toy_model, toy_mdp):
    """Under noop from an event-free state, only statuses advance."""
    space = toy_mdp.space
    i = space.index_of({"x": "tt", "y": "tt", "m": "I"})
    assert dict(toy_mdp.transitions["noop"].row(i)) == {i: Fraction(1)}


def test_reserved_noop_name_rejected():
    model = parse_domain("""
        Variable x
        Action noop if x effects <!x>
        Init { x }
    """)
    message = "'noop' is a reserved action name"
    assert [(d.severity, d.message, d.line, d.col)
            for d in validate(model)] == [("error", message, 3, 16)]
    with pytest.raises(CompileError) as err:
        compile_model(model)
    assert str(err.value) == message


def test_gamma_range_enforced(toy_model):
    with pytest.raises(CompileError):
        compile_model(toy_model, gamma=Fraction(1))
    with pytest.raises(CompileError):
        compile_model(toy_model, gamma=Fraction(0))


@pytest.mark.parametrize("gamma, shown", [
    (Fraction("0.99999999999999999"), "1.0"), (Fraction("1e-400"), "0.0")])
def test_gamma_checked_as_the_solvers_float64(toy_model, gamma, shown):
    """VI's stopping threshold divides by float(gamma) and is 0 at 1.0."""
    with pytest.raises(CompileError) as err:
        compile_model(toy_model, gamma)
    assert str(err.value) == (f"discount factor {gamma} is {shown} as a "
                              "float64, outside (0,1)")


PROBABILITIES = parse_domain("""
    Variable x
    Action a if x effects <!x prob 1/2>
    Event e if !x occur prob 1/2 effects <x>
    Init { x }
""")


def _occurrence(p):
    event = PROBABILITIES.events[0]
    return replace(PROBABILITIES, events=(replace(event, branches=(replace(
        event.branches[0], occurrence_probability=Fraction(p)),)),))


def _effects(*ps):
    action = PROBABILITIES.actions[0]
    return replace(PROBABILITIES, actions=(replace(action, branches=(replace(
        action.branches[0], effects=tuple(
            Effect((("x", "ff"),), Fraction(p)) for p in ps)),)),))


@pytest.mark.parametrize("model, message", [
    (_occurrence(-1), "event 'e': occurrence probability -1 outside (0,1]"),
    (_occurrence(0), "event 'e': occurrence probability 0 outside (0,1]"),
    (_occurrence("3/2"), "event 'e': occurrence probability 3/2 outside "
                         "(0,1]"),
    (_effects(2, -1), "action 'a': effect probability 2 outside (0,1]"),
    (_effects(0), "action 'a': effect probability 0 outside (0,1]"),
    (_effects("3/5", "3/5"), "action 'a': effect probabilities sum to 6/5 > "
                             "1"),
], ids=["occur-1", "occur0", "occur3/2", "effects2,-1", "effect0",
        "sum6/5"])
def test_probabilities_of_models_built_in_code(model, message):
    """Each of these is a validation error, and so compile_model's, also
    in a model built in code, where a row such as {2, -1} still sums
    to 1."""
    assert message in [d.message for d in validate(model)
                       if d.severity == "error"]
    with pytest.raises(CompileError) as err:
        compile_model(model)
    assert str(err.value) == message


@pytest.mark.parametrize("kind, deadline, duration, message", [
    (ReqKind.DFA, 0, None, "deadline must be positive, not 0"),
    (ReqKind.DFA, None, None, "deadline missing for kind DFA"),
    (ReqKind.PM, None, 0, "duration must be positive, not 0"),
])
def test_requirement_counts_checked(kind, deadline, duration, message):
    """Counts validate rejects, and so compile_model, also in a model
    built in code."""
    model = parse_domain("""
        Variable x
        ReqID r achieve x within 2 if !x reward 1
        Init { x }
    """)
    broken = replace(model, requirements=(replace(
        model.requirements[0], kind=kind, deadline=deadline,
        duration=duration),))
    with pytest.raises(CompileError) as err:
        compile_model(broken)
    assert str(err.value) == f"requirement 'r': {message}"


def test_overlapping_preconditions_rejected():
    model = parse_domain("""
        Variable x
        Variable y
        Action a
            if x effects <!x>
            if y effects <!y>
        Init { x, y }
    """)
    with pytest.raises(CompileError) as err:
        compile_model(model)
    assert "a" in str(err.value)


def test_state_limit_enforced(restaurant_model):
    with pytest.raises(StateLimitError):
        compile_model(restaurant_model, limit=47)
    assert compile_model(restaurant_model, limit=48).n_states == 48


def test_each_update_is_called_once_per_key(monkeypatch, restaurant_text):
    """Compiling calls the action and the event update once per
    requirement, status and truth combination, not once per matrix
    (restaurant.obd builds five action and four event matrices)."""
    for text in (restaurant_text, RESIDUAL_EVENT):
        calls = {"action": 0, "event": 0}

        def counting(auto, status, truths, time_step):
            calls["action" if time_step else "event"] += 1
            return advance(auto, status, truths, time_step)
        monkeypatch.setattr(compiler, "advance", counting)
        mdp = compile_model(parse_domain(text))
        keys = sum(len(auto.statuses)
                   * len(compiler._truth_codes(auto, mdp.space)[1])
                   for auto in mdp.automata)
        assert calls == {"action": keys, "event": keys}


def test_compiling_evaluates_no_formula_on_a_state(monkeypatch, toy_model,
                                                  restaurant_model):
    """The status tables take each requirement's formulas as the truth
    bits of their masks, so a formula that shares its subformulas
    (2**40 paths through 42 nodes) compiles without eval_formula, which
    would walk every path."""
    shared = Atom("x", "tt")
    for _ in range(40):
        shared = And(shared, shared)
    base = parse_domain("Variable x\nAction a if x effects <!x>\n"
                        "ReqID r achieve x within 2 if !x reward 1\n"
                        "Init { x }\n")
    deep = replace(base, requirements=(replace(
        base.requirements[0], required=And(Atom("x", "tt"), shared)),))

    def no_eval(*args):
        raise AssertionError("compile_model called eval_formula")

    monkeypatch.setattr(reqauto, "eval_formula", no_eval)
    monkeypatch.setattr(dsl, "eval_formula", no_eval)
    for model in (toy_model, restaurant_model, deep):
        compile_model(model)


def test_state_count_formula():
    """7 ternary-ish variables and counters multiply out exactly."""
    text_vars = "\n".join(
        f"Variable v{i} domain {{a,b,c}}" for i in range(4))
    init = ", ".join(f"v{i}=a" for i in range(4))
    model = parse_domain(f"""
        {text_vars}
        Variable w
        Action go if w effects <!w>
        ReqID m achieve v0=b within 3 if v1=b reward 1
        Init {{ {init}, w }}
    """)
    automata = tuple(build_automaton(r) for r in model.requirements)
    space = enumerate_states(model, automata)
    # 3^4 base combinations, 2 for w, 4 statuses (I, A(3..1))
    assert space.size == 81 * 2 * 4


def test_compile_is_deterministic(toy_model):
    a = compile_model(toy_model)
    b = compile_model(toy_model)
    assert dump_mdp(a) == dump_mdp(b)


def test_commutation_warning_on_restaurant(restaurant_mdp):
    assert any("commute" in w.message for w in restaurant_mdp.warnings)


def test_commuting_events_order_invariant():
    """Two events on disjoint variables commute: declaration order must
    not change the compiled matrices."""
    head = """
        Variable x
        Variable y
        Action flip if x & y effects <!x !y>
    """
    e1 = "Event e1 if x occur prob 0.5 effects <!x>\n"
    e2 = "Event e2 if y occur prob 0.25 effects <!y>\n"
    tail = "Init { x, y }\n"
    m12 = compile_model(parse_domain(head + e1 + e2 + tail))
    m21 = compile_model(parse_domain(head + e2 + e1 + tail))
    assert not m12.warnings and not m21.warnings
    for name in m12.action_names:
        assert m12.transitions[name] == m21.transitions[name]
        assert m12.rewards[name] == m21.rewards[name]


def test_commutation_check_covers_every_pair():
    """Six events make 15 pairs; the one pair that does not commute,
    (e4, e5), is the last. The warning points at the name of e5."""
    lines = [f"Variable x{k}" for k in range(4)] + [
        "Variable z",
        "Action a if x0 effects <!x0>"]
    lines += [f"Event e{k} if x{k} occur prob 1/2 effects <!x{k}>"
              for k in range(4)]
    lines += ["Event e4 if z occur prob 1/2 effects <!z>",
              "Event e5 if !z occur prob 1/3 effects <z>",
              "Init { x0, x1, x2, x3, z }"]
    mdp = compile_model(parse_domain("\n".join(lines) + "\n"))
    assert [(w.message, w.line, w.col) for w in mdp.warnings] == [
        ("events 'e4' and 'e5' do not commute; using declaration order",
         12, 7)]


def _effective(model):
    space, after = _after(model, time_step=False)
    return [effective_event_matrix(ev, space, after) for ev in model.events]


def _oracle_warnings(model, effective) -> list:
    """(message, line, col) of the warning for every pair whose exact
    products differ, in the compiler's order."""
    events = model.events
    return [(f"events '{events[i].name}' and '{events[j].name}' do not "
             "commute; using declaration order", events[j].line, events[j].col)
            for i, j in oracles.noncommuting_pairs(effective)]


def _warnings(mdp) -> list:
    return [(w.message, w.line, w.col) for w in mdp.warnings]


def _commutation_models():
    for name in ("toy", "restaurant"):
        yield name, (ROOT / "models" / f"{name}.obd").read_text()
    for tables in (1, 2):
        for seed in range(3):
            for within in (None, 3):
                yield (f"{tables}t-seed{seed}-within{within}",
                       restaurant_text(tables, seed, within=within))


@pytest.mark.parametrize("text", [t for _, t in _commutation_models()],
                         ids=[n for n, _ in _commutation_models()])
def test_commutation_warnings_equal_the_exact_oracle(text):
    model = parse_domain(text)
    assert _warnings(compile_model(model)) == \
        _oracle_warnings(model, _effective(model))


def test_commutation_warnings_equal_the_oracle_on_random_models():
    """50 random models with two or more events."""
    checked, seed = 0, 0
    while checked < 50:
        seed += 1
        model = oracles.random_model(random.Random(5000 + seed))
        if len(model.events) < 2:
            continue
        assert _warnings(compile_model(model)) == \
            _oracle_warnings(model, _effective(model)), seed
        checked += 1


def _spy_dtypes(monkeypatch) -> list:
    """The dtypes that compiler._dtype returns from now on."""
    dtypes = []
    dtype = compiler._dtype
    monkeypatch.setattr(compiler, "_dtype", lambda bound:
                        dtypes.append(dtype(bound)) or dtypes[-1])
    return dtypes


def test_commutation_check_sees_one_numerator_unit(monkeypatch):
    """Phat_a = I + D_a / d and Phat_b = I + D_b / d with D_a = E_01 + M T
    and D_b = E_11 + M T, T = E_01 - E_11: D_a D_b - D_b D_a = E_01, so the
    products differ in one entry by one unit of their denominator d**2.
    With d just below 2**20 the check stays int64: every row of the
    numerators d I + D_a and d I + D_b sums to at most d + M + 1, so the
    values of N_a N_b R stay below (d + M + 1)**2 2**20, about 2**61.5."""
    d, big = 2 ** 20 - 3, 700_001
    shared = np.zeros((3, 3), dtype=np.int64)
    shared[0, 1], shared[1, 1] = big, -big  # M T
    steps = []
    for own in ((0, 1), (1, 1)):
        numerators = d * np.eye(3, dtype=np.int64) + shared
        numerators[own] += 1
        rows, cols = np.nonzero(numerators)
        steps.append(SparseMatrix.from_entries(3, rows, cols,
                                               numerators[rows, cols], d))
    a, b = steps
    ab, ba = a.matmul(b), b.matmul(a)
    assert {(i, j): ab.get(i, j) - ba.get(i, j) for i in range(3)
            for j in range(3) if ab.get(i, j) != ba.get(i, j)} == \
        {(0, 1): Fraction(1, d * d)}
    events = [EventDesc("a", (), 1, 7), EventDesc("b", (), 2, 7)]
    assert oracles.noncommuting_pairs([a, b]) == [(0, 1)]
    dtypes = _spy_dtypes(monkeypatch)
    assert [(w.message, w.line, w.col)
            for w in compiler._check_commutation(events, [a, b])] == [
        ("events 'a' and 'b' do not commute; using declaration order", 2, 7)]
    assert dtypes == [np.int64]


# event denominators near 10**12: the fingerprint's bound passes int64
LARGE_DENOMINATORS = """
    Variable x0
    Variable x1
    Variable x2
    Action a if x0 effects <!x0 prob 1/2>
    Event e0 if x0 occur prob 1/1000003 effects <!x0 prob 1000032/1000033>
    Event e1 if !x0 occur prob 1/1000037 effects <x0 prob 1000038/1000039>
    Event e2 if x1 occur prob 1/999983 effects <!x1 prob 999978/999979>
    Event e3 if x1 & !x2 occur prob 1/999961 effects <x2 prob 1/999959>
    Init { x0, x1, x2 }
"""


def test_commutation_check_past_int64_matches_the_oracle(monkeypatch):
    """Past the bound the fingerprint is computed over Python ints and
    flags the same pairs as the exact products."""
    model = parse_domain(LARGE_DENOMINATORS)
    effective = _effective(model)
    pairs = oracles.noncommuting_pairs(effective)
    assert pairs and len(pairs) < 6  # some pairs commute, some do not
    dtypes = _spy_dtypes(monkeypatch)
    warnings = compiler._check_commutation(model.events, effective)
    assert dtypes == [object]
    assert [(w.message, w.line, w.col) for w in warnings] == \
        _oracle_warnings(model, effective)


def test_commutation_check_holds_a_few_products_per_event():
    """The check keeps N_e R for every event and one pair's two products,
    each states x _FINGERPRINT_VECTORS int64 values: at 3 tables (12
    events, 20,480 states) its tracemalloc peak stays below twice what
    the N_e R take."""
    model = parse_domain(restaurant_text(3, 0))
    effective = _effective(model)
    bound = 2 * len(effective) * effective[0].size \
        * compiler._FINGERPRINT_VECTORS * 8
    tracemalloc.start()
    try:
        warnings = compiler._check_commutation(model.events, effective)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(warnings) == 33
    assert peak < bound


def test_zero_reward_requirement_does_not_change_dynamics():
    """Adding a reward-0 unconditional requirement leaves the base
    transition probabilities untouched (marginalized over statuses)."""
    base_text = """
        Variable x
        Action a if !x effects <x prob 0.8>
        Event e if x occur prob 0.3 effects <!x>
        Init { !x }
    """
    with_req = base_text.replace(
        "Init", "ReqID m achieve x reward 0\nInit")
    plain = compile_model(parse_domain(base_text))
    extended = compile_model(parse_domain(with_req))
    assert extended.n_states == plain.n_states  # UA adds a single status
    for name in plain.action_names:
        assert plain.transitions[name] == extended.transitions[name]


# ---------------------------------------------------------------------------
# Serialization round trip


def test_mdp_round_trip(toy_mdp):
    text = dump_mdp(toy_mdp)
    loaded = load_mdp(text)
    assert loaded.n_states == toy_mdp.n_states
    assert loaded.action_names == toy_mdp.action_names
    assert loaded.initial_index == toy_mdp.initial_index
    assert float(loaded.gamma) == float(toy_mdp.gamma)
    for name in toy_mdp.action_names:
        orig_t = toy_mdp.transitions[name]
        got_t = loaded.transitions[name]
        for i in range(toy_mdp.n_states):
            assert {j: float(v) for j, v in orig_t.row(i).items()} == \
                {j: float(v) for j, v in got_t.row(i).items()}
    assert dump_mdp(loaded) == text


def test_load_mdp_rejects_garbage():
    with pytest.raises(CompileError):
        load_mdp("not a model\n")


def _load_error(lines) -> str:
    with pytest.raises(CompileError) as err:
        load_mdp("\n".join(lines) + "\n")
    return str(err.value)


def _replace_first(lines, prefix, line):
    k = next(k for k, text in enumerate(lines) if text.startswith(prefix))
    return lines[:k] + [line] + lines[k + 1:]


def test_load_mdp_rejects_truncated_document(toy_mdp):
    assert _load_error(dump_mdp(toy_mdp).splitlines()[:12]) == \
        "line 13: expected 'state' line, got end of input"


def test_load_mdp_checks_the_state_limit_before_any_state_line(toy_mdp):
    lines = dump_mdp(toy_mdp).splitlines()
    with pytest.raises(StateLimitError, match="^state space has 8 states, "
                       "exceeding the limit of 7$"):
        load_mdp("\n".join(lines[:3]) + "\n", limit=7)
    assert load_mdp(dump_mdp(toy_mdp), limit=8).n_states == 8


def test_load_mdp_rejects_missing_end(toy_mdp):
    lines = dump_mdp(toy_mdp).splitlines()
    assert "missing 'end' line" in _load_error(lines[:-1])


def test_load_mdp_rejects_wrong_action_count(toy_mdp):
    lines = _replace_first(dump_mdp(toy_mdp).splitlines(), "actions ",
                           "actions 4")
    assert "expected 4 actions, found 3" in _load_error(lines)


def test_load_mdp_rejects_transition_index_out_of_range(toy_mdp):
    lines = dump_mdp(toy_mdp).splitlines()
    k = lines.index("action noop 0") + 1
    lines[k] = "t 8 0 1.0"
    assert _load_error(lines) == f"line {k + 1}: 8 is not below 8"


def test_load_mdp_rejects_reward_index_out_of_range(toy_mdp):
    lines = _replace_first(dump_mdp(toy_mdp).splitlines(), "r ",
                           "r 0 -1 0.0")
    assert "-1 is below 0" in _load_error(lines)


def test_load_mdp_rejects_triple_before_action(toy_mdp):
    lines = dump_mdp(toy_mdp).splitlines()
    k = lines.index("action noop 0")
    del lines[k]
    assert _load_error(lines) == \
        f"line {k + 1}: 't' line before any 'action' line"


def test_load_mdp_rejects_a_row_not_summing_to_one(toy_mdp):
    """Each transition row is summed where it is read, in column order,
    and one more than ROW_SUM_TOL away from 1 is named at its first `t`
    line."""
    lines = dump_mdp(toy_mdp).splitlines()
    b = lines.index("action b 5")
    k = lines.index("t 6 7 0.8", b)
    first = lines.index("t 6 2 0.16", b)
    for value, total in (("0.3", 0.5), ("0.800000002", 1.000000002)):
        lines[k] = f"t 6 7 {value}"
        assert _load_error(lines) == (f"line {first + 1}: action 'b': "
                                      f"transition row 6 sums to {total}")
    lines[k] = "t 6 7 0.8000000009"  # 1 + 9e-10: the floats of a row
    load_mdp("\n".join(lines) + "\n")


def test_load_mdp_names_the_action_line_of_a_row_without_t_lines(toy_mdp):
    """A row with no `t` line sums to 0; of every such row the first
    action's is named, at its `action` line."""
    lines = [line for line in dump_mdp(toy_mdp).splitlines()
             if not line.startswith("t 6 ")]
    assert _load_error(lines) == (
        f"line {lines.index('action noop 0') + 1}: action 'noop': "
        "transition row 6 sums to 0.0")


def test_load_mdp_rejects_negative_probability(toy_mdp):
    """The solver factors I - gamma*P without pivoting, which is safe
    only for non-negative rows; a row summing to 1 is not enough."""
    lines = dump_mdp(toy_mdp).splitlines()
    k = lines.index("t 6 7 0.8")
    lines[k:k + 1] = ["t 6 6 1.6", "t 6 7 -0.8"]  # row 6 still sums to 1
    assert _load_error(lines) == \
        f"line {k + 2}: negative probability: '-0.8'"
    lines[k:k + 2] = ["t 6 6 0.8", "t 6 7 -0.0"]
    load_mdp("\n".join(lines) + "\n")
