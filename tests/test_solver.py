"""Value iteration, policy iteration, policy serialization."""

import dataclasses
import json
import random
import re
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse import csgraph

from obd import solver
from obd.compiler import CompileError, compile_model, dump_mdp, load_mdp
from obd.dsl import (
    ActionBranch,
    ActionDesc,
    And,
    Atom,
    Effect,
    Not,
    parse_domain,
)
from obd.solver import (
    SolverError,
    component_order,
    dump_policy,
    evaluate_policy,
    greedy_policy,
    load_policy,
    policy_iteration,
    policy_to_json,
    value_iteration,
)

import oracles

sys.path.insert(0, str(Path(__file__).parent.parent / "bench"))

from models import restaurant_text  # noqa: E402


def _tiny(text, gamma=Fraction(9, 10)):
    return compile_model(parse_domain(text), gamma=gamma)


# ---------------------------------------------------------------------------
# Analytic checks


def test_geometric_series_single_state():
    """Self-loop paying 1 per tick at gamma 0.9 is worth exactly 10."""
    mdp = _tiny("""
        Variable x domain {v}
        ReqID g maintain x=v reward 1
        Init { x=v }
    """)
    vi = value_iteration(mdp)
    pi = policy_iteration(mdp)
    assert vi.values[0] == pytest.approx(10.0, abs=1e-4)
    assert pi.values[0] == pytest.approx(10.0, abs=1e-9)


def test_zero_rewards_mean_zero_values_and_noop(toy_model):
    stripped = toy_model.requirements[0]
    model = type(toy_model)(
        toy_model.variables, toy_model.actions, toy_model.events,
        (type(stripped)(stripped.name, stripped.kind, stripped.required,
                        stripped.activation, stripped.cancellation,
                        stripped.deadline, stripped.duration, 0),),
        toy_model.initial_state)
    # keep costs: every non-noop action has a strictly negative payoff,
    # so noop (free) is optimal everywhere and all values are zero
    mdp = compile_model(model)
    strategy = policy_iteration(mdp)
    assert np.allclose(strategy.values, 0.0, atol=1e-9)
    assert all(mdp.action_names[a] == "noop" for a in strategy.actions)


def test_constant_reward_shift():
    """A reward earned on every transition of every action adds the same
    geometric constant to every state value."""
    base = """
        Variable x
        Action a if !x effects <x prob 0.5>
        Init { !x }
    """
    bonus = base.replace("Init", "ReqID g maintain true reward 2\nInit")
    v0 = policy_iteration(_tiny(base)).values
    v1 = policy_iteration(_tiny(bonus)).values
    shift = 2.0 / (1.0 - 0.9)
    assert np.allclose(v1 - v0, shift, atol=1e-8)


# ---------------------------------------------------------------------------
# VI and PI agree


def _assert_agreement(mdp, atol=1e-5):
    vi = value_iteration(mdp)
    pi = policy_iteration(mdp)
    assert np.max(np.abs(vi.values - pi.values)) < atol
    assert np.array_equal(vi.actions, pi.actions)
    return vi, pi


def test_agreement_toy(toy_mdp):
    vi, pi = _assert_agreement(toy_mdp)
    assert vi.method == "value-iteration"
    assert pi.method == "policy-iteration"


def test_agreement_restaurant(restaurant_mdp):
    _assert_agreement(restaurant_mdp)


def test_infinite_epsilon_rejected(toy_mdp):
    """An infinite threshold would stop VI after its first sweep."""
    with pytest.raises(SolverError, match="^epsilon must be finite$"):
        value_iteration(toy_mdp, float("inf"))


def test_epsilon_whose_threshold_underflows_is_rejected(toy_mdp):
    """epsilon*(1-gamma)/(2*gamma) is 0.0 for the smallest subnormal
    epsilon: no residual is below it, so VI would never stop. 1e-300
    leaves a threshold above 0 and still solves."""
    with pytest.raises(SolverError, match="^epsilon 5e-324 is too small: "
                       r"the stopping threshold .* underflows to 0$"):
        value_iteration(toy_mdp, 5e-324)
    tight = value_iteration(toy_mdp, 1e-300)
    assert tight.residual < 1e-300
    assert list(tight.actions) == list(value_iteration(toy_mdp).actions)


@pytest.mark.parametrize("seed", range(15))
def test_agreement_random_models(seed):
    model = oracles.random_model(random.Random(2000 + seed))
    _assert_agreement(compile_model(model))


# ---------------------------------------------------------------------------
# Optimality against exhaustive enumeration (tiny models)


def _small_models():
    texts = [
        """
        Variable x
        Action a if !x effects <x prob 0.7>
        Action b if x effects <!x>
        ReqID m achieve x if !x reward 10
        Init { !x }
        """,
        """
        Variable x
        Action a if !x effects <x prob 0.5> cost 2
        Event e if x occur prob 0.4 effects <!x>
        ReqID m maintain x reward 3
        Init { !x }
        """,
        """
        Variable s domain {a,b,c,d}
        Action right
            if s=a effects <s=b prob 0.9>
            if s=b effects <s=c prob 0.9>
            if s=c effects <s=d prob 0.9>
        Action reset if s=d || s=c effects <s=a> cost 1
        ReqID m achieve s=d reward 20
        Init { s=a }
        """,
    ]
    return [_tiny(t) for t in texts]


def test_optimal_against_exhaustive_enumeration():
    for mdp in _small_models():
        assert mdp.n_states <= 4
        assert mdp.n_actions <= 3
        best = oracles.exhaustive_optimal_values(mdp)
        for strategy in (value_iteration(mdp), policy_iteration(mdp)):
            assert np.max(np.abs(strategy.values - best)) < 1e-5, \
                strategy.method


def test_policy_evaluation_is_linear_solve(toy_mdp):
    strategy = policy_iteration(toy_mdp)
    values = evaluate_policy(toy_mdp, strategy.actions)
    n = toy_mdp.n_states
    gamma = float(toy_mdp.gamma)
    p = np.zeros((n, n))
    r = np.zeros(n)
    for s in range(n):
        name = toy_mdp.action_names[strategy.actions[s]]
        row = toy_mdp.transitions[name].row(s)
        for j, prob in row.items():
            p[s, j] = float(prob)
            r[s] += float(prob) * float(
                toy_mdp.rewards[name].get(s, j))
    direct = np.linalg.solve(np.eye(n) - gamma * p, r)
    assert np.allclose(values, direct, atol=1e-9)


# ---------------------------------------------------------------------------
# Policy evaluation against a reference solve


@pytest.fixture(scope="module")
def two_tables():
    """1,024 states, above PRODUCT_TERMS: the factored path."""
    return compile_model(parse_domain(restaurant_text(2, 0)))


def _policy_rows(mdp, policy):
    """P_pi and r_pi from the multiplied-out matrices."""
    n = mdp.n_states
    rows = np.asarray(policy) * n + np.arange(n)
    p = sp.vstack([mdp.transition_csr(a) for a in mdp.action_names],
                  format="csr")[rows]
    r = sp.vstack([mdp.reward_csr(a) for a in mdp.action_names],
                  format="csr")[rows]
    return p, np.asarray(p.multiply(r).sum(axis=1)).ravel()


def _reference_values(mdp, policy):
    p, r = _policy_rows(mdp, policy)
    system = sp.identity(mdp.n_states) - float(mdp.gamma) * p
    if mdp.n_states <= 64:
        return np.linalg.solve(system.toarray(), r)
    return spla.spsolve(system.tocsc(), r)


def _evaluation_models(toy_model, restaurant_model):
    """Compiled afresh: a model keeps the Bellman operator its first solve
    builds, so a shared one would answer with the path PRODUCT_TERMS chose
    in whichever test solved it first."""
    yield "toy", compile_model(toy_model)
    yield "restaurant", compile_model(restaurant_model)
    yield "2 tables", compile_model(parse_domain(restaurant_text(2, 0)))
    for seed in range(15):  # the models of test_agreement_random_models
        model = oracles.random_model(random.Random(2000 + seed))
        yield f"random {2000 + seed}", compile_model(model)


def _kept(mdp, bellman=None):
    """Whether the solver keeps each action's row of each state, shape
    (n_actions, n): the actions that `source` names, noop always."""
    bellman = bellman or solver._Bellman(mdp)
    kept = np.zeros((mdp.n_actions, mdp.n_states), dtype=bool)
    kept[bellman.source, bellman.states] = True
    return kept


def _dropped_policy(mdp):
    """In every state, the lowest action whose row the solver drops as
    dominated by noop's row, else noop."""
    dropped = ~_kept(mdp)[1:]
    return np.where(dropped.any(axis=0), 1 + np.argmax(dropped, axis=0), 0)


@pytest.mark.parametrize("factored", [True, False],
                         ids=["factors", "products"])
def test_evaluation_matches_reference_solve(toy_model, restaurant_model,
                                            monkeypatch, factored):
    # evaluate through the factors always, or the exact products always
    monkeypatch.setattr(solver, "PRODUCT_TERMS", -1 if factored else 10 ** 9)
    rng = np.random.default_rng(7)
    for name, mdp in _evaluation_models(toy_model, restaurant_model):
        policies = [rng.integers(0, mdp.n_actions, mdp.n_states)
                    for _ in range(5)]
        for policy in policies + [_dropped_policy(mdp)]:
            reference = _reference_values(mdp, policy)
            values = evaluate_policy(mdp, policy)
            tol = 1e-12 * max(1.0, np.abs(reference).max())
            assert np.abs(values - reference).max() <= tol, name


# ---------------------------------------------------------------------------
# Dropping the rows noop dominates changes no result


class _FullGrid:
    """The Bellman operator over every stacked row a*n + s, none dropped,
    its Q-values taken as one product of the full stack: the reference
    that every solve must reproduce bit for bit. Its expected rewards are
    its own, taken over the full stack too. Policy evaluation is the
    solver's own, reading each row from this full stack: action a's rows
    are layer a."""

    evaluate = solver._Bellman.evaluate

    def __init__(self, mdp):
        if solver._factored(mdp):
            self.events = mdp.events.csr
            self.matrix = sp.vstack([mdp.explicit[a].csr
                                     for a in mdp.action_names], format="csr")
            # -c_a + sum_k r_k g_k(s) (X_a E h_k)(s), every row at once
            self.expected = -np.repeat([float(a.cost) for a in mdp.actions],
                                       mdp.n_states)
            if mdp.reward_factors:
                after = np.column_stack([f.after
                                         for f in mdp.reward_factors])
                before = np.column_stack([float(f.reward) * f.before
                                          for f in mdp.reward_factors])
                reached = self.matrix @ (self.events
                                         @ after.astype(np.float64))
                self.expected += np.einsum(
                    "ik,ik->i", reached, np.tile(before, (mdp.n_actions, 1)))
        else:
            self.events = None
            self.matrix = sp.vstack([mdp.transition_csr(a)
                                     for a in mdp.action_names], format="csr")
            rewards = sp.vstack([mdp.reward_csr(a)
                                 for a in mdp.action_names], format="csr")
            self.expected = np.asarray(
                self.matrix.multiply(rewards).sum(axis=1)).ravel()
        self.n = mdp.n_states
        self.gamma = float(mdp.gamma)
        self.states = np.arange(self.n)
        self.expected = self.expected.reshape(-1, self.n)

    def q_values(self, values):
        if self.events is not None:
            values = self.events @ values
        return self.gamma * (self.matrix @ values).reshape(-1, self.n) \
            + self.expected


def _full_grid_vi(mdp, epsilon=solver.DEFAULT_EPSILON):
    grid = _FullGrid(mdp)
    threshold = epsilon * (1.0 - grid.gamma) / (2.0 * grid.gamma)
    values = np.zeros(mdp.n_states)
    residuals = [np.inf]
    while residuals[-1] >= threshold:
        new_values = grid.q_values(values).max(axis=0)
        residuals.append(float(abs(new_values - values).max()))
        values = new_values
    return np.argmax(grid.q_values(values), axis=0), values, residuals[1:]


def _full_grid_pi(mdp, myopic=True):
    """Policy iteration over the full grid. It starts where
    policy_iteration does, at its own improvement of all-noop at V = 0,
    or at all-noop itself when `myopic` is false."""
    grid = _FullGrid(mdp)

    def improve(policy, values):
        q = grid.q_values(values)
        best = q.max(axis=0)
        tie = solver.TIE_RELATIVE_TOL * max(1.0, float(abs(best).max()))
        tied = q >= best - tie
        return np.where(tied[policy, grid.states], policy,
                        np.argmax(tied, axis=0))

    policy = np.zeros(mdp.n_states, dtype=np.int64)
    if myopic:
        policy = improve(policy, np.zeros(mdp.n_states))
    changes = []
    for _ in range(50):
        values, _ = grid.evaluate(policy, grid.expected[policy, grid.states])
        improved = improve(policy, values)
        changes.append(int((improved != policy).sum()))
        if np.array_equal(improved, policy):
            return policy, values, changes
        policy = improved
    raise AssertionError("reference policy iteration did not stop")


def _assert_as_full_grid(mdp):
    vi = value_iteration(mdp)
    actions, values, residuals = _full_grid_vi(mdp)
    assert np.array_equal(vi.actions, actions)
    assert vi.values.tobytes() == values.tobytes()
    assert vi.residuals == tuple(residuals)
    assert (vi.iterations, vi.residual) == (len(residuals), residuals[-1])
    pi = policy_iteration(mdp)
    actions, values, changes = _full_grid_pi(mdp)
    assert np.array_equal(pi.actions, actions)
    assert pi.values.tobytes() == values.tobytes()
    assert pi.changes == tuple(changes)
    # greedy on values where every action ties, and on both solutions
    for values in (np.zeros(mdp.n_states), vi.values, pi.values):
        greedy = greedy_policy(mdp, values)
        q = _FullGrid(mdp).q_values(values)
        assert greedy.actions.tobytes() == np.argmax(q, axis=0).tobytes()
        assert greedy.values.tobytes() == q.max(axis=0).tobytes()
    return vi


@pytest.mark.parametrize("factored", [True, False],
                         ids=["factors", "products"])
def test_solves_match_the_full_grid(toy_model, restaurant_model,
                                    monkeypatch, factored):
    # sweep the factors always, or the exact products always
    monkeypatch.setattr(solver, "PRODUCT_TERMS", -1 if factored else 10 ** 9)
    deadline = compile_model(parse_domain(restaurant_text(2, 0, within=3)))
    for name, mdp in [*_evaluation_models(toy_model, restaurant_model),
                      ("2 tables within 3", deadline)]:
        bellman = solver._Bellman(mdp)
        assert (bellman.events is not None) == factored
        if mdp.n_states >= 1024:  # most rows are dropped there
            assert bellman.matrix.shape[0] < mdp.n_actions * mdp.n_states / 2
        _assert_as_full_grid(mdp)


# ---------------------------------------------------------------------------
# Every product goes through SciPy's own kernel, as @ does


def _operators(toy_model, restaurant_model, factored):
    """Every model of _evaluation_models, then each read back from
    obdmdp/1, with the Bellman operator of the path `factored` names (the
    models read back have only the products)."""
    models = list(_evaluation_models(toy_model, restaurant_model))
    for name, mdp in models + [(f"{name} read back", load_mdp(dump_mdp(mdp)))
                               for name, mdp in models]:
        bellman = solver._Bellman(mdp)
        assert (bellman.events is not None) == \
            (factored and "read back" not in name)
        yield name, mdp, bellman


@pytest.mark.parametrize("factored", [True, False],
                         ids=["factors", "products"])
def test_the_product_is_scipys_to_the_bit(toy_model, restaurant_model,
                                          monkeypatch, factored):
    """The layers' Q-values, into buffers that hold nan before the call,
    are gamma * (matrix @ (events @ v)) + slot_expected bit for bit, for
    VI's values and for a random v."""
    monkeypatch.setattr(solver, "PRODUCT_TERMS", -1 if factored else 10 ** 9)
    rng = np.random.default_rng(11)
    for name, mdp, bellman in _operators(toy_model, restaurant_model,
                                         factored):
        for matrix in (bellman.matrix, bellman.events):
            if matrix is not None:
                assert matrix.indptr.dtype == matrix.indices.dtype, name
        for v in (value_iteration(mdp).values,
                  rng.uniform(-1e3, 1e3, mdp.n_states)):
            moved, slots = bellman.buffers()
            moved.fill(np.nan)
            slots.fill(np.nan)
            reached = v if bellman.events is None else bellman.events @ v
            want = bellman.gamma * (bellman.matrix @ reached) \
                + bellman.slot_expected
            got = bellman.layers(v, moved, slots)
            assert got.base is slots, name
            assert got.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("factored", [True, False],
                         ids=["factors", "products"])
def test_value_iteration_twice_gives_equal_strategies(toy_model,
                                                      restaurant_model,
                                                      monkeypatch, factored):
    """Two value iterations on one model, with a greedy step and policy
    iteration between them, return equal Strategies field by field, each
    the full grid's solve, and the second leaves the first unchanged."""
    monkeypatch.setattr(solver, "PRODUCT_TERMS", -1 if factored else 10 ** 9)
    for name, mdp, _ in _operators(toy_model, restaurant_model, factored):
        first = value_iteration(mdp)
        kept = dataclasses.replace(first, actions=first.actions.copy(),
                                   values=first.values.copy())
        greedy_policy(mdp, first.values)
        policy_iteration(mdp)
        second = value_iteration(mdp)
        actions, values, residuals = _full_grid_vi(mdp)
        for strategy in (first, kept, second):
            assert strategy.actions.tobytes() == actions.tobytes(), name
            assert strategy.values.tobytes() == values.tobytes(), name
            assert strategy.residuals == tuple(residuals), name
            assert dataclasses.astuple(dataclasses.replace(
                strategy, actions=None, values=None)) == \
                dataclasses.astuple(dataclasses.replace(
                    second, actions=None, values=None)), name


def _noop_start_models(toy_model, restaurant_model):
    yield "toy", compile_model(toy_model)
    yield "restaurant", compile_model(restaurant_model)
    for s in range(3):
        yield f"2 tables, seed {s}", compile_model(
            parse_domain(restaurant_text(2, s)))
    for seed in range(8000, 8320):
        yield f"random {seed}", compile_model(
            oracles.random_model(random.Random(seed)))


def test_the_myopic_start_solves_as_the_noop_start(toy_model,
                                                   restaurant_model):
    """policy_iteration starts at the myopic policy. Against policy
    iteration from all-noop, each action is one of the best under the
    tie slack and the values agree; on restaurant.obd and the 2-table
    models the myopic policy is all-noop's first improvement, so PI
    takes one evaluation fewer and changes what the rest changed."""
    skips_one = {"restaurant"} | {f"2 tables, seed {s}" for s in range(3)}
    for name, mdp in _noop_start_models(toy_model, restaurant_model):
        pi = policy_iteration(mdp)
        actions, values, changes = _full_grid_pi(mdp, myopic=False)
        scale = max(1.0, float(abs(values).max()))
        assert abs(pi.values - values).max() <= 1e-9 * scale, name
        q = _FullGrid(mdp).q_values(pi.values)
        slack = 1e-9 * max(1.0, float(abs(q).max()))
        for chosen in (pi.actions, actions):
            assert np.all(q[chosen, np.arange(mdp.n_states)]
                          >= q.max(axis=0) - slack), name
        if name in skips_one:
            assert pi.iterations == len(changes) - 1, name
            assert pi.changes == tuple(changes[1:]), name


def test_one_evaluation_holds_p_pi_and_its_system_once():
    """Policy evaluation frees each array of P_pi once the system's copy
    of it is taken: at 3 tables (20,480 states, the optimal policy's P_pi
    of 647,792 entries) its tracemalloc peak was 29.9 bytes per entry of
    P_pi, and the bound is 20% above that. Assembling the system from
    appended copies of P_pi's arrays peaked at 46.3. SuperLU's own
    allocations are not traced."""
    mdp = compile_model(parse_domain(restaurant_text(3, 0)))
    policy = value_iteration(mdp).actions
    n = mdp.n_states
    entries = (sp.vstack([mdp.explicit[a].csr for a in mdp.action_names])
               [policy * n + np.arange(n)] @ mdp.events.csr).nnz
    evaluate_policy(mdp, policy)  # SciPy's first-call set-up untraced
    tracemalloc.start()
    try:
        evaluate_policy(mdp, policy)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 36 * entries


def _rows(matrix, rows):
    """The CSR arrays of rows `rows` of `matrix`, in that order."""
    taken = matrix[rows]
    return taken.indptr.tolist(), taken.indices.tolist(), taken.data.tobytes()


@pytest.mark.parametrize("factored", [True, False],
                         ids=["factors", "products"])
def test_every_stacked_row_reads_its_slot(toy_model, restaurant_model,
                                          monkeypatch, factored):
    """Each kept row sits in the layer of its rank among its state's kept
    rows, noop's being layer 0, and holds that row's entries; a dropped
    row equals noop's row, with an expected reward no higher, and reads
    noop's slot; every slot that no row claims repeats noop's row with
    noop's expected reward."""
    monkeypatch.setattr(solver, "PRODUCT_TERMS", -1 if factored else 10 ** 9)
    for name, mdp in _evaluation_models(toy_model, restaurant_model):
        bellman, grid = solver._Bellman(mdp), _FullGrid(mdp)
        n, stacked = mdp.n_states, np.arange(mdp.n_actions * mdp.n_states)
        assert bellman.expected.tobytes() == grid.expected.tobytes(), name
        kept = _kept(mdp, bellman)
        layers = np.cumsum(kept, axis=0) - 1
        assert bellman.depth == layers[-1].max()
        # the action of each slot: noop (0) where no kept row claims it
        source = np.zeros((bellman.depth + 1, n), dtype=np.int64)
        actions, states = kept.nonzero()
        source[layers[actions, states], states] = actions
        assert np.array_equal(bellman.source, source), name
        assert bellman.matrix.shape[0] == (bellman.depth + 1) * n
        # the slot that policy evaluation reads for each action and state
        slot = np.array([(bellman.source == a).argmax(axis=0) * n
                         + np.arange(n) for a in range(mdp.n_actions)])
        assert np.array_equal(slot, np.where(
            kept, layers * n + np.arange(n), np.arange(n))), name
        dropped = np.flatnonzero(~kept)
        assert _rows(grid.matrix, dropped) == _rows(grid.matrix,
                                                    dropped % n), name
        assert np.all(grid.expected.ravel()[dropped]
                      <= grid.expected[0, dropped % n]), name
        assert _rows(bellman.matrix, slot.ravel()) == _rows(
            grid.matrix, np.where(kept.ravel(), stacked, stacked % n)), name
        claiming = np.flatnonzero(kept)  # the stacked rows with a slot
        unclaimed = np.setdiff1d(np.arange(bellman.matrix.shape[0]),
                                 slot.ravel())
        assert unclaimed.size == bellman.matrix.shape[0] - claiming.size
        assert _rows(bellman.matrix, unclaimed) == _rows(grid.matrix,
                                                         unclaimed % n), name
        assert bellman.slot_expected[slot.ravel()[claiming]].tobytes() \
            == grid.expected.ravel()[claiming].tobytes()
        assert bellman.slot_expected[unclaimed].tobytes() == \
            grid.expected[0, unclaimed % n].tobytes()


def _with_actions(text, **costs):
    """The model of `text` with one more action per name in `costs` that
    never fires, built in code so that its cost may be negative."""
    model = parse_domain(text)
    never = tuple(ActionDesc(name, (ActionBranch(
        And(Atom("x", "tt"), Not(Atom("x", "tt"))),
        (Effect((("x", "ff"),), Fraction(1)),)),), cost)
        for name, cost in costs.items())
    return compile_model(dataclasses.replace(
        model, actions=model.actions + never))


_ONE_SWITCH = """
    Variable x
    Action on if !x effects <x prob 1/2> cost 2
    Event off if x occur prob 1/3 effects <!x>
    ReqID g maintain x reward 1
    Init { !x }
"""


def _kept_rows(mdp, action):
    """The states whose row of `action` the solver keeps."""
    return np.flatnonzero(_kept(mdp)[mdp.action_names.index(action)])


@pytest.mark.parametrize("factored", [True, False],
                         ids=["factors", "products"])
def test_an_action_equal_to_noop_that_pays_is_kept(monkeypatch, factored):
    monkeypatch.setattr(solver, "PRODUCT_TERMS", -1 if factored else 10 ** 9)
    mdp = _with_actions(_ONE_SWITCH, bonus=-1)
    assert list(_kept_rows(mdp, "bonus")) == list(range(mdp.n_states))
    vi = _assert_as_full_grid(mdp)
    assert mdp.action_names.index("bonus") in vi.actions


@pytest.mark.parametrize("factored", [True, False],
                         ids=["factors", "products"])
def test_a_free_action_equal_to_noop_is_dropped(monkeypatch, factored):
    monkeypatch.setattr(solver, "PRODUCT_TERMS", -1 if factored else 10 ** 9)
    mdp = _with_actions(_ONE_SWITCH, idle=0)
    assert _kept_rows(mdp, "idle").size == 0
    vi = _assert_as_full_grid(mdp)
    # noop, index 0, wins the tie wherever idle is as good
    assert "idle" not in {mdp.action_names[a] for a in vi.actions}
    assert "noop" in {mdp.action_names[a] for a in vi.actions}


@pytest.mark.parametrize("factored", [True, False],
                         ids=["factors", "products"])
def test_a_model_with_every_other_row_dropped_has_one_layer(monkeypatch,
                                                            factored):
    """Two free actions that never fire: every row but noop's is dropped,
    so the sweep reads noop's layer alone."""
    monkeypatch.setattr(solver, "PRODUCT_TERMS", -1 if factored else 10 ** 9)
    mdp = _with_actions(_ONE_SWITCH.replace(
        "Action on if !x effects <x prob 1/2> cost 2", ""), idle=0, wait=0)
    assert mdp.action_names == ("noop", "idle", "wait")
    bellman = solver._Bellman(mdp)
    assert bellman.depth == 0
    assert bellman.matrix.shape[0] == mdp.n_states
    vi = _assert_as_full_grid(mdp)
    assert not vi.actions.any()  # noop everywhere


@pytest.mark.parametrize("factored", [True, False],
                         ids=["factors", "products"])
def test_a_state_keeping_every_row_fills_every_layer(monkeypatch, factored):
    """bonus never fires but pays, so every state keeps its row; where x
    is off, `on` is kept too: that state keeps the row of every action."""
    monkeypatch.setattr(solver, "PRODUCT_TERMS", -1 if factored else 10 ** 9)
    mdp = _with_actions(_ONE_SWITCH, bonus=-1)
    bellman = solver._Bellman(mdp)
    assert bellman.depth == mdp.n_actions - 1 == 2
    assert bellman.matrix.shape[0] == mdp.n_actions * mdp.n_states
    off = mdp.space.index_of({"x": "ff", "g": "-"})
    assert bellman.source[:, off].tolist() == [0, 1, 2]
    _assert_as_full_grid(mdp)


@pytest.mark.parametrize("factored", [True, False],
                         ids=["factors", "products"])
def test_the_first_of_two_equal_actions_wins_every_tie(monkeypatch,
                                                       factored):
    """`a` and `b` fire alike and cost nothing, so their Q-values tie in
    every state; VI, greedy and PI pick `a`, the lower index, and `b`
    holds the layer above `a`'s."""
    monkeypatch.setattr(solver, "PRODUCT_TERMS", -1 if factored else 10 ** 9)
    switch = "Action a if !x effects <x prob 1/2>"
    mdp = _tiny(_ONE_SWITCH.replace(
        "Action on if !x effects <x prob 1/2> cost 2",
        switch + "\n" + switch.replace("Action a", "Action b")))
    assert mdp.action_names == ("noop", "a", "b")
    bellman = solver._Bellman(mdp)
    assert bellman.depth == 2
    q = _FullGrid(mdp).q_values(np.ones(mdp.n_states))
    assert q[1].tobytes() == q[2].tobytes()
    vi = _assert_as_full_grid(mdp)
    for strategy in (vi, greedy_policy(mdp, vi.values),
                     policy_iteration(mdp)):
        assert 2 not in strategy.actions
        assert 1 in strategy.actions


_COSTLY_NEVER = """
    Variable x
    Action a if !x effects <x prob 999999/1000000>
    Action b if !x effects <x>
    Action pricey if false effects <!x> cost 1000000000
    Event off if x occur prob 1/2 effects <!x>
    ReqID g maintain x reward 1
    Init { !x }
"""


@pytest.mark.parametrize("factored", [True, False],
                         ids=["factors", "products"])
def test_an_action_that_never_fires_leaves_the_tie_slack_alone(monkeypatch,
                                                               factored):
    """pricey never fires, so its rows are dropped, and its Q-values lie
    near -1e9. The tie slack scales with the best Q-values, about 5, not
    with pricey's: `a` falls short of `b` by about 2e-6, far outside it,
    so policy iteration picks `b` where x is off, as value iteration
    does. A slack of 1e-12 * 1e9 made `a` tie `b` and win as the lower
    index."""
    monkeypatch.setattr(solver, "PRODUCT_TERMS", -1 if factored else 10 ** 9)
    mdp = _tiny(_COSTLY_NEVER)
    assert mdp.action_names == ("noop", "a", "b", "pricey")
    assert _kept_rows(mdp, "pricey").size == 0
    vi = _assert_as_full_grid(mdp)
    pi = policy_iteration(mdp)
    assert pi.actions.tobytes() == vi.actions.tobytes()
    off = [s for s in range(mdp.n_states)
           if mdp.space.state(s)["x"] == "ff"]
    assert [mdp.action_names[a] for a in pi.actions[off]] == ["b"] * len(off)


_TWINS = """
    Variable x
    Action a if !x effects <x>
    Action b if !x effects <x>
    Event off if x occur prob 1/2 effects <!x>
    ReqID g maintain x reward 1
    Init { !x }
"""


@pytest.mark.parametrize("factored", [True, False],
                         ids=["factors", "products"])
def test_improvement_keeps_a_tied_incumbent(monkeypatch, factored):
    """a and b have equal rows and rewards where x is off, so at the
    optimal values their Q-values are equal there and above noop's. With
    b's layer as the incumbent the improvement step keeps b; with no
    incumbent it takes a, the lower index."""
    monkeypatch.setattr(solver, "PRODUCT_TERMS", -1 if factored else 10 ** 9)
    mdp = _tiny(_TWINS)
    assert mdp.action_names == ("noop", "a", "b")
    bellman = solver._Bellman(mdp)
    off = np.array([s for s in range(mdp.n_states)
                    if mdp.space.state(s)["x"] == "ff"])
    assert list(_kept_rows(mdp, "a")) == list(_kept_rows(mdp, "b")) \
        == list(off)
    # b's layer where b is kept, noop's layer 0 elsewhere
    incumbent = (bellman.source == 2).argmax(axis=0)
    assert np.all(incumbent[off] > 0)
    values = value_iteration(mdp).values
    q = bellman.layers(values, *bellman.buffers())
    assert np.all(q[incumbent[off], off] > q[0, off])
    kept, kept_best = bellman.improve(values, bellman.buffers(),
                                      incumbent=incumbent)
    first, best = bellman.improve(values, bellman.buffers())
    assert np.array_equal(kept, incumbent)
    assert bellman.source[kept[off], off].tolist() == [2] * off.size
    assert bellman.source[first[off], off].tolist() == [1] * off.size
    assert kept_best.tobytes() == best.tobytes()
    assert greedy_policy(mdp, values).actions[off].tolist() == [1] * off.size


def test_a_loaded_row_equal_to_noop_that_pays_more_is_kept():
    """In obdmdp/1 the rewards of an action are its own: a P row equal to
    noop's with an R row that pays more keeps the row."""
    mdp = _with_actions(_ONE_SWITCH, idle=0)
    text = dump_mdp(mdp)
    idle = text.index("action idle 0\n")
    head, tail = text[:idle], text[idle:]
    assert "r 1 1 0.0\n" in tail  # x off: noop and idle pay 0
    loaded = load_mdp(head + tail.replace("r 1 1 0.0\n", "r 1 1 0.5\n"))
    assert list(_kept_rows(loaded, "idle")) == [1]
    vi = _assert_as_full_grid(loaded)
    assert loaded.action_names[vi.actions[1]] in ("idle", "on")


def test_a_loaded_model_without_its_zero_rewards_matches_the_full_grid(
        toy_mdp):
    """obdmdp/1 may leave out the `r` lines of zero rewards. R_a then has
    fewer entries than P_a, and the expected rewards are taken over the
    two patterns as SciPy's multiply takes them."""
    text = "".join(line for line in dump_mdp(toy_mdp).splitlines(True)
                   if not (line.startswith("r ") and line.endswith(" 0.0\n")))
    loaded = load_mdp(text)
    assert loaded.rewards["noop"].nnz() < loaded.transitions["noop"].nnz()
    _assert_as_full_grid(loaded)


def test_expected_rewards_skip_zero_products_as_scipy_does():
    """SciPy's multiply drops the zero products before sum(axis=1) adds a
    row pairwise, so where a row has more than eight of them the zeros
    change the rounding. Here they do: the reward row of state 0 below
    sums to another float with its zeros kept."""
    rewards = [0.0, 44900.0, 0.0, 79900.0, 0.0799, 0.0, 6000.0, 32.0, 14.6,
               0.0, 52.0, 50.7, 29.1, 50.6, 96.7, 0.0236]
    products = 0.0625 * np.array(rewards)
    assert products.sum() != products[products != 0].sum()
    lines = ["obdmdp/1", "gamma 0.9", "states 16", "actions 1", "initial 0"]
    lines += [f"state {s} " + " ".join(
        f"{v}={'ff' if s >> (3 - k) & 1 else 'tt'}"
        for k, v in enumerate("abcd")) for s in range(16)]
    lines.append("action noop 0")
    lines += [f"t 0 {j} 0.0625" for j in range(16)]
    lines += [f"t {s} {s} 1.0" for s in range(1, 16)]
    lines += [f"r 0 {j} {r!r}" for j, r in enumerate(rewards)]
    lines += [f"r {s} {s} 0.0" for s in range(1, 16)]
    loaded = load_mdp("\n".join(lines + ["end"]) + "\n")
    assert solver._Bellman(loaded).expected.tobytes() == \
        _FullGrid(loaded).expected.tobytes()
    _assert_as_full_grid(loaded)


@pytest.mark.parametrize("which", ["noop", "value-iteration"])
def test_component_order_leaves_p_block_triangular(two_tables, monkeypatch,
                                                   which):
    """The order that evaluate factors in keeps every strongly connected
    component of P_pi contiguous and puts no entry below the diagonal
    blocks. A SciPy that numbered its components otherwise would leave
    the values right but the factorization slow; this test catches it."""
    mdp = two_tables
    policy = (np.zeros(mdp.n_states, dtype=np.int64) if which == "noop"
              else value_iteration(mdp).actions)
    used = []

    def recorded(p):
        used.append(component_order(p))
        return used[-1]

    monkeypatch.setattr(solver, "component_order", recorded)
    evaluate_policy(mdp, policy)
    [(order, sizes)] = used
    p, _ = _policy_rows(mdp, policy)
    _, labels = csgraph.connected_components(p, connection="strong")
    assert sorted(sizes) == sorted(np.bincount(labels))
    runs = labels[order]
    first = np.r_[True, runs[1:] != runs[:-1]]
    assert np.count_nonzero(first) == labels.max() + 1  # contiguous
    block = np.empty(mdp.n_states, dtype=np.int64)
    block[order] = np.cumsum(first)
    entries = p.tocoo()
    assert labels.max() > 100  # many components: the order matters
    assert np.all(block[entries.row] <= block[entries.col])


@pytest.mark.parametrize("policy, message", [
    (np.full(8, -1), "policy: action -1 of state 0 outside 0..2"),
    (np.r_[np.zeros(5, dtype=np.int64), 3, 0, 0],
     "policy: action 3 of state 5 outside 0..2"),
    (np.zeros(7, dtype=np.int64), "policy has shape (7,), not (8,)"),
    (np.zeros((8, 1), dtype=np.int64), "policy has shape (8, 1), not (8,)"),
    (np.zeros(8), "policy must hold integer action indices, not float64"),
    (np.zeros(8, dtype=bool),
     "policy must hold integer action indices, not bool"),
], ids=["negative", "too-large", "short", "column", "float", "bool"])
def test_evaluate_policy_rejects_bad_policy(toy_mdp, policy, message):
    with pytest.raises(SolverError, match=f"^{re.escape(message)}$"):
        evaluate_policy(toy_mdp, policy)


def test_evaluate_policy_accepts_any_integer_vector(toy_mdp):
    policy = policy_iteration(toy_mdp).actions
    values = evaluate_policy(toy_mdp, policy)
    for same in (policy.tolist(), policy.astype(np.uint8),
                 policy.astype(np.int32)):
        assert np.array_equal(evaluate_policy(toy_mdp, same), values)


@pytest.mark.parametrize("values, message", [
    (np.zeros(3), "values has shape (3,), not (48,)"),
    (np.zeros((48, 2)), "values has shape (48, 2), not (48,)"),
    (np.full(48, "0"), "values must hold real numbers, not <U1"),
    (np.zeros(48, dtype=complex),
     "values must hold real numbers, not complex128"),
    (np.zeros(48, dtype=bool), "values must hold real numbers, not bool"),
    (np.r_[np.zeros(5), np.nan, np.zeros(42)],
     "values: nan of state 5 is not finite"),
    (np.r_[np.zeros(47), -np.inf], "values: -inf of state 47 is not finite"),
], ids=["short", "column", "string", "complex", "bool", "nan", "inf"])
def test_greedy_policy_rejects_bad_values(restaurant_mdp, values, message):
    with pytest.raises(SolverError, match=f"^{re.escape(message)}$"):
        greedy_policy(restaurant_mdp, values)


def test_greedy_policy_reads_integer_and_strided_values(restaurant_mdp):
    """Either gives the result of its float64 copy."""
    n = restaurant_mdp.n_states
    optimal = value_iteration(restaurant_mdp).values
    strided = np.zeros(2 * n)[::2]
    strided[:] = optimal
    for values in (np.round(optimal).astype(np.int64), strided,
                   np.zeros(2 * n)[::2]):
        want = greedy_policy(restaurant_mdp, values.astype(np.float64))
        got = greedy_policy(restaurant_mdp, values)
        assert got.actions.tobytes() == want.actions.tobytes()
        assert got.values.tobytes() == want.values.tobytes()


def test_greedy_policy_reproduces_optimal(toy_mdp):
    strategy = value_iteration(toy_mdp)
    greedy = greedy_policy(toy_mdp, strategy.values)
    assert np.array_equal(greedy.actions, strategy.actions)


def test_value_iteration_residual_threshold(toy_mdp):
    eps = 1e-6
    strategy = value_iteration(toy_mdp, eps)
    gamma = float(toy_mdp.gamma)
    assert strategy.residual < eps * (1 - gamma) / (2 * gamma)
    assert strategy.iterations > 1


@pytest.mark.parametrize("model", ["toy", "restaurant", "2 tables"])
def test_solvers_record_how_they_converged(model, toy_mdp, restaurant_mdp,
                                           two_tables):
    """VI keeps the residual of every sweep, the last being the one it
    stopped on, each above the stopping threshold but that last; PI keeps
    how many actions each improvement changed, 0 at the last, and the
    strong components of each evaluation's P_pi."""
    mdp = {"toy": toy_mdp, "restaurant": restaurant_mdp,
           "2 tables": two_tables}[model]
    vi = value_iteration(mdp)
    assert len(vi.residuals) == vi.iterations > 1
    assert vi.residuals[-1] == vi.residual
    gamma = float(mdp.gamma)
    threshold = solver.DEFAULT_EPSILON * (1 - gamma) / (2 * gamma)
    assert min(vi.residuals[:-1]) >= threshold > vi.residual
    pi = policy_iteration(mdp)
    assert len(pi.changes) == pi.iterations
    assert pi.changes[-1] == 0 and min(pi.changes[:-1], default=1) > 0
    assert all(isinstance(k, int) for k in pi.changes)
    # each evaluation's strong components of P_pi: (count, largest)
    assert len(pi.components) == pi.iterations
    _, labels = csgraph.connected_components(
        _policy_rows(mdp, pi.actions)[0], connection="strong")
    sizes = np.bincount(labels)
    assert pi.components[-1] == (sizes.size, sizes.max())
    assert all(isinstance(k, int) for pair in pi.components for k in pair)
    assert vi.components == ()
    for other in (greedy_policy(mdp, vi.values),
                  load_policy(dump_policy(pi, mdp), mdp)):
        assert other.residuals == other.changes == other.components == ()


def test_reward_scaling_preserves_argmax(toy_model):
    """Multiplying the single requirement reward by 10 rescales values but
    cannot change which action is greedy (costs are zero here)."""
    free = tuple(
        type(a)(a.name, a.branches, 0) for a in toy_model.actions)
    req = toy_model.requirements[0]
    def with_reward(r):
        model = type(toy_model)(
            toy_model.variables, free, toy_model.events,
            (type(req)(req.name, req.kind, req.required, req.activation,
                       req.cancellation, req.deadline, req.duration, r),),
            toy_model.initial_state)
        return policy_iteration(compile_model(model))
    small = with_reward(10)
    large = with_reward(100)
    assert np.array_equal(small.actions, large.actions)
    assert np.allclose(large.values, 10 * small.values, atol=1e-6)


# ---------------------------------------------------------------------------
# Serialization


def test_policy_round_trip(toy_mdp):
    strategy = policy_iteration(toy_mdp)
    text = dump_policy(strategy, toy_mdp)
    assert text.startswith("obdpolicy/1\n")
    loaded = load_policy(text, toy_mdp)
    assert np.array_equal(loaded.actions, strategy.actions)
    assert np.allclose(loaded.values, strategy.values)
    assert dump_policy(loaded, toy_mdp) == text


def test_policy_json_mirror(toy_mdp):
    strategy = policy_iteration(toy_mdp)
    doc = json.loads(policy_to_json(strategy, toy_mdp))
    assert len(doc["states"]) == toy_mdp.n_states
    first = doc["states"][0]
    assert set(first) >= {"index", "action", "value"}
    assert first["action"] in toy_mdp.action_names


def test_load_policy_rejects_garbage(toy_mdp):
    with pytest.raises(SolverError):
        load_policy("bogus\n", toy_mdp)


def _policy_lines(mdp):
    return dump_policy(policy_iteration(mdp), mdp).splitlines()


@pytest.mark.parametrize("line, message", [
    ("3 b", "line 5: expected '<state> <action> <value>', got: '3 b'"),
    ("3 b 1.0 x", "line 5: expected '<state> <action> <value>'"),
    ("three b 1.0", "line 5: not a state index: 'three'"),
    ("8 b 1.0", "line 5: state 8 outside 0..7"),
    ("-1 b 1.0", "line 5: state -1 outside 0..7"),
    ("2 b 1.0", "line 5: second line for state 2"),
    ("3 fly 1.0", "line 5: unknown action 'fly'"),
    ("3 b nan", "line 5: not a finite number: 'nan'"),
    ("3 b inf", "line 5: not a finite number: 'inf'"),
    ("3 b lots", "line 5: not a finite number: 'lots'"),
])
def test_load_policy_rejects_bad_line(toy_mdp, line, message):
    lines = _policy_lines(toy_mdp)
    assert lines[4].startswith("3 ")
    lines[4] = line
    with pytest.raises(SolverError, match=f"^{re.escape(message)}"):
        load_policy("\n".join(lines) + "\n", toy_mdp)


def test_load_policy_rejects_missing_states(toy_mdp):
    lines = _policy_lines(toy_mdp)[:2]
    with pytest.raises(SolverError, match=re.escape(
            "line 3: end of input with 7 of 8 states missing, the first "
            "being state 1")):
        load_policy("\n".join(lines) + "\n", toy_mdp)


def test_load_policy_accepts_any_line_order(toy_mdp):
    lines = _policy_lines(toy_mdp)
    text = "\n".join(lines[:1] + lines[:0:-1]) + "\n"
    assert dump_policy(load_policy(text, toy_mdp), toy_mdp) == \
        "\n".join(lines) + "\n"


@pytest.mark.parametrize("solve", [
    value_iteration,
    policy_iteration,
    lambda mdp: greedy_policy(mdp, np.zeros(mdp.n_states)),
    lambda mdp: evaluate_policy(mdp, np.zeros(mdp.n_states, dtype=np.int64)),
], ids=["value", "policy", "greedy", "evaluate"])
def test_every_entry_point_checks_row_sums(toy_mdp, solve):
    """The row sums are checked once, where the file is read: a row not
    summing to 1 stops at load_mdp, at its first `t` line, before any
    entry point sees the model; the intact file solves."""
    lines = dump_mdp(toy_mdp).splitlines()
    noop = lines.index("action noop 0")
    first = lines.index("t 6 2 0.16", noop) + 1
    text = "\n".join(lines) + "\n"
    with pytest.raises(CompileError, match=re.escape(
            f"line {first}: action 'noop': transition row 6 sums to 0.5")):
        solve(load_mdp(text.replace("t 6 7 0.8\n", "t 6 7 0.3\n")))
    solve(load_mdp(text))


def test_one_operator_serves_every_solve(toy_model, monkeypatch):
    """Every entry point reads the operator the first one built: it is
    constructed once per model."""
    monkeypatch.setattr(solver, "PRODUCT_TERMS", -1)  # sweep the factors
    calls = []

    class Counted(solver._Bellman):
        def __init__(self, mdp):
            calls.append(mdp)
            super().__init__(mdp)

    monkeypatch.setattr(solver, "_Bellman", Counted)
    mdp = compile_model(toy_model)
    strategy = value_iteration(mdp)
    policy_iteration(mdp)
    greedy_policy(mdp, strategy.values)
    evaluate_policy(mdp, strategy.actions)
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# Policy iteration stops when evaluation is wrong


def _wrong_evaluation(monkeypatch, values_of):
    """Replace policy evaluation by `values_of(call, exact values)`; more
    than 50 calls fail the test instead of looping on."""
    exact = solver._Bellman.evaluate
    calls = []

    def evaluate(bellman, layer, rewards):
        calls.append(layer.copy())
        assert len(calls) <= 50, "policy iteration did not stop"
        values, components = exact(bellman, layer, rewards)
        return values_of(len(calls), values), components

    monkeypatch.setattr(solver._Bellman, "evaluate", evaluate)
    return calls


def test_policy_iteration_rejects_decreasing_values(monkeypatch,
                                                   restaurant_mdp):
    calls = _wrong_evaluation(monkeypatch,
                              lambda call, values: values - 1e6 * call)
    with pytest.raises(SolverError, match="values decreased at iteration 2"):
        policy_iteration(restaurant_mdp)
    assert len(calls) == 2


def test_policy_iteration_rejects_a_repeated_policy(monkeypatch,
                                                    restaurant_mdp):
    """Values that rise on every call but alternate between two shapes
    send the greedy step back and forth between two policies."""
    rng = np.random.default_rng(7)
    shapes = 1e3 * rng.random((2, restaurant_mdp.n_states))
    calls = _wrong_evaluation(
        monkeypatch, lambda call, _: shapes[call % 2] + 1e4 * call)
    with pytest.raises(SolverError, match="returned to an earlier policy"):
        policy_iteration(restaurant_mdp)
    assert len(calls) == 3
    assert not np.array_equal(calls[1], calls[2])


def _symmetric_text(scale: int) -> str:
    """Five interchangeable switches, any of them on paying the reward:
    every action that turns one on ties with the others in exact
    arithmetic, and their float Q-values differ by rounding."""
    lines = [f"Variable y{i}" for i in range(5)]
    lines += [f"Action a{i} if !y{i} effects <y{i} prob 1/3> cost {scale}"
              for i in range(5)]
    lines += [f"Event e{i} if y{i} occur prob 2/7 effects <!y{i} prob 5/9>"
              for i in range(5)]
    lines.append("ReqID m maintain " + " || ".join(
        f"y{i}" for i in range(5)) + f" reward {7 * scale}")
    lines.append("Init { " + ", ".join(f"!y{i}" for i in range(5)) + " }")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("scale", [10 ** 3, 10 ** 9, 10 ** 15])
def test_policy_iteration_tie_rule_scales_with_values(scale):
    """Scaling every reward and cost scales the rounding of tied Q-values
    past any absolute slack; PI still ends with the unscaled policy in
    the same number of iterations."""
    small = policy_iteration(_tiny(_symmetric_text(1)))
    large = policy_iteration(_tiny(_symmetric_text(scale)))
    assert np.array_equal(large.actions, small.actions)
    assert large.iterations == small.iterations
    assert np.allclose(large.values, scale * small.values, rtol=1e-12)
