"""Simulator, planner, controllers, metrics."""

import functools
import gc
import json
import math
import random
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

import oracles
from obd import sim
from obd.compiler import compile_model, dump_mdp, load_mdp
from obd.cli import main
from obd.dsl import Atom, Or, parse_domain
from obd.sim import (
    BLOCK,
    Draws,
    Metrics,
    RandomController,
    ReflexController,
    ReplanningController,
    SimulationError,
    metrics_csv,
    plan,
    run,
    step,
)
from obd.solver import value_iteration

ROOT = Path(__file__).parent.parent
MODELS = ROOT / "models"
sys.path.insert(0, str(ROOT / "bench"))

from models import restaurant_text  # noqa: E402


# ---------------------------------------------------------------------------
# Single steps


def test_step_reward_matches_reward_matrix(toy_mdp):
    rng = np.random.default_rng(7)
    for _ in range(500):
        i = int(rng.integers(toy_mdp.n_states))
        name = toy_mdp.action_names[int(rng.integers(toy_mdp.n_actions))]
        j, earned, _ = step(toy_mdp, i, name, rng)
        assert toy_mdp.transitions[name].get(i, j) > 0
        assert earned == float(toy_mdp.rewards[name].get(i, j))


def test_step_satisfied_names(toy_mdp):
    """From {!x,!y,m=R} action a satisfies m exactly when x flips on."""
    space = toy_mdp.space
    i = space.index_of({"x": "ff", "y": "ff", "m": "R"})
    rng = np.random.default_rng(0)
    seen_satisfied = False
    for _ in range(200):
        j, _, satisfied = step(toy_mdp, i, "a", rng)
        became_x = space.state(j)["x"] == "tt"
        assert (satisfied == ("m",)) == became_x
        seen_satisfied = seen_satisfied or became_x
    assert seen_satisfied


def test_step_is_reproducible(toy_mdp):
    def trace(seed):
        rng = np.random.default_rng(seed)
        state = toy_mdp.initial_index
        out = []
        for _ in range(50):
            state, earned, _ = step(toy_mdp, state, "a" if
                                    toy_mdp.space.state(state)["x"] == "ff"
                                    else "b", rng)
            out.append((state, earned))
        return out
    assert trace(42) == trace(42)
    assert trace(42) != trace(43)


def test_step_unknown_action(toy_mdp):
    with pytest.raises(SimulationError):
        step(toy_mdp, 0, "warp", np.random.default_rng(0))


@pytest.mark.parametrize("offset", [-1, 0, 5])
def test_step_rejects_a_state_index_out_of_range(toy_mdp, offset):
    index = offset if offset < 0 else toy_mdp.n_states + offset
    with pytest.raises(SimulationError, match=r"outside 0\.\.7"):
        step(toy_mdp, index, "noop", np.random.default_rng(0))


def test_loaded_mdp_cannot_simulate(toy_mdp):
    loaded = load_mdp(dump_mdp(toy_mdp))
    with pytest.raises(SimulationError):
        step(loaded, 0, "noop", np.random.default_rng(0))


def test_empirical_frequencies_match_compiled_row(toy_mdp):
    """1e5 sampled steps of a fixed (state, action) stay within three
    standard errors of every compiled successor probability."""
    space = toy_mdp.space
    i = space.index_of({"x": "ff", "y": "ff", "m": "R"})
    n = 100_000
    rng = np.random.default_rng(123)
    counts = {}
    for _ in range(n):
        j, _, _ = step(toy_mdp, i, "a", rng)
        counts[j] = counts.get(j, 0) + 1
    row = toy_mdp.transitions["a"].row(i)
    assert set(counts) <= set(row)
    for j, p in row.items():
        p = float(p)
        se = math.sqrt(p * (1 - p) / n)
        assert abs(counts.get(j, 0) / n - p) <= 3 * se, (j, p)


# ---------------------------------------------------------------------------
# Step tables against the straight-line tick


def _compare_ticks(mdps, ticks: int, seed: int = 0):
    """`step` and `oracles.oracle_step` on one random action sequence per
    model, the models taking turns a tick each: equal results, and equal
    generator states after every tick. Every 100th tick starts from a
    random state, to reach more of the space."""
    choosers = [random.Random(seed) for _ in mdps]
    rngs = [np.random.default_rng(seed) for _ in mdps]
    oracle_rngs = [np.random.default_rng(seed) for _ in mdps]
    states = [mdp.initial_index for mdp in mdps]
    for tick in range(ticks):
        for k, mdp in enumerate(mdps):
            if tick % 100 == 99:
                states[k] = choosers[k].randrange(mdp.n_states)
            action = choosers[k].choice(mdp.action_names)
            got = step(mdp, states[k], action, rngs[k])
            want = oracles.oracle_step(mdp, states[k], action, oracle_rngs[k])
            assert got == want, (k, tick, states[k], action)
            assert rngs[k].bit_generator.state == \
                oracle_rngs[k].bit_generator.state, (k, tick)
            states[k] = got[0]


def test_step_matches_oracle_on_shipped_models(toy_mdp, restaurant_mdp):
    _compare_ticks([toy_mdp], 2_000, seed=1)
    _compare_ticks([restaurant_mdp], 5_000, seed=2)


@pytest.mark.parametrize("within", [None, 3])
def test_step_matches_oracle_at_two_tables(within):
    mdp = compile_model(parse_domain(restaurant_text(2, 0, within=within)))
    _compare_ticks([mdp], 3_000, seed=3)


def test_step_matches_oracle_on_random_models():
    for seed in range(30):
        mdp = compile_model(oracles.random_model(random.Random(7000 + seed)))
        _compare_ticks([mdp], 500, seed=seed)


def _compare_replans(mdps, ticks: int, seed: int = 0):
    """`ReplanningController` and `oracles.OracleReplanningController` on
    each model, the models taking turns a tick each: the same action on
    every tick and the same plan failures after it."""
    controllers = [(ReplanningController(mdp),
                    oracles.OracleReplanningController(mdp)) for mdp in mdps]
    rngs = [Draws(seed) for _ in mdps]
    states = [mdp.initial_index for mdp in mdps]
    for tick in range(ticks):
        for k, mdp in enumerate(mdps):
            got, want = controllers[k]
            action = got.choose(states[k], rngs[k])
            assert action == want.choose(states[k], None), (k, tick)
            next_index = step(mdp, states[k], action, rngs[k])[0]
            for controller in (got, want):
                controller.observe(states[k], action, next_index)
            assert got.plan_failures == want.plan_failures, (k, tick)
            states[k] = next_index


def test_step_tables_never_mix_models():
    """Two models with the same states, actions and events but other
    probabilities, and a third with other goals, ticked in turns with the
    same draws."""
    texts = [restaurant_text(2, 0), restaurant_text(2, 1),
             restaurant_text(2, 0).replace("achieve table1=received",
                                           "achieve looked1")]
    mdps = [compile_model(parse_domain(text)) for text in texts]
    assert mdps[0].space == mdps[1].space == mdps[2].space
    _compare_ticks(mdps[:2], 2_000, seed=4)
    _compare_replans(mdps, 2_000, seed=4)


def test_step_tables_are_freed_with_their_model(toy_text):
    mdp = compile_model(parse_domain(toy_text))
    step(mdp, mdp.initial_index, "a", np.random.default_rng(0))
    ReplanningController(mdp).choose(mdp.initial_index, None)
    model = weakref.ref(mdp)
    rewards = weakref.ref(mdp.step_tables.rewards)
    goals = weakref.ref(mdp.step_tables.goals)
    assert len(goals()) == 1
    del mdp
    gc.collect()
    assert model() is None
    assert rewards() is None
    assert goals() is None


def test_runs_leave_the_table_dicts_unchanged(restaurant_mdp):
    """The goal fills read the tables' base and status dicts; no run may
    write into them. Each goal entry is None exactly when no achieve
    requirement is active, else a table true at the bases where one of
    the active ones holds; on restaurant.obd and the 2-table deadline
    model."""
    for mdp in (restaurant_mdp, compile_model(parse_domain(
            restaurant_text(2, 0, within=3)))):
        strategy = value_iteration(mdp)
        for controller in (ReflexController(mdp, strategy),
                           ReplanningController(mdp), RandomController(mdp)):
            run(mdp, controller, ticks=3_000, seed=6)
        space = mdp.space
        tables = mdp.step_tables
        assert tables.bases and tables.statuses
        for b, base in tables.bases.items():
            state = space.state(b * space.n_statuses)
            assert base == {name: state[name]
                            for name in space.names[:space.n_base]}
        for sigma, statuses in tables.statuses.items():
            state = space.state(sigma)
            assert statuses == {name: state[name]
                                for name in space.names[space.n_base:]}
        assert len(tables.goals) > 1
        for index, table in tables.goals.items():
            state = space.state(index)
            active = [req.required for req in mdp.model.requirements
                      if req.kind.is_achieve
                      and (not oracles.holds(req.required, state)
                           if req.activation is None
                           else state[req.name] != "I")]
            assert (table is None) == (not active), index
            if active:
                for b, base in tables.bases.items():
                    assert table[b] == \
                        any(oracles.holds(g, base) for g in active), index


# ---------------------------------------------------------------------------
# Planner


PLAN_MODEL = parse_domain("""
    Variable pos domain {home, hall, lab}
    Variable door
    Action walk_hall if pos=home effects <pos=hall prob 0.9> cost 2
    Action open_door if pos=hall & !door effects <door prob 0.8> cost 1
    Action enter_lab if pos=hall & door effects <pos=lab prob 0.9> cost 2
    Action teleport if pos=home effects <pos=lab prob 0.1> <door prob 0.9> cost 9
    Init { pos=home, !door }
""")
PLAN_MDP = compile_model(PLAN_MODEL)


def _base_index(mdp, base: dict) -> int:
    space = mdp.space
    state = space.state(0)
    state.update(base)
    return space.index_of(state) // space.n_statuses


def test_plan_finds_cheapest_sequence():
    start = _base_index(PLAN_MDP, {"pos": "home", "door": "ff"})
    goal = Atom("pos", "lab")
    assert plan(PLAN_MDP, start, goal) == \
        ["walk_hall", "open_door", "enter_lab"]


def test_plan_uses_most_likely_effect():
    # teleport's most likely effect sets door, not pos, so it cannot be a
    # one-step plan to the lab
    start = _base_index(PLAN_MDP, {"pos": "home", "door": "ff"})
    result = plan(PLAN_MDP, start, Atom("pos", "lab"))
    assert "teleport" not in result


def test_plan_goal_already_met_is_empty():
    start = _base_index(PLAN_MDP, {"pos": "lab", "door": "tt"})
    assert plan(PLAN_MDP, start, Atom("pos", "lab")) == []


def test_plan_unreachable_returns_none():
    start = _base_index(PLAN_MDP, {"pos": "lab", "door": "tt"})
    assert plan(PLAN_MDP, start, Atom("pos", "home")) is None


def test_plan_budget_exhaustion_returns_none():
    start = _base_index(PLAN_MDP, {"pos": "home", "door": "ff"})
    assert plan(PLAN_MDP, start, Atom("pos", "lab"), budget=1) is None


def test_plan_tie_breaks_lexicographically():
    mdp = compile_model(parse_domain("""
        Variable x
        Action alpha if !x effects <x>
        Action beta if !x effects <x>
        Init { !x }
    """))
    start = _base_index(mdp, {"x": "ff"})
    assert plan(mdp, start, Atom("x", "tt")) == ["alpha"]


def test_plan_takes_the_first_declared_of_equally_likely_effects():
    mdp = compile_model(parse_domain("""
        Variable x
        Variable y
        Action go if !x & !y effects <x prob 0.5> <y prob 0.5>
        Init { !x, !y }
    """))
    start = _base_index(mdp, {"x": "ff", "y": "ff"})
    assert plan(mdp, start, Atom("x", "tt")) == ["go"]
    assert plan(mdp, start, Atom("y", "tt")) is None


@pytest.mark.parametrize("start", [-1, 6])
def test_plan_rejects_a_start_outside_the_bases(start):
    with pytest.raises(SimulationError):
        plan(PLAN_MDP, start, Atom("pos", "lab"))


# the fixed models on every base, the two 2-table restaurants on a seeded
# sample of 200 bases, and 30 random models
PLAN_CASES = [
    pytest.param(PLAN_MODEL, None, id="plan"),
    pytest.param(parse_domain((MODELS / "toy.obd").read_text()), None,
                 id="toy"),
    pytest.param(parse_domain((MODELS / "restaurant.obd").read_text()), None,
                 id="restaurant"),
    pytest.param(parse_domain(restaurant_text(2, 0)), 200, id="r2"),
    pytest.param(parse_domain(restaurant_text(2, 0, within=3)), 200,
                 id="d2"),
] + [pytest.param(oracles.random_model(random.Random(seed)), None,
                  id=f"random{seed}") for seed in range(30)]


@pytest.mark.parametrize("model,sample", PLAN_CASES)
def test_plan_matches_the_dict_keyed_oracle(model, sample):
    """Every action's determinized successor in the step tables is the
    dict-keyed reference's, and the search over base indices returns the
    reference planner's plan, from every start (or a sample), for each
    achieve requirement's goal, their disjunction and every atom (one
    random atom on a sample), at budgets 1, 5 and 10,000."""
    mdp = compile_model(model)
    space = mdp.space
    actions = sim._tables(mdp).actions
    rng = random.Random(0)
    goals = [req.required for req in model.requirements
             if req.kind.is_achieve]
    if len(goals) > 1:
        goals.append(functools.reduce(Or, goals))
    atoms = [Atom(var.name, value)
             for var in model.variables for value in var.domain]
    n_bases = space.size // space.n_statuses
    if sample is None:
        starts = range(n_bases)
        goals += atoms
    else:
        starts = sorted(rng.sample(range(n_bases), sample))
        goals.append(rng.choice(atoms))
    names = space.names[:space.n_base]
    for b in starts:
        state = space.state(b * space.n_statuses)
        base = {name: state[name] for name in names}
        for name, action in zip(mdp.action_names, mdp.actions):
            succ = oracles.determinized_successor(action, base)
            assert actions[name][2][b] == (
                None if succ is None else _base_index(mdp, succ)), (b, name)
        for goal in goals:
            for budget in (1, 5, 10_000):
                assert plan(mdp, b, goal, budget) == \
                    oracles.oracle_plan(model, base, goal, budget), \
                    (b, goal, budget)


@pytest.mark.parametrize("within", [None, 3])
def test_plan_reads_a_goal_table_as_its_formula(within):
    """From every base, and for every state's set of active goals, `plan`
    given the state's goal table returns the plan it returns given the
    left-to-right disjunction of the active goals, at budgets 1, 5 and
    10,000."""
    model = parse_domain(restaurant_text(2, 0, within=within))
    mdp = compile_model(model)
    space = mdp.space
    goals = sim._tables(mdp).goals
    n_bases = space.size // space.n_statuses
    seen = set()
    for i in range(space.size):
        table = goals[i]
        if table is None or id(table) in seen:
            continue
        seen.add(id(table))
        state = space.state(i)
        active = [req.required for req in model.requirements
                  if req.kind.is_achieve
                  and (not oracles.holds(req.required, state)
                       if req.activation is None
                       else state[req.name] != "I")]
        formula = functools.reduce(Or, active)
        for b in range(n_bases):
            for budget in (1, 5, 10_000):
                assert plan(mdp, b, table, budget) == \
                    plan(mdp, b, formula, budget), (i, b, budget)
    assert seen


# ---------------------------------------------------------------------------
# Controllers


def test_reflex_controller_is_table_lookup(toy_mdp):
    strategy = value_iteration(toy_mdp)
    controller = ReflexController(toy_mdp, strategy)
    rng = np.random.default_rng(0)
    for i in range(toy_mdp.n_states):
        assert controller.choose(i, rng) == \
            toy_mdp.action_names[strategy.actions[i]]


def test_random_controller_covers_all_actions(toy_mdp):
    controller = RandomController(toy_mdp)
    rng = np.random.default_rng(0)
    chosen = {controller.choose(0, rng) for _ in range(300)}
    assert chosen == set(toy_mdp.action_names)


def test_replanning_controller_reaches_goals(toy_mdp):
    controller = ReplanningController(toy_mdp)
    metrics = run(toy_mdp, controller, ticks=2_000, seed=1)
    assert metrics.total_satisfactions > 0
    assert metrics.controller == "replan"


def test_replanning_counts_divergence_failures():
    """An action that usually fails makes the world diverge from the
    determinized prediction; each divergence is a plan failure."""
    model = parse_domain("""
        Variable x
        Action try if !x effects <x prob 0.1>
        Event reset if x occur prob 0.9 effects <!x>
        ReqID m achieve x if !x reward 1
        Init { !x }
    """)
    mdp = compile_model(model)
    controller = ReplanningController(mdp)
    metrics = run(mdp, controller, ticks=500, seed=0)
    assert metrics.plan_failures > 100


def test_replanning_noop_when_no_goal_active():
    model = parse_domain("""
        Variable x
        Action flip if x effects <!x>
        ReqID m achieve !x if x reward 1
        Init { !x }
    """)
    mdp = compile_model(model)
    controller = ReplanningController(mdp)
    rng = np.random.default_rng(0)
    assert controller.choose(mdp.initial_index, rng) == "noop"


def _first_choice(text: str):
    mdp = compile_model(parse_domain(text))
    controller = ReplanningController(mdp)
    action = controller.choose(mdp.initial_index, np.random.default_rng(0))
    return action, controller.plan_failures


def test_replanning_plans_toward_an_unmet_unconditional_goal():
    assert _first_choice("""
        Variable x
        Action set if !x effects <x>
        ReqID g achieve x reward 1
        Init { !x }
    """) == ("set", 0)


def test_replanning_plans_toward_any_active_goal():
    """Two active goals are joined with Or: the cheaper one is planned
    for, although it is the second."""
    assert _first_choice("""
        Variable x
        Variable y
        Action set_x if !x effects <x> cost 5
        Action set_y if !y effects <y> cost 1
        ReqID gx achieve x reward 1
        ReqID gy achieve y reward 1
        Init { !x, !y }
    """) == ("set_y", 0)


def test_replanning_counts_an_unreachable_goal_as_a_plan_failure():
    assert _first_choice("""
        Variable x
        Variable y
        Action set_y if !y effects <y>
        ReqID g achieve x reward 1
        Init { !x, !y }
    """) == ("noop", 1)


def _restaurant(tables: int, within=None):
    return restaurant_text(tables, 0, within=within) if tables > 1 \
        else (MODELS / "restaurant.obd").read_text()


def _same_replans(mdp, ticks: int, seeds) -> None:
    """The goal table against `oracles.OracleReplanningController`, which
    decodes, collects and searches on dicts every tick: the same action on
    every tick, and the same total reward, satisfaction counts and plan
    failures."""
    for seed in seeds:
        got = ReplanningController(mdp)
        want = oracles.OracleReplanningController(mdp)
        got_ticks, want_ticks = _recorded(got), _recorded(want)
        m = run(mdp, got, ticks, seed)
        assert (m.total_reward, m.satisfaction_counts, m.plan_failures) == \
            oracles.oracle_run(mdp, want, ticks, seed), seed
        assert got_ticks == want_ticks, seed


@pytest.mark.parametrize("text, ticks, seeds", [
    pytest.param((MODELS / "toy.obd").read_text(), 2_000, range(3), id="toy"),
    pytest.param((MODELS / "restaurant.obd").read_text(), 10_000, range(2),
                 id="restaurant"),
    pytest.param(restaurant_text(2, 0), 2_000, range(2), id="r2"),
    pytest.param(restaurant_text(2, 0, within=3), 2_000, range(2), id="d2"),
])
def test_replanning_matches_the_straight_line_controller(text, ticks, seeds):
    _same_replans(compile_model(parse_domain(text)), ticks, seeds)


def test_replanning_matches_the_straight_line_controller_on_random_models():
    """The first 30 random models with an achieve requirement."""
    models = (oracles.random_model(random.Random(7000 + k))
              for k in range(1_000))
    models = [m for m in models if m.requirements[0].kind.is_achieve][:30]
    assert len(models) == 30
    for k, model in enumerate(models):
        _same_replans(compile_model(model), 300, (k,))


def test_replanning_toward_a_thousand_goals(tmp_path):
    """1,000 unconditional goals once nested a disjunction 1,000 levels
    deep, and the planner's evaluation ended in a RecursionError; the
    goal table tries them one after another."""
    text = ("Variable x\nAction clear if x effects <!x>\n"
            + "".join(f"ReqID g{i} achieve !x reward 1\n"
                      for i in range(1_000))
            + "Init { x }\n")
    path = tmp_path / "goals.obd"
    path.write_text(text)
    result = CliRunner().invoke(main, ["simulate", str(path), "--controller",
                                       "replan", "--ticks", "50"])
    assert result.exit_code == 0, result.output
    lines = result.stdout.splitlines()
    assert lines[0].startswith("seed,controller,ticks,")
    assert lines[1].startswith("0,replan,50,")
    mdp = compile_model(parse_domain(text))
    controller = ReplanningController(mdp)
    assert controller.choose(mdp.initial_index, None) == "clear"
    table = mdp.step_tables.goals[mdp.initial_index]
    assert table[_base_index(mdp, {"x": "ff"})]
    assert not table[_base_index(mdp, {"x": "tt"})]


# ---------------------------------------------------------------------------
# Block draws against numpy's scalar draws


# 1 draws nothing, 2**32 returns a 32-bit draw as it is, 2**31 + 11
# rejects almost half of its 32-bit draws
DRAW_BOUNDS = [1, 2, 3, 7, 8, 10, 13, 1000, 2 ** 31 + 11, 2 ** 32]


def _same_draws(draws, generator, calls) -> None:
    """Each call, None for random() or n for integers(n), returns the same
    number from both; then so does one more random()."""
    for k, n in enumerate(calls):
        if n is None:
            assert draws.random() == generator.random(), k
        else:
            assert draws.integers(n) == generator.integers(n), (k, n)
    assert draws.random() == generator.random()


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 64 - 1),
       skip=st.sampled_from([0, 1, BLOCK - 30, BLOCK - 1, 2 * BLOCK - 10]),
       calls=st.lists(st.none() | st.sampled_from(DRAW_BOUNDS), max_size=80))
def test_draws_equal_numpys_scalar_draws(seed, skip, calls):
    """`skip` random() calls first put most interleavings across the end
    of a block."""
    _same_draws(Draws(seed), np.random.default_rng(seed),
                [None] * skip + calls)


def test_a_kept_half_word_survives_a_refill():
    """integers(2**32) splits the block's last word, random() refills, and
    the next integers(2**32) is the old block's kept high half."""
    words = np.random.default_rng(5).bit_generator.random_raw(BLOCK + 1)
    draws = Draws(5)
    for _ in range(BLOCK - 1):
        draws.random()
    assert draws.integers(2 ** 32) == int(words[BLOCK - 1]) & 0xFFFFFFFF
    assert draws.random() == (int(words[BLOCK]) >> 11) * 2.0 ** -53
    assert draws.integers(2 ** 32) == int(words[BLOCK - 1]) >> 32
    for n in (7, 2 ** 31 + 11):
        _same_draws(Draws(5), np.random.default_rng(5),
                    [None] * (BLOCK - 1) + [n, None, n, n, None])


@pytest.mark.parametrize("n", [0, -1, 2 ** 32 + 1, 2 ** 40])
def test_draws_reject_bounds_outside_32_bits(n):
    with pytest.raises(ValueError):
        Draws(0).integers(n)


def _recorded(controller) -> list:
    """The (state, action, next state) of every tick `controller` observes,
    in order."""
    trajectory = []
    observe = controller.observe

    def recording(prev_index, action, next_index):
        trajectory.append((prev_index, action, next_index))
        observe(prev_index, action, next_index)
    controller.observe = recording
    return trajectory


def _same_runs(mdp, ticks: int, seeds, monkeypatch) -> list:
    """`run` against `oracles.oracle_run` for every controller and seed:
    the same trajectory, total reward, satisfaction counts and plan
    failures. Returns the number of blocks each run read."""
    strategy = value_iteration(mdp)
    makers = (lambda: ReflexController(mdp, strategy),
              lambda: ReplanningController(mdp),
              lambda: RandomController(mdp))
    blocks = 0
    per_run = []

    class Counted(Draws):
        def _refill(self):
            nonlocal blocks
            blocks += 1
            super()._refill()

    monkeypatch.setattr(sim, "Draws", Counted)
    for make in makers:
        for seed in seeds:
            got, want = make(), make()
            got_ticks, want_ticks = _recorded(got), _recorded(want)
            read = blocks
            m = run(mdp, got, ticks, seed)
            per_run.append(blocks - read)
            assert (m.total_reward, m.satisfaction_counts, m.plan_failures) \
                == oracles.oracle_run(mdp, want, ticks, seed), (got.name,
                                                                seed)
            assert got_ticks == want_ticks, (got.name, seed)
    return per_run


@pytest.mark.parametrize("model, ticks", [("restaurant.obd", 80),
                                          ("restaurant.obd", 4_000),
                                          ("2 tables", 40), ("2 tables", 900)])
def test_runs_draw_what_the_scalar_draw_loop_draws(restaurant_mdp, model,
                                                   ticks, monkeypatch):
    """restaurant.obd and the 2-table model, with tick counts whose draws
    stay within one block or pass its end in every run."""
    mdp = restaurant_mdp if model == "restaurant.obd" \
        else compile_model(parse_domain(restaurant_text(2, 0)))
    blocks = _same_runs(mdp, ticks, range(3), monkeypatch)
    assert set(blocks) == {1} if ticks < 100 else min(blocks) >= 2


def test_runs_draw_what_the_scalar_draw_loop_draws_on_random_models(
        monkeypatch):
    """Blocks of 3 words, so that a run passes a block end every few draws
    and keeps half words across them."""
    monkeypatch.setattr(sim, "BLOCK", 3)
    blocks = []
    for k in range(12):
        mdp = compile_model(oracles.random_model(random.Random(9000 + k)))
        blocks += _same_runs(mdp, 150, (k, k + 100), monkeypatch)
    assert sum(b > 1 for b in blocks) > len(blocks) // 2


# ---------------------------------------------------------------------------
# Runs and metrics


@pytest.mark.parametrize("controller", ["reflex", "replan", "random"])
def test_runs_score_the_stored_goal_counts(restaurant_mdp, controller):
    """The goal counts bench/expected.json stores for the simulation
    workload, for run seeds 0-3: a change of any controller's trajectory
    fails here, not only in a benchmark run."""
    stored = json.loads((ROOT / "bench" / "expected.json").read_text())[
        "satisfactions"]["simulate-restaurant"]
    strategy = value_iteration(restaurant_mdp)
    make = {"reflex": lambda: ReflexController(restaurant_mdp, strategy),
            "replan": lambda: ReplanningController(restaurant_mdp),
            "random": lambda: RandomController(restaurant_mdp)}[controller]
    counts = [run(restaurant_mdp, make(), stored["ticks"],
                  seed).total_satisfactions for seed in range(4)]
    assert counts == stored[controller][:4]


def test_runs_call_step_and_plan_through_the_module(restaurant_mdp,
                                                     monkeypatch):
    """bench/tracing.py times `sim.step` and `sim.plan` by swapping
    wrappers into the module; runs must look both up there, or the
    traced per-layer metrics read 0."""
    calls = {"step": 0, "plan": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(sim, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(sim, name, counted)
    run(restaurant_mdp, RandomController(restaurant_mdp), ticks=300, seed=0)
    assert calls == {"step": 300, "plan": 0}
    run(restaurant_mdp, ReplanningController(restaurant_mdp), ticks=300,
        seed=0)
    assert calls["step"] == 600
    assert calls["plan"] >= 1


def test_run_zero_ticks(toy_mdp):
    metrics = run(toy_mdp, RandomController(toy_mdp), ticks=0, seed=0)
    assert metrics.ticks == 0
    assert metrics.goals_per_tick == 0.0
    assert metrics.mean_reward == 0.0
    assert metrics.median_latency_ns == 0.0


def test_run_same_seed_same_metrics(toy_mdp):
    strategy = value_iteration(toy_mdp)
    def once():
        m = run(toy_mdp, ReflexController(toy_mdp, strategy),
                ticks=1_000, seed=5)
        return (m.total_reward, dict(m.satisfaction_counts))
    assert once() == once()


def test_run_different_seeds_differ(toy_mdp):
    strategy = value_iteration(toy_mdp)
    rewards = {run(toy_mdp, ReflexController(toy_mdp, strategy),
                   ticks=1_000, seed=s).total_reward for s in range(4)}
    assert len(rewards) > 1


def test_metrics_csv_shape():
    rows = [Metrics(seed=0, controller="reflex", ticks=10,
                    total_reward=25.0, satisfaction_counts={"m": 3},
                    latencies_ns=[100, 200, 300], plan_failures=0)]
    text = metrics_csv(rows)
    lines = text.splitlines()
    assert lines[0] == ("seed,controller,ticks,goalsPerTick,meanReward,"
                        "medianLatencyNs,planFailures")
    assert lines[1] == "0,reflex,10,0.300000,2.500000,200,0"
    assert text.endswith("\n")


def test_reflex_beats_random_on_toy(toy_mdp):
    strategy = value_iteration(toy_mdp)
    reflex = [run(toy_mdp, ReflexController(toy_mdp, strategy),
                  ticks=2_000, seed=s).mean_reward for s in range(3)]
    rand = [run(toy_mdp, RandomController(toy_mdp),
                ticks=2_000, seed=s).mean_reward for s in range(3)]
    assert np.mean(reflex) > np.mean(rand)
