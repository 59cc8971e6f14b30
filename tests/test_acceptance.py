"""Acceptance gate: one test (and one printed pass/fail line) per shipped
guarantee. Tolerances are pinned here and should not be loosened."""

import contextlib
import math
import random
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from obd.compiler import compile_model, dump_mdp
from obd.dsl import parse_domain
from obd.reqauto import build_automaton, reward, update_action, update_event
from obd.sim import (
    RandomController,
    ReflexController,
    ReplanningController,
    run,
    step,
)
from obd.solver import dump_policy, policy_iteration, value_iteration
from obd.cli import dot_text

import oracles
from test_reqauto import ATOM_VARS, make_req
from obd.dsl import ReqKind

MODELS = Path(__file__).parent.parent / "models"


@contextlib.contextmanager
def criterion(capsys, number, description):
    outcome = "PASS"
    try:
        yield
    except BaseException:
        outcome = "FAIL"
        raise
    finally:
        with capsys.disabled():
            print(f"criterion {number}: {outcome} - {description}")


# ---------------------------------------------------------------------------


def test_criterion_1_worked_example(capsys, toy_model):
    with criterion(capsys, 1,
                   "two-boolean worked example reproduced exactly"):
        started = time.perf_counter()
        mdp = compile_model(toy_model)
        space = mdp.space

        assert mdp.n_states == 8

        s2 = space.index_of({"x": "ff", "y": "ff", "m": "R"})
        s4 = space.index_of({"x": "tt", "y": "ff", "m": "I"})
        assert mdp.transitions["a"].get(s2, s4) == Fraction(4, 5)

        occ = oracles.occurrence_vector(toy_model.events[0], space)
        not_x = [i for i in range(8) if space.state(i)["x"] == "ff"]
        assert len(not_x) == 4
        for i in range(8):
            assert occ[i] == (Fraction(1, 5) if i in not_x else Fraction(0))

        assert mdp.rewards["a"].get(s2, s4) == Fraction(90)
        assert time.perf_counter() - started < 1.0


def test_criterion_2_matrix_pipeline_oracle(capsys):
    with criterion(capsys, 2,
                   "implicit matrices match brute-force interleaving on "
                   "50 random models"):
        checked = 0
        seed = 0
        while checked < 50:
            seed += 1
            model = oracles.random_model(random.Random(seed))
            mdp = compile_model(model)
            if mdp.n_states > 64 or len(model.events) > 3:
                continue
            checked += 1
            for action in mdp.actions:
                t = mdp.transitions[action.name]
                for i in range(mdp.n_states):
                    expected = oracles.interleaving_distribution(
                        model, mdp.space, action, i)
                    got = t.row(i)
                    assert set(got) == set(expected)
                    for j, p in expected.items():
                        assert abs(float(got[j]) - float(p)) <= 1e-9
                    assert abs(float(sum(got.values())) - 1.0) <= 1e-9


def test_criterion_3_solver_cross_validation(capsys, toy_mdp,
                                             restaurant_mdp):
    with criterion(capsys, 3,
                   "value and policy iteration agree; exhaustive "
                   "enumeration confirms optimality on tiny models"):
        suite = [toy_mdp, restaurant_mdp]
        for seed in range(10):
            suite.append(compile_model(
                oracles.random_model(random.Random(3000 + seed))))
        for mdp in suite:
            vi = value_iteration(mdp, 1e-6)
            pi = policy_iteration(mdp)
            assert np.array_equal(vi.actions, pi.actions)
            assert np.max(np.abs(vi.values - pi.values)) < 1e-5

        tiny = compile_model(parse_domain("""
            Variable s domain {a,b,c,d}
            Action right
                if s=a effects <s=b prob 0.9>
                if s=b effects <s=c prob 0.9>
                if s=c effects <s=d prob 0.9>
            Action reset if s=d || s=c effects <s=a> cost 1
            ReqID m achieve s=d reward 20
            Init { s=a }
        """), gamma=Fraction(9, 10))
        assert tiny.n_states <= 4 and tiny.n_actions <= 3
        best = oracles.exhaustive_optimal_values(tiny)
        for strategy in (value_iteration(tiny, 1e-6),
                         policy_iteration(tiny)):
            assert np.max(np.abs(strategy.values - best)) < 1e-5


def test_criterion_4_geometric_series(capsys):
    with criterion(capsys, 4,
                   "single self-loop state, reward 1, gamma 0.9 is worth "
                   "10"):
        mdp = compile_model(parse_domain("""
            Variable x domain {v}
            ReqID g maintain x=v reward 1
            Init { x=v }
        """), gamma=Fraction(9, 10))
        assert abs(value_iteration(mdp, 1e-6).values[0] - 10.0) <= 1e-6
        assert abs(policy_iteration(mdp).values[0] - 10.0) <= 1e-9


def test_criterion_5_requirement_automata(capsys):
    with criterion(capsys, 5,
                   "status updates and rewards conform to the case tables "
                   "for 1e4 random pairs per kind"):
        rng = random.Random(5)
        for kind in ReqKind:
            req = make_req(kind, deadline=3, duration=3)
            auto = build_automaton(req)
            assert auto.statuses == oracles.oracle_statuses(req)
            for _ in range(10_000):
                status = rng.choice(auto.statuses)
                base = {v: rng.choice(("tt", "ff")) for v in ATOM_VARS}
                act = update_action(auto, status, base)
                evt = update_event(auto, status, base)
                assert act == oracles.oracle_update(req, status, base, True)
                assert evt == oracles.oracle_update(req, status, base, False)
                if act != evt:
                    # variants may disagree only on counter decrements
                    assert evt == status and "(" in status
                before = dict(base, m=status)
                after = {v: rng.choice(("tt", "ff")) for v in ATOM_VARS}
                after["m"] = rng.choice(auto.statuses)
                assert reward(auto, before, after) == \
                    oracles.oracle_reward(req, before, after)


def test_criterion_6_simulation_matches_compilation(capsys, toy_mdp):
    with criterion(capsys, 6,
                   "1e5 sampled steps match the compiled row within 3 "
                   "standard errors"):
        space = toy_mdp.space
        i = space.index_of({"x": "ff", "y": "ff", "m": "R"})
        n = 100_000
        rng = np.random.default_rng(6)
        counts = {}
        for _ in range(n):
            j, _, _ = step(toy_mdp, i, "a", rng)
            counts[j] = counts.get(j, 0) + 1
        row = toy_mdp.transitions["a"].row(i)
        assert set(counts) <= set(row)
        for j, p in row.items():
            p = float(p)
            se = math.sqrt(p * (1 - p) / n)
            assert abs(counts.get(j, 0) / n - p) <= 3 * se


def test_criterion_7_controller_ordering(capsys, restaurant_mdp):
    with criterion(capsys, 7,
                   "restaurant: reflex >= replanning >= random in goals "
                   "per tick; reflex median latency < 1 us"):
        ticks, seeds = 10_000, 5
        strategy = value_iteration(restaurant_mdp)

        def mean_gpt(make):
            return float(np.mean([
                run(restaurant_mdp, make(), ticks, seed).goals_per_tick
                for seed in range(seeds)]))

        reflex_runs = [run(restaurant_mdp,
                           ReflexController(restaurant_mdp, strategy),
                           ticks, seed) for seed in range(seeds)]
        reflex = float(np.mean([m.goals_per_tick for m in reflex_runs]))
        replan = mean_gpt(lambda: ReplanningController(restaurant_mdp))
        rand = mean_gpt(lambda: RandomController(restaurant_mdp))

        assert reflex >= replan >= rand
        assert reflex > rand  # the ordering is strict end to end
        median_latency = float(np.median(
            [m.median_latency_ns for m in reflex_runs]))
        assert median_latency < 1_000.0


def test_criterion_8_deterministic_outputs(capsys, toy_model):
    with criterion(capsys, 8,
                   "obdmdp, obdpolicy and DOT outputs are byte-identical "
                   "across runs"):
        def artifacts():
            mdp = compile_model(toy_model)
            strategy = value_iteration(mdp)
            return (dump_mdp(mdp).encode(),
                    dump_policy(strategy, mdp).encode(),
                    dot_text(mdp, strategy).encode(),
                    dot_text(mdp, full=True).encode())
        assert artifacts() == artifacts()
