"""The factored model: event product E, explicit action matrices X_a and
one reward factor per requirement, against the multiplied-out exact
matrices."""

import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from obd import compiler, reqauto, solver
from obd.compiler import compile_model, dump_mdp, load_mdp
from obd.dsl import parse_domain

import oracles

MODELS = Path(__file__).parent.parent / "models"
RANDOM_SEEDS = range(8)


def _models(toy_mdp, restaurant_mdp):
    yield toy_mdp
    yield restaurant_mdp
    for seed in RANDOM_SEEDS:
        yield compile_model(oracles.random_model(random.Random(6000 + seed)))


def _factored_expected(mdp, name: str, s: int) -> Fraction:
    """-c_a + sum_k r_k g_k(s) (X_a E h_k)(s), exactly."""
    action = mdp.actions[mdp.action_names.index(name)]
    total = Fraction(-action.cost)
    for f in mdp.reward_factors:
        if not f.before[s]:
            continue
        reach = sum((p * sum((q for j, q in mdp.events.row(m).items()
                              if f.after[j]), Fraction(0))
                     for m, p in mdp.explicit[name].row(s).items()),
                    Fraction(0))
        total += f.reward * reach
    return total


def test_factors_give_the_exact_expected_reward(toy_mdp, restaurant_mdp):
    for mdp in _models(toy_mdp, restaurant_mdp):
        for name in mdp.action_names:
            t, r = mdp.transitions[name], mdp.rewards[name]
            for s in range(mdp.n_states):
                materialised = sum((p * r.get(s, j)
                                    for j, p in t.row(s).items()),
                                   Fraction(0))
                assert _factored_expected(mdp, name, s) == materialised


@pytest.mark.parametrize("factored", [True, False],
                         ids=["factors", "products"])
def test_q_values_match_the_model_read_back(toy_mdp, restaurant_mdp,
                                            monkeypatch, factored):
    """The compiled model's best Q-values (greedy_policy) and policy
    values (evaluate_policy) against the model read back from obdmdp/1:
    bit for bit where both read the same float products, within 1e-12
    relative through the factors. The policies are random ones and every
    action in every state, so they hold each dropped row too."""
    # sweep the factors always, or the exact products always
    monkeypatch.setattr(solver, "PRODUCT_TERMS", -1 if factored else 10 ** 9)
    rng = np.random.default_rng(0)
    for mdp in _models(toy_mdp, restaurant_mdp):
        # built afresh on the path `factored` names, restored after
        monkeypatch.setattr(mdp, "bellman", None)
        loaded = load_mdp(dump_mdp(mdp))
        values = rng.normal(scale=100.0, size=mdp.n_states)
        policies = [rng.integers(0, mdp.n_actions, mdp.n_states)
                    for _ in range(3)]
        policies += [np.full(mdp.n_states, a) for a in range(mdp.n_actions)]
        greedy = solver.greedy_policy(mdp, values)
        assert (mdp.bellman.events is not None) == factored
        greedy_loaded = solver.greedy_policy(loaded, values)
        got = [greedy.values] + [solver.evaluate_policy(mdp, policy)
                                 for policy in policies]
        want = [greedy_loaded.values] + [solver.evaluate_policy(loaded, policy)
                                         for policy in policies]
        for x, y in zip(got, want):
            if factored:
                scale = max(1.0, float(np.abs(x).max()))
                assert np.abs(x - y).max() <= 1e-12 * scale
            else:  # the same float matrices as the model read back
                assert x.tobytes() == y.tobytes()
        if not factored:
            assert greedy.actions.tobytes() == greedy_loaded.actions.tobytes()


def test_products_are_built_when_first_read(toy_model, monkeypatch):
    built = []
    product = compiler.implicit_action_matrix

    def counting(explicit, events):
        built.append(explicit)
        return product(explicit, events)

    monkeypatch.setattr(compiler, "implicit_action_matrix", counting)
    mdp = compile_model(toy_model)
    assert len(mdp.transitions) == len(mdp.rewards) == 3
    assert list(mdp.transitions) == list(mdp.rewards) == ["noop", "a", "b"]
    assert built == []
    first = mdp.transitions["a"]
    assert len(built) == 1
    assert mdp.transitions["a"] is first
    assert mdp.rewards["a"] is mdp.rewards["a"]
    assert len(built) == 1
    assert first == mdp.explicit["a"].matmul(mdp.events)


def test_reward_parts_are_read_once_per_key(monkeypatch):
    # 41 statuses x 4 truth combinations: one table of 164 keys per part,
    # where a key-pair table would take up to 164 ** 2 = 26,896 entries
    text = (MODELS / "restaurant.obd").read_text().replace(
        "    achieve table1=received",
        "    maintain table1=received for 20 within 20")
    model = parse_domain(text)
    kind = model.requirements[0].kind
    calls = {"before": 0, "after": 0}
    paid_before, paid_after = reqauto.REWARD_PARTS[kind]

    def before(st, s):
        calls["before"] += 1
        return paid_before(st, s)

    def after(st, s, z):
        calls["after"] += 1
        return paid_after(st, s, z)

    monkeypatch.setitem(reqauto.REWARD_PARTS, kind, (before, after))

    def no_reward(*args):
        raise AssertionError("compile_model called reqauto.reward")

    monkeypatch.setattr(reqauto, "reward", no_reward)
    assert not hasattr(compiler, "requirement_reward")
    mdp = compile_model(model)
    auto = mdp.automata[0]
    _, combos = compiler._truth_codes(auto, mdp.space)
    assert (len(auto.statuses), len(combos)) == (41, 4)
    # at most one call per part, status and truth combination
    assert 0 < calls["before"] <= 41 * 4
    assert 0 < calls["after"] <= 41 * 4
