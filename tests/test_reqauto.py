"""Requirement status automata: domains, updates, rewards.

The reference behavior lives in tests/oracles.py as a literal case-table
transcription; these tests drive the production implementation against it
with exhaustive and randomized (status, base) pairs for every kind.
"""

import itertools
import random

import pytest

from obd.dsl import Atom, EvaluationError, Not, ReqKind, Requirement
from obd.reqauto import (
    REWARD_PARTS,
    UnknownStatusError,
    build_automaton,
    reward,
    status_count,
    update_action,
    update_event,
)

import oracles

ATOM_VARS = ("s", "a", "z")


def make_req(kind: ReqKind, deadline=2, duration=3, reward_value=5):
    """One requirement per kind over three dedicated boolean flags."""
    conditional = kind.is_conditional
    return Requirement(
        name="m",
        kind=kind,
        required=Atom("s", "tt"),
        activation=Atom("a", "tt") if conditional else None,
        cancellation=Atom("z", "tt") if conditional else None,
        deadline=deadline if kind.has_deadline else None,
        duration=duration if kind.has_duration else None,
        reward=reward_value,
    )


def all_bases():
    out = []
    for bits in itertools.product(("tt", "ff"), repeat=3):
        out.append(dict(zip(ATOM_VARS, bits)))
    return out


BASES = all_bases()
KINDS = list(ReqKind)


# ---------------------------------------------------------------------------
# Status domains


@pytest.mark.parametrize("kind", KINDS, ids=[k.value for k in KINDS])
def test_status_domain(kind):
    req = make_req(kind)
    auto = build_automaton(req)
    assert auto.statuses == oracles.oracle_statuses(req)
    assert status_count(req) == len(auto.statuses)
    assert auto.initial_status == auto.statuses[0]
    assert len(set(auto.statuses)) == len(auto.statuses)


def test_status_domain_examples():
    assert build_automaton(make_req(ReqKind.UM)).statuses == ("-",)
    assert build_automaton(make_req(ReqKind.CA)).statuses == ("I", "R")
    assert build_automaton(make_req(ReqKind.DEA, deadline=3)).statuses == \
        ("I", "A(3)", "A(2)", "A(1)")
    assert build_automaton(make_req(ReqKind.PM, duration=2)).statuses == \
        ("I", "A", "R(2)", "R(1)")
    assert build_automaton(
        make_req(ReqKind.PDEM, deadline=2, duration=2)).statuses == \
        ("I", "A(2)", "A(1)", "R(2)", "R(1)")


# ---------------------------------------------------------------------------
# Updates agree with the case tables, exhaustively


@pytest.mark.parametrize("kind", KINDS, ids=[k.value for k in KINDS])
def test_update_matches_oracle_exhaustive(kind):
    req = make_req(kind)
    auto = build_automaton(req)
    for status in auto.statuses:
        for base in BASES:
            assert update_action(auto, status, base) == \
                oracles.oracle_update(req, status, base, True), \
                (kind, status, base, "action")
            assert update_event(auto, status, base) == \
                oracles.oracle_update(req, status, base, False), \
                (kind, status, base, "event")


def test_update_randomized_bulk():
    """1e4 random (status, base) pairs per kind against the oracle."""
    rng = random.Random(20260823)
    for kind in KINDS:
        req = make_req(kind, deadline=rng.randint(1, 4),
                       duration=rng.randint(1, 4))
        auto = build_automaton(req)
        for _ in range(10_000):
            status = rng.choice(auto.statuses)
            base = {v: rng.choice(("tt", "ff")) for v in ATOM_VARS}
            assert update_action(auto, status, base) == \
                oracles.oracle_update(req, status, base, True)
            assert update_event(auto, status, base) == \
                oracles.oracle_update(req, status, base, False)


@pytest.mark.parametrize("kind", KINDS, ids=[k.value for k in KINDS])
def test_update_closed_over_status_domain(kind):
    req = make_req(kind)
    auto = build_automaton(req)
    for status in auto.statuses:
        for base in BASES:
            assert update_action(auto, status, base) in auto.statuses
            assert update_event(auto, status, base) in auto.statuses
    for update in (update_action, update_event):
        with pytest.raises(UnknownStatusError):
            update(auto, "R(0)", BASES[0])


# ---------------------------------------------------------------------------
# Action/event variants differ only where counters tick down


@pytest.mark.parametrize("kind", KINDS, ids=[k.value for k in KINDS])
def test_event_variant_only_freezes_counters(kind):
    req = make_req(kind)
    auto = build_automaton(req)
    for status in auto.statuses:
        for base in BASES:
            act = update_action(auto, status, base)
            evt = update_event(auto, status, base)
            if act == evt:
                continue
            # a disagreement must be a pure counter decrement (or the
            # deadline expiring), with the event variant standing still
            assert evt == status
            head, _, num = status[:-1].partition("(")
            k = int(num)
            assert head in ("A", "R")
            if k > 1:
                assert act == f"{head}({k - 1})"
            else:
                assert act == "I"


def test_exhausted_duration_expires_on_events():
    # R(1) -> I holds in the event variant too; it is not a counter row
    req = make_req(ReqKind.PM, duration=2)
    auto = build_automaton(req)
    base = {"s": "tt", "a": "ff", "z": "ff"}
    assert update_event(auto, "R(1)", base) == "I"
    assert update_action(auto, "R(1)", base) == "I"
    # whereas R(2) only moves on action steps
    assert update_event(auto, "R(2)", base) == "R(2)"
    assert update_action(auto, "R(2)", base) == "R(1)"


# ---------------------------------------------------------------------------
# Update examples, spelled out


def test_pm_walkthrough():
    req = make_req(ReqKind.PM, duration=3)
    auto = build_automaton(req)
    on = {"s": "tt", "a": "ff", "z": "ff"}
    act = {"s": "ff", "a": "tt", "z": "ff"}
    cancel = {"s": "tt", "a": "ff", "z": "tt"}
    assert update_action(auto, "I", act) == "A"
    assert update_action(auto, "A", on) == "R(3)"
    assert update_action(auto, "R(3)", on) == "R(2)"
    assert update_action(auto, "R(2)", cancel) == "I"
    assert update_action(auto, "R(1)", on) == "I"


def test_rpm_strict_exit():
    req = make_req(ReqKind.RPM, duration=3)
    auto = build_automaton(req)
    off = {"s": "ff", "a": "ff", "z": "ff"}
    on = {"s": "tt", "a": "ff", "z": "ff"}
    assert update_action(auto, "R(2)", off) == "I"
    assert update_event(auto, "R(2)", off) == "I"
    assert update_action(auto, "R(2)", on) == "R(1)"


def test_dfa_early_exit_dea_waits():
    on = {"s": "tt", "a": "ff", "z": "ff"}
    dfa = build_automaton(make_req(ReqKind.DFA, deadline=3))
    dea = build_automaton(make_req(ReqKind.DEA, deadline=3))
    assert update_action(dfa, "A(3)", on) == "I"
    assert update_action(dea, "A(3)", on) == "A(2)"


def test_pdem_enters_duration_only_at_deadline():
    on = {"s": "tt", "a": "ff", "z": "ff"}
    pdem = build_automaton(make_req(ReqKind.PDEM, deadline=2, duration=3))
    pdfm = build_automaton(make_req(ReqKind.PDFM, deadline=2, duration=3))
    assert update_action(pdem, "A(2)", on) == "A(1)"
    assert update_action(pdem, "A(1)", on) == "R(3)"
    assert update_action(pdfm, "A(2)", on) == "R(3)"


# ---------------------------------------------------------------------------
# Rewards


@pytest.mark.parametrize("kind", KINDS, ids=[k.value for k in KINDS])
def test_reward_matches_oracle(kind):
    req = make_req(kind)
    auto = build_automaton(req)
    rng = random.Random(hash(kind.value) & 0xFFFF)
    for _ in range(2_000):
        before = {v: rng.choice(("tt", "ff")) for v in ATOM_VARS}
        after = {v: rng.choice(("tt", "ff")) for v in ATOM_VARS}
        before["m"] = rng.choice(auto.statuses)
        after["m"] = rng.choice(auto.statuses)
        assert reward(auto, before, after) == \
            oracles.oracle_reward(req, before, after), (kind, before, after)
    if kind.is_conditional:  # only these read a status atom
        with pytest.raises(EvaluationError):
            reward(auto, BASES[0], {**BASES[0], "m": "I"})


@pytest.mark.parametrize("kind", KINDS, ids=[k.value for k in KINDS])
def test_reward_is_the_product_of_its_parts_exhaustive(kind):
    """reward = r * before-part * after-part = the oracle's table, for
    every status before and after and every truth of the required formula
    before and after and of the cancellation formula after."""
    req = make_req(kind, reward_value=7)
    auto = build_automaton(req)
    paid_before, paid_after = REWARD_PARTS[kind]
    flag = {True: "tt", False: "ff"}
    for st_b, st_a in itertools.product(auto.statuses, repeat=2):
        for s_b, s_a, z_a in itertools.product((True, False), repeat=3):
            before = {"s": flag[s_b], "a": "ff", "z": "ff", "m": st_b}
            after = {"s": flag[s_a], "a": "ff", "z": flag[z_a], "m": st_a}
            product = 7 * paid_before(st_b, s_b) * paid_after(st_a, s_a, z_a)
            assert reward(auto, before, after) == product == \
                oracles.oracle_reward(req, before, after), \
                (st_b, st_a, s_b, s_a, z_a)


def test_reward_scales_linearly():
    for kind in KINDS:
        auto1 = build_automaton(make_req(kind, reward_value=1))
        auto7 = build_automaton(make_req(kind, reward_value=7))
        rng = random.Random(99)
        for _ in range(200):
            before = {v: rng.choice(("tt", "ff")) for v in ATOM_VARS}
            after = {v: rng.choice(("tt", "ff")) for v in ATOM_VARS}
            before["m"] = rng.choice(auto1.statuses)
            after["m"] = rng.choice(auto1.statuses)
            assert reward(auto7, before, after) == \
                7 * reward(auto1, before, after)


def test_pm_trajectory_total_reward():
    """A duration-3 periodic-maintain run: activate, satisfy, hold for the
    whole window. Rewards accrue on compliant (R(*), R(*)) pairs only, so a
    full window at r=5 pays 10."""
    req = make_req(ReqKind.PM, duration=3, reward_value=5)
    auto = build_automaton(req)
    act = {"s": "ff", "a": "tt", "z": "ff"}
    on = {"s": "tt", "a": "ff", "z": "ff"}
    bases = [act, on, on, on, on]

    total = 0
    status = update_action(auto, "I", bases[0])
    prev = dict(bases[0], m=status)
    for base in bases[1:]:
        new_status = update_action(auto, status, base)
        cur = dict(base, m=new_status)
        total += reward(auto, prev, cur)
        prev = cur
        status = new_status
    assert total == 10


def test_um_rewards_every_compliant_pair():
    auto = build_automaton(make_req(ReqKind.UM, reward_value=3))
    on = {"s": "tt", "a": "ff", "z": "ff", "m": "-"}
    off = {"s": "ff", "a": "ff", "z": "ff", "m": "-"}
    assert reward(auto, on, on) == 3
    assert reward(auto, on, off) == 0
    assert reward(auto, off, on) == 0


def test_ua_rewards_on_rising_edge():
    auto = build_automaton(make_req(ReqKind.UA, reward_value=3))
    on = {"s": "tt", "a": "ff", "z": "ff", "m": "-"}
    off = {"s": "ff", "a": "ff", "z": "ff", "m": "-"}
    assert reward(auto, off, on) == 3
    assert reward(auto, on, on) == 0
    assert reward(auto, off, off) == 0
