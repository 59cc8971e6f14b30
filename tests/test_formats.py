"""The obdmdp/1 and obdpolicy/1 writers and readers.

`dump_mdp` and `dump_policy` write whole numeric blocks at once; the
per-entry formatters below are the plain reading of both formats, and the
writers must match them byte for byte. The fuzz tests feed mutated model,
obdmdp/1 and obdpolicy/1 texts to the readers, which may reject them only
with an ObdError, and compare the column readers of both formats with the
line-at-a-time readers of tests/oracles.py.
"""

import hashlib
import json
import random
import re
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from obd.cli import dot_text
from obd.compiler import (
    FORMAT_MDP,
    CompileError,
    StateLimitError,
    compile_model,
    dump_mdp,
    load_mdp,
)
from obd.dsl import KEYWORDS, ObdError, parse_domain, validate
from obd.solver import (
    FORMAT_POLICY,
    Strategy,
    dump_policy,
    load_policy,
    policy_iteration,
    value_iteration,
)

import oracles

ROOT = Path(__file__).parent.parent
sys.path.insert(0, str(ROOT / "bench"))

from models import restaurant_text  # noqa: E402


def reference_dump_mdp(mdp) -> str:
    """obdmdp/1, one line at a time."""
    lines = [FORMAT_MDP,
             f"gamma {float(mdp.gamma)!r}",
             f"states {mdp.n_states}",
             f"actions {mdp.n_actions}",
             f"initial {mdp.initial_index}"]
    for i in range(mdp.n_states):
        atoms = " ".join(f"{k}={v}" for k, v in mdp.space.atoms(i))
        lines.append(f"state {i} {atoms}")
    for action in mdp.actions:
        lines.append(f"action {action.name} {action.cost}")
        for tag, m in (("t", mdp.transitions[action.name]),
                       ("r", mdp.rewards[action.name])):
            lines.extend(f"{tag} {i} {j} {v!r}" for i, j, v in zip(
                m.entry_rows().tolist(), m.indices.tolist(),
                m.csr.data.tolist()))
    lines.append("end")
    return "\n".join(lines) + "\n"


def reference_dump_policy(strategy, mdp) -> str:
    """obdpolicy/1, one line at a time."""
    lines = [FORMAT_POLICY]
    for s in range(mdp.n_states):
        name = mdp.action_names[strategy.actions[s]]
        lines.append(f"{s} {name} {float(strategy.values[s])!r}")
    return "\n".join(lines) + "\n"


def reference_dot_text(mdp, strategy=None, full: bool = False) -> str:
    """DOT, one node and one edge at a time."""
    lines = ["digraph mdp {", "  rankdir=LR;"]
    for i in range(mdp.n_states):
        label = "\\n".join(f"{k}={v}" for k, v in mdp.space.atoms(i))
        lines.append(f'  s{i} [label="{label}"];')
    for i in range(mdp.n_states):
        names = mdp.action_names if full \
            else [mdp.action_names[strategy.actions[i]]]
        for name in names:
            for j, p in sorted(mdp.transitions[name].row(i).items()):
                r = float(mdp.rewards[name].get(i, j))
                lines.append(f'  s{i} -> s{j} '
                             f'[label="{name}, {float(p):g}, {r:+g}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


NON_ASCII = """
    Variable café domain {froid, tiède, chaud}
    Variable prêt
    Action réchauffer if café=froid || café=tiède
        effects <café=chaud prob 0.7> <café=tiède prob 0.3> cost 2
    Action servir if café=chaud effects <prêt> cost 1
    Event refroidir if café=chaud occur prob 0.25 effects <café=tiède>
    ReqID goûter achieve prêt reward 40
    Init { café=froid, !prêt }
"""

# probabilities and rewards whose repr is in scientific notation
SCIENTIFIC = """
    Variable x
    Variable y
    Action a if !x effects <x prob 0.00001> <y prob 0.99999> cost 3
    Action b if x effects <!x> cost 100000000000000000
    Event e if y occur prob 0.00002 effects <!y>
    ReqID m achieve x reward 100000000000000000000
    Init { !x, !y }
"""

# few words, one of them a requirement name, for the fuzz tests
REQUIREMENT = """
    ReqID m maintain x reward 1
    Action a if x effects <x>
    Init { x }
"""


def _text_models():
    yield "toy", (ROOT / "models" / "toy.obd").read_text()
    yield "restaurant", (ROOT / "models" / "restaurant.obd").read_text()
    yield "non-ascii", NON_ASCII
    yield "scientific", SCIENTIFIC
    yield "requirement", REQUIREMENT
    yield "2-table", restaurant_text(2, 0)  # 1,024 states


TEXT_MODELS = dict(_text_models())


def _models():
    for name, text in TEXT_MODELS.items():
        yield name, compile_model(parse_domain(text))
    for seed in range(12):
        yield f"random-{seed}", compile_model(
            oracles.random_model(random.Random(4000 + seed)))


@pytest.fixture(scope="module")
def models():
    return dict(_models())


def _assert_same_outputs(mdp):
    assert dump_mdp(mdp) == reference_dump_mdp(mdp)
    for strategy in (value_iteration(mdp), policy_iteration(mdp)):
        assert dump_policy(strategy, mdp) == \
            reference_dump_policy(strategy, mdp)


def test_writers_match_reference_formatters(models):
    for name, mdp in models.items():
        _assert_same_outputs(mdp)


def test_models_reach_the_edge_cases(models):
    """The models above reach what the block writer must get right."""
    texts = {name: dump_mdp(mdp) for name, mdp in models.items()}
    assert any(ord(c) > 127 for c in texts["non-ascii"])
    assert "1e-05" in texts["scientific"]
    assert "1e+17" in texts["scientific"]
    assert models["2-table"].n_states > 100
    rewards = np.concatenate([m.csr.data for m in
                              models["restaurant"].rewards.values()])
    assert (rewards < 0).any() and (rewards == 0).any()


def test_writers_match_reference_after_reload(models):
    for name in ("restaurant", "non-ascii", "scientific"):
        _assert_same_outputs(load_mdp(dump_mdp(models[name])))


def test_dot_matches_reference_formatter(models):
    for name in ("toy", "restaurant", "non-ascii"):
        for mdp in (models[name], load_mdp(dump_mdp(models[name]))):
            strategy = value_iteration(mdp)
            assert dot_text(mdp, strategy) == \
                reference_dot_text(mdp, strategy)
            assert dot_text(mdp, full=True) == \
                reference_dot_text(mdp, full=True)


def test_policy_values_keep_their_own_text(toy_mdp):
    """Values equal as floats but printed differently (0.0 and -0.0)
    keep their own text."""
    values = np.array([0.0, -0.0, 1e-05, -2.5, 1e+300, 0.1, 0.0, -0.0])
    strategy = Strategy(actions=np.array([0, 1, 2, 0, 1, 2, 0, 1]),
                        values=values, iterations=0, residual=0.0,
                        method="loaded")
    text = dump_policy(strategy, toy_mdp)
    assert text == reference_dump_policy(strategy, toy_mdp)
    assert text.splitlines()[1:3] == ["0 noop 0.0", "1 a -0.0"]


# ---------------------------------------------------------------------------
# Round trips beyond the toy model


@pytest.mark.parametrize("text", [
    TEXT_MODELS["restaurant"],
    restaurant_text(1, 0, within=3),
], ids=["restaurant", "1-table-within-3"])
def test_mdp_round_trip_is_byte_identical(text):
    dumped = dump_mdp(compile_model(parse_domain(text)))
    assert dump_mdp(load_mdp(dumped)) == dumped


def test_loaded_matrices_export_the_floats_read(toy_mdp):
    """A loaded matrix exports the floats of its text, which are the
    floats of its exact values; a -0.0 stays -0.0."""
    text = dump_mdp(toy_mdp).replace("\nr 0 0 0.0\n", "\nr 0 0 -0.0\n", 1)
    assert "r 0 0 -0.0" in text
    loaded = load_mdp(text)
    assert dump_mdp(loaded) == text
    for name in loaded.action_names:
        for m in (loaded.transitions[name], loaded.rewards[name]):
            assert m.csr.data.tolist() == [
                float(Fraction(n, m.denominator))
                for n in m.numerators.tolist()]


@pytest.mark.parametrize("gamma, shown", [
    ("1e400", "inf"), ("1e999999999", "inf"), ("1e-400", "0.0"),
    ("-1e400", "-inf"), ("nan", "nan"),
])
def test_load_mdp_rejects_gamma_beyond_float_range(toy_mdp, gamma, shown):
    text = dump_mdp(toy_mdp).replace("gamma 0.95\n", f"gamma {gamma}\n")
    with pytest.raises(CompileError,
                       match=rf"^line 2: discount factor {shown} outside"):
        load_mdp(text)


def test_load_mdp_names_the_first_state_line_out_of_order(toy_mdp):
    lines = dump_mdp(toy_mdp).splitlines(keepends=True)
    assert lines[7:9] == ["state 2 x=tt y=ff m=I\n", "state 3 x=tt y=ff m=R\n"]
    lines[7:9] = ["state 2 x=tt y=ff m=R\n", "state 3 x=tt y=ff m=I\n"]
    with pytest.raises(CompileError, match=re.escape(
            "line 8: expected 'state 2 x=tt y=ff m=I', "
            "got: 'state 2 x=tt y=ff m=R'")):
        load_mdp("".join(lines))


@pytest.mark.parametrize("states, message", [
    # x=b y=c is missing; at the end, the line after the states differs
    (["x=a y=c", "x=a y=d", "x=b y=d"],
     "line 8: expected 'state 2 x=b y=c', got: 'state 2 x=b y=d'"),
    (["x=a y=c", "x=a y=d", "x=b y=c"],
     "line 9: expected 'state 3 x=b y=d', got: 'action noop 0'"),
    (["x=a", "x=a"], "line 7: state 1 repeats an earlier assignment"),
], ids=["missing-inside", "missing-last", "repeated"])
def test_load_mdp_names_the_state_line_that_differs(states, message):
    text = "".join(
        ["obdmdp/1\ngamma 0.5\n", f"states {len(states)}\n",
         "actions 1\ninitial 0\n"]
        + [f"state {i} {atoms}\n" for i, atoms in enumerate(states)]
        + ["action noop 0\nend\n"])
    with pytest.raises(CompileError, match=f"^{re.escape(message)}$"):
        load_mdp(text)


# ---------------------------------------------------------------------------
# The benchmark's stored outputs


BENCH_MODELS = {  # (workload, model key) -> model text
    **{("restaurant-2t", str(k)): restaurant_text(2, k) for k in range(3)},
    **{("deadline-2t", str(k)): restaurant_text(2, k, within=3)
       for k in range(3)},
    ("simulate-restaurant", "restaurant.obd"): TEXT_MODELS["restaurant"],
}


@pytest.mark.parametrize("workload, key", BENCH_MODELS,
                         ids=[f"{w}-{k}" for w, k in BENCH_MODELS])
def test_bench_models_dump_the_stored_digests(workload, key):
    """The sha256 of each benchmark model's obdmdp/1 text, as stored in
    bench/expected.json: an output change fails here, not only in a
    benchmark run."""
    expected = json.loads((ROOT / "bench" / "expected.json").read_text())
    mdp_text = dump_mdp(compile_model(parse_domain(
        BENCH_MODELS[workload, key])))
    assert hashlib.sha256(mdp_text.encode()).hexdigest() == \
        expected["mdp_sha256"][workload][key]


# ---------------------------------------------------------------------------
# Fuzzing the readers

TOKENS = (
    list(" \n\t{}<>()!,.=&|/#-_+:;") + ["||", "0", "1", "7", "x", "é", "\x00"]
    + ["²", "٣", "½"]  # a digit, a decimal digit, a numeric: only ٣ is a number
    + sorted(KEYWORDS) + ["tt", "ff"]
    + ["state", "action", "t", "r", "end", "gamma", "states", "actions",
       "initial", "noop", "nan", "inf", "-inf", "1e400", "-1", "0.5",
       "99999999999999999999", "1.0", "obdmdp/1", "obdpolicy/1"]
)

WORD = re.compile(r"[^\W\d]\w*")


@st.composite
def mutated(draw, text: str) -> str:
    """`text` after a few edits: a span deleted or duplicated, a line
    repeated, a token inserted, or a name replaced by another name of the
    text (such as a variable by a requirement). Inserted tokens are those
    of any format or words of the text."""
    tokens = st.sampled_from(TOKENS) | st.sampled_from(text.split())
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(("delete", "duplicate", "line", "insert",
                                     "rename", "rename")))
        names = [w for w in WORD.finditer(text) if w.group() not in KEYWORDS]
        if kind == "rename" and names:
            i, j = draw(st.sampled_from(names)).span()
            other = draw(st.sampled_from(sorted({w.group() for w in names})))
            text = text[:i] + other + text[j:]
            continue
        if kind == "line":  # such as a declaration written twice
            lines = text.splitlines(keepends=True) or [""]
            k = draw(st.integers(0, len(lines) - 1))
            text = "".join(lines[:k + 1] + lines[k:])
            continue
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 40)))
        if kind == "delete":
            text = text[:i] + text[j:]
        elif kind == "duplicate":
            text = text[:i] + text[i:j] + text[i:]
        else:
            text = text[:i] + draw(tokens) + text[i:]
    return text


FUZZ = settings(max_examples=150, deadline=None)


def check_model_text(text: str) -> None:
    """Parse, validate and compile `text`, which may fail only with an
    ObdError: compile_model raises validate's first error, and a model
    validate passes compiles, naming each state variable and action once,
    or raises an ObdError of its own. So a check missing from validate
    shows as another exception or as a name compiled twice."""
    try:
        model = parse_domain(text)
    except ObdError:
        return
    errors = [d.message for d in validate(model) if d.severity == "error"]
    if errors:
        with pytest.raises(CompileError) as err:
            compile_model(model, limit=10_000)
        assert str(err.value) == errors[0]
        return
    try:
        mdp = compile_model(model, limit=10_000)
    except ObdError:
        return
    for names in (mdp.space.names, mdp.action_names):
        assert len(set(names)) == len(names), names


@pytest.mark.parametrize("name", ["toy", "restaurant", "requirement"])
@FUZZ
@given(data=st.data())
def test_fuzz_parse_domain_raises_only_obd_errors(name, data):
    check_model_text(data.draw(mutated(TEXT_MODELS[name])))


# a number follows each of these; NUMBERS has those models/*.obd lack
NUMBER_POSITION = re.compile(
    r"(\b(?:cost|prob|reward|for|within|after)\b|/)\s*(\d+(?:\.\d+)?)")
NUMBERS = """
    Variable x
    Action a if x effects <!x prob 1/3>
    ReqID m maintain x for 2 after 3 if !x reward 5
    ReqID n achieve x within 4 if x reward 1
    Init { x }
"""


@pytest.mark.parametrize("char", ["²", "½", "٣", "Ⅻ"])
def test_digit_like_characters_at_number_positions(char):
    """Each character replaces, and goes before, every number of the
    texts; the parser, validator and compiler raise only ObdError."""
    texts = [p.read_text() for p in sorted((ROOT / "models").glob("*.obd"))]
    found = [(text, m) for text in texts + [NUMBERS]
             for m in NUMBER_POSITION.finditer(text)]
    assert {m.group(1) for _, m in found} == {
        "cost", "prob", "reward", "for", "within", "after", "/"}
    for text, m in found:
        i, j = m.span(2)
        for edited in (text[:i] + char + text[j:],
                       text[:i] + char + text[i:]):
            check_model_text(edited)


@pytest.fixture(scope="module")
def toy_texts(toy_mdp):
    return dump_mdp(toy_mdp), dump_policy(value_iteration(toy_mdp), toy_mdp)


@FUZZ
@given(data=st.data())
def test_fuzz_load_mdp_raises_only_obd_errors(toy_texts, data):
    text = data.draw(mutated(toy_texts[0]))
    try:
        load_mdp(text)
    except ObdError:
        pass


@FUZZ
@given(data=st.data())
def test_fuzz_load_policy_raises_only_obd_errors(toy_mdp, toy_texts, data):
    text = data.draw(mutated(toy_texts[1]))
    try:
        load_policy(text, toy_mdp)
    except ObdError:
        pass


# ---------------------------------------------------------------------------
# The column readers against the line readers of tests/oracles.py


def _read_both(read, oracle):
    """Both readers' results; or None after checking that both raise an
    ObdError, each naming a line unless both reject the first line as not
    the format or the state count as over the limit."""
    try:
        want = oracle()
    except ObdError as err:
        with pytest.raises(type(err)) as got:
            read()
        if str(err).startswith("not an ") or isinstance(err, StateLimitError):
            assert str(got.value) == str(err)
        else:
            assert re.match(r"line \d+: ", str(err))
            assert re.match(r"line \d+: ", str(got.value))
        return None
    return read(), want


def _bits(values) -> list:
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


def _assert_same_mdp(mdp, want):
    assert mdp.gamma == want["gamma"]
    assert (mdp.n_states, mdp.initial_index, mdp.space) == \
        (want["states"], want["initial"], want["space"])
    assert [(a.name, a.cost) for a in mdp.actions] == list(want["actions"])
    for name in mdp.action_names:
        for m, entries in ((mdp.transitions[name], want["transitions"][name]),
                           (mdp.rewards[name], want["rewards"][name])):
            at = sorted(entries)
            assert list(zip(m.entry_rows().tolist(), m.indices.tolist())) \
                == at
            assert [Fraction(n, m.denominator)
                    for n in m.numerators.tolist()] == \
                [Fraction(entries[p]) for p in at]
            assert _bits(m.csr.data) == _bits([entries[p] for p in at])


@FUZZ
@given(data=st.data())
def test_fuzz_load_mdp_matches_the_line_reader(toy_texts, data):
    text = data.draw(mutated(toy_texts[0]))
    both = _read_both(lambda: load_mdp(text),
                      lambda: oracles.oracle_load_mdp(text))
    if both:
        _assert_same_mdp(*both)


@FUZZ
@given(data=st.data())
def test_fuzz_load_policy_matches_the_line_reader(toy_mdp, toy_texts, data):
    text = data.draw(mutated(toy_texts[1]))
    both = _read_both(lambda: load_policy(text, toy_mdp),
                      lambda: oracles.oracle_load_policy(
                          text, toy_mdp.action_names, toy_mdp.n_states))
    if both:
        strategy, want = both
        assert strategy.actions.tolist() == [want[s][0] for s in range(8)]
        assert _bits(strategy.values) == _bits([want[s][1] for s in range(8)])


def test_line_readers_agree_on_the_texts_written(models):
    for name, mdp in models.items():
        text = dump_mdp(mdp)
        _assert_same_mdp(load_mdp(text), oracles.oracle_load_mdp(text))


# Floats whose repr has an exponent, a sign of zero or a subnormal value,
# in matrices of one denominator (integer rewards) and of very different
# ones; written in the order dump_mdp writes them.
FLOATS_MDP = """obdmdp/1
gamma 0.95
states 4
actions 2
initial 0
state 0 x=a
state 1 x=b
state 2 x=c
state 3 x=d
action noop 0
t 0 0 0.0
t 0 1 5e-324
t 0 2 1.0
t 1 2 1e-05
t 1 3 0.99999
t 2 3 1.0
t 3 3 1.0
r 0 0 -0.0
r 0 1 0.0
r 1 0 5e-324
r 1 2 -1e-05
r 2 3 1e+17
r 3 0 -2.5
action go 7
t 0 0 0.25
t 0 3 0.75
t 1 1 1.0
t 2 2 1.0
t 3 3 1.0
r 0 0 3.0
r 1 1 -100.0
r 2 2 0.0
r 3 3 -0.0
end
"""
FLOATS_POLICY = """obdpolicy/1
0 noop 0.0
1 go -0.0
2 noop 5e-324
3 go 1e+17
"""


def test_loaded_floats_keep_their_exact_values_and_texts():
    mdp = load_mdp(FLOATS_MDP)
    assert dump_mdp(mdp) == FLOATS_MDP
    for line in FLOATS_MDP.splitlines():
        tag, *rest = line.split()
        if tag == "action":
            action = rest[0]
        elif tag in ("t", "r"):
            m = (mdp.transitions if tag == "t" else mdp.rewards)[action]
            i, j, value = int(rest[0]), int(rest[1]), float(rest[2])
            assert m.get(i, j) == Fraction(value)
            k = m.indptr[i] + m.indices[m.indptr[i]:m.indptr[i + 1]] \
                .tolist().index(j)
            assert _bits([m.csr.data[k]]) == _bits([value])
    assert mdp.rewards["go"].denominator == 1
    assert mdp.rewards["go"].numerators.dtype == np.int64
    strategy = load_policy(FLOATS_POLICY, mdp)
    assert dump_policy(strategy, mdp) == FLOATS_POLICY
    assert _bits(strategy.values) == _bits([0.0, -0.0, 5e-324, 1e+17])


@pytest.mark.parametrize("space", [
    "\t", "  ", " \t  ", "\xa0", "\x1f", "\u3000",
], ids=["tab", "spaces", "mixed", "no-break", "unit-separator",
        "ideographic"])
def test_readers_split_fields_on_any_whitespace(space):
    """Fields may be separated, led and trailed by any run of whitespace
    that does not break the line, as str.split allows; the first line must
    still read the format."""
    def spaced(text):
        first, *rest = text.splitlines()
        return "\n".join([first] + [space + line.replace(" ", space) + space
                                    for line in rest]) + "\n"

    mdp = load_mdp(spaced(FLOATS_MDP))
    assert dump_mdp(mdp) == FLOATS_MDP
    assert dump_policy(load_policy(spaced(FLOATS_POLICY), mdp), mdp) == \
        FLOATS_POLICY


@pytest.mark.parametrize("workload, key", BENCH_MODELS,
                         ids=[f"{w}-{k}" for w, k in BENCH_MODELS])
def test_bench_models_read_back_byte_identical(workload, key):
    text = dump_mdp(compile_model(parse_domain(BENCH_MODELS[workload, key])))
    assert dump_mdp(load_mdp(text)) == text
