"""Parser, formatter, evaluation and validation tests."""

import random
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from obd import sim
from obd.compiler import CompileError, compile_model
from obd.dsl import (
    And,
    Atom,
    BoolLit,
    Effect,
    EvaluationError,
    EventBranch,
    EventDesc,
    MAX_CONDITION_DEPTH,
    Not,
    Or,
    ParseError,
    ReqKind,
    VariableDecl,
    _tokenize,
    eval_formula,
    formula_depth,
    format_model,
    parse_domain,
    validate,
)

import oracles


# ---------------------------------------------------------------------------
# Formula evaluation


VARS = ("p", "q", "r")


def atoms_strategy():
    return st.fixed_dictionaries({v: st.sampled_from(("tt", "ff"))
                                  for v in VARS})


def formula_strategy(depth=3):
    base = st.one_of(
        st.sampled_from([Atom(v, val) for v in VARS for val in ("tt", "ff")]),
        st.sampled_from([BoolLit(True), BoolLit(False)]))
    if depth == 0:
        return base
    sub = formula_strategy(depth - 1)
    return st.one_of(
        base,
        st.builds(Not, sub),
        st.builds(And, sub, sub),
        st.builds(Or, sub, sub))


@given(formula_strategy(), formula_strategy(), atoms_strategy())
def test_de_morgan(f, g, atoms):
    assert eval_formula(Not(And(f, g)), atoms) == \
        eval_formula(Or(Not(f), Not(g)), atoms)
    assert eval_formula(Not(Or(f, g)), atoms) == \
        eval_formula(And(Not(f), Not(g)), atoms)


@given(formula_strategy(), atoms_strategy())
def test_double_negation(f, atoms):
    assert eval_formula(Not(Not(f)), atoms) == eval_formula(f, atoms)


@given(formula_strategy(), atoms_strategy())
def test_eval_matches_oracle(f, atoms):
    assert eval_formula(f, atoms) == oracles.holds(f, atoms)


# ---------------------------------------------------------------------------
# Parsing the bundled models


def test_toy_parses(toy_model):
    assert [v.name for v in toy_model.variables] == ["x", "y"]
    assert all(v.domain == ("tt", "ff") for v in toy_model.variables)
    assert [a.name for a in toy_model.actions] == ["a", "b"]
    assert toy_model.actions[0].cost == 10
    assert toy_model.events[0].branches[0].occurrence_probability == \
        Fraction(1, 5)
    req = toy_model.requirements[0]
    assert req.kind is ReqKind.CA
    assert req.reward == 100
    assert dict(toy_model.initial_state) == {"x": "ff", "y": "ff"}


def test_toy_effect_probabilities(toy_model):
    effs = toy_model.actions[0].branches[0].effects
    assert [e.probability for e in effs] == [Fraction(4, 5), Fraction(1, 5)]
    assert effs[0].assignments == (("x", "tt"),)


def test_restaurant_parses(restaurant_model):
    assert len(restaurant_model.variables) == 3
    assert restaurant_model.variable("table1").domain == \
        ("empty", "occupied", "requested", "received")
    assert len(restaurant_model.actions) == 4
    assert len(restaurant_model.events) == 4
    # multi-branch event
    assert len(restaurant_model.events[1].branches) == 2


def test_rational_probability_literal():
    model = parse_domain("""
        Variable x
        Action a if !x effects <x prob 4/5>
        Action b if false effects <x prob 1/3>
        Init { !x }
    """)
    assert [a.branches[0].effects[0].probability for a in model.actions] \
        == [Fraction(4, 5), Fraction(1, 3)]
    assert model.actions[1].branches[0].precondition == BoolLit(False)
    # a finite decimal is written as one, any other fraction as p/q
    text = format_model(model)
    assert "<x=tt prob 0.8>" in text and "if false effects <x=tt prob 1/3>" \
        in text
    assert parse_domain(text) == model


def test_implicit_boolean_declaration():
    # `z` is only referenced, never declared: it becomes a boolean variable
    model = parse_domain("""
        Variable x
        Action a if x & !z effects <z>
        Init { x, !z }
    """)
    names = [v.name for v in model.variables]
    assert names == ["x", "z"]
    assert model.variable("z").domain == ("tt", "ff")


# ---------------------------------------------------------------------------
# Round trips


def test_format_round_trip_toy(toy_model):
    assert parse_domain(format_model(toy_model)) == toy_model


def test_format_round_trip_restaurant(restaurant_model):
    assert parse_domain(format_model(restaurant_model)) == restaurant_model


@pytest.mark.parametrize("seed", range(25))
def test_format_round_trip_random(seed):
    """Formatting reaches a fixpoint after one parse: the generated models
    may contain right-nested conjunction chains that reparse in the
    grammar's left-associated shape, so compare at the text level."""
    model = oracles.random_model(random.Random(seed))
    text = format_model(model)
    reparsed = parse_domain(text)
    assert format_model(reparsed) == text
    assert parse_domain(format_model(reparsed)) == reparsed


# The clauses that spell each requirement kind, in format_model's order.
KIND_CLAUSES = {
    ReqKind.UA: "achieve x reward 5",
    ReqKind.UM: "maintain x reward 5",
    ReqKind.CA: "achieve x if !x unless y reward 5",
    ReqKind.CM: "maintain x if x reward 5",
    ReqKind.DEA: "achieve x after 2 if !x reward 5",
    ReqKind.DFA: "achieve x within 2 if !x unless y reward 5",
    ReqKind.DEM: "maintain x after 2 if x reward 5",
    ReqKind.DFM: "maintain x within 2 if x reward 5",
    ReqKind.PM: "maintain x for 2 if x reward 5",
    ReqKind.PDEM: "maintain x for 2 after 3 if x unless y reward 5",
    ReqKind.PDFM: "maintain x for 2 within 3 if x reward 5",
    ReqKind.RPM: "maintain x for 2 if x reward_once 5",
    ReqKind.RPDEM: "maintain x for 2 after 3 if x reward_once 5",
    ReqKind.RPDFM: "maintain x for 2 within 3 if x unless y reward_once 5",
}


@pytest.mark.parametrize("kind", list(ReqKind), ids=lambda k: k.value)
def test_every_kind_reads_from_its_clauses(kind):
    clauses = KIND_CLAUSES[kind]
    model = parse_domain(f"Variable x\nReqID r {clauses}\nInit {{ x, !y }}")
    assert model.requirements[0].kind is kind
    assert f"\nReqID r {clauses}\n" in format_model(model)


# ---------------------------------------------------------------------------
# Parse errors and validation errors carry positions


def _first_error(text: str) -> tuple:
    """Where the first error `obd compile` reports for `text` comes from
    ("parse" or "validate"), with its message, line and column: the parser
    reads only the grammar, validate checks what the parsed model means."""
    try:
        model = parse_domain(text)
    except ParseError as err:
        return "parse", err.message, err.line, err.col
    first = next(d for d in validate(model) if d.severity == "error")
    return "validate", first.message, first.line, first.col


@pytest.mark.parametrize("text, line", [
    ("Variable", 1),
    ("Variable x domain {a,}\nInit { x=a }", 1),
    ("Variable x\nAction a if effects <x>\nInit { !x }", 2),
    ("Variable x\nAction a if !x effects <x prob 1.5>\nInit { !x }", 2),
    ("Variable x\nInit { }", 2),
])
def test_parse_errors_positioned(text, line):
    source, _, got_line, col = _first_error(text)
    # a probability outside (0,1] and an Init that misses a variable are
    # errors of the model, not of its grammar
    assert source == ("validate" if "prob 1.5" in text or "{ }" in text
                      else "parse")
    assert got_line == line
    assert col >= 1


X = "Variable x\n"

# What the model means, checked by validate on the parsed text
MODEL_ERRORS = [
    (X + "Action a if x effects <!x x>\nInit { x }",
     "action 'a': variable 'x' assigned twice in one effect", 2, 8),
    (X + "Event e if x effects <!x prob 0.6> <x prob 0.5>\nInit { x }",
     "event 'e': effect probabilities sum to 11/10 > 1", 2, 7),
    ("Variable m domain {a, b, a}\nInit { m=a }",
     "duplicate value in domain of 'm'", 1, 10),
    (X + "ReqID r maintain x for 0 if x\nInit { x }",
     "requirement 'r': duration must be positive, not 0", 2, 7),
    (X + "ReqID r achieve x within 0 if !x\nInit { x }",
     "requirement 'r': deadline must be positive, not 0", 2, 7),
    (X + "ReqID x maintain true reward 1\nInit { x }",
     "'x' names both a variable and a requirement", 2, 7),
    # an Init error is placed at the Init keyword
    (X + "Init { x, !x }", "variable 'x' assigned twice in Init", 2, 1),
]


@pytest.mark.parametrize("text, message, line, col", MODEL_ERRORS + [
    (X + "Action a if x | x effects <!x>\nInit { x }",
     "single '|' (use '||')", 2, 15),
    (X + "Action a if x effects <!x prob y>\nInit { x }",
     "expected probability", 2, 32),
    (X + "Action a if x effects <!x prob 1/0.5>\nInit { x }",
     "expected integer denominator", 2, 34),
    (X + "Action a if x effects <!x prob 1/0>\nInit { x }",
     "zero denominator", 2, 34),
    (X + "Action a if x effects <prob 0.5>\nInit { x }",
     "empty effect group", 2, 23),
    (X + "ReqID r achieve x within 2\nInit { x }",
     "deadline/duration requirements need an 'if' clause", 2, 7),
    (X + "ReqID r maintain x if x reward_once 1\nInit { x }",
     "'reward_once' needs a 'for' duration", 2, 7),
    (X + "ReqID r achieve x for 2 if !x\nInit { x }",
     "'for' duration is only for maintain requirements", 2, 7),
    # reward_once needs a duration, so an achieve requirement with one
    # fails on the duration first
    (X + "ReqID r achieve x for 2 if !x reward_once 1\nInit { x }",
     "'for' duration is only for maintain requirements", 2, 7),
    (X + "Init { x }\nInit { x }", "duplicate Init block", 3, 1),
])
def test_parse_error_messages(text, message, line, col):
    source = "validate" if (text, message, line, col) in MODEL_ERRORS \
        else "parse"
    assert _first_error(text) == (source, message, line, col)


@pytest.mark.parametrize("cost, error", [
    ("²", "unexpected character '²'"),  # a digit, but not a decimal one
    ("½", "unexpected character '½'"),  # numeric, but not a letter
    ("٣", None),  # a decimal digit: reads as 3
])
def test_numbers_are_decimal_digits(cost, error):
    text = f"Variable x\nAction a if x effects <!x> cost {cost}\nInit {{ x }}"
    if error is None:
        assert parse_domain(text).actions[0].cost == 3
        return
    with pytest.raises(ParseError) as err:
        parse_domain(text)
    assert (err.value.message, err.value.line, err.value.col) == (error, 2, 33)


def test_end_of_text_after_a_comment_is_positioned_at_its_end():
    with pytest.raises(ParseError) as err:
        parse_domain("Variable x # no Init")
    assert (err.value.line, err.value.col) == (1, 21)


@pytest.mark.parametrize("ending", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_line_endings_give_the_same_token_positions(ending):
    # a comment and a blank line, so that both end at a line ending
    text = ((Path(__file__).parent.parent / "models" / "restaurant.obd")
            .read_text().replace("\n", " # note\n\n", 3))
    assert _tokenize(text.replace("\n", ending)) == _tokenize(text)
    assert _first_error(f"Variable x{ending}Variable x{ending}Init {{ x }}") \
        == ("validate", "duplicate variable 'x'", 2, 10)


def test_missing_init_rejected():
    with pytest.raises(ParseError):
        parse_domain("Variable x\n")


def test_incomplete_init_rejected():
    assert _first_error("Variable x\nVariable y\nInit { x }\n") == \
        ("validate", "Init does not assign: y", 3, 1)


def test_duplicate_names_rejected():
    assert _first_error("Variable x\nVariable x\nInit { x }\n") == \
        ("validate", "duplicate variable 'x'", 2, 10)
    assert _first_error("Variable x\n"
                        "Action a if x effects <!x>\n"
                        "Action a if !x effects <x>\n"
                        "Init { x }\n") == \
        ("validate", "duplicate action 'a'", 3, 8)


def test_unknown_domain_value_rejected():
    assert _first_error("Variable m domain {a,b}\n"
                        "Action go if m=c effects <m=a>\n"
                        "Init { m=a }\n") == \
        ("validate", "action 'go': unknown value 'c' for variable 'm'", 2, 8)


def test_validate_reports_every_error_of_a_parsed_model():
    """Each requirement named as a variable is an error, not an implicit
    boolean, and the errors of one text are all reported, in source
    order."""
    model = parse_domain("Variable x\n"
                         "Action a if x & !m effects <m>\n"
                         "ReqID m maintain x reward 1\n"
                         "Init { x, m }\n")
    assert [v.name for v in model.variables] == ["x"]
    assert [(d.message, d.line, d.col) for d in validate(model)
            if d.severity == "error"] == [
        ("action 'a': requirement 'm' used as a state variable", 2, 8),
        ("action 'a': requirement 'm' used as a state variable", 2, 8),
        ("Init: requirement 'm' used as a state variable", 4, 1)]
    # in source order: compile_model names the error that comes first
    with pytest.raises(CompileError, match="^action 'a': requirement 'm' "
                       "used as a state variable$"):
        compile_model(model)


# ---------------------------------------------------------------------------
# Validation diagnostics


def _severities(model):
    return [d.severity for d in validate(model)]


def test_validate_clean_models(toy_model, restaurant_model):
    assert "error" not in _severities(toy_model)
    assert "error" not in _severities(restaurant_model)


def test_validate_reports_overlapping_preconditions():
    model = parse_domain("""
        Variable x
        Action a
            if x effects <!x>
            if x effects <!x prob 0.5>
        Init { x }
    """)
    diags = validate(model)
    assert any(d.severity in ("warning", "error") and "a" in d.message
               for d in diags)


def test_validate_reports_zero_probability_effect():
    # a model built in code can carry `prob 0` too; validate must flag it
    model = parse_domain("""
        Variable x
        Action a if x effects <!x>
        Init { x }
    """)
    action = model.actions[0]
    branch = action.branches[0]
    effect = branch.effects[0]
    broken = replace(model, actions=(replace(action, branches=(replace(
        branch, effects=(replace(effect, probability=Fraction(0)),)),)),))
    assert any(d.severity == "error" and "probability" in d.message.lower()
               for d in validate(broken))


def test_validate_reports_never_assigned_value():
    model = parse_domain("""
        Variable m domain {a,b}
        Action go if m=a effects <m=a>
        Init { m=a }
    """)
    diags = validate(model)
    assert any(d.severity == "info" and "'b'" in d.message for d in diags)


def test_diagnostic_render_format():
    model = parse_domain("""
        Variable m domain {a,b}
        Action go if m=a effects <m=a>
        Init { m=a }
    """)
    diags = validate(model)
    assert diags, "expected at least one diagnostic"
    text = diags[0].render("m.obd")
    head, _, rest = text.partition(": ")
    parts = head.split(":")
    assert parts[0] == "m.obd"
    assert parts[1].isdigit() and parts[2].isdigit()
    assert rest.split(":")[0] in ("error", "warning", "info")


def test_validate_places_diagnostics_at_declarations():
    model = parse_domain(
        "Variable m domain {a, b}\n"
        "Action go\n"
        "    if m=a effects <m=a>\n"
        "    if m=a effects <m=a prob 0.5>\n"
        "Event e if m=a effects <z>\n"
        "ReqID r maintain m=a for 2 if m=a reward 1\n"
        "Init { m=a, z }\n")
    # validate checks models built in code too; replace keeps the position
    broken = replace(model, requirements=(
        replace(model.requirements[0], duration=None),))
    assert sorted(d.render("m.obd") for d in validate(broken)) == [
        "m.obd:1:10: info: value 'b' of variable 'm' is never assigned",
        "m.obd:2:8: warning: action 'go': overlapping preconditions "
        "(m=a repeated)",
        # z is an implicit boolean, first referenced by event e
        "m.obd:5:7: info: value 'ff' of variable 'z' is never assigned",
        "m.obd:6:7: error: requirement 'r': duration missing for kind PM",
    ]


BASE = parse_domain("Variable x\n"
                    "Action a if x effects <!x>\n"
                    "ReqID r achieve x within 2 if !x reward 1\n"
                    "Init { x }\n")


def _edit_requirement(**changes):
    return lambda m: replace(m, requirements=(
        replace(m.requirements[0], **changes),))


def _effects(*effects):
    return lambda m: replace(m, actions=(replace(m.actions[0], branches=(
        replace(m.actions[0].branches[0], effects=effects),)),))


def _two_effects(m):
    effect = Effect((("x", "ff"),), Fraction(3, 5))
    return _effects(effect, effect)(m)


def _with_precondition(f):
    return lambda m: replace(m, actions=(replace(m.actions[0], branches=(
        replace(m.actions[0].branches[0], precondition=f),)),))


def _twice(field):
    """The model with each declaration of `field` repeated."""
    return lambda m: replace(m, **{field: getattr(m, field) * 2})


def _init(*items):
    return lambda m: replace(m, initial_state=items)


def _with_m(*domain):
    """The model with a variable m of this domain, m=a in Init."""
    return lambda m: replace(
        m, variables=m.variables + (VariableDecl("m", domain),),
        initial_state=m.initial_state + (("m", "a"),))


EVENT = EventDesc("e", (EventBranch(Atom("x", "ff"), Fraction(1, 2), (
    Effect((("x", "tt"),)),)),))


@pytest.mark.parametrize("edit, message", [
    (_edit_requirement(kind=ReqKind.UA, deadline=None),
     "requirement 'r': activation clause forbidden for unconditional "
     "kind UA"),
    (_edit_requirement(kind=ReqKind.UM, deadline=None, activation=None,
                       cancellation=Atom("x", "ff")),
     "requirement 'r': cancellation clause forbidden for unconditional "
     "kind UM"),
    (_edit_requirement(kind=ReqKind.CA, deadline=None, activation=None),
     "requirement 'r': kind CA needs an activation clause"),
    (_edit_requirement(deadline=None),
     "requirement 'r': deadline missing for kind DFA"),
    (_edit_requirement(kind=ReqKind.CA),
     "requirement 'r': deadline forbidden for kind CA"),
    (_edit_requirement(deadline=0),
     "requirement 'r': deadline must be positive, not 0"),
    (_edit_requirement(kind=ReqKind.PM, deadline=None, duration=0),
     "requirement 'r': duration must be positive, not 0"),
    (_edit_requirement(reward=-1), "requirement 'r': negative reward"),
    (_two_effects, "action 'a': effect probabilities sum to 6/5 > 1"),
    # names and values
    (_twice("variables"), "duplicate variable 'x'"),
    (_twice("actions"), "duplicate action 'a'"),
    (lambda m: _twice("events")(replace(m, events=(EVENT,))),
     "duplicate event 'e'"),
    (_twice("requirements"), "duplicate requirement 'r'"),
    (_edit_requirement(name="x"),
     "'x' names both a variable and a requirement"),
    (_init(), "Init does not assign: x"),
    (_init(("x", "tt"), ("x", "ff")), "variable 'x' assigned twice in Init"),
    (_init(("x", "tt"), ("y", "tt")), "Init: unknown variable 'y'"),
    (_init(("x", "maybe"),), "Init: unknown value 'maybe' for variable 'x'"),
    (_with_precondition(Atom("y", "tt")), "action 'a': unknown variable 'y'"),
    (_edit_requirement(required=Or(Atom("x", "tt"), Atom("x", "maybe"))),
     "requirement 'r': unknown value 'maybe' for variable 'x'"),
    (_effects(Effect((("z", "tt"),))), "action 'a': unknown variable 'z'"),
    (_effects(Effect((("x", "maybe"),))),
     "action 'a': unknown value 'maybe' for variable 'x'"),
    (_with_precondition(Atom("r", "tt")),
     "action 'a': requirement 'r' used as a state variable"),
    # compiled as 3 states of a 2-value variable before validate checked it
    (_with_m("a", "b", "a"), "duplicate value in domain of 'm'"),
    # compiled as if only m=a were assigned before validate checked it
    (lambda m: _effects(Effect((("m", "b"), ("m", "a"))))(
        _with_m("a", "b")(m)),
     "action 'a': variable 'm' assigned twice in one effect"),
])
def test_validate_reports_errors_of_models_built_in_code(edit, message):
    """Each error alone, from validate and as compile_model's error."""
    assert "error" not in _severities(BASE)
    broken = edit(BASE)
    errors = [d.message for d in validate(broken) if d.severity == "error"]
    assert errors == [message]
    with pytest.raises(CompileError) as err:
        compile_model(broken)
    assert str(err.value) == message


# ---------------------------------------------------------------------------
# Condition depth


def deep_condition(shape: str, levels: int) -> str:
    """A condition over x nested `levels` levels deep in one of four
    shapes."""
    return {"not": "!" * levels + "x",
            "parentheses": "(" * levels + "x" + ")" * levels,
            "and": " & ".join(["x"] * (levels + 1)),
            "or": " || ".join(["x"] * (levels + 1))}[shape]


DEPTH_SHAPES = ("not", "parentheses", "and", "or")


@pytest.mark.parametrize("shape", DEPTH_SHAPES)
def test_condition_depth_is_bounded(shape):
    def model_text(levels):
        return (f"Variable x\nAction a if {deep_condition(shape, levels)} "
                "effects <!x>\nInit { x }\n")

    model = parse_domain(model_text(MAX_CONDITION_DEPTH))
    condition = model.actions[0].branches[0].precondition
    assert eval_formula(condition, {"x": "tt"}) \
        == (shape != "not" or MAX_CONDITION_DEPTH % 2 == 0)
    assert parse_domain(format_model(model)) == model
    # one level past the bound and far past it: a diagnostic at the
    # condition's first token, not a RecursionError
    for levels in (MAX_CONDITION_DEPTH + 1, 5000):
        with pytest.raises(ParseError) as err:
            parse_domain(model_text(levels))
        assert (err.value.message, err.value.line, err.value.col) == (
            f"condition nested more than {MAX_CONDITION_DEPTH} levels deep",
            2, 13)


def _nots(levels: int):
    f = Atom("x", "tt")
    for _ in range(levels):
        f = Not(f)
    return f


def test_formula_depth_takes_no_recursion_and_no_blow_up():
    assert formula_depth(Atom("x", "tt")) == formula_depth(BoolLit(True)) == 0
    assert formula_depth(And(_nots(3), Or(_nots(1), _nots(5)))) == 7
    assert formula_depth(_nots(4_000)) == 4_000
    shared = Atom("x", "tt")  # 2**300 paths through 301 distinct nodes
    for _ in range(300):
        shared = And(shared, shared)
    assert formula_depth(shared) == 300


@pytest.mark.parametrize("edit, message", [
    (_with_precondition, "action 'a': precondition"),
    (lambda f: _edit_requirement(required=f), "requirement 'r': formula"),
    (lambda f: _edit_requirement(activation=f), "requirement 'r': activation"),
    (lambda f: _edit_requirement(cancellation=f),
     "requirement 'r': cancellation"),
], ids=["precondition", "formula", "activation", "cancellation"])
def test_validate_bounds_the_depth_of_models_built_in_code(edit, message):
    """The parser's bound, held by validate for a model built in code:
    4,000 nested Nots are one error, which compile_model raises before it
    would recurse through them; the bound itself passes and compiles."""
    deep = edit(_nots(4_000))(BASE)
    errors = [d.message for d in validate(deep) if d.severity == "error"]
    assert errors == [f"{message} nested more than {MAX_CONDITION_DEPTH} "
                      "levels deep"]
    with pytest.raises(CompileError) as err:
        compile_model(deep)
    assert str(err.value) == errors[0]
    at_bound = edit(_nots(MAX_CONDITION_DEPTH))(BASE)
    assert "error" not in _severities(at_bound)
    compile_model(at_bound)


def _shared(var: str, levels: int = 40):
    """`var` under `levels` levels of And(s, s): 2**levels paths through
    levels + 1 distinct nodes."""
    f = Atom(var, "tt")
    for _ in range(levels):
        f = And(f, f)
    return f


def test_shared_subformulas_are_walked_once():
    """A precondition with 2**40 paths through 42 distinct nodes:
    validate and compile_model each visit a node once."""
    model = _with_precondition(And(Atom("x", "tt"), _shared("x")))(BASE)
    for check in (validate, compile_model):
        started = time.perf_counter()
        check(model)
        assert time.perf_counter() - started < 1, check.__name__


def test_evaluation_reads_a_shared_node_once_and_in_short_circuit_order():
    x, shared = Atom("x", "tt"), _shared("z")
    assert eval_formula(And(x, shared), {"x": "tt", "z": "tt"})
    assert not eval_formula(Or(Not(x), Not(shared)), {"x": "tt", "z": "tt"})
    # z unassigned, under an operand that And or Or never reads
    assert not eval_formula(And(x, shared), {"x": "ff"})
    assert eval_formula(Or(x, shared), {"x": "tt"})
    with pytest.raises(EvaluationError, match="variable 'z' not assigned"):
        eval_formula(And(x, shared), {"x": "tt"})


def test_shared_preconditions_validate_and_simulate_in_linear_time():
    """Action a's branches read And(x, s) and And(x, And(t, !y)), s and t
    being y under 40 and 39 levels of sharing, built apart: == would walk
    2**39 paths of each before it told the two apart, and eval_formula
    every path of s. Requirement r's formula is And(x, s) too, so the
    planner's goal test reads it. validate compares the preconditions'
    shapes, and 100 ticks of each controller read each node once per
    evaluation."""
    x, y = Atom("x", "tt"), Atom("y", "tt")
    text = ("Variable x\nVariable y\n"
            "Action a if x effects <!x>\n"
            "Action b if !x effects <x !y>\n"
            "Event e if !y occur prob 1/2 effects <y>\n"
            "ReqID r achieve x reward 1\n"
            "Init { x, y }\n")
    base = parse_domain(text)
    branch = base.actions[0].branches[0]
    model = replace(base, actions=(replace(base.actions[0], branches=(
        replace(branch, precondition=And(x, _shared("y"))),
        replace(branch, precondition=And(x, And(_shared("y", 39),
                                                Not(y)))))),
        base.actions[1]), requirements=(replace(
            base.requirements[0], required=And(x, _shared("y"))),))
    started = time.perf_counter()
    assert "warning" not in _severities(model)
    mdp = compile_model(model)
    for controller in (sim.RandomController(mdp),
                       sim.ReplanningController(mdp)):
        sim.run(mdp, controller, 100, 0)
    assert time.perf_counter() - started < 1


def test_validate_compares_no_precondition_past_the_bound():
    """Two equal preconditions past the bound are reported as too deep,
    not as overlapping: the warning would format them, recursing as
    deep."""
    branch = replace(BASE.actions[0].branches[0], precondition=_nots(4_000))
    model = replace(BASE, actions=(replace(BASE.actions[0],
                                           branches=(branch, branch)),))
    assert [(d.severity, d.message) for d in validate(model)
            if d.severity != "info"] == \
        [("error", f"action 'a': precondition nested more than "
          f"{MAX_CONDITION_DEPTH} levels deep")] * 2


def test_condition_depth_counts_every_level():
    # two levels per `!(`, one per `&` over the deeper operand
    half = MAX_CONDITION_DEPTH // 2
    assert parse_domain("Variable x\nReqID r maintain x if x unless "
                        + "!(" * half + "x" + ")" * half + "\nInit { x }\n")
    with pytest.raises(ParseError) as err:
        parse_domain("Variable x\nReqID r maintain x if x unless "
                     + "!(" * half + "x & x" + ")" * half + "\nInit { x }\n")
    assert (err.value.line, err.value.col) == (2, 32)
