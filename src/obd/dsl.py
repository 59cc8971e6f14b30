"""Parser, AST and static checks for the .obd domain description language.

A domain description declares multi-valued state variables, probabilistic
actions, exogenous events, rewarded requirements and an initial state.
Variables that are referenced but never declared are implicitly boolean
with domain (tt, ff). Probabilities are kept as exact rationals so that
row-stochasticity checks downstream do not drift.

Reading and checking are split: `parse_domain` reads the grammar and
raises ParseError only where the text spells no model; `validate` holds
the one list of checks of what a model means, for a parsed model and one
built in code alike.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Mapping, Optional, Union


class ObdError(Exception):
    """Base class for errors raised by this package."""


class ParseError(ObdError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class EvaluationError(ObdError):
    """A formula mentions a variable absent from the assignment."""


# ---------------------------------------------------------------------------
# Formula AST


@dataclass(frozen=True)
class Atom:
    var: str
    value: str


@dataclass(frozen=True)
class BoolLit:
    value: bool


@dataclass(frozen=True)
class Not:
    operand: "Formula"


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


Formula = Union[Atom, BoolLit, Not, And, Or]

TRUE = BoolLit(True)
FALSE = BoolLit(False)


def eval_formula(f: Formula, atoms: Mapping[str, str]) -> bool:
    """Standard propositional evaluation with atom membership as base case.

    `atoms` maps every variable the formula mentions to its current value.
    """
    if isinstance(f, Atom):
        if f.var not in atoms:
            raise EvaluationError(f"variable '{f.var}' not assigned")
        return atoms[f.var] == f.value
    if isinstance(f, BoolLit):
        return f.value
    if isinstance(f, Not):
        return not eval_formula(f.operand, atoms)
    if isinstance(f, And):
        return eval_formula(f.left, atoms) and eval_formula(f.right, atoms)
    if isinstance(f, Or):
        return eval_formula(f.left, atoms) or eval_formula(f.right, atoms)
    raise TypeError(f"not a formula node: {f!r}")


def subformulas(f: Formula) -> list:
    """Each distinct subformula of `f` (by identity) once, after the ones
    it holds, and its atoms from left to right. Walked with a stack, so a
    deep formula takes no recursion and one that shares subformulas no
    blow-up."""
    order, entered, stack = [], set(), [f]
    while stack:
        g = stack.pop()
        if g is None:  # the operands of the node below are in `order`
            order.append(stack.pop())
        elif id(g) not in entered:
            entered.add(id(g))
            if isinstance(g, Not):
                stack += (g, None, g.operand)
            elif isinstance(g, (And, Or)):
                stack += (g, None, g.right, g.left)
            else:
                order.append(g)
    return order


def formula_depth(f: Formula) -> int:
    """Operator levels above the deepest atom or literal, which is 0.
    Measured level by level over distinct subformulas, so a deep formula
    takes no recursion and one that shares subformulas no blow-up."""
    level, depth = [f], 0
    while True:
        below = {}
        for g in level:
            if isinstance(g, Not):
                below[id(g.operand)] = g.operand
            elif isinstance(g, (And, Or)):
                below[id(g.left)] = g.left
                below[id(g.right)] = g.right
        if not below:
            return depth
        level, depth = below.values(), depth + 1


def format_formula(f: Formula) -> str:
    """Render a formula; inverse of the condition grammar up to parentheses."""

    def render(g: Formula, parent_prec: int) -> str:
        if isinstance(g, Atom):
            return g.var if g.value == "tt" else f"{g.var}={g.value}"
        if isinstance(g, BoolLit):
            return "true" if g.value else "false"
        if isinstance(g, Not):
            return "!" + render(g.operand, 3)
        if isinstance(g, And):
            s = f"{render(g.left, 2)} & {render(g.right, 2)}"
            return f"({s})" if parent_prec > 2 else s
        if isinstance(g, Or):
            s = f"{render(g.left, 1)} || {render(g.right, 1)}"
            return f"({s})" if parent_prec > 1 else s
        raise TypeError(f"not a formula node: {g!r}")

    return render(f, 0)


# ---------------------------------------------------------------------------
# Model AST

BOOL_DOMAIN = ("tt", "ff")


@dataclass(frozen=True)
class VariableDecl:
    name: str
    domain: tuple = BOOL_DOMAIN
    # Source position of the declared name, for diagnostics (None when the
    # model is built in code). Left out of equality, so a model built in
    # code or re-parsed from format_model's text still compares equal.
    line: Optional[int] = field(default=None, compare=False)
    col: Optional[int] = field(default=None, compare=False)


@dataclass(frozen=True)
class Effect:
    """One probabilistic outcome of an action/event branch."""

    assignments: tuple  # ((var, value), ...) in source order, vars distinct
    probability: Fraction = Fraction(1)


@dataclass(frozen=True)
class ActionBranch:
    precondition: Formula
    effects: tuple  # of Effect


@dataclass(frozen=True)
class ActionDesc:
    name: str
    branches: tuple  # of ActionBranch
    cost: int = 0
    line: Optional[int] = field(default=None, compare=False)  # as above
    col: Optional[int] = field(default=None, compare=False)


@dataclass(frozen=True)
class EventBranch:
    precondition: Formula
    occurrence_probability: Fraction
    effects: tuple  # of Effect


@dataclass(frozen=True)
class EventDesc:
    name: str
    branches: tuple  # of EventBranch
    line: Optional[int] = field(default=None, compare=False)  # as above
    col: Optional[int] = field(default=None, compare=False)


class ReqKind(str, Enum):
    UA = "UA"
    UM = "UM"
    CA = "CA"
    CM = "CM"
    DEA = "DEA"
    DFA = "DFA"
    DEM = "DEM"
    DFM = "DFM"
    PM = "PM"
    PDEM = "PDEM"
    PDFM = "PDFM"
    RPM = "RPM"
    RPDEM = "RPDEM"
    RPDFM = "RPDFM"

    @property
    def is_achieve(self) -> bool:
        return self.value.endswith("A")

    @property
    def is_conditional(self) -> bool:
        return not self.value.startswith("U")

    @property
    def has_deadline(self) -> bool:
        return "D" in self.value

    @property
    def is_flexible(self) -> bool:
        return "DF" in self.value

    @property
    def has_duration(self) -> bool:
        return "P" in self.value

    @property
    def is_strict(self) -> bool:
        return self.value.startswith("RP")


@dataclass(frozen=True)
class Requirement:
    name: str
    kind: ReqKind
    required: Formula
    activation: Optional[Formula] = None
    cancellation: Optional[Formula] = None
    deadline: Optional[int] = None
    duration: Optional[int] = None
    reward: int = 0
    line: Optional[int] = field(default=None, compare=False)  # as above
    col: Optional[int] = field(default=None, compare=False)


@dataclass(frozen=True)
class DomainModel:
    """A domain description as written; `validate` says whether it means
    a model. `initial_state` is the Init items ((var, value), ...) in
    variable order, those naming no variable last: each variable once,
    in declaration order, for a valid model. `line`/`col` are the Init
    keyword's position."""

    variables: tuple  # of VariableDecl, declared then implicit booleans
    actions: tuple  # of ActionDesc
    events: tuple  # of EventDesc
    requirements: tuple  # of Requirement
    initial_state: tuple
    line: Optional[int] = field(default=None, compare=False)
    col: Optional[int] = field(default=None, compare=False)

    def variable(self, name: str) -> VariableDecl:
        for v in self.variables:
            if v.name == name:
                return v
        raise KeyError(name)


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" | "warning" | "info"
    message: str
    line: Optional[int] = None
    col: Optional[int] = None

    def render(self, filename: str = "<input>") -> str:
        """`file:line:col: severity: message`, 0:0 where it has no
        position."""
        return (f"{filename}:{self.line or 0}:{self.col or 0}: "
                f"{self.severity}: {self.message}")


# ---------------------------------------------------------------------------
# Lexer

KEYWORDS = {
    "Variable", "domain", "Action", "Event", "ReqID", "achieve", "maintain",
    "if", "unless", "effects", "occur", "prob", "cost", "reward",
    "reward_once", "after", "within", "for", "Init", "true", "false",
}

# Blanks, then one alternative per token kind, tried in order; a comment
# (unnamed) is skipped. A word starts with a letter or '_' (checked in
# _tokenize, since [^\W\d] also admits numeric characters such as '½') and
# goes on with letters, digits and '_'; a number is decimal digits with an
# optional fraction. A line ends at "\r\n", "\r" or "\n". BAD takes no
# blank, so trailing blanks match nothing.
_TOKEN = re.compile(r"""[ \t]*(?:
    (?P<NL>\r\n?|\n) | \#[^\r\n]*
  | (?P<ID>[^\W\d]\w*) | (?P<NUM>\d+(?:\.\d+)?)
  | (?P<OR>\|\|) | (?P<PUNCT>[{},=<>!&()/]) | (?P<BAD>[^ \t]))
""", re.VERBOSE)


@dataclass(frozen=True)
class Token:
    kind: str  # ID KW NUM PUNCT OR EOF
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list:
    tokens = []
    line, line_start = 1, 0  # offset where the current line starts
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind is None:
            continue
        word, col = m.group(kind), m.start(kind) - line_start + 1
        if kind == "NL":
            line, line_start = line + 1, m.end()
        elif kind == "BAD" and word == "|":
            raise ParseError("single '|' (use '||')", line, col)
        elif kind == "BAD" or (kind == "ID" and not (word[0].isalpha()
                                                     or word[0] == "_")):
            raise ParseError(f"unexpected character {word[0]!r}", line, col)
        else:
            if kind == "ID" and word in KEYWORDS:
                kind = "KW"
            tokens.append(Token(kind, word, line, col))
    tokens.append(Token("EOF", "", line, len(text) - line_start + 1))
    return tokens


# ---------------------------------------------------------------------------
# Parser (recursive descent)

# How deeply a condition may nest. The parser, eval_formula, format_formula
# and == recurse once per level (the parser up to four frames per pair of
# parentheses), so this keeps any accepted condition well inside Python's
# default recursion limit of 1000 frames.
MAX_CONDITION_DEPTH = 100


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    # -- token helpers

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message: str, tok: Optional[Token] = None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.col)

    # Keyword and punctuation texts never spell an identifier or a number,
    # so the text alone tells whether the next token is the one asked for.

    def at(self, text: str) -> bool:
        return self.tokens[self.pos].text == text

    def accept(self, text: str) -> Optional[Token]:
        """Consume and return the next token if it is this keyword or
        punctuation."""
        tok = self.tokens[self.pos]
        if tok.text != text:
            return None
        self.pos += 1
        return tok

    def expect(self, text: str) -> Token:
        tok = self.accept(text)
        if tok is None:
            self.error(f"expected '{text}'")
        return tok

    def expect_id(self) -> Token:
        tok = self.next()
        if tok.kind != "ID":
            self.error("expected identifier", tok)
        return tok

    def expect_nat(self) -> int:
        tok = self.next()
        if tok.kind != "NUM" or "." in tok.text:
            self.error("expected non-negative integer", tok)
        return int(tok.text)

    def expect_prob(self) -> Fraction:
        tok = self.next()
        if tok.kind != "NUM":
            self.error("expected probability", tok)
        value = Fraction(tok.text)
        if self.accept("/"):  # exact rational form p/q
            den = self.next()
            if den.kind != "NUM" or "." in den.text:
                self.error("expected integer denominator", den)
            if int(den.text) == 0:
                self.error("zero denominator", den)
            value = value / int(den.text)
        return value

    def parse_assignment(self) -> tuple:
        """`x=v`, `x` (x=tt) or `!x` (x=ff): the variable's token and the
        value, as effect groups, Init and condition atoms write them."""
        if self.accept("!"):
            return self.expect_id(), "ff"
        var = self.expect_id()
        return var, self.expect_id().text if self.accept("=") else "tt"

    # -- conditions

    def parse_condition(self) -> Formula:
        """A condition at most MAX_CONDITION_DEPTH levels deep, where each
        operator and each pair of parentheses is one level above what it
        holds; a deeper one is reported at its first token."""
        self.condition_start = self.peek()
        return self._parse_or(0)[0]

    # Each rule takes the levels above it and returns its formula and the
    # levels within it, checked before any rule recurses one level deeper.

    def _within_depth(self, outer: int, height: int) -> int:
        if outer + height > MAX_CONDITION_DEPTH:
            self.error(f"condition nested more than {MAX_CONDITION_DEPTH} "
                       "levels deep", self.condition_start)
        return height

    def _parse_or(self, outer: int) -> tuple:
        left, height = self._parse_and(outer)
        while self.accept("||"):
            right, right_height = self._parse_and(outer)
            left, height = Or(left, right), self._within_depth(
                outer, max(height, right_height) + 1)
        return left, height

    def _parse_and(self, outer: int) -> tuple:
        left, height = self._parse_unary(outer)
        while self.accept("&"):
            right, right_height = self._parse_unary(outer)
            left, height = And(left, right), self._within_depth(
                outer, max(height, right_height) + 1)
        return left, height

    def _parse_unary(self, outer: int) -> tuple:
        if self.accept("!"):
            self._within_depth(outer, 1)
            operand, height = self._parse_unary(outer + 1)
            return Not(operand), height + 1
        return self._parse_primary(outer)

    def _parse_primary(self, outer: int) -> tuple:
        if self.accept("("):
            self._within_depth(outer, 1)
            inner, height = self._parse_or(outer + 1)
            self.expect(")")
            return inner, height + 1
        if self.accept("true"):
            return TRUE, 0
        if self.accept("false"):
            return FALSE, 0
        var, value = self.parse_assignment()  # _parse_unary read any '!'
        return Atom(var.text, value), 0

    # -- effects

    def parse_effect_group(self) -> Effect:
        open_tok = self.expect("<")
        assignments = []
        prob = Fraction(1)
        while not self.at(">"):
            if self.accept("prob"):
                prob = self.expect_prob()
                break
            var, value = self.parse_assignment()
            assignments.append((var.text, value))
        self.expect(">")
        if not assignments:
            self.error("empty effect group", open_tok)
        return Effect(tuple(assignments), prob)

    def parse_effect_groups(self) -> tuple:
        effects = []
        while self.at("<"):
            effects.append(self.parse_effect_group())
        if not effects:
            self.error("expected at least one '<...>' effect group")
        return tuple(effects)

    # -- declarations

    def parse_variable(self) -> VariableDecl:
        self.expect("Variable")
        name = self.expect_id()
        domain = BOOL_DOMAIN
        if self.accept("domain"):
            self.expect("{")
            values = [self.expect_id().text]
            while self.accept(","):
                values.append(self.expect_id().text)
            self.expect("}")
            domain = tuple(values)
        return VariableDecl(name.text, domain, name.line, name.col)

    def parse_action(self) -> ActionDesc:
        self.expect("Action")
        name = self.expect_id()
        branches = []
        while self.accept("if"):
            pre = self.parse_condition()
            self.expect("effects")
            branches.append(ActionBranch(pre, self.parse_effect_groups()))
        if not branches:
            self.error(f"action '{name.text}' has no 'if ... effects' branch", name)
        cost = self.expect_nat() if self.accept("cost") else 0
        return ActionDesc(name.text, tuple(branches), cost, name.line,
                          name.col)

    def parse_event(self) -> EventDesc:
        self.expect("Event")
        name = self.expect_id()
        branches = []
        while self.accept("if"):
            pre = self.parse_condition()
            occur = Fraction(1)
            if self.accept("occur"):
                self.expect("prob")
                occur = self.expect_prob()
            self.expect("effects")
            branches.append(EventBranch(pre, occur, self.parse_effect_groups()))
        if not branches:
            self.error(f"event '{name.text}' has no 'if ... effects' branch", name)
        return EventDesc(name.text, tuple(branches), name.line, name.col)

    def parse_requirement(self) -> Requirement:
        self.expect("ReqID")
        name = self.expect_id()
        achieve = self.accept("achieve") is not None
        if not achieve and not self.accept("maintain"):
            self.error("expected 'achieve' or 'maintain'")
        required = self.parse_condition()
        duration = None
        deadline = None
        if self.accept("for"):
            duration = self.expect_nat()
        exact = self.accept("after")
        if exact or self.accept("within"):
            deadline = self.expect_nat()
        activation = None
        cancellation = None
        if self.accept("if"):
            activation = self.parse_condition()
            if self.accept("unless"):
                cancellation = self.parse_condition()
        once = self.accept("reward_once")
        reward = self.expect_nat() if once or self.accept("reward") else 0
        kind = self._requirement_kind(name, achieve, activation is not None,
                                      duration, deadline, exact, once)
        return Requirement(name.text, kind, required, activation, cancellation,
                           deadline, duration, reward, name.line, name.col)

    def _requirement_kind(self, name: Token, achieve: bool, conditional: bool,
                          duration, deadline, exact, once) -> ReqKind:
        """Spell the kind with the letters ReqKind's properties read."""
        if (duration is not None or deadline is not None) and not conditional:
            self.error("deadline/duration requirements need an 'if' clause", name)
        if once and duration is None:
            self.error("'reward_once' needs a 'for' duration", name)
        if achieve and duration is not None:
            self.error("'for' duration is only for maintain requirements", name)
        letters = ("R" if once else "") + ("P" if duration is not None else "")
        if deadline is not None:
            letters += "DE" if exact else "DF"
        elif duration is None:
            letters += "C" if conditional else "U"
        return ReqKind(letters + ("A" if achieve else "M"))

    def parse_init(self) -> list:
        """The Init items as (variable token, value), in source order."""
        self.expect("Init")
        self.expect("{")
        items = []
        while not self.at("}"):
            if items:
                self.expect(",")
            items.append(self.parse_assignment())
        self.expect("}")
        return items

    # -- whole model

    def parse_model(self) -> DomainModel:
        variables = []
        actions = []
        events = []
        requirements = []
        init_tok = None
        while self.peek().kind != "EOF":
            if self.at("Variable"):
                variables.append(self.parse_variable())
            elif self.at("Action"):
                actions.append(self.parse_action())
            elif self.at("Event"):
                events.append(self.parse_event())
            elif self.at("ReqID"):
                requirements.append(self.parse_requirement())
            elif self.at("Init"):
                if init_tok is not None:
                    self.error("duplicate Init block")
                init_tok = self.peek()
                init_items = self.parse_init()
            else:
                self.error("expected Variable, Action, Event, ReqID or Init")
        if init_tok is None:
            self.error("missing 'Init { ... }' block", self.peek())
        return _assemble(variables, actions, events, requirements,
                         init_items, init_tok)


def _assemble(variables, actions, events, requirements, init_items,
              init_tok) -> DomainModel:
    """The model with its implicit booleans; raises nothing, as `validate`
    checks what the model means.

    A name that a formula, an effect or Init uses, and that no variable or
    requirement declares, becomes a boolean variable, in order of first
    reference (by name within one formula), placed where the first
    declaration (or Init item) referencing it is. Init is put in variable
    order, so a valid model lists each variable once, in that order."""
    declared = {v.name for v in variables} | {r.name for r in requirements}
    implicit = {}

    def note(names, at):
        for var in names:
            if var not in declared:
                implicit.setdefault(var, at)

    def atom_names(f: Optional[Formula]) -> list:
        return [] if f is None else sorted(
            {g.var for g in subformulas(f) if isinstance(g, Atom)})

    for owner in actions + events:
        for br in owner.branches:
            note(atom_names(br.precondition), owner)
            for eff in br.effects:
                note((var for var, _ in eff.assignments), owner)
    for r in requirements:
        for f in (r.required, r.activation, r.cancellation):
            note(atom_names(f), r)
    for var, _ in init_items:
        note([var.text], var)

    all_vars = variables + [VariableDecl(n, line=at.line, col=at.col)
                            for n, at in implicit.items()]
    order = {v.name: k for k, v in enumerate(all_vars)}
    initial = sorted(((var.text, value) for var, value in init_items),
                     key=lambda item: order.get(item[0], len(order)))
    return DomainModel(tuple(all_vars), tuple(actions), tuple(events),
                       tuple(requirements), tuple(initial), init_tok.line,
                       init_tok.col)


def parse_domain(text: str) -> DomainModel:
    """Parse a complete .obd domain description.

    Applies all defaults (implicit boolean variables, cost 0, occurrence
    probability 1, reward 0). Raises ParseError with line/column only on
    text the grammar does not accept; what the model means (names,
    values, probabilities, deadlines, Init) is `validate`'s to check.
    """
    return _Parser(text).parse_model()


# ---------------------------------------------------------------------------
# Pretty printing (round-trip companion of parse_domain)


def _format_prob(p: Fraction) -> str:
    """The finite decimal of `p` if it has one, else `num/den`."""
    num, den = p.numerator, p.denominator
    # a den of 2**a 5**b divides 10**max(a, b), and max(a, b) <= log2(den)
    # is below its bit length; no power of 10 is a multiple of another den
    shift = next((k for k in range(den.bit_length()) if 10 ** k % den == 0),
                 None)
    if shift is None:
        return f"{num}/{den}"
    text = str(num * 10 ** shift // den).rjust(shift + 1, "0")
    return f"{text[:-shift]}.{text[-shift:]}" if shift else text


def _format_effect(eff: Effect) -> str:
    parts = [f"{var}={value}" for var, value in eff.assignments]
    if eff.probability != 1:
        parts.append(f"prob {_format_prob(eff.probability)}")
    return "<" + " ".join(parts) + ">"


def format_model(model: DomainModel) -> str:
    """Render a DomainModel back to domain-description text.

    Re-parsing the output yields a structurally equal model.
    """
    lines = []
    for v in model.variables:
        if v.domain == BOOL_DOMAIN:
            lines.append(f"Variable {v.name}")
        else:
            lines.append(f"Variable {v.name} domain {{{', '.join(v.domain)}}}")
    for a in model.actions:
        parts = [f"Action {a.name}"]
        for br in a.branches:
            effs = " ".join(_format_effect(e) for e in br.effects)
            parts.append(f"if {format_formula(br.precondition)} effects {effs}")
        if a.cost:
            parts.append(f"cost {a.cost}")
        lines.append(" ".join(parts))
    for e in model.events:
        parts = [f"Event {e.name}"]
        for br in e.branches:
            effs = " ".join(_format_effect(x) for x in br.effects)
            occur = ""
            if br.occurrence_probability != 1:
                occur = f" occur prob {_format_prob(br.occurrence_probability)}"
            parts.append(f"if {format_formula(br.precondition)}{occur} effects {effs}")
        lines.append(" ".join(parts))
    for r in model.requirements:
        parts = [f"ReqID {r.name}"]
        parts.append("achieve" if r.kind.is_achieve else "maintain")
        parts.append(format_formula(r.required))
        if r.duration is not None:
            parts.append(f"for {r.duration}")
        if r.deadline is not None:
            parts.append("within" if r.kind.is_flexible else "after")
            parts.append(str(r.deadline))
        if r.activation is not None:
            parts.append(f"if {format_formula(r.activation)}")
        if r.cancellation is not None:
            parts.append(f"unless {format_formula(r.cancellation)}")
        if r.reward or r.kind.is_strict:
            parts.append("reward_once" if r.kind.is_strict else "reward")
            parts.append(str(r.reward))
        lines.append(" ".join(parts))
    init = ", ".join(f"{var}={value}" for var, value in model.initial_state)
    lines.append(f"Init {{ {init} }}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Static diagnostics


NOOP = "noop"  # the action the compiler adds to every model


def validate(model: DomainModel) -> list:
    """Every check of what a model means, for a parsed model and one built
    in code alike; the first error is what `compiler.compile_model`
    raises.

    Returns diagnostics as data, in source order (stably sorted by line
    and column); nothing is raised. Each one carries the source position
    of the declaration it names, or of the Init keyword (none for a model
    built in code, whose diagnostics keep the order of the checks).
    Precondition disjointness is only approximated here by syntactic
    equality; exact per-state enforcement happens during compilation.
    """
    diags = []

    def report(severity: str, message: str, at=None) -> None:
        line, col = (at.line, at.col) if at else (None, None)
        diags.append(Diagnostic(severity, message, line, col))

    seen = set()  # (label, name) of each declaration so far
    for label, items in (("variable", model.variables),
                         ("action", model.actions), ("event", model.events),
                         ("requirement", model.requirements)):
        for item in items:
            if (label, item.name) in seen:
                report("error", f"duplicate {label} '{item.name}'", item)
            elif label == "requirement" and ("variable", item.name) in seen:
                report("error", f"'{item.name}' names both a variable and "
                       "a requirement", item)
            elif label == "action" and item.name == NOOP:
                report("error", f"'{NOOP}' is a reserved action name", item)
            if label == "variable" and len(set(item.domain)) < len(item.domain):
                report("error", f"duplicate value in domain of '{item.name}'",
                       item)
            seen.add((label, item.name))
    domains = {v.name: v.domain for v in model.variables}

    def check_value(owner: str, var: str, value: str, at) -> None:
        if var in domains:
            if value not in domains[var]:
                report("error", f"{owner}: unknown value '{value}' for "
                       f"variable '{var}'", at)
        elif ("requirement", var) in seen:
            report("error", f"{owner}: requirement '{var}' used as a state "
                   "variable", at)
        else:
            report("error", f"{owner}: unknown variable '{var}'", at)

    def checked(owner: str, what: str, f: Formula, at) -> bool:
        """Whether `f` is within the parser's depth bound, past which
        eval_formula, format_formula and == could exhaust the recursion
        limit; its atoms are checked only then."""
        if formula_depth(f) > MAX_CONDITION_DEPTH:
            report("error", f"{owner}: {what} nested more than "
                   f"{MAX_CONDITION_DEPTH} levels deep", at)
            return False
        for var, value in dict.fromkeys((g.var, g.value)
                                        for g in subformulas(f)
                                        if isinstance(g, Atom)):
            check_value(owner, var, value, at)
        return True

    for r in model.requirements:
        kind = r.kind
        for what, f in (("formula", r.required), ("activation", r.activation),
                        ("cancellation", r.cancellation)):
            if f is not None:
                checked(f"requirement '{r.name}'", what, f, r)
                if what != "formula" and not kind.is_conditional:
                    report("error", f"requirement '{r.name}': {what} clause "
                           f"forbidden for unconditional kind {kind.value}", r)
        if kind.is_conditional and r.activation is None:
            report("error", f"requirement '{r.name}': kind {kind.value} "
                   "needs an activation clause", r)
        for label, needed, value in (
                ("deadline", kind.has_deadline, r.deadline),
                ("duration", kind.has_duration, r.duration)):
            if needed != (value is not None):
                report("error", f"requirement '{r.name}': {label} "
                       f"{'missing' if needed else 'forbidden'} "
                       f"for kind {kind.value}", r)
            elif value is not None and value < 1:
                report("error", f"requirement '{r.name}': {label} must be "
                       f"positive, not {value}", r)
        if r.reward < 0:
            report("error", f"requirement '{r.name}': negative reward", r)

    assigned = {}  # variable -> the values Init and the effects give it
    for var, value in model.initial_state:
        if var in assigned:
            report("error", f"variable '{var}' assigned twice in Init", model)
        check_value("Init", var, value, model)
        assigned[var] = {value}
    missing = [v.name for v in model.variables if v.name not in assigned]
    if missing:
        report("error", f"Init does not assign: {', '.join(missing)}", model)

    for item in model.actions + model.events:
        label = "action" if isinstance(item, ActionDesc) else "event"
        owner = f"{label} '{item.name}'"
        seen_pres = []
        for br in item.branches:
            # one past the bound is not compared: == would recurse as deep
            if checked(owner, "precondition", br.precondition, item):
                if br.precondition in seen_pres:
                    report("warning", f"{owner}: overlapping preconditions "
                           f"({format_formula(br.precondition)} repeated)",
                           item)
                seen_pres.append(br.precondition)
            named = [("effect", eff.probability) for eff in br.effects]
            if isinstance(br, EventBranch):
                named.insert(0, ("occurrence", br.occurrence_probability))
            for what, p in named:
                if not 0 < p <= 1:
                    report("error", f"{owner}: {what} probability {p} "
                           "outside (0,1]", item)
            total = sum(eff.probability for eff in br.effects)
            if total > 1:
                report("error", f"{owner}: effect probabilities sum to "
                       f"{total} > 1", item)
            for eff in br.effects:
                in_effect = set()
                for var, value in eff.assignments:
                    if var in in_effect:
                        report("error", f"{owner}: variable '{var}' assigned "
                               "twice in one effect", item)
                    in_effect.add(var)
                    check_value(owner, var, value, item)
                    assigned.setdefault(var, set()).add(value)

    # Domain values nothing can ever assign are likely spelling mistakes.
    for variable in model.variables:
        for value in variable.domain:
            if value not in assigned.get(variable.name, set()):
                report("info", f"value '{value}' of variable "
                       f"'{variable.name}' is never assigned", variable)
    return sorted(diags, key=lambda d: (d.line or 0, d.col or 0))
