"""End-to-end command-line tests via click's runner."""

import errno
import json
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest
import scipy.sparse.linalg
from click.testing import CliRunner

from obd import compiler, dsl
from obd.cli import main

import test_dsl

MODELS = Path(__file__).parent.parent / "models"
TOY = str(MODELS / "toy.obd")


def invoke(*args):
    return CliRunner().invoke(main, list(args))


def diagnostic(*args) -> str:
    """Run a command expecting exit 1 with a one-line diagnostic on stderr
    and no Python traceback; returns the line."""
    result = invoke(*args)
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # no Python traceback
    assert len(result.stderr.splitlines()) == 1, result.stderr
    return result.stderr.rstrip("\n")


# ---------------------------------------------------------------------------
# compile


def test_compile_reports_sizes():
    result = invoke("compile", TOY)
    assert result.exit_code == 0
    assert "8 states" in result.output
    assert "3 actions (incl. noop)" in result.output
    assert "7 event-product entries, 28 action-matrix entries, " \
        "4 states after an action step" in result.output


def test_compile_reports_the_sizes_of_a_loaded_mdp(tmp_path):
    mdp = tmp_path / "toy.mdp"
    assert invoke("compile", TOY, "--out", str(mdp)).exit_code == 0
    result = invoke("compile", str(mdp))
    assert result.exit_code == 0
    assert "8 states, 3 actions (incl. noop), 48 transition entries" \
        in result.output


def test_compile_writes_obdmdp(tmp_path):
    out = tmp_path / "toy.mdp"
    result = invoke("compile", TOY, "--out", str(out))
    assert result.exit_code == 0
    text = out.read_text()
    assert text.startswith("obdmdp/1\n")
    assert text.endswith("end\n")


def test_compile_missing_file_exits_1():
    result = invoke("compile", "no-such-file.obd")
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)


def test_compile_parse_error_exits_1(tmp_path):
    bad = tmp_path / "bad.obd"
    bad.write_text("Variable\n")
    result = invoke("compile", str(bad))
    assert result.exit_code == 1
    # diagnostics render as path:line:col: severity: message
    head = result.output.splitlines()[0]
    prefix, _, rest = head.partition(": ")
    parts = prefix.rsplit(":", 2)
    assert parts[0] == str(bad)
    assert parts[1].isdigit() and parts[2].isdigit()
    assert rest.startswith("error")


# a duplicated action, an unknown value in a condition and an Init that
# misses a variable: three errors of the model, each at its position
SEMANTIC_ERRORS = """Variable x
Variable y
Action a if x effects <!x>
Action a if !x effects <x>
Action b if x=maybe effects <!x>
Init { x }
"""


def _compile_diagnostic(tmp_path, text: str) -> str:
    """Compile `text` expecting a one-line diagnostic, not a traceback;
    returns it."""
    bad = tmp_path / "bad.obd"
    bad.write_text(text)
    return diagnostic("compile", str(bad))


def test_compile_init_assigning_requirement_exits_1(tmp_path):
    head = _compile_diagnostic(
        tmp_path,
        "Variable x\nReqID m maintain x reward 1\nInit { x, m }\n")
    assert head == f"{tmp_path / 'bad.obd'}:3:1: error: " \
        "Init: requirement 'm' used as a state variable"


def test_compile_effect_assigning_requirement_exits_1(tmp_path):
    head = _compile_diagnostic(
        tmp_path,
        "Variable x\nAction a if x effects <m>\n"
        "ReqID m maintain x reward 1\nInit { x }\n")
    assert head == f"{tmp_path / 'bad.obd'}:2:8: error: " \
        "action 'a': requirement 'm' used as a state variable"


def test_compile_reserved_noop_exits_1(tmp_path):
    head = _compile_diagnostic(
        tmp_path, "Variable x\nAction noop if x effects <!x>\nInit { x }\n")
    assert head == f"{tmp_path / 'bad.obd'}:2:8: error: " \
        "'noop' is a reserved action name"


def test_compile_prints_every_error_of_a_model(tmp_path):
    bad = tmp_path / "bad.obd"
    bad.write_text(SEMANTIC_ERRORS)
    result = invoke("compile", str(bad))
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # no Python traceback
    assert result.stderr.splitlines() == [
        f"{bad}:4:8: error: duplicate action 'a'",
        f"{bad}:5:8: error: action 'b': unknown value 'maybe' for variable "
        "'x'",
        f"{bad}:6:1: error: Init does not assign: y"]


def test_compile_non_decimal_digit_exits_1(tmp_path):
    head = _compile_diagnostic(
        tmp_path, "Variable x\nAction a if x effects <!x> cost ²\nInit { x }\n")
    assert head == f"{tmp_path / 'bad.obd'}:2:33: error: " \
        "unexpected character '²'"


def test_compile_prints_warnings_and_infos():
    path = str(MODELS / "restaurant.obd")
    result = invoke("compile", path)
    assert result.exit_code == 0
    # `location` is declared on line 5, its name in column 10
    assert (f"{path}:5:10: info: value 'inKitchen' of variable 'location' "
            "is never assigned") in result.stderr.splitlines()
    # each commutation warning points at the name of the later event,
    # `customer_leaves` on line 34
    assert (f"{path}:34:7: warning: events 'customer_arrives' and "
            "'customer_leaves' do not commute; using declaration order") \
        in result.stderr.splitlines()


def test_compile_prints_only_errors_when_there_are_any(monkeypatch):
    monkeypatch.setattr(dsl, "validate", lambda model: [
        dsl.Diagnostic("info", "an info"),
        dsl.Diagnostic("warning", "a warning"),
        dsl.Diagnostic("error", "an error", 2, 3)])
    assert diagnostic("compile", TOY) == f"{TOY}:2:3: error: an error"


def test_compile_state_limit_exits_2():
    result = invoke("compile", TOY, "--max-states", "4")
    assert result.exit_code == 2


def test_compile_huge_deadline_exits_2_at_once(tmp_path):
    """The state count comes from each requirement's kind, deadline and
    duration, before any automaton lists its 10**12 statuses."""
    path = tmp_path / "huge.obd"
    path.write_text("Variable x\nAction a if x effects <!x>\n"
                    "ReqID m achieve x within 1000000000000 if !x reward 1\n"
                    "Init { x }\n")
    start = time.perf_counter()
    result = invoke("compile", str(path))
    assert time.perf_counter() - start < 1
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)  # no Python traceback
    assert result.stderr == (f"{path}: error: state space has "
                             "2000000000002 states, exceeding the limit of "
                             "2000000\n")


# ---------------------------------------------------------------------------
# solve


def test_solve_prints_convergence():
    result = invoke("solve", TOY)
    assert result.exit_code == 0
    assert "value-iteration" in result.output


def test_solve_policy_method_and_outputs(tmp_path):
    pol = tmp_path / "toy.policy"
    js = tmp_path / "toy.json"
    result = invoke("solve", TOY, "--method", "policy",
                    "--out", str(pol), "--json-out", str(js))
    assert result.exit_code == 0
    assert pol.read_text().startswith("obdpolicy/1\n")
    doc = json.loads(js.read_text())
    assert doc["method"] == "policy-iteration"
    assert len(doc["states"]) == 8


@pytest.mark.parametrize("gamma, sweeps", [("0.95", "32"), ("0.1", None)])
def test_solve_policy_prints_evaluations_and_warm_up_sweeps(gamma, sweeps):
    """Policy iteration reports its evaluations and its warm-up sweeps:
    PI_START_SWEEPS of them, or as many as value iteration takes when
    they meet its stopping rule first."""
    if sweeps is None:
        value = invoke("solve", TOY, "--gamma", gamma)
        assert value.exit_code == 0
        sweeps = value.output.split()[1]  # value-iteration: K iterations
        assert int(sweeps) < 32
    result = invoke("solve", TOY, "--method", "policy", "--gamma", gamma)
    assert result.exit_code == 0
    assert result.output == \
        f"policy-iteration: 1 evaluations after {sweeps} sweeps\n"


def test_solve_accepts_compiled_mdp(tmp_path):
    mdp_path = tmp_path / "toy.mdp"
    invoke("compile", TOY, "--out", str(mdp_path))
    from_obd = tmp_path / "a.policy"
    from_mdp = tmp_path / "b.policy"
    assert invoke("solve", TOY, "--out", str(from_obd)).exit_code == 0
    assert invoke("solve", str(mdp_path),
                  "--out", str(from_mdp)).exit_code == 0
    assert from_obd.read_text() == from_mdp.read_text()


def test_solve_closes_its_input(tmp_path):
    mdp = tmp_path / "toy.mdp"
    assert invoke("compile", TOY, "--out", str(mdp)).exit_code == 0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        for path in (TOY, str(mdp)):
            assert invoke("solve", path).exit_code == 0
    assert [w for w in caught if w.category is ResourceWarning] == []


def test_solve_truncated_mdp_exits_1(tmp_path):
    mdp = tmp_path / "toy.mdp"
    assert invoke("compile", TOY, "--out", str(mdp)).exit_code == 0
    lines = mdp.read_text().splitlines(keepends=True)
    mdp.write_text("".join(lines[:12]))
    result = invoke("solve", str(mdp))
    assert result.exit_code == 1
    assert result.output == (f"{mdp}: error: line 13: expected 'state' "
                             "line, got end of input\n")


def test_solve_mdp_with_states_out_of_order_names_the_line(tmp_path):
    mdp = tmp_path / "toy.mdp"
    assert invoke("compile", TOY, "--out", str(mdp)).exit_code == 0
    lines = mdp.read_text().splitlines(keepends=True)
    lines[7], lines[8] = ("state 2 " + lines[8].split(" ", 2)[2],
                          "state 3 " + lines[7].split(" ", 2)[2])
    mdp.write_text("".join(lines))
    assert diagnostic("solve", str(mdp)) == (
        f"{mdp}: error: line 8: expected 'state 2 x=tt y=ff m=I', "
        "got: 'state 2 x=tt y=ff m=R'")


@pytest.mark.parametrize("command", ["solve", "export-dot"])
def test_obdmdp_input_honours_max_states(tmp_path, command):
    mdp = tmp_path / "toy.mdp"
    assert invoke("compile", TOY, "--out", str(mdp)).exit_code == 0
    result = invoke(command, str(mdp), "--max-states", "4")
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)  # no Python traceback
    assert result.stderr == (f"{mdp}: error: state space has 8 states, "
                             "exceeding the limit of 4\n")
    assert invoke(command, str(mdp), "--max-states", "8").exit_code == 0


@pytest.mark.parametrize("command", ["solve", "export-dot"])
def test_obdmdp_input_rejects_gamma(tmp_path, command):
    mdp = tmp_path / "toy.mdp"
    assert invoke("compile", TOY, "--out", str(mdp)).exit_code == 0
    assert diagnostic(command, str(mdp), "--gamma", "0.5") == (
        f"--gamma: error: {mdp} is an obdmdp/1 file, which stores its own "
        "discount factor")


@pytest.mark.parametrize("command", ["solve", "export-dot"])
def test_gamma_defaults_to_the_obd_default_or_the_files_own(tmp_path,
                                                           command):
    mdp = tmp_path / "toy.mdp"
    assert invoke("compile", TOY, "--out", str(mdp)).exit_code == 0
    outputs = [invoke(command, *args, "--out", "-").output
               for args in ([TOY], [TOY, "--gamma", "0.95"], [str(mdp)],
                            [TOY, "--gamma", "0.5"])]
    assert outputs[0] == outputs[1] == outputs[2]
    if command == "solve":  # the strategy's values
        assert outputs[3] != outputs[0]


def test_solve_substochastic_row_exits_1(tmp_path):
    """load_mdp checks every row where it reads it: every command that
    reads the file names the action, the state row and the row's first
    `t` line."""
    mdp = tmp_path / "toy.mdp"
    assert invoke("compile", TOY, "--out", str(mdp)).exit_code == 0
    text = mdp.read_text()
    head, _, tail = text.partition("action b 5\n")
    assert "t 6 7 0.8\n" in tail
    mdp.write_text(head + "action b 5\n"
                   + tail.replace("t 6 7 0.8\n", "t 6 7 0.3\n", 1))
    line = mdp.read_text().splitlines().index("t 6 2 0.16",
                                              head.count("\n") + 1) + 1
    for command in (("compile",), ("export-dot", "--full"),
                    ("solve", "--method", "value"),
                    ("solve", "--method", "policy")):
        result = invoke(command[0], str(mdp), *command[1:])
        assert result.exit_code == 1
        assert result.output == (f"{mdp}: error: line {line}: action 'b': "
                                 "transition row 6 sums to 0.5\n")


def _failing_splu(monkeypatch, error):
    def splu(*args, **kwargs):
        raise error
    monkeypatch.setattr(scipy.sparse.linalg, "splu", splu)


def test_solve_lu_failure_exits_1(monkeypatch):
    """SuperLU reports an allocation failure as a RuntimeError."""
    _failing_splu(monkeypatch, RuntimeError(
        "SUPERLU_MALLOC fails for buf in intMalloc()"))
    assert diagnostic("solve", TOY, "--method", "policy") == (
        f"{TOY}: error: policy evaluation: sparse LU of 8 states failed: "
        "SUPERLU_MALLOC fails for buf in intMalloc()")


def test_solve_out_of_memory_exits_1(monkeypatch):
    _failing_splu(monkeypatch, MemoryError())
    assert diagnostic("solve", TOY, "--method", "policy") == (
        f"{TOY}: error: out of memory; a smaller model or --max-states "
        "may fit")


def _products_out_of_memory(monkeypatch):
    def implicit_action_matrix(*args):
        raise MemoryError
    monkeypatch.setattr(compiler, "implicit_action_matrix",
                        implicit_action_matrix)


def test_compile_out_of_memory_while_writing_exits_1(monkeypatch, tmp_path):
    """Writing obdmdp/1 builds the products X_a E: running out of memory
    there is reported like any other error, and nothing is written."""
    _products_out_of_memory(monkeypatch)
    out = tmp_path / "toy.mdp"
    assert diagnostic("compile", TOY, "--out", str(out)) == (
        f"{TOY}: error: out of memory; a smaller model or --max-states "
        "may fit")
    assert not out.exists()


def test_export_dot_full_out_of_memory_exits_1(monkeypatch, tmp_path):
    _products_out_of_memory(monkeypatch)
    out = tmp_path / "toy.dot"
    assert diagnostic("export-dot", TOY, "--full", "--out", str(out)) == (
        f"{TOY}: error: out of memory; a smaller model or --max-states "
        "may fit")
    assert not out.exists()


def test_import_leaves_scipy_linear_algebra_unloaded():
    """SuperLU and the component search load scipy.linalg when policy
    evaluation first runs, not when the program starts."""
    src = str(Path(__file__).parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = ("import sys, obd, obd.cli; print(sorted(set(sys.modules) & "
            "{'scipy.sparse.linalg', 'scipy.linalg'}))")
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout == "[]\n"


# ---------------------------------------------------------------------------
# simulate


def test_simulate_csv(tmp_path):
    out = tmp_path / "metrics.csv"
    result = invoke("simulate", TOY, "--controller", "reflex,replan,random",
                    "--ticks", "200", "--seeds", "5", "--out", str(out))
    assert result.exit_code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("seed,controller,")
    assert len(lines) == 1 + 3 * 5
    controllers = [line.split(",")[1] for line in lines[1:]]
    assert controllers == ["reflex"] * 5 + ["replan"] * 5 + ["random"] * 5


def test_simulate_with_saved_policy(tmp_path):
    pol = tmp_path / "toy.policy"
    invoke("solve", TOY, "--out", str(pol))
    result = invoke("simulate", TOY, "--controller", "reflex",
                    "--ticks", "100", "--policy", str(pol), "--out", "-")
    assert result.exit_code == 0


def test_simulate_missing_policy_exits_1():
    result = invoke("simulate", TOY, "--controller", "reflex",
                    "--ticks", "10", "--policy", "missing.policy")
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)


def test_simulate_malformed_policy_exits_1(tmp_path):
    pol = tmp_path / "toy.policy"
    assert invoke("solve", TOY, "--out", str(pol)).exit_code == 0
    pol.write_text(pol.read_text().replace("\n5 a ", "\n5 fly ", 1))
    result = invoke("simulate", TOY, "--controller", "reflex",
                    "--ticks", "10", "--policy", str(pol))
    assert result.exit_code == 1
    assert result.output == (f"{pol}: error: line 7: unknown action "
                             "'fly'\n")


def test_simulate_policy_without_reflex_exits_1_before_compiling(
        tmp_path, monkeypatch):
    compiles = []
    monkeypatch.setattr("obd.cli.compile_model",
                        lambda *args: compiles.append(args))
    out = tmp_path / "metrics.csv"
    result = invoke("simulate", TOY, "--controller", "replan,random",
                    "--policy", str(tmp_path / "missing.policy"),
                    "--out", str(out))
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # no Python traceback
    assert result.stderr == \
        "--policy: error: only the reflex controller reads a policy\n"
    assert result.stdout == ""  # no CSV
    assert not out.exists()
    assert compiles == []


def test_simulate_unknown_controller_exits_1():
    result = invoke("simulate", TOY, "--controller", "oracle")
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)


# ---------------------------------------------------------------------------
# export-dot


def test_export_dot_strategy(tmp_path):
    out = tmp_path / "toy.dot"
    result = invoke("export-dot", TOY, "--out", str(out))
    assert result.exit_code == 0
    text = out.read_text()
    assert text.startswith("digraph mdp {")
    assert text.rstrip().endswith("}")
    assert 's0 [label="' in text


def test_export_dot_full_has_more_edges(tmp_path):
    strat = tmp_path / "s.dot"
    full = tmp_path / "f.dot"
    invoke("export-dot", TOY, "--out", str(strat))
    invoke("export-dot", TOY, "--full", "--out", str(full))
    count = lambda p: sum("->" in line for line in p.read_text().splitlines())
    assert count(full) > count(strat)


# ---------------------------------------------------------------------------
# bad files, flags and output paths: one diagnostic line, exit 1


COMMANDS = (("compile",), ("solve",), ("export-dot",),
            ("simulate", "--ticks", "10"))


@pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
@pytest.mark.parametrize("gamma,shown", [("nan", "nan"), ("inf", "inf"),
                                         ("1e400", "inf"), ("-inf", "-inf")])
def test_non_finite_gamma_exits_1(command, gamma, shown):
    head = diagnostic(command[0], TOY, *command[1:], "--gamma", gamma)
    assert head == f"{TOY}: error: discount factor {shown} outside (0,1)"


@pytest.mark.parametrize("command", COMMANDS[1:], ids=lambda c: c[0])
@pytest.mark.parametrize("epsilon", ["0", "-1", "nan"])
def test_bad_epsilon_exits_1(command, epsilon):
    head = diagnostic(command[0], TOY, *command[1:], "--epsilon", epsilon)
    assert head == f"{TOY}: error: epsilon must be positive"


@pytest.mark.parametrize("command", COMMANDS[1:], ids=lambda c: c[0])
def test_infinite_epsilon_exits_1(command):
    head = diagnostic(command[0], TOY, *command[1:], "--epsilon", "inf")
    assert head == f"{TOY}: error: epsilon must be finite"


@pytest.mark.parametrize("command", COMMANDS[1:], ids=lambda c: c[0])
def test_underflowing_epsilon_exits_1(command):
    """VI's stopping threshold is 0.0 for this epsilon; without the
    check value iteration never ends."""
    head = diagnostic(command[0], TOY, *command[1:], "--epsilon", "5e-324")
    assert head == (f"{TOY}: error: epsilon 5e-324 is too small: the "
                    "stopping threshold epsilon*(1-gamma)/(2*gamma) "
                    "underflows to 0")


@pytest.mark.parametrize("command", [
    ("solve", "--method", "policy"),
    ("export-dot", "--method", "policy"),
    ("export-dot", "--full"),
    ("simulate", "--controller", "replan,random", "--ticks", "10"),
    ("simulate", "--policy", "missing.policy", "--ticks", "10"),
], ids=["solve-policy", "export-dot-policy", "export-dot-full",
        "simulate-no-reflex", "simulate-policy"])
def test_unread_epsilon_exits_1(command, monkeypatch):
    """An --epsilon that no value iteration reads is refused before the
    model is compiled, whatever its value."""
    compiles = []
    monkeypatch.setattr("obd.cli.compile_model",
                        lambda *args: compiles.append(args))
    for epsilon in ("0.5", "-1"):
        head = diagnostic(command[0], TOY, *command[1:], "--epsilon", epsilon)
        assert head == "--epsilon: error: only value iteration reads epsilon"
    assert compiles == []


@pytest.mark.parametrize("command,message", [
    (("export-dot", "--full", "--method", "value"),
     "--method: error: --full solves nothing"),
    (("export-dot", "--full", "--method", "policy"),
     "--method: error: --full solves nothing"),
    (("simulate", "--planner-budget", "5", "--ticks", "10"),
     "--planner-budget: error: only the replan controller reads a planner "
     "budget"),
    (("simulate", "--controller", "reflex,random", "--planner-budget", "5",
      "--ticks", "10"),
     "--planner-budget: error: only the replan controller reads a planner "
     "budget"),
], ids=["full-value", "full-policy", "reflex", "reflex-random"])
def test_unread_method_or_planner_budget_exits_1(command, message,
                                                 monkeypatch):
    """A --method that --full never solves with, or a --planner-budget
    that no replanning controller reads, is refused before the model is
    compiled."""
    compiles = []
    monkeypatch.setattr("obd.cli.compile_model",
                        lambda *args: compiles.append(args))
    assert diagnostic(command[0], TOY, *command[1:]) == message
    assert compiles == []


def test_read_method_and_planner_budget_still_run():
    for args in (("export-dot", TOY, "--method", "policy"),
                 ("simulate", TOY, "--controller", "replan",
                  "--planner-budget", "5", "--ticks", "10")):
        result = invoke(*args)
        assert result.exit_code == 0, result.stderr


def test_tiny_epsilon_still_solves():
    result = invoke("solve", TOY, "--epsilon", "1e-300")
    assert result.exit_code == 0, result.stderr


@pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
@pytest.mark.parametrize("limit", ["-1", "0"])
def test_state_limit_below_1_exits_1(command, limit):
    head = diagnostic(command[0], TOY, *command[1:], "--max-states", limit)
    assert head == "--max-states: error: must be >= 1"


@pytest.mark.parametrize("shape", test_dsl.DEPTH_SHAPES)
def test_condition_depth_bound(tmp_path, shape):
    """Conditions at the depth bound in every clause go through every
    command, all three controllers and the overlap diagnostic that
    formats them; one level deeper is a diagnostic at the first token."""
    def write(levels, second_branch=""):
        cond = test_dsl.deep_condition(shape, levels)
        path = tmp_path / f"{shape}-{levels}.obd"
        path.write_text(
            f"Variable y\nAction a if {cond} effects <!x>{second_branch}\n"
            f"Event e if {cond} occur prob 1/2 effects <!y>\n"
            f"ReqID g achieve {cond} within 2 if {cond} unless !y reward 1\n"
            f"ReqID h achieve {cond} reward 1\nInit {{ x, y }}\n")
        return str(path)

    at_bound = write(dsl.MAX_CONDITION_DEPTH)
    for command in COMMANDS:
        assert invoke(command[0], at_bound, *command[1:]).exit_code == 0
    assert invoke("simulate", at_bound, "--controller", "reflex,replan,random",
                  "--ticks", "20").exit_code == 0
    overlap = write(dsl.MAX_CONDITION_DEPTH, " if x effects <y>")
    result = invoke("compile", overlap)
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
    assert "overlap in state" in result.stderr.splitlines()[-1]
    past = write(dsl.MAX_CONDITION_DEPTH + 1)
    assert diagnostic("compile", past) == (
        f"{past}:2:13: error: condition nested more than "
        f"{dsl.MAX_CONDITION_DEPTH} levels deep")


@pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
def test_unwritable_out_exits_1(tmp_path, command):
    out = tmp_path / "missing-dir" / "out.txt"
    head = diagnostic(command[0], TOY, *command[1:], "--out", str(out))
    assert head == f"{out}: {os.strerror(errno.ENOENT)}"


def test_unwritable_json_out_exits_1(tmp_path):
    head = diagnostic("solve", TOY, "--json-out", str(tmp_path))
    assert head == f"{tmp_path}: {os.strerror(errno.EISDIR)}"


def test_non_utf8_model_exits_1(tmp_path):
    bad = tmp_path / "bad.obd"
    bad.write_bytes(b"Variable x\nInit { x }  # caf\xe9\n")
    for command in ("compile", "solve", "export-dot", "simulate"):
        assert diagnostic(command, str(bad)) == \
            f"{bad}: error: not UTF-8 text (byte offset 28)"


def test_simulate_repeated_controller_exits_1_before_compiling(
        tmp_path, monkeypatch):
    compiles = []
    monkeypatch.setattr("obd.cli.compile_model",
                        lambda *args: compiles.append(args))
    out = tmp_path / "metrics.csv"
    result = invoke("simulate", TOY, "--controller",
                    "random,reflex, random,reflex,random", "--ticks", "10",
                    "--out", str(out))
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # no Python traceback
    assert result.stderr == \
        "--controller: error: repeated controller(s): random, reflex\n"
    assert result.stdout == ""  # no CSV
    assert not out.exists()
    assert compiles == []


def test_non_utf8_obdmdp_exits_1(tmp_path):
    mdp = tmp_path / "toy.mdp"
    assert invoke("compile", TOY, "--out", str(mdp)).exit_code == 0
    mdp.write_bytes(mdp.read_bytes().replace(b"x=tt", b"x=\xff", 1))
    assert diagnostic("solve", str(mdp)).startswith(
        f"{mdp}: error: not UTF-8 text")


def test_non_utf8_policy_exits_1(tmp_path):
    pol = tmp_path / "toy.policy"
    pol.write_bytes(b"obdpolicy/1\n\xff\n")
    head = diagnostic("simulate", TOY, "--ticks", "10", "--policy", str(pol))
    assert head == f"{pol}: error: not UTF-8 text (byte offset 12)"


def test_simulate_obdmdp_file_exits_1(tmp_path):
    mdp = tmp_path / "toy.mdp"
    assert invoke("compile", TOY, "--out", str(mdp)).exit_code == 0
    for controller in ("reflex", "replan", "random"):
        head = diagnostic("simulate", str(mdp), "--ticks", "10",
                          "--controller", controller)
        assert head.startswith(f"{mdp}: error: ")


def test_simulate_obdmdp_file_exits_before_solving(tmp_path, monkeypatch):
    mdp = tmp_path / "toy.mdp"
    assert invoke("compile", TOY, "--out", str(mdp)).exit_code == 0
    solves = []
    monkeypatch.setattr("obd.cli.value_iteration",
                        lambda *args: solves.append(args))
    assert diagnostic("simulate", str(mdp), "--ticks", "10") == (
        f"{mdp}: error: model was loaded from obdmdp text; "
        "simulation needs an in-process compile")
    assert solves == []


@pytest.mark.parametrize("flag,value,message", [
    ("--ticks", "-1", "--ticks: error: must be >= 0"),
    ("--seeds", "-2", "--seeds: error: must be >= 1"),
    ("--seeds", "0", "--seeds: error: must be >= 1"),
    ("--planner-budget", "-1", "--planner-budget: error: must be >= 1"),
    ("--controller", ",", "--controller: error: names no controller"),
    ("--controller", "reflex,oracle",
     "--controller: error: unknown controller(s): oracle"),
])
def test_simulate_bad_flag_exits_1(tmp_path, flag, value, message):
    out = tmp_path / "metrics.csv"
    assert diagnostic("simulate", TOY, flag, value, "--out", str(out)) \
        == message
    assert not out.exists()


# ---------------------------------------------------------------------------
# determinism across invocations


def test_outputs_are_byte_identical(tmp_path):
    paths = {}
    for tag in ("one", "two"):
        mdp = tmp_path / f"{tag}.mdp"
        pol = tmp_path / f"{tag}.policy"
        dot = tmp_path / f"{tag}.dot"
        csv = tmp_path / f"{tag}.csv"
        assert invoke("compile", TOY, "--out", str(mdp)).exit_code == 0
        assert invoke("solve", TOY, "--out", str(pol)).exit_code == 0
        assert invoke("export-dot", TOY, "--out", str(dot)).exit_code == 0
        assert invoke("simulate", TOY, "--ticks", "100", "--seeds", "2",
                      "--controller", "reflex,random",
                      "--out", str(csv)).exit_code == 0
        paths[tag] = (mdp.read_bytes(), pol.read_bytes(), dot.read_bytes())
    assert paths["one"] == paths["two"]
