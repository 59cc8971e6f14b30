"""Command-line front end: compile, solve, simulate, export-dot.

Exit codes: 0 success, 1 bad input, 2 state-limit breach. Every bad file,
flag or output path gives a one-line diagnostic that names it and exit
code 1, never a traceback: `file:line:col: error: message` for parse and
validation errors, `name: error: message` otherwise. Click's own usage
errors (an unknown option, `--ticks abc`) exit 2. Machine outputs
(obdmdp/1, obdpolicy/1, its JSON mirror, CSV, DOT) are newline-terminated
UTF-8, and they are all stdout carries: diagnostics and the commands'
one-line summaries go to stderr, so a document written with `--out -`
can be piped into a file that the next command reads.
obdmdp/1, obdpolicy/1 and DOT are byte-stable across runs with equal
inputs; the CSV's medianLatencyNs column is a wall-clock timing and varies.
"""

from __future__ import annotations

import math
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import click

from obd import dsl
from obd.compiler import (
    DEFAULT_GAMMA,
    DEFAULT_STATE_LIMIT,
    FORMAT_MDP,
    MdpModel,
    StateLimitError,
    compile_model,
    dump_mdp,
    load_mdp,
)
from obd.dsl import ObdError, ParseError
from obd.solver import (
    DEFAULT_EPSILON,
    Strategy,
    dump_policy,
    load_policy,
    policy_iteration,
    policy_to_json,
    value_iteration,
)
from obd import sim as simulation

EXIT_ERROR = 1
EXIT_STATE_LIMIT = 2


def _fail(message: str, code: int = EXIT_ERROR):
    click.echo(message, err=True)
    sys.exit(code)


@contextmanager
def _reporting(path: str):
    """The one error boundary: an error raised while working on `path`
    becomes a diagnostic naming it, and the process exits."""
    try:
        yield
    except ParseError as exc:
        _fail(f"{path}:{exc.line}:{exc.col}: error: {exc.message}")
    except StateLimitError as exc:
        _fail(f"{path}: error: {exc}", EXIT_STATE_LIMIT)
    except ObdError as exc:
        _fail(f"{path}: error: {exc}")
    except OSError as exc:
        _fail(f"{path}: {exc.strerror or exc}")
    except UnicodeDecodeError as exc:
        _fail(f"{path}: error: not UTF-8 text (byte offset {exc.start})")
    except MemoryError:
        _fail(f"{path}: error: out of memory; a smaller model or "
              "--max-states may fit")


def _model(path: str, gamma, max_states: int) -> MdpModel:
    """Load an obdmdp/1 file, or parse, validate and compile a model.
    `gamma` is None when --gamma is not given."""
    with _reporting(path):
        text = Path(path).read_text(encoding="utf-8")
        if text.partition("\n")[0] == FORMAT_MDP:
            if gamma is not None:
                _fail(f"--gamma: error: {path} is an {FORMAT_MDP} file, "
                      "which stores its own discount factor")
            return load_mdp(text, max_states)
        model = dsl.parse_domain(text)
        diagnostics = dsl.validate(model)
        errors = [d for d in diagnostics if d.severity == "error"]
        # errors alone when there are any; warnings and infos otherwise
        for diag in errors or diagnostics:
            click.echo(diag.render(path), err=True)
        if errors:
            sys.exit(EXIT_ERROR)
        mdp = compile_model(model, DEFAULT_GAMMA if gamma is None else gamma,
                            max_states)
    for warning in mdp.warnings:
        click.echo(warning.render(path), err=True)
    return mdp


def _solve(path: str, mdp: MdpModel, method, epsilon) -> Strategy:
    """`method` and `epsilon` are None when --method and --epsilon are
    not given."""
    with _reporting(path):
        if method == "policy":
            return policy_iteration(mdp)
        return value_iteration(
            mdp, DEFAULT_EPSILON if epsilon is None else epsilon)


def _unread(epsilon) -> None:
    """An --epsilon that no value iteration of the command reads."""
    if epsilon is not None:
        _fail("--epsilon: error: only value iteration reads epsilon")


def _write(path, text: str):
    if path is None or path == "-":
        click.echo(text, nl=False)
        return
    with _reporting(path):
        Path(path).write_text(text, encoding="utf-8")


def _exact(ctx, param, value: float | None):
    """The decimal the user wrote, as an exact fraction; a non-finite
    value is passed on for the compiler's range check to report."""
    if value is None or not math.isfinite(value):
        return value
    return Fraction(str(value))


def _positive_limit(ctx, param, value: int) -> int:
    """A state limit below 1 would turn away every model."""
    if value < 1:
        _fail("--max-states: error: must be >= 1")
    return value


gamma_option = click.option(
    "--gamma", type=float, default=None, show_default="0.95", callback=_exact,
    help="Discount factor in (0,1); an obdmdp/1 file stores its own.")
max_states_option = click.option(
    "--max-states", default=DEFAULT_STATE_LIMIT, show_default=True,
    callback=_positive_limit,
    help="Abort when the state space exceeds this size.")
epsilon_option = click.option(
    "--epsilon", type=float, default=None, show_default=str(DEFAULT_EPSILON),
    help="Value iteration's distance from optimal.")
method_option = click.option("--method", type=click.Choice(["value", "policy"]),
                             default=None, show_default="value")


@click.group()
def main():
    """Compile .obd domain descriptions to MDPs, solve them, and run the
    resulting controllers in simulation."""


@main.command("compile")
@click.argument("input_path", metavar="MODEL.obd")
@gamma_option
@max_states_option
@click.option("--out", "out_path", default=None,
              help="Write the obdmdp/1 serialization here ('-' = stdout).")
def cmd_compile(input_path, gamma, max_states, out_path):
    """Parse, validate and compile a domain description."""
    started = time.perf_counter()
    mdp = _model(input_path, gamma, max_states)
    elapsed = time.perf_counter() - started
    if mdp.events is None:  # read from obdmdp/1, which holds the products
        nnz = sum(m.nnz() for m in mdp.transitions.values())
        sizes = f"{nnz} transition entries"
    else:
        nnz = sum(m.nnz() for m in mdp.explicit.values())
        # E holds the rows an action step reaches, and no other
        held = int((mdp.events.indptr[1:] > mdp.events.indptr[:-1]).sum())
        sizes = (f"{mdp.events.nnz()} event-product entries, {nnz} "
                 f"action-matrix entries, {held} states after an action "
                 "step")
    if out_path is not None:
        with _reporting(input_path):  # builds the products X_a E and R_a
            text = dump_mdp(mdp)
        _write(out_path, text)
    # last, so that a failed write leaves its diagnostic alone on stderr
    click.echo(f"{mdp.n_states} states, {mdp.n_actions} actions (incl. noop), "
               f"{sizes}, built in {elapsed:.3f} s", err=True)


@main.command("solve")
@click.argument("input_path", metavar="MODEL.obd|MODEL.mdp")
@method_option
@epsilon_option
@gamma_option
@max_states_option
@click.option("--out", "out_path", default=None,
              help="Write the obdpolicy/1 strategy here ('-' = stdout).")
@click.option("--json-out", "json_path", default=None,
              help="Also write a JSON mirror of the strategy.")
def cmd_solve(input_path, method, epsilon, gamma, max_states, out_path,
              json_path):
    """Compute the optimal strategy of a model (or a compiled .mdp file)."""
    if method == "policy":
        _unread(epsilon)
    mdp = _model(input_path, gamma, max_states)
    strategy = _solve(input_path, mdp, method, epsilon)
    if out_path is not None:
        _write(out_path, dump_policy(strategy, mdp))
    if json_path is not None:
        _write(json_path, policy_to_json(strategy, mdp))
    if method == "policy":
        click.echo(f"{strategy.method}: {strategy.iterations} evaluations "
                   f"after {len(strategy.residuals)} sweeps", err=True)
    else:
        click.echo(f"{strategy.method}: {strategy.iterations} iterations, "
                   f"residual {strategy.residual:.3e}", err=True)


@main.command("simulate")
@click.argument("input_path", metavar="MODEL.obd")
@click.option("--controller", "controllers", default="reflex",
              show_default=True,
              help="Comma-separated subset of reflex,replan,random.")
@click.option("--ticks", default=10_000, show_default=True)
@click.option("--seeds", default=1, show_default=True,
              help="Run seeds 0..N-1 for every controller.")
@gamma_option
@epsilon_option
@max_states_option
@click.option("--policy", "policy_path", default=None,
              help="Reuse a saved obdpolicy/1 strategy for the reflex "
                   "controller instead of solving in-process.")
@click.option("--planner-budget", type=int, default=None,
              show_default=str(simulation.PLANNER_BUDGET),
              help="Search budget of the replan controller.")
@click.option("--out", "out_path", default=None,
              help="Write the metrics CSV here ('-' = stdout).")
def cmd_simulate(input_path, controllers, ticks, seeds, gamma, epsilon,
                 max_states, policy_path, planner_budget, out_path):
    """Run controllers against the simulated environment."""
    if ticks < 0:
        _fail("--ticks: error: must be >= 0")
    if seeds < 1:
        _fail("--seeds: error: must be >= 1")
    if planner_budget is not None and planner_budget < 1:
        _fail("--planner-budget: error: must be >= 1")
    names = [c.strip() for c in controllers.split(",") if c.strip()]
    unknown = [c for c in names if c not in ("reflex", "replan", "random")]
    if unknown:
        _fail(f"--controller: error: unknown controller(s): "
              f"{', '.join(unknown)}")
    if not names:
        _fail("--controller: error: names no controller")
    repeated = dict.fromkeys(c for k, c in enumerate(names) if c in names[:k])
    if repeated:
        _fail(f"--controller: error: repeated controller(s): "
              f"{', '.join(repeated)}")
    if policy_path is not None and "reflex" not in names:
        _fail("--policy: error: only the reflex controller reads a policy")
    if policy_path is not None or "reflex" not in names:
        _unread(epsilon)
    if planner_budget is not None and "replan" not in names:
        _fail("--planner-budget: error: only the replan controller reads "
              "a planner budget")
    mdp = _model(input_path, gamma, max_states)
    with _reporting(input_path):  # before solving: obdmdp/1 cannot simulate
        simulation.require_source(mdp)

    strategy = None
    if policy_path is not None:
        with _reporting(policy_path):
            strategy = load_policy(
                Path(policy_path).read_text(encoding="utf-8"), mdp)
    elif "reflex" in names:
        strategy = _solve(input_path, mdp, "value", epsilon)

    with _reporting(input_path):
        rows = [simulation.run(mdp, _controller(name, mdp, strategy,
                                                planner_budget), ticks, seed)
                for name in names for seed in range(seeds)]
    _write(out_path, simulation.metrics_csv(rows))
    if out_path is not None:
        click.echo(simulation.metrics_summary(rows), nl=False, err=True)


def _controller(name, mdp, strategy, planner_budget):
    if name == "reflex":
        return simulation.ReflexController(mdp, strategy)
    if name == "replan":
        return simulation.ReplanningController(
            mdp, budget=simulation.PLANNER_BUDGET if planner_budget is None
            else planner_budget)
    return simulation.RandomController(mdp)


# ---------------------------------------------------------------------------
# DOT export


def dot_text(mdp: MdpModel, strategy=None, full: bool = False) -> str:
    """DOT digraph of the compiled MDP.

    Strategy mode draws only the chosen action's transitions per state;
    full mode draws every action's. Edge labels: action, probability,
    signed reward. Output is deterministic.
    """
    lines = ["digraph mdp {", "  rankdir=LR;"]
    for i in range(mdp.n_states):
        label = "\\n".join(f"{k}={v}" for k, v in mdp.space.atoms(i))
        lines.append(f'  s{i} [label="{label}"];')
    edges = {}  # action name -> DOT edge lines per source state
    for name in mdp.action_names:
        t, r = mdp.transitions[name], mdp.rewards[name]
        rewards = dict(zip(zip(r.entry_rows().tolist(), r.indices.tolist()),
                           r.csr.data.tolist()))
        edges[name] = [[] for _ in range(mdp.n_states)]
        for i, j, p in zip(t.entry_rows().tolist(), t.indices.tolist(),
                           t.csr.data.tolist()):
            rew = rewards.get((i, j), 0.0)
            edges[name][i].append(
                f'  s{i} -> s{j} [label="{name}, {p:g}, {rew:+g}"];')
    for i in range(mdp.n_states):
        if full:
            chosen = mdp.action_names
        else:
            chosen = (mdp.action_names[strategy.actions[i]],)
        for name in chosen:
            lines.extend(edges[name][i])
    lines.append("}")
    return "\n".join(lines) + "\n"


@main.command("export-dot")
@click.argument("input_path", metavar="MODEL.obd|MODEL.mdp")
@click.option("--full", is_flag=True,
              help="Emit every action's edges instead of the strategy's.")
@method_option
@epsilon_option
@gamma_option
@max_states_option
@click.option("--out", "out_path", default=None,
              help="Write the DOT text here ('-' = stdout).")
def cmd_export_dot(input_path, full, method, epsilon, gamma, max_states,
                   out_path):
    """Emit DOT text for the compiled MDP or its optimal strategy."""
    if full and method is not None:
        _fail("--method: error: --full solves nothing")
    if full or method == "policy":
        _unread(epsilon)
    mdp = _model(input_path, gamma, max_states)
    strategy = None if full else _solve(input_path, mdp, method, epsilon)
    with _reporting(input_path):  # builds the products X_a E and R_a
        text = dot_text(mdp, strategy, full=full)
    _write(out_path, text)


if __name__ == "__main__":
    main()
