"""Command-line front end: compile, solve, simulate, export-dot.

Exit codes: 0 success, 1 parse/validation/input error, 2 state-limit
breach. Machine outputs (obdmdp/1, obdpolicy/1, CSV, DOT) are
newline-terminated UTF-8. obdmdp/1, obdpolicy/1 and DOT are byte-stable
across runs with equal inputs; the CSV's medianLatencyNs column is a
wall-clock timing and varies.
"""

from __future__ import annotations

import sys
import time
from fractions import Fraction
from pathlib import Path

import click

from obd import dsl
from obd.compiler import (
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


def _load_model(path: str) -> dsl.DomainModel:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        _fail(f"{path}: {exc.strerror or exc}")
    try:
        model = dsl.parse_domain(text)
    except ParseError as exc:
        _fail(f"{path}:{exc.line}:{exc.col}: error: {exc.message}")
    diagnostics = dsl.validate(model)
    errors = False
    for diag in diagnostics:
        if diag.severity == "error":
            errors = True
            click.echo(diag.render(path), err=True)
    if errors:
        sys.exit(EXIT_ERROR)
    return model


def _compile(path: str, gamma: float, max_states: int) -> MdpModel:
    model = _load_model(path)
    try:
        mdp = compile_model(model, gamma=Fraction(str(gamma)),
                            limit=max_states)
    except StateLimitError as exc:
        _fail(f"{path}: error: {exc}", EXIT_STATE_LIMIT)
    except ObdError as exc:
        _fail(f"{path}: error: {exc}")
    for warning in mdp.warnings:
        click.echo(f"{path}: warning: {warning}", err=True)
    return mdp


def _solve(mdp: MdpModel, method: str, epsilon: float) -> Strategy:
    if method == "policy":
        return policy_iteration(mdp)
    return value_iteration(mdp, epsilon)


def _write(path, text: str):
    if path is None or path == "-":
        click.echo(text, nl=False)
    else:
        Path(path).write_text(text, encoding="utf-8")


@click.group()
def main():
    """Compile .obd domain descriptions to MDPs, solve them, and run the
    resulting controllers in simulation."""


@main.command("compile")
@click.argument("input_path", metavar="MODEL.obd")
@click.option("--gamma", default=0.95, show_default=True,
              help="Discount factor in (0,1).")
@click.option("--max-states", default=DEFAULT_STATE_LIMIT, show_default=True,
              help="Abort when the state space exceeds this size.")
@click.option("--out", "out_path", default=None,
              help="Write the obdmdp/1 serialization here ('-' = stdout).")
def cmd_compile(input_path, gamma, max_states, out_path):
    """Parse, validate and compile a domain description."""
    started = time.perf_counter()
    mdp = _compile(input_path, gamma, max_states)
    elapsed = time.perf_counter() - started
    transitions = sum(mdp.transitions[name].nnz() for name in mdp.action_names)
    click.echo(f"{mdp.n_states} states, {mdp.n_actions} actions (incl. noop), "
               f"{transitions} transitions, built in {elapsed:.3f} s")
    if out_path is not None:
        _write(out_path, dump_mdp(mdp))


@main.command("solve")
@click.argument("input_path", metavar="MODEL.obd|MODEL.mdp")
@click.option("--method", type=click.Choice(["value", "policy"]),
              default="value", show_default=True)
@click.option("--epsilon", default=DEFAULT_EPSILON, show_default=True)
@click.option("--gamma", default=0.95, show_default=True)
@click.option("--max-states", default=DEFAULT_STATE_LIMIT, show_default=True)
@click.option("--out", "out_path", default=None,
              help="Write the obdpolicy/1 strategy here ('-' = stdout).")
@click.option("--json-out", "json_path", default=None,
              help="Also write a JSON mirror of the strategy.")
def cmd_solve(input_path, method, epsilon, gamma, max_states, out_path,
              json_path):
    """Compute the optimal strategy of a model (or a compiled .mdp file)."""
    mdp = _load_mdp_or_model(input_path, gamma, max_states)
    try:
        strategy = _solve(mdp, method, epsilon)
    except ObdError as exc:
        _fail(f"{input_path}: error: {exc}")
    click.echo(f"{strategy.method}: {strategy.iterations} iterations, "
               f"residual {strategy.residual:.3e}")
    if out_path is not None:
        _write(out_path, dump_policy(strategy, mdp))
    if json_path is not None:
        _write(json_path, policy_to_json(strategy, mdp))


def _load_mdp_or_model(input_path, gamma, max_states) -> MdpModel:
    try:
        first = Path(input_path).open(encoding="utf-8").readline().rstrip("\n")
    except OSError as exc:
        _fail(f"{input_path}: {exc.strerror or exc}")
    if first == FORMAT_MDP:
        try:
            return load_mdp(Path(input_path).read_text(encoding="utf-8"))
        except ObdError as exc:
            _fail(f"{input_path}: error: {exc}")
    return _compile(input_path, gamma, max_states)


@main.command("simulate")
@click.argument("input_path", metavar="MODEL.obd")
@click.option("--controller", "controllers", default="reflex",
              show_default=True,
              help="Comma-separated subset of reflex,replan,random.")
@click.option("--ticks", default=10_000, show_default=True)
@click.option("--seeds", default=1, show_default=True,
              help="Run seeds 0..N-1 for every controller.")
@click.option("--gamma", default=0.95, show_default=True)
@click.option("--epsilon", default=DEFAULT_EPSILON, show_default=True)
@click.option("--max-states", default=DEFAULT_STATE_LIMIT, show_default=True)
@click.option("--policy", "policy_path", default=None,
              help="Reuse a saved obdpolicy/1 strategy for the reflex "
                   "controller instead of solving in-process.")
@click.option("--planner-budget", default=10_000, show_default=True)
@click.option("--out", "out_path", default=None,
              help="Write the metrics CSV here ('-' = stdout).")
def cmd_simulate(input_path, controllers, ticks, seeds, gamma, epsilon,
                 max_states, policy_path, planner_budget, out_path):
    """Run controllers against the simulated environment."""
    if ticks < 0:
        _fail("--ticks must be >= 0")
    names = [c.strip() for c in controllers.split(",") if c.strip()]
    unknown = [c for c in names if c not in ("reflex", "replan", "random")]
    if unknown:
        _fail(f"unknown controller(s): {', '.join(unknown)}")
    mdp = _compile(input_path, gamma, max_states)

    strategy = None
    if "reflex" in names:
        if policy_path is not None:
            try:
                text = Path(policy_path).read_text(encoding="utf-8")
            except OSError:
                _fail(f"{policy_path}: missing policy for reflex mode")
            try:
                strategy = load_policy(text, mdp)
            except ObdError as exc:
                _fail(f"{policy_path}: error: {exc}")
        else:
            strategy = value_iteration(mdp, epsilon)

    rows = []
    for name in names:
        for seed in range(seeds):
            controller = _make_controller(name, mdp, strategy, planner_budget)
            rows.append(simulation.run(mdp, controller, ticks, seed))
    _write(out_path, simulation.metrics_csv(rows))
    if out_path is not None:
        click.echo(simulation.metrics_summary(rows), nl=False)


def _make_controller(name, mdp, strategy, planner_budget):
    if name == "reflex":
        return simulation.ReflexController(mdp, strategy)
    if name == "replan":
        return simulation.ReplanningController(mdp, budget=planner_budget)
    return simulation.RandomController(mdp)


# ---------------------------------------------------------------------------
# DOT export


def _fmt_value(x: float) -> str:
    return format(x, "g")


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
        rewards = {(i, j): r for i, j, r in mdp.rewards[name].entries()}
        edges[name] = [[] for _ in range(mdp.n_states)]
        for i, j, p in mdp.transitions[name].entries():
            rew = rewards.get((i, j), 0.0)
            edges[name][i].append(
                f'  s{i} -> s{j} [label="{name}, {_fmt_value(p)}, {rew:+g}"];')
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
@click.option("--method", type=click.Choice(["value", "policy"]),
              default="value", show_default=True)
@click.option("--epsilon", default=DEFAULT_EPSILON, show_default=True)
@click.option("--gamma", default=0.95, show_default=True)
@click.option("--max-states", default=DEFAULT_STATE_LIMIT, show_default=True)
@click.option("--out", "out_path", default=None,
              help="Write the DOT text here ('-' = stdout).")
def cmd_export_dot(input_path, full, method, epsilon, gamma, max_states,
                   out_path):
    """Emit DOT text for the compiled MDP or its optimal strategy."""
    mdp = _load_mdp_or_model(input_path, gamma, max_states)
    strategy = None
    if not full:
        try:
            strategy = _solve(mdp, method, epsilon)
        except ObdError as exc:
            _fail(f"{input_path}: error: {exc}")
    _write(out_path, dot_text(mdp, strategy, full=full))


if __name__ == "__main__":
    main()
