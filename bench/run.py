#!/usr/bin/env python3
"""obd benchmark: time the compile -> solve -> simulate pipeline.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Workloads are listed in workloads.py and
described, with every metric, in bench/README.md. An untraced run
(--trace 0) reports the end-to-end metrics; a traced run (--trace 1)
swaps timing wrappers into the program's modules and reports per-layer
metrics. Every operation's output is checked; the last line of standard
output is one JSON object with the result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import itertools
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

try:
    import workloads  # first: puts the checkout's src and tests on the path
    import checks
    import reference
    import tracing
except ImportError as exc:
    sys.exit(f"bench: cannot import the program under test: {exc}")

from obd.solver import DEFAULT_EPSILON  # noqa: E402

HERE = Path(__file__).resolve().parent
EXPECTED = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
SETUP_SAMPLES = 5
MIN_PASSES = 3

# Metric names and units; the result must carry exactly these.
CONTRACT = json.loads((HERE.parent / "BENCHMARK.json").read_text(
    encoding="utf-8"))
UNITS = {m["name"]: m["unit"]
         for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]}
# Counts fixed by the model's structure, equal for every model of a
# workload; the other counts depend on the model's probabilities. All of
# them repeat exactly across runs with the same seed.
STRUCTURAL_COUNTS = ("compiler.states", "compiler.events_nnz",
                     "compiler.transitions_nnz", "compiler.rewards_nnz",
                     "reqauto.update_calls", "reqauto.reward_calls")
COUNT_METRICS = STRUCTURAL_COUNTS + ("compiler.mdp_bytes",
                                     "solver.vi_sweeps",
                                     "solver.pi_iterations")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def current_rss_mb() -> float:
    with open("/proc/self/statm", encoding="ascii") as f:
        pages = int(f.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2.0 ** 20


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter until probe.py has done
    this run's set-up. Not scaled to nominal speed: the probe runs on
    whichever core is free, so samples taken here do not describe it."""
    t0 = time.perf_counter()
    with subprocess.Popen(
            [sys.executable, str(HERE / "probe.py"), workload, str(seed)],
            stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed ({proc.returncode})")
    return t1 - t0


def repeat(budget_s: float, minimum: int):
    """Yield 0, 1, ... until the next item would end past the budget,
    predicting its length from the previous one; at least `minimum`."""
    start = time.perf_counter()
    last = 0.0
    for n in itertools.count():
        elapsed = time.perf_counter() - start
        if n >= minimum and elapsed + last > budget_s:
            return
        t0 = time.perf_counter()
        yield n
        last = time.perf_counter() - t0


@dataclass
class SimRun:
    """What the report keeps of one simulation run."""

    goals_per_tick: float
    ticks_per_s: float
    p50_ns: float  # decision latency percentiles within the run
    p99_ns: float
    plan_failures: int
    plan_calls: int  # counted only when traced


class Run:
    """Operations attempted, the labels of those that failed, and the
    machine-speed samples that convert times to nominal speed."""

    def __init__(self):
        self.attempted = 0
        self.failures: set = set()
        self.speed = reference.Sampler()

    @property
    def failed(self) -> int:
        return len(self.failures)

    @contextmanager
    def operation(self, label: str):
        """One pipeline pass or simulation run; the block yields a list
        to which it appends problems found in the output."""
        self.attempted += 1
        problems: list = []
        try:
            yield problems
        except Exception:  # a crash fails the operation, not the run
            traceback.print_exc()
            problems.append("raised")
        if problems:
            self.failures.add(label)
            print(f"FAILED {label}: " + "; ".join(problems[:5]),
                  file=sys.stderr)


def check_pass(p, rng: random.Random, digest: str, want: str) -> list:
    problems = [d.message for d in p.diagnostics if d.severity == "error"]
    problems += checks.oracle_rows(p.mdp, rng)
    problems += checks.row_sums(p.mdp)
    problems += checks.solutions(p.mdp, p.vi, p.pi, DEFAULT_EPSILON)
    if digest != want:
        problems.append(f"obdmdp sha256 {digest[:12]} differs from the "
                        f"stored {want[:12]}")
    return problems


def traced_pass(tracer, text: str):
    """One pipeline pass with the wrappers installed; returns the pass and
    its per-layer numbers."""
    first, before = len(tracer.spans), Counter(tracer.counts)
    rss = []

    @contextmanager
    def span(name):
        with tracer.span(name):
            yield
        if name == "compiler.compile_model":
            rss.append(current_rss_mb())

    with tracer.installed():
        p = workloads.pipeline_pass(text, span)
    total = tracer.totals(first)
    compile_idx = tracer.find("compiler.compile_model", first)
    children = tracer.totals(first, parent=compile_idx)
    vi_idx = tracer.find("solver.value_iteration", first)
    export_s = tracer.totals(first, parent=vi_idx)["solver.export"]
    counts = tracer.counts - before
    intervals = {k: end - start for k, (start, end) in p.intervals().items()}
    return p, {
        "dsl.parse_s": total["dsl.parse"],
        "dsl.validate_s": total["dsl.validate"],
        **{f"{name}_s": total[name] for name in (
            "compiler.enumerate", "compiler.event_matrices",
            "compiler.event_product", "compiler.action_matrices",
            "compiler.implicit", "compiler.reward")},
        "compiler.self_s": tracer.duration(compile_idx)
        - sum(children.values()),
        "compiler.states": p.mdp.n_states,
        "compiler.events_nnz": tracer.events_nnz,
        "compiler.transitions_nnz": sum(
            p.mdp.transition_csr(a).nnz for a in p.mdp.action_names),
        "compiler.rewards_nnz": sum(
            p.mdp.reward_csr(a).nnz for a in p.mdp.action_names),
        "compiler.dump_mdp_s": total["compiler.dump_mdp"],
        "compiler.mdp_bytes": len(p.mdp_text.encode()),
        "reqauto.update_calls": counts["reqauto.update_calls"],
        "reqauto.reward_calls": counts["reqauto.reward_calls"],
        "solver.export_s": export_s,
        "solver.vi_sweeps": p.vi.iterations,
        "solver.vi_sweep_ms": 1e3 * (intervals["vi_s"] - export_s)
        / p.vi.iterations,
        "solver.pi_iterations": p.pi.iterations,
        "solver.pi_iteration_ms": 1e3 * intervals["pi_s"] / p.pi.iterations,
        "solver.dump_policy_s": total["solver.dump_policy"],
        "rss.after_compile_mb": rss[0],
        "trace.compile_s": intervals["compile_s"],
        "trace.pipeline_s": intervals["pipeline_s"],
    }


class Passes:
    """Runs and checks pipeline passes, keeping only what the report needs.
    With a tracer, odd-numbered passes are traced."""

    def __init__(self, run: Run, setup, tracer=None):
        self.run, self.tracer = run, tracer
        self.digests = EXPECTED["mdp_sha256"][setup.workload.name]
        self.rng = random.Random(f"oracle rows {setup.seed}")
        self.timings: list = []  # untraced passes
        self.layers: list = []  # traced passes

    def __call__(self, key: str, text: str):
        """One pass on the model `key`; returns it, or None if it raised."""
        n = len(self.timings) + len(self.layers)
        gc.collect()
        with self.run.operation(f"pass {n} on model {key}") as problems:
            if self.tracer is not None and n % 2 == 1:
                p, layer = traced_pass(self.tracer, text)
                self.layers.append(layer)
                if any(layer[k] != self.layers[0][k]
                       for k in STRUCTURAL_COUNTS):
                    problems.append("structural counts differ between "
                                    "passes")
            else:
                p = workloads.pipeline_pass(text)
                self.timings.append({
                    name: self.run.speed.nominal(*interval)
                    for name, interval in p.intervals().items()})
            digest = hashlib.sha256(p.mdp_text.encode()).hexdigest()
            problems += check_pass(p, self.rng, digest, self.digests[key])
            return p


class Sims:
    """Simulation runs on one compiled model, with their checks. A round
    is one run per controller, on the next run seed; every run is traced
    when a tracer is given."""

    def __init__(self, run: Run, setup, mdp, strategy, tracer=None):
        self.run, self.mdp, self.strategy, self.tracer = \
            run, mdp, strategy, tracer
        self.workload = setup.workload
        self.goals = EXPECTED["satisfactions"].get(self.workload.name)
        self.run_seeds = itertools.cycle(setup.run_seeds)
        self.results = {c: [] for c in workloads.CONTROLLERS}
        self.labels: list = []

    def rounds(self, budget_s: float) -> None:
        """At least one round, more while the budget lasts."""
        for _ in repeat(budget_s, 1):
            run_seed = next(self.run_seeds)
            for c in workloads.CONTROLLERS:
                self.labels.append(f"{c} run {len(self.labels)} "
                                   f"(run seed {run_seed})")
                with self.run.operation(self.labels[-1]) as problems:
                    problems += self._one(c, run_seed)

    def _one(self, controller: str, run_seed: int) -> list:
        tracer = self.tracer
        calls = tracer.counts["sim.plan"] if tracer else 0
        with tracer.installed() if tracer else nullcontext():
            m, start, end = workloads.simulate(
                self.mdp, self.strategy, controller, self.workload.sim_ticks,
                run_seed)
        p50, p99 = np.percentile(m.latencies_ns, (50, 99)) \
            / self.run.speed.slowdown(start, end)
        self.results[controller].append(SimRun(
            m.goals_per_tick, m.ticks / self.run.speed.nominal(start, end),
            float(p50), float(p99),
            m.plan_failures,
            tracer.counts["sim.plan"] - calls if tracer else 0))
        want = self.goals[controller][run_seed] if self.goals else None
        if want is not None and m.total_satisfactions != want:
            return [f"{m.total_satisfactions} goals, stored {want}"]
        return []

    def check_ordering(self) -> None:
        means = {c: [r.goals_per_tick for r in runs]
                 for c, runs in self.results.items()}
        ordering = checks.controller_ordering(means, self.workload.ordering)
        if ordering:  # the runs are wrong together, so all of them fail
            print("FAILED controller ordering: " + ordering[0],
                  file=sys.stderr)
            self.run.failures.update(self.labels)


def run_workload(run: Run, setup, seconds: float, tracer=None):
    """Rounds until the time is spent. A round is one pipeline pass on the
    next model, then simulation rounds for the workload's share of the
    round. The simulations use the set-up model or else the first model,
    which is the same for every seed; spreading them over the run keeps
    them from sampling a single stretch of machine load."""
    workload = setup.workload
    passes = Passes(run, setup, tracer)
    models = itertools.cycle(setup.models)
    sims = None
    for n in repeat(seconds, MIN_PASSES):
        t0 = time.perf_counter()
        p = passes(*next(models))
        pass_s = time.perf_counter() - t0
        if sims is None:
            if workload.solve_in_setup:
                sims = Sims(run, setup, setup.mdp, setup.strategy, tracer)
            elif p is not None:
                sims = Sims(run, setup, p.mdp, p.vi, tracer)
            else:
                sys.exit("bench: the first pass failed, so there is "
                         "nothing to simulate")
        del p
        sims.rounds(pass_s * workload.sim_share / (1 - workload.sim_share))
    sims.check_ordering()
    return passes.timings, passes.layers, sims.results


def report(name: str, value: float, samples: str) -> None:
    print(f"  {name:<28} {value:>14.6g} {UNITS[name]:<6} {samples}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    run = Run()
    tracer = tracing.Tracer() if args.trace else None
    setup_times = [probe_setup(args.workload, args.seed)
                   for _ in range(SETUP_SAMPLES)]
    setup = workloads.prepare(args.workload, args.seed)
    # Traced runs report raw times: per-layer metrics have no bound.
    with nullcontext() if tracer else run.speed.active():
        timings, layers, sims = run_workload(run, setup, args.seconds,
                                             tracer)

    slowdowns = [d / reference.NOMINAL_S for _, d in run.speed.samples]
    print(f"{args.workload} seed {args.seed}: model pool of "
          f"{len(setup.models)}, {run.attempted} operations")
    if slowdowns:
        print(f"  times at nominal machine speed; median slowdown "
              f"{statistics.median(slowdowns):.3f} over {len(slowdowns)} "
              "samples")
    metrics = {}
    if tracer is None:
        passes = f"(median of {len(timings)} passes)"
        metrics["setup_s"] = statistics.median(setup_times)
        report("setup_s", metrics["setup_s"],
               f"(median of {len(setup_times)} fresh processes)")
        for key in ("pipeline_s", "compile_s", "vi_s", "pi_s"):
            metrics[key] = statistics.median(t[key] for t in timings)
            report(key, metrics[key], passes)
        metrics["peak_rss_mb"] = peak_rss_mb()
        report("peak_rss_mb", metrics["peak_rss_mb"], "(this process)")
        runs = f"(median of {len(sims['reflex'])} runs of " \
            f"{setup.workload.sim_ticks} ticks)"
        for key, c, field in (
                ("sim_ticks_per_s.reflex", "reflex", "ticks_per_s"),
                ("sim_ticks_per_s.replan", "replan", "ticks_per_s"),
                ("sim_ticks_per_s.random", "random", "ticks_per_s"),
                ("reflex_decision_ns.p50", "reflex", "p50_ns"),
                ("replan_decision_ns.p50", "replan", "p50_ns"),
                ("replan_decision_ns.p99", "replan", "p99_ns")):
            metrics[key] = statistics.median(
                getattr(r, field) for r in sims[c])
            report(key, metrics[key], runs)
    else:
        for key in layers[0]:
            metrics[key] = layers[0][key] if key in COUNT_METRICS \
                else statistics.median(x[key] for x in layers)
        metrics["trace.overhead_s"] = metrics.pop("trace.pipeline_s") \
            - statistics.median(t["pipeline_s"] for t in timings)
        steps = tracer.counts["sim.step"]
        metrics["sim.step_us"] = 1e6 * tracer.seconds["sim.step"] / steps
        plans = tracer.counts["sim.plan"]
        metrics["sim.plan_ms"] = \
            1e3 * tracer.seconds["sim.plan"] / plans if plans else 0.0
        # first replan run only, so that the counts repeat exactly
        metrics["sim.plan_calls"] = sims["replan"][0].plan_calls
        metrics["sim.plan_failures"] = sims["replan"][0].plan_failures
        for key in sorted(metrics):
            report(key, metrics[key], "")
        tracer.write(HERE / "out" / f"trace-{args.workload}-{args.seed}.json")
    print(f"  fail_rate {run.failed}/{run.attempted} operations failed")
    names = [m["name"] for m in CONTRACT["per_layer" if tracer
                                         else "end_to_end"]]
    if sorted(metrics) != sorted(names):
        raise RuntimeError("metrics differ from BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ set(names))}")
    print(json.dumps({
        "correct": run.failed == 0, "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": metrics[k], "unit": UNITS[k]}
                    for k in names}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
