"""The benchmark's workloads and the operations it repeats on them.

Importing this module puts the checkout's `src` (the program under test)
and `tests` (the independent oracles) on the import path.
"""

from __future__ import annotations

import random
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import obd  # noqa: E402

if not Path(obd.__file__).resolve().is_relative_to(ROOT / "src"):
    raise ImportError(f"obd comes from {obd.__file__}, not this checkout")

from obd import sim  # noqa: E402
from obd.compiler import MdpModel, compile_model, dump_mdp  # noqa: E402
from obd.dsl import DomainModel, parse_domain, validate  # noqa: E402
from obd.solver import (  # noqa: E402
    Strategy,
    dump_policy,
    policy_iteration,
    value_iteration,
)

from models import restaurant_text  # noqa: E402

CONTROLLERS = ("reflex", "replan", "random")
# Model seeds of the N-table workloads. A run compiles model 0 first and
# simulates on it throughout, then cycles through the others in an order
# its --seed draws. Every run covers the whole pool, because VI sweeps and
# PI iterations differ between probability draws: with one model per seed,
# unscaled pi_s spread 64% over five seeds. Every model's obdmdp digest
# is stored with the benchmark.
MODEL_POOL = 3
# Simulation run seeds come from this range, so that every run of the
# fixed restaurant model can be checked against stored goal counts.
RUN_SEED_RANGE = 64
RESTAURANT = "restaurant.obd"


@dataclass(frozen=True)
class Workload:
    name: str
    models: tuple  # keys of the models a run compiles
    text: Callable[[str], str]  # model key -> model text
    sim_share: float  # share of the run's seconds spent simulating
    sim_ticks: int  # ticks per simulation run
    solve_in_setup: bool  # compile + VI once before timing, for the sims
    ordering: tuple  # controllers whose mean goals/tick must not increase


def _restaurant_file(key: str) -> str:
    return (ROOT / "models" / key).read_text(encoding="utf-8")


_POOL = tuple(str(seed) for seed in range(MODEL_POOL))

WORKLOADS = {w.name: w for w in (
    Workload("restaurant-2t", _POOL,
             lambda key: restaurant_text(2, int(key)),
             sim_share=0.2, sim_ticks=2_000, solve_in_setup=False,
             ordering=("reflex", "random")),
    Workload("deadline-2t", _POOL,
             lambda key: restaurant_text(2, int(key), within=3),
             sim_share=0.2, sim_ticks=2_000, solve_in_setup=False,
             ordering=("reflex", "random")),
    Workload("simulate-restaurant", (RESTAURANT,), _restaurant_file,
             sim_share=0.8, sim_ticks=10_000, solve_in_setup=True,
             ordering=CONTROLLERS),
)}


@dataclass
class Setup:
    workload: Workload
    seed: int
    models: list  # (key, text), in the order passes use them
    run_seeds: list  # simulation run seeds, in the order they are used
    mdp: Optional[MdpModel] = None
    strategy: Optional[Strategy] = None


def prepare(name: str, seed: int) -> Setup:
    """Everything `setup_s` covers after the imports: generate the models
    and, for the simulation workload, compile and solve its model once."""
    workload = WORKLOADS[name]
    rng = random.Random(seed)
    first, *others = workload.models
    keys = [first] + rng.sample(others, len(others))
    setup = Setup(workload, seed, [(k, workload.text(k)) for k in keys],
                  rng.sample(range(RUN_SEED_RANGE), RUN_SEED_RANGE))
    if workload.solve_in_setup:
        setup.mdp = compile_model(parse_domain(setup.models[0][1]))
        setup.strategy = value_iteration(setup.mdp)
    return setup


def _no_span(name):
    return nullcontext()


@dataclass
class Pass:
    """One compile -> solve -> export pass plus the PI cross-check."""

    model: DomainModel
    diagnostics: list
    mdp: MdpModel
    vi: Strategy
    pi: Strategy
    mdp_text: str
    policy_text: str
    marks: tuple  # perf_counter at start, compiled, solved, exported, PI done

    def intervals(self) -> dict:
        """(start, end) of each timed part of the pass."""
        m = self.marks
        return {"pipeline_s": (m[0], m[3]), "compile_s": (m[0], m[1]),
                "vi_s": (m[1], m[2]), "pi_s": (m[3], m[4])}


def pipeline_pass(text: str, span=_no_span) -> Pass:
    """parse -> validate -> compile_model -> value_iteration -> dump_mdp +
    dump_policy, then policy_iteration on the same model. `span(name)` is
    entered around each call when the pass is traced."""
    clock = time.perf_counter
    t0 = clock()
    with span("dsl.parse"):
        model = parse_domain(text)
    with span("dsl.validate"):
        diagnostics = validate(model)
    with span("compiler.compile_model"):
        mdp = compile_model(model)
    t1 = clock()
    with span("solver.value_iteration"):
        vi = value_iteration(mdp)
    t2 = clock()
    with span("compiler.dump_mdp"):
        mdp_text = dump_mdp(mdp)
    with span("solver.dump_policy"):
        policy_text = dump_policy(vi, mdp)
    t3 = clock()
    with span("solver.policy_iteration"):
        pi = policy_iteration(mdp)
    t4 = clock()
    return Pass(model, diagnostics, mdp, vi, pi, mdp_text, policy_text,
                (t0, t1, t2, t3, t4))


def make_controller(name: str, mdp: MdpModel,
                    strategy: Strategy) -> sim.Controller:
    if name == "reflex":
        return sim.ReflexController(mdp, strategy)
    if name == "replan":
        return sim.ReplanningController(mdp)
    return sim.RandomController(mdp)


def simulate(mdp: MdpModel, strategy: Strategy, controller: str,
             ticks: int, run_seed: int):
    """One `sim.run`; returns its Metrics and its start and end time."""
    c = make_controller(controller, mdp, strategy)
    t0 = time.perf_counter()
    metrics = sim.run(mdp, c, ticks, run_seed)
    return metrics, t0, time.perf_counter()
