"""Regenerate expected.json: the stored outputs run.py checks against.

    python3 bench/record_expected.py

Records the sha256 of `dump_mdp` for every model of every workload, and
the goal count of every (controller, run seed) simulation of the workload
that simulates a fixed model. Run it only on a commit whose outputs are
known to be right; the stored values then catch any later change.
"""

import hashlib
import json
import re
from pathlib import Path

import workloads
from obd.compiler import compile_model, dump_mdp
from obd.dsl import parse_domain


def digest(text: str) -> str:
    mdp_text = dump_mdp(compile_model(parse_domain(text)))
    return hashlib.sha256(mdp_text.encode()).hexdigest()


def main() -> None:
    digests, satisfactions = {}, {}
    for name, workload in workloads.WORKLOADS.items():
        digests[name] = {key: digest(workload.text(key))
                         for key in workload.models}
        if workload.solve_in_setup:
            setup = workloads.prepare(name, 0)
            goals = {"ticks": workload.sim_ticks}
            for c in workloads.CONTROLLERS:
                goals[c] = [workloads.simulate(
                    setup.mdp, setup.strategy, c, workload.sim_ticks,
                    seed)[0].total_satisfactions
                    for seed in range(workloads.RUN_SEED_RANGE)]
            satisfactions[name] = goals
    doc = {"mdp_sha256": digests, "satisfactions": satisfactions}
    text = re.sub(r"\[[\d,\s]+\]",  # one line per list of goal counts
                  lambda m: " ".join(m.group().split()),
                  json.dumps(doc, indent=1))
    path = Path(__file__).resolve().parent / "expected.json"
    path.write_text(text + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
