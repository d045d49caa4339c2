#!/usr/bin/env python
"""Benchmark: fleet placement vs round-robin on a synthetic datacenter.

The question the fleet layer exists to answer: does cluster → tune →
reroute actually beat naive placement, and does the reassignment loop
earn its keep? This script measures both on the standard synthetic
scenario (heterogeneous host speeds, capacity-discounted hosts, and
workloads spanning CPU-bound to I/O-bound cost-curve shapes):

* **round-robin baseline**: workloads dealt to hosts cyclically —
  placement-unaware — then every host tuned with the same per-host
  allocation search the fleet designer uses, so the comparison
  isolates *placement* quality, not search quality.
* **fleet**: :class:`repro.fleet.FleetDesigner` — cluster by curve
  shape, assign clusters to hosts by demand, tune, and reroute
  worst-fit workloads until total cost converges.

Writes ``benchmarks/results/BENCH_fleet.json``: one ``round-robin``
and one ``fleet`` entry plus a ``summary`` with ``improvement``
(1 - fleet/round-robin; > 0 means the fleet design wins, a hard check)
and ``reassignment_gain`` (1 - final/initial; what the reroute loop
recovered beyond the initial clustered placement, gated by
``check_bench.py`` at 0.1). The recorded trajectory
must be monotonically non-increasing — the designer only accepts
strictly improving moves.

Run with ``PYTHONPATH=src python scripts/bench_fleet.py [--smoke]``;
the full run places 1000 workloads on 100 hosts (the ISSUE's
acceptance scenario), ``--smoke`` shrinks to 60 on 12 for CI.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.fleet import (  # noqa: E402
    FleetDesigner,
    round_robin_assignment,
    synthetic_fleet,
)

RESULT_PATH = REPO_ROOT / "benchmarks" / "results" / "BENCH_fleet.json"

#: The acceptance scenario: 1000 workloads across 100 heterogeneous
#: hosts. Smoke keeps the same seed and grid so curve shapes match.
FULL_HOSTS, FULL_WORKLOADS = 100, 1000
SMOKE_HOSTS, SMOKE_WORKLOADS = 12, 60
SEED = 7
GRID = 16
ALGORITHM = "greedy"
MAX_ROUNDS = 24


def run_round_robin(problem) -> dict:
    started = time.perf_counter()
    cost, designs = FleetDesigner(problem, algorithm=ALGORITHM) \
        .evaluate_assignment(round_robin_assignment(problem))
    wall = time.perf_counter() - started
    return {
        "name": "round-robin",
        "cost": cost,
        "hosts": len(designs),
        "workloads": len(problem.profiles),
        "wall_seconds": round(wall, 3),
    }


def run_fleet(problem) -> dict:
    started = time.perf_counter()
    design = FleetDesigner(problem, algorithm=ALGORITHM,
                           max_rounds=MAX_ROUNDS).design()
    wall = time.perf_counter() - started
    return {
        "name": "fleet",
        "cost": design.total_cost,
        "initial_cost": design.cost_trajectory[0],
        "rounds": design.rounds,
        "moves": design.moves,
        "clusters": design.n_clusters,
        "converged": design.converged,
        "trajectory": list(design.cost_trajectory),
        "hosts": len(design.host_designs),
        "workloads": len(design.assignment),
        "wall_seconds": round(wall, 3),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="12 hosts / 60 workloads for CI instead of "
                             "the full 100 / 1000 acceptance scenario")
    parser.add_argument("--output", default=str(RESULT_PATH),
                        help=f"result file (default {RESULT_PATH})")
    args = parser.parse_args(argv)

    hosts = SMOKE_HOSTS if args.smoke else FULL_HOSTS
    workloads = SMOKE_WORKLOADS if args.smoke else FULL_WORKLOADS
    print(f"Building the synthetic fleet ({hosts} hosts, "
          f"{workloads} workloads, seed {SEED}) ...", file=sys.stderr)
    problem = synthetic_fleet(hosts, workloads, seed=SEED, grid=GRID)

    print("Round-robin baseline (tuned per host) ...", file=sys.stderr)
    rr_entry = run_round_robin(problem)
    print(f"  cost {rr_entry['cost']:.4f} "
          f"({rr_entry['wall_seconds']}s)", file=sys.stderr)

    print(f"Fleet designer ({ALGORITHM}, max {MAX_ROUNDS} rounds) ...",
          file=sys.stderr)
    fleet_entry = run_fleet(problem)
    print(f"  cost {fleet_entry['cost']:.4f} after "
          f"{fleet_entry['rounds']} round(s), {fleet_entry['moves']} "
          f"move(s) ({fleet_entry['wall_seconds']}s)", file=sys.stderr)

    trajectory = fleet_entry["trajectory"]
    improvement = 1.0 - fleet_entry["cost"] / rr_entry["cost"]
    gain = 1.0 - fleet_entry["cost"] / fleet_entry["initial_cost"]
    monotone = all(b <= a + 1e-9 for a, b in zip(trajectory, trajectory[1:]))
    payload = {
        "suite": "fleet",
        "smoke": args.smoke,
        "host_cpus": os.cpu_count(),
        "scenario": {"n_hosts": hosts, "n_workloads": workloads,
                     "seed": SEED, "grid": GRID},
        "algorithm": ALGORITHM,
        "max_rounds": MAX_ROUNDS,
        "entries": [rr_entry, fleet_entry],
        "summary": {
            "improvement": round(improvement, 6),
            "reassignment_gain": round(gain, 6),
            "monotone": monotone,
        },
    }
    output = pathlib.Path(args.output)
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"Wrote {output}: {improvement:.1%} cheaper than round-robin, "
          f"{gain:.1%} recovered by reassignment", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
