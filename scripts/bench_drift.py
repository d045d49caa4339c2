#!/usr/bin/env python
"""Benchmark E9: closed-loop drift repair vs an open-loop stale model.

The question the drift subsystem exists to answer: when the host
quietly degrades under a fitted cost model, does the closed loop
(detect → targeted recalibration → warm-started redesign,
``docs/drift.md``) actually recover the performance an open loop
loses? Three contenders share one degradation trajectory — the
``turbulent`` plan's host-degrade channel slowing the CPU over
``EPOCHS`` epochs — and are judged by *measured* workload seconds on
the final, most-degraded machine:

* **open-loop**: fit once on the healthy host, then trust the model
  forever — the paper's offline posture. Keeps the initial allocation
  and plans queries with the stale parameters.
* **closed-loop**: :class:`repro.drift.OnlineSupervisor` — same
  initial fit, then the online loop under a
  ``RECAL_BUDGET``-request repair budget.
* **oracle**: full knowledge of the final machine — a fresh fit with
  the full initial budget on the degraded host, scoring a from-scratch
  redesign *and* every other contender's allocation, keeping the best.
  The (unrealistically expensive) bound the closed loop tries to
  approach.

Writes ``benchmarks/results/BENCH_drift.json``: one entry per
contender plus a ``summary`` with ``closed_loop_gain``
(1 - closed/open measured cost; > 0 means the loop beat going stale)
and ``reconvergence_gap`` (closed/oracle - 1; >= 0, smaller is
better). ``scripts/check_bench.py`` validates the schema and gates on
``closed_loop_gain > 0`` and ``0 <= reconvergence_gap <= 0.25``.

Run with ``PYTHONPATH=src python scripts/bench_drift.py [--smoke]``;
``--smoke`` shrinks the TPC-H scale factor (the degradation
trajectory, budgets, and thresholds — the gated mechanics — are
scale-independent).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
import tempfile
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.calibration import CalibrationCache, CalibrationRunner  # noqa: E402
from repro.core import (  # noqa: E402
    MeasuredCostModel,
    VirtualizationDesignProblem,
    WorkloadSpec,
)
from repro.drift import DegradingWorld, OnlineSupervisor  # noqa: E402
from repro.faults import FaultPlan  # noqa: E402
from repro.surrogate import design_continuous  # noqa: E402
from repro.virt.machine import laboratory_machine  # noqa: E402
from repro.virt.resources import ResourceKind  # noqa: E402
from repro.workloads import Workload, build_tpch_database, tpch_query  # noqa: E402

RESULT_PATH = REPO_ROOT / "benchmarks" / "results" / "BENCH_drift.json"

#: One configuration for all three contenders. The plan is the named
#: ``turbulent`` regime with its host-degrade channel turned up so the
#: CPU reliably loses ~30-50% of its capacity within the run.
GRID = 4
FINE_FACTOR = 8
EPOCHS = 8
DRIFT_THRESHOLD = 0.05
RECAL_BUDGET = 12
SURROGATE_BUDGET = 24
TOLERANCE = 0.05
ALGORITHM = "greedy"
PLAN = FaultPlan.named("turbulent").with_overrides(
    host_degrade_rate=0.35, host_degrade_factor=0.8)


def build_specs(scale: float):
    db = build_tpch_database(scale_factor=scale,
                             tables=["customer", "orders", "lineitem"])
    return [
        WorkloadSpec(Workload.repeat("order-audit", tpch_query("Q4"), 3), db),
        WorkloadSpec(Workload.repeat("cust-report", tpch_query("Q13"), 9), db),
    ]


def build_problem(specs, machine) -> VirtualizationDesignProblem:
    return VirtualizationDesignProblem(
        machine=machine, specs=specs,
        controlled_resources=(ResourceKind.CPU,),
    )


def final_machine():
    """The host after the full degradation trajectory (deterministic:
    a pure function of the plan, re-derived exactly as a resumed online
    loop would)."""
    world = DegradingWorld(laboratory_machine(), PLAN)
    for _ in range(EPOCHS):
        world.advance()
    return world.machine, world.capacity


def measured_total(problem, machine, allocation, params_source) -> float:
    """Measured workload seconds on *machine*, planning queries with
    each contender's own parameter source — stale models pay for their
    misplans, repaired ones profit from theirs."""
    measured = MeasuredCostModel(machine, calibration=params_source)
    return sum(
        measured.cost(problem.spec(name), allocation.vector_for(name))
        for name in sorted(allocation.workload_names()))


def allocation_dict(allocation) -> dict:
    return {
        name: [round(v, 6) for v in
               allocation.vector_for(name).as_tuple()]
        for name in allocation.workload_names()
    }


def run_open_loop(problem, machine_final):
    """Fit on the healthy host, never look again."""
    cache = CalibrationCache(CalibrationRunner(problem.machine))
    started = time.perf_counter()
    outcome = design_continuous(
        problem, cache, algorithm=ALGORITHM, grid=GRID,
        fine_factor=FINE_FACTOR, tolerance=TOLERANCE,
        max_calibrations=SURROGATE_BUDGET)
    cost = measured_total(problem, machine_final,
                          outcome.design.allocation, outcome.surface)
    return {
        "name": "open-loop",
        "cost": cost,
        "allocation": allocation_dict(outcome.design.allocation),
        "calibrations": outcome.calibrations,
        "wall_seconds": round(time.perf_counter() - started, 3),
    }, outcome


def run_closed_loop(problem, machine_final, workdir):
    """The online supervisor, journaled like any production run."""
    started = time.perf_counter()
    supervisor = OnlineSupervisor(
        problem, workdir / "closed-loop.journal", plan=PLAN,
        epochs=EPOCHS, drift_threshold=DRIFT_THRESHOLD,
        recal_budget=RECAL_BUDGET, algorithm=ALGORITHM, grid=GRID,
        fine_factor=FINE_FACTOR, surrogate_tol=TOLERANCE,
        surrogate_budget=SURROGATE_BUDGET)
    run = supervisor.run()
    assert run.completed
    cost = measured_total(problem, machine_final,
                          run.design.allocation, run.surface)
    return {
        "name": "closed-loop",
        "cost": cost,
        "allocation": allocation_dict(run.design.allocation),
        "drift_events": len(run.events),
        "recalibrations": run.recalibrations,
        "redesigns": run.redesigns,
        "budget_spent": run.budget_spent,
        "budget_remaining": run.budget_remaining,
        "trajectory": [
            {"epoch": point["epoch"],
             "capacity": round(point["capacity"], 6),
             "observed_seconds": round(point["observed_seconds"], 6),
             "drift_events": point["drift_events"],
             "refits": point["refits"]}
            for point in run.trajectory
        ],
        "wall_seconds": round(time.perf_counter() - started, 3),
    }, run


def run_oracle(specs, machine_final, candidates):
    """Full knowledge: a fresh fit on the degraded host, scoring a
    from-scratch redesign plus every *candidates* allocation under it
    and keeping the best. This makes the oracle a true bound — greedy
    from the default start can land in a worse basin than a
    warm-started incumbent, so the redesign alone is not one."""
    problem = build_problem(specs, machine_final)
    cache = CalibrationCache(CalibrationRunner(machine_final))
    started = time.perf_counter()
    outcome = design_continuous(
        problem, cache, algorithm=ALGORITHM, grid=GRID,
        fine_factor=FINE_FACTOR, tolerance=TOLERANCE,
        max_calibrations=SURROGATE_BUDGET)
    scored = {"redesign": outcome.design.allocation, **candidates}
    costs = {
        name: measured_total(problem, machine_final, allocation,
                             outcome.surface)
        for name, allocation in scored.items()
    }
    winner = min(sorted(costs), key=costs.get)
    return {
        "name": "oracle",
        "cost": costs[winner],
        "winner": winner,
        "candidate_costs": {name: round(value, 9)
                            for name, value in sorted(costs.items())},
        "allocation": allocation_dict(scored[winner]),
        "calibrations": outcome.calibrations,
        "wall_seconds": round(time.perf_counter() - started, 3),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="smaller TPC-H scale for CI (same trajectory, "
                             "budgets, and thresholds)")
    parser.add_argument("--output", default=str(RESULT_PATH),
                        help=f"result file (default {RESULT_PATH})")
    args = parser.parse_args(argv)

    scale = 0.001 if args.smoke else 0.002
    print(f"Building the Figure-5 problem (scale {scale}) ...",
          file=sys.stderr)
    specs = build_specs(scale)
    problem = build_problem(specs, laboratory_machine())
    machine_final, capacity = final_machine()
    print(f"Degradation trajectory: {EPOCHS} epoch(s) under plan "
          f"{PLAN.name!r} -> final CPU capacity {capacity:.0%}",
          file=sys.stderr)

    print("Open loop: fit once, trust forever ...", file=sys.stderr)
    open_entry, _open_outcome = run_open_loop(problem, machine_final)
    print(f"  measured {open_entry['cost']:.6f}s on the degraded host "
          f"({open_entry['wall_seconds']}s)", file=sys.stderr)

    print(f"Closed loop: threshold {DRIFT_THRESHOLD}, repair budget "
          f"{RECAL_BUDGET} ...", file=sys.stderr)
    with tempfile.TemporaryDirectory(prefix="bench-drift-") as scratch:
        closed_entry, run = run_closed_loop(
            problem, machine_final, pathlib.Path(scratch))
    print(f"  measured {closed_entry['cost']:.6f}s, "
          f"{closed_entry['drift_events']} drift event(s), "
          f"{closed_entry['recalibrations']} refit(s) "
          f"({closed_entry['wall_seconds']}s)", file=sys.stderr)

    print("Oracle: full refit on the degraded host ...", file=sys.stderr)
    oracle_entry = run_oracle(specs, machine_final, {
        "open-loop": _open_outcome.design.allocation,
        "closed-loop": run.design.allocation,
    })
    print(f"  measured {oracle_entry['cost']:.6f}s "
          f"({oracle_entry['wall_seconds']}s)", file=sys.stderr)

    gain = 1.0 - closed_entry["cost"] / open_entry["cost"]
    gap = closed_entry["cost"] / oracle_entry["cost"] - 1.0
    payload = {
        "suite": "drift",
        "smoke": args.smoke,
        "host_cpus": os.cpu_count(),
        "scenario": "fig5-degrading",
        "plan": PLAN.name,
        "epochs": EPOCHS,
        "final_capacity": round(capacity, 6),
        "drift_threshold": DRIFT_THRESHOLD,
        "recal_budget": RECAL_BUDGET,
        "surrogate_budget": SURROGATE_BUDGET,
        "algorithm": ALGORITHM,
        "grid": GRID,
        "fine_factor": FINE_FACTOR,
        "entries": [open_entry, closed_entry, oracle_entry],
        "summary": {
            "closed_loop_gain": round(gain, 6),
            "reconvergence_gap": round(gap, 6),
            "drift_events": closed_entry["drift_events"],
            "recalibrations": closed_entry["recalibrations"],
            "budget_spent": closed_entry["budget_spent"],
        },
    }
    output = pathlib.Path(args.output)
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"Wrote {output}: closed-loop gain {gain:+.1%}, "
          f"re-convergence gap {gap:+.1%}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
