#!/usr/bin/env python
"""Benchmark: the calibration and what-if hot paths.

PR 9's raw-speed pass attacked three profiled hot paths, each of which
is now the only path through its layer:

* the engine's per-tuple inner loops and the perf model's time
  integration (:mod:`repro.engine.executor` counts steps and charges
  them through ``WorkTrace.add_cpu_repeated``);
* the calibration runner's execute-once/replay-many trace cache, which
  shares buffer-pool warmup across the synthetic trials of every
  calibration landing on the same pool size;
* the what-if optimizer's optimize-once/re-cost-many cost programs
  (:mod:`repro.optimizer.recost`), which bind a query's candidate plan
  shapes once and re-cost them under every new parameter set ``P``.

Bit-identity of the three against the code they replaced is a tier-1
test (``tests/engine/test_reference_digests.py``); this benchmark
records how fast they are.

Two timed sections:

* **calibration** — the synthetic calibration suite over a handful of
  allocations, single-threaded, related to the committed
  ``BENCH_surrogate.json`` dense-grid baseline (measured before the
  raw-speed pass, on the same laboratory scenario).
* **exhaustive-grid** — the Figure 5-style allocation search over a
  pre-warmed interpolating calibration cache. The baseline row costs
  every (statement, allocation) by planning it from scratch with a
  fresh ``Planner`` (a script-local cost model; ``src/`` has no such
  mode); the ``recost`` rows replay compiled cost programs, serially
  and at 1/2/4 engine workers. Identity: every configuration must land
  on the same allocation, predicted cost, and evaluation count.

Writes ``benchmarks/results/BENCH_hotpath.json`` (suite ``hotpath``);
``scripts/check_bench.py`` validates the schema, re-derives every
summary number, hard-fails on an identity break, and gates the
calibration speedup vs the surrogate baseline and the 4-worker grid
speedup on multi-core hosts (thresholds in ``docs/benchmarks.md``).

Run with ``PYTHONPATH=src python scripts/bench_hotpath.py [--smoke]``;
``--smoke`` shrinks the allocation list and the search grid for CI.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.calibration import CalibrationCache, CalibrationRunner  # noqa: E402
from repro.core import (  # noqa: E402
    OptimizerCostModel,
    VirtualizationDesignProblem,
    VirtualizationDesigner,
    WorkloadSpec,
)
from repro.optimizer.planner import Planner  # noqa: E402
from repro.parallel import EvaluationEngine  # noqa: E402
from repro.virt.machine import laboratory_machine  # noqa: E402
from repro.virt.resources import ResourceKind, ResourceVector  # noqa: E402
from repro.virt.vm import MIN_GUEST_MEMORY_MIB  # noqa: E402
from repro.workloads import Workload, build_tpch_database, tpch_query  # noqa: E402

RESULT_PATH = REPO_ROOT / "benchmarks" / "results" / "BENCH_hotpath.json"
BASELINE_PATH = REPO_ROOT / "benchmarks" / "results" / "BENCH_surrogate.json"

#: Uniform shares calibrated by the single-threaded section.
CALIBRATION_SHARES = (0.25, 0.375, 0.5, 0.625, 0.75)
CALIBRATION_SHARES_SMOKE = (0.35, 0.65)

GRID = 13
GRID_SMOKE = 7
WORKER_COUNTS = (1, 2, 4)

#: Wall time is the min over this many runs per configuration — the
#: minimum is the stable estimate on a busy host (same policy as
#: scripts/bench_speedup.py).
REPETITIONS = 3


def read_baseline() -> dict:
    """The committed surrogate dense-grid run: the pre-speed-pass rate."""
    payload = json.loads(BASELINE_PATH.read_text())
    dense = [e for e in payload["entries"] if e["name"] == "dense-grid"][0]
    return {
        "source": BASELINE_PATH.name,
        "calibrations": dense["calibrations"],
        "wall_seconds": dense["wall_seconds"],
        "seconds_per_calibration": round(
            dense["wall_seconds"] / dense["calibrations"], 6),
    }


# -- section 1: single-threaded calibration ----------------------------------


def run_calibrations(machine, shares):
    """Calibrate every share on a fresh runner; returns the wall time."""
    runner = CalibrationRunner(machine)
    start = time.perf_counter()
    for share in shares:
        runner.calibrate(ResourceVector.of(cpu=share, memory=share, io=share))
    return time.perf_counter() - start


def bench_calibration(shares, repetitions):
    machine = laboratory_machine()
    print(f"[calibration] {len(shares)} allocation(s), single-threaded",
          file=sys.stderr)
    wall = min(run_calibrations(machine, shares)
               for _rep in range(repetitions))
    print(f"  fast: {wall:.3f}s ({wall / len(shares):.4f}s per calibration)",
          file=sys.stderr)
    return {"name": "calibration", "mode": "fast",
            "calibrations": len(shares),
            "wall_seconds": round(wall, 4),
            "seconds_per_calibration": round(wall / len(shares), 6)}


# -- section 2: exhaustive-grid design search --------------------------------


def build_problem() -> VirtualizationDesignProblem:
    """Three TPC-H workloads competing for CPU and memory."""
    db = build_tpch_database(scale_factor=0.002,
                             tables=["customer", "orders", "lineitem"])
    specs = [
        WorkloadSpec(Workload.repeat("order-audit", tpch_query("Q4"), 3), db),
        WorkloadSpec(Workload.repeat("cust-report", tpch_query("Q13"), 9), db),
        WorkloadSpec(Workload.repeat("line-scan", tpch_query("Q1"), 2), db),
    ]
    return VirtualizationDesignProblem(
        machine=laboratory_machine(), specs=specs,
        controlled_resources=(ResourceKind.CPU, ResourceKind.MEMORY),
    )


def warm_cache(problem, grid, smoke) -> CalibrationCache:
    """Calibrate the corner allocations the timed runs interpolate from."""
    cache = CalibrationCache(CalibrationRunner(problem.machine),
                             interpolate=True)
    n = problem.n_workloads
    io_level = 1.0 / n  # uncontrolled: fixed equal share
    min_mem_share = MIN_GUEST_MEMORY_MIB / problem.machine.memory_mib
    min_mem_units = max(1, math.ceil(min_mem_share * grid - 1e-9))
    cpu_lo, cpu_hi = 1 / grid, (grid - (n - 1)) / grid
    mem_lo = min_mem_units / grid
    mem_hi = (grid - (n - 1) * min_mem_units) / grid
    cpu_levels = [cpu_lo, cpu_hi] if smoke else [cpu_lo, 0.5, cpu_hi]
    mem_levels = [mem_lo, mem_hi] if smoke else [mem_lo, 0.5, mem_hi]
    cache.calibrate_grid(cpu_levels, mem_levels, [io_level])
    return cache


class FullPlanningCostModel(OptimizerCostModel):
    """The grid section's baseline: no program, no estimate cache.

    Every statement of every (workload, allocation) evaluation is
    planned from scratch; the sum is the one ``estimate_workload``
    computes, so the search must land on the identical design.
    """

    def _cost(self, spec, allocation):
        params = self.parameters_for(allocation)
        catalog = spec.database.catalog
        return sum(
            params.cost_to_seconds(
                Planner(catalog, params).plan_sql(sql).est_total_cost)
            for sql in spec.workload.statements)


def timed_design(problem, cache, grid, engine, model_class=OptimizerCostModel):
    model = model_class(cache)
    designer = VirtualizationDesigner(problem, model)
    start = time.perf_counter()
    design = designer.design("exhaustive", grid=grid, engine=engine)
    return time.perf_counter() - start, design


def best_of(problem, cache, grid, engine, repetitions, **kwargs):
    seconds, design = timed_design(problem, cache, grid, engine, **kwargs)
    for _rep in range(repetitions - 1):
        again, _design = timed_design(problem, cache, grid, engine, **kwargs)
        seconds = min(seconds, again)
    return seconds, design


def design_signature(design):
    return (design.evaluations, design.predicted_total_cost,
            [(name, design.allocation.vector_for(name).as_tuple())
             for name in design.allocation.workload_names()])


def bench_design(grid, repetitions, smoke):
    problem = build_problem()
    print(f"[exhaustive-grid] grid={grid}; warming the calibration cache ...",
          file=sys.stderr)
    cache = warm_cache(problem, grid, smoke)
    # Untimed warm-up so one-time costs (interpolation of first-touch
    # corners) do not land on whichever timed run goes first.
    timed_design(problem, cache, grid, engine=None)

    base_wall, base_design = best_of(problem, cache, grid, None, repetitions,
                                     model_class=FullPlanningCostModel)
    print(f"  full-planning serial: {base_wall:.3f}s "
          f"({base_design.evaluations} evaluations)", file=sys.stderr)
    entries = [{
        "name": "exhaustive-grid", "mode": "full-planning", "grid": grid,
        "workers": None, "wall_seconds": round(base_wall, 4),
        "evaluations": base_design.evaluations, "speedup": 1.0,
    }]

    identical = True
    serial_wall, serial_design = best_of(problem, cache, grid, None,
                                         repetitions)
    identical &= design_signature(serial_design) == design_signature(
        base_design)
    entries.append({
        "name": "exhaustive-grid", "mode": "recost", "grid": grid,
        "workers": None, "wall_seconds": round(serial_wall, 4),
        "evaluations": serial_design.evaluations,
        "speedup": round(base_wall / serial_wall, 3),
    })
    print(f"  recost serial: {serial_wall:.3f}s "
          f"(speedup {base_wall / serial_wall:.2f}x)", file=sys.stderr)

    for workers in WORKER_COUNTS:
        with EvaluationEngine(workers=workers, pool="thread") as engine:
            seconds, design = best_of(problem, cache, grid, engine,
                                      repetitions)
        identical &= design_signature(design) == design_signature(base_design)
        entries.append({
            "name": "exhaustive-grid", "mode": "recost", "grid": grid,
            "workers": workers, "wall_seconds": round(seconds, 4),
            "evaluations": design.evaluations,
            "speedup": round(base_wall / seconds, 3),
        })
        print(f"  recost workers={workers}: {seconds:.3f}s "
              f"(speedup {base_wall / seconds:.2f}x)", file=sys.stderr)
    return entries, identical


# -- driver ------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="fewer allocations and a smaller grid "
                             "(CI-sized; minutes become seconds)")
    parser.add_argument("--output", default=str(RESULT_PATH),
                        help=f"result path (default {RESULT_PATH})")
    args = parser.parse_args(argv)

    baseline = read_baseline()
    shares = CALIBRATION_SHARES_SMOKE if args.smoke else CALIBRATION_SHARES
    grid = GRID_SMOKE if args.smoke else GRID
    repetitions = 2 if args.smoke else REPETITIONS

    fast = bench_calibration(shares, repetitions)
    design_entries, design_identical = bench_design(grid, repetitions,
                                                    args.smoke)

    four = [e for e in design_entries
            if e["mode"] == "recost" and e["workers"] == 4][0]
    serial = [e for e in design_entries
              if e["mode"] == "recost" and e["workers"] is None][0]
    payload = {
        "suite": "hotpath",
        "smoke": bool(args.smoke),
        "host_cpus": os.cpu_count() or 1,
        "baseline": baseline,
        "entries": [fast] + design_entries,
        "identity": {
            "design_identical": bool(design_identical),
        },
        "summary": {
            "calibration_speedup_vs_baseline": round(
                baseline["seconds_per_calibration"]
                / fast["seconds_per_calibration"], 3),
            "recost_speedup": serial["speedup"],
            "grid_speedup_4_workers": four["speedup"],
        },
    }
    output = pathlib.Path(args.output)
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"Wrote {len(payload['entries'])} entries to {output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
