#!/usr/bin/env python
"""Benchmark: serial vs parallel designer runs on the paper's grids.

Times the same design problems the Figure 3 / Figure 5 experiments
solve — TPC-H workloads competing for CPU *and* memory on the
laboratory machine — once through script-local per-matrix reference
searches (the serial baseline: :class:`PerMatrixExhaustive` costs one
full allocation matrix per combination, :class:`PerCandidateGreedy`
one candidate matrix at a time) and once per worker count through the
library's batched strategy on an
:class:`~repro.parallel.EvaluationEngine`.

Calibration cost is excluded from the timings: a shared
interpolation-enabled :class:`CalibrationCache` is pre-warmed on the
grid's corner allocations, so every timed run pays only for what-if
evaluations and search bookkeeping — the work the engine actually
parallelizes. Each timed configuration gets a fresh
:class:`OptimizerCostModel` (empty memo) over that shared cache.

Where the speedup comes from: the batched exhaustive strategy costs
each distinct (workload, choice) pair once and scores the full
combination space with plain float sums, while the serial baseline
builds and evaluates an allocation matrix per combination — at grid 21
with three workloads that is ~400 pairs vs ~5300 matrix evaluations.
Thread/process fan-out adds on multi-core hosts.

Writes ``benchmarks/results/BENCH_parallel.json`` (one entry per
(benchmark, configuration): name, grid, workers, wall_seconds,
evaluations, speedup; the serial baseline row has ``workers: null`` and
``speedup: 1.0``). ``scripts/check_bench.py`` validates the schema and
gates on the 4-worker speedup.

Run with ``PYTHONPATH=src python scripts/bench_speedup.py [--smoke]``;
``--smoke`` shrinks the grids and the calibration corners for CI.
"""

from __future__ import annotations

import argparse
import itertools
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
from repro.core.search import ExhaustiveSearch, GreedySearch  # noqa: E402
from repro.parallel import EvaluationEngine  # noqa: E402
from repro.virt.machine import laboratory_machine  # noqa: E402
from repro.virt.resources import ResourceKind  # noqa: E402
from repro.virt.vm import MIN_GUEST_MEMORY_MIB  # noqa: E402
from repro.workloads import Workload, build_tpch_database, tpch_query  # noqa: E402

RESULT_PATH = REPO_ROOT / "benchmarks" / "results" / "BENCH_parallel.json"

#: (name, algorithm, full grid, smoke grid) — the benchmark matrix.
BENCHMARKS = (
    ("exhaustive-fig5-grid", "exhaustive", 25, 13),
    ("greedy-fig3-grid", "greedy", 48, 16),
)

WORKER_COUNTS = (1, 2, 4)

#: Wall time is the min over this many runs per configuration —
#: single-shot timings on a busy host swing by 2x, the minimum is the
#: stable estimate of what the configuration actually costs.
REPETITIONS = 3


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


def share_bounds(problem, grid):
    """The [lo, hi] share each workload can receive per resource."""
    n = problem.n_workloads
    min_mem_share = MIN_GUEST_MEMORY_MIB / problem.machine.memory_mib
    min_mem_units = max(1, math.ceil(min_mem_share * grid - 1e-9))
    cpu = (1 / grid, (grid - (n - 1)) / grid)
    mem = (min_mem_units / grid, (grid - (n - 1) * min_mem_units) / grid)
    return cpu, mem


def warm_cache(problem, grids, smoke) -> CalibrationCache:
    """Calibrate the corner allocations every timed run interpolates from.

    One consistent lattice covering ALL benchmark grids: interpolation
    brackets per axis over every calibrated level and needs the full
    corner box present, so mixing per-grid corner sets would leave holes
    that trigger fresh (timed!) calibrations and perturb trajectories.
    """
    cache = CalibrationCache(CalibrationRunner(problem.machine),
                             interpolate=True)
    io_level = 1.0 / problem.n_workloads  # uncontrolled: fixed equal share
    bounds = [share_bounds(problem, grid) for grid in grids]
    cpu_lo = min(b[0][0] for b in bounds)
    cpu_hi = max(b[0][1] for b in bounds)
    mem_lo = min(b[1][0] for b in bounds)
    mem_hi = max(b[1][1] for b in bounds)
    cpu_levels = [cpu_lo, cpu_hi] if smoke else [cpu_lo, 0.5, cpu_hi]
    mem_levels = [mem_lo, mem_hi] if smoke else [mem_lo, 0.5, mem_hi]
    cache.calibrate_grid(cpu_levels, mem_levels, [io_level])
    return cache


class PerMatrixExhaustive(ExhaustiveSearch):
    """The exhaustive baseline: one full allocation matrix per combination.

    Unbudgeted, it spends the same distinct evaluations as the batched
    enumeration and lands on the identical design.
    """

    def _enumerate(self, problem, cost_model, budget, names, resources,
                   splits_per_resource):
        best_units, best_cost = None, float("inf")
        for combo in itertools.product(*splits_per_resource):
            units_by_name = {
                name: {kind: combo[r][i] for r, kind in enumerate(resources)}
                for i, name in enumerate(names)
            }
            total, _per = self._evaluate(
                problem, cost_model, self._matrix(problem, units_by_name),
                budget)
            if total < best_cost:
                best_units, best_cost = units_by_name, total
        return best_units


class PerCandidateGreedy(GreedySearch):
    """The greedy baseline: one candidate matrix at a time per step."""

    def _best_move(self, problem, cost_model, budget, names, units_by_name,
                   current_cost):
        best_move, best_cost = None, current_cost
        for candidate in self._moves(problem, names, units_by_name):
            total, _per = self._evaluate(
                problem, cost_model, self._matrix(problem, candidate), budget)
            if total < best_cost - 1e-12:
                best_move, best_cost = candidate, total
        return best_move, best_cost


#: algorithm name -> the per-matrix reference timed as the serial row.
REFERENCE = {"exhaustive": PerMatrixExhaustive, "greedy": PerCandidateGreedy}


def timed_run(problem, cache, algorithm, grid, engine):
    """One design on a fresh model; ``engine=None`` times the reference."""
    model = OptimizerCostModel(cache)
    designer = VirtualizationDesigner(problem, model)
    if engine is None:
        algorithm = REFERENCE[algorithm](grid=grid)
    start = time.perf_counter()
    design = designer.design(algorithm, grid=grid, engine=engine)
    return time.perf_counter() - start, design


def best_of(problem, cache, algorithm, grid, engine, repetitions):
    """Min wall seconds over *repetitions* runs (fresh model each)."""
    seconds, design = timed_run(problem, cache, algorithm, grid, engine)
    for _rep in range(repetitions - 1):
        again, _design = timed_run(problem, cache, algorithm, grid, engine)
        seconds = min(seconds, again)
    return seconds, design


def run_benchmark(problem, cache, name, algorithm, grid, repetitions):
    print(f"[{name}] grid={grid} algorithm={algorithm}", file=sys.stderr)
    # Untimed warm-up so one-time costs (cost programs, interpolation of
    # first-touch corners) do not land on whichever run goes first.
    timed_run(problem, cache, algorithm, grid, engine=None)

    entries = []
    serial_seconds, serial_design = best_of(problem, cache, algorithm,
                                            grid, None, repetitions)
    entries.append({
        "name": name, "grid": grid, "workers": None,
        "wall_seconds": round(serial_seconds, 4),
        "evaluations": serial_design.evaluations,
        "speedup": 1.0,
    })
    print(f"  serial: {serial_seconds:.3f}s "
          f"({serial_design.evaluations} evaluations)", file=sys.stderr)
    for workers in WORKER_COUNTS:
        with EvaluationEngine(workers=workers, pool="thread") as engine:
            seconds, design = best_of(problem, cache, algorithm, grid,
                                      engine, repetitions)
        assert design.evaluations == serial_design.evaluations, (
            f"{name}: parallel run spent {design.evaluations} evaluations, "
            f"serial spent {serial_design.evaluations} — determinism broken")
        entries.append({
            "name": name, "grid": grid, "workers": workers,
            "wall_seconds": round(seconds, 4),
            "evaluations": design.evaluations,
            "speedup": round(serial_seconds / seconds, 3),
        })
        print(f"  workers={workers}: {seconds:.3f}s "
              f"(speedup {serial_seconds / seconds:.2f}x)", file=sys.stderr)
    return entries


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small grids and fewer calibration corners "
                             "(CI-sized; minutes become seconds)")
    parser.add_argument("--output", default=str(RESULT_PATH),
                        help=f"result path (default {RESULT_PATH})")
    args = parser.parse_args(argv)

    problem = build_problem()
    grids = [smoke if args.smoke else full
             for _name, _algo, full, smoke in BENCHMARKS]
    print(f"Warming the calibration cache for grids {grids} ...",
          file=sys.stderr)
    cache = warm_cache(problem, grids, smoke=args.smoke)

    repetitions = 2 if args.smoke else REPETITIONS
    entries = []
    for (name, algorithm, full, smoke), grid in zip(BENCHMARKS, grids):
        entries.extend(run_benchmark(problem, cache, name, algorithm, grid,
                                     repetitions))

    payload = {
        "suite": "parallel-speedup",
        "smoke": bool(args.smoke),
        "host_cpus": os.cpu_count() or 1,
        "entries": entries,
    }
    output = pathlib.Path(args.output)
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"Wrote {len(entries)} entries to {output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
