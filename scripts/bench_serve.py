#!/usr/bin/env python
"""Benchmark E10: the always-on design service under load and faults.

The question the serve subsystem exists to answer: when concurrent
what-if and design requests arrive faster than the backend cooperates,
does the service stay *responsive* (bounded latency), *honest* (every
request answered, degraded, or typed-rejected within its deadline —
never an untyped error, never a silent drop), and *recoverable* (a
killed session resumes bit-identically)? Two sessions share one
fault-injected calibration backend (the ``flaky`` plan):

* **rated**: offered load the service is provisioned for — generous
  quotas, moderate rate. The latency/shed/degradation gates apply
  here: a healthy service at its rated load should shed (almost)
  nothing and answer fast.
* **overload**: a burst at ~10x the rated arrival rate against tight
  quotas and a short queue. No gates on quality — the point is that
  admission control *engages* (shed rate must be positive) while
  every response stays typed and inside its deadline.

A third, journaled run of the rated scenario is killed halfway through
its units and resumed; the resumed response stream must be
bit-identical to the uninterrupted one (``summary.resume_identical``).

Writes ``benchmarks/results/BENCH_serve.json``; ``scripts/check_bench.py``
validates the schema, enforces the hard checks above, and gates the
rated session's p99, shed rate and degraded fraction (thresholds in
``docs/benchmarks.md``).

Run with ``PYTHONPATH=src python scripts/bench_serve.py [--smoke]``;
``--smoke`` shrinks the TPC-H scale and the trace length (admission,
deadlines, and the ladder — the gated mechanics — are scale-free).
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

from repro.core import VirtualizationDesignProblem, WorkloadSpec  # noqa: E402
from repro.faults import FaultPlan  # noqa: E402
from repro.serve import ServeConfig, ServeScenario, ServeSupervisor  # noqa: E402
from repro.virt.machine import laboratory_machine  # noqa: E402
from repro.virt.resources import ResourceKind  # noqa: E402
from repro.workloads import Workload, build_tpch_database, tpch_query  # noqa: E402

RESULT_PATH = REPO_ROOT / "benchmarks" / "results" / "BENCH_serve.json"

GRID = 3
FINE_FACTOR = 8
SURROGATE_BUDGET = 12
ALGORITHM = "greedy"
TRACE_SEED = 7
PLAN = FaultPlan.named("flaky")

#: Provisioned load: quotas sized so a well-behaved tenant mix at this
#: rate is almost never shed.
RATED_RATE = 20.0
RATED_CONFIG = dict(quota_capacity=30.0, quota_refill_rate=20.0)
#: The burst: ~10x the arrival rate against tight quotas and a short
#: queue, so admission control must do the work.
OVERLOAD_RATE = 200.0
OVERLOAD_CONFIG = dict(quota_capacity=8.0, quota_refill_rate=4.0,
                       max_queue=16)


def build_problem(scale: float) -> VirtualizationDesignProblem:
    db = build_tpch_database(scale_factor=scale,
                             tables=["customer", "orders", "lineitem"])
    return VirtualizationDesignProblem(
        machine=laboratory_machine(),
        specs=[
            WorkloadSpec(Workload.repeat("order-audit", tpch_query("Q4"), 1),
                         db),
            WorkloadSpec(Workload.repeat("cust-report", tpch_query("Q13"), 2),
                         db),
        ],
        controlled_resources=(ResourceKind.CPU,),
    )


def run_session(problem, workdir, name, scenario, config, max_units=None,
                resume_path=None):
    """One supervised session; returns (entry_dict, run)."""
    path = resume_path or (workdir / f"{name}.journal")
    started = time.perf_counter()
    supervisor = ServeSupervisor(
        problem, path, plan=PLAN, scenario=scenario, config=config,
        algorithm=ALGORITHM, grid=GRID, fine_factor=FINE_FACTOR,
        surrogate_budget=SURROGATE_BUDGET, max_units=max_units)
    run = supervisor.run(resume=resume_path is not None)
    wall = round(time.perf_counter() - started, 3)
    if not run.completed:
        return None, run
    stats = run.stats
    untyped = sum(1 for r in run.responses
                  if r.status == "rejected"
                  and (r.error is None or r.reason is None))
    violations = sum(1 for r in run.responses
                     if r.completed_at > r.request.deadline_at + 1e-12)
    entry = {
        "name": name,
        "requests": stats.requests,
        "rate": scenario.rate,
        "answered": stats.answered,
        "degraded": stats.degraded,
        "rejected": stats.rejected,
        "shed": stats.shed,
        "shed_rate": round(stats.shed_rate, 6),
        "degraded_fraction": round(stats.degraded_fraction, 6),
        "p50_seconds": round(stats.p50_seconds, 6),
        "p99_seconds": round(stats.p99_seconds, 6),
        "deadline_violations": violations,
        "untyped_errors": untyped,
        "design_commits": run.design_seq,
        "breaker_trips": run.breaker_trips,
        "wall_seconds": wall,
    }
    return entry, run


def stream(run) -> list:
    """The comparable response stream: everything a client observes."""
    return [(type(r.request).__name__, r.request.tenant, r.status, r.tier,
             r.error, r.reason, r.cost, r.completed_at)
            for r in run.responses]


def resume_probe(problem, workdir, scenario, config, baseline_run) -> dict:
    """Kill a fresh journaled run of the rated scenario halfway through
    its units, resume it, and compare against the uninterrupted run."""
    kill_after = max(1, baseline_run.new_units // 2)
    path = workdir / "resume-probe.journal"
    supervisor = ServeSupervisor(
        problem, path, plan=PLAN, scenario=scenario, config=config,
        algorithm=ALGORITHM, grid=GRID, fine_factor=FINE_FACTOR,
        surrogate_budget=SURROGATE_BUDGET, max_units=kill_after)
    partial = supervisor.run()
    assert not partial.completed, "the probe kill never triggered"
    _entry, resumed = run_session(problem, workdir, "resume-probe",
                                  scenario, config, resume_path=path)
    identical = (resumed.completed
                 and resumed.replayed_units == kill_after
                 and stream(resumed) == stream(baseline_run))
    return {"resume_identical": bool(identical),
            "resume_kill_after": kill_after}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="smaller TPC-H scale and trace for CI (same "
                             "rates, quotas, and deadlines)")
    parser.add_argument("--output", default=str(RESULT_PATH),
                        help=f"result file (default {RESULT_PATH})")
    args = parser.parse_args(argv)

    scale = 0.001 if args.smoke else 0.002
    requests = 60 if args.smoke else 120
    rated = ServeScenario(seed=TRACE_SEED, requests=requests,
                          rate=RATED_RATE, design_every=25)
    overload = ServeScenario(seed=TRACE_SEED, requests=requests,
                             rate=OVERLOAD_RATE, design_every=25)
    rated_config = ServeConfig(**RATED_CONFIG)
    overload_config = ServeConfig(**OVERLOAD_CONFIG)

    print(f"Building the two-workload problem (scale {scale}) ...",
          file=sys.stderr)
    problem = build_problem(scale)

    with tempfile.TemporaryDirectory(prefix="bench-serve-") as scratch:
        workdir = pathlib.Path(scratch)
        print(f"Rated load: {requests} requests at {RATED_RATE:.0f}/s "
              f"under plan {PLAN.name!r} ...", file=sys.stderr)
        rated_entry, rated_run = run_session(
            problem, workdir, "rated", rated, rated_config)
        print(f"  p50 {rated_entry['p50_seconds'] * 1e3:.1f} ms, "
              f"p99 {rated_entry['p99_seconds'] * 1e3:.1f} ms, "
              f"shed {rated_entry['shed_rate']:.1%} "
              f"({rated_entry['wall_seconds']}s)", file=sys.stderr)

        print(f"Overload: {requests} requests at {OVERLOAD_RATE:.0f}/s, "
              f"tight quotas ...", file=sys.stderr)
        overload_entry, _ = run_session(
            problem, workdir, "overload", overload, overload_config)
        print(f"  shed {overload_entry['shed_rate']:.1%}, "
              f"{overload_entry['untyped_errors']} untyped error(s), "
              f"{overload_entry['deadline_violations']} deadline "
              f"violation(s)", file=sys.stderr)

        print("Resume probe: kill the rated session halfway, resume, "
              "compare ...", file=sys.stderr)
        probe = resume_probe(problem, workdir, rated, rated_config,
                             rated_run)
        print(f"  kill after {probe['resume_kill_after']} unit(s): "
              f"identical={probe['resume_identical']}", file=sys.stderr)

    payload = {
        "suite": "serve",
        "smoke": args.smoke,
        "host_cpus": os.cpu_count(),
        "scenario": "two-workload-whatif-design-mix",
        "plan": PLAN.name,
        "trace_seed": TRACE_SEED,
        "requests": requests,
        "algorithm": ALGORITHM,
        "grid": GRID,
        "surrogate_budget": SURROGATE_BUDGET,
        "entries": [rated_entry, overload_entry],
        "summary": {
            "p99_seconds": rated_entry["p99_seconds"],
            "shed_rate": rated_entry["shed_rate"],
            "degraded_fraction": rated_entry["degraded_fraction"],
            "overload_shed_rate": overload_entry["shed_rate"],
            **probe,
        },
    }
    output = pathlib.Path(args.output)
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"Wrote {output}: rated p99 "
          f"{payload['summary']['p99_seconds'] * 1e3:.1f} ms, shed "
          f"{payload['summary']['shed_rate']:.1%}, resume identical: "
          f"{probe['resume_identical']}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
