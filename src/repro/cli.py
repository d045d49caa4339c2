"""Command-line interface.

Exposes the library's main flows without writing Python::

    python -m repro calibrate --cpu 0.5 --memory 0.5 --io 0.5 [--save P.json]
    python -m repro design --scale 0.01 --grid 4 --algorithm exhaustive
    python -m repro design --continuous --surrogate-tol 0.05 [--save P.json]
    python -m repro explain --query Q4 --cpu 0.5
    python -m repro experiment fig3|fig4|fig5
    python -m repro report [--json] [--algorithm greedy]
    python -m repro chaos --plan noisy [--transient-rate 0.2]
    python -m repro chaos --plan turbulent --journal run.journal \
        --watchdog-probes 5
    python -m repro resume run.journal
    python -m repro fleet --hosts 100 --workloads 1000 --workers 0 --baseline
    python -m repro fleet --journal fleet.journal --max-units 500
    python -m repro monitor --plan turbulent --epochs 8 \
        --drift-threshold 0.15 --recal-budget 12 --journal online.journal
    python -m repro design --online --epochs 6
    python -m repro design --co-tune --storage-budget 64 \
        --journal codesign.journal
    python -m repro serve --plan flaky --requests 120 --rate 40 \
        --journal serve.journal
    python -m repro profile --scenario design --smoke

``profile`` runs the deterministic cProfile harness over the seeded
hot flows (calibration, design search, workload execution) and writes
span-aligned hot-frame reports plus flamegraph-style folded stacks
(see ``docs/profiling.md``).

``chaos`` runs the paper's design problem with a fault injector active
(see ``docs/robustness.md``) and prints the design next to a resilience
summary: faults injected, retries, rejected outliers, fallbacks, and
search budget stops. Exit codes follow the contract in :func:`main`:
0 success, 2 usage, 3 permanent failure, 4 stopped-early-but-resumable.

``chaos``, ``monitor``, ``serve``, ``fleet`` and ``design --co-tune``
are journaled runs: with ``--journal PATH`` every completed unit of
work (a calibration, an evaluation, an observation, a committed
incumbent, a host design, ...) checkpoints; kill the run and ``resume
PATH`` continues it to a bit-identical result (``docs/robustness.md``,
"How a journaled run works").

``design``, ``chaos`` and ``resume`` accept ``--workers N`` (``0`` =
one per CPU core) and ``--pool serial|thread|process``: cost-model
evaluations and calibration trials then run through a batched
:class:`~repro.parallel.EvaluationEngine`. Results are bit-identical
for every worker count (see ``docs/parallelism.md``).

``design --continuous`` fits a calibration surrogate (an adaptively
refined :class:`~repro.surrogate.ParameterSurface`, built to
``--surrogate-tol`` within ``--surrogate-budget`` calibration requests)
and searches continuous allocations down to steps of
``1/(grid * fine-factor)`` against it — interpolated parameters, no
extra experiments. A search-in-the-loop polish phase then spends the
remaining budget anchoring and refining the lattice around the
allocations the search proposes (see ``docs/surrogate.md``). ``--save``
persists the cache *with* the fit (v3 format); a later ``--load`` of
that file skips the fitting entirely.

``monitor`` closes the loop for an always-on deployment: after an
initial continuous-mode design it runs ``--epochs`` rounds of
observe-detect-repair against a world whose host CPU the fault plan
quietly degrades. A per-region Page–Hinkley test on prediction
residuals raises drift events at ``--drift-threshold``; a budget of
``--recal-budget`` calibration requests is spent on targeted knot
refits (highest drift signal × CV uncertainty first); the search then
warm-starts from the incumbent allocation instead of restarting cold
(see ``docs/drift.md``). ``design --online`` is the same loop under the
default ``turbulent`` plan.

``serve`` runs one deterministic session of the always-on design
service: after a continuous-mode boot fit it drives a seeded open-loop
request trace (concurrent what-ifs batched into single ``cost_many``
calls, a design request every ``--design-every``-th arrival) through
admission control (bounded queue, per-tenant token buckets), deadlines,
and the degradation ladder (fresh search → warm-start → serve-stale →
typed refusal), with a circuit breaker around the fault-injected
calibration path (see ``docs/serve.md``).

``design --co-tune`` opens the paper's second axis — physical design:
Extend-style greedy index selection (hypothetical single-column
indexes seeded from the workload's own predicates, best what-if
benefit per storage page first, under ``--storage-budget`` pages per
VM) alternating with the allocation search to a fixed point. The
total-cost trajectory is monotone by construction (see
``docs/codesign.md``).

``fleet`` scales the design problem from one box to a synthetic
datacenter: it clusters workloads by cost-curve shape, assigns
clusters to heterogeneous hosts, tunes every host with the single-host
allocation search (fanned out over ``--workers``), and reroutes
worst-fit workloads until total fleet cost converges (see
``docs/fleet.md``).

Every command accepts ``--stats`` (print a run report of the counted
work after the command's own output) and ``--stats-json PATH`` (write
the same report as JSON). ``report`` runs a small end-to-end design and
prints nothing *but* its run report — the quickest way to see what the
observability layer records (see ``docs/observability.md``).

Everything runs on the simulated laboratory machine; see DESIGN.md for
how that machine relates to the paper's testbed.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import tempfile
from typing import Callable, List, NamedTuple, Optional

from repro import obs
from repro.calibration import CalibrationCache, CalibrationRunner
from repro.core import (
    MeasuredCostModel,
    OptimizerCostModel,
    VirtualizationDesigner,
    VirtualizationDesignProblem,
    WorkloadSpec,
)
from repro.faults import NAMED_PLANS, FaultInjector, FaultPlan, RetryPolicy
from repro.optimizer.whatif import WhatIfOptimizer
from repro.parallel import POOL_KINDS, make_engine
from repro.recovery import RunSupervisor, read_journal
from repro.recovery.kernel import PLAN_META_FIELDS
from repro.util.errors import (
    AdmissionError,
    AllocationError,
    CalibrationError,
    RecoveryError,
    ServeError,
)
from repro.util.tables import format_table
from repro.virt.machine import laboratory_machine
from repro.virt.resources import ResourceKind, ResourceVector
from repro.workloads import build_tpch_database, tpch_query
from repro.workloads.workload import Workload

SHARE_LEVELS = (0.25, 0.5, 0.75)
TPCH_TABLES = ["customer", "orders", "lineitem"]


def _allocation(args) -> ResourceVector:
    return ResourceVector.of(cpu=args.cpu, memory=args.memory, io=args.io)


def _engine(args):
    """``--workers/--pool`` as a context manager yielding the evaluation
    engine (``None`` when serial), closed when the block ends."""
    engine = make_engine(args.workers, args.pool)
    return engine if engine is not None else contextlib.nullcontext()


def _cache(args) -> CalibrationCache:
    cache = CalibrationCache(CalibrationRunner(laboratory_machine()))
    if getattr(args, "load", None):
        cache.load(args.load)
    return cache


def cmd_calibrate(args) -> int:
    cache = _cache(args)
    params = cache.params_for(_allocation(args))
    rows = sorted(params.as_dict().items())
    print(format_table(["parameter", "value"], rows,
                       title=f"Calibrated P for cpu={args.cpu} "
                             f"memory={args.memory} io={args.io}"))
    if args.save:
        count = cache.save(args.save)
        print(f"\nSaved {count} calibrated point(s) to {args.save}")
    return 0


def _design_continuous(cache, problem, args, engine=None):
    """Run the fit → polish → search pipeline for ``--continuous``."""
    from repro.surrogate import design_continuous

    outcome = design_continuous(
        problem, cache, algorithm=args.algorithm, grid=args.grid,
        fine_factor=args.fine_factor, tolerance=args.surrogate_tol,
        max_calibrations=args.surrogate_budget, engine=engine)
    print(f"Surrogate: {outcome.surface.n_knots} knot(s) from "
          f"{outcome.calibrations} calibration request(s) "
          f"({outcome.fit.refinements} cross-validation refinement(s), "
          f"{outcome.polish_iterations} polish round(s), "
          + ("converged" if outcome.converged else "stopped on budget")
          + ")", file=sys.stderr)
    return outcome


def _chaos_problem(args, make_db=None) -> VirtualizationDesignProblem:
    """The paper's two-workload design problem (Figure 4 shape), which
    design, report, chaos, monitor, serve and their resumes all solve —
    on one shared database unless *make_db* builds one per workload."""
    if make_db is None:
        shared = build_tpch_database(scale_factor=args.scale,
                                     tables=TPCH_TABLES)

        def make_db(name):
            return shared
    specs = [
        WorkloadSpec(Workload.repeat(name, tpch_query(query), count),
                     make_db("tpch-" + name))
        for name, query, count in (("order-audit", "Q4", 3),
                                   ("cust-report", "Q13", 9))]
    return VirtualizationDesignProblem(
        machine=laboratory_machine(), specs=specs,
        # CPU unless the command (design --resources, resume) set them.
        controlled_resources=getattr(args, "controlled", (ResourceKind.CPU,)),
    )


def _codesign_problem(args) -> VirtualizationDesignProblem:
    """The co-tuning design problem: the paper's two workloads, each on
    its **own** database with **no** secondary indexes.

    Per-spec databases because index selection mutates the spec's
    catalog (hypothetical DDL) — a shared catalog would leak one
    workload's what-if indexes into the other's plans. No baked-in
    indexes because the physical design is the axis being tuned; the
    selection pass starts from the paper's bare tables.
    """
    return _chaos_problem(args, lambda name: build_tpch_database(
        scale_factor=args.scale, tables=TPCH_TABLES,
        with_indexes=False, name=name))


def _run_codesign(problem, args, resume: bool):
    from repro.codesign import CodesignSupervisor

    supervisor = CodesignSupervisor(
        problem, args.journal,
        storage_budget=args.storage_budget,
        algorithm=args.algorithm, grid=args.grid,
        max_rounds=args.max_rounds,
        max_units=args.max_units,
        scenario={"scale": args.scale},
        workers=args.workers, pool=args.pool)
    return supervisor.run(resume=resume), None


def _show_codesign(run, args) -> None:
    print(run.design.summary())
    print()
    print("Trajectory (total predicted seconds per half-step): "
          + " -> ".join(f"{t:.4f}" for t in run.design.trajectory))


def cmd_design(args) -> int:
    if args.co_tune:
        if args.continuous or args.online:
            print("error: --co-tune cannot combine with --continuous "
                  "or --online", file=sys.stderr)
            return 2
        obs.reset()
        print(f"Co-tuning indexes + allocation (storage budget "
              f"{args.storage_budget} page(s)/VM, {args.algorithm}, "
              f"grid {args.grid}) ...", file=sys.stderr)
        return _run_journaled("codesign", args)
    print(f"Loading TPC-H (scale factor {args.scale}) ...", file=sys.stderr)
    args.controlled = tuple(
        ResourceKind(token) for token in args.resources.split(","))
    problem = _chaos_problem(args)
    cache = _cache(args)
    if args.online:
        # Delegate to the drift-aware closed loop (docs/drift.md) under
        # the default turbulent plan, journaling into a throwaway file.
        args.journal = args.max_units = None
        args.fault_plan = FaultPlan.named("turbulent")
        return _run_journaled("drift", args, problem=problem)
    with _engine(args) as engine:
        if args.continuous and cache.surrogate is None:
            # Fit + search-in-the-loop polish (a loaded v3 cache that
            # already carries a fit skips straight to the search).
            design = _design_continuous(cache, problem, args,
                                        engine=engine).design
        else:
            source = cache.surrogate if args.continuous else cache
            designer = VirtualizationDesigner(problem,
                                              OptimizerCostModel(source))
            design = designer.design(args.algorithm, grid=args.grid,
                                     engine=engine,
                                     continuous=args.continuous,
                                     fine_factor=args.fine_factor)
    print(design.summary())
    if args.save:
        count = cache.save(args.save)
        print(f"\nSaved {count} calibrated point(s)"
              + (" and the surrogate fit" if cache.surrogate else "")
              + f" to {args.save}")
    if args.validate:
        measured = MeasuredCostModel(problem.machine, calibration=cache)
        rows = []
        for name in design.allocation.workload_names():
            spec = problem.spec(name)
            designed = measured.cost(spec, design.allocation.vector_for(name))
            default = measured.cost(
                spec, design.default_allocation.vector_for(name)
            )
            rows.append([name, designed, default, 1 - designed / default])
        print()
        print(format_table(
            ["workload", "measured designed (s)", "measured default (s)",
             "improvement"],
            rows, title="Measured validation",
        ))
    return 0


def cmd_explain(args) -> int:
    db = build_tpch_database(scale_factor=args.scale, tables=TPCH_TABLES)
    cache = _cache(args)
    params = cache.params_for(_allocation(args))
    whatif = WhatIfOptimizer(db.catalog, params)
    print(whatif.explain(tpch_query(args.query)))
    return 0


def cmd_experiment(args) -> int:
    machine = laboratory_machine()
    cache = _cache(args)
    if args.name == "fig3":
        rows = []
        for cpu in SHARE_LEVELS:
            row = [f"cpu {cpu:.0%}"]
            for memory in SHARE_LEVELS:
                params = cache.params_for(
                    ResourceVector.of(cpu=cpu, memory=memory, io=0.5)
                )
                row.append(params.cpu_tuple_cost)
            rows.append(row)
        print(format_table(
            ["", *[f"mem {m:.0%}" for m in SHARE_LEVELS]], rows,
            title="Figure 3: calibrated cpu_tuple_cost",
        ))
        return 0

    db = build_tpch_database(scale_factor=0.01, tables=TPCH_TABLES)
    estimated = OptimizerCostModel(cache)
    measured = MeasuredCostModel(machine, calibration=cache)

    if args.name == "fig4":
        rows = []
        for query in ("Q4", "Q13"):
            spec = WorkloadSpec(Workload(query.lower(), [tpch_query(query)]), db)
            est = [estimated.cost(
                spec, ResourceVector.of(cpu=c, memory=0.5, io=0.5)
            ) for c in SHARE_LEVELS]
            act = [measured.cost(
                spec, ResourceVector.of(cpu=c, memory=0.5, io=0.5)
            ) for c in SHARE_LEVELS]
            rows.append([query, "estimated", *[v / est[1] for v in est]])
            rows.append([query, "actual", *[v / act[1] for v in act]])
        print(format_table(
            ["query", "series", *[f"cpu {c:.0%}" for c in SHARE_LEVELS]],
            rows, title="Figure 4: normalized execution time vs CPU share",
        ))
        return 0

    if args.name == "fig5":
        q4 = WorkloadSpec(Workload.repeat("w-q4", tpch_query("Q4"), 3), db)
        q13 = WorkloadSpec(Workload.repeat("w-q13", tpch_query("Q13"), 9), db)
        rows = []
        for label, c4, c13 in (("default 50/50", 0.5, 0.5),
                               ("designed 25/75", 0.25, 0.75)):
            t4 = measured.cost(q4, ResourceVector.of(cpu=c4, memory=0.5, io=0.5))
            t13 = measured.cost(q13, ResourceVector.of(cpu=c13, memory=0.5, io=0.5))
            rows.append([label, t4, t13, t4 + t13])
        print(format_table(
            ["allocation", "w-q4 (s)", "w-q13 (s)", "total (s)"], rows,
            title="Figure 5: workload execution time by allocation",
        ))
        return 0
    raise AssertionError(f"unhandled experiment {args.name}")


def cmd_report(args) -> int:
    """Run a small end-to-end design and print its run report.

    The run is the paper's two-workload problem at a reduced scale:
    enough to exercise calibration, the what-if cost model, a search,
    and (for the measured validation pass) the engine itself, so every
    section of the report has data.
    """
    obs.reset()
    print(f"Running a {args.algorithm} design to collect a run report ...",
          file=sys.stderr)
    problem = _chaos_problem(args)
    cache = _cache(args)
    designer = VirtualizationDesigner(problem, OptimizerCostModel(cache))
    design = designer.design(args.algorithm, grid=args.grid)
    measured = MeasuredCostModel(problem.machine, calibration=cache)
    for name in design.allocation.workload_names():
        measured.cost(problem.spec(name), design.allocation.vector_for(name))

    report = obs.RunReport.capture(label=f"design/{args.algorithm}")
    if args.json:
        print(report.to_json())
    else:
        print(report.to_text())
    return 0


#: Fault-plan fields a subcommand may expose as ``--<field>`` overrides:
#: every field a journal header records, bar the plan's name and seed.
PLAN_OVERRIDES = PLAN_META_FIELDS[2:]


def _chaos_plan(args) -> FaultPlan:
    """The fault plan the ``chaos`` command runs under: a named plan,
    optionally overridden by explicit rate flags."""
    overrides = {flag: getattr(args, flag)
                 for flag in ("seed",) + PLAN_OVERRIDES
                 if getattr(args, flag, None) is not None}
    return FaultPlan.named(args.plan).with_overrides(**overrides)


def _resilience_rows(report: obs.RunReport) -> List[List[str]]:
    summary = report.summary
    snapshot = report.metrics

    def by_label(name, label):
        out = {}
        for entry in snapshot.get("counters", ()):
            if entry["name"] == name and label in entry["labels"]:
                key = entry["labels"][label]
                out[key] = out.get(key, 0.0) + entry["value"]
        return out

    rows = []
    for kind, count in sorted(by_label("faults.injected", "kind").items()):
        rows.append([f"faults injected ({kind})", f"{count:.0f}"])
    for site, count in sorted(by_label("resilience.retries", "site").items()):
        rows.append([f"retries ({site})", f"{count:.0f}"])
    rows.append(["outliers rejected",
                 f"{summary.get('outliers_rejected', 0):.0f}"])
    for kind, count in sorted(by_label("resilience.fallbacks", "kind").items()):
        rows.append([f"fallbacks ({kind})", f"{count:.0f}"])
    rows.append(["search budget stops",
                 f"{summary.get('budget_stops', 0):.0f}"])
    return rows


def _print_chaos_outcome(plan: FaultPlan, cache: CalibrationCache) -> None:
    report = obs.RunReport.capture(label=f"chaos/{plan.name}")
    if report.summary.get("faults_injected", 0) == 0:
        print(f"Fault plan {plan.name!r}: no faults injected; "
              "the run was effectively fault-free.")
    else:
        print(format_table(
            ["event", "count"], _resilience_rows(report),
            title=f"Resilience summary — fault plan {plan.name!r}"))
    if cache is not None and cache.fallback_log:
        print()
        rows = [[str(event.allocation), event.kind,
                 str(event.source) if event.source else "-", event.reason]
                for event in cache.fallback_log]
        print(format_table(
            ["allocation", "fallback", "served by", "reason"], rows,
            title="Degraded lookups",
        ))


def _search_kwargs(args) -> dict:
    """Supervisor arguments the chaos, monitor and serve runs share."""
    return dict(
        plan=args.fault_plan, algorithm=args.algorithm, grid=args.grid,
        fine_factor=args.fine_factor, surrogate_tol=args.surrogate_tol,
        surrogate_budget=args.surrogate_budget, max_units=args.max_units,
        extra_meta={"scale": args.scale},
        workers=args.workers, pool=args.pool)


def _run_chaos(problem, args, resume: bool):
    supervisor = RunSupervisor(
        problem, args.journal, **_search_kwargs(args),
        max_evaluations=args.max_evaluations,
        watchdog_probes=args.watchdog_probes,
        continuous=args.continuous)
    return supervisor.run(resume=resume), supervisor.cache


def _show_chaos(run, args) -> int:
    print(run.design.summary())
    if run.actions:
        rows = [[f"{action.time_seconds:.1f}", action.subject, action.event,
                 action.action, action.detail] for action in run.actions]
        print()
        print(format_table(
            ["t (s)", "subject", "event", "action", "detail"], rows,
            title="Watchdog recovery actions"))
    return 4 if run.design.stopped else 0


def cmd_chaos(args) -> int:
    """Run the design problem under a fault plan and summarize survival."""
    obs.reset()
    plan = args.fault_plan = _chaos_plan(args)
    print(f"Running a {args.algorithm} design under fault plan "
          f"{plan.name!r} (transient={plan.transient_rate:.0%}, "
          f"outlier={plan.outlier_rate:.0%}, hang={plan.hang_rate:.0%}, "
          f"boot={plan.boot_failure_rate:.0%}, "
          f"vm-crash={plan.vm_crash_rate:.0%}, "
          f"host-degrade={plan.host_degrade_rate:.0%}) ...", file=sys.stderr)
    if args.journal:
        return _run_journaled("chaos", args)
    if args.continuous:
        print("error: chaos --continuous requires --journal "
              "(the surrogate fit is journaled)", file=sys.stderr)
        return 2
    problem = _chaos_problem(args)
    with _engine(args) as engine:
        cache = CalibrationCache(CalibrationRunner(
            problem.machine, injector=FaultInjector(plan),
            retry_policy=RetryPolicy.resilient(), engine=engine))
        designer = VirtualizationDesigner(problem, OptimizerCostModel(cache))
        design = designer.design(args.algorithm, grid=args.grid,
                                 max_evaluations=args.max_evaluations,
                                 engine=engine)
    print(design.summary())
    print()
    _print_chaos_outcome(plan, cache)
    return 4 if design.stopped else 0


def _run_drift(problem, args, resume: bool):
    from repro.drift import OnlineSupervisor

    supervisor = OnlineSupervisor(
        problem, args.journal, **_search_kwargs(args),
        epochs=args.epochs, drift_threshold=args.drift_threshold,
        recal_budget=args.recal_budget)
    return supervisor.run(resume=resume), supervisor.cache


def _show_drift(run, args) -> None:
    rows = [[f"{point['epoch']}", f"{point['capacity']:.3f}",
             f"{point['observed_seconds']:.4f}",
             f"{point['drift_events']}", f"{point['refits']}"]
            for point in run.trajectory]
    print(format_table(
        ["epoch", "cpu capacity", "observed (s)", "drift events", "refits"],
        rows,
        title=f"Online trajectory — fault plan {args.fault_plan.name!r}"))
    print()
    print(run.design.summary())
    print()
    budget = ("unbounded" if run.budget_remaining is None
              else f"{run.budget_spent} request(s) spent, "
                   f"{run.budget_remaining} left")
    print(f"Drift: {len(run.events)} event(s), {run.recalibrations} knot "
          f"refit(s), {run.redesigns} warm re-design(s); "
          f"recalibration budget: {budget}")


def cmd_monitor(args) -> int:
    """Run the drift-aware closed loop under a degrading fault plan."""
    obs.reset()
    plan = args.fault_plan = _chaos_plan(args)
    print(f"Running an online {args.algorithm} design for {args.epochs} "
          f"epoch(s) under fault plan {plan.name!r} "
          f"(host-degrade={plan.host_degrade_rate:.0%}, "
          f"drift threshold={args.drift_threshold}, "
          f"recal budget={args.recal_budget}) ...", file=sys.stderr)
    return _run_journaled("drift", args)


def _show_serve(run, args) -> None:
    stats = run.stats
    rows = [
        ["requests", f"{stats.requests}"],
        ["answered", f"{stats.answered}"],
        ["degraded answers", f"{stats.degraded} "
                             f"({stats.degraded_fraction:.1%} of served)"],
        ["typed rejections", f"{stats.rejected}"],
        ["shed (overload + quota)", f"{stats.shed} "
                                    f"({stats.shed_rate:.1%} of offered)"],
        ["p50 latency", f"{stats.p50_seconds * 1000:.1f} ms"],
        ["p99 latency", f"{stats.p99_seconds * 1000:.1f} ms"],
        ["designs committed", f"{run.design_seq}"],
        ["breaker trips", f"{run.breaker_trips}"],
    ]
    print(format_table(
        ["measure", "value"], rows,
        title=f"Serving session — fault plan {args.fault_plan.name!r}"))
    tier_rows = [[tier, f"{count}"]
                 for tier, count in sorted(stats.by_tier.items())]
    if tier_rows:
        print()
        print(format_table(["tier", "served"], tier_rows,
                           title="Degradation ladder"))
    reason_rows = [[reason, f"{count}"]
                   for reason, count in sorted(stats.by_reason.items())]
    if reason_rows:
        print()
        print(format_table(["reason", "rejected"], reason_rows,
                           title="Typed rejections"))
    print()
    print(run.design.summary())


def _run_serve(problem, args, resume: bool):
    from repro.serve import ServeSupervisor

    supervisor = ServeSupervisor(
        problem, args.journal, **_search_kwargs(args),
        scenario=args.scenario, config=args.serve_config)
    return supervisor.run(resume=resume), supervisor.cache


def cmd_serve(args) -> int:
    """Run one deterministic session of the always-on design service."""
    from repro.serve import ServeConfig, ServeScenario

    obs.reset()
    plan = args.fault_plan = _chaos_plan(args)
    print(f"Serving a {args.requests}-request open-loop trace at "
          f"{args.rate:g} req/s ({args.tenants} tenant(s), a design "
          f"request every {args.design_every}) under fault plan "
          f"{plan.name!r} ...", file=sys.stderr)
    args.scenario = ServeScenario(
        seed=args.trace_seed, requests=args.requests, rate=args.rate,
        tenants=args.tenants, design_every=args.design_every)
    args.serve_config = ServeConfig(
        max_queue=args.max_queue, max_batch=args.max_batch,
        quota_capacity=args.quota_capacity,
        quota_refill_rate=args.quota_refill)
    return _run_journaled("serve", args)


def _print_fleet_design(design, baseline_cost=None) -> None:
    summary = design.summary()
    status = ("converged" if summary["converged"]
              else "stopped on round budget")
    rows = [
        ["workloads placed", f"{summary['workloads']}"],
        ["hosts occupied", f"{summary['hosts_occupied']}"],
        ["shape clusters", f"{summary['clusters']}"],
        ["initial cost", f"{summary['initial_cost']:.6g}"],
        ["final cost", f"{summary['total_cost']:.6g}"],
        ["reassignment", f"{summary['rounds']} round(s), "
                         f"{summary['moves']} move(s), {status}"],
    ]
    if summary["initial_cost"] > 0:
        gain = 1 - summary["total_cost"] / summary["initial_cost"]
        rows.append(["reassignment gain", f"{gain:.1%}"])
    if baseline_cost:
        improvement = 1 - summary["total_cost"] / baseline_cost
        rows.append(["round-robin baseline",
                     f"{baseline_cost:.6g} (fleet design {improvement:.1%} "
                     f"cheaper)"])
    print(format_table(["measure", "value"], rows, title="Fleet placement"))


def _fleet_problem(args):
    from repro.fleet import synthetic_fleet

    return synthetic_fleet(args.hosts, args.workloads, seed=args.seed,
                           grid=args.grid)


def _run_fleet(problem, args, resume: bool):
    from repro.fleet import FleetSupervisor

    with _engine(args) as engine:
        supervisor = FleetSupervisor(
            problem, args.journal,
            scenario={"n_hosts": args.hosts, "n_workloads": args.workloads,
                      "seed": args.seed, "grid": args.grid},
            clusters=args.clusters or None, algorithm=args.algorithm,
            max_rounds=args.rounds, max_units=args.max_units,
            engine=engine,
            extra_meta={"workers": args.workers, "pool": args.pool})
        return supervisor.run(resume=resume), None


def cmd_fleet(args) -> int:
    """Place a synthetic fleet: cluster, tune per host, reroute."""
    from repro.fleet import FleetDesigner, round_robin_assignment

    obs.reset()
    problem = _fleet_problem(args)
    print(f"Placing {args.workloads} workload(s) on {args.hosts} host(s) "
          f"(seed {args.seed}, grid {args.grid}) ...", file=sys.stderr)
    if args.journal:
        return _run_journaled("fleet", args, problem=problem)
    with _engine(args) as engine:
        designer = FleetDesigner(
            problem, clusters=args.clusters or None,
            algorithm=args.algorithm, engine=engine,
            max_rounds=args.rounds)
        design = designer.design()
        baseline_cost = None
        if args.baseline:
            baseline_cost, _designs = designer.evaluate_assignment(
                round_robin_assignment(problem))
    _print_fleet_design(design, baseline_cost)
    return 0


def cmd_profile(args) -> int:
    """Profile the hot flows under cProfile and emit the artifacts."""
    from repro.profiling import SCENARIOS, profile_scenario

    names = sorted(SCENARIOS) if args.scenario == "all" else [args.scenario]
    os.makedirs(args.output_dir, exist_ok=True)
    for name in names:
        report = profile_scenario(name, smoke=args.smoke, top=args.top)
        print(report.to_text())
        base = os.path.join(args.output_dir, name)
        with open(base + ".txt", "w") as handle:
            handle.write(report.to_text())
        with open(base + ".json", "w") as handle:
            handle.write(report.to_json() + "\n")
        with open(base + ".folded", "w") as handle:
            handle.write(report.folded())
        print(f"Wrote {base}.txt, {base}.json, {base}.folded",
              file=sys.stderr)
    return 0


def _follow_journal_workers(args, meta) -> None:
    """Honor the journal's worker count, warning when a flag disagrees.

    The journal records the original run's execution shape, and the
    resumed run always follows it. Results are bit-identical across
    worker counts (``docs/parallelism.md``), so a differing
    ``--workers`` is harmless — but silently discarding it would hide
    that the flag had no effect, so say so on stderr.
    """
    journaled = meta.get("workers")
    if journaled is None:
        return
    journaled = int(journaled)
    if args.workers is not None and int(args.workers) != journaled:
        print(f"warning: journal records workers={journaled}; "
              f"ignoring --workers {int(args.workers)} "
              "(results are identical either way)", file=sys.stderr)
    args.workers = journaled


def _search_from_meta(args, meta) -> None:
    """Journal header → the arguments chaos, monitor and serve share."""
    plan_fields = dict(meta.get("plan") or {})
    if not plan_fields:
        raise RecoveryError(
            f"journal {args.journal} carries no fault plan in its header")
    args.fault_plan = FaultPlan(**plan_fields)
    args.scale = float(meta.get("scale", 0.002))
    args.fine_factor = int(meta.get("fine_factor", 8))
    args.surrogate_tol = float(meta.get("surrogate_tol", 0.05))
    args.surrogate_budget = meta.get("surrogate_budget", 24)


def _chaos_from_meta(args, meta) -> None:
    _search_from_meta(args, meta)
    args.watchdog_probes = int(meta.get("watchdog_probes", 0))
    args.max_evaluations = None
    args.continuous = bool(meta.get("continuous", False))


def _drift_from_meta(args, meta) -> None:
    _search_from_meta(args, meta)
    args.epochs = int(meta.get("epochs", 8))
    args.drift_threshold = float(meta.get("drift_threshold", 0.15))
    args.recal_budget = meta.get("recal_budget")


def _serve_from_meta(args, meta) -> None:
    from repro.serve import ServeConfig, ServeScenario

    _search_from_meta(args, meta)
    args.scenario = ServeScenario.from_dict(dict(meta["scenario"]))
    args.serve_config = ServeConfig.from_dict(dict(meta["config"]))


def _scenario_of(args, meta, what: str) -> dict:
    scenario = meta.get("scenario")
    if not scenario:
        raise RecoveryError(
            f"journal {args.journal} carries no {what} scenario in its "
            f"header; only scenario-built {what} runs are CLI-resumable")
    return scenario


def _codesign_from_meta(args, meta) -> None:
    args.scale = float(_scenario_of(args, meta, "co-tuning")["scale"])
    args.storage_budget = int(meta["storage_budget"])
    args.max_rounds = int(meta.get("max_rounds", 6))


def _fleet_from_meta(args, meta) -> None:
    scenario = _scenario_of(args, meta, "fleet")
    args.hosts = int(scenario["n_hosts"])
    args.workloads = int(scenario["n_workloads"])
    args.seed = int(scenario["seed"])
    args.clusters = meta.get("clusters")
    args.rounds = int(meta.get("max_rounds", 8))


class _RunKind(NamedTuple):
    """How the CLI runs, resumes and reports one journaled run kind."""

    #: What the run is called in messages.
    label: str
    #: ``(args, meta)``: rebuild the arguments from a journal header.
    from_meta: Callable
    #: ``(args) -> problem``.
    problem: Callable
    #: ``(problem, args, resume) -> (run, calibration cache or None)``.
    run: Callable
    #: ``(run, args)``: print a completed run's outcome; may return a
    #: non-zero exit code (a budget-stopped search) when it calls for one.
    show: Callable


#: Journal ``run_kind`` → its CLI adapter. Headers written before run
#: kinds existed (PR 3) carry none: they are supervised chaos runs.
RUN_KINDS = {
    "chaos": _RunKind("Run", _chaos_from_meta, _chaos_problem,
                      _run_chaos, _show_chaos),
    "codesign": _RunKind("Co-tuning run", _codesign_from_meta,
                         _codesign_problem, _run_codesign, _show_codesign),
    "drift": _RunKind("Online run", _drift_from_meta, _chaos_problem,
                      _run_drift, _show_drift),
    "serve": _RunKind("Serving session", _serve_from_meta, _chaos_problem,
                      _run_serve, _show_serve),
    "fleet": _RunKind("Fleet run", _fleet_from_meta, _fleet_problem,
                      _run_fleet,
                      lambda run, args: _print_fleet_design(run.design)),
}


def _run_journaled(kind: str, args, problem=None, resume: bool = False) -> int:
    """Drive (or resume) one journaled run of *kind* and report it.

    Supervisors are journal-driven, so a run without ``--journal``
    still checkpoints — into a throwaway file.
    """
    spec = RUN_KINDS[kind]
    with contextlib.ExitStack() as stack:
        if not args.journal:
            scratch = stack.enter_context(
                tempfile.TemporaryDirectory(prefix=f"repro-{kind}-"))
            args.journal = os.path.join(scratch, f"{kind}.journal")
        if problem is None:
            problem = spec.problem(args)
        run, cache = spec.run(problem, args, resume)
        if not run.completed:
            print(f"{spec.label} stopped after {run.new_units} new unit(s) "
                  f"({run.replayed_units} replayed); journal {args.journal} "
                  f"is resumable with: repro resume {args.journal}")
            return 4
        code = spec.show(run, args) or 0
        print(f"\nJournal: {run.replayed_units} unit(s) replayed, "
              f"{run.new_units} freshly committed -> {args.journal}")
        if cache is not None:
            _print_chaos_outcome(args.fault_plan, cache)
        return code


def cmd_resume(args) -> int:
    """Resume a killed journaled run of any kind in :data:`RUN_KINDS`."""
    obs.reset()
    meta, _records, _tail = read_journal(args.journal)
    kind = meta.get("run_kind", "chaos")
    if kind not in RUN_KINDS:
        raise RecoveryError(
            f"journal {args.journal} records run kind {kind!r}, which "
            f"'repro resume' cannot resume (known kinds: "
            f"{', '.join(sorted(RUN_KINDS))})")
    # Rebuild the run from the journal's own identity; CLI flags are
    # not consulted so a resumed run cannot drift from the original.
    # Every kind's header carries the search; the rest is the kind's.
    args.algorithm = meta.get("algorithm", "greedy")
    args.grid = int(meta.get("grid", 4))
    args.controlled = tuple(ResourceKind(token)
                            for token in meta.get("controlled", ["cpu"]))
    RUN_KINDS[kind].from_meta(args, meta)
    _follow_journal_workers(args, meta)
    print(f"Resuming {RUN_KINDS[kind].label.lower()} from journal "
          f"{args.journal} ...", file=sys.stderr)
    return _run_journaled(kind, args, resume=True)


def _emit_stats(args) -> None:
    """Honor the global ``--stats`` / ``--stats-json`` flags."""
    stats = getattr(args, "stats", False)
    stats_json = getattr(args, "stats_json", None)
    if not stats and not stats_json:
        return
    report = obs.RunReport.capture(label=args.command)
    if stats:
        print()
        print(report.to_text())
    if stats_json:
        with open(stats_json, "w") as handle:
            handle.write(report.to_json() + "\n")
        print(f"Wrote run report to {stats_json}", file=sys.stderr)


ALGORITHMS = ["exhaustive", "greedy", "dynamic-programming"]


# The two factories below build a *fresh* parent per subcommand instead
# of one shared parent plus ``set_defaults``: argparse hands a parent's
# Action objects to every child, so a default set through one child
# would silently become every other child's default.

def _search_parent(grid: int, algorithm: str,
                   scale: Optional[float] = None) -> argparse.ArgumentParser:
    """``[--scale] --grid --algorithm`` with one subcommand's defaults."""
    parent = argparse.ArgumentParser(add_help=False)
    if scale is not None:
        parent.add_argument("--scale", type=float, default=scale,
                            help=f"TPC-H scale factor (default {scale})")
    parent.add_argument("--grid", type=int, default=grid,
                        help=f"search discretization (default {grid})")
    parent.add_argument("--algorithm", default=algorithm, choices=ALGORITHMS,
                        help=f"allocation search (default {algorithm})")
    return parent


def _plan_parent(plan: str, overrides) -> argparse.ArgumentParser:
    """``--plan``, ``--seed`` and one override flag per name in
    *overrides* (a subset of :data:`PLAN_OVERRIDES`)."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--plan", default=plan, choices=sorted(NAMED_PLANS),
                        help=f"named fault plan (default {plan})")
    for name in overrides:
        parent.add_argument(
            "--" + name.replace("_", "-"), type=float, default=None,
            help=f"override the plan's {name.replace('_', ' ')}")
    parent.add_argument("--seed", type=int, default=None,
                        help="override the plan's fault seed")
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Database Virtualization: A New "
                    "Frontier for Database Tuning and Physical Design' "
                    "(ICDE 2007)",
    )
    # Shared by every subcommand: observability emission.
    stats_parent = argparse.ArgumentParser(add_help=False)
    stats_parent.add_argument(
        "--stats", action="store_true",
        help="print a run report (counted work) after the command")
    stats_parent.add_argument(
        "--stats-json", metavar="PATH",
        help="also write the run report as JSON to PATH")

    # Shared by the cache-reading subcommands, and by those that take
    # one allocation on the command line.
    load_parent = argparse.ArgumentParser(add_help=False)
    load_parent.add_argument("--load",
                             help="preload a saved calibration cache")
    share_parent = argparse.ArgumentParser(add_help=False)
    for flag, noun in (("--cpu", "CPU"), ("--memory", "memory"),
                       ("--io", "I/O")):
        share_parent.add_argument(
            flag, type=float, default=0.5,
            help=f"{noun} share in [0, 1] (default 0.5)")

    # Shared by the evaluation-heavy subcommands: parallel fan-out.
    parallel_parent = argparse.ArgumentParser(add_help=False)
    parallel_parent.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="run cost evaluations and calibration trials through the "
             "batched evaluation engine with N workers (0 = one per CPU "
             "core; results are bit-identical for every worker count)")
    parallel_parent.add_argument(
        "--pool", default="thread", choices=list(POOL_KINDS),
        help="worker pool kind for --workers (default thread)")

    # Shared by the journaled subcommands: checkpointing and the kill.
    journal_parent = argparse.ArgumentParser(add_help=False)
    journal_parent.add_argument(
        "--journal", default=None, metavar="PATH",
        help="checkpoint every completed unit of work to a journal at "
             "PATH (the run becomes crash-recoverable; see 'repro resume')")
    journal_parent.add_argument(
        "--max-units", type=int, default=None,
        help="simulate a crash after N newly journaled units "
             "(journaled runs only)")

    # Shared by the continuous-mode subcommands: the surrogate fit.
    surrogate_parent = argparse.ArgumentParser(add_help=False)
    surrogate_parent.add_argument(
        "--surrogate-tol", type=float, default=0.05, metavar="TOL",
        help="cross-validated interpolation error tolerance driving "
             "adaptive surrogate refinement (default 0.05)")
    surrogate_parent.add_argument(
        "--surrogate-budget", type=int, default=24, metavar="N",
        help="cap on calibration requests the surrogate fit may spend "
             "(default 24)")
    surrogate_parent.add_argument(
        "--fine-factor", type=int, default=8, metavar="F",
        help="continuous-search resolution multiplier: allocations are "
             "explored down to steps of 1/(grid*F) (default 8)")

    # Shared by the closed-loop subcommands: the drift loop's knobs.
    drift_parent = argparse.ArgumentParser(add_help=False)
    drift_parent.add_argument(
        "--epochs", type=int, default=8, metavar="N",
        help="epochs of the observe-detect-repair loop (default 8)")
    drift_parent.add_argument(
        "--drift-threshold", type=float, default=0.15, metavar="LAMBDA",
        help="Page–Hinkley detection threshold in log-residual units "
             "(default 0.15)")
    drift_parent.add_argument(
        "--recal-budget", type=int, default=12, metavar="N",
        help="calibration-request budget for drift repairs (replays "
             "included; default 12)")

    subparsers = parser.add_subparsers(dest="command", required=True)

    calibrate = subparsers.add_parser(
        "calibrate", parents=[stats_parent, share_parent, load_parent],
        help="calibrate optimizer parameters for an allocation",
        epilog="Documentation: docs/cost-model.md")
    calibrate.add_argument("--save", help="write the calibration cache to a JSON file")
    calibrate.set_defaults(func=cmd_calibrate)

    design = subparsers.add_parser(
        "design", parents=[stats_parent, parallel_parent, load_parent,
                           _search_parent(4, "exhaustive", scale=0.01),
                           surrogate_parent, drift_parent, journal_parent],
        help="solve the paper's two-workload design problem",
        epilog="Documentation: docs/cost-model.md, docs/surrogate.md "
               "(--continuous), docs/parallelism.md (--workers)")
    design.add_argument("--resources", default="cpu",
                        help="comma list of controlled resources "
                             "(cpu,memory,io; default cpu)")
    design.add_argument("--validate", action="store_true",
                        help="also measure the design vs the default")
    design.add_argument("--continuous", action="store_true",
                        help="search continuous allocations through a fitted "
                             "calibration surrogate instead of the coarse "
                             "grid (see docs/surrogate.md)")
    design.add_argument("--online", action="store_true",
                        help="run the drift-aware closed loop under the "
                             "default turbulent fault plan: observe, detect "
                             "stale cost models, recalibrate on budget, "
                             "warm-restart the search (see docs/drift.md; "
                             "'repro monitor' exposes every knob), tuned by "
                             "--epochs/--drift-threshold/--recal-budget")
    design.add_argument("--co-tune", action="store_true",
                        help="jointly tune per-VM index configurations and "
                             "the allocation: Extend-style greedy index "
                             "selection under --storage-budget alternating "
                             "with the allocation search to a fixed point "
                             "(see docs/codesign.md)")
    design.add_argument("--storage-budget", type=int, default=64,
                        metavar="N",
                        help="--co-tune: storage pages each VM may spend on "
                             "selected indexes (default 64)")
    design.add_argument("--max-rounds", type=int, default=6, metavar="N",
                        help="--co-tune: cap on selection/search alternation "
                             "rounds (default 6)")
    design.add_argument("--save", help="write the calibration cache (and any "
                                       "surrogate fit) to a JSON file")
    design.set_defaults(func=cmd_design)

    explain = subparsers.add_parser(
        "explain", parents=[stats_parent, share_parent, load_parent],
        help="what-if EXPLAIN of a TPC-H query under an allocation",
        epilog="Documentation: docs/cost-model.md")
    explain.add_argument("--query", default="Q4", help="query name (e.g. Q13)")
    explain.add_argument("--scale", type=float, default=0.01)
    explain.set_defaults(func=cmd_explain)

    experiment = subparsers.add_parser(
        "experiment", parents=[stats_parent, load_parent],
        help="regenerate one of the paper's figures",
        epilog="Documentation: EXPERIMENTS.md")
    experiment.add_argument("name", choices=["fig3", "fig4", "fig5"])
    experiment.set_defaults(func=cmd_experiment)

    report = subparsers.add_parser(
        "report", parents=[load_parent,
                           _search_parent(4, "greedy", scale=0.002)],
        help="run a small design end to end and print its run report",
        epilog="Documentation: docs/observability.md")
    report.add_argument("--json", action="store_true",
                        help="emit the report as JSON instead of tables")
    report.set_defaults(func=cmd_report)

    chaos = subparsers.add_parser(
        "chaos", parents=[
            stats_parent, parallel_parent,
            _plan_parent("noisy", [name for name in PLAN_OVERRIDES
                                   if name != "host_degrade_factor"]),
            _search_parent(4, "greedy", scale=0.002),
            surrogate_parent, journal_parent],
        help="run a design under a fault plan and print a resilience summary",
        epilog="Documentation: docs/robustness.md")
    chaos.add_argument("--max-evaluations", type=int, default=None,
                       help="stop the search after this many cost evaluations")
    chaos.add_argument("--watchdog-probes", type=int, default=0,
                       help="watchdog probes over the deployed design "
                            "(journaled runs only; default 0)")
    chaos.add_argument("--continuous", action="store_true",
                       help="journaled runs only: fit a calibration "
                            "surrogate (crash-recoverably) and search "
                            "continuous allocations against it")
    chaos.set_defaults(func=cmd_chaos)

    monitor = subparsers.add_parser(
        "monitor", parents=[
            stats_parent, parallel_parent,
            _plan_parent("turbulent", ["transient_rate", "host_degrade_rate",
                                       "host_degrade_factor"]),
            _search_parent(4, "greedy", scale=0.002),
            surrogate_parent, drift_parent, journal_parent],
        help="run the drift-aware closed loop: observe, detect stale "
             "cost models, recalibrate on budget, warm-restart the search",
        epilog="Documentation: docs/drift.md")
    monitor.set_defaults(func=cmd_monitor)

    serve = subparsers.add_parser(
        "serve", parents=[
            stats_parent, parallel_parent,
            _plan_parent("flaky", ["transient_rate"]),
            _search_parent(4, "greedy", scale=0.002),
            surrogate_parent, journal_parent],
        help="run the always-on design service: admission control, "
             "deadlines, graceful degradation over a seeded request trace",
        epilog="Documentation: docs/serve.md")
    serve.add_argument("--trace-seed", type=int, default=7,
                       help="request-trace seed (default 7)")
    serve.add_argument("--requests", type=int, default=120, metavar="N",
                       help="requests in the open-loop trace (default 120)")
    serve.add_argument("--rate", type=float, default=40.0,
                       help="mean offered load, requests per simulated "
                            "second (default 40)")
    serve.add_argument("--tenants", type=int, default=4,
                       help="distinct tenants, Zipf-skewed (default 4)")
    serve.add_argument("--design-every", type=int, default=25, metavar="N",
                       help="every N-th request is a design request "
                            "(default 25)")
    serve.add_argument("--max-queue", type=int, default=32,
                       help="bounded request queue depth; beyond it "
                            "requests shed with Overloaded (default 32)")
    serve.add_argument("--max-batch", type=int, default=16,
                       help="max requests merged per batch (default 16)")
    serve.add_argument("--quota-capacity", type=float, default=8.0,
                       help="per-tenant token-bucket capacity (default 8)")
    serve.add_argument("--quota-refill", type=float, default=4.0,
                       help="per-tenant token refill rate per simulated "
                            "second (default 4)")
    serve.set_defaults(func=cmd_serve)

    fleet = subparsers.add_parser(
        "fleet", parents=[stats_parent, parallel_parent,
                          _search_parent(16, "greedy"), journal_parent],
        help="place a synthetic fleet: cluster workloads, tune every "
             "host, reroute until total cost converges",
        epilog="Documentation: docs/fleet.md")
    fleet.add_argument("--hosts", type=int, default=12, metavar="N",
                       help="number of heterogeneous hosts in the "
                            "synthetic fleet (default 12)")
    fleet.add_argument("--workloads", type=int, default=60, metavar="N",
                       help="number of synthetic workloads to place "
                            "(default 60)")
    fleet.add_argument("--seed", type=int, default=7,
                       help="scenario seed (default 7)")
    fleet.add_argument("--clusters", type=int, default=0, metavar="K",
                       help="number of workload shape clusters "
                            "(0 = auto, about sqrt(workloads/2))")
    fleet.add_argument("--rounds", type=int, default=8,
                       help="max reassignment rounds (default 8)")
    fleet.add_argument("--baseline", action="store_true",
                       help="also price a round-robin placement for "
                            "comparison")
    fleet.set_defaults(func=cmd_fleet)

    resume = subparsers.add_parser(
        "resume", parents=[stats_parent, parallel_parent],
        help="resume a killed journaled chaos, fleet, online, serve, or "
             "co-tuning run, bit-identically",
        epilog="Documentation: docs/robustness.md (chaos runs), "
               "docs/fleet.md (fleet runs), docs/drift.md (online runs), "
               "docs/serve.md (serving sessions), docs/codesign.md "
               "(co-tuning runs)")
    resume.add_argument("journal", help="journal file written by the "
                                        "--journal of chaos, fleet, monitor, "
                                        "serve, or design --co-tune")
    resume.add_argument("--max-units", type=int, default=None,
                        help="simulate another crash after N new units")
    resume.set_defaults(func=cmd_resume)

    profile = subparsers.add_parser(
        "profile", parents=[stats_parent],
        help="run the deterministic cProfile harness over the hot flows "
             "and write hot-frame + flamegraph artifacts",
        epilog="Documentation: docs/profiling.md")
    profile.add_argument(
        "--scenario", default="all",
        choices=["all", "calibration", "design", "workload"],
        help="which seeded flow to profile (default: all of them)")
    profile.add_argument(
        "--smoke", action="store_true",
        help="shrink every scenario for CI smoke runs (seconds, not minutes)")
    profile.add_argument(
        "--top", type=int, default=25, metavar="N",
        help="hot frames to keep per section (default 25)")
    profile.add_argument(
        "--output-dir", default="benchmarks/profiles", metavar="DIR",
        help="where to write <scenario>.txt/.json/.folded artifacts "
             "(default benchmarks/profiles)")
    profile.set_defaults(func=cmd_profile)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Parse and run one command; returns the documented exit code.

    The contract (asserted in ``tests/integration/test_cli.py`` and
    documented in ``docs/robustness.md``):

    * ``0`` — success;
    * ``2`` — usage error (argparse's own convention, plus invalid
      allocations, admission refusals, or serve-scenario misuse);
    * ``3`` — permanent failure (``CalibrationError``, including
      ``IllConditionedError``, or an unusable recovery journal);
    * ``4`` — a budgeted search stopped early, or a journaled run was
      stopped before completing (best-so-far / resumable outcome).
    """
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
    except (AllocationError, AdmissionError, ServeError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except (CalibrationError, RecoveryError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 3
    _emit_stats(args)
    return code


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
