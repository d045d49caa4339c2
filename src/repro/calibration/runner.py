"""Running the calibration experiments.

For an allocation ``R``, the runner boots a virtual machine with those
shares on the target physical machine, installs the synthetic database,
executes designed queries, measures their simulated execution times
through the VM performance model, and deduces the optimizer parameters
``P`` — Section 5 of the paper.

Two protocols are provided:

* ``sequential`` (default): the classical optimizer-calibration scheme.
  CPU-priced parameters are isolated on the always-cached small table
  (pairs of queries differing in exactly one work category), then the
  page-fetch times are derived from steady-state big-table runs with
  the CPU terms subtracted. Every parameter has a closed-form estimate.
* ``lstsq``: all suite measurements are fitted jointly by regularized
  least squares (:mod:`repro.calibration.solver`). Used by the
  calibration ablation as the comparison point.

Measured repetitions run against a cache primed by one unmeasured
execution, so times reflect the steady-state behaviour the optimizer's
cost formulas model.

Execute once, replay many
-------------------------
A measurement's engine work is a pure function of the database state
(buffer-pool capacity and sort memory, both set by the booted VM's
memory share) and the query: the runner cold-restarts and re-primes the
pool before every measurement, so nothing else leaks in. The runner
therefore memoizes each query's executed work — the design row and the
:class:`WorkTrace` — per (pool capacity, sort pages, query, repetition
count) and replays it on later calibrations instead of re-executing,
sharing the buffer-pool warmup across all calibrations that land on the
same pool size. Only the *execution* is shared: every calibration still
times the trace through its own allocation's :class:`VMPerfModel` with
its own noise and fault streams, so a long-lived runner calibrates the
parameters a fresh one would. Replays count on the
``calibration.trace_cache_hits`` counter.

Resilience: measurements run under a :class:`repro.faults.RetryPolicy`.
Each repetition takes ``policy.trials`` trials, rejects outlier trials
by MAD filtering, and reports the median of the survivors; a trial that
raises a transient :class:`~repro.util.errors.MeasurementFault` (or
exceeds the simulated measurement deadline) is retried with exponential
backoff on the *simulated* clock, and only when the retry budget is
exhausted does the experiment fail with a permanent
:class:`~repro.util.errors.CalibrationError` (see ``docs/robustness.md``).

Batched trials
--------------
With an :class:`~repro.parallel.EvaluationEngine` attached (the
``engine`` argument; the supervisor and the ``--workers`` CLI flag wire
one in), each repetition's ``policy.trials`` trials run as one engine
batch instead of a serial loop. Every trial is hermetic: it gets its
own :meth:`~repro.faults.FaultInjector.fork_stream` fault stream and
its own forked noise stream, both derived from the trial's label alone
— so the faults, retries, and timings a trial observes are a function
of its identity, never of which worker ran it, and an N-worker run is
bit-identical to a 1-worker run. Retry backoff, retry counters, and
injected-fault counts are computed inside the trial but *applied*
serially in trial order by the coordinating thread, keeping every
metric bit-identical too (see ``docs/parallelism.md``). Without an
engine, the original sequential-stream code path runs unchanged.

Observability: each :meth:`CalibrationRunner.calibrate` call opens a
``calibrate`` span (tagged with the allocation and protocol) and
increments ``calibration.experiments``; every measured repetition
increments ``calibration.measurements`` and adds its simulated seconds
to the ``sim.seconds`` counter (``source=calibration``). Retries count
on ``resilience.retries`` (labelled ``site=boot|measurement``),
rejected trials on ``resilience.outliers_rejected``, and backoff waits
accumulate into ``sim.seconds`` (``source=backoff``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple, TypeVar

from repro.calibration.solver import CalibrationSolution, solve_parameters
from repro.calibration.synthetic import CalibrationWorkbench
from repro.engine.database import Database
from repro.engine.plans import IndexScan, PlanNode, walk
from repro.engine.trace import WorkTrace
from repro.faults.injector import FaultInjector
from repro.faults.retry import RetryPolicy, robust_seconds
from repro.obs import metrics
from repro.obs.spans import span
from repro.optimizer.params import OptimizerParameters
from repro.util.errors import (
    CalibrationError,
    MeasurementFault,
    MeasurementTimeout,
)
from repro.util.rng import DeterministicRng
from repro.virt.machine import PhysicalMachine
from repro.virt.perf import VMPerfModel
from repro.virt.resources import ResourceVector
from repro.virt.vm import VirtualMachine, VMConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.parallel.engine import EvaluationEngine

_T = TypeVar("_T")

#: Floor for derived per-unit times (seconds); avoids zero/negative
#: parameters when a subtraction is dominated by model error.
MIN_UNIT_SECONDS = 1e-9


@dataclass
class CalibrationMeasurement:
    """One calibration query's measurement."""

    query_name: str
    design_row: List[float]
    measured_seconds: float
    trace: WorkTrace


@dataclass
class _TrialOutcome:
    """One batched trial's result plus its deferred side effects.

    A trial task must not touch shared state (the engine may run it in
    any worker, or another process entirely), so everything the serial
    path would have applied immediately — backoff seconds, retry
    counts, injected-fault counts — comes back here and is applied by
    the coordinating thread, serially, in trial order.
    """

    seconds: float
    backoff_seconds: float = 0.0
    retries: int = 0
    fault_counts: Dict[str, int] = field(default_factory=dict)


@dataclass
class CalibrationReport:
    """Everything one calibration run produced."""

    allocation: ResourceVector
    method: str = "sequential"
    measurements: List[CalibrationMeasurement] = field(default_factory=list)
    solution: Optional[CalibrationSolution] = None
    parameters: Optional[OptimizerParameters] = None


class CalibrationRunner:
    """Calibrates ``P(R)`` on one physical machine."""

    def __init__(self, machine: PhysicalMachine,
                 workbench: Optional[CalibrationWorkbench] = None,
                 method: str = "sequential",
                 noise_sigma: float = 0.0, seed: int = 1234,
                 injector: Optional[FaultInjector] = None,
                 retry_policy: Optional[RetryPolicy] = None,
                 engine: Optional["EvaluationEngine"] = None):
        if method not in ("sequential", "lstsq"):
            raise CalibrationError(f"unknown calibration method {method!r}")
        self._machine = machine
        self._workbench = workbench or CalibrationWorkbench()
        self._method = method
        self._noise_sigma = noise_sigma
        self._rng = DeterministicRng(seed).fork("calibration-runner")
        self._injector = injector
        self._policy = retry_policy or RetryPolicy()
        self._engine = engine
        # (pool capacity, sort pages, query, repetitions) -> the
        # executed work of each repetition; see "Execute once, replay
        # many" in the module docstring. Entries are treated read-only.
        self._trace_cache: Dict[
            tuple, List[Tuple[List[float], WorkTrace]]] = {}
        #: Simulated seconds spent waiting in retry backoff.
        self.backoff_seconds_total = 0.0
        # The synthetic database is allocation-independent; build once
        # and re-home it per calibration.
        self._database = self._workbench.build_database()

    @property
    def machine(self) -> PhysicalMachine:
        return self._machine

    @property
    def method(self) -> str:
        return self._method

    @property
    def retry_policy(self) -> RetryPolicy:
        return self._policy

    @property
    def injector(self) -> Optional[FaultInjector]:
        return self._injector

    # -- measurement plumbing ------------------------------------------------

    def _with_retries(self, site: str, name: str,
                      attempt_once: Callable[[], _T]) -> _T:
        """Run *attempt_once*, retrying transient faults with backoff.

        Backoff waits advance the simulated clock only (counted into
        ``sim.seconds`` with ``source=backoff``); exhausting the budget
        escalates the last transient fault into a permanent
        :class:`CalibrationError` (see the contract in
        :mod:`repro.util.errors`).
        """
        policy = self._policy
        for attempt in range(1, policy.max_attempts + 1):
            try:
                return attempt_once()
            except MeasurementFault as fault:
                if attempt >= policy.max_attempts:
                    raise CalibrationError(
                        f"{site} {name!r} failed after {attempt} "
                        f"attempt(s): {fault}"
                    ) from fault
                backoff = policy.backoff_seconds(attempt)
                self.backoff_seconds_total += backoff
                metrics.counter("resilience.retries", site=site).inc()
                metrics.counter("sim.seconds", source="backoff").inc(backoff)
        raise AssertionError("unreachable")  # pragma: no cover

    def _boot(self, allocation: ResourceVector) -> VMPerfModel:
        def attempt_boot() -> VMPerfModel:
            if self._injector is not None:
                self._injector.on_boot(allocation.as_tuple())
            vm = VirtualMachine(
                self._machine,
                VMConfig(name=f"calibration-{allocation.as_tuple()}",
                         shares=allocation),
            )
            vm.attach_guest(self._database)
            vm.start()
            return VMPerfModel(
                vm, noise_rng=self._rng if self._noise_sigma > 0 else None,
                noise_sigma=self._noise_sigma,
                injector=self._injector,
            )

        return self._with_retries("boot", str(allocation.as_tuple()),
                                  attempt_boot)

    def _timed_trial(self, perf: VMPerfModel, name: str,
                     total: float) -> float:
        """One trial's elapsed seconds, retried through transient faults.

        *total* is the repetition's precomputed noise-free time
        (:meth:`VMPerfModel.noise_free_seconds`); each trial — and each
        retry attempt — applies its own noise and fault draws to it,
        consuming the streams exactly as ``perf.elapsed`` would.
        """
        deadline = self._policy.measurement_deadline_seconds

        def attempt_trial() -> float:
            seconds = perf.finalize_seconds(total)
            if seconds > deadline:
                raise MeasurementTimeout(
                    f"measurement {name!r} took {seconds:.3g}s simulated, "
                    f"past the {deadline:.3g}s deadline"
                )
            return seconds

        return self._with_retries("measurement", name, attempt_trial)

    # -- batched trials ------------------------------------------------------

    def _one_trial(self, vm: VirtualMachine, name: str, label: str,
                   total: float) -> _TrialOutcome:
        """One hermetic trial: forked streams, local retry accounting.

        Runs inside an engine worker. The perf model is rebuilt around
        the booted VM with a fault stream and noise stream forked from
        *label*, so the trial's observations depend only on its label.
        Transient faults retry up to the policy's budget with the
        backoff accumulated locally; exhaustion escalates to the same
        permanent :class:`CalibrationError` the serial path raises.
        """
        injector = (self._injector.fork_stream(label)
                    if self._injector is not None else None)
        noise_rng = (self._rng.fork(f"noise:{label}")
                     if self._noise_sigma > 0 else None)
        perf = VMPerfModel(vm, noise_rng=noise_rng,
                           noise_sigma=self._noise_sigma, injector=injector)
        policy = self._policy
        deadline = policy.measurement_deadline_seconds
        backoff_total = 0.0
        retries = 0
        for attempt in range(1, policy.max_attempts + 1):
            try:
                seconds = perf.finalize_seconds(total)
                if seconds > deadline:
                    raise MeasurementTimeout(
                        f"measurement {name!r} took {seconds:.3g}s "
                        f"simulated, past the {deadline:.3g}s deadline")
            except MeasurementFault as fault:
                if attempt >= policy.max_attempts:
                    raise CalibrationError(
                        f"measurement {name!r} failed after {attempt} "
                        f"attempt(s): {fault}"
                    ) from fault
                backoff_total += policy.backoff_seconds(attempt)
                retries += 1
                continue
            return _TrialOutcome(
                seconds=seconds, backoff_seconds=backoff_total,
                retries=retries,
                fault_counts=(injector.drain_counts()
                              if injector is not None else {}))
        raise AssertionError("unreachable")  # pragma: no cover

    def _batched_trials(self, vm: VirtualMachine, name: str, label_base: str,
                        total: float) -> List[float]:
        """All of a repetition's trials as one engine batch.

        Labels enumerate the trials of this (query, repetition), so the
        batch is a pure function of the measurement's identity; the
        engine guarantees result order, so the list handed to the MAD
        filter is bit-identical for every worker count. Deferred side
        effects (backoff, retry and fault counters) are applied here,
        serially, in trial order.
        """
        labels = [f"{label_base}:trial{t}"
                  for t in range(self._policy.trials)]
        outcomes = self._engine.map(
            lambda label: self._one_trial(vm, name, label, total), labels)
        for outcome in outcomes:
            if outcome.retries:
                self.backoff_seconds_total += outcome.backoff_seconds
                metrics.counter("resilience.retries",
                                site="measurement").inc(outcome.retries)
                metrics.counter("sim.seconds",
                                source="backoff").inc(outcome.backoff_seconds)
            for kind, count in sorted(outcome.fault_counts.items()):
                metrics.counter("faults.injected", kind=kind).inc(count)
        return [outcome.seconds for outcome in outcomes]

    def _measure(self, perf: VMPerfModel, name: str, build_plan,
                 report: CalibrationReport,
                 repetitions: int = 1) -> CalibrationMeasurement:
        """Prime the cache, then measure; returns the last repetition.

        Each repetition is measured ``policy.trials`` times; outlier
        trials are rejected by MAD filtering and the median of the
        survivors is the repetition's measured time, so an injected
        outlier (or a noise spike) cannot poison the design row.

        The execution phase (cold restart, priming run, measured runs)
        happens only the first time this (pool size, query) combination
        is seen; later calibrations replay the recorded design rows and
        traces and pay only for the per-allocation timing.
        """
        db = self._database
        key = (db.buffer_pool.capacity, db.sort_mem_pages, name, repetitions)
        executions = self._trace_cache.get(key)
        if executions is None:
            db.cold_restart()
            db.run_plan(build_plan(db))  # unmeasured priming execution
            executions = []
            for _repetition in range(repetitions):
                plan = build_plan(db)
                result = db.run_plan(plan)
                executions.append(
                    (self._design_row(plan, result.trace, db), result.trace))
            self._trace_cache[key] = executions
        else:
            metrics.counter("calibration.trace_cache_hits").inc()
        measurement: Optional[CalibrationMeasurement] = None
        for repetition, (design_row, trace) in enumerate(executions):
            total = perf.noise_free_seconds(trace)
            if self._engine is not None:
                trials = self._batched_trials(
                    perf.vm, name, f"{name}#{repetition}", total)
            else:
                trials = [
                    self._timed_trial(perf, name, total)
                    for _trial in range(self._policy.trials)
                ]
            seconds, n_rejected = robust_seconds(
                trials, self._policy.mad_threshold)
            if n_rejected:
                metrics.counter("resilience.outliers_rejected").inc(n_rejected)
            metrics.counter("calibration.measurements").inc()
            metrics.counter("sim.seconds", source="calibration").inc(seconds)
            measurement = CalibrationMeasurement(
                query_name=f"{name}#{repetition}",
                design_row=design_row,
                measured_seconds=seconds,
                trace=trace,
            )
            report.measurements.append(measurement)
        assert measurement is not None
        return measurement

    def _design_row(self, plan: PlanNode, trace: WorkTrace,
                    db: Database) -> List[float]:
        """Map a query's work counts to optimizer-charged quantities.

        The calibration target is that the optimizer's *formulas*
        reproduce measured times, so each row contains the quantities
        the formulas multiply the parameters by: every scanned page is
        charged (hit or miss) and random fetches are split by the same
        cache-discount rule :func:`repro.optimizer.cost.cache_discount`
        applies.
        """
        from repro.optimizer.cost import cache_discount

        seq_pages = float(trace.seq_page_requests)
        rand_pages = float(trace.random_page_requests)
        discounted_rand = 0.0
        discounted_to_seq = 0.0
        if rand_pages > 0:
            relation_pages = 0
            for node in walk(plan):
                if isinstance(node, IndexScan):
                    relation_pages = max(
                        relation_pages,
                        db.catalog.table(node.table_name).heap.n_pages,
                    )
            probe = OptimizerParameters(
                effective_cache_size=db.buffer_pool.capacity
            )
            discount = cache_discount(probe, relation_pages)
            discounted_rand = rand_pages * (1.0 - discount)
            discounted_to_seq = rand_pages * discount
        return [
            seq_pages + discounted_to_seq,
            discounted_rand,
            float(trace.tuples_processed),
            float(trace.index_tuples),
            float(trace.predicate_ops),
            float(trace.like_bytes),
        ]

    # -- protocols ---------------------------------------------------------------

    def calibrate(self, allocation: ResourceVector) -> CalibrationReport:
        """Measure and solve ``P`` for one allocation."""
        with span("calibrate", allocation=str(allocation.as_tuple()),
                  method=self._method):
            if self._injector is not None:
                # One calibration = one unit of work: with a per-unit
                # injector the fault stream inside this experiment
                # depends only on the allocation, not on run history —
                # the property checkpoint/resume relies on.
                self._injector.begin_unit(str(allocation.as_tuple()))
            metrics.counter("calibration.experiments").inc()
            report = CalibrationReport(allocation=allocation,
                                       method=self._method)
            perf = self._boot(allocation)
            if self._method == "sequential":
                self._calibrate_sequential(perf, report)
            else:
                self._calibrate_lstsq(perf, report)
            return report

    def _calibrate_sequential(self, perf: VMPerfModel,
                              report: CalibrationReport) -> None:
        bench = self._workbench
        db = self._database

        # Step 1: CPU-priced parameters from the always-cached small table.
        base = self._measure(perf, "small_count", bench.plan_small_count, report)
        pred = self._measure(perf, "small_pred", bench.plan_small_pred, report)
        like = self._measure(perf, "small_like", bench.plan_small_like, report)

        n_tuples = base.trace.tuples_processed
        if n_tuples <= 0:
            raise CalibrationError("small-table scan processed no tuples")
        t_tuple = max(MIN_UNIT_SECONDS, base.measured_seconds / n_tuples)

        delta_ops = pred.trace.predicate_ops - base.trace.predicate_ops
        if delta_ops <= 0:
            raise CalibrationError("predicate query added no operator work")
        t_op = max(
            MIN_UNIT_SECONDS,
            (pred.measured_seconds - base.measured_seconds) / delta_ops,
        )

        delta_bytes = like.trace.like_bytes - base.trace.like_bytes
        if delta_bytes <= 0:
            raise CalibrationError("LIKE query matched no bytes")
        like_cpu = (like.measured_seconds - base.measured_seconds
                    - (like.trace.predicate_ops - base.trace.predicate_ops) * t_op)
        t_like = max(MIN_UNIT_SECONDS, like_cpu / delta_bytes)

        # Step 2: index-tuple cost from the always-cached small index scan.
        sidx = self._measure(perf, "small_index", bench.plan_small_index, report)
        fetched = sidx.trace.index_tuples
        if fetched <= 0:
            raise CalibrationError("small index scan fetched no tuples")
        t_itup = max(
            MIN_UNIT_SECONDS,
            sidx.measured_seconds / fetched - t_tuple,
        )

        # Step 3: sequential page time from the steady-state scan ladder.
        # Blending tables that do and do not fit in this allocation's
        # buffer pool makes T_seq an *effective* (cache-weighted) page
        # time that varies smoothly with the memory share.
        total_io_seconds = 0.0
        total_pages = 0
        for table in bench.scan_ladder():
            scan = self._measure(perf, f"scan_{table}",
                                 bench.plan_ladder_scan(table), report)
            total_pages += scan.trace.seq_page_requests
            total_io_seconds += (
                scan.measured_seconds - scan.trace.tuples_processed * t_tuple
            )
        if total_pages <= 0:
            raise CalibrationError("ladder scans requested no pages")
        # A fully cached page fetch still costs roughly a tuple's worth
        # of CPU, which floors the effective sequential page time.
        t_seq = max(1.2 * t_tuple, total_io_seconds / total_pages)

        # Step 4: random page time from the steady-state huge index scan,
        # inverted through the same cache discount the cost model uses.
        bidx = self._measure(perf, "huge_index", bench.plan_huge_index, report)
        row = bidx.design_row
        priced_rand = row[1]
        cpu_part = (
            bidx.trace.tuples_processed * t_tuple
            + bidx.trace.index_tuples * t_itup
            + bidx.trace.predicate_ops * t_op
        )
        io_part = bidx.measured_seconds - cpu_part - row[0] * t_seq
        if priced_rand > 0:
            t_rand = max(t_seq, io_part / priced_rand)
        else:
            t_rand = 4.0 * t_seq  # nothing to measure: PostgreSQL default ratio

        unit_seconds = {
            "seq_pages": t_seq,
            "rand_pages": t_rand,
            "tuples": t_tuple,
            "index_tuples": t_itup,
            "ops": t_op,
            "like_bytes": t_like,
        }
        predicted = [
            sum(m.design_row[i] * u for i, u in enumerate(unit_seconds.values()))
            for m in report.measurements
        ]
        residuals = [
            p - m.measured_seconds for p, m in zip(predicted, report.measurements)
        ]
        rms = (sum(r * r for r in residuals) / len(residuals)) ** 0.5
        report.solution = CalibrationSolution(unit_seconds=unit_seconds,
                                              residual_rms=rms)
        report.parameters = report.solution.to_parameters(
            effective_cache_size=db.buffer_pool.capacity,
            sort_mem_pages=db.sort_mem_pages,
        )

    def _calibrate_lstsq(self, perf: VMPerfModel,
                         report: CalibrationReport) -> None:
        db = self._database
        for query in self._workbench.suite():
            self._measure(perf, query.name, query.build_plan, report,
                          repetitions=query.repetitions)
        report.solution = solve_parameters(
            [m.design_row for m in report.measurements],
            [m.measured_seconds for m in report.measurements],
            query_names=[m.query_name for m in report.measurements],
        )
        report.parameters = report.solution.to_parameters(
            effective_cache_size=db.buffer_pool.capacity,
            sort_mem_pages=db.sort_mem_pages,
        )

    def parameters_for(self, allocation: ResourceVector) -> OptimizerParameters:
        """Calibrated parameters for one allocation (no caching here)."""
        report = self.calibrate(allocation)
        assert report.parameters is not None
        return report.parameters
