"""The five workloads: set-up, one op, and what an op hands back.

Each workload drives the program through public entry points only.
:meth:`Workload.execute` runs an op list as a closed loop with one
client (``serve_closed``: two client coroutines), starting no new op
once ``seconds`` have elapsed, and returns per-op latencies and
outputs; ``bench_e2e.checks`` judges the outputs afterwards, outside
every timed region.
"""

from __future__ import annotations

import asyncio
import dataclasses
import os
import pathlib
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from bench_e2e import checks, oplists
from bench_e2e.tracing import ROOT_SPAN, SUBMIT_SPAN, Tracer
from repro import obs
from repro import workloads as tpch
from repro.calibration import CalibrationCache, CalibrationRunner
from repro.core import (
    MeasuredCostModel,
    OptimizerCostModel,
    VirtualizationDesigner,
    VirtualizationDesignProblem,
    WorkloadSpec,
)
from repro.optimizer.params import OptimizerParameters
from repro.optimizer.planner import Planner
from repro.recovery import RunJournal, RunSupervisor
from repro.serve import (
    REJECTED,
    DesignService,
    ServeConfig,
    ServeDaemon,
    ServeScenario,
    SimulatedClock,
    generate_trace,
)
from repro.surrogate import design_continuous
from repro.virt.machine import laboratory_machine
from repro.virt.resources import ResourceKind, ResourceVector
from repro.virt.vm import MIN_GUEST_MEMORY_MIB, VirtualMachine, VMConfig

SCALE = 0.01
FIG5_TABLES = ["customer", "orders", "lineitem"]
#: Every table a sweep or exec query reads (no partsupp: nothing uses it).
QUERY_TABLES = ["region", "nation", "supplier", "customer", "part",
                "orders", "lineitem"]

#: Typed refusals the serve trace itself causes; they are answers.
SEMANTIC_REFUSALS = ("unknown-workload", "bad-delta")


@dataclass
class PassResult:
    """What one run over an op list produced."""

    latencies: List[float] = field(default_factory=list)
    outputs: List[Any] = field(default_factory=list)
    #: Latencies by op class, for workloads with more than one class.
    classes: Dict[str, List[float]] = field(default_factory=dict)
    failed: int = 0
    wall: float = 0.0
    #: True when the deadline stopped the loop before the list ended.
    truncated: bool = False
    #: Bytes and records journaled during the pass.
    journal_bytes: int = 0
    journal_records: int = 0

    @property
    def attempted(self) -> int:
        return len(self.latencies)


def fig5_problem(database, resources) -> VirtualizationDesignProblem:
    """The paper's Figure 5 problem: Q4 x3 against Q13 x9."""
    specs = [
        WorkloadSpec(tpch.Workload.repeat("order-audit",
                                          tpch.tpch_query("Q4"), 3), database),
        WorkloadSpec(tpch.Workload.repeat("cust-report",
                                          tpch.tpch_query("Q13"), 9), database),
    ]
    return VirtualizationDesignProblem(
        machine=laboratory_machine(), specs=specs,
        controlled_resources=tuple(resources))


def design_output(design, grid: int) -> Dict[str, Any]:
    """Everything a caller can observe of a design, as plain data."""
    names = design.allocation.workload_names()
    return {
        "grid": grid,
        "summary": design.summary(),
        "algorithm": design.algorithm,
        "evaluations": design.evaluations,
        "allocation": {name: list(design.allocation.vector_for(name).as_tuple())
                       for name in names},
        "predicted": {name: design.predicted_costs[name] for name in names},
        "predicted_total": design.predicted_total_cost,
        "default_total": design.default_total_cost,
        "controlled": [str(kind) for kind in design.problem.controlled_resources],
        "minimum_shares": minimum_shares(design.problem),
    }


def minimum_shares(problem) -> Dict[str, float]:
    """Smallest share of each resource a VM may hold on this machine."""
    return {"cpu": 0.0, "io": 0.0,
            "memory": MIN_GUEST_MEMORY_MIB / problem.machine.memory_mib}


class Workload:
    """Base: a sequential closed loop with one client."""

    name = ""

    def __init__(self, scratch: pathlib.Path):
        self.scratch = scratch

    def setup(self) -> None:
        raise NotImplementedError

    def run_op(self, op: Dict[str, Any]) -> Any:
        raise NotImplementedError

    def execute(self, ops: List[Dict[str, Any]], seconds: float,
                tracer: Optional[Tracer] = None) -> PassResult:
        result = PassResult()
        began = time.perf_counter()
        for index, op in enumerate(ops):
            start = time.perf_counter()
            if start - began >= seconds:
                result.truncated = True
                break
            try:
                if tracer is None:
                    output = self.run_op(op)
                else:
                    tracer.op_id = index
                    with tracer.span(ROOT_SPAN):
                        output = self.run_op(op)
            except Exception as error:  # an op that raises is a failed op
                traceback.print_exc(file=sys.stderr)
                output = error
                result.failed += 1
            result.latencies.append(time.perf_counter() - start)
            result.outputs.append(output)
        result.wall = time.perf_counter() - began
        return result

    def prepare(self, ops: List[Dict[str, Any]]) -> list:
        """What :meth:`execute` iterates over (part of set-up)."""
        return ops

    def renew(self) -> None:
        """Fresh state for a second pass over the same ops (stateless
        workloads need none)."""

    def extras(self, traced: bool, smoke: bool) -> Dict[str, float]:
        """Per-layer values only one workload can fill; 0 elsewhere."""
        return dict.fromkeys(("cli.design_subprocess_s", "engine.db_pages",
                              "engine.pool_pages_min",
                              "engine.pool_pages_max"), 0.0)

    def check(self, checker: checks.Checker, ops: list,
              passes: List[Tuple[PassResult, Dict[str, float]]]) -> None:
        """Judge every pass's outputs."""
        labels = ("",) if len(passes) == 1 else ("untraced: ", "traced: ")
        for label, (result, counts) in zip(labels, passes):
            checker.prefix = label
            if result.outputs:
                self.check_pass(checker, ops[:len(result.outputs)], result,
                                counts)
            else:
                checker.expect("at least one op ran", False)
        checker.prefix = ""

    def check_pass(self, checker: checks.Checker, ops: list,
                   result: PassResult, counts: Dict[str, float]) -> None:
        """Judge one pass."""
        raise NotImplementedError


class DesignCold(Workload):
    """``repro design --resources cpu,memory --grid 4`` from nothing."""

    name = "design_cold"

    CLI = ["-m", "repro", "design", "--resources", "cpu,memory",
           "--grid", "4", "--algorithm", "exhaustive"]

    def setup(self) -> None:
        # Users pay the load and the calibration on every run; only the
        # interpreter's own first-call costs are warmed away.
        self.run_op({})

    def run_op(self, op: Dict[str, Any]) -> Dict[str, Any]:
        database = tpch.build_tpch_database(scale_factor=SCALE,
                                            tables=FIG5_TABLES)
        cache = CalibrationCache(CalibrationRunner(laboratory_machine()))
        problem = fig5_problem(database,
                               (ResourceKind.CPU, ResourceKind.MEMORY))
        designer = VirtualizationDesigner(problem, OptimizerCostModel(cache))
        return design_output(designer.design("exhaustive", grid=4), 4)

    def extras(self, traced: bool, smoke: bool) -> Dict[str, float]:
        """One real ``python -m repro design`` as a user would run it."""
        values = super().extras(traced, smoke)
        self.cli_stdout = ""
        if not traced or smoke:
            return values
        source = pathlib.Path(obs.__file__).resolve().parents[2]
        start = time.perf_counter()
        done = subprocess.run([sys.executable, *self.CLI], cwd=self.scratch,
                              env={**os.environ, "PYTHONPATH": str(source)},
                              capture_output=True, text=True, timeout=150)
        values["cli.design_subprocess_s"] = time.perf_counter() - start
        sys.stderr.write(done.stderr)
        self.cli_stdout = (done.stdout if done.returncode == 0
                           else f"exit code {done.returncode}")
        return values

    def check_pass(self, checker, ops, result, counts) -> None:
        checks.check_design_cold(checker, result.outputs, self.cli_stdout)


class WhatIfSweep(Workload):
    """Design searches over a warm database and a warm lattice."""

    name = "whatif_sweep"

    def setup(self) -> None:
        self.database = tpch.build_tpch_database(scale_factor=SCALE,
                                                 tables=QUERY_TABLES)
        self.cache = CalibrationCache(CalibrationRunner(laboratory_machine()))
        # An exhaustive search visits every lattice point any algorithm
        # can; one per problem shape calibrates the whole lattice.
        for resources in oplists.SWEEP_RESOURCES:
            for size in oplists.SWEEP_SIZES:
                self.run_op({
                    "workloads": [[query, 1] for query
                                  in oplists.SWEEP_QUERIES[:size]],
                    "resources": list(resources),
                    "algorithm": "exhaustive",
                    "grid": oplists.SWEEP_GRID,
                })

    def run_op(self, op: Dict[str, Any]) -> Dict[str, Any]:
        specs = [
            WorkloadSpec(tpch.Workload.repeat(f"w{index}-{query}x{copies}",
                                              tpch.tpch_query(query), copies),
                         self.database)
            for index, (query, copies) in enumerate(op["workloads"])
        ]
        problem = VirtualizationDesignProblem(
            machine=laboratory_machine(), specs=specs,
            controlled_resources=tuple(ResourceKind(token)
                                       for token in op["resources"]))
        designer = VirtualizationDesigner(problem,
                                          OptimizerCostModel(self.cache))
        return design_output(designer.design(op["algorithm"], grid=op["grid"]),
                             op["grid"])

    def check_pass(self, checker, ops, result, counts) -> None:
        checks.check_whatif_sweep(checker, ops, result.outputs,
                                  self.run_op(ops[0]),
                                  counts["calibration.fresh"])


class MeasureExec(Workload):
    """Measured executions of single TPC-H queries in a booted VM."""

    name = "measure_exec"

    def setup(self) -> None:
        self.machine = laboratory_machine()
        self.database = tpch.build_tpch_database(scale_factor=SCALE,
                                                 tables=QUERY_TABLES)
        self.pool_pages: List[int] = []

    def run_op(self, op: Dict[str, Any]) -> Dict[str, Any]:
        spec = WorkloadSpec(
            tpch.Workload.repeat(op["query"], tpch.tpch_query(op["query"]), 1),
            self.database)
        allocation = ResourceVector.of(cpu=op["cpu"], memory=op["memory"],
                                       io=0.5)
        seconds = MeasuredCostModel(self.machine).cost(spec, allocation)
        self.pool_pages.append(self.database.buffer_pool.capacity)
        return {"query": op["query"], "cpu": op["cpu"],
                "memory": op["memory"], "simulated_seconds": seconds}

    def rows_at(self, query: str, memory: float) -> List[tuple]:
        """The query's result in a VM holding *memory* (for the checks)."""
        vm = VirtualMachine(self.machine, VMConfig(
            name="verify", shares=ResourceVector.of(cpu=0.5, memory=memory,
                                                    io=0.5)))
        vm.attach_guest(self.database)
        vm.start()
        self.database.cold_restart()
        planner = Planner(self.database.catalog, OptimizerParameters.defaults())
        return self.database.run_plan(
            planner.plan_sql(tpch.tpch_query(query))).rows

    def extras(self, traced: bool, smoke: bool) -> Dict[str, float]:
        catalog = self.database.catalog
        pages = sum(catalog.table(name).heap.n_pages
                    for name in catalog.table_names())
        return {**super().extras(traced, smoke),
                "engine.db_pages": pages,
                "engine.pool_pages_min": min(self.pool_pages, default=0),
                "engine.pool_pages_max": max(self.pool_pages, default=0)}

    def check(self, checker, ops, passes) -> None:
        """One verdict for the run: fetching rows costs 18 executions."""
        outputs = [output for result, _counts in passes
                   for output in result.outputs]
        rows = {(query, memory): self.rows_at(query, memory)
                for query in oplists.EXEC_QUERIES for memory in (0.25, 0.75)}
        checks.check_measure_exec(
            checker, outputs, rows,
            tpch.TpchDataGenerator(scale_factor=SCALE).rows_for("lineitem"))


class SupervisedResume(Workload):
    """A journaled design killed half-way, torn, and resumed."""

    name = "supervised_resume"

    ALGORITHM = "exhaustive"
    GRID = 8

    def setup(self) -> None:
        database = tpch.build_tpch_database(scale_factor=SCALE,
                                            tables=FIG5_TABLES)
        self.problem = fig5_problem(
            database,
            (ResourceKind.CPU, ResourceKind.MEMORY, ResourceKind.IO))
        self.journals = pathlib.Path(tempfile.mkdtemp(
            prefix="journals-", dir=self.scratch))
        self._next = 0
        # The uninterrupted run is the reference every op must equal,
        # and tells where "half-way" is.
        path = self.journals / "reference.journal"
        run = self._supervisor(path).run()
        self.total_units = run.new_units
        self.reference = design_output(run.design, self.GRID)

    def _supervisor(self, path, max_units=None) -> RunSupervisor:
        return RunSupervisor(self.problem, path, algorithm=self.ALGORITHM,
                             grid=self.GRID, max_units=max_units)

    def run_op(self, op: Dict[str, Any]) -> Dict[str, Any]:
        path = self.journals / f"op-{self._next}.journal"
        self._next += 1
        killed = self._supervisor(path, self.total_units // 2).run()
        # A crash mid-append leaves part of one more record behind.
        last = path.read_text(encoding="utf-8").splitlines()[-1]
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(last[:max(1, int(len(last) * op["torn_fraction"]))])
        resumed = self._supervisor(path).run(resume=True)
        return {
            "killed_completed": killed.completed,
            "completed": resumed.completed,
            "replayed_units": resumed.replayed_units,
            "new_units": resumed.new_units,
            "design": (design_output(resumed.design, self.GRID)
                       if resumed.design else None),
            "journal": str(path),
        }

    def check_pass(self, checker, ops, result, counts) -> None:
        checks.check_supervised_resume(
            checker, result.outputs, self.reference,
            self.journals / "reference.journal", self.total_units)

    def execute(self, ops, seconds, tracer=None) -> PassResult:
        result = super().execute(ops, seconds, tracer)
        for output in result.outputs:
            if isinstance(output, dict):
                data = pathlib.Path(output["journal"]).read_bytes()
                result.journal_bytes += len(data)
                result.journal_records += data.count(b"\n")
        return result


class ServeClosed(Workload):
    """Requests through the live ``ServeDaemon.submit`` API, closed loop."""

    name = "serve_closed"

    CLIENTS = 2
    #: Rated quotas: the bucket never empties, so nothing is shed.
    CONFIG = dict(quota_capacity=1e9, quota_refill_rate=1e9)

    def setup(self) -> None:
        database = tpch.build_tpch_database(scale_factor=SCALE,
                                            tables=FIG5_TABLES)
        self.problem = fig5_problem(database, (ResourceKind.CPU,))
        self.journals = pathlib.Path(tempfile.mkdtemp(
            prefix="journals-", dir=self.scratch))
        self._boots = 0
        self.renew()

    def renew(self) -> None:
        """A fresh service: boot fit, journal, daemon (as ``repro serve``)."""
        self.journal_path = self.journals / f"serve-{self._boots}.journal"
        self._boots += 1
        runner = CalibrationRunner(self.problem.machine)
        journal = RunJournal.create(self.journal_path, {"run_kind": "bench"})
        cache = CalibrationCache(runner, journal=journal)
        boot = design_continuous(self.problem, cache, algorithm="greedy",
                                 grid=4, fine_factor=8, max_calibrations=24)
        self.service = DesignService(
            self.problem, boot.surface, boot.design,
            config=ServeConfig(**self.CONFIG), clock=SimulatedClock(),
            runner=runner, journal=journal)
        self.service.configure_search("greedy", 4, 8)
        self.daemon = ServeDaemon(self.service)

    def prepare(self, ops) -> list:
        """The request trace the one scenario op expands to."""
        (op,) = ops
        scenario = ServeScenario(seed=op["seed"], requests=op["requests"],
                                 design_every=op["design_every"])
        return generate_trace(scenario, self.problem.workload_names())

    def check_pass(self, checker, ops, result, counts) -> float:
        failures = [f"request {index}: {why}"
                    for index, (request, response) in enumerate(result.outputs)
                    for why in [serve_failure(request, response)] if why]
        checks.check_serve_closed(checker, result.outputs, result.attempted,
                                  counts["serve.requests"], failures)

    def execute(self, ops, seconds, tracer=None) -> PassResult:
        """*ops* is the request trace (see :meth:`prepare`)."""
        result = PassResult(classes={"whatif": [], "design": []})
        size_before = self.journal_path.stat().st_size
        lines_before = self.journal_path.read_bytes().count(b"\n")
        if tracer is None:
            result.wall = asyncio.run(self._serve(ops, seconds, None, result))
        else:
            tracer.op_id = None
            with tracer.span(ROOT_SPAN):
                result.wall = asyncio.run(
                    self._serve(ops, seconds, tracer, result))
        data = self.journal_path.read_bytes()
        result.journal_bytes = len(data) - size_before
        result.journal_records = data.count(b"\n") - lines_before
        return result

    async def _serve(self, trace, seconds, tracer, result) -> float:
        daemon, clock = self.daemon, self.service.clock
        slots: List[Optional[float]] = [None] * len(trace)
        outputs: List[Any] = [None] * len(trace)
        began = time.perf_counter()

        async def client(first: int) -> None:
            for index in range(first, len(trace), self.CLIENTS):
                start = time.perf_counter()
                if start - began >= seconds:
                    result.truncated = True
                    return
                # Closed loop: the request arrives when its client is
                # free to send it, on the service's own clock.
                request = dataclasses.replace(trace[index], arrival=clock.now)
                if tracer is not None:
                    tracer.op_id = index
                    tracer.ops_by_object[id(request)] = index
                    start_ns = time.perf_counter_ns()
                try:
                    response = await daemon.submit(request)
                except Exception as error:  # a raising request is a failed op
                    traceback.print_exc(file=sys.stderr)
                    response = error
                if tracer is not None:
                    tracer.record(SUBMIT_SPAN, index, start_ns,
                                  time.perf_counter_ns())
                slots[index] = time.perf_counter() - start
                outputs[index] = (request, response)

        batcher = asyncio.create_task(daemon.serve_batches())
        clients = [asyncio.create_task(client(first))
                   for first in range(self.CLIENTS)]
        try:
            await asyncio.gather(*clients)
        finally:
            wall = time.perf_counter() - began
            daemon.close()
            await batcher
        for latency, output in zip(slots, outputs):
            if latency is None:
                continue
            request, response = output
            result.latencies.append(latency)
            result.classes[request.kind].append(latency)
            result.outputs.append(output)
            if serve_failure(request, response) is not None:
                result.failed += 1
        return wall


def serve_failure(request, response) -> Optional[str]:
    """Why a served request counts as failed, or ``None`` if it does not.

    Raised, untyped, shed, refused on its deadline, or answered after
    it: all miss. A typed refusal the trace asked for is an answer.
    """
    if isinstance(response, Exception):
        return "raised"
    if response.completed_at > request.deadline_at + 1e-12:
        return "late"
    if response.status != REJECTED:
        return None
    if response.error is None or response.reason is None:
        return "untyped"
    if response.reason in SEMANTIC_REFUSALS:
        return None
    return response.reason


WORKLOADS: Dict[str, Callable[[pathlib.Path], Workload]] = {
    cls.name: cls for cls in (DesignCold, WhatIfSweep, MeasureExec,
                              SupervisedResume, ServeClosed)
}
