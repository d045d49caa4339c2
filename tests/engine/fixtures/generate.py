"""Generate the reference digests tier-1 compares the current code against.

``reference_digests.json`` (next to this file) pins three things bit for
bit, every float as ``float.hex()``:

* ``executor`` — all 11 :class:`~repro.engine.trace.WorkTrace` fields, a
  row digest, and the operators that started charging on a non-integral
  accumulator, for every TPC-H query plus a few sorted-derived-table
  shapes, at two buffer-pool sizes under two planner parameter sets
  (the ``merge`` set makes the planner sort mid-plan, so scans, joins,
  aggregates and filters run *after* a fractional sort charge);
* ``whatif`` — ``WhatIfOptimizer`` estimates of the same statements
  under four parameter sets (the first is planned, the rest replay the
  compiled cost program);
* ``calibration`` — the ``OptimizerParameters`` the synthetic suite
  calibrates at allocations that share a memory share (and therefore a
  pool size), by both protocols.

The committed file was generated at commit
``c0abb0591baefc7aa4a2edeb3bd1e501771df5e6`` — the parent of the change
that deleted the executor's per-row scalar branches, the what-if
optimizer's full-planning switch and the calibration runner's
trace-reuse keyword — *through those three reference paths*:
:func:`reference_mode` enters every ``*_fallback`` context manager the
checked-out executor and what-if modules still export and turns off
every ``reuse_*`` keyword the runner still takes. On that commit it finds
all three; afterwards it finds none and refuses to write, because the
output would no longer be a reference — ``compute()`` then runs the one
remaining path, which is what ``tests/engine/test_reference_digests.py``
compares against the file.

To regenerate (only when charging, costing or calibration change on
purpose — then the new reference is whatever commit still holds the old
behaviour), copy this file onto a checkout of the commit above and run,
from the checkout's root::

    PYTHONPATH=src:. python tests/engine/fixtures/generate.py --overwrite

Without ``--overwrite`` an existing digest file is never replaced.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import inspect
import json
import pathlib
import subprocess
import sys

from repro.calibration import CalibrationRunner
from repro.engine import executor as executor_module
from repro.engine.executor import Executor
from repro.optimizer import whatif as whatif_module
from repro.optimizer.params import OptimizerParameters
from repro.optimizer.planner import Planner
from repro.optimizer.whatif import WhatIfOptimizer
from repro.virt.machine import laboratory_machine
from repro.virt.resources import ResourceVector
from repro.workloads import QUERIES, build_tpch_database

HERE = pathlib.Path(__file__).parent
DIGEST_PATH = HERE / "reference_digests.json"

SCALE_FACTOR = 0.002
#: Total memory pages: one pool smaller than ``lineitem`` (evictions and
#: ring scans), one that holds the whole database (buffer-hit charges
#: interleave with the per-tuple ones).
MEMORY_PAGES = (128, 8192)

DEFAULTS = OptimizerParameters.defaults()
#: Cheap comparisons and dear tuples: sort + merge join often beats
#: building a hash table, so plans carry ``Sort`` nodes mid-tree.
MERGE = DEFAULTS.with_values(cpu_operator_cost=1e-4, cpu_tuple_cost=0.05)
PLANNER_PARAMS = {"default": DEFAULTS, "merge": MERGE}
WHATIF_PARAMS = {
    **PLANNER_PARAMS,
    "index": DEFAULTS.with_values(random_page_cost=0.5, cpu_tuple_cost=0.05,
                                  cpu_operator_cost=0.01,
                                  effective_cache_size=64),
    "slow-disk": DEFAULTS.with_values(random_page_cost=40.0,
                                      cpu_like_byte_cost=0.003,
                                      sort_mem_pages=4,
                                      seconds_per_seq_page=9.1e-4),
}

#: Shapes the TPC-H set lacks: a ``Sort`` (a derived table's or a scalar
#: subquery's ``order by … limit``) that charges before the rest runs.
EXTRA_SQL = {
    "sorted-join-side": (
        "select count(*) as n, sum(l.l_quantity) as q from "
        "(select o_orderkey, o_totalprice from orders "
        "order by o_totalprice desc limit 37) o, lineitem l "
        "where l.l_orderkey = o.o_orderkey and l.l_quantity > 10"),
    "filter-over-sorted": (
        "select o.o_orderstatus, count(*) as n from "
        "(select o_orderstatus, o_totalprice from orders "
        "order by o_totalprice limit 101) o "
        "where o.o_totalprice > 1000 group by o.o_orderstatus"),
    "sorted-nested-loop": (
        "select count(*) as n from "
        "(select n_nationkey, n_name from nation order by n_name limit 7) a, "
        "region r where a.n_nationkey > r.r_regionkey"),
    "scalar-sort-then-index": (
        "select count(*) as n, max(l_extendedprice) as m from lineitem "
        "where l_orderkey < 60 and l_quantity * 100 > "
        "(select o_totalprice from orders order by o_totalprice limit 1)"),
}
STATEMENTS = {**QUERIES, **EXTRA_SQL}

#: The operators whose charging loop the refactor rewrote.
BRANCHING_OPERATORS = ("SeqScan", "IndexScan", "HashJoin", "NestedLoopJoin",
                       "MergeJoin", "Aggregate", "Filter")

TRACE_FIELDS = ("seq_page_reads", "random_page_reads", "buffer_hits",
                "page_writes", "tuples_processed", "seq_page_requests",
                "random_page_requests", "predicate_ops", "like_bytes",
                "index_tuples")

#: Calibrated per protocol on one long-lived runner; the memory share
#: sets the pool size, so the 0.5 rows replay each other's executions.
CALIBRATION_ALLOCATIONS = {
    "sequential": ((0.25, 0.5, 0.25), (0.5, 0.5, 0.5), (0.75, 0.5, 0.75),
                   (0.5, 0.25, 0.5)),
    "lstsq": ((0.25, 0.5, 0.25), (0.75, 0.5, 0.5)),
}


class _ProbingExecutor(Executor):
    """Records which operators began charging on a fractional accumulator.

    An operator's own charges start when its last child returns (at
    entry for a leaf). Observation only: nothing here touches the trace.
    """

    def __init__(self, context):
        super().__init__(context)
        self.fractional_starts = set()
        self._fractional_after = {}

    def _execute(self, plan):
        trace = self._ctx.trace
        children = plan.children()
        started = not trace.cpu_units.is_integer()
        rows = super()._execute(plan)
        if children:
            started = self._fractional_after[id(children[-1])]
        self._fractional_after[id(plan)] = not trace.cpu_units.is_integer()
        if started:
            self.fractional_starts.add(type(plan).__name__)
        return rows


def reference_mode(stack: contextlib.ExitStack) -> dict:
    """Enter the reference paths this checkout still has; describe them."""
    found = []
    for module in (executor_module, whatif_module):
        for name in sorted(vars(module)):
            if name.endswith("_fallback"):
                stack.enter_context(getattr(module, name)())
                found.append(f"{module.__name__}: {name.replace('_', ' ')}")
    runner_keywords = {
        name: False
        for name in inspect.signature(CalibrationRunner).parameters
        if name.startswith("reuse_")
    }
    found.extend(f"CalibrationRunner: {name.replace('_', ' ')} = False"
                 for name in runner_keywords)
    return {"entered": found, "runner_keywords": runner_keywords}


def _hex_params(params: OptimizerParameters) -> dict:
    return {key: float(value).hex()
            for key, value in params.as_dict().items()}


def executor_entries(db) -> dict:
    entries = {}
    for memory_pages in MEMORY_PAGES:
        db.resize_memory(memory_pages)
        for params_name, params in PLANNER_PARAMS.items():
            db.cold_restart()
            planner = Planner(db.catalog, params)
            for name, sql in STATEMENTS.items():
                context = db.execution_context()
                probe = _ProbingExecutor(context)
                rows = probe.run(planner.plan_sql(sql))
                trace = context.trace
                entry = {"cpu_units": trace.cpu_units.hex()}
                entry.update((f, getattr(trace, f)) for f in TRACE_FIELDS)
                entry["n_rows"] = len(rows)
                entry["rows_sha256"] = hashlib.sha256(
                    repr(rows).encode()).hexdigest()
                entry["fractional_starts"] = sorted(
                    probe.fractional_starts & set(BRANCHING_OPERATORS))
                entries[f"{name}|mem={memory_pages}|P={params_name}"] = entry
    return entries


def whatif_entries(db) -> dict:
    entries = {}
    optimizer = WhatIfOptimizer(db.catalog)
    for params_name, params in WHATIF_PARAMS.items():
        what_if = optimizer.with_params(params)
        for name, sql in STATEMENTS.items():
            estimate = what_if.estimate_query(sql)
            entries[f"{name}|P={params_name}"] = {
                "cost_units": estimate.cost_units.hex(),
                "estimated_seconds": estimate.estimated_seconds.hex(),
            }
    return entries


def calibration_entries(runner_keywords: dict) -> dict:
    entries = {}
    machine = laboratory_machine()
    for method, allocations in CALIBRATION_ALLOCATIONS.items():
        runner = CalibrationRunner(machine, method=method, **runner_keywords)
        for cpu, memory, io in allocations:
            params = runner.parameters_for(
                ResourceVector.of(cpu=cpu, memory=memory, io=io))
            entries[f"{method}|cpu={cpu}|memory={memory}|io={io}"] = \
                _hex_params(params)
    return entries


def compute(**runner_keywords) -> dict:
    """The three digest sections, through whatever path is active."""
    db = build_tpch_database(scale_factor=SCALE_FACTOR)
    return {
        "executor": executor_entries(db),
        "whatif": whatif_entries(db),
        "calibration": calibration_entries(runner_keywords),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--overwrite", action="store_true",
                        help=f"replace an existing {DIGEST_PATH.name}")
    args = parser.parse_args(argv)

    if DIGEST_PATH.exists() and not args.overwrite:
        print(f"{DIGEST_PATH} exists; pass --overwrite to replace it",
              file=sys.stderr)
        return 2
    with contextlib.ExitStack() as stack:
        reference = reference_mode(stack)
        if len(reference["entered"]) < 3:
            print("this checkout no longer has all three reference paths "
                  f"(found {reference['entered']}); generate on the commit "
                  "named in the module docstring", file=sys.stderr)
            return 2
        sections = compute(**reference["runner_keywords"])
    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=HERE, check=True,
        capture_output=True, text=True).stdout.strip()
    payload = {
        "header": {
            "commit": commit,
            "reference_paths": reference["entered"],
            "note": "generated by tests/engine/fixtures/generate.py "
                    "through the reference paths listed above; floats "
                    "are float.hex()",
            "scale_factor": SCALE_FACTOR,
        },
        **sections,
    }
    DIGEST_PATH.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"wrote {sum(map(len, sections.values()))} entries to "
          f"{DIGEST_PATH} at {commit}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
