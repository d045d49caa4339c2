"""One workload's session: passes, counts, checks, the values reported.

Imported by ``bench_e2e.child`` *after* it starts the set-up clock, so
importing the program counts as set-up.

``--trace 0`` runs the op list once with the program untouched and
reports the end-to-end values. ``--trace 1`` runs the first third of
the list twice within the same time budget — untraced, then with the
span wrappers installed — and reports per-layer values, counts read as
deltas of the program's own ``repro.obs`` registry over the traced
pass, and diagnostics from the untraced pass.
"""

from __future__ import annotations

import os
import pathlib
import platform
import resource
import time
from collections import defaultdict
from typing import Any, Dict, List, Optional, Tuple

from bench_e2e import checks, oplists, stats, workloads
from bench_e2e.tracing import ROOT_SPAN, SPAN_NAMES, Tracer, aggregate, tracing
from repro import obs

#: bench name -> ``repro.obs`` counter it is the delta of.
COUNTERS = {
    "core.evaluations": "cost_model.evaluations",
    "core.memo_hits": "cost_model.memo_hits",
    "optimizer.plans": "optimizer.plans",
    "optimizer.recosts": "optimizer.whatif.recosts",
    "optimizer.cache_hits": "optimizer.whatif.cache_hits",
    "calibration.fresh": "calibration.cache.fresh",
    "calibration.exact_hits": "calibration.cache.exact_hits",
    "calibration.trace_cache_hits": "calibration.trace_cache_hits",
    "calibration.measurements": "calibration.measurements",
    "engine.plans_executed": "engine.executor.plans",
    "engine.pool_hits": "engine.pages.buffer_hits",
    "engine.pages_seq": "engine.pages.seq_reads",
    "engine.pages_random": "engine.pages.random_reads",
    "serve.batches": "serve.batches",
    "serve.degraded": "serve.degraded",
}

def host_facts() -> Dict[str, Any]:
    return {"host_cpus": os.cpu_count(),
            "python": platform.python_version(),
            "load_1m": os.getloadavg()[0]}


def registry_state() -> Dict[Any, float]:
    """Counter totals by name, by (name, labels), and histogram sums."""
    state: Dict[Any, float] = defaultdict(float)
    for (name, labels), value in obs.get_registry().counter_state().items():
        state[name] += value
        state[(name, labels)] += value
    sizes = obs.histogram("serve.batch_size")
    state["serve.batch_size.count"] = sizes.count
    state["serve.batch_size.total"] = sizes.total
    return state


def ratio(part: float, rest: float) -> float:
    return part / (part + rest) if part + rest else 0.0


def counts(before: Dict[Any, float], after: Dict[Any, float],
           result) -> Dict[str, float]:
    """The per-layer counts of one pass, exact for a given op list."""
    def delta(key) -> float:
        return after.get(key, 0.0) - before.get(key, 0.0)

    values = {name: delta(source) for name, source in COUNTERS.items()}
    values["core.memo_hit_ratio"] = ratio(values["core.memo_hits"],
                                          values["core.evaluations"])
    values["optimizer.recost_ratio"] = ratio(
        values["optimizer.recosts"], delta("optimizer.whatif.estimates"))
    values["engine.pool_misses"] = (values["engine.pages_seq"]
                                    + values["engine.pages_random"])
    values["engine.pool_hit_ratio"] = ratio(values["engine.pool_hits"],
                                            values["engine.pool_misses"])
    values["serve.refused"] = sum(
        delta(("serve.rejected", (("reason", reason),)))
        for reason in workloads.SEMANTIC_REFUSALS)
    batches = delta("serve.batch_size.count")
    values["serve.batch_size_mean"] = (
        delta("serve.batch_size.total") / batches if batches else 0.0)
    values["serve.requests"] = delta("serve.requests")
    values["recovery.journal_records"] = result.journal_records
    values["recovery.journal_bytes"] = result.journal_bytes
    return values


def counted(workload, ops, seconds: float,
            tracer: Optional[Tracer] = None) -> Tuple[Any, Dict[str, float]]:
    before = registry_state()
    result = workload.execute(ops, seconds, tracer)
    return result, counts(before, registry_state(), result)


def latency_values(result) -> Dict[str, float]:
    summary = stats.summarize_ms(result.latencies)
    return {"ops_per_s": result.attempted / result.wall,
            "op_p50_ms": summary["p50"],
            "op_tail_ms": summary["tail"],
            "op_p90_ms": summary["p90"],
            "op_p99_ms": summary["p99"]}


def class_values(result, counts_: Dict[str, float]) -> Dict[str, float]:
    """Diagnostics only some workloads define; 0 elsewhere."""
    values = dict.fromkeys(("whatif_p50_ms", "whatif_p99_ms",
                            "redesign_p50_ms", "redesign_p90_ms"), 0.0)
    whatifs = result.classes.get("whatif")
    designs = result.classes.get("design")
    if whatifs:
        summary = stats.summarize_ms(whatifs)
        values["whatif_p50_ms"] = summary["p50"]
        values["whatif_p99_ms"] = summary["p99"]
    if designs:
        summary = stats.summarize_ms(designs)
        values["redesign_p50_ms"] = summary["p50"]
        values["redesign_p90_ms"] = summary["p90"]
    values["evals_per_s"] = counts_["core.evaluations"] / result.wall
    values["failed_share"] = result.failed / max(1, result.attempted)
    return values


def span_values(tracer: Tracer) -> Dict[str, float]:
    totals = aggregate(tracer.finish())
    values: Dict[str, float] = {}
    for name in SPAN_NAMES:
        calls, total_ns, self_ns = totals.get(name, (0, 0, 0))
        values[f"{name}.calls"] = calls
        values[f"{name}.total_ms"] = total_ns / 1e6
        values[f"{name}.self_ms"] = self_ns / 1e6
    root = totals.get(ROOT_SPAN)
    values["trace.dark_pct"] = (100.0 * root.self_ns / root.total_ns
                                if root and root.total_ns else 0.0)
    return values


def comparable(result) -> List[Any]:
    """Outputs with per-run incidentals (paths, object identity) removed."""
    plain = []
    for output in result.outputs:
        if isinstance(output, tuple):
            _request, response = output
            plain.append((response.status, response.tier, response.error,
                          response.reason, response.cost, response.allocation,
                          response.completed_at))
        elif isinstance(output, dict):
            plain.append({key: value for key, value in output.items()
                          if key != "journal"})
        else:
            plain.append(repr(output))
    return plain


def run(args, began: float) -> Dict[str, Any]:
    """The whole session; *began* is when the child started its clock."""
    host = host_facts()  # the load before this run added its own
    scratch = pathlib.Path(args.scratch)
    workload = workloads.WORKLOADS[args.workload](scratch)
    ops = oplists.generate(args.workload, args.seed, args.seconds, args.smoke)
    workload.setup()
    ops = workload.prepare(ops)
    # Set-up is everything up to the first timed op, importing the
    # program included.
    values: Dict[str, float] = {"setup_s": time.perf_counter() - began}

    if args.trace == 0:
        passes = [counted(workload, ops, args.seconds)]
        values.update(latency_values(passes[0][0]))
    else:
        part = ops[:max(min(2, len(ops)), len(ops) // 3)]
        untraced, untraced_counts = counted(workload, part, args.seconds / 2)
        workload.renew()
        tracer = Tracer()
        with tracing(tracer):
            traced, traced_counts = counted(workload, part, args.seconds / 2,
                                            tracer)
        passes = [(untraced, untraced_counts), (traced, traced_counts)]
        values.update(span_values(tracer))
        values.update(traced_counts)
        values.update(class_values(untraced, untraced_counts))
        plain = latency_values(untraced)
        for key in ("op_p90_ms", "op_p99_ms"):
            values[key] = plain[key]
        values["trace_overhead_pct"] = 100.0 * (
            latency_values(traced)["op_p50_ms"] / plain["op_p50_ms"] - 1.0)
        if args.spans:
            tracer.write(args.spans)
    # Read before the checks run: their verification queries and
    # reference data are not the program's footprint.
    values["peak_rss_mib"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    values.update(workload.extras(bool(args.trace), args.smoke))

    checker = checks.Checker()
    workload.check(checker, ops, passes)
    values.update(checker.counts)
    if len(passes) == 2:
        checker.expect("traced pass returns what the untraced pass returned",
                       comparable(passes[0][0]) == comparable(passes[1][0]))

    results = [result for result, _counts in passes]
    attempted = sum(result.attempted for result in results)
    failed = sum(result.failed for result in results)
    checker.expect("no op failed", failed == 0, f"{failed} of {attempted}")
    return {
        "workload": args.workload, "trace": args.trace, "seed": args.seed,
        "seconds": args.seconds, "smoke": args.smoke,
        "correct": checker.correct, "attempted": attempted, "failed": failed,
        "truncated": any(result.truncated for result in results),
        "samples": {"ops": results[-1].attempted,
                    **{name: len(latencies) for name, latencies
                       in results[-1].classes.items()}},
        "values": values,
        "checks": [check._asdict() for check in checker.results],
        "host": host,
    }
