#!/usr/bin/env python
"""Validate every ``BENCH_*.json`` result file and gate on regressions.

Two jobs, both CI-facing:

1. **Schema**: each file must carry the payload its benchmark script
   writes. ``suite: "parallel-speedup"`` files
   (``scripts/bench_speedup.py``) are checked entry by entry — name /
   grid / workers / wall_seconds / evaluations / speedup, exactly one
   serial baseline per benchmark, identical evaluation counts across
   worker counts (the determinism contract, as recorded data).
   ``suite: "surrogate"`` files (``scripts/bench_surrogate.py``) must
   carry one ``dense-grid`` and one ``surrogate`` entry plus a
   ``summary`` whose ratios match the entries. ``suite: "fleet"``
   files (``scripts/bench_fleet.py``) must carry one ``round-robin``
   and one ``fleet`` entry, a monotonically non-increasing cost
   trajectory, and a ``summary`` consistent with the entries.
   ``suite: "drift"`` files (``scripts/bench_drift.py``) must carry
   one ``open-loop``, one ``closed-loop``, and one ``oracle`` entry,
   a monotone degradation trajectory, and a ``summary`` consistent
   with the entries. ``suite: "serve"`` files
   (``scripts/bench_serve.py``) must carry one ``rated`` and one
   ``overload`` entry whose counts conserve
   (answered + degraded + rejected = requests), record zero untyped
   errors and zero deadline violations, shed under the overload burst,
   and report a bit-identical kill/resume probe. ``suite: "hotpath"``
   files (``scripts/bench_hotpath.py``) must carry one ``fast``
   calibration row, a full-planning design baseline plus recost rows
   at 1/2/4 workers with equal evaluation counts, a ``baseline`` block
   matching the committed ``BENCH_surrogate.json`` dense-grid run, and
   a ``summary`` re-derivable from the entries; the identity flag
   (recost-vs-full-planning design) is a hard requirement.
   ``suite: "codesign"`` files
   (``scripts/bench_codesign.py``) must carry one ``allocation-only``
   and one ``codesign`` entry, a monotonically non-increasing
   half-step trajectory, per-VM page spending within the storage
   budget, and a ``summary`` consistent with the entries.
   Any ``BENCH_*.json`` under
   ``benchmarks/results/`` with an unregistered suite fails the run
   outright — even when explicit paths were given — and every
   registered suite must name the CI workflow job that regenerates
   its committed result file; the job must exist in the named
   workflow (an orphan benchmark nobody re-runs is a silent gap in
   coverage).
2. **Regression gates**: the parallel suite's exhaustive benchmark must
   reach ``--min-speedup`` at 4 workers; the surrogate suite must avoid
   ``--min-calibration-ratio`` times the dense calibrations *and* match
   or beat the dense answer's cost (``cost_margin >= 0``); the fleet
   suite must beat round-robin placement (``improvement > 0``, always)
   and recover at least ``--min-reassignment-gain`` of its initial
   cost through the reroute loop; the drift suite's closed loop must
   beat the open loop (``closed_loop_gain > 0``, always, with at least
   one alarm and one refit) and land within ``--max-reconvergence-gap``
   of the full-knowledge oracle; the serve suite's rated session must
   stay under ``--max-serve-p99`` latency, ``--max-shed-rate``, and
   ``--max-degraded-fraction`` (its liveness, typed-outcome, and
   resume-identical requirements are hard checks, not gates); the
   hotpath suite's single-threaded calibration rate must beat the
   committed surrogate dense-grid baseline by
   ``--min-calibration-speedup``, and on hosts recording at least
   4 CPUs its 4-worker grid search must beat the full-planning serial
   baseline by ``--min-grid-speedup`` (the identity flag is a hard
   check); the codesign suite
   must beat the best allocation-only design (``improvement > 0``,
   always) by at least ``--min-codesign-improvement``, with its
   monotone trajectory and bit-identical kill/resume probe as hard
   checks.

Every violation across every file is collected and reported — the run
never stops at the first problem. Exit code 0 when everything holds,
1 with the full diagnostic list otherwise.

Run with ``python scripts/check_bench.py [PATH ...]``; with no paths it
validates every ``benchmarks/results/BENCH_*.json`` in the repository.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import re
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS_DIR = REPO_ROOT / "benchmarks" / "results"
WORKFLOWS_DIR = REPO_ROOT / ".github" / "workflows"

#: The parallel-suite benchmark the speedup gate applies to (its batched
#: strategy is where PR 4 claims its win); other entries are
#: schema-checked only, since e.g. greedy's tiny frontiers need a
#: multi-core host to beat per-call dispatch.
GATED_BENCHMARK = "exhaustive-fig5-grid"
GATED_WORKERS = 4

PARALLEL_ENTRY_FIELDS = {
    "name": str,
    "grid": int,
    "workers": (int, type(None)),
    "wall_seconds": (int, float),
    "evaluations": int,
    "speedup": (int, float),
}

#: Fields every surrogate-suite entry carries; the ``surrogate`` entry
#: adds fit/polish bookkeeping on top (checked separately).
SURROGATE_ENTRY_FIELDS = {
    "name": str,
    "calibrations": int,
    "cost": (int, float),
    "evaluations": int,
    "allocation": dict,
    "wall_seconds": (int, float),
}
SURROGATE_EXTRA_FIELDS = {
    "predicted_cost": (int, float),
    "knots": int,
    "fit_refinements": int,
    "polish_rounds": int,
    "converged": bool,
}


def _typename(kinds) -> str:
    if isinstance(kinds, tuple):
        return "/".join(k.__name__ for k in kinds)
    return kinds.__name__


def check_fields(prefix: str, entry: dict, fields: dict) -> list:
    """Type-check *fields* of *entry*; one problem string per violation."""
    problems = []
    for field, kinds in fields.items():
        want_bool = kinds is bool or (isinstance(kinds, tuple)
                                      and bool in kinds)
        if field not in entry:
            problems.append(f"{prefix} missing field {field!r}")
        elif not isinstance(entry[field], kinds) or (
                isinstance(entry[field], bool) and not want_bool):
            problems.append(
                f"{prefix}.{field} has type "
                f"{type(entry[field]).__name__}, "
                f"expected {_typename(kinds)}")
    return problems


# -- suite: parallel-speedup -------------------------------------------------

def check_parallel_entry(i: int, entry) -> list:
    if not isinstance(entry, dict):
        return [f"entries[{i}] is not an object"]
    prefix = f"entries[{i}]"
    problems = check_fields(prefix, entry, PARALLEL_ENTRY_FIELDS)
    extra = set(entry) - set(PARALLEL_ENTRY_FIELDS)
    if extra:
        problems.append(f"{prefix} has unknown fields {sorted(extra)}")
    if problems:
        return problems
    if entry["wall_seconds"] <= 0:
        problems.append(f"{prefix}.wall_seconds must be positive")
    if entry["evaluations"] <= 0:
        problems.append(f"{prefix}.evaluations must be positive")
    if entry["speedup"] <= 0:
        problems.append(f"{prefix}.speedup must be positive")
    if entry["workers"] is not None and entry["workers"] < 1:
        problems.append(f"{prefix}.workers must be >= 1 or null")
    if entry["workers"] is None and entry["speedup"] != 1.0:
        problems.append(
            f"{prefix} is a serial baseline but speedup is "
            f"{entry['speedup']}, not 1.0")
    return problems


def check_parallel(payload: dict, min_speedup: float) -> list:
    entries = payload["entries"]
    problems = []
    for i, entry in enumerate(entries):
        problems.extend(check_parallel_entry(i, entry))
    if problems:
        return problems

    by_name = {}
    for entry in entries:
        by_name.setdefault(entry["name"], []).append(entry)
    for name, rows in sorted(by_name.items()):
        baselines = [r for r in rows if r["workers"] is None]
        if len(baselines) != 1:
            problems.append(
                f"benchmark {name!r} needs exactly one serial baseline "
                f"row, found {len(baselines)}")
            continue
        expected = baselines[0]["evaluations"]
        for row in rows:
            if row["evaluations"] != expected:
                problems.append(
                    f"benchmark {name!r} at workers={row['workers']} spent "
                    f"{row['evaluations']} evaluations, the serial baseline "
                    f"spent {expected} — parallel determinism regressed")

    gated = [r for r in by_name.get(GATED_BENCHMARK, [])
             if r["workers"] == GATED_WORKERS]
    if not gated:
        problems.append(f"no workers={GATED_WORKERS} row for the gated "
                        f"benchmark {GATED_BENCHMARK!r}")
    elif gated[0]["speedup"] < min_speedup:
        problems.append(
            f"{GATED_BENCHMARK} at {GATED_WORKERS} workers reached only "
            f"{gated[0]['speedup']}x, below the {min_speedup}x gate — the "
            f"parallel engine regressed")
    return problems


def summarize_parallel(payload: dict) -> str:
    entries = payload["entries"]
    names = {entry["name"] for entry in entries}
    gated = [r for r in entries if r["name"] == GATED_BENCHMARK
             and r["workers"] == GATED_WORKERS]
    return (f"{len(entries)} entries across {len(names)} benchmark(s); "
            f"{GATED_BENCHMARK} at {GATED_WORKERS} workers = "
            f"{gated[0]['speedup']}x")


# -- suite: surrogate --------------------------------------------------------

def check_surrogate(payload: dict, min_ratio: float) -> list:
    problems = []
    for field in ("scenario", "algorithm", "grid", "fine_factor",
                  "tolerance", "budget", "summary"):
        if field not in payload:
            problems.append(f"top level missing field {field!r}")
    entries = payload["entries"]
    by_name = {}
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            problems.append(f"entries[{i}] is not an object")
            continue
        prefix = f"entries[{i}]"
        fields = dict(SURROGATE_ENTRY_FIELDS)
        if entry.get("name") == "surrogate":
            fields.update(SURROGATE_EXTRA_FIELDS)
        problems.extend(check_fields(prefix, entry, fields))
        extra = set(entry) - set(fields)
        if extra:
            problems.append(f"{prefix} has unknown fields {sorted(extra)}")
        if isinstance(entry.get("name"), str):
            by_name.setdefault(entry["name"], []).append((i, entry))
        for field in ("calibrations", "cost", "evaluations",
                      "wall_seconds"):
            value = entry.get(field)
            if isinstance(value, (int, float)) and not isinstance(
                    value, bool) and value <= 0:
                problems.append(f"{prefix}.{field} must be positive")
    for name in ("dense-grid", "surrogate"):
        if len(by_name.get(name, [])) != 1:
            problems.append(
                f"suite needs exactly one {name!r} entry, found "
                f"{len(by_name.get(name, []))}")
    if problems:
        return problems

    dense = by_name["dense-grid"][0][1]
    surrogate = by_name["surrogate"][0][1]
    summary = payload["summary"]
    if not isinstance(summary, dict):
        return ["summary is not an object"]
    problems.extend(check_fields("summary", summary, {
        "calibration_ratio": (int, float),
        "calibrations_avoided": int,
        "cost_margin": (int, float),
    }))
    if problems:
        return problems

    ratio = dense["calibrations"] / surrogate["calibrations"]
    if abs(summary["calibration_ratio"] - ratio) > 1e-3:
        problems.append(
            f"summary.calibration_ratio is {summary['calibration_ratio']} "
            f"but the entries give {ratio:.4f}")
    margin = dense["cost"] - surrogate["cost"]
    if abs(summary["cost_margin"] - margin) > 1e-6:
        problems.append(
            f"summary.cost_margin is {summary['cost_margin']} but the "
            f"entries give {margin:.9f}")
    if ratio < min_ratio:
        problems.append(
            f"surrogate spent {surrogate['calibrations']} calibration "
            f"requests vs {dense['calibrations']} dense — only "
            f"{ratio:.2f}x avoided, below the {min_ratio}x gate")
    if margin < -1e-9:
        problems.append(
            f"surrogate answer costs {surrogate['cost']:.6f}, worse than "
            f"the dense-grid best {dense['cost']:.6f} — search quality "
            f"regressed")
    return problems


def summarize_surrogate(payload: dict) -> str:
    summary = payload["summary"]
    return (f"calibration ratio {summary['calibration_ratio']}x, "
            f"cost margin {summary['cost_margin']:+.6f}")


# -- suite: fleet ------------------------------------------------------------

FLEET_BASE_FIELDS = {
    "name": str,
    "cost": (int, float),
    "hosts": int,
    "workloads": int,
    "wall_seconds": (int, float),
}
FLEET_EXTRA_FIELDS = {
    "initial_cost": (int, float),
    "rounds": int,
    "moves": int,
    "clusters": int,
    "converged": bool,
    "trajectory": list,
}


def check_fleet(payload: dict, min_gain: float) -> list:
    problems = []
    for field in ("scenario", "algorithm", "max_rounds", "summary"):
        if field not in payload:
            problems.append(f"top level missing field {field!r}")
    by_name = {}
    for i, entry in enumerate(payload["entries"]):
        if not isinstance(entry, dict):
            problems.append(f"entries[{i}] is not an object")
            continue
        prefix = f"entries[{i}]"
        fields = dict(FLEET_BASE_FIELDS)
        if entry.get("name") == "fleet":
            fields.update(FLEET_EXTRA_FIELDS)
        problems.extend(check_fields(prefix, entry, fields))
        extra = set(entry) - set(fields)
        if extra:
            problems.append(f"{prefix} has unknown fields {sorted(extra)}")
        if isinstance(entry.get("name"), str):
            by_name.setdefault(entry["name"], []).append(entry)
        for field in ("cost", "wall_seconds", "hosts", "workloads"):
            value = entry.get(field)
            if isinstance(value, (int, float)) and not isinstance(
                    value, bool) and value <= 0:
                problems.append(f"{prefix}.{field} must be positive")
    for name in ("round-robin", "fleet"):
        if len(by_name.get(name, [])) != 1:
            problems.append(
                f"suite needs exactly one {name!r} entry, found "
                f"{len(by_name.get(name, []))}")
    if problems:
        return problems

    rr = by_name["round-robin"][0]
    fleet = by_name["fleet"][0]
    summary = payload["summary"]
    if not isinstance(summary, dict):
        return ["summary is not an object"]
    problems.extend(check_fields("summary", summary, {
        "improvement": (int, float),
        "reassignment_gain": (int, float),
        "monotone": bool,
    }))
    if problems:
        return problems

    trajectory = fleet["trajectory"]
    if len(trajectory) < 2:
        problems.append("fleet trajectory needs at least 2 points "
                        "(initial placement + one round)")
        return problems
    if any(not isinstance(v, (int, float)) or isinstance(v, bool)
           for v in trajectory):
        problems.append("fleet trajectory must be numeric")
        return problems
    for a, b in zip(trajectory, trajectory[1:]):
        if b > a + 1e-9:
            problems.append(
                f"fleet trajectory increased ({a:.6f} -> {b:.6f}) — the "
                f"reroute loop accepted a worsening move")
            break
    if abs(trajectory[0] - fleet["initial_cost"]) > 1e-6:
        problems.append(
            f"fleet.initial_cost is {fleet['initial_cost']} but the "
            f"trajectory starts at {trajectory[0]}")
    if abs(trajectory[-1] - fleet["cost"]) > 1e-6:
        problems.append(
            f"fleet.cost is {fleet['cost']} but the trajectory ends at "
            f"{trajectory[-1]}")
    improvement = 1.0 - fleet["cost"] / rr["cost"]
    if abs(summary["improvement"] - improvement) > 1e-4:
        problems.append(
            f"summary.improvement is {summary['improvement']} but the "
            f"entries give {improvement:.6f}")
    gain = 1.0 - fleet["cost"] / fleet["initial_cost"]
    if abs(summary["reassignment_gain"] - gain) > 1e-4:
        problems.append(
            f"summary.reassignment_gain is "
            f"{summary['reassignment_gain']} but the entries give "
            f"{gain:.6f}")
    if not summary["monotone"]:
        problems.append("summary.monotone is false — the recorded run "
                        "violated the convergence contract")
    # Beating round-robin is a hard check, not a tunable gate: a fleet
    # placer that loses to cyclic dealing has no reason to exist.
    if improvement <= 0:
        problems.append(
            f"fleet placement costs {fleet['cost']:.4f}, not better than "
            f"round-robin's {rr['cost']:.4f} — placement quality "
            f"regressed")
    if gain < min_gain:
        problems.append(
            f"reassignment recovered only {gain:.1%} of the initial "
            f"cost, below the {min_gain:.1%} gate — the reroute loop "
            f"regressed")
    return problems


def summarize_fleet(payload: dict) -> str:
    summary = payload["summary"]
    fleet = [e for e in payload["entries"] if e["name"] == "fleet"][0]
    return (f"{summary['improvement']:.1%} vs round-robin, "
            f"{summary['reassignment_gain']:.1%} from reassignment in "
            f"{fleet['rounds']} round(s)")


# -- suite: drift ------------------------------------------------------------

DRIFT_BASE_FIELDS = {
    "name": str,
    "cost": (int, float),
    "allocation": dict,
    "wall_seconds": (int, float),
}
DRIFT_CLOSED_FIELDS = {
    "drift_events": int,
    "recalibrations": int,
    "redesigns": int,
    "budget_spent": int,
    "budget_remaining": int,
    "trajectory": list,
}
DRIFT_ORACLE_FIELDS = {
    "winner": str,
    "candidate_costs": dict,
    "calibrations": int,
}


def check_drift(payload: dict, max_gap: float) -> list:
    problems = []
    for field in ("scenario", "plan", "epochs", "final_capacity",
                  "drift_threshold", "recal_budget", "surrogate_budget",
                  "algorithm", "grid", "fine_factor", "summary"):
        if field not in payload:
            problems.append(f"top level missing field {field!r}")
    by_name = {}
    for i, entry in enumerate(payload["entries"]):
        if not isinstance(entry, dict):
            problems.append(f"entries[{i}] is not an object")
            continue
        prefix = f"entries[{i}]"
        fields = dict(DRIFT_BASE_FIELDS)
        if entry.get("name") == "open-loop":
            fields["calibrations"] = int
        elif entry.get("name") == "closed-loop":
            fields.update(DRIFT_CLOSED_FIELDS)
        elif entry.get("name") == "oracle":
            fields.update(DRIFT_ORACLE_FIELDS)
        problems.extend(check_fields(prefix, entry, fields))
        extra = set(entry) - set(fields)
        if extra:
            problems.append(f"{prefix} has unknown fields {sorted(extra)}")
        if isinstance(entry.get("name"), str):
            by_name.setdefault(entry["name"], []).append(entry)
        for field in ("cost", "wall_seconds"):
            value = entry.get(field)
            if isinstance(value, (int, float)) and not isinstance(
                    value, bool) and value <= 0:
                problems.append(f"{prefix}.{field} must be positive")
    for name in ("open-loop", "closed-loop", "oracle"):
        if len(by_name.get(name, [])) != 1:
            problems.append(
                f"suite needs exactly one {name!r} entry, found "
                f"{len(by_name.get(name, []))}")
    if problems:
        return problems

    open_loop = by_name["open-loop"][0]
    closed = by_name["closed-loop"][0]
    oracle = by_name["oracle"][0]
    summary = payload["summary"]
    if not isinstance(summary, dict):
        return ["summary is not an object"]
    problems.extend(check_fields("summary", summary, {
        "closed_loop_gain": (int, float),
        "reconvergence_gap": (int, float),
        "drift_events": int,
        "recalibrations": int,
        "budget_spent": int,
    }))
    if problems:
        return problems

    trajectory = closed["trajectory"]
    if len(trajectory) != payload["epochs"]:
        problems.append(
            f"closed-loop trajectory has {len(trajectory)} point(s) for "
            f"{payload['epochs']} epoch(s)")
        return problems
    capacities = [point.get("capacity") for point in trajectory]
    if any(not isinstance(v, (int, float)) or isinstance(v, bool)
           for v in capacities):
        problems.append("closed-loop trajectory capacities must be numeric")
        return problems
    for a, b in zip(capacities, capacities[1:]):
        if b > a + 1e-9:
            problems.append(
                f"closed-loop capacity increased ({a:.4f} -> {b:.4f}) — "
                f"the degradation trajectory is not monotone")
            break
    if capacities[-1] >= 1.0:
        problems.append("the host never degraded (final capacity "
                        f"{capacities[-1]}) — the plan injected nothing")
    gain = 1.0 - closed["cost"] / open_loop["cost"]
    if abs(summary["closed_loop_gain"] - gain) > 1e-4:
        problems.append(
            f"summary.closed_loop_gain is {summary['closed_loop_gain']} "
            f"but the entries give {gain:.6f}")
    gap = closed["cost"] / oracle["cost"] - 1.0
    if abs(summary["reconvergence_gap"] - gap) > 1e-4:
        problems.append(
            f"summary.reconvergence_gap is {summary['reconvergence_gap']} "
            f"but the entries give {gap:.6f}")
    if summary["drift_events"] != closed["drift_events"]:
        problems.append(
            f"summary.drift_events is {summary['drift_events']} but the "
            f"closed-loop entry saw {closed['drift_events']}")
    if closed["drift_events"] < 1:
        problems.append("the monitor never alarmed under a degrading "
                        "host — detection regressed")
    if closed["recalibrations"] < 1:
        problems.append("no knot was recalibrated after detection — "
                        "repair regressed")
    spent = closed["budget_spent"] + closed["budget_remaining"]
    if spent != payload["recal_budget"]:
        problems.append(
            f"closed-loop spent+remaining is {spent}, not the declared "
            f"recal_budget {payload['recal_budget']}")
    # Beating the open loop is a hard check, not a tunable gate: a
    # closed loop that loses to never-recalibrating has no reason to
    # exist.
    if gain <= 0:
        problems.append(
            f"closed loop measured {closed['cost']:.6f}s, not better "
            f"than the open loop's {open_loop['cost']:.6f}s — the "
            f"repair loop regressed")
    if gap < -1e-9:
        problems.append(
            f"closed loop beat the full-knowledge oracle by {-gap:.2%} — "
            f"the oracle is no longer a bound; fix the benchmark")
    elif gap > max_gap:
        problems.append(
            f"closed loop is {gap:.1%} above the oracle, beyond the "
            f"{max_gap:.1%} gate — re-convergence regressed")
    return problems


def summarize_drift(payload: dict) -> str:
    summary = payload["summary"]
    return (f"closed-loop gain {summary['closed_loop_gain']:+.1%} vs "
            f"open loop, {summary['reconvergence_gap']:+.1%} to oracle, "
            f"{summary['drift_events']} alarm(s), "
            f"{summary['recalibrations']} refit(s)")


# -- suite: serve ------------------------------------------------------------

SERVE_ENTRY_FIELDS = {
    "name": str,
    "requests": int,
    "rate": (int, float),
    "answered": int,
    "degraded": int,
    "rejected": int,
    "shed": int,
    "shed_rate": (int, float),
    "degraded_fraction": (int, float),
    "p50_seconds": (int, float),
    "p99_seconds": (int, float),
    "deadline_violations": int,
    "untyped_errors": int,
    "design_commits": int,
    "breaker_trips": int,
    "wall_seconds": (int, float),
}


def check_serve(payload: dict, max_p99: float, max_shed: float,
                max_degraded: float) -> list:
    problems = []
    for field in ("scenario", "plan", "trace_seed", "requests",
                  "algorithm", "grid", "surrogate_budget", "summary"):
        if field not in payload:
            problems.append(f"top level missing field {field!r}")
    by_name = {}
    for i, entry in enumerate(payload["entries"]):
        if not isinstance(entry, dict):
            problems.append(f"entries[{i}] is not an object")
            continue
        prefix = f"entries[{i}]"
        problems.extend(check_fields(prefix, entry, SERVE_ENTRY_FIELDS))
        extra = set(entry) - set(SERVE_ENTRY_FIELDS)
        if extra:
            problems.append(f"{prefix} has unknown fields {sorted(extra)}")
        if isinstance(entry.get("name"), str):
            by_name.setdefault(entry["name"], []).append(entry)
    for name in ("rated", "overload"):
        if len(by_name.get(name, [])) != 1:
            problems.append(
                f"suite needs exactly one {name!r} entry, found "
                f"{len(by_name.get(name, []))}")
    if problems:
        return problems

    for name in ("rated", "overload"):
        entry = by_name[name][0]
        prefix = f"entry {name!r}"
        served = entry["answered"] + entry["degraded"]
        # The liveness contract, as recorded data: every request got a
        # typed outcome, nothing was silently dropped, nothing blew its
        # deadline, and something was actually served.
        if served + entry["rejected"] != entry["requests"]:
            problems.append(
                f"{prefix}: answered+degraded+rejected = "
                f"{served + entry['rejected']}, not the {entry['requests']} "
                f"requests offered — responses were dropped or "
                f"double-counted")
        if entry["untyped_errors"] != 0:
            problems.append(
                f"{prefix}: {entry['untyped_errors']} rejection(s) without "
                f"a typed error/reason — the typed-outcome contract "
                f"regressed")
        if entry["deadline_violations"] != 0:
            problems.append(
                f"{prefix}: {entry['deadline_violations']} response(s) "
                f"completed after their deadline — the deadline contract "
                f"regressed")
        if entry["answered"] < 1:
            problems.append(f"{prefix}: nothing was answered")
        if entry["shed"] > entry["rejected"]:
            problems.append(f"{prefix}: shed exceeds rejected")
        if entry["wall_seconds"] <= 0:
            problems.append(f"{prefix}.wall_seconds must be positive")
        if entry["p50_seconds"] > entry["p99_seconds"] + 1e-9:
            problems.append(f"{prefix}: p50 exceeds p99")
        for field, count in (("shed_rate", entry["shed"]),):
            expected = count / entry["requests"]
            if abs(entry[field] - expected) > 1e-4:
                problems.append(
                    f"{prefix}.{field} is {entry[field]} but the counts "
                    f"give {expected:.6f}")
        if served:
            expected = entry["degraded"] / served
            if abs(entry["degraded_fraction"] - expected) > 1e-4:
                problems.append(
                    f"{prefix}.degraded_fraction is "
                    f"{entry['degraded_fraction']} but the counts give "
                    f"{expected:.6f}")
    rated = by_name["rated"][0]
    overload = by_name["overload"][0]
    summary = payload["summary"]
    if not isinstance(summary, dict):
        return ["summary is not an object"]
    problems.extend(check_fields("summary", summary, {
        "p99_seconds": (int, float),
        "shed_rate": (int, float),
        "degraded_fraction": (int, float),
        "overload_shed_rate": (int, float),
        "resume_identical": bool,
        "resume_kill_after": int,
    }))
    if problems:
        return problems

    for key, value in (("p99_seconds", rated["p99_seconds"]),
                       ("shed_rate", rated["shed_rate"]),
                       ("degraded_fraction", rated["degraded_fraction"]),
                       ("overload_shed_rate", overload["shed_rate"])):
        if abs(summary[key] - value) > 1e-9:
            problems.append(
                f"summary.{key} is {summary[key]} but the entries give "
                f"{value}")
    # Hard checks: admission control must engage under the burst, and
    # the kill/resume probe must reproduce the uninterrupted session.
    if overload["shed_rate"] <= 0:
        problems.append(
            "the overload session shed nothing — admission control never "
            "engaged under a 10x burst")
    if not summary["resume_identical"]:
        problems.append(
            "the resumed session diverged from the uninterrupted one — "
            "crash recovery regressed")
    if summary["resume_kill_after"] < 1:
        problems.append("summary.resume_kill_after must be >= 1")
    # Tunable gates, all on the rated session.
    if rated["p99_seconds"] > max_p99:
        problems.append(
            f"rated p99 latency {rated['p99_seconds']:.3f}s is above the "
            f"{max_p99:.3f}s gate — serving latency regressed")
    if rated["shed_rate"] > max_shed:
        problems.append(
            f"rated shed rate {rated['shed_rate']:.1%} is above the "
            f"{max_shed:.1%} gate — the service sheds at its rated load")
    if rated["degraded_fraction"] > max_degraded:
        problems.append(
            f"rated degraded fraction {rated['degraded_fraction']:.1%} is "
            f"above the {max_degraded:.1%} gate — answer quality regressed")
    return problems


def summarize_serve(payload: dict) -> str:
    summary = payload["summary"]
    return (f"rated p99 {summary['p99_seconds'] * 1e3:.1f} ms, shed "
            f"{summary['shed_rate']:.1%} rated / "
            f"{summary['overload_shed_rate']:.1%} overloaded, resume "
            f"identical: {summary['resume_identical']}")


# -- suite: hotpath ----------------------------------------------------------

HOTPATH_CALIBRATION_FIELDS = {
    "name": str,
    "mode": str,
    "calibrations": int,
    "wall_seconds": (int, float),
    "seconds_per_calibration": (int, float),
}
HOTPATH_GRID_FIELDS = {
    "name": str,
    "mode": str,
    "grid": int,
    "workers": (int, type(None)),
    "wall_seconds": (int, float),
    "evaluations": int,
    "speedup": (int, float),
}
HOTPATH_BASELINE_FIELDS = {
    "source": str,
    "calibrations": int,
    "wall_seconds": (int, float),
    "seconds_per_calibration": (int, float),
}


def check_hotpath(payload: dict, min_calibration_speedup: float,
                  min_grid_speedup: float) -> list:
    problems = []
    for field in ("baseline", "identity", "summary"):
        if field not in payload or not isinstance(payload[field], dict):
            problems.append(f"top level missing object field {field!r}")
    if problems:
        return problems

    calibration = {}
    grid_rows = {}
    for i, entry in enumerate(payload["entries"]):
        if not isinstance(entry, dict):
            problems.append(f"entries[{i}] is not an object")
            continue
        prefix = f"entries[{i}]"
        name = entry.get("name")
        if name == "calibration":
            fields = HOTPATH_CALIBRATION_FIELDS
        elif name == "exhaustive-grid":
            fields = HOTPATH_GRID_FIELDS
        else:
            problems.append(f"{prefix} has unknown name {name!r}")
            continue
        row_problems = check_fields(prefix, entry, fields)
        extra = set(entry) - set(fields)
        if extra:
            row_problems.append(
                f"{prefix} has unknown fields {sorted(extra)}")
        problems.extend(row_problems)
        if row_problems:
            continue
        if entry["wall_seconds"] <= 0:
            problems.append(f"{prefix}.wall_seconds must be positive")
        if name == "calibration":
            if entry["calibrations"] <= 0:
                problems.append(f"{prefix}.calibrations must be positive")
            per = entry["wall_seconds"] / entry["calibrations"]
            if abs(entry["seconds_per_calibration"] - per) > 1e-3:
                problems.append(
                    f"{prefix}.seconds_per_calibration is "
                    f"{entry['seconds_per_calibration']} but "
                    f"wall/calibrations gives {per:.6f}")
            calibration.setdefault(entry["mode"], []).append(entry)
        else:
            if entry["evaluations"] <= 0:
                problems.append(f"{prefix}.evaluations must be positive")
            if entry["speedup"] <= 0:
                problems.append(f"{prefix}.speedup must be positive")
            grid_rows.setdefault((entry["mode"], entry["workers"]),
                                 []).append(entry)
    if sorted(calibration) != ["fast"] or len(calibration["fast"]) != 1:
        problems.append(
            "suite needs exactly one calibration row, mode 'fast'; found "
            f"modes {sorted((m, len(r)) for m, r in calibration.items())}")
    expected_rows = [("full-planning", None), ("recost", None),
                     ("recost", 1), ("recost", 2), ("recost", 4)]
    for key in expected_rows:
        if len(grid_rows.get(key, [])) != 1:
            problems.append(
                f"suite needs exactly one exhaustive-grid row for "
                f"(mode, workers) = {key!r}, found "
                f"{len(grid_rows.get(key, []))}")
    unexpected = set(grid_rows) - set(expected_rows)
    if unexpected:
        problems.append(
            f"unexpected exhaustive-grid rows {sorted(unexpected, key=str)}")
    if problems:
        return problems

    fast = calibration["fast"][0]
    base = grid_rows[("full-planning", None)][0]
    if base["speedup"] != 1.0:
        problems.append("the full-planning row is the baseline but its "
                        f"speedup is {base['speedup']}, not 1.0")
    for key in expected_rows[1:]:
        row = grid_rows[key][0]
        if row["evaluations"] != base["evaluations"]:
            problems.append(
                f"exhaustive-grid {key!r} spent {row['evaluations']} "
                f"evaluations, the full-planning baseline spent "
                f"{base['evaluations']} — search determinism regressed")
        if row["grid"] != base["grid"]:
            problems.append(f"exhaustive-grid {key!r} ran grid "
                            f"{row['grid']}, baseline ran {base['grid']}")
        ratio = base["wall_seconds"] / row["wall_seconds"]
        if abs(row["speedup"] - ratio) > 0.02 * ratio + 1e-3:
            problems.append(
                f"exhaustive-grid {key!r} records speedup "
                f"{row['speedup']} but the walls give {ratio:.3f}")

    baseline = payload["baseline"]
    problems.extend(check_fields("baseline", baseline,
                                 HOTPATH_BASELINE_FIELDS))
    identity = payload["identity"]
    problems.extend(check_fields("identity", identity, {
        "design_identical": bool,
    }))
    summary = payload["summary"]
    problems.extend(check_fields("summary", summary, {
        "calibration_speedup_vs_baseline": (int, float),
        "recost_speedup": (int, float),
        "grid_speedup_4_workers": (int, float),
    }))
    if problems:
        return problems

    # The baseline block must be the committed surrogate dense-grid run,
    # not a number the benchmark made up.
    source = RESULTS_DIR / "BENCH_surrogate.json"
    if baseline["source"] != source.name:
        problems.append(f"baseline.source is {baseline['source']!r}, "
                        f"expected {source.name!r}")
    elif not source.exists():
        problems.append(f"baseline source {source.name} is not committed "
                        f"under {RESULTS_DIR.name}/")
    else:
        dense = [e for e in json.loads(source.read_text())["entries"]
                 if e.get("name") == "dense-grid"]
        if len(dense) != 1:
            problems.append(f"{source.name} carries {len(dense)} "
                            f"dense-grid entries, expected 1")
        else:
            for field in ("calibrations", "wall_seconds"):
                if baseline[field] != dense[0][field]:
                    problems.append(
                        f"baseline.{field} is {baseline[field]} but the "
                        f"committed {source.name} records "
                        f"{dense[0][field]}")
    per = baseline["wall_seconds"] / baseline["calibrations"]
    if abs(baseline["seconds_per_calibration"] - per) > 1e-3:
        problems.append(
            f"baseline.seconds_per_calibration is "
            f"{baseline['seconds_per_calibration']} but "
            f"wall/calibrations gives {per:.6f}")
    if problems:
        return problems

    checks = (
        ("calibration_speedup_vs_baseline",
         baseline["seconds_per_calibration"]
         / fast["seconds_per_calibration"]),
        ("recost_speedup", grid_rows[("recost", None)][0]["speedup"]),
        ("grid_speedup_4_workers", grid_rows[("recost", 4)][0]["speedup"]),
    )
    for key, value in checks:
        if abs(summary[key] - value) > 0.02 * abs(value) + 1e-3:
            problems.append(
                f"summary.{key} is {summary[key]} but the entries give "
                f"{value:.3f}")

    # Hard check: replayed cost programs must land the search on the
    # design full planning finds.
    if not identity["design_identical"]:
        problems.append(
            "recost design search diverged from full planning — the "
            "plan-shape cache replayed a wrong cost")
    # Tunable gates.
    if summary["calibration_speedup_vs_baseline"] < min_calibration_speedup:
        problems.append(
            f"single-threaded calibration is only "
            f"{summary['calibration_speedup_vs_baseline']}x the committed "
            f"surrogate dense-grid rate, below the "
            f"{min_calibration_speedup}x gate — the hot-path work "
            f"regressed")
    if payload["host_cpus"] >= 4 and \
            summary["grid_speedup_4_workers"] < min_grid_speedup:
        problems.append(
            f"the 4-worker grid search is only "
            f"{summary['grid_speedup_4_workers']}x the full-planning "
            f"serial baseline, below the {min_grid_speedup}x gate on a "
            f"{payload['host_cpus']}-CPU host")
    return problems


def summarize_hotpath(payload: dict) -> str:
    summary = payload["summary"]
    return (f"calibration {summary['calibration_speedup_vs_baseline']}x vs "
            f"baseline, recost {summary['recost_speedup']}x, 4-worker grid "
            f"{summary['grid_speedup_4_workers']}x, identity ok")


# -- suite: codesign ---------------------------------------------------------

CODESIGN_BASE_FIELDS = {
    "name": str,
    "cost": (int, float),
    "allocation": dict,
    "wall_seconds": (int, float),
}
CODESIGN_EXTRA_FIELDS = {
    "initial_cost": (int, float),
    "indexes": dict,
    "pages_used": dict,
    "storage_budget": int,
    "rounds": int,
    "converged": bool,
    "trajectory": list,
    "candidates_evaluated": int,
}


def check_codesign(payload: dict, min_improvement: float) -> list:
    problems = []
    for field in ("scenario", "algorithm", "grid", "storage_budget",
                  "max_rounds", "summary"):
        if field not in payload:
            problems.append(f"top level missing field {field!r}")
    by_name = {}
    for i, entry in enumerate(payload["entries"]):
        if not isinstance(entry, dict):
            problems.append(f"entries[{i}] is not an object")
            continue
        prefix = f"entries[{i}]"
        fields = dict(CODESIGN_BASE_FIELDS)
        if entry.get("name") == "codesign":
            fields.update(CODESIGN_EXTRA_FIELDS)
        problems.extend(check_fields(prefix, entry, fields))
        extra = set(entry) - set(fields)
        if extra:
            problems.append(f"{prefix} has unknown fields {sorted(extra)}")
        if isinstance(entry.get("name"), str):
            by_name.setdefault(entry["name"], []).append(entry)
        for field in ("cost", "wall_seconds"):
            value = entry.get(field)
            if isinstance(value, (int, float)) and not isinstance(
                    value, bool) and value <= 0:
                problems.append(f"{prefix}.{field} must be positive")
    for name in ("allocation-only", "codesign"):
        if len(by_name.get(name, [])) != 1:
            problems.append(
                f"suite needs exactly one {name!r} entry, found "
                f"{len(by_name.get(name, []))}")
    if problems:
        return problems

    alloc_only = by_name["allocation-only"][0]
    codesign = by_name["codesign"][0]
    summary = payload["summary"]
    if not isinstance(summary, dict):
        return ["summary is not an object"]
    problems.extend(check_fields("summary", summary, {
        "improvement": (int, float),
        "monotone": bool,
        "indexes_selected": int,
        "resume_identical": bool,
        "resume_kill_after": int,
    }))
    if problems:
        return problems

    trajectory = codesign["trajectory"]
    if len(trajectory) < 3:
        problems.append("codesign trajectory needs at least 3 points "
                        "(initial + one round's two half-steps)")
        return problems
    if any(not isinstance(v, (int, float)) or isinstance(v, bool)
           for v in trajectory):
        problems.append("codesign trajectory must be numeric")
        return problems
    # The monotone contract, as recorded data: every half-step either
    # improved the total or left it unchanged.
    for a, b in zip(trajectory, trajectory[1:]):
        if b > a + 1e-9:
            problems.append(
                f"codesign trajectory increased ({a:.6f} -> {b:.6f}) — a "
                f"half-step accepted a worsening design")
            break
    if abs(trajectory[0] - codesign["initial_cost"]) > 1e-6:
        problems.append(
            f"codesign.initial_cost is {codesign['initial_cost']} but the "
            f"trajectory starts at {trajectory[0]}")
    if abs(trajectory[-1] - codesign["cost"]) > 1e-6:
        problems.append(
            f"codesign.cost is {codesign['cost']} but the trajectory ends "
            f"at {trajectory[-1]}")
    n_indexes = sum(len(v) for v in codesign["indexes"].values())
    if summary["indexes_selected"] != n_indexes:
        problems.append(
            f"summary.indexes_selected is {summary['indexes_selected']} "
            f"but the codesign entry carries {n_indexes} index(es)")
    for name, pages in sorted(codesign["pages_used"].items()):
        if not isinstance(pages, int) or isinstance(pages, bool):
            problems.append(f"codesign.pages_used[{name!r}] must be an int")
            continue
        if pages > codesign["storage_budget"]:
            problems.append(
                f"codesign spent {pages} page(s) on {name!r}, over the "
                f"{codesign['storage_budget']}-page budget — the selection "
                f"loop overspent")
        chosen = codesign["indexes"].get(name, [])
        chosen_pages = sum(int(c.get("pages", 0)) for c in chosen)
        if chosen_pages != pages:
            problems.append(
                f"codesign.pages_used[{name!r}] is {pages} but its chosen "
                f"indexes sum to {chosen_pages}")
    improvement = 1.0 - codesign["cost"] / alloc_only["cost"]
    if abs(summary["improvement"] - improvement) > 1e-4:
        problems.append(
            f"summary.improvement is {summary['improvement']} but the "
            f"entries give {improvement:.6f}")
    if not summary["monotone"]:
        problems.append("summary.monotone is false — the recorded run "
                        "violated the monotone-trajectory contract")
    # Hard checks: beating the best allocation-only design is why the
    # codesign layer exists, and the kill/resume probe must reproduce
    # the uninterrupted run bit for bit.
    if improvement <= 0:
        problems.append(
            f"codesign costs {codesign['cost']:.6f}, not better than the "
            f"best allocation-only design's {alloc_only['cost']:.6f} — "
            f"joint tuning regressed")
    if not summary["resume_identical"]:
        problems.append(
            "the resumed co-tuning run diverged from the uninterrupted "
            "one — crash recovery regressed")
    if summary["resume_kill_after"] < 1:
        problems.append("summary.resume_kill_after must be >= 1")
    # Tunable gate on how much the second axis must earn.
    if improvement < min_improvement:
        problems.append(
            f"co-design is only {improvement:.1%} cheaper than "
            f"allocation-only, below the {min_improvement:.1%} gate — the "
            f"index-selection pass regressed")
    return problems


def summarize_codesign(payload: dict) -> str:
    summary = payload["summary"]
    codesign = [e for e in payload["entries"] if e["name"] == "codesign"][0]
    return (f"{summary['improvement']:.1%} vs allocation-only, "
            f"{summary['indexes_selected']} index(es) in "
            f"{codesign['rounds']} round(s), resume identical: "
            f"{summary['resume_identical']}")


# -- driver ------------------------------------------------------------------

#: suite -> (checker, summarizer, gate keys, regen job). Checkers are
#: called as ``checker(payload, *gates)`` with gate values in the
#: declared order. The regen job is ``(workflow file, job name)`` — the
#: CI job that regenerates the suite's committed result file; the audit
#: fails when the named job does not exist, so no benchmark can go
#: orphan (committed results nobody re-runs drift silently).
SUITES = {
    "parallel-speedup": (check_parallel, summarize_parallel,
                         ("min_speedup",), ("nightly.yml", "bench-full")),
    "surrogate": (check_surrogate, summarize_surrogate,
                  ("min_calibration_ratio",),
                  ("nightly.yml", "bench-full")),
    "fleet": (check_fleet, summarize_fleet, ("min_reassignment_gain",),
              ("nightly.yml", "bench-full")),
    "drift": (check_drift, summarize_drift, ("max_reconvergence_gap",),
              ("nightly.yml", "bench-full")),
    "serve": (check_serve, summarize_serve,
              ("max_serve_p99", "max_shed_rate", "max_degraded_fraction"),
              ("nightly.yml", "bench-full")),
    "hotpath": (check_hotpath, summarize_hotpath,
                ("min_calibration_speedup", "min_grid_speedup"),
                ("nightly.yml", "bench-full")),
    "codesign": (check_codesign, summarize_codesign,
                 ("min_codesign_improvement",),
                 ("nightly.yml", "bench-full")),
}


def workflow_jobs(filename: str):
    """Job names defined in ``.github/workflows/<filename>``, or None.

    A two-space-indented ``name:`` line inside the top-level ``jobs:``
    block is a job definition — that is all of YAML this audit needs.
    """
    path = WORKFLOWS_DIR / filename
    if not path.exists():
        return None
    jobs = []
    in_jobs = False
    for line in path.read_text().splitlines():
        if line.rstrip() == "jobs:":
            in_jobs = True
            continue
        if in_jobs:
            if line and not line.startswith(" ") and not line.startswith("#"):
                break
            match = re.match(r"^  ([A-Za-z0-9_-]+):\s*$", line)
            if match:
                jobs.append(match.group(1))
    return jobs


def audit_regen_jobs() -> list:
    """Every registered suite must name a real CI job that regenerates
    its committed result file — renaming or deleting the job without
    updating the registry fails the build immediately.
    """
    problems = []
    for suite, (_checker, _summarizer, _gates, regen) in sorted(
            SUITES.items()):
        workflow, job = regen
        jobs = workflow_jobs(workflow)
        if jobs is None:
            problems.append(
                f"suite {suite!r}: regen workflow {workflow!r} does not "
                f"exist under {WORKFLOWS_DIR.relative_to(REPO_ROOT)}/")
        elif job not in jobs:
            problems.append(
                f"suite {suite!r}: regen job {job!r} not found in "
                f"{workflow} (jobs: {jobs}) — the registry must name the "
                f"workflow job that regenerates the committed result")
    return problems


def audit_results_dir(checked) -> list:
    """Every ``BENCH_*.json`` under the results directory must carry a
    registered suite — even when the caller passed explicit paths. A
    benchmark that writes a result no suite validates is a silent gap
    in CI coverage, which is exactly what this script exists to close.
    """
    problems = []
    for path in sorted(RESULTS_DIR.glob("BENCH_*.json")):
        if path.resolve() in checked:
            continue
        try:
            payload = json.loads(path.read_text())
            suite = payload.get("suite") if isinstance(payload, dict) \
                else None
        except json.JSONDecodeError:
            suite = None
        if suite not in SUITES:
            problems.append(
                f"{path.name}: carries unregistered suite {suite!r} — "
                f"every result file under {RESULTS_DIR.name}/ needs a "
                f"registered checker (known: {sorted(SUITES)})")
    return problems


def check_file(path: pathlib.Path, gates: dict) -> tuple:
    """Returns (problems, ok_summary_or_None) for one result file."""
    if not path.exists():
        return ([f"{path} does not exist (run the benchmark script)"], None)
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as error:
        return ([f"{path} is not valid JSON: {error}"], None)
    if not isinstance(payload, dict):
        return (["top level must be an object"], None)
    problems = []
    for field in ("suite", "smoke", "host_cpus", "entries"):
        if field not in payload:
            problems.append(f"top level missing field {field!r}")
    if problems:
        return (problems, None)
    if not isinstance(payload["entries"], list) or not payload["entries"]:
        return (["entries must be a non-empty list"], None)
    suite = payload["suite"]
    if suite not in SUITES:
        return ([f"unknown suite {suite!r} (expected one of "
                 f"{sorted(SUITES)})"], None)
    checker, summarizer, gate_keys, _regen = SUITES[suite]
    problems = checker(payload, *(gates[key] for key in gate_keys))
    if problems:
        return (problems, None)
    return ([], f"suite {suite}: {summarizer(payload)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*",
                        help="result files (default: every "
                             "benchmarks/results/BENCH_*.json)")
    parser.add_argument("--min-speedup", type=float, default=1.0,
                        help="gate: minimum 4-worker speedup on the "
                             "exhaustive parallel benchmark (default 1.0)")
    parser.add_argument("--min-calibration-ratio", type=float, default=5.0,
                        help="gate: minimum dense-to-surrogate calibration "
                             "ratio (default 5.0)")
    parser.add_argument("--min-reassignment-gain", type=float, default=0.0,
                        help="gate: minimum fraction of initial fleet cost "
                             "the reassignment loop must recover "
                             "(default 0.0)")
    parser.add_argument("--max-reconvergence-gap", type=float, default=0.25,
                        help="gate: how far above the full-knowledge "
                             "oracle the drift suite's closed loop may "
                             "land (default 0.25)")
    parser.add_argument("--max-serve-p99", type=float, default=2.0,
                        help="gate: ceiling on the serve suite's rated "
                             "p99 latency, simulated seconds (default 2.0)")
    parser.add_argument("--max-shed-rate", type=float, default=0.05,
                        help="gate: ceiling on the serve suite's shed "
                             "rate at its rated load (default 0.05)")
    parser.add_argument("--max-degraded-fraction", type=float, default=0.10,
                        help="gate: ceiling on the serve suite's degraded "
                             "fraction at its rated load (default 0.10)")
    parser.add_argument("--min-calibration-speedup", type=float, default=1.0,
                        help="gate: minimum single-threaded calibration "
                             "speedup vs the committed surrogate "
                             "dense-grid baseline (default 1.0)")
    parser.add_argument("--min-grid-speedup", type=float, default=1.0,
                        help="gate: minimum 4-worker exhaustive-grid "
                             "speedup vs the full-planning serial "
                             "baseline; applies only when the recorded "
                             "host has >= 4 CPUs (default 1.0)")
    parser.add_argument("--min-codesign-improvement", type=float,
                        default=0.0,
                        help="gate: minimum fraction by which co-design "
                             "must beat the best allocation-only design "
                             "(beating it at all is a hard check; "
                             "default 0.0)")
    args = parser.parse_args(argv)

    if args.paths:
        paths = [pathlib.Path(p) for p in args.paths]
    else:
        paths = sorted(RESULTS_DIR.glob("BENCH_*.json"))
        if not paths:
            print(f"check_bench: FAIL: no BENCH_*.json files under "
                  f"{RESULTS_DIR}", file=sys.stderr)
            return 1

    gates = {"min_speedup": args.min_speedup,
             "min_calibration_ratio": args.min_calibration_ratio,
             "min_reassignment_gain": args.min_reassignment_gain,
             "max_reconvergence_gap": args.max_reconvergence_gap,
             "max_serve_p99": args.max_serve_p99,
             "max_shed_rate": args.max_shed_rate,
             "max_degraded_fraction": args.max_degraded_fraction,
             "min_calibration_speedup": args.min_calibration_speedup,
             "min_grid_speedup": args.min_grid_speedup,
             "min_codesign_improvement": args.min_codesign_improvement}
    all_problems = []
    for path in paths:
        problems, ok = check_file(path, gates)
        for problem in problems:
            all_problems.append(f"{path.name}: {problem}")
        if ok:
            print(f"check_bench: OK: {path.name}: {ok}")
    all_problems.extend(
        audit_results_dir({path.resolve() for path in paths}))
    all_problems.extend(audit_regen_jobs())
    if all_problems:
        for problem in all_problems:
            print(f"check_bench: {problem}", file=sys.stderr)
        print(f"check_bench: FAIL: {len(all_problems)} problem(s) across "
              f"{len(paths)} file(s)", file=sys.stderr)
        return 1
    print(f"check_bench: all {len(paths)} result file(s) pass")
    return 0


if __name__ == "__main__":
    sys.exit(main())
