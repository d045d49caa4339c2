#!/usr/bin/env python
"""Validate every ``BENCH_*.json`` result file and gate on regressions.

``SUITES`` is the whole specification: per suite the result file and the
script that writes it, the CI job that regenerates it, the top-level
fields, the entry shapes with their cardinality, and the rules (derived
values, monotone trajectories, hard flags, gates with their full-mode
and smoke-mode thresholds). :func:`check_payload` is the one interpreter
that applies it; ``docs/benchmarks.md`` describes every suite and gate
in prose and ``scripts/check_docs.py`` keeps its file table equal to
``SUITES``.

Every violation across every file is collected and reported; a
malformed payload gets a diagnostic, never a traceback. Exit code 0
when everything holds, 1 with the full list otherwise.

Run with ``python scripts/check_bench.py [--min-speedup X] [PATH ...]``;
with no paths it validates every ``benchmarks/results/BENCH_*.json``.
"""

from __future__ import annotations

import argparse
import json
import operator
import pathlib
import re
import sys
from typing import Callable, NamedTuple, Optional, Union

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS_DIR = REPO_ROOT / "benchmarks" / "results"
WORKFLOWS_DIR = REPO_ROOT / ".github" / "workflows"

NUM = (int, float)
OPT_INT = (int, type(None))
ANY = object

#: Gate threshold taken from ``--min-speedup`` — the one value two
#: callers set differently on the same kind of file: the committed
#: results, recorded on a known host, assert a real speedup; the
#: nightly's hosted runner, whose core count varies, asserts parity.
MIN_SPEEDUP = "--min-speedup"

OPS = {">=": operator.ge, "<=": operator.le, ">": operator.gt,
       "==": operator.eq}


# -- the vocabulary of the table ---------------------------------------------

class Underivable(Exception):
    """A value the rules need cannot be computed from this payload."""


def look(c: dict, path: str):
    """``"alias.field"`` in the context: an entry alias, a block name,
    or ``payload`` for the top level."""
    alias, field = path.rsplit(".", 1)
    return c[alias][field]


def ratio(c: dict, numerator: str, denominator: str) -> float:
    if look(c, denominator) == 0:
        raise Underivable(f"`{denominator}` is 0")
    return look(c, numerator) / look(c, denominator)


def value_of(spec, c: dict):
    """A table value: a path into the context, or a function of it."""
    return spec(c) if callable(spec) else look(c, spec)


def name_of(spec) -> str:
    return spec if isinstance(spec, str) \
        else spec.__name__.strip("_").replace("_", " ")


def is_a(value, kinds) -> bool:
    """isinstance, except that a bool is a number only where the table
    says ``bool``."""
    kinds = kinds if isinstance(kinds, tuple) else (kinds,)
    if isinstance(value, bool) and bool not in kinds and ANY not in kinds:
        return False
    return isinstance(value, kinds)


class Shape(NamedTuple):
    """One kind of entry; an entry may carry no field outside ``fields``."""
    fields: dict            # field -> type(s)
    positive: tuple = ()    # numeric fields that must be > 0
    count: Optional[int] = 1  # how many the suite needs; None = any number
    alias: Optional[str] = None  # what rules call it; default: its name


class Suite(NamedTuple):
    file: str        # committed result file under benchmarks/results/
    script: str      # the script that writes it
    entries: dict    # values of the ``key`` fields (None = any) -> Shape
    headline: tuple  # paths / functions of the context the OK line reports
    key: tuple = ("name",)
    top: tuple = ()     # top-level fields required beyond SHARED_TOP
    blocks: dict = {}   # top-level objects -> {field: type(s)}; extras allowed
    #: Applied once the schema holds, each as ``rule(context) -> problems``:
    #: entries and blocks are typed by then, and every division goes
    #: through :func:`ratio`, so a rule compares and divides numbers only.
    rules: tuple = ()
    #: (workflow, job) that regenerates the committed file.
    regen: tuple = ("nightly.yml", "bench-full")


class Derived(NamedTuple):
    """``target`` must equal ``value`` within ``tol + rel * |value|``."""
    target: str
    value: Union[str, Callable]
    tol: float = 0.0
    rel: float = 0.0

    def __call__(self, c: dict) -> list:
        recorded, value = look(c, self.target), value_of(self.value, c)
        if not is_a(recorded, NUM):
            return [f"{self.target} must be a number"]
        if abs(recorded - value) > self.tol + self.rel * abs(value):
            return [f"{self.target} is {recorded} but the entries give "
                    f"{value:.6g}"]
        return []


class Monotone(NamedTuple):
    """A numeric, non-increasing trajectory; paths as in :func:`look`."""
    path: str
    why: str                      # what an increase means
    item: Optional[str] = None    # points are objects: the key to follow
    min_points: int = 2
    length: Optional[str] = None  # path of the exact point count
    first: Optional[str] = None   # path the first point must equal
    last: Optional[str] = None    # path the last point must equal
    below: Optional[float] = None  # the last point must end below this

    def __call__(self, c: dict) -> list:
        points = look(c, self.path)
        if self.length and len(points) != look(c, self.length):
            return [f"{self.path} has {len(points)} point(s), {self.length} "
                    f"says {look(c, self.length)}"]
        if len(points) < self.min_points:
            return [f"{self.path} needs at least {self.min_points} point(s)"]
        if self.item:
            points = [p.get(self.item) if isinstance(p, dict) else None
                      for p in points]
        if not all(is_a(p, NUM) for p in points):
            return [f"{self.path} must be numeric"]
        problems = []
        for a, b in zip(points, points[1:]):
            if b > a + 1e-9:
                problems.append(f"{self.path} increased ({a:.6f} -> {b:.6f}) "
                                f"— {self.why}")
                break
        for end, path in ((0, self.first), (-1, self.last)):
            if path and abs(points[end] - look(c, path)) > 1e-6:
                problems.append(
                    f"{path} is {look(c, path)} but {self.path} "
                    f"{'ends' if end else 'starts'} at {points[end]}")
        if self.below is not None and points[-1] >= self.below:
            problems.append(f"{self.path} ends at {points[-1]}, not below "
                            f"{self.below} — the plan injected nothing")
        return problems


class Gate(NamedTuple):
    """``value op threshold``; ``payload["smoke"]`` picks the threshold.

    A gate whose two thresholds are equal and that names no flag is a
    hard check: it holds for every run of the benchmark, anywhere.
    """
    value: Union[str, Callable]
    op: str
    full: Union[float, str]
    smoke: Union[float, str]
    why: str                          # what a violation means
    when: Optional[Callable] = None   # applies only when this holds

    def __call__(self, c: dict) -> list:
        if self.when is not None and not self.when(c):
            return []
        mode = "smoke" if c["payload"]["smoke"] else "full"
        threshold = getattr(self, mode)
        if threshold == MIN_SPEEDUP:
            threshold, where = c[MIN_SPEEDUP], f" ({MIN_SPEEDUP})"
        else:
            where = "" if self.full == self.smoke else f" ({mode})"
        value = value_of(self.value, c)
        if OPS[self.op](value, threshold):
            return []
        return [f"{name_of(self.value)} is {value!r}, must be {self.op} "
                f"{threshold!r}{where} — {self.why}"]


def flag(path: str, why: str) -> Gate:
    """A recorded boolean that must be true."""
    return Gate(path, "==", True, True, why)


# -- derived values shared by a relation and a gate --------------------------

def _surrogate_ratio(c):
    return ratio(c, "dense-grid.calibrations", "surrogate.calibrations")


def _surrogate_margin(c):
    return c["dense-grid"]["cost"] - c["surrogate"]["cost"]


def _fleet_improvement(c):
    return 1.0 - ratio(c, "fleet.cost", "round-robin.cost")


def _fleet_gain(c):
    return 1.0 - ratio(c, "fleet.cost", "fleet.initial_cost")


def _drift_gain(c):
    return 1.0 - ratio(c, "closed-loop.cost", "open-loop.cost")


def _drift_gap(c):
    return ratio(c, "closed-loop.cost", "oracle.cost") - 1.0


def _codesign_improvement(c):
    return 1.0 - ratio(c, "codesign.cost", "allocation-only.cost")


def _exhaustive_grid_speedup_at_4_workers(c):
    """The parallel suite's gated number: the batched strategy is where
    the engine claims its win. Other rows are schema-checked only, since
    e.g. greedy's tiny frontiers need a multi-core host to beat per-call
    dispatch."""
    for row in c["payload"]["entries"]:
        if row["name"] == "exhaustive-fig5-grid" and row["workers"] == 4:
            return row["speedup"]
    raise Underivable("the payload has no such row")


# -- cross-row and cross-file checks -----------------------------------------

def parallel_rows(c) -> list:
    """Per benchmark: one serial baseline at speedup 1.0, and the same
    evaluation count at every worker count (the determinism contract,
    as recorded data)."""
    problems = []
    by_name = {}
    for i, row in enumerate(c["payload"]["entries"]):
        by_name.setdefault(row["name"], []).append(row)
        if row["workers"] is not None and row["workers"] < 1:
            problems.append(f"entries[{i}].workers must be >= 1 or null")
        if row["workers"] is None and row["speedup"] != 1.0:
            problems.append(f"entries[{i}] is a serial baseline but speedup "
                            f"is {row['speedup']}, not 1.0")
    for name, rows in sorted(by_name.items()):
        baselines = [r for r in rows if r["workers"] is None]
        if len(baselines) != 1:
            problems.append(f"benchmark {name!r} needs exactly one serial "
                            f"baseline row, found {len(baselines)}")
            continue
        expected = baselines[0]["evaluations"]
        problems.extend(
            f"benchmark {name!r} at workers={row['workers']} spent "
            f"{row['evaluations']} evaluations, the serial baseline spent "
            f"{expected} — parallel determinism regressed"
            for row in rows if row["evaluations"] != expected)
    return problems


def serve_counts(c) -> list:
    """The liveness contract, as recorded data: every request got exactly
    one outcome, only rejected requests can have been shed, and the
    latency percentiles are ordered."""
    problems = []
    for name in ("rated", "overload"):
        s = c[name]
        outcomes = s["answered"] + s["degraded"] + s["rejected"]
        if outcomes != s["requests"]:
            problems.append(
                f"{name}: answered+degraded+rejected = {outcomes}, not the "
                f"{s['requests']} requests offered — responses were dropped "
                f"or double-counted")
        if s["shed"] > s["rejected"]:
            problems.append(f"{name}: shed exceeds rejected")
        if s["p50_seconds"] > s["p99_seconds"] + 1e-9:
            problems.append(f"{name}: p50 exceeds p99")
    return problems


def _degraded_fraction(name: str) -> Callable:
    def derive(c):
        served = c[name]["answered"] + c[name]["degraded"]
        if not served:
            raise Underivable(f"`{name}.answered` + `{name}.degraded` is 0")
        return c[name]["degraded"] / served
    return derive


def hotpath_baseline(c) -> list:
    """The baseline block must be the committed surrogate dense-grid
    run, not a number the benchmark made up."""
    baseline = c["baseline"]
    source = RESULTS_DIR / SUITES["surrogate"].file
    if baseline["source"] != source.name:
        return [f"baseline.source is {baseline['source']!r}, expected "
                f"{source.name!r}"]
    try:
        entries = json.loads(source.read_text())["entries"]
        dense = [e for e in entries if e.get("name") == "dense-grid"]
    except (OSError, ValueError, KeyError, TypeError, AttributeError):
        return [f"baseline source {source.name} is not a readable surrogate "
                f"result under {RESULTS_DIR.name}/"]
    if len(dense) != 1:
        return [f"{source.name} carries {len(dense)} dense-grid entries, "
                f"expected 1"]
    return [f"baseline.{field} is {baseline[field]} but the committed "
            f"{source.name} records {dense[0].get(field)}"
            for field in ("calibrations", "wall_seconds")
            if baseline[field] != dense[0].get(field)]


def codesign_pages(c) -> list:
    """Per VM the chosen indexes fit the storage budget and sum to
    ``pages_used``; the summary counts them."""
    entry = c["codesign"]
    indexes, used = entry["indexes"], entry["pages_used"]
    problems = [
        f"codesign.indexes[{name!r}] must list objects with integer pages"
        for name, chosen in indexes.items()
        if not isinstance(chosen, list) or not all(
            isinstance(i, dict) and is_a(i.get("pages", 0), int)
            for i in chosen)]
    problems.extend(f"codesign.pages_used[{name!r}] must be an int"
                    for name, pages in used.items() if not is_a(pages, int))
    if problems:
        return problems
    n_indexes = sum(map(len, indexes.values()))
    if c["summary"]["indexes_selected"] != n_indexes:
        problems.append(
            f"summary.indexes_selected is {c['summary']['indexes_selected']} "
            f"but the codesign entry carries {n_indexes} index(es)")
    for name, pages in sorted(used.items()):
        if pages > entry["storage_budget"]:
            problems.append(
                f"codesign spent {pages} page(s) on {name!r}, over the "
                f"{entry['storage_budget']}-page budget — the selection "
                f"loop overspent")
        chosen = sum(i.get("pages", 0) for i in indexes.get(name, []))
        if chosen != pages:
            problems.append(f"codesign.pages_used[{name!r}] is {pages} but "
                            f"its chosen indexes sum to {chosen}")
    return problems


# -- the table ---------------------------------------------------------------

_GRID_ROW = {"name": str, "grid": int, "workers": OPT_INT,
             "wall_seconds": NUM, "evaluations": int, "speedup": NUM}
_GRID_POSITIVE = ("wall_seconds", "evaluations", "speedup")

_SURROGATE_ROW = {"name": str, "calibrations": int, "cost": NUM,
                  "evaluations": int, "allocation": dict, "wall_seconds": NUM}
_SURROGATE_POSITIVE = ("calibrations", "cost", "evaluations", "wall_seconds")

_FLEET_ROW = {"name": str, "cost": NUM, "hosts": int, "workloads": int,
              "wall_seconds": NUM}
_FLEET_POSITIVE = ("cost", "wall_seconds", "hosts", "workloads")

#: The drift and codesign suites share this base row.
_DESIGN_ROW = {"name": str, "cost": NUM, "allocation": dict,
               "wall_seconds": NUM}
_DESIGN_POSITIVE = ("cost", "wall_seconds")

_SERVE_ROW = {
    "name": str, "requests": int, "rate": NUM, "answered": int,
    "degraded": int, "rejected": int, "shed": int, "shed_rate": NUM,
    "degraded_fraction": NUM, "p50_seconds": NUM, "p99_seconds": NUM,
    "deadline_violations": int, "untyped_errors": int,
    "design_commits": int, "breaker_trips": int, "wall_seconds": NUM,
}


def _serve_session(name: str) -> tuple:
    return (
        Gate(f"{name}.untyped_errors", "==", 0, 0,
             "the typed-outcome contract regressed"),
        Gate(f"{name}.deadline_violations", "==", 0, 0,
             "the deadline contract regressed"),
        Gate(f"{name}.answered", ">=", 1, 1, "nothing was answered"),
        Derived(f"{name}.shed_rate",
                lambda c: ratio(c, f"{name}.shed", f"{name}.requests"), 1e-4),
        Derived(f"{name}.degraded_fraction", _degraded_fraction(name), 1e-4),
    )


def _hotpath_recost_row(alias: str) -> tuple:
    return (
        Derived(f"{alias}.evaluations", "base.evaluations"),
        Derived(f"{alias}.grid", "base.grid"),
        Derived(f"{alias}.speedup",
                lambda c: ratio(c, "base.wall_seconds",
                                f"{alias}.wall_seconds"), 1e-3, 0.02),
    )


SUITES = {
    "parallel-speedup": Suite(
        file="BENCH_parallel.json", script="scripts/bench_speedup.py",
        entries={None: Shape(_GRID_ROW, _GRID_POSITIVE, count=None)},
        rules=(
            parallel_rows,
            Gate(_exhaustive_grid_speedup_at_4_workers, ">=", MIN_SPEEDUP,
                 MIN_SPEEDUP, "the parallel engine regressed"),
        ),
        headline=(_exhaustive_grid_speedup_at_4_workers,),
    ),
    "surrogate": Suite(
        file="BENCH_surrogate.json", script="scripts/bench_surrogate.py",
        top=("scenario", "algorithm", "grid", "fine_factor", "tolerance",
             "budget"),
        entries={
            "dense-grid": Shape(_SURROGATE_ROW, _SURROGATE_POSITIVE),
            "surrogate": Shape({
                **_SURROGATE_ROW, "predicted_cost": NUM, "knots": int,
                "fit_refinements": int, "polish_rounds": int,
                "converged": bool}, _SURROGATE_POSITIVE),
        },
        blocks={"summary": {"calibration_ratio": NUM,
                            "calibrations_avoided": int,
                            "cost_margin": NUM}},
        rules=(
            Derived("summary.calibration_ratio", _surrogate_ratio, 1e-3),
            Derived("summary.cost_margin", _surrogate_margin, 1e-6),
            Gate(_surrogate_ratio, ">=", 5.0, 5.0,
                 "the surrogate stopped avoiding calibrations"),
            # Saving calibrations by returning a worse design is a
            # regression, not a trade-off.
            Gate(_surrogate_margin, ">=", -1e-9, -1e-9,
                 "search quality regressed"),
        ),
        headline=("summary.calibration_ratio", "summary.cost_margin"),
    ),
    "fleet": Suite(
        file="BENCH_fleet.json", script="scripts/bench_fleet.py",
        top=("scenario", "algorithm", "max_rounds"),
        entries={
            "round-robin": Shape(_FLEET_ROW, _FLEET_POSITIVE),
            "fleet": Shape({
                **_FLEET_ROW, "initial_cost": NUM, "rounds": int,
                "moves": int, "clusters": int, "converged": bool,
                "trajectory": list}, _FLEET_POSITIVE),
        },
        blocks={"summary": {"improvement": NUM, "reassignment_gain": NUM,
                            "monotone": bool}},
        rules=(
            Monotone("fleet.trajectory",
                     "the reroute loop accepted a worsening move",
                     first="fleet.initial_cost", last="fleet.cost"),
            Derived("summary.improvement", _fleet_improvement, 1e-4),
            Derived("summary.reassignment_gain", _fleet_gain, 1e-4),
            flag("summary.monotone",
                 "the recorded run violated the convergence contract"),
            # A fleet placer that loses to cyclic dealing has no reason
            # to exist, whatever the thresholds.
            Gate(_fleet_improvement, ">", 0.0, 0.0,
                 "placement quality regressed"),
            Gate(_fleet_gain, ">=", 0.1, 0.1, "the reroute loop regressed"),
        ),
        headline=("summary.improvement", "summary.reassignment_gain",
                  "fleet.rounds"),
    ),
    "drift": Suite(
        file="BENCH_drift.json", script="scripts/bench_drift.py",
        top=("scenario", "plan", "epochs", "final_capacity",
             "drift_threshold", "recal_budget", "surrogate_budget",
             "algorithm", "grid", "fine_factor"),
        entries={
            "open-loop": Shape({**_DESIGN_ROW, "calibrations": int},
                               _DESIGN_POSITIVE),
            "closed-loop": Shape({
                **_DESIGN_ROW, "drift_events": int, "recalibrations": int,
                "redesigns": int, "budget_spent": int,
                "budget_remaining": int, "trajectory": list},
                _DESIGN_POSITIVE),
            "oracle": Shape({
                **_DESIGN_ROW, "winner": str, "candidate_costs": dict,
                "calibrations": int}, _DESIGN_POSITIVE),
        },
        blocks={"summary": {"closed_loop_gain": NUM, "reconvergence_gap": NUM,
                            "drift_events": int, "recalibrations": int,
                            "budget_spent": int}},
        rules=(
            Monotone("closed-loop.trajectory",
                     "the degradation trajectory is not monotone",
                     item="capacity", min_points=1, length="payload.epochs",
                     below=1.0),
            Derived("summary.closed_loop_gain", _drift_gain, 1e-4),
            Derived("summary.reconvergence_gap", _drift_gap, 1e-4),
            Derived("summary.drift_events", "closed-loop.drift_events"),
            Derived("payload.recal_budget",
                    lambda c: (c["closed-loop"]["budget_spent"]
                               + c["closed-loop"]["budget_remaining"])),
            Gate("closed-loop.drift_events", ">=", 1, 1,
                 "the monitor never alarmed — detection regressed"),
            Gate("closed-loop.recalibrations", ">=", 1, 1,
                 "no knot was refit after detection — repair regressed"),
            # A closed loop that loses to never recalibrating has no
            # reason to exist, whatever the thresholds.
            Gate(_drift_gain, ">", 0.0, 0.0, "the repair loop regressed"),
            Gate(_drift_gap, ">=", -1e-9, -1e-9,
                 "the oracle is no longer a bound; fix the benchmark"),
            Gate(_drift_gap, "<=", 0.25, 0.25, "re-convergence regressed"),
        ),
        headline=("summary.closed_loop_gain", "summary.reconvergence_gap",
                  "summary.drift_events", "summary.recalibrations"),
    ),
    "serve": Suite(
        file="BENCH_serve.json", script="scripts/bench_serve.py",
        top=("scenario", "plan", "trace_seed", "requests", "algorithm",
             "grid", "surrogate_budget"),
        entries={"rated": Shape(_SERVE_ROW, ("wall_seconds",)),
                 "overload": Shape(_SERVE_ROW, ("wall_seconds",))},
        blocks={"summary": {"p99_seconds": NUM, "shed_rate": NUM,
                            "degraded_fraction": NUM,
                            "overload_shed_rate": NUM,
                            "resume_identical": bool,
                            "resume_kill_after": int}},
        rules=(
            serve_counts,
            *_serve_session("rated"),
            *_serve_session("overload"),
            Derived("summary.p99_seconds", "rated.p99_seconds", 1e-9),
            Derived("summary.shed_rate", "rated.shed_rate", 1e-9),
            Derived("summary.degraded_fraction", "rated.degraded_fraction",
                    1e-9),
            Derived("summary.overload_shed_rate", "overload.shed_rate", 1e-9),
            Gate("overload.shed_rate", ">", 0.0, 0.0,
                 "admission control never engaged under a 10x burst"),
            flag("summary.resume_identical", "the resumed session diverged "
                 "from the uninterrupted one — crash recovery regressed"),
            Gate("summary.resume_kill_after", ">=", 1, 1,
                 "the kill/resume probe killed nothing"),
            # The clock is simulated, so these hold on any host.
            Gate("rated.p99_seconds", "<=", 2.0, 2.0,
                 "serving latency regressed"),
            Gate("rated.shed_rate", "<=", 0.05, 0.05,
                 "the service sheds at its rated load"),
            Gate("rated.degraded_fraction", "<=", 0.10, 0.10,
                 "answer quality regressed"),
        ),
        headline=("summary.p99_seconds", "summary.shed_rate",
                  "summary.overload_shed_rate", "summary.resume_identical"),
    ),
    "hotpath": Suite(
        file="BENCH_hotpath.json", script="scripts/bench_hotpath.py",
        key=("name", "mode", "workers"),
        entries={
            ("calibration", "fast", None): Shape({
                "name": str, "mode": str, "calibrations": int,
                "wall_seconds": NUM, "seconds_per_calibration": NUM},
                ("wall_seconds", "calibrations"), alias="fast"),
            **{("exhaustive-grid", mode, workers): Shape(
                {**_GRID_ROW, "mode": str}, _GRID_POSITIVE, alias=alias)
               for alias, mode, workers in (
                   ("base", "full-planning", None), ("recost", "recost", None),
                   ("recost1", "recost", 1), ("recost2", "recost", 2),
                   ("recost4", "recost", 4))},
        },
        blocks={
            "baseline": {"source": str, "calibrations": int,
                         "wall_seconds": NUM, "seconds_per_calibration": NUM},
            "identity": {"design_identical": bool},
            "summary": {"calibration_speedup_vs_baseline": NUM,
                        "recost_speedup": NUM, "grid_speedup_4_workers": NUM},
        },
        rules=(
            Derived("fast.seconds_per_calibration",
                    lambda c: ratio(c, "fast.wall_seconds",
                                    "fast.calibrations"), 1e-3),
            Gate("base.speedup", "==", 1.0, 1.0,
                 "the full-planning row is the anchor"),
            *_hotpath_recost_row("recost"), *_hotpath_recost_row("recost1"),
            *_hotpath_recost_row("recost2"), *_hotpath_recost_row("recost4"),
            hotpath_baseline,
            Derived("baseline.seconds_per_calibration",
                    lambda c: ratio(c, "baseline.wall_seconds",
                                    "baseline.calibrations"), 1e-3),
            Derived("summary.calibration_speedup_vs_baseline",
                    lambda c: ratio(c, "baseline.seconds_per_calibration",
                                    "fast.seconds_per_calibration"),
                    1e-3, 0.02),
            Derived("summary.recost_speedup", "recost.speedup", 1e-3, 0.02),
            Derived("summary.grid_speedup_4_workers", "recost4.speedup",
                    1e-3, 0.02),
            flag("identity.design_identical",
                 "recost design search diverged from full planning — the "
                 "plan-shape cache replayed a wrong cost"),
            # Cross-host wall-clock ratios are hardware-relative, so a
            # smoke run on a hosted runner only has to not be slower.
            Gate("summary.calibration_speedup_vs_baseline", ">=", 2.0, 1.0,
                 "the hot-path work regressed"),
            # A single-core laptop records the row but cannot scale.
            Gate("summary.grid_speedup_4_workers", ">=", 3.0, 1.0,
                 "the grid search stopped scaling",
                 when=lambda c: c["payload"]["host_cpus"] >= 4),
        ),
        headline=("summary.calibration_speedup_vs_baseline",
                  "summary.recost_speedup", "summary.grid_speedup_4_workers"),
    ),
    "codesign": Suite(
        file="BENCH_codesign.json", script="scripts/bench_codesign.py",
        top=("scenario", "algorithm", "grid", "storage_budget", "max_rounds"),
        entries={
            "allocation-only": Shape(_DESIGN_ROW, _DESIGN_POSITIVE),
            "codesign": Shape({
                **_DESIGN_ROW, "initial_cost": NUM, "indexes": dict,
                "pages_used": dict, "storage_budget": int, "rounds": int,
                "converged": bool, "trajectory": list,
                "candidates_evaluated": int}, _DESIGN_POSITIVE),
        },
        blocks={"summary": {"improvement": NUM, "monotone": bool,
                            "indexes_selected": int,
                            "resume_identical": bool,
                            "resume_kill_after": int}},
        rules=(
            # Initial point plus one round's two half-steps.
            Monotone("codesign.trajectory",
                     "a half-step accepted a worsening design", min_points=3,
                     first="codesign.initial_cost", last="codesign.cost"),
            codesign_pages,
            Derived("summary.improvement", _codesign_improvement, 1e-4),
            flag("summary.monotone", "the recorded run violated the "
                 "monotone-trajectory contract"),
            # Beating the best allocation-only design is why the
            # codesign layer exists.
            Gate(_codesign_improvement, ">", 0.0, 0.0,
                 "joint tuning regressed"),
            flag("summary.resume_identical", "the resumed run diverged from "
                 "the uninterrupted one — crash recovery regressed"),
            Gate("summary.resume_kill_after", ">=", 1, 1,
                 "the kill/resume probe killed nothing"),
            Gate(_codesign_improvement, ">=", 0.02, 0.0,
                 "the index-selection pass regressed"),
        ),
        headline=("summary.improvement", "summary.indexes_selected",
                  "codesign.rounds", "summary.resume_identical"),
    ),
}

#: Fields every result file carries, whatever its suite.
SHARED_TOP = {"suite": str, "smoke": bool, "host_cpus": int, "entries": list}


# -- the interpreter ---------------------------------------------------------

def check_fields(prefix: str, record: dict, fields: dict) -> list:
    """Type-check *fields* of *record*; one problem string per violation."""
    problems = []
    for field, kinds in fields.items():
        if field not in record:
            problems.append(f"{prefix} missing field {field!r}")
        elif not is_a(record[field], kinds):
            names = "/".join(k.__name__ for k in (
                kinds if isinstance(kinds, tuple) else (kinds,)))
            problems.append(f"{prefix}.{field} has type "
                            f"{type(record[field]).__name__}, expected {names}")
    return problems


def check_entries(suite: Suite, entries: list, context: dict) -> list:
    """Match every entry to its shape, type it, and count the shapes;
    singleton shapes land in *context* under their alias."""
    problems = []
    found = {key: [] for key in suite.entries}
    for i, entry in enumerate(entries):
        prefix = f"entries[{i}]"
        if not isinstance(entry, dict):
            problems.append(f"{prefix} is not an object")
            continue
        values = tuple(entry.get(field) for field in suite.key)
        ident = values[0] if len(values) == 1 else values
        # Linear scan by ==: an identifying field may hold anything.
        key = next((k for k in suite.entries if k is None or k == ident), ...)
        if key is ...:
            problems.append(f"{prefix} has unknown {'/'.join(suite.key)} "
                            f"{ident!r} (expected one of "
                            f"{list(suite.entries)})")
            continue
        shape = suite.entries[key]
        found[key].append(entry)
        problems.extend(check_fields(prefix, entry, shape.fields))
        extra = set(entry) - set(shape.fields)
        if extra:
            problems.append(f"{prefix} has unknown fields {sorted(extra)}")
        problems.extend(
            f"{prefix}.{field} must be positive" for field in shape.positive
            if is_a(entry.get(field), NUM) and entry[field] <= 0)
    for key, shape in suite.entries.items():
        if shape.count is not None and len(found[key]) != shape.count:
            problems.append(f"suite needs exactly {shape.count} {key!r} "
                            f"entry, found {len(found[key])}")
        elif shape.count == 1:
            context[shape.alias or key] = found[key][0]
    return problems


def check_payload(payload, min_speedup: float) -> tuple:
    """Returns (problems, ok_summary_or_None) for one parsed result."""
    if not isinstance(payload, dict):
        return (["top level must be an object"], None)
    problems = check_fields("top level", payload, SHARED_TOP)
    if not problems and payload["host_cpus"] < 1:
        problems.append("top level.host_cpus must be >= 1")
    if not problems and not payload["entries"]:
        problems.append("entries must be a non-empty list")
    if problems:
        return (problems, None)
    suite = SUITES.get(payload["suite"])
    if suite is None:
        return ([f"unknown suite {payload['suite']!r} (expected one of "
                 f"{sorted(SUITES)})"], None)

    context = {"payload": payload, MIN_SPEEDUP: min_speedup}
    problems = check_fields("top level", payload,
                            dict.fromkeys(suite.top, ANY))
    for block, fields in suite.blocks.items():
        if not isinstance(payload.get(block), dict):
            problems.append(f"top level missing object field {block!r}")
        else:
            context[block] = payload[block]
            problems.extend(check_fields(block, payload[block], fields))
    problems.extend(check_entries(suite, payload["entries"], context))
    if problems:
        return (problems, None)

    for rule in suite.rules:
        try:
            problems.extend(rule(context))
        except Underivable as reason:
            # A table row's first field is the path or function it is about.
            about = rule[0] if isinstance(rule, tuple) else rule
            problems.append(f"cannot derive {name_of(about)}: {reason}")
    if problems:
        return (problems, None)
    headline = ", ".join(f"{name_of(spec)} = {value_of(spec, context)}"
                         for spec in suite.headline)
    return ([], f"suite {payload['suite']}: {headline}")


def check_file(path: pathlib.Path, min_speedup: float) -> tuple:
    """Returns (problems, ok_summary_or_None) for one result file."""
    try:
        payload = json.loads(path.read_text())
    except OSError:
        return ([f"{path} cannot be read (run the benchmark script)"], None)
    except ValueError as error:
        return ([f"{path} is not valid JSON: {error}"], None)
    return check_payload(payload, min_speedup)


# -- audits ------------------------------------------------------------------

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
    """Every suite must name a real CI job that regenerates its committed
    result file: results nobody re-runs drift silently, so renaming the
    job without updating the table fails the build."""
    problems = []
    for name, suite in sorted(SUITES.items()):
        workflow, job = suite.regen
        jobs = workflow_jobs(workflow)
        if jobs is None:
            problems.append(
                f"suite {name!r}: regen workflow {workflow!r} does not "
                f"exist under {WORKFLOWS_DIR}/")
        elif job not in jobs:
            problems.append(
                f"suite {name!r}: regen job {job!r} not found in "
                f"{workflow} (jobs: {jobs}) — the table must name the "
                f"workflow job that regenerates the committed result")
    return problems


def audit_results_dir() -> list:
    """Every ``BENCH_*.json`` under the results directory must be some
    suite's result file, even when the caller passed explicit paths: a
    benchmark whose result no suite validates is a silent gap in CI."""
    registered = sorted(suite.file for suite in SUITES.values())
    return [f"{path.name}: is no registered suite's result file — every "
            f"BENCH_*.json under {RESULTS_DIR.name}/ needs a SUITES row "
            f"(known: {registered})"
            for path in sorted(RESULTS_DIR.glob("BENCH_*.json"))
            if path.name not in registered]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*",
                        help="result files (default: every "
                             "benchmarks/results/BENCH_*.json)")
    parser.add_argument("--min-speedup", type=float, default=1.0,
                        help="gate: minimum 4-worker speedup on the "
                             "exhaustive parallel benchmark (default 1.0); "
                             "every other threshold is a constant in SUITES")
    args = parser.parse_args(argv)

    if args.paths:
        paths = [pathlib.Path(p) for p in args.paths]
    else:
        paths = sorted(RESULTS_DIR.glob("BENCH_*.json"))
        if not paths:
            print(f"check_bench: FAIL: no BENCH_*.json files under "
                  f"{RESULTS_DIR}", file=sys.stderr)
            return 1

    all_problems = []
    for path in paths:
        problems, ok = check_file(path, args.min_speedup)
        all_problems.extend(f"{path.name}: {problem}" for problem in problems)
        if ok:
            print(f"check_bench: OK: {path.name}: {ok}")
    all_problems.extend(audit_results_dir())
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
