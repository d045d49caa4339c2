"""Run the whole benchmark several times on the same code and compare.

    python3 -m bench_e2e.repeat [--sets 2] [--seeds 1] [--seed 1]
                                [--workload NAME] [--no-trace] [--out PATH]

A *set* is every workload run untraced once per seed (``--seeds``
consecutive seeds from ``--seed``) plus, unless ``--no-trace``, one
traced run at the first seed. The table gives, per workload and gated
end-to-end metric, each set's median, its spread (distance between the
quartiles over the median, shown from four seeds up) and how much
worse each later set's median is than the first's. The command fails
when a later median is worse than the first by more than the metric's
bound, when a spread (``setup_s`` excepted) exceeds the bound, when a
count of the traced pass differs at all between sets, or when any run
fails its correctness checks.

``--sets 2`` is the quick same-seed agreement check; ``--sets 2
--seeds 10`` is the acceptance procedure the benchmark's contract
describes. Every result carries ``host_cpus``, the Python version and
the 1-minute load average; a load above 0.5 draws a warning.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
from typing import Any, Dict, List, Optional, Tuple

from bench_e2e import run, stats

#: Units whose per-layer values must repeat exactly for a given seed.
EXACT_UNITS = ("count", "bytes", "pages", "ratio")


def worsening(first: float, later: float, better: str) -> float:
    """How much worse *later* is than *first*, as a share of *first*."""
    change = (later - first) / first
    return change if better == "lower" else -change


def run_set(names: List[str], seeds: List[int], seconds: float,
            trace: bool) -> List[Dict[str, Any]]:
    results = []
    for workload in names:
        for seed in seeds:
            results.append(run.run_child(workload, seed, seconds, 0))
        if trace:
            results.append(run.run_child(workload, seeds[0], seconds, 1))
        for result in results[-(len(seeds) + trace):]:
            mode = "traced" if result["trace"] else "untraced"
            host = result["host"]
            print(f"  {workload} seed {result['seed']} {mode}: "
                  f"{'ok' if result['correct'] else 'CHECKS FAILED'}, "
                  f"load_1m {host['load_1m']:.2f}"
                  + (" (warning: above 0.5)"
                     if host["load_1m"] > run.LOAD_WARNING else ""),
                  flush=True)
    return results


def compare(spec: Dict[str, Any], sets: List[List[Dict[str, Any]]],
            names: List[str]) -> List[str]:
    """Print the spread table; return the reasons to fail."""
    failures: List[str] = []
    print(f"{'workload':<18} {'metric':<13} {'bound':>6}  "
          "per set: median (spread) [worse than set 1]")
    for workload in names:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            cells = []
            first: Optional[float] = None
            for number, results in enumerate(sets, start=1):
                values = [r["values"][name] for r in results
                          if r["workload"] == workload and r["trace"] == 0]
                median = statistics.median(values)
                cell = f"{median:.4g}"
                if len(values) >= 4:
                    spread = stats.quartile_spread(values)
                    cell += f" ({spread:.1%})"
                    if name != "setup_s" and spread > bound:
                        failures.append(f"{workload} {name}: spread "
                                        f"{spread:.1%} of set {number} "
                                        f"exceeds {bound:.0%}")
                if first is None:
                    first = median
                else:
                    worse = worsening(first, median, metric["better"])
                    cell += f" [{worse:+.1%}]"
                    if worse > bound:
                        failures.append(f"{workload} {name}: set {number} is "
                                        f"{worse:.1%} worse than set 1 "
                                        f"(bound {bound:.0%})")
                cells.append(cell)
            print(f"{workload:<18} {name:<13} {bound:>6.0%}  "
                  + "   ".join(cells))
    failures.extend(count_differences(spec, sets))
    for results in sets:
        failures.extend(f"{r['workload']} seed {r['seed']} trace {r['trace']}: "
                        "correctness checks failed"
                        for r in results if not r["correct"])
    return failures


def count_differences(spec: Dict[str, Any],
                      sets: List[List[Dict[str, Any]]]) -> List[str]:
    exact = [m["name"] for m in spec["per_layer"]
             if m["unit"] in EXACT_UNITS]
    seen: Dict[Tuple[str, int, str], Any] = {}
    differences = []
    for number, results in enumerate(sets, start=1):
        for result in results:
            if result["trace"] != 1 or result["truncated"]:
                continue
            for name in exact:
                key = (result["workload"], result["seed"], name)
                value = result["values"][name]
                if seen.setdefault(key, value) != value:
                    differences.append(
                        f"{result['workload']} {name}: {value!r} in set "
                        f"{number}, {seen[key]!r} in set 1")
    return differences


def main(argv: Optional[List[str]] = None) -> int:
    spec = run.load_spec()
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seeds", type=int, default=1,
                        help="seeds per set (10 for the acceptance procedure)")
    parser.add_argument("--seed", type=int, default=1, help="first seed")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--no-trace", action="store_true",
                        help="skip the traced runs (and the count comparison)")
    parser.add_argument("--out", help="write every result here as JSON")
    args = parser.parse_args(argv)

    chosen = [args.workload] if args.workload else names
    seeds = list(range(args.seed, args.seed + args.seeds))
    sets = []
    try:
        for number in range(1, args.sets + 1):
            print(f"set {number} of {args.sets}", flush=True)
            sets.append(run_set(chosen, seeds, args.seconds,
                                not args.no_trace))
    except (run.ChildFailed, subprocess.TimeoutExpired) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    if args.out:
        pathlib.Path(args.out).write_text(json.dumps(sets, indent=1),
                                          encoding="utf-8")
    failures = compare(spec, sets, chosen)
    for failure in failures:
        print(f"FAIL: {failure}")
    print("repeat: " + ("sets disagree" if failures else "sets agree"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
