"""The one command: run the benchmark, print every metric, check outputs.

    python3 -m bench_e2e.run [--workload NAME] [--seed N] [--seconds S]
                             [--trace 0|1] [--smoke] [--out PATH]

Run from the repository root. Each workload runs in its own fresh
child interpreter (``bench_e2e.child``, given ``PYTHONPATH=src``), one
after another, never concurrently. Without ``--workload`` every
workload runs; without ``--trace`` both passes run. For each run this
prints the metrics by name with their units, the sample counts and the
verdict of every correctness check, then — as the last line of
standard output — one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics of
``BENCHMARK.json`` for ``--trace 0``, its per-layer metrics for
``--trace 1``). The exit code is non-zero when a check fails, a child
dies, or the program cannot be imported.

Journals and other scratch files live under ``bench_e2e/.scratch`` for
the length of a run and are removed with it.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
from typing import Any, Dict, List, Optional

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRATCH = ROOT / "bench_e2e" / ".scratch"
#: Above this 1-minute load average another process is competing for
#: the two cores and timings are suspect.
LOAD_WARNING = 0.5


class ChildFailed(RuntimeError):
    """The child interpreter exited without a result."""


def load_spec() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def metric_table(spec: Dict[str, Any], trace: int) -> List[Dict[str, Any]]:
    return spec["end_to_end"] if trace == 0 else spec["per_layer"]


def run_child(workload: str, seed: int, seconds: float, trace: int,
              smoke: bool = False, spans: Optional[str] = None) -> Dict[str, Any]:
    """One workload, one pass mode, in a fresh interpreter."""
    SCRATCH.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{workload}-", dir=SCRATCH)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # Anything the program parks in a temp dir stays inside the checkout.
    env["TMPDIR"] = scratch
    command = [sys.executable, "-m", "bench_e2e.child",
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--scratch", scratch]
    if smoke:
        command.append("--smoke")
    if spans:
        command += ["--spans", str(pathlib.Path(spans).resolve())]
    try:
        done = subprocess.run(command, cwd=ROOT, env=env, text=True,
                              stdout=subprocess.PIPE, timeout=170)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        if not any(SCRATCH.iterdir()):
            SCRATCH.rmdir()
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise ChildFailed(f"{workload} (trace {trace}) exited with code "
                          f"{done.returncode} and no result")
    return json.loads(lines[-1])


def contract_result(result: Dict[str, Any],
                    spec: Dict[str, Any]) -> Dict[str, Any]:
    """The JSON object the driver reads; fails on a missing metric."""
    values = result["values"]
    metrics = {}
    for metric in metric_table(spec, result["trace"]):
        if metric["name"] not in values:
            raise ChildFailed(f"{result['workload']} reported no "
                              f"{metric['name']}")
        metrics[metric["name"]] = {"value": values[metric["name"]],
                                   "unit": metric["unit"]}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def report(result: Dict[str, Any], spec: Dict[str, Any]) -> None:
    """Every metric by name with its unit, then the checks."""
    host = result["host"]
    mode = "traced" if result["trace"] else "untraced"
    print(f"== {result['workload']} ({mode}, seed {result['seed']}, "
          f"{result['seconds']:g}s{', smoke' if result['smoke'] else ''}) "
          f"— host_cpus={host['host_cpus']} python={host['python']} "
          f"load_1m={host['load_1m']:.2f}")
    if host["load_1m"] > LOAD_WARNING:
        print(f"   warning: load average {host['load_1m']:.2f} > "
              f"{LOAD_WARNING}; something else is running")
    samples = ", ".join(f"{count} {name}"
                        for name, count in result["samples"].items())
    print(f"   samples: {samples}; attempted {result['attempted']}, "
          f"failed {result['failed']}"
          + ("; TRUNCATED by the deadline" if result["truncated"] else ""))
    for metric in metric_table(spec, result["trace"]):
        value = result["values"].get(metric["name"])
        if value is None:
            continue
        gate = f"  (bound {metric['bound']:.0%})" if "bound" in metric else ""
        print(f"   {metric['name']:<34} {value:>14.4f} {metric['unit']}{gate}")
    for check in result["checks"]:
        verdict = "ok  " if check["ok"] else "FAIL"
        detail = f" — {check['detail']}" if check["detail"] and not check["ok"] else ""
        print(f"   [{verdict}] {check['name']}{detail}")


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names,
                        help="one workload (default: all, in order)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end pass, 1: per-layer pass "
                             "(default: both)")
    parser.add_argument("--smoke", action="store_true",
                        help="op counts / 20, same shapes; never record "
                             "these numbers")
    parser.add_argument("--out", help="write every result here as JSON")
    parser.add_argument("--spans", help="with --workload and --trace 1: "
                                        "write the raw spans here")
    args = parser.parse_args(argv)

    results = []
    correct = True
    for workload in ([args.workload] if args.workload else names):
        for trace in ((args.trace,) if args.trace is not None else (0, 1)):
            try:
                result = run_child(workload, args.seed, args.seconds, trace,
                                   smoke=args.smoke,
                                   spans=args.spans if trace else None)
                line = contract_result(result, spec)
            except (ChildFailed, subprocess.TimeoutExpired) as error:
                print(f"error: {error}", file=sys.stderr)
                return 1
            report(result, spec)
            print(json.dumps(line))
            results.append(result)
            correct = correct and result["correct"]
    if args.out:
        pathlib.Path(args.out).write_text(json.dumps(results, indent=1),
                                          encoding="utf-8")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
