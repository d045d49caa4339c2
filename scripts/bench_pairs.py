"""Paired parent/change runs of the end-to-end benchmark.

    python scripts/bench_pairs.py --base REV [--workload W ...] [--pairs 10]
        [--seed 1] [--smoke] [--traced]
        [--append benchmarks/results/e2e_pairs.jsonl]

Host speed moves severalfold between sessions, so only paired numbers
compare two commits. The *change* is this checkout's working tree; the
*base* is the committed tree of ``REV``, exported with ``git archive``
into a temporary directory (so a killed run leaves no git state behind,
and ``--base HEAD`` works in a shallow clone) and removed afterwards.

Per workload: ``__pycache__`` is cleared in both trees and every run
has ``PYTHONDONTWRITEBYTECODE=1``, so both sides import from source;
one untraced ``python3 -m bench_e2e.run`` per side is run and
discarded as a warm-up; then ``--pairs`` alternating pairs (base first
in even pairs, change first in odd ones). For each end-to-end metric of
``BENCHMARK.json`` it prints both sides' median and quartiles, the
median ratio (change ÷ base), in how many pairs the change was better,
and whether the gap between the medians, in the better direction,
exceeds the base's interquartile range. ``--traced`` adds one
``--trace 1`` run per side, diffs every exact per-layer count (units
count, bytes, pages, ratio) and prints each layer's self time.

Every run lasts ``BENCHMARK.json``'s ``run_seconds`` (``--smoke``
shortens both sides alike; such records are marked ``smoke``).
``--append PATH`` adds one JSON line: base and head commits (``head``
is the checked-out commit; ``head_dirty`` says uncommitted changes were
measured on top of it), ``head_src``, the git tree id of ``src/`` as
measured (uncommitted edits included, so the commit that adds the line
must hold exactly that tree), ``host_cpus``, the 1-minute load average
before and after, and per workload the median ratios and win counts.
Only the standard library is used. Exit status: 0, or 1 when a run
fails or reports ``correct: false``.
"""

from __future__ import annotations

import argparse
import datetime
import io
import json
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from typing import Dict, List, Optional, Sequence

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Per-layer units that must repeat exactly for a given op list.
EXACT_UNITS = ("count", "bytes", "pages", "ratio")

SCHEMA = "bench-pairs/1"


class RunFailed(RuntimeError):
    """A benchmark run exited non-zero or reported failed checks."""


def git(*args: str, env: Optional[Dict[str, str]] = None) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, text=True,
                          stdout=subprocess.PIPE, env=env).stdout.strip()


def src_tree() -> str:
    """Git tree id of this checkout's ``src/`` as it is on disk."""
    with tempfile.TemporaryDirectory(prefix="bench-pairs-index-") as scratch:
        # A throwaway index: the real one and HEAD stay as they are.
        # Starting it from HEAD keeps tracked files that .gitignore
        # matches, as a commit of this checkout would.
        env = dict(os.environ, GIT_INDEX_FILE=os.path.join(scratch, "index"))
        git("read-tree", "HEAD", env=env)
        git("add", "--all", "--", "src", env=env)
        return git("write-tree", "--prefix=src/", env=env)


def export_tree(rev: str, destination: pathlib.Path) -> None:
    """Write the committed tree of *rev* into *destination*."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev],
                             cwd=ROOT, check=True, stdout=subprocess.PIPE)
    destination.mkdir(parents=True)
    # The "data" filter (refuse absolute paths, links out of the tree)
    # exists from Python 3.10.12 / 3.11.4 on.
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(destination, **safe)


def clear_bytecode(tree: pathlib.Path) -> None:
    for top in ("src", "bench_e2e"):
        for cache in (tree / top).rglob("__pycache__"):
            shutil.rmtree(cache, ignore_errors=True)


def run_once(tree: pathlib.Path, workload: str, seed: int, trace: int,
             smoke: bool) -> Dict[str, float]:
    """One ``bench_e2e.run`` in *tree*; its metric values by name."""
    command = [sys.executable, "-m", "bench_e2e.run", "--workload", workload,
               "--seed", str(seed), "--trace", str(trace)]
    if smoke:
        command.append("--smoke")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)  # the harness points its child at tree/src
    done = subprocess.run(command, cwd=tree, env=env, text=True,
                          stdout=subprocess.PIPE)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RunFailed(f"{workload} in {tree} exited {done.returncode} "
                        f"without a result")
    result = json.loads(lines[-1])
    if done.returncode != 0 or not result["correct"] or result["failed"]:
        raise RunFailed(f"{workload} in {tree}: exit {done.returncode}, "
                        f"correct={result['correct']}, failed={result['failed']}")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def quartiles(values: Sequence[float]) -> List[float]:
    """First quartile, median, third quartile (inclusive method)."""
    if len(values) == 1:
        return [values[0]] * 3
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, median, q3]


def summarize(base: Sequence[float], head: Sequence[float],
              better: str) -> Dict[str, object]:
    """Paired summary of one metric; *better* is "higher" or "lower"."""
    sign = 1.0 if better == "higher" else -1.0
    base_q, head_q = quartiles(base), quartiles(head)
    gap = sign * (head_q[1] - base_q[1])
    return {
        "base": base_q,
        "head": head_q,
        "ratio": head_q[1] / base_q[1],
        "wins": sum(1 for b, h in zip(base, head) if sign * (h - b) > 0),
        "pairs": len(base),
        "clears_iqr": gap > 0 and gap > base_q[2] - base_q[0],
    }


def exact_diffs(spec: dict, base: Dict[str, float],
                head: Dict[str, float]) -> List[str]:
    names = [m["name"] for m in spec["per_layer"] if m["unit"] in EXACT_UNITS]
    return [f"{name}: {base.get(name)} -> {head.get(name)}"
            for name in names if base.get(name) != head.get(name)]


def _triple(values: Sequence[float]) -> str:
    return "/".join(f"{x:.4g}" for x in values)


def load_1m() -> float:
    return round(os.getloadavg()[0], 2)


def main(argv: Optional[List[str]] = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="the parent revision")
    parser.add_argument("--workload", action="append", choices=names,
                        help="repeatable; default: every workload")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--smoke", action="store_true",
                        help="pass --smoke through (never record these)")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--append", help="JSON-lines file to add a record to")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    base_commit = git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    record: Dict[str, object] = {
        "schema": SCHEMA,
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"),
        "base": base_commit,
        "head": git("rev-parse", "HEAD"),
        "head_dirty": bool(git("status", "--porcelain")),
        "head_src": src_tree(),
        "host_cpus": os.cpu_count(),
        "python": platform.python_version(),
        "load_1m_before": load_1m(),
        "seed": args.seed,
        "pairs": args.pairs,
        "smoke": args.smoke,
    }
    workloads: Dict[str, object] = {}
    scratch = pathlib.Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    trees = {"base": scratch / "base", "head": ROOT}
    try:
        export_tree(base_commit, trees["base"])
        for workload in args.workload or names:
            workloads[workload] = measure(spec, trees, workload, args)
    except RunFailed as exc:
        print(f"FAILED: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    record.update(load_1m_after=load_1m(), workloads=workloads)
    if args.append:
        with open(args.append, "a", encoding="utf-8") as out:
            out.write(json.dumps(record, sort_keys=True) + "\n")
    return 0


def measure(spec: dict, trees: Dict[str, pathlib.Path], workload: str,
            args: argparse.Namespace) -> Dict[str, object]:
    for tree in trees.values():
        clear_bytecode(tree)

    def run(side: str, trace: int = 0) -> Dict[str, float]:
        return run_once(trees[side], workload, args.seed, trace, args.smoke)

    print(f"== {workload}: warm-up, then {args.pairs} alternating pairs",
          flush=True)
    run("base")
    run("head")
    values: Dict[str, List[Dict[str, float]]] = {"base": [], "head": []}
    for pair in range(args.pairs):
        for side in (("base", "head") if pair % 2 == 0 else ("head", "base")):
            values[side].append(run(side))
    out: Dict[str, object] = {}
    print(f"   {'metric':<13} {'base q1/med/q3':>28} {'change q1/med/q3':>28}"
          f" {'ratio':>7} {'wins':>6}  gap > base IQR")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        row = summarize([v[name] for v in values["base"]],
                        [v[name] for v in values["head"]], metric["better"])
        out[name] = {"ratio": row["ratio"], "wins": row["wins"]}
        print(f"   {name:<13} {_triple(row['base']):>28} {_triple(row['head']):>28} "
              f"{row['ratio']:>7.3f} {row['wins']:>3}/{row['pairs']:<2}  "
              f"{'yes' if row['clears_iqr'] else 'no'}", flush=True)
    if args.traced:
        base, head = run("base", 1), run("head", 1)
        diffs = exact_diffs(spec, base, head)
        print("   traced exact counts: "
              + ("equal" if not diffs else "DIFFER\n     " + "\n     ".join(diffs)),
              flush=True)
        out["counts_equal"] = not diffs
        # One traced run per side: where the time went, not a claim.
        for metric in spec["per_layer"]:
            name = metric["name"]
            if name.endswith(".self_ms") and (base.get(name) or head.get(name)):
                print(f"   traced {name}: {base.get(name, 0):.1f} -> "
                      f"{head.get(name, 0):.1f} ms", flush=True)
    return out


if __name__ == "__main__":
    sys.exit(main())
