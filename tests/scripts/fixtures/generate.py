"""Generate the verdict corpus the table-driven bench gate is held to.

``check_bench_verdicts.json`` (next to this file) records what the
*hand-written* ``scripts/check_bench.py`` — seven ``check_<suite>``
walkers, ten gate flags — said about a systematic single-leaf mutation
corpus over the seven committed ``BENCH_*.json`` files: for every node
of every payload, delete it, give it a wrong type (``bool`` for a
number included), zero it, negate it, scale it by about 1.5 and 0.5,
add an unknown key beside it, drop or duplicate it in its list, reverse
its list (which makes a trajectory non-monotone), flip it if it is a
flag. ``cases[file]`` lists one ``{at, op[, to], verdict}`` per mutation
(:func:`apply` takes it as is), verdict ``pass``, ``fail`` or ``crash``
(the old checker raised instead of reporting). The seven base payloads
are embedded, so the corpus still replays after a nightly run
regenerates the committed files.

The old checker took its thresholds from flags; :func:`caller_gates`
gives each mutated payload the values its real callers passed at the
reference commit (``ci.yml`` bench-smoke and perf, ``nightly.yml``
bench-full), which differ only by the payload's own ``smoke`` field.

The committed file was generated at commit
``c8e5fdc427863938350d19e2181c92428a7981f4``, the parent of the change
that replaced the walkers with one ``SUITES`` table and one
interpreter. On a checkout that no longer has the seven walkers this
script refuses to write, because the output would no longer be a
reference; ``tests/scripts/test_check_bench.py`` replays the corpus
through whatever checker is checked out.

To regenerate (only if the corpus itself must change), copy this file
onto a checkout of the commit above and run, from the checkout's root::

    python tests/scripts/fixtures/generate.py --overwrite

Without ``--overwrite`` an existing verdict file is never replaced.
"""

from __future__ import annotations

import argparse
import copy
import importlib.util
import json
import pathlib
import subprocess
import sys
import tempfile

HERE = pathlib.Path(__file__).parent
REPO_ROOT = HERE.parents[2]
VERDICTS_PATH = HERE / "check_bench_verdicts.json"
CHECKER_PATH = REPO_ROOT / "scripts" / "check_bench.py"
RESULTS_DIR = REPO_ROOT / "benchmarks" / "results"

#: The hand-written walkers whose verdicts are the reference.
OLD_WALKERS = ("check_parallel", "check_surrogate", "check_fleet",
               "check_drift", "check_serve", "check_hotpath",
               "check_codesign")

#: ``check_bench.py``'s flag defaults at the reference commit.
_DEFAULT_GATES = {
    "min_speedup": 1.0, "min_calibration_ratio": 5.0,
    "min_reassignment_gain": 0.0, "max_reconvergence_gap": 0.25,
    "max_serve_p99": 2.0, "max_shed_rate": 0.05,
    "max_degraded_fraction": 0.10, "min_calibration_speedup": 1.0,
    "min_grid_speedup": 1.0, "min_codesign_improvement": 0.0,
}
#: What the callers passed on top: everyone ``--min-reassignment-gain
#: 0.1``; for full-mode files the committed-results gate's 1.5x / 2x /
#: 2% and the nightly's 3x grid speedup.
_SMOKE_FLAGS = {"min_reassignment_gain": 0.1}
_FULL_FLAGS = {"min_reassignment_gain": 0.1, "min_speedup": 1.5,
               "min_calibration_speedup": 2.0, "min_grid_speedup": 3.0,
               "min_codesign_improvement": 0.02}


def caller_gates(payload) -> dict:
    smoke = isinstance(payload, dict) and payload.get("smoke") is True
    return {**_DEFAULT_GATES, **(_SMOKE_FLAGS if smoke else _FULL_FLAGS)}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _replacements(value) -> list:
    """Values a single node is replaced by, the original excluded."""
    if isinstance(value, bool):
        values = [not value, int(value), "x", None]
    elif _is_number(value):
        if isinstance(value, int):
            scaled = [value + max(1, abs(value) // 2), value // 2]
        else:
            scaled = [value * 1.5, value * 0.5]
        values = ["x", True, None, 0, -abs(value) or -1, *scaled]
    elif isinstance(value, str):
        values = [7, "x", None]
    elif value is None:
        values = [0, 1, "x", True]
    elif isinstance(value, dict):
        values = ["x", [], {}]
    else:
        values = ["x", {}, []]
    unique = []
    for candidate in values:
        same = (type(candidate) is type(value) and candidate == value)
        if not same and not any(type(candidate) is type(u) and candidate == u
                                for u in unique):
            unique.append(candidate)
    return unique


def mutations(node, path=()):
    """Every single-node mutation of the JSON tree under *node*."""
    at = list(path)
    if path:
        yield {"at": at, "op": "delete"}
        if isinstance(path[-1], int):
            yield {"at": at, "op": "duplicate"}
    for value in _replacements(node):
        yield {"at": at, "op": "set", "to": value}
    if isinstance(node, dict):
        yield {"at": at, "op": "insert", "to": 1}
        for key, child in node.items():
            yield from mutations(child, path + (key,))
    elif isinstance(node, list):
        if node != node[::-1]:
            yield {"at": at, "op": "reverse"}
        for index, child in enumerate(node):
            yield from mutations(child, path + (index,))


def apply(payload, mutation):
    """A deep copy of *payload* with *mutation* applied."""
    root = {"root": copy.deepcopy(payload)}
    parent, key = root, "root"
    for step in mutation["at"]:
        parent, key = parent[key], step
    op = mutation["op"]
    if op == "delete":
        del parent[key]
    elif op == "duplicate":
        parent.insert(key, copy.deepcopy(parent[key]))
    elif op == "set":
        parent[key] = mutation["to"]
    elif op == "insert":
        parent[key]["_unknown"] = mutation["to"]
    elif op == "reverse":
        parent[key].reverse()
    else:
        raise ValueError(f"unknown mutation op {op!r}")
    return root["root"]


def load_checker():
    spec = importlib.util.spec_from_file_location("check_bench", CHECKER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def old_verdict(checker, payload, scratch: pathlib.Path) -> str:
    scratch.write_text(json.dumps(payload))
    try:
        problems, _ok = checker.check_file(scratch, caller_gates(payload))
    except Exception:  # noqa: BLE001 - a raise *is* the recorded verdict
        return "crash"
    return "fail" if problems else "pass"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--overwrite", action="store_true",
                        help=f"replace an existing {VERDICTS_PATH.name}")
    args = parser.parse_args(argv)

    if VERDICTS_PATH.exists() and not args.overwrite:
        print(f"{VERDICTS_PATH} exists; pass --overwrite to replace it",
              file=sys.stderr)
        return 2
    checker = load_checker()
    missing = [name for name in OLD_WALKERS if not hasattr(checker, name)]
    if missing:
        print(f"this checkout's check_bench.py no longer has the "
              f"hand-written walkers (missing {missing}); generate on the "
              f"commit named in the module docstring", file=sys.stderr)
        return 2

    base, cases = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        scratch = pathlib.Path(tmp) / "mutated.json"
        for path in sorted(RESULTS_DIR.glob("BENCH_*.json")):
            payload = json.loads(path.read_text())
            if old_verdict(checker, payload, scratch) != "pass":
                print(f"{path.name} does not pass unmutated", file=sys.stderr)
                return 2
            base[path.name] = payload
            cases[path.name] = [
                {**mutation, "verdict": old_verdict(
                    checker, apply(payload, mutation), scratch)}
                for mutation in mutations(payload)]
    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=HERE, check=True,
        capture_output=True, text=True).stdout.strip()
    header = {
        "commit": commit,
        "walkers": list(OLD_WALKERS),
        "note": "generated by tests/scripts/fixtures/generate.py through "
                "the hand-written walkers listed above, each payload "
                "under the flags its CI callers passed (caller_gates)",
        "verdicts": {v: sum(case["verdict"] == v
                            for listed in cases.values() for case in listed)
                     for v in ("pass", "fail", "crash")},
    }
    compact = {"separators": (",", ":")}
    per_file = ",\n".join(
        json.dumps(name) + ": [\n"
        + ",\n".join(json.dumps(case, **compact) for case in listed) + "\n]"
        for name, listed in cases.items())
    VERDICTS_PATH.write_text(
        '{"header": ' + json.dumps(header, indent=1)
        + ',\n"base": ' + json.dumps(base, **compact)
        + ',\n"cases": {\n' + per_file + "\n}}\n")
    print(f"wrote {sum(map(len, cases.values()))} cases "
          f"{header['verdicts']} to {VERDICTS_PATH} at {commit}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
