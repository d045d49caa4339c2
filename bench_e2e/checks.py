"""Correctness checks on what the timed ops returned.

References come from outside the code under test where that is cheap:
Q1 and Q6 are recomputed in plain Python from the data generator's
rows, the other measured queries are pinned by ``golden.json``, design
feasibility is arithmetic on the returned shares, and the supervised
run is compared with an uninterrupted reference. Every check runs
after the timed region it judges.

``PYTHONPATH=src python -m bench_e2e.checks`` prints a fresh
``golden.json`` (redirect it over the committed file only when query
results are *meant* to change).
"""

from __future__ import annotations

import hashlib
import json
import math
import pathlib
from collections import defaultdict
from typing import Any, Dict, Iterable, List, NamedTuple, Tuple

from bench_e2e import oplists

GOLDEN_PATH = pathlib.Path(__file__).with_name("golden.json")
FLOAT_DIGITS = 6
TOLERANCE = 1e-9


class Check(NamedTuple):
    name: str
    ok: bool
    detail: str


def load_golden() -> Dict[str, Any]:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


class Checker:
    """Collects named verdicts (one line per check, however many ops) and
    the counts the checks produce on the way."""

    def __init__(self) -> None:
        self.results: List[Check] = []
        #: Evaluations a resumed run costed differently because their
        #: allocation is served by a fallback (see journal_divergence).
        self.counts = {"recovery.fallback_divergent": 0}
        #: Put before every check name (which pass is being judged).
        self.prefix = ""

    def expect(self, name: str, ok: bool, detail: str = "") -> None:
        self.results.append(Check(self.prefix + name, bool(ok), detail))

    def expect_none(self, name: str, violations: Iterable[str]) -> None:
        """Passes when *violations* is empty; reports the first few."""
        found = list(violations)
        detail = "; ".join(found[:3])
        if len(found) > 3:
            detail += f"; ... {len(found)} in all"
        self.expect(name, not found, detail)

    @property
    def correct(self) -> bool:
        return all(check.ok for check in self.results)


# -- designs --------------------------------------------------------------

def design_violations(output: Dict[str, Any]) -> List[str]:
    """Ways one design breaks feasibility or loses to the default split."""
    if not isinstance(output, dict):
        return [f"op raised {output!r}"]
    found = []
    axes = ("cpu", "memory", "io")
    allocation = output["allocation"]
    for axis, kind in enumerate(axes):
        shares = [vector[axis] for vector in allocation.values()]
        if kind in output["controlled"] and abs(sum(shares) - 1.0) > TOLERANCE:
            found.append(f"{kind} shares sum to {sum(shares)!r}")
        floor = output["minimum_shares"][kind]
        if min(shares) <= 0 or min(shares) < floor - TOLERANCE:
            found.append(f"{kind} share {min(shares)!r} below {floor!r}")
    # The equal split is a candidate of the search only when it lies on
    # the grid (three workloads at grid 8 split 1/3 each: off the grid).
    on_grid = output["grid"] % len(allocation) == 0
    if on_grid and output["predicted_total"] > output["default_total"] + TOLERANCE:
        found.append(f"predicted {output['predicted_total']!r} worse than "
                     f"default {output['default_total']!r}")
    return found


def check_designs(checker: Checker, outputs: List[Any]) -> None:
    checker.expect_none(
        "designs feasible and no worse than the default split",
        (f"op {index}: {problem}" for index, output in enumerate(outputs)
         for problem in design_violations(output)))


def check_design_cold(checker: Checker, outputs: List[Any],
                      cli_stdout: str = "") -> None:
    check_designs(checker, outputs)
    first = outputs[0]
    checker.expect("identical ops bit-identical",
                   all(output == first for output in outputs))
    if not isinstance(first, dict):
        return
    cpu = {name: vector[0] for name, vector in first["allocation"].items()}
    checker.expect("Fig. 5 shape: cust-report gets at least order-audit's CPU",
                   cpu["cust-report"] >= cpu["order-audit"], repr(cpu))
    golden = load_golden()["design_cold"]
    checker.expect("allocation equals golden.json",
                   first["allocation"] == golden["allocation"]
                   and first["evaluations"] == golden["evaluations"],
                   repr(first["allocation"]))
    if cli_stdout:
        checker.expect("in-process design equals the subprocess CLI's",
                       cli_stdout.strip() == first["summary"].strip(),
                       cli_stdout.strip()[:200])


def check_whatif_sweep(checker: Checker, ops: List[Dict[str, Any]],
                       outputs: List[Any], replayed: Any,
                       fresh_calibrations: float) -> None:
    check_designs(checker, outputs)
    totals: Dict[int, Dict[str, float]] = defaultdict(dict)
    for op, output in zip(ops, outputs):
        if isinstance(output, dict):
            totals[op["problem"]][op["algorithm"]] = output["predicted_total"]
    checker.expect_none(
        "exhaustive no worse than greedy or dynamic programming",
        (f"problem {problem}: {by_algorithm!r}"
         for problem, by_algorithm in sorted(totals.items())
         if "exhaustive" in by_algorithm
         and by_algorithm["exhaustive"] > min(by_algorithm.values()) + TOLERANCE))
    checker.expect("replayed op bit-identical", replayed == outputs[0])
    checker.expect("lattice warm: no fresh calibration in the timed run",
                   fresh_calibrations == 0, f"{fresh_calibrations:g} fresh")


# -- measured executions --------------------------------------------------

def normalize(value: Any) -> str:
    if isinstance(value, float):
        return format(value, f".{FLOAT_DIGITS}g")
    return str(value)


def rows_digest(rows: Iterable[tuple]) -> str:
    """Order-insensitive digest of a result; floats to six digits."""
    lines = sorted("|".join(normalize(value) for value in row) for row in rows)
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()[:16]


def reference_q1_q6(lineitem_rows: Iterable[tuple]) -> Dict[str, List[tuple]]:
    """Q1 and Q6 answers straight from generated rows, in plain Python."""
    import datetime

    q1_cutoff = datetime.date(1998, 12, 1) - datetime.timedelta(days=90)
    q6_from, q6_to = datetime.date(1994, 1, 1), datetime.date(1995, 1, 1)
    groups: Dict[Tuple[str, str], List[float]] = {}
    revenue = []
    for row in lineitem_rows:
        quantity, price, discount, tax, flag, status = row[4:10]
        shipped = row[10].to_date()
        if shipped <= q1_cutoff:
            sums = groups.setdefault((flag, status), [0.0] * 6)
            discounted = price * (1 - discount)
            for slot, amount in enumerate((quantity, price, discounted,
                                           discounted * (1 + tax), discount)):
                sums[slot] += amount
            sums[5] += 1
        if (q6_from <= shipped < q6_to and 0.05 <= discount <= 0.07
                and quantity < 24):
            revenue.append(price * discount)
    q1 = [(flag, status, qty, base, disc_price, charge,
           qty / count, base / count, disc / count, int(count))
          for (flag, status), (qty, base, disc_price, charge, disc, count)
          in sorted(groups.items())]
    return {"Q1": q1, "Q6": [(math.fsum(revenue),)]}


def rows_differ(got: List[tuple], want: List[tuple]) -> bool:
    if len(got) != len(want):
        return True
    for got_row, want_row in zip(got, want):
        for mine, theirs in zip(got_row, want_row):
            if isinstance(theirs, float):
                if not math.isclose(mine, theirs, rel_tol=1e-9):
                    return True
            elif mine != theirs:
                return True
    return False


def check_measure_exec(checker: Checker, outputs: List[Any],
                       results: Dict[Tuple[str, float], List[tuple]],
                       lineitem_rows: Iterable[tuple]) -> None:
    """*results* maps (query, memory share) to the rows it returned."""
    by_key: Dict[tuple, set] = defaultdict(set)
    bad = []
    for index, output in enumerate(outputs):
        if not isinstance(output, dict):
            bad.append(f"op {index} raised {output!r}")
            continue
        seconds = output["simulated_seconds"]
        if not (math.isfinite(seconds) and seconds > 0):
            bad.append(f"op {index}: simulated {seconds!r}s")
        by_key[(output["query"], output["cpu"], output["memory"])].add(seconds)
    checker.expect_none("every op returns a positive simulated time", bad)
    checker.expect_none(
        "identical ops bit-identical",
        (f"{key}: {sorted(values)}" for key, values in sorted(by_key.items())
         if len(values) > 1))
    slower = []
    for (query, cpu, memory), values in sorted(by_key.items()):
        for other in (c for c in (0.25, 0.5, 0.75) if c > cpu):
            for faster in by_key.get((query, other, memory), ()):
                if faster > min(values) + TOLERANCE:
                    slower.append(f"{query} mem {memory}: cpu {other} slower "
                                  f"than cpu {cpu}")
    checker.expect_none("more CPU is never slower", slower)

    golden = load_golden()["measure_exec"]
    wrong = []
    for (query, memory), rows in sorted(results.items()):
        want = golden[query]
        got = {"rows": len(rows), "digest": rows_digest(rows)}
        if got != want:
            wrong.append(f"{query} at memory {memory}: {got} != {want}")
    checker.expect_none("results equal golden.json at both pool sizes", wrong)
    reference = reference_q1_q6(lineitem_rows)
    checker.expect_none(
        "Q1 and Q6 equal a plain-Python recomputation",
        (f"{query} at memory {memory}" for (query, memory), rows
         in sorted(results.items())
         if query in reference and rows_differ(rows, reference[query])))


# -- supervised resume ----------------------------------------------------

def journal_units(path) -> List[Tuple[str, Any, tuple, Any]]:
    """``(kind, workload, allocation, payload)`` per record after the header."""
    units = []
    for line in pathlib.Path(path).read_text(encoding="utf-8").splitlines()[1:]:
        record = json.loads(line)
        kind, data = record["kind"], record["data"]
        if kind == "calibration":
            units.append((kind, None, tuple(data["allocation"]),
                          data["parameters"]))
        elif kind == "evaluation":
            units.append((kind, data["workload"], tuple(data["allocation"]),
                          data["cost"]))
        else:
            units.append((kind, None, (), data))
    return units


def journal_divergence(path, reference_path) -> Tuple[List[str], int]:
    """Compare a resumed journal with the uninterrupted one.

    Returns ``(violations, fallback_divergent)``. A record must match
    the reference exactly, except the cost of an evaluation at an
    allocation the reference never managed to calibrate: that one is
    served by the nearest-calibrated fallback, whose choice depends on
    what the cache held at the time, so a resumed run may differ
    there. Those are counted, not failed.
    """
    got, want = journal_units(path), journal_units(reference_path)
    calibrated = {allocation for kind, _workload, allocation, _payload in want
                  if kind == "calibration"}
    violations, tolerated = [], 0
    if len(got) != len(want):
        violations.append(f"{len(got)} records, reference has {len(want)}")
    for index, (mine, theirs) in enumerate(zip(got, want)):
        if mine == theirs:
            continue
        kind, _workload, allocation, _payload = theirs
        if (kind == "evaluation" and mine[:3] == theirs[:3]
                and allocation not in calibrated):
            tolerated += 1
        else:
            violations.append(f"record {index + 1}: {mine[:3]} != {theirs[:3]}")
    return violations, tolerated


def check_supervised_resume(checker: Checker, outputs: List[Any],
                            reference: Dict[str, Any], reference_journal,
                            total_units: int) -> None:
    """*reference* is the uninterrupted run's design output."""
    wanted = {key: reference[key]
              for key in ("allocation", "predicted", "predicted_total")}
    bad, torn = [], []
    for index, output in enumerate(outputs):
        if not isinstance(output, dict):
            bad.append(f"op {index} raised {output!r}")
            continue
        if output["killed_completed"] or not output["completed"]:
            bad.append(f"op {index}: kill/resume did not happen")
            continue
        if (output["replayed_units"] != total_units // 2 or
                output["replayed_units"] + output["new_units"] != total_units):
            bad.append(f"op {index}: {output['replayed_units']} replayed + "
                       f"{output['new_units']} new != {total_units}")
        design = output["design"]
        if {key: design[key] for key in wanted} != wanted:
            bad.append(f"op {index}: design differs from the reference run")
        violations, tolerated = journal_divergence(output["journal"],
                                                   reference_journal)
        torn.extend(f"op {index}: {problem}" for problem in violations)
        checker.counts["recovery.fallback_divergent"] += tolerated
    check_designs(checker, [output["design"] for output in outputs
                            if isinstance(output, dict)])
    checker.expect_none("resumed design equals the uninterrupted run's", bad)
    checker.expect_none("resumed journal equals the uninterrupted run's, "
                        "torn tail notwithstanding", torn)


# -- serve ----------------------------------------------------------------

def check_serve_closed(checker: Checker, outputs: List[Any], attempted: int,
                       counted_requests: float, failures: List[str]) -> None:
    responses = [response for _request, response in outputs]
    checker.expect("one response per request",
                   len(responses) == attempted
                   and all(getattr(response, "request", None) is request
                           for request, response in outputs),
                   f"{len(responses)} responses for {attempted} requests")
    statuses = defaultdict(int)
    for response in responses:
        statuses[getattr(response, "status", "raised")] += 1
    known = sum(statuses[s] for s in ("answered", "degraded", "rejected"))
    checker.expect("counts conserve",
                   known == attempted and counted_requests == attempted,
                   f"{dict(statuses)!r}; registry counted "
                   f"{counted_requests:g} of {attempted}")
    checker.expect_none("no request shed, untyped, or past its deadline",
                        failures)


# -- golden ---------------------------------------------------------------

def build_golden() -> Dict[str, Any]:
    """Run the golden-pinned ops once and return what they produce."""
    import tempfile

    from bench_e2e import workloads

    with tempfile.TemporaryDirectory() as scratch:
        cold = workloads.DesignCold(pathlib.Path(scratch))
        design = cold.run_op({})
        executor = workloads.MeasureExec(pathlib.Path(scratch))
        executor.setup()
        queries = {}
        for query in oplists.EXEC_QUERIES:
            rows = executor.rows_at(query, 0.75)
            queries[query] = {"rows": len(rows), "digest": rows_digest(rows)}
    return {
        "design_cold": {"allocation": design["allocation"],
                        "evaluations": design["evaluations"]},
        "measure_exec": queries,
    }


if __name__ == "__main__":
    print(json.dumps(build_golden(), indent=2, sort_keys=True))
