"""Generate the search corpus tier-1 compares the single search path against.

``search_digests.json`` (next to this file) pins, for every case of a
grid of small synthetic design problems, what each search reports:

* the chosen allocation (every workload's share tuple),
* ``total_cost`` as ``float.hex()``,
* the evaluation count and the ``stopped`` flag,
* the order in which ``(workload, allocation)`` pairs became fresh
  evaluations, as the first 16 hex digits of a SHA-256 over their
  ``repr`` (plus their number).

The grid is 3 algorithms x 2-3 workloads x 1/2/3 controlled resources x
grid 4/6/8 x evaluation budget {None, 1, 2, 3, 5, 8, 13, 21} x a cold or
warm memo (warm: every workload's uniform allocation at odd unit counts
is costed before the search starts), 864 cases.

The committed file was generated at commit
``5202deca0f81a502d0f4349a91cd020f992e1669`` — the parent of the change
that deleted the search module's unbatched strategies — through *both*
of that commit's paths: ``batched`` with a one-worker
:class:`~repro.parallel.EvaluationEngine` attached (the strategy that
remains) and ``unbatched`` with ``engine=None`` (the per-matrix
exhaustive loop, per-candidate greedy probe and per-option DP costing
that were deleted). ``tests/core/test_search_digests.py`` requires the
current code with ``engine=None`` to reproduce every ``batched`` entry;
the ``unbatched`` entries record how the deleted path differed.

To regenerate, copy this file onto a checkout of the commit above and
run, from the checkout's root::

    PYTHONPATH=src:. python tests/core/fixtures/generate.py

It refuses to run on a checkout without the unbatched strategies (its
output would no longer be a reference) and never replaces an existing
corpus.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import pathlib
import subprocess
import sys

from repro.core import search as search_module
from repro.core.search import ALGORITHMS, make_algorithm
from repro.parallel import EvaluationEngine
from repro.util.errors import AllocationError
from repro.virt.resources import ResourceKind

from tests.parallel.test_search_parallel import SyntheticCostModel, make_problem

HERE = pathlib.Path(__file__).parent
DIGEST_PATH = HERE / "search_digests.json"

#: name -> (cpu, memory, io) weights; the first ``n`` names form an
#: ``n``-workload problem.
WEIGHTS = {
    "cpu-hungry": (10.0, 1.0, 2.0),
    "mem-hungry": (1.0, 10.0, 3.0),
    "io-hungry": (4.0, 3.0, 9.0),
}
WORKLOAD_COUNTS = (2, 3)
RESOURCES = {
    "cpu": (ResourceKind.CPU,),
    "cpu,memory": (ResourceKind.CPU, ResourceKind.MEMORY),
    "cpu,memory,io": (ResourceKind.CPU, ResourceKind.MEMORY, ResourceKind.IO),
}
GRIDS = (4, 6, 8)
BUDGETS = (None, 1, 2, 3, 5, 8, 13, 21)
MEMOS = ("cold", "warm")


class RecordingModel(SyntheticCostModel):
    """The synthetic model plus an io term, recording fresh pairs in order.

    Without the io term every io split would tie; with it the
    three-resource cases have a cost surface of their own.
    """

    def __init__(self, weights):
        super().__init__({name: w[:2] for name, w in weights.items()})
        self._io_weights = {name: w[2] for name, w in weights.items()}
        self.fresh_order = []

    def _cost(self, spec, allocation):
        self.fresh_order.append((spec.name, allocation.as_tuple()))
        return (super()._cost(spec, allocation)
                + self._io_weights[spec.name] / max(allocation.io, 1e-9))


def case_keys():
    for algorithm, n, resources, grid, budget, memo in itertools.product(
            sorted(ALGORITHMS), WORKLOAD_COUNTS, RESOURCES, GRIDS, BUDGETS,
            MEMOS):
        yield (f"{algorithm}|w={n}|r={resources}|g={grid}|b={budget}|{memo}",
               (algorithm, n, resources, grid, budget, memo))


def run_case(algorithm, n, resources, grid, budget, memo, engine) -> dict:
    """One search on a fresh model; everything it reports, as plain data."""
    weights = dict(list(WEIGHTS.items())[:n])
    problem, _unused = make_problem(weights, controlled=RESOURCES[resources])
    model = RecordingModel(weights)
    search = make_algorithm(algorithm, grid=grid, max_evaluations=budget,
                            engine=engine)
    if memo == "warm":
        uniform = [{kind: units for kind in RESOURCES[resources]}
                   for units in range(1, grid, 2)]
        model.cost_many([(spec, search._vector(problem, spec.name, units))
                         for units in uniform for spec in problem.specs])
        model.fresh_order.clear()
    try:
        result = search.search(problem, model)
    except AllocationError as exc:
        return {"error": str(exc)}
    fresh = repr(model.fresh_order).encode()
    return {
        "allocation": {
            name: list(result.allocation.vector_for(name).as_tuple())
            for name in result.allocation.workload_names()
        },
        "total_cost": result.total_cost.hex(),
        "evaluations": result.evaluations,
        "stopped": result.stopped,
        "fresh": len(model.fresh_order),
        "fresh_sha256": hashlib.sha256(fresh).hexdigest()[:16],
    }


def compute(engine=None) -> dict:
    """Every case, through one search path (``engine`` as given)."""
    return {key: run_case(*case, engine=engine) for key, case in case_keys()}


def main() -> int:
    if DIGEST_PATH.exists():
        print(f"{DIGEST_PATH} exists; it is never replaced", file=sys.stderr)
        return 1
    if not hasattr(search_module.ExhaustiveSearch, "_enumerate_serial"):
        print("this checkout has no unbatched search strategies; generate "
              "on the commit named in this file's docstring", file=sys.stderr)
        return 1
    with EvaluationEngine(workers=1) as engine:
        batched = compute(engine)
    unbatched = compute(None)
    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
        check=True).stdout.strip()
    header = {
        "commit": commit,
        "paths": ["batched: EvaluationEngine(workers=1)",
                  "unbatched: engine=None"],
        "note": "one case per line; unbatched is \"same\" where both "
                "paths reported the same",
    }
    lines = []
    for key in batched:
        case = {"batched": batched[key],
                "unbatched": ("same" if unbatched[key] == batched[key]
                              else unbatched[key])}
        lines.append(f"  {json.dumps(key)}: "
                     f"{json.dumps(case, sort_keys=True)}")
    DIGEST_PATH.write_text(
        "{\n \"header\": " + json.dumps(header, sort_keys=True)
        + ",\n \"cases\": {\n" + ",\n".join(lines) + "\n }\n}\n")
    print(f"wrote {len(batched)} cases to {DIGEST_PATH} at {commit}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
