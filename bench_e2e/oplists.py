"""Seeded op lists: the inputs each workload hands to the program.

Pure Python, no ``repro`` import: an op is a small dict of names and
numbers, and the same ``(workload, seed, seconds)`` always yields the
same list. List lengths are constants per second of requested run
time (sized on the 2-core reference sandbox so a list finishes in
about 70 % of ``--seconds``), never a function of how fast the host
happens to be — so counts repeat exactly unless the deadline cuts a
run short on a much slower host.

The lists are *balanced*: the seed decides the order of the ops and the
cheap details (repeat counts, which allocation a query meets when, how
much of a record a crash tore) — not how much work the list holds — so
a metric's value does not depend on the luck of the draw.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List

REFERENCE_SECONDS = 20

#: Ops per workload at ``--seconds 20`` (serve_closed: requests).
REFERENCE_OPS = {
    "design_cold": 3,
    "whatif_sweep": 144,
    "measure_exec": 72,
    "supervised_resume": 3,
    "serve_closed": 30000,
}

SWEEP_QUERIES = ("Q1", "Q3", "Q4", "Q5", "Q6", "Q10", "Q13", "Q14")
SWEEP_RESOURCES = (("cpu",), ("cpu", "memory"), ("cpu", "memory", "io"))
SWEEP_ALGORITHMS = ("exhaustive", "greedy", "dynamic-programming")
SWEEP_SIZES = (2, 3)
SWEEP_SHAPES = tuple((resources, size) for resources in SWEEP_RESOURCES
                     for size in SWEEP_SIZES)
SWEEP_TURN = len(SWEEP_SHAPES) * len(SWEEP_ALGORITHMS)
SWEEP_GRID = 8

EXEC_QUERIES = ("Q1", "Q3", "Q4", "Q5", "Q6", "Q10", "Q12", "Q13", "Q14")
#: (cpu, memory) shares; io stays at 0.5. Memory 0.25 is a pool much
#: smaller than the database, 0.75 a larger one.
EXEC_ALLOCATIONS = tuple((cpu, memory) for cpu in (0.25, 0.5, 0.75)
                         for memory in (0.25, 0.75))

Op = Dict[str, Any]


def scaled(workload: str, seconds: float, smoke: bool = False) -> int:
    """Op count for *seconds* of run time (``--smoke``: a twentieth)."""
    count = REFERENCE_OPS[workload] * seconds / REFERENCE_SECONDS
    if smoke:
        count /= 20
    return max(1, round(count))


def design_cold(seed: int, seconds: float, smoke: bool = False) -> List[Op]:
    """The CLI default problem, from nothing, every time. Seed-independent
    by design: it is what ``repro design --resources cpu,memory`` runs."""
    return [{"kind": "design_cold"}
            for _ in range(scaled("design_cold", seconds, smoke))]


#: Per problem shape, ``(offset, stride)`` into SWEEP_QUERIES: slot *j*
#: of the shape's problem in turn *t* holds query ``t + offset + j *
#: stride`` (mod 8). Strides keep a problem's queries distinct; over the
#: eight turns every query visits every slot of every shape once.
SWEEP_PLAN = ((0, 1), (3, 2), (5, 3), (1, 5), (6, 7), (2, 6))


def whatif_sweep(seed: int, seconds: float, smoke: bool = False) -> List[Op]:
    """Design searches: every problem runs under all three algorithms.

    One turn is one problem per (resource set, workload count) shape —
    six problems, eighteen ops. Search times differ twentyfold between
    shapes and severalfold between queries, so *which* problems run is
    a fixed balanced design (see :data:`SWEEP_PLAN`); the seed decides
    the order of turns, the order within a turn and the repeat counts.
    """
    rng = random.Random(f"whatif_sweep:{seed}")
    turns = list(range(max(1, scaled("whatif_sweep", seconds, smoke)
                           // SWEEP_TURN)))
    rng.shuffle(turns)
    ops: List[Op] = []
    for turn in turns:
        batch: List[Op] = []
        for shape_no, (resources, size) in enumerate(SWEEP_SHAPES):
            offset, stride = SWEEP_PLAN[shape_no]
            workloads = [
                [SWEEP_QUERIES[(turn + offset + slot * stride)
                               % len(SWEEP_QUERIES)], rng.randint(1, 9)]
                for slot in range(size)]
            for algorithm in SWEEP_ALGORITHMS:
                batch.append({
                    "kind": "whatif_sweep",
                    "problem": turn * len(SWEEP_SHAPES) + shape_no,
                    "workloads": workloads,
                    "resources": list(resources),
                    "algorithm": algorithm,
                    "grid": SWEEP_GRID,
                })
        rng.shuffle(batch)
        ops.extend(batch)
    return ops


def measure_exec(seed: int, seconds: float, smoke: bool = False) -> List[Op]:
    """Measured executions: a round is every query once, in seeded order;
    each query walks its own seeded order of the six allocations."""
    rng = random.Random(f"measure_exec:{seed}")
    rounds = max(1, scaled("measure_exec", seconds, smoke)
                 // len(EXEC_QUERIES))
    walks = {}
    for query in EXEC_QUERIES:
        walks[query] = list(EXEC_ALLOCATIONS)
        rng.shuffle(walks[query])
    ops: List[Op] = []
    for round_no in range(rounds):
        batch = []
        for query in EXEC_QUERIES:
            cpu, memory = walks[query][round_no % len(EXEC_ALLOCATIONS)]
            batch.append({"kind": "measure_exec", "round": round_no,
                          "query": query, "cpu": cpu, "memory": memory})
        rng.shuffle(batch)
        ops.extend(batch)
    return ops


def supervised_resume(seed: int, seconds: float,
                      smoke: bool = False) -> List[Op]:
    """Kill/resume runs; the seed only decides how much of a record the
    simulated crash managed to write (the torn tail)."""
    rng = random.Random(f"supervised_resume:{seed}")
    return [{"kind": "supervised_resume",
             "torn_fraction": rng.uniform(0.1, 0.9)}
            for _ in range(scaled("supervised_resume", seconds, smoke))]


def serve_closed(seed: int, seconds: float, smoke: bool = False) -> List[Op]:
    """One entry: the scenario the program's own trace generator expands
    (``repro.serve.generate_trace`` owns the request shapes)."""
    return [{"kind": "serve_closed", "seed": seed,
             "requests": scaled("serve_closed", seconds, smoke),
             "design_every": 25}]


GENERATORS = {
    "design_cold": design_cold,
    "whatif_sweep": whatif_sweep,
    "measure_exec": measure_exec,
    "supervised_resume": supervised_resume,
    "serve_closed": serve_closed,
}


def generate(workload: str, seed: int, seconds: float,
             smoke: bool = False) -> List[Op]:
    return GENERATORS[workload](seed, seconds, smoke)
