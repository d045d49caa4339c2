"""The cost tape: replay equals re-planning on TPC-H's join lattices,
and interning merges only instructions that compute the same value."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.optimizer.params import OptimizerParameters
from repro.optimizer.planner import Planner
from repro.optimizer.recost import PlanCostRecorder
from repro.workloads.tpch_data import build_tpch_database
from repro.workloads.tpch_queries import QUERIES, tpch_query

DEFAULTS = OptimizerParameters.defaults()
#: Parameter sets at opposite corners of the planner's choices: cheap
#: comparisons and dear tuples (sort + merge joins), cheap random I/O
#: with a tiny cache (index scans), and a slow disk with little sort
#: memory (spilling sorts, LIKE-heavy predicates priced high).
EXTREMES = {
    "merge": DEFAULTS.with_values(cpu_operator_cost=1e-4, cpu_tuple_cost=0.05),
    "index": DEFAULTS.with_values(random_page_cost=0.5, cpu_tuple_cost=0.05,
                                  cpu_operator_cost=0.01,
                                  effective_cache_size=64),
    "slow-disk": DEFAULTS.with_values(random_page_cost=40.0,
                                      cpu_like_byte_cost=0.003,
                                      sort_mem_pages=4),
}


@pytest.fixture(scope="module")
def tpch():
    """A small TPC-H database and every query's recorded program."""
    db = build_tpch_database(scale_factor=0.002)
    programs = {}
    for name in QUERIES:
        recorder = PlanCostRecorder()
        Planner(db.catalog, DEFAULTS).plan_sql(tpch_query(name), recorder)
        program = recorder.program()
        if program is not None:
            programs[name] = program
    return db, programs


def assert_replay_matches_planner(db, programs, params):
    for name, program in programs.items():
        replanned = Planner(db.catalog, params).plan_sql(tpch_query(name))
        assert (program.cost(params).hex()
                == replanned.est_total_cost.hex()), (name, params)


def test_every_tpch_query_compiles(tpch):
    _db, programs = tpch
    assert set(programs) == set(QUERIES)


@pytest.mark.parametrize("params", [DEFAULTS, *EXTREMES.values()],
                         ids=["default", *EXTREMES])
def test_replay_matches_replanning(tpch, params):
    assert_replay_matches_planner(*tpch, params)


scale = st.floats(min_value=0.01, max_value=100.0)


@given(st.tuples(scale, scale, scale, scale, scale, scale),
       st.integers(min_value=1, max_value=100_000),
       st.integers(min_value=1, max_value=4096))
@settings(max_examples=8, deadline=None)
def test_replay_matches_replanning_under_drawn_parameters(tpch, scales,
                                                          cache, sort_mem):
    names = ("seq_page_cost", "random_page_cost", "cpu_tuple_cost",
             "cpu_index_tuple_cost", "cpu_operator_cost", "cpu_like_byte_cost")
    params = DEFAULTS.with_values(
        effective_cache_size=cache, sort_mem_pages=sort_mem,
        **{name: getattr(DEFAULTS, name) * factor
           for name, factor in zip(names, scales)})
    assert_replay_matches_planner(*tpch, params)


class CountingRecorder(PlanCostRecorder):
    """Counts the instructions the planner asks for, before interning."""

    def __init__(self):
        super().__init__()
        self.requests = 0

    def call(self, fn, *args):
        self.requests += 1
        return super().call(fn, *args)

    def minimum(self, candidates):
        self.requests += 1
        return super().minimum(candidates)


def test_interning_shortens_the_q5_lattice(tpch):
    db, _programs = tpch
    recorder = CountingRecorder()
    Planner(db.catalog, DEFAULTS).plan_sql(tpch_query("Q5"), recorder)
    program = recorder.program()
    # The 6-way DP lattice sorts the same subplans and prices the same
    # predicates over and over; each distinct instruction runs once.
    assert len(program.tape) < recorder.requests


def identity(params, value):
    return value


def replay(recorder, slot):
    recorder.deposit_root(slot)
    return recorder.program().cost(DEFAULTS)


@pytest.mark.parametrize("a, b", [(1, 1.0), (1, True), (0, 0.0), (0, False),
                                  (0.0, -0.0)])
def test_interning_keeps_distinct_constants_apart(a, b):
    recorder = PlanCostRecorder()
    slot_a = recorder.call(identity, a)
    slot_b = recorder.call(identity, b)
    assert slot_a != slot_b
    for slot, value in ((slot_a, a), (slot_b, b)):
        out = replay(recorder, slot)
        assert type(out) is type(value)
        assert out == value
        assert math.copysign(1.0, out) == math.copysign(1.0, value)


def add(params, a, b):
    return a + b


def test_interning_merges_identical_instructions():
    recorder = PlanCostRecorder()
    base = recorder.call(identity, 2.5)
    first = recorder.call(add, base, 3.0)
    assert recorder.call(add, base, 3.0) == first
    assert recorder.call(add, base, 3) != first  # an int is not a float
    assert recorder.minimum([first]) == first  # one candidate: no decision
    assert recorder.minimum([base, first]) == recorder.minimum([base, first])
    recorder.deposit_root(first)
    assert len(recorder.program().tape) == 4
    assert replay(recorder, first) == 5.5


def test_empty_decision_rejected():
    with pytest.raises(ValueError):
        PlanCostRecorder().minimum([])


def test_decision_is_first_minimum_in_candidate_order():
    recorder = PlanCostRecorder()
    zero, negative_zero = recorder.call(identity, 0.0), recorder.call(identity, -0.0)
    # Equal candidates: the earlier one wins, as the planner's strict <.
    assert math.copysign(1.0, replay(recorder, recorder.minimum(
        [negative_zero, zero]))) == -1.0
    assert math.copysign(1.0, replay(recorder, recorder.minimum(
        [zero, negative_zero]))) == 1.0
