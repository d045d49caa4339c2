"""Op lists: a pure function of (workload, seed, seconds); balanced."""

from collections import Counter

import pytest

from bench_e2e import oplists

SEEDED = ("whatif_sweep", "measure_exec", "supervised_resume", "serve_closed")


@pytest.mark.parametrize("workload", sorted(oplists.GENERATORS))
def test_equal_seeds_give_equal_lists(workload):
    assert (oplists.generate(workload, 5, 20)
            == oplists.generate(workload, 5, 20))


@pytest.mark.parametrize("workload", SEEDED)
def test_different_seeds_give_different_lists(workload):
    assert (oplists.generate(workload, 1, 20)
            != oplists.generate(workload, 2, 20))


def test_design_cold_is_seed_independent_by_design():
    assert (oplists.generate("design_cold", 1, 20)
            == oplists.generate("design_cold", 2, 20))


def test_reference_lengths():
    for workload, count in oplists.REFERENCE_OPS.items():
        ops = oplists.generate(workload, 1, oplists.REFERENCE_SECONDS)
        if workload == "serve_closed":
            assert ops[0]["requests"] == count
        else:
            assert len(ops) == count


def test_smoke_is_a_twentieth_of_the_same_shapes():
    full = oplists.generate("whatif_sweep", 1, 20)
    smoke = oplists.generate("whatif_sweep", 1, 20, smoke=True)
    assert len(smoke) == oplists.SWEEP_TURN

    def shape(op):
        return tuple(op["resources"]), len(op["workloads"]), op["algorithm"]

    assert {shape(op) for op in smoke} == {shape(op) for op in full}
    assert len(oplists.generate("design_cold", 1, 20, smoke=True)) == 1
    assert oplists.generate("serve_closed", 1, 20, smoke=True)[0][
        "requests"] == oplists.REFERENCE_OPS["serve_closed"] // 20


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_the_sweep_gives_every_query_to_every_shape_equally(seed):
    ops = oplists.generate("whatif_sweep", seed, 20)
    met = Counter()
    for op in ops:
        assert len({query for query, _copies in op["workloads"]}) == len(
            op["workloads"])
        for query, copies in op["workloads"]:
            assert 1 <= copies <= 9
            met[(tuple(op["resources"]), len(op["workloads"]),
                 op["algorithm"], query)] += 1
    assert len(met) == oplists.SWEEP_TURN * len(oplists.SWEEP_QUERIES)
    for (_resources, size, _algorithm, _query), count in met.items():
        assert count == size


def test_every_sweep_problem_runs_under_all_three_algorithms():
    by_problem = {}
    for op in oplists.generate("whatif_sweep", 4, 20):
        by_problem.setdefault(op["problem"], []).append(op)
    for group in by_problem.values():
        assert sorted(op["algorithm"] for op in group) == sorted(
            oplists.SWEEP_ALGORITHMS)
        assert len({str(op["workloads"]) for op in group}) == 1


def test_measured_executions_run_every_query_once_a_round():
    ops = oplists.generate("measure_exec", 3, 20)
    rounds = {}
    for op in ops:
        rounds.setdefault(op["round"], []).append(op["query"])
    assert all(sorted(queries) == sorted(oplists.EXEC_QUERIES)
               for queries in rounds.values())
    seen = Counter((op["query"], op["cpu"], op["memory"]) for op in ops)
    # Eight rounds over six allocations: each once, two of them twice.
    assert set(seen.values()) == {1, 2}
    assert {(cpu, memory) for _query, cpu, memory in seen} == set(
        oplists.EXEC_ALLOCATIONS)
