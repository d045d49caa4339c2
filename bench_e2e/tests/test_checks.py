"""The checks fail when they should (a perturbed golden digest, a bad design)."""

import json

from bench_e2e import checks, run


def design(**changes):
    output = {
        "grid": 4,
        "allocation": {"a": [0.75, 0.25, 0.5], "b": [0.25, 0.75, 0.5]},
        "controlled": ["cpu", "memory"],
        "minimum_shares": {"cpu": 0.0, "memory": 0.2, "io": 0.0},
        "predicted_total": 1.0,
        "default_total": 1.5,
    }
    output.update(changes)
    return output


def test_a_feasible_design_has_no_violations():
    assert checks.design_violations(design()) == []


def test_infeasible_designs_are_named():
    oversubscribed = design(allocation={"a": [0.75, 0.25, 0.5],
                                        "b": [0.5, 0.75, 0.5]})
    assert any("cpu shares sum" in problem
               for problem in checks.design_violations(oversubscribed))
    starved = design(allocation={"a": [0.75, 0.9, 0.5], "b": [0.25, 0.1, 0.5]})
    assert any("memory share" in problem
               for problem in checks.design_violations(starved))
    worse = design(predicted_total=2.0)
    assert any("worse than default" in problem
               for problem in checks.design_violations(worse))


def test_the_default_split_only_binds_when_it_lies_on_the_grid():
    third = 1 / 3
    off_grid = design(
        grid=8, predicted_total=2.0,
        allocation={name: [third, third, third] for name in "abc"},
        controlled=["cpu"])
    assert checks.design_violations(off_grid) == []


def test_rows_digest_ignores_order_and_float_noise():
    rows = [("x", 1.0000000001, 3), ("y", 2.5, 4)]
    same = [("y", 2.5, 4), ("x", 1.0, 3)]
    assert checks.rows_digest(rows) == checks.rows_digest(same)
    assert checks.rows_digest(rows) != checks.rows_digest([("x", 1.1, 3),
                                                           ("y", 2.5, 4)])


def test_a_perturbed_golden_digest_fails_the_run(monkeypatch):
    golden = checks.load_golden()
    rows = [("only", 1.0)]
    golden["measure_exec"]["Q3"] = {"rows": 1,
                                    "digest": checks.rows_digest(rows)}
    monkeypatch.setattr(checks, "load_golden", lambda: golden)
    outputs = [{"query": "Q3", "cpu": 0.5, "memory": 0.25,
                "simulated_seconds": 0.4}]

    passing = checks.Checker()
    checks.check_measure_exec(passing, outputs, {("Q3", 0.25): rows}, [])
    assert passing.correct

    golden["measure_exec"]["Q3"]["digest"] = "0" * 16
    failing = checks.Checker()
    checks.check_measure_exec(failing, outputs, {("Q3", 0.25): rows}, [])
    assert not failing.correct
    assert [check.name for check in failing.results if not check.ok] == [
        "results equal golden.json at both pool sizes"]


def test_the_one_command_exits_non_zero_on_a_failed_check(monkeypatch, capsys):
    spec = run.load_spec()
    values = {metric["name"]: 1.0 for metric in spec["end_to_end"]}

    def fake_child(workload, seed, seconds, trace, smoke=False, spans=None):
        return {"workload": workload, "trace": trace, "seed": seed,
                "seconds": seconds, "smoke": smoke, "correct": False,
                "attempted": 3, "failed": 0, "truncated": False,
                "samples": {"ops": 3}, "values": values,
                "checks": [{"name": "golden", "ok": False, "detail": "off"}],
                "host": {"host_cpus": 2, "python": "3", "load_1m": 0.0}}

    monkeypatch.setattr(run, "run_child", fake_child)
    assert run.main(["--workload", "design_cold", "--trace", "0"]) == 1
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last["correct"] is False
    assert sorted(last) == ["attempted", "correct", "failed", "metrics"]


def test_a_torn_journal_divergence_is_told_from_a_fallback_one(tmp_path):
    def write(path, costs):
        lines = [json.dumps({"kind": "meta", "data": {}})]
        lines.append(json.dumps({"kind": "calibration", "data": {
            "allocation": [0.5, 0.5, 0.5], "parameters": {"p": 1.0}}}))
        for allocation, cost in costs:
            lines.append(json.dumps({"kind": "evaluation", "data": {
                "workload": "w", "allocation": allocation, "cost": cost}}))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    reference = tmp_path / "reference"
    write(reference, [([0.5, 0.5, 0.5], 1.0), ([0.5, 0.5, 0.125], 2.0)])
    fallback = tmp_path / "fallback"
    write(fallback, [([0.5, 0.5, 0.5], 1.0), ([0.5, 0.5, 0.125], 2.5)])
    assert checks.journal_divergence(fallback, reference) == ([], 1)
    broken = tmp_path / "broken"
    write(broken, [([0.5, 0.5, 0.5], 1.5), ([0.5, 0.5, 0.125], 2.0)])
    violations, tolerated = checks.journal_divergence(broken, reference)
    assert len(violations) == 1 and tolerated == 0
