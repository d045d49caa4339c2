"""BENCHMARK.json is well formed and names what the code produces."""

import re

from bench_e2e import oplists, run, session, tracing

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_top_level_shape():
    spec = run.load_spec()
    assert sorted(spec) == ["command", "end_to_end", "paths", "per_layer",
                            "run_seconds", "workloads"]
    assert spec["paths"] == ["bench_e2e"]
    assert spec["command"][:3] == ["python3", "-m", "bench_e2e.run"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60


def test_workloads_are_the_generated_ones_with_one_line_reasons():
    spec = run.load_spec()
    assert [w["name"] for w in spec["workloads"]] == list(oplists.GENERATORS)
    for workload in spec["workloads"]:
        assert sorted(workload) == ["name", "why"]
        assert "\n" not in workload["why"] and len(workload["why"]) <= 200


def test_metric_entries():
    spec = run.load_spec()
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(set(names)) == len(names)
    for metric in spec["end_to_end"]:
        assert sorted(metric) == ["better", "bound", "name", "unit"]
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert sorted(metric) == ["better", "name", "unit"]
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(metric["name"]) and UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_per_layer_covers_every_span_and_counter():
    declared = {m["name"] for m in run.load_spec()["per_layer"]}
    for span in tracing.SPAN_NAMES:
        assert {f"{span}.calls", f"{span}.total_ms",
                f"{span}.self_ms"} <= declared
    assert set(session.COUNTERS) <= declared
