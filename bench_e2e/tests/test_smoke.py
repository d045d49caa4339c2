"""End-to-end ``--smoke`` passes through the one command.

Op counts are a twentieth of the real ones and the shapes the same;
the numbers are never recorded. The whole module takes about a minute
on the two-core sandbox.
"""

import json
import subprocess
import sys

import pytest

from bench_e2e import run


def one_command(*arguments):
    done = subprocess.run(
        [sys.executable, "-m", "bench_e2e.run", "--smoke", *arguments],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    lines = done.stdout.strip().splitlines()
    return done, [json.loads(line) for line in lines if line.startswith("{")]


@pytest.mark.parametrize("workload", [w["name"]
                                      for w in run.load_spec()["workloads"]])
def test_untraced_smoke_pass(workload):
    spec = run.load_spec()
    done, results = one_command("--workload", workload, "--trace", "0")
    assert done.returncode == 0, done.stdout + done.stderr
    (result,) = results
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    for metric in spec["end_to_end"]:
        entry = result["metrics"][metric["name"]]
        assert sorted(entry) == ["unit", "value"]
        assert entry["unit"] == metric["unit"] and entry["value"] > 0
    assert f"== {workload} (untraced" in done.stdout
    assert not run.SCRATCH.exists()


def test_traced_smoke_pass_reports_every_per_layer_metric():
    spec = run.load_spec()
    done, results = one_command("--workload", "whatif_sweep", "--trace", "1")
    assert done.returncode == 0, done.stdout + done.stderr
    (result,) = results
    assert list(result["metrics"]) == [m["name"] for m in spec["per_layer"]]
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    assert metrics["optimizer.recost.calls"] > 0
    assert metrics["core.search.calls"] == result["attempted"] / 2
    assert metrics["engine.execute.calls"] == 0
    assert metrics["calibration.fresh"] == 0
    assert 0 <= metrics["trace.dark_pct"] <= 10
    covered = sum(value for name, value in metrics.items()
                  if name.endswith(".self_ms"))
    assert covered > 0
    assert not run.SCRATCH.exists()


def test_the_program_missing_means_a_non_zero_exit_and_no_result(tmp_path):
    import shutil

    shutil.copytree(run.ROOT / "bench_e2e", tmp_path / "bench_e2e",
                    ignore=shutil.ignore_patterns("__pycache__", ".scratch"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "-m", "bench_e2e.run", "--workload", "design_cold",
         "--seed", "1", "--seconds", "20", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
        env={"PATH": "/usr/bin:/bin"})
    assert done.returncode != 0
    assert not [line for line in done.stdout.splitlines()
                if line.startswith("{")]
