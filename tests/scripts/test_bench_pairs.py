"""Tests for the paired-run script (``scripts/bench_pairs.py``) and the
schema of its committed trajectory, ``benchmarks/results/e2e_pairs.jsonl``.

Only the schema is gated: each line parses, names commits that exist,
carries positive ratios and belongs to the commit that adds it (that
commit's ``src/`` is the tree the line measured). The values themselves
are measurements of some host and are never compared against anything
here.
"""

import importlib.util
import json
import math
import pathlib
import re
import subprocess

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
SCRIPT = ROOT / "scripts" / "bench_pairs.py"
TRAJECTORY = ROOT / "benchmarks" / "results" / "e2e_pairs.jsonl"


@pytest.fixture(scope="module")
def pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _records():
    lines = TRAJECTORY.read_text(encoding="utf-8").splitlines()
    return [json.loads(line) for line in lines if line.strip()]


def _git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, text=True,
                          capture_output=True)


class TestSummary:
    def test_higher_is_better(self, pairs):
        row = pairs.summarize([10, 11, 9, 10], [20, 19, 22, 21], "higher")
        assert row["ratio"] == pytest.approx(20.5 / 10)
        assert (row["wins"], row["pairs"], row["clears_iqr"]) == (4, 4, True)

    def test_lower_is_better(self, pairs):
        row = pairs.summarize([50, 52, 48], [30, 60, 31], "lower")
        assert row["ratio"] == pytest.approx(31 / 50)
        assert row["wins"] == 2

    def test_gap_inside_the_base_spread_does_not_clear(self, pairs):
        row = pairs.summarize([10, 20, 30, 40], [26, 26, 26, 26], "higher")
        assert row["wins"] == 2
        assert row["clears_iqr"] is False

    def test_a_worse_change_never_clears(self, pairs):
        row = pairs.summarize([10, 10, 10], [5, 5, 5], "higher")
        assert row["clears_iqr"] is False

    def test_exact_diffs_list_only_changed_counts(self, pairs):
        spec = {"per_layer": [{"name": "engine.pool_hits", "unit": "count"},
                              {"name": "engine.execute.self_ms", "unit": "ms"}]}
        assert pairs.exact_diffs(spec, {"engine.pool_hits": 3,
                                        "engine.execute.self_ms": 1.0},
                                 {"engine.pool_hits": 3,
                                  "engine.execute.self_ms": 2.0}) == []
        assert pairs.exact_diffs(spec, {"engine.pool_hits": 3},
                                 {"engine.pool_hits": 4}) == [
            "engine.pool_hits: 3 -> 4"]


class TestTrajectorySchema:
    def test_every_line_parses_with_positive_ratios(self):
        records = _records()
        assert records, "the trajectory has no record"
        for record in records:
            assert record["schema"] == "bench-pairs/1"
            assert record["host_cpus"] >= 1
            assert len(record["head_src"]) == 40
            assert record["pairs"] >= 1
            assert record["load_1m_before"] >= 0
            assert record["load_1m_after"] >= 0
            assert record["workloads"]
            for workload, metrics in record["workloads"].items():
                for name, entry in metrics.items():
                    if name == "counts_equal":
                        assert isinstance(entry, bool)
                        continue
                    ratio = entry["ratio"]
                    assert isinstance(ratio, float) and math.isfinite(ratio) \
                        and ratio > 0, (workload, name, ratio)
                    assert 0 <= entry["wins"] <= record["pairs"]

    @staticmethod
    def _require_history():
        shallow = _git("rev-parse", "--is-shallow-repository")
        if shallow.returncode != 0 or shallow.stdout.strip() != "false":
            pytest.skip("needs the full git history")

    def test_commits_exist(self):
        self._require_history()
        for record in _records():
            for side in ("base", "head"):
                found = _git("cat-file", "-e", f"{record[side]}^{{commit}}")
                assert found.returncode == 0, (side, record[side])

    def test_each_line_measured_the_source_its_commit_holds(self, pairs):
        self._require_history()
        blame = _git("blame", "--porcelain", "--",
                     str(TRAJECTORY.relative_to(ROOT)))
        assert blame.returncode == 0, blame.stderr
        # Porcelain: a "<commit> <orig> <final> ..." line, headers, then
        # the content line after a tab.
        commit_of, commit = {}, None
        for line in blame.stdout.splitlines():
            if line.startswith("\t"):
                commit_of[line[1:]] = commit
            elif re.match(r"[0-9a-f]{40} ", line):
                commit = line[:40]
        for line in TRAJECTORY.read_text(encoding="utf-8").splitlines():
            if not line.strip():
                continue
            commit = commit_of[line]
            if set(commit) == {"0"}:  # not committed yet: the checkout
                holds = pairs.src_tree()
            else:
                holds = _git("rev-parse", f"{commit}:src").stdout.strip()
            assert json.loads(line)["head_src"] == holds, commit
