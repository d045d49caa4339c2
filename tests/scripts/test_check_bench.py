"""Tests for the table-driven bench gate (``scripts/check_bench.py``).

Identity first: ``fixtures/check_bench_verdicts.json`` holds the verdict
of the hand-written checker this table replaced on a single-leaf
mutation corpus over the seven committed result files (see
``fixtures/generate.py`` for the commit and the recipe). The table must
give every mutation the same pass/fail, and a diagnostic where the old
code raised. Then the gates' thresholds, the five former crash sites,
and the two audits, each driven against temporary directories.
"""

import copy
import json
import re

import pytest

from tests.scripts.fixtures import generate


@pytest.fixture(scope="module")
def corpus():
    return json.loads(generate.VERDICTS_PATH.read_text())


@pytest.fixture
def checker(corpus, tmp_path, monkeypatch):
    """The checker, its results directory holding the corpus's base files
    (the hotpath suite cross-checks the committed surrogate result)."""
    module = generate.load_checker()
    for name, payload in corpus["base"].items():
        (tmp_path / name).write_text(json.dumps(payload))
    monkeypatch.setattr(module, "RESULTS_DIR", tmp_path)
    return module


def _caller_min_speedup(payload) -> float:
    """``--min-speedup`` as the CI callers pass it: 1.5 on full-mode
    files, the default on smoke output."""
    return generate.caller_gates(payload)["min_speedup"]


def _verdict(checker, payload) -> str:
    problems, ok = checker.check_payload(payload, _caller_min_speedup(payload))
    assert bool(problems) != bool(ok)
    return "fail" if problems else "pass"


# -- verdict identity --------------------------------------------------------

#: Mutations the old checker let through and the table rejects on
#: purpose: the shared top-level schema types ``smoke`` and
#: ``host_cpus`` (a mistyped ``smoke`` would silently pick the full-mode
#: thresholds; ``host_cpus`` keys the grid gate), and a VM's chosen
#: indexes must be a list, where ``{}`` used to count as "none chosen".
_TIGHTENED_TOP = {
    "smoke": lambda value: not isinstance(value, bool),
    "host_cpus": lambda value: (isinstance(value, bool)
                                or not isinstance(value, int) or value < 1),
}
_TIGHTENED_ELSEWHERE = [
    ("BENCH_codesign.json",
     {"at": ["entries", 1, "indexes", "cust-report"], "op": "set", "to": {}}),
]


def _tightened(name: str, case: dict) -> bool:
    mutation = {k: v for k, v in case.items() if k != "verdict"}
    if (name, mutation) in _TIGHTENED_ELSEWHERE:
        return True
    rejects = _TIGHTENED_TOP.get(case["at"][0]) if len(case["at"]) == 1 \
        else None
    return bool(rejects and case["op"] == "set" and rejects(case["to"]))


@pytest.mark.parametrize("name", [
    "BENCH_codesign.json", "BENCH_drift.json", "BENCH_fleet.json",
    "BENCH_hotpath.json", "BENCH_parallel.json", "BENCH_serve.json",
    "BENCH_surrogate.json"])
def test_table_gives_every_mutation_the_old_verdict(name, corpus, checker):
    base = corpus["base"][name]
    assert _verdict(checker, base) == "pass"
    differing = []
    for case in corpus["cases"][name]:
        want = "pass" if case["verdict"] == "pass" \
            and not _tightened(name, case) else "fail"
        got = _verdict(checker, generate.apply(base, case))
        if got != want:
            differing.append((case, got))
    assert not differing, (
        f"{len(differing)} of {len(corpus['cases'][name])} mutations of "
        f"{name} changed verdict, first: {differing[0]}")


def test_tightened_mutations_are_few_and_were_not_failures(corpus):
    tightened = [case for name, cases in corpus["cases"].items()
                 for case in cases if _tightened(name, case)]
    # Per file: three non-bool ``smoke`` values and five bad
    # ``host_cpus`` values; plus the one codesign index list.
    assert len(tightened) == 7 * (3 + 5) + 1
    assert {case["verdict"] for case in tightened} == {"pass", "crash"}


def test_corpus_is_the_reference_and_cannot_be_regenerated_here(
        corpus, tmp_path, monkeypatch):
    header = corpus["header"]
    assert len(header["commit"]) == 40
    assert header["walkers"] == list(generate.OLD_WALKERS)
    assert sorted(corpus["cases"]) == sorted(corpus["base"])
    assert len(corpus["base"]) == 7
    assert header["verdicts"]["crash"] >= 5
    assert generate.main([]) == 2
    monkeypatch.setattr(generate, "VERDICTS_PATH", tmp_path / "verdicts.json")
    assert generate.main(["--overwrite"]) == 2
    assert not (tmp_path / "verdicts.json").exists()


# -- malformed payloads get a diagnostic, never a traceback ------------------

def _run(checker, capsys, payload, *argv) -> tuple:
    path = checker.RESULTS_DIR.parent / "mutated.json"
    path.write_text(json.dumps(payload))
    code = checker.main([str(path), *argv])
    return code, capsys.readouterr().err


def test_every_recorded_crash_is_now_a_diagnostic(corpus, checker, capsys):
    crashes = [(name, case) for name, cases in corpus["cases"].items()
               for case in cases if case["verdict"] == "crash"]
    for name, case in crashes:
        code, err = _run(checker, capsys,
                         generate.apply(corpus["base"][name], case))
        assert code == 1, (name, case)
        assert "check_bench: mutated.json: " in err
        assert "Traceback" not in err


@pytest.mark.parametrize("name, at, to, diagnostic", [
    ("BENCH_parallel.json", ["host_cpus"], None,
     "top level.host_cpus has type NoneType, expected int"),
    ("BENCH_hotpath.json", ["entries", 0, "calibrations"], 0,
     "entries[0].calibrations must be positive"),
    ("BENCH_hotpath.json", ["baseline", "calibrations"], 0,
     "cannot derive baseline.seconds_per_calibration: "
     "`baseline.calibrations` is 0"),
    ("BENCH_fleet.json", ["entries", 1, "initial_cost"], 0,
     "cannot derive summary.reassignment_gain: `fleet.initial_cost` is 0"),
    ("BENCH_serve.json", ["entries", 0, "requests"], 0,
     "cannot derive rated.shed_rate: `rated.requests` is 0"),
])
def test_former_crash_site_reports(name, at, to, diagnostic, corpus, checker,
                                   capsys):
    payload = generate.apply(corpus["base"][name],
                             {"at": at, "op": "set", "to": to})
    code, err = _run(checker, capsys, payload)
    assert code == 1
    assert f"check_bench: mutated.json: {diagnostic}" in err
    assert "Traceback" not in err


def test_every_problem_of_a_file_is_reported(corpus, checker):
    payload = copy.deepcopy(corpus["base"]["BENCH_fleet.json"])
    payload["summary"]["monotone"] = False
    payload["summary"]["improvement"] = 0.5
    payload["entries"][1]["trajectory"].reverse()
    problems, ok = checker.check_payload(payload, 1.5)
    assert ok is None
    text = "\n".join(problems)
    for expected in ("summary.monotone is False", "summary.improvement is 0.5",
                     "fleet.trajectory increased",
                     "fleet.initial_cost is", "fleet.cost is"):
        assert expected in text


# -- gate thresholds ---------------------------------------------------------

def _parallel(p, v):
    p["entries"][3]["speedup"] = v


def _surrogate_ratio(p, v):
    dense, surrogate = p["entries"]
    surrogate["calibrations"] = 100
    dense["calibrations"] = round(v * 100)
    p["summary"]["calibration_ratio"] = v


def _fleet_gain(p, v):
    fleet = p["entries"][1]
    fleet["initial_cost"] = fleet["trajectory"][0] = fleet["cost"] / (1 - v)
    p["summary"]["reassignment_gain"] = v


def _drift_gap(p, v):
    closed, oracle = p["entries"][1], p["entries"][2]
    oracle["cost"] = closed["cost"] / (1 + v)
    p["summary"]["reconvergence_gap"] = v


def _serve_p99(p, v):
    p["entries"][0]["p99_seconds"] = p["summary"]["p99_seconds"] = v


def _serve_shed(p, v):
    rated = p["entries"][0]
    rated["shed"] = v
    rated["shed_rate"] = p["summary"]["shed_rate"] = v / rated["requests"]


def _serve_degraded(p, v):
    rated = p["entries"][0]
    served = rated["answered"] + rated["degraded"]
    rated["degraded"], rated["answered"] = v, served - v
    rated["degraded_fraction"] = p["summary"]["degraded_fraction"] = v / served


def _hotpath_calibration(p, v):
    fast = p["entries"][0]
    fast["seconds_per_calibration"] = \
        p["baseline"]["seconds_per_calibration"] / v
    fast["wall_seconds"] = \
        fast["seconds_per_calibration"] * fast["calibrations"]
    p["summary"]["calibration_speedup_vs_baseline"] = v


def _hotpath_grid(p, v):
    base, recost4 = p["entries"][1], p["entries"][5]
    recost4["speedup"] = p["summary"]["grid_speedup_4_workers"] = v
    recost4["wall_seconds"] = base["wall_seconds"] / v


def _codesign(p, v):
    alloc_only, codesign = p["entries"]
    alloc_only["cost"] = codesign["cost"] / (1 - v)
    p["summary"]["improvement"] = v


@pytest.mark.parametrize("name, setter, inside, outside, smoke, cpus", [
    # (file, how to set the gated value, passing value, failing value,
    #  payload["smoke"], payload["host_cpus"])
    ("BENCH_parallel.json", _parallel, 1.5, 1.49, False, 1),
    ("BENCH_parallel.json", _parallel, 1.0, 0.99, True, 1),
    ("BENCH_surrogate.json", _surrogate_ratio, 5.0, 4.99, False, 1),
    ("BENCH_surrogate.json", _surrogate_ratio, 5.0, 4.99, True, 1),
    ("BENCH_fleet.json", _fleet_gain, 0.1001, 0.0999, False, 1),
    ("BENCH_fleet.json", _fleet_gain, 0.1001, 0.0999, True, 1),
    ("BENCH_drift.json", _drift_gap, 0.2499, 0.2501, False, 1),
    ("BENCH_drift.json", _drift_gap, 0.2499, 0.2501, True, 1),
    ("BENCH_serve.json", _serve_p99, 2.0, 2.001, False, 1),
    ("BENCH_serve.json", _serve_p99, 2.0, 2.001, True, 1),
    ("BENCH_serve.json", _serve_shed, 6, 7, False, 1),        # of 120
    ("BENCH_serve.json", _serve_shed, 6, 7, True, 1),
    ("BENCH_serve.json", _serve_degraded, 10, 11, False, 1),  # of 104
    ("BENCH_serve.json", _serve_degraded, 10, 11, True, 1),
    ("BENCH_hotpath.json", _hotpath_calibration, 2.0, 1.99, False, 1),
    ("BENCH_hotpath.json", _hotpath_calibration, 1.0, 0.99, True, 1),
    ("BENCH_hotpath.json", _hotpath_grid, 3.0, 2.99, False, 4),
    ("BENCH_hotpath.json", _hotpath_grid, 1.0, 0.99, True, 4),
    ("BENCH_codesign.json", _codesign, 0.0201, 0.0199, False, 1),
    ("BENCH_codesign.json", _codesign, 0.0001, 0.0, True, 1),
])
def test_gate_threshold(name, setter, inside, outside, smoke, cpus, corpus,
                        checker):
    for value, want in ((inside, "pass"), (outside, "fail")):
        payload = copy.deepcopy(corpus["base"][name])
        payload["smoke"], payload["host_cpus"] = smoke, cpus
        setter(payload, value)
        problems, _ok = checker.check_payload(
            payload, _caller_min_speedup(payload))
        assert ("fail" if problems else "pass") == want, (value, problems)
        # The failing value trips the gate and nothing else.
        assert len(problems) == (want == "fail")


@pytest.mark.parametrize("smoke, floor", [(False, 3.0), (True, 1.0)])
def test_grid_gate_applies_from_four_cpus(smoke, floor, corpus, checker):
    for cpus, want in ((3, "pass"), (4, "fail")):
        payload = copy.deepcopy(corpus["base"]["BENCH_hotpath.json"])
        payload["smoke"], payload["host_cpus"] = smoke, cpus
        _hotpath_grid(payload, floor - 0.01)
        assert _verdict(checker, payload) == want


def test_smoke_thresholds_do_not_apply_to_full_mode_files(corpus, checker):
    payload = copy.deepcopy(corpus["base"]["BENCH_codesign.json"])
    _codesign(payload, 0.01)
    assert _verdict(checker, payload) == "fail"
    payload["smoke"] = True
    assert _verdict(checker, payload) == "pass"


def test_docs_gate_table_states_the_constants(checker):
    """``docs/benchmarks.md``'s gate table, per suite, carries exactly the
    (op, full, smoke) triples of the suite's ``Gate`` rows."""
    def cell(threshold) -> str:
        return threshold if isinstance(threshold, str) \
            else json.dumps(threshold)

    documented = {name: set() for name in checker.SUITES}
    page = (generate.REPO_ROOT / "docs" / "benchmarks.md").read_text()
    for row in re.findall(r"^\| `([a-z-]+)` \|[^|]*\| (\S+) \| (\S+) \| (\S+) "
                          r"\| (?:hard|threshold|flag) \|$", page, re.M):
        suite, op, full, smoke = (part.strip("`") for part in row)
        documented[suite].add((op, full, smoke))
    for name, suite in checker.SUITES.items():
        gates = {(rule.op, cell(rule.full), cell(rule.smoke))
                 for rule in suite.rules if isinstance(rule, checker.Gate)}
        assert documented[name] == gates, name


# -- the command line and the audits -----------------------------------------

def test_committed_results_pass_the_way_ci_gates_them(capsys):
    checker = generate.load_checker()
    assert checker.main(["--min-speedup", "1.5"]) == 0
    out = capsys.readouterr().out.splitlines()
    files = sorted(suite.file for suite in checker.SUITES.values())
    assert [line.split(": ")[2] for line in out[:-1]] == files
    assert all(line.startswith("check_bench: OK: ") for line in out[:-1])
    assert out[-1] == "check_bench: all 7 result file(s) pass"


def test_min_speedup_is_the_only_gate_flag(checker, capsys):
    with pytest.raises(SystemExit) as exit_info:
        checker.main(["--help"])
    assert exit_info.value.code == 0
    flags = set(re.findall(r"--[a-z][a-z-]+", capsys.readouterr().out))
    assert flags == {"--help", "--min-speedup"}
    with pytest.raises(SystemExit) as exit_info:
        checker.main(["--min-reassignment-gain", "0.1"])
    assert exit_info.value.code == 2


def test_unregistered_result_file_fails_even_with_explicit_paths(
        corpus, checker, capsys):
    stray = dict(corpus["base"]["BENCH_fleet.json"], suite="mystery")
    (checker.RESULTS_DIR / "BENCH_x.json").write_text(json.dumps(stray))
    explicit = checker.RESULTS_DIR / "BENCH_fleet.json"
    assert checker.main([str(explicit)]) == 1
    err = capsys.readouterr().err
    assert "BENCH_x.json: is no registered suite's result file" in err
    assert checker.main([]) == 1
    assert "BENCH_x.json: unknown suite 'mystery'" in capsys.readouterr().err


def test_regen_job_missing_from_the_workflow_fails(checker, tmp_path,
                                                   monkeypatch, capsys):
    workflows = tmp_path / "workflows"
    workflows.mkdir()
    monkeypatch.setattr(checker, "WORKFLOWS_DIR", workflows)
    explicit = str(checker.RESULTS_DIR / "BENCH_fleet.json")
    assert checker.main([explicit]) == 1
    assert "regen workflow 'nightly.yml' does not exist" \
        in capsys.readouterr().err
    (workflows / "nightly.yml").write_text(
        "jobs:\n  chaos-recovery-full:\n    runs-on: ubuntu-latest\n")
    assert checker.main([explicit]) == 1
    assert "regen job 'bench-full' not found in nightly.yml" \
        in capsys.readouterr().err
    (workflows / "nightly.yml").write_text(
        "jobs:\n  bench-full:\n    runs-on: ubuntu-latest\n")
    assert checker.main([explicit]) == 0


def test_unreadable_and_invalid_files_are_problems(checker, tmp_path, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert checker.main([str(broken), str(tmp_path / "absent.json")]) == 1
    err = capsys.readouterr().err
    assert "broken.json is not valid JSON" in err
    assert "absent.json cannot be read" in err
