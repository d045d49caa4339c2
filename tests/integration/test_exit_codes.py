"""Exit-code contract audit: one table, every subcommand.

The CLI promises a stable four-code contract (documented in
docs/robustness.md): 0 success, 2 usage/validation error, 3 permanent
failure, 4 stopped early but resumable. This table pins at least one
concrete scenario per subcommand per applicable code, and a
completeness check fails the build the moment a new subcommand ships
without joining the table.
"""

from __future__ import annotations

import argparse

import pytest

from repro.cli import build_parser, main


def exit_code(argv) -> int:
    """Run the CLI; fold argparse's SystemExit into the return code."""
    try:
        return main([str(piece) for piece in argv])
    except SystemExit as stop:
        return int(stop.code)


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """Shared on-disk inputs: a corrupt cache and a killed serve run."""
    base = tmp_path_factory.mktemp("exit-codes")
    corrupt = base / "corrupt.json"
    corrupt.write_text("{ not json")
    stopped = base / "stopped-serve.journal"
    code = exit_code(["serve", "--plan", "none", "--requests", 10,
                      "--rate", 50, "--grid", 3, "--surrogate-budget", 6,
                      "--journal", stopped, "--max-units", 0])
    assert code == 4, "fixture serve run should stop early, resumable"
    return {"corrupt": corrupt, "stopped": stopped,
            "missing": base / "nope.journal", "tmp": base}


#: subcommand -> ((expected code, argv builder), ...). Builders take the
#: artifacts dict; numbers are stringified by exit_code.
CONTRACT = {
    "calibrate": (
        (0, lambda a: ["calibrate"]),
        (2, lambda a: ["calibrate", "--cpu", 1.5]),
        (3, lambda a: ["calibrate", "--load", a["corrupt"]]),
    ),
    "design": (
        (0, lambda a: ["design", "--scale", 0.002, "--grid", 3,
                       "--algorithm", "greedy"]),
        (2, lambda a: ["design", "--algorithm", "simulated-annealing"]),
    ),
    "explain": (
        (0, lambda a: ["explain", "--query", "Q4", "--scale", 0.002]),
        (2, lambda a: ["explain", "--cpu", -0.25]),
    ),
    "experiment": (
        (2, lambda a: ["experiment", "fig9"]),
        (3, lambda a: ["experiment", "fig3", "--load", a["corrupt"]]),
    ),
    "report": (
        (0, lambda a: ["report", "--scale", 0.002, "--grid", 3,
                       "--algorithm", "greedy"]),
        (3, lambda a: ["report", "--load", a["corrupt"]]),
    ),
    "chaos": (
        (2, lambda a: ["chaos", "--plan", "none", "--transient-rate", 1.5,
                       "--scale", 0.002]),
        (4, lambda a: ["chaos", "--plan", "none", "--scale", 0.002,
                       "--grid", 3, "--algorithm", "greedy",
                       "--journal", a["tmp"] / "chaos.journal",
                       "--max-units", 0]),
    ),
    "monitor": (
        (2, lambda a: ["monitor", "--plan", "no-such-plan"]),
        (4, lambda a: ["monitor", "--plan", "none", "--scale", 0.002,
                       "--grid", 3, "--surrogate-budget", 6,
                       "--epochs", 2,
                       "--journal", a["tmp"] / "monitor.journal",
                       "--max-units", 0]),
    ),
    "serve": (
        (2, lambda a: ["serve", "--requests", 0]),
        (4, lambda a: ["serve", "--plan", "none", "--requests", 10,
                       "--rate", 50, "--grid", 3, "--surrogate-budget", 6,
                       "--journal", a["tmp"] / "serve.journal",
                       "--max-units", 0]),
    ),
    "fleet": (
        (2, lambda a: ["fleet", "--algorithm", "tabu-search"]),
        (4, lambda a: ["fleet", "--hosts", 3, "--workloads", 6,
                       "--grid", 4,
                       "--journal", a["tmp"] / "fleet.journal",
                       "--max-units", 1]),
    ),
    "resume": (
        (0, lambda a: ["resume", a["stopped"]]),
        (3, lambda a: ["resume", a["missing"]]),
    ),
    "profile": (
        (0, lambda a: ["profile", "--scenario", "workload", "--smoke",
                       "--output-dir", a["tmp"] / "profiles"]),
        (2, lambda a: ["profile", "--scenario", "no-such-flow"]),
    ),
}


def subcommands() -> set:
    for action in build_parser()._actions:
        if isinstance(action, argparse._SubParsersAction):
            return set(action.choices)
    raise AssertionError("the CLI parser has no subcommands")


class TestResumeWorkerFlag:
    """The journal's worker count wins over --workers, with a warning.

    Results are bit-identical across worker counts, so following the
    journal is safe — but the flag must not be *silently* discarded.
    """

    @pytest.fixture(scope="class")
    def journal(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("resume-workers") / "chaos.journal"
        code = exit_code(["chaos", "--plan", "none", "--scale", 0.002,
                          "--grid", 3, "--algorithm", "greedy",
                          "--workers", 2, "--journal", path,
                          "--max-units", 0])
        assert code == 4, "fixture chaos run should stop early, resumable"
        return path

    def test_differing_flag_warns_and_is_overridden(self, journal, capsys):
        assert exit_code(["resume", journal, "--workers", 1]) == 0
        err = capsys.readouterr().err
        assert "warning: journal records workers=2" in err
        assert "ignoring --workers 1" in err

    def test_matching_flag_is_silent(self, journal, capsys):
        assert exit_code(["resume", journal, "--workers", 2]) == 0
        assert "warning" not in capsys.readouterr().err

    def test_absent_flag_follows_journal_silently(self, journal, capsys):
        assert exit_code(["resume", journal]) == 0
        assert "warning" not in capsys.readouterr().err


class TestContractTable:
    def test_every_subcommand_is_audited(self):
        assert set(CONTRACT) == subcommands(), (
            "a subcommand is missing from (or stale in) the exit-code "
            "contract table — every subcommand must pin its codes here "
            "and in docs/robustness.md")

    def test_every_documented_code_appears(self):
        pinned = {code for rows in CONTRACT.values() for code, _ in rows}
        assert pinned == {0, 2, 3, 4}

    @pytest.mark.parametrize(
        "command,expected,build",
        [pytest.param(command, code, build, id=f"{command}-{code}")
         for command, rows in CONTRACT.items()
         for code, build in rows])
    def test_scenario(self, command, expected, build, artifacts, capsys):
        assert exit_code(build(artifacts)) == expected
        err = capsys.readouterr().err
        if expected in (2, 3):
            # Failures are typed and explained, never raw tracebacks.
            assert "error:" in err or "usage:" in err
            assert "Traceback" not in err


class TestResumeDispatch:
    """``repro resume`` picks the run kind from the journal header."""

    def test_unknown_run_kind_is_a_typed_permanent_failure(self, tmp_path,
                                                           capsys):
        """e.g. bench_e2e's ``run_kind: "bench"`` journals — not a
        misleading complaint about a missing fault plan."""
        from repro.recovery import RunJournal

        path = tmp_path / "bench.journal"
        RunJournal.create(path, {"run_kind": "bench"})
        assert exit_code(["resume", path]) == 3
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err
        assert "'bench'" in err
        for known in ("chaos", "codesign", "drift", "fleet", "serve"):
            assert known in err
        assert "fault plan" not in err

    def test_header_without_run_kind_is_a_supervised_design_run(
            self, tmp_path, capsys):
        """PR 3-era journals predate ``run_kind``; they still resume."""
        from repro.recovery import read_journal

        path = tmp_path / "chaos.journal"
        assert exit_code(["chaos", "--plan", "none", "--scale", 0.002,
                          "--grid", 3, "--journal", path,
                          "--max-units", 1]) == 4
        meta, _records, _tail = read_journal(path)
        assert "run_kind" not in meta
        capsys.readouterr()
        assert exit_code(["resume", path]) == 0
        assert "Design via greedy" in capsys.readouterr().out
