"""Tier-1 shim around scripts/check_docs.py.

Runs the documentation lint (link resolution + architecture-page module
references) as part of the regular test suite so docs cannot silently
rot. The script stays independently runnable
(``python scripts/check_docs.py``).
"""

import importlib.util
import pathlib

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent.parent
SCRIPT = REPO_ROOT / "scripts" / "check_docs.py"


def _load_checker():
    spec = importlib.util.spec_from_file_location("check_docs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_docs_lint_passes(capsys):
    checker = _load_checker()
    code = checker.main()
    output = capsys.readouterr().out
    assert code == 0, f"documentation lint failed:\n{output}"


def test_checker_scans_the_expected_surface():
    checker = _load_checker()
    paths = {p.name for p in checker._doc_paths()}
    assert {"README.md", "EXPERIMENTS.md", "architecture.md",
            "observability.md", "cost-model.md"} <= paths


def test_checker_detects_broken_artifacts(tmp_path, monkeypatch):
    """The lint must actually fail on broken docs, not vacuously pass."""
    checker = _load_checker()
    (tmp_path / "docs").mkdir()
    (tmp_path / "src" / "repro").mkdir(parents=True)
    (tmp_path / "src" / "repro" / "__init__.py").write_text("")
    (tmp_path / "README.md").write_text(
        "[missing](nowhere.md) and [[no-such-page]]\n"
    )
    (tmp_path / "docs" / "architecture.md").write_text(
        "`repro.not_a_module` is documented but absent\n"
    )
    monkeypatch.setattr(checker, "REPO_ROOT", tmp_path)
    errors = []
    text = (tmp_path / "README.md").read_text()
    checker._check_md_links(tmp_path / "README.md", text, errors)
    checker._check_wiki_links(tmp_path / "README.md", text, errors)
    checker._check_module_refs(errors)
    joined = "\n".join(errors)
    assert "broken link (nowhere.md)" in joined
    assert "unresolved wiki link [[no-such-page]]" in joined
    assert "`repro.not_a_module` not found" in joined
    assert checker.main() == 1


def test_wiki_and_anchor_links_resolve(tmp_path, monkeypatch):
    checker = _load_checker()
    (tmp_path / "docs").mkdir()
    (tmp_path / "src").mkdir()
    (tmp_path / "docs" / "architecture.md").write_text("no modules here\n")
    (tmp_path / "docs" / "guide.md").write_text("target page\n")
    (tmp_path / "README.md").write_text(
        "[[docs/guide]] [ok](docs/guide.md#section) [anchor](#local)\n"
        "[web](https://example.com/x)\n"
    )
    monkeypatch.setattr(checker, "REPO_ROOT", tmp_path)
    assert checker.main() == 0


def test_benchmarks_file_table_is_held_to_the_suites_table(tmp_path,
                                                           monkeypatch):
    checker = _load_checker()
    suites = checker._bench_suites()
    rows = [f"| `{suite.file}` | `{suite.script}` | question |"
            for suite in suites.values()]
    (tmp_path / "docs").mkdir()
    page = tmp_path / "docs" / "benchmarks.md"
    monkeypatch.setattr(checker, "REPO_ROOT", tmp_path)

    page.write_text("\n".join(rows) + "\n")
    errors = []
    checker._check_bench_table(errors)
    assert errors == []

    stray = "| `BENCH_x.json` | `scripts/bench_x.py` | unregistered |"
    page.write_text("\n".join(rows[1:] + [stray]) + "\n")
    checker._check_bench_table(errors)
    first = next(iter(suites.values()))
    assert errors == [
        f"docs/benchmarks.md: file table has no row for `{first.file}` | "
        f"`{first.script}`, a suite of scripts/check_bench.py",
        "docs/benchmarks.md: file table row `BENCH_x.json` | "
        "`scripts/bench_x.py` is no suite of scripts/check_bench.py"]
