#!/usr/bin/env python
"""Lint the repository's documentation.

Checks, over README.md, DESIGN.md, EXPERIMENTS.md, and docs/*.md:

* every relative markdown link ``[text](path)`` points at a file that
  exists (resolved against the linking file's directory; external
  ``http(s)://`` / ``mailto:`` targets and pure ``#anchor`` links are
  skipped, trailing anchors are stripped);
* every wiki-style ``[[page]]`` link resolves to a markdown file in the
  repo root or ``docs/`` (with or without the ``.md`` suffix);
* every backticked dotted module name (`` `repro.x.y` ``) mentioned in
  ``docs/architecture.md`` or ``docs/parallelism.md`` exists under
  ``src/`` as a module or package, so those pages cannot drift from
  the tree;
* every backticked result file (`` `ext_foo.txt` ``,
  `` `BENCH_foo.json` `` or ``benchmarks/results/...``) and every
  backticked ``scripts/*.py`` mentioned in ``EXPERIMENTS.md`` or
  ``docs/*.md`` exists, so the experiments page cannot cite artifacts
  that were never generated (``*`` globs must match at least one
  file);
* the file table of ``docs/benchmarks.md`` is ``check_bench.py``'s
  ``SUITES``: every suite has a row naming its result file and script,
  and no row names an unregistered one.

Run directly (``python scripts/check_docs.py``) or through the test
suite (``tests/docs/test_docs_lint.py``); exits non-zero and prints one
line per problem when anything is broken.
"""

from __future__ import annotations

import importlib.util
import pathlib
import re
import sys
from typing import List

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DOC_FILES = ("README.md", "DESIGN.md", "EXPERIMENTS.md")

#: ``[text](target)`` — excludes images' ``!`` prefix intentionally?
#: No: images are checked too (the ``!`` simply precedes the match).
_MD_LINK = re.compile(r"\[(?:[^\]]*)\]\(([^)\s]+)\)")
_WIKI_LINK = re.compile(r"\[\[([^\]|#]+)(?:#[^\]]*)?\]\]")
_MODULE_REF = re.compile(r"`(repro(?:\.[A-Za-z_][A-Za-z_0-9]*)+)`")
#: `` `name.txt` `` or `` `benchmarks/results/name.txt` `` — a claimed
#: benchmark artifact; `` `scripts/name.py` `` — a claimed script.
_RESULT_REF = re.compile(
    r"`(?:benchmarks/results/)?([A-Za-z0-9_*]+\.(?:txt|json))`")
_SCRIPT_REF = re.compile(r"`(scripts/[A-Za-z0-9_]+\.py)`")
#: A row of the ``docs/benchmarks.md`` file table.
_BENCH_ROW = re.compile(
    r"^\| `(BENCH_[A-Za-z0-9_]+\.json)` \| `(scripts/[A-Za-z0-9_]+\.py)` \|",
    re.MULTILINE)
_EXTERNAL = ("http://", "https://", "mailto:")


def _doc_paths() -> List[pathlib.Path]:
    paths = [REPO_ROOT / name for name in DOC_FILES
             if (REPO_ROOT / name).exists()]
    paths.extend(sorted((REPO_ROOT / "docs").glob("*.md")))
    return paths


def _check_md_links(path: pathlib.Path, text: str, errors: List[str]) -> None:
    for match in _MD_LINK.finditer(text):
        target = match.group(1)
        if target.startswith(_EXTERNAL) or target.startswith("#"):
            continue
        resolved = (path.parent / target.split("#", 1)[0]).resolve()
        if not resolved.exists():
            errors.append(f"{path.relative_to(REPO_ROOT)}: broken link "
                          f"({target})")


def _check_wiki_links(path: pathlib.Path, text: str,
                      errors: List[str]) -> None:
    for match in _WIKI_LINK.finditer(text):
        name = match.group(1).strip()
        candidates = [
            path.parent / name, path.parent / f"{name}.md",
            REPO_ROOT / name, REPO_ROOT / f"{name}.md",
            REPO_ROOT / "docs" / name, REPO_ROOT / "docs" / f"{name}.md",
        ]
        if not any(c.exists() for c in candidates):
            errors.append(f"{path.relative_to(REPO_ROOT)}: unresolved "
                          f"wiki link [[{name}]]")


def _check_artifact_refs(path: pathlib.Path, text: str,
                         errors: List[str]) -> None:
    results_dir = REPO_ROOT / "benchmarks" / "results"
    for match in _RESULT_REF.finditer(text):
        name = match.group(1)
        if "*" in name:
            if not sorted(results_dir.glob(name)):
                errors.append(f"{path.relative_to(REPO_ROOT)}: no result "
                              f"file matches `{name}`")
        elif not (results_dir / name).exists():
            errors.append(f"{path.relative_to(REPO_ROOT)}: missing result "
                          f"file benchmarks/results/{name}")
    for match in _SCRIPT_REF.finditer(text):
        rel = match.group(1)
        if not (REPO_ROOT / rel).exists():
            errors.append(f"{path.relative_to(REPO_ROOT)}: missing "
                          f"script {rel}")


#: Pages whose dotted `repro.*` mentions must exist under src/.
_MODULE_CHECKED_PAGES = ("architecture.md", "parallelism.md",
                         "surrogate.md", "fleet.md", "benchmarks.md",
                         "drift.md", "serve.md", "profiling.md",
                         "codesign.md")


def _check_module_refs(errors: List[str]) -> None:
    src = REPO_ROOT / "src"
    for page in _MODULE_CHECKED_PAGES:
        doc = REPO_ROOT / "docs" / page
        if not doc.exists():
            # Absence is caught by the markdown link check (every page
            # here is linked from another doc); skipping keeps the
            # checker usable against partial trees in tests.
            continue
        for match in _MODULE_REF.finditer(doc.read_text()):
            dotted = match.group(1)
            parts = dotted.split(".")
            # A trailing CamelCase segment is a class reference; the
            # module check applies to the dotted prefix.
            while parts and not parts[-1].islower():
                parts.pop()
            rel = pathlib.Path(*parts)
            if not ((src / rel).is_dir()
                    and (src / rel / "__init__.py").exists()
                    or (src / rel.with_suffix(".py")).exists()):
                errors.append(f"docs/{page}: module `{dotted}` "
                              f"not found under src/")


def _bench_suites() -> dict:
    """``SUITES`` of the ``check_bench.py`` next to this script."""
    spec = importlib.util.spec_from_file_location(
        "check_bench", pathlib.Path(__file__).with_name("check_bench.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SUITES


def _check_bench_table(errors: List[str]) -> None:
    doc = REPO_ROOT / "docs" / "benchmarks.md"
    if not doc.exists():
        return
    rows = set(_BENCH_ROW.findall(doc.read_text()))
    suites = {(suite.file, suite.script)
              for suite in _bench_suites().values()}
    errors.extend(f"docs/benchmarks.md: file table has no row for "
                  f"`{file}` | `{script}`, a suite of scripts/check_bench.py"
                  for file, script in sorted(suites - rows))
    errors.extend(f"docs/benchmarks.md: file table row `{file}` | `{script}` "
                  f"is no suite of scripts/check_bench.py"
                  for file, script in sorted(rows - suites))


def main() -> int:
    errors: List[str] = []
    for path in _doc_paths():
        text = path.read_text()
        _check_md_links(path, text, errors)
        _check_wiki_links(path, text, errors)
        _check_artifact_refs(path, text, errors)
    _check_module_refs(errors)
    _check_bench_table(errors)
    for line in errors:
        print(line)
    if not errors:
        print(f"docs OK ({len(_doc_paths())} files checked)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
