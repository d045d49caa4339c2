"""Identity proof for the single executor / what-if / calibration path.

``tests/engine/fixtures/reference_digests.json`` was written by the
commit *before* the executor's scalar branches, the what-if optimizer's
full-planning switch and the calibration runner's trace-reuse keyword
were deleted, with all three reference paths active (see
``fixtures/generate.py`` for the commit and the recipe). The current
code must reproduce every entry bit for bit.
"""

import json

import pytest

from tests.engine.fixtures import generate


@pytest.fixture(scope="module")
def committed():
    return json.loads(generate.DIGEST_PATH.read_text())


@pytest.fixture(scope="module")
def current():
    return generate.compute()


@pytest.mark.parametrize("section", ["executor", "whatif", "calibration"])
def test_current_code_matches_reference_digests(section, committed, current):
    assert sorted(current[section]) == sorted(committed[section])
    differing = [key for key, entry in current[section].items()
                 if entry != committed[section][key]]
    assert not differing, (
        f"{len(differing)} of {len(current[section])} {section} entries "
        f"differ from the reference, first: {differing[0]} "
        f"{current[section][differing[0]]} != "
        f"{committed[section][differing[0]]}")


def test_reference_covers_every_query_and_fractional_operator(committed):
    entries = committed["executor"]
    for name in generate.STATEMENTS:
        for memory_pages in generate.MEMORY_PAGES:
            for params_name in generate.PLANNER_PARAMS:
                assert f"{name}|mem={memory_pages}|P={params_name}" in entries
    fractional = set().union(
        *(entry["fractional_starts"] for entry in entries.values()))
    assert fractional == set(generate.BRANCHING_OPERATORS)


def test_reference_header_names_commit_and_reference_paths(committed):
    header = committed["header"]
    assert len(header["commit"]) == 40
    assert len(header["reference_paths"]) == 3
