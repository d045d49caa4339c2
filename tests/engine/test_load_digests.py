"""Identity proof for the batch load path.

``tests/engine/fixtures/load_digests.json`` was written by the last
commit that loaded rows one validated ``append`` at a time (see
``fixtures/generate_load.py`` for the commit and the recipe). Loading,
indexing and analyzing through the current code must reproduce every
page layout, leaf walk, column statistic and catalog fingerprint.
"""

import json

import pytest

from tests.engine.fixtures import generate_load


@pytest.fixture(scope="module")
def committed():
    return json.loads(generate_load.DIGEST_PATH.read_text())


@pytest.fixture(scope="module")
def current():
    return generate_load.compute()


@pytest.mark.parametrize("database", ["tpch", "workbench"])
@pytest.mark.parametrize("section",
                         ["tables", "indexes", "columns", "fingerprint"])
def test_current_load_matches_committed_digests(database, section, committed,
                                                current):
    got, want = current[database][section], committed[database][section]
    if isinstance(want, dict):
        assert sorted(got) == sorted(want)
        differing = sorted(key for key in want if got[key] != want[key])
        assert not differing, (
            f"{database} {section}: {len(differing)} of {len(want)} differ, "
            f"first {differing[0]}: {got[differing[0]]} != "
            f"{want[differing[0]]}")
    else:
        assert got == want


def test_committed_digests_cover_every_tpch_table_and_index(committed):
    from repro.workloads.tpch_schema import OSDB_INDEXES, TPCH_TABLES

    assert sorted(committed["tpch"]["tables"]) == sorted(TPCH_TABLES)
    assert sorted(committed["tpch"]["indexes"]) == sorted(
        name for name, _table, _column, _unique in OSDB_INDEXES)
    assert len(committed["header"]["commit"]) == 40
