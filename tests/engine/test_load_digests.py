"""Identity proof for the batch load path.

``tests/engine/fixtures/load_digests.json`` was written by the last
commit that loaded rows one validated ``append`` at a time (see
``fixtures/generate_load.py`` for the commit and the recipe). Loading,
indexing and analyzing through the current code must reproduce every
page layout, leaf walk, column statistic and catalog fingerprint.
The same databases show that every index payload is a plain row
position that points back at its key.
"""

import gc
import json
from itertools import groupby
from operator import itemgetter

import pytest

from tests.engine.fixtures import generate_load


@pytest.fixture(scope="module")
def committed():
    return json.loads(generate_load.DIGEST_PATH.read_text())


@pytest.fixture(scope="module")
def databases():
    return generate_load.build()


@pytest.fixture(scope="module")
def current(databases):
    return {name: generate_load.database_digests(db)
            for name, db in databases.items()}


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


@pytest.mark.parametrize("database", ["tpch", "workbench"])
def test_index_payloads_are_untracked_ascending_row_positions(
        database, databases, committed):
    catalog = databases[database].catalog
    indexed = set()
    for name in catalog.table_names():
        info = catalog.table(name)
        rows = info.heap.rows
        for index_info in info.indexes.values():
            column = info.schema.column_index(index_info.column_name)
            tree = index_info.index
            n_payloads = 0
            for key, entries in groupby(tree.items(), key=itemgetter(0)):
                positions = [position for _key, position in entries]
                assert all(type(p) is int and not gc.is_tracked(p)
                           for p in positions), (index_info.name, key)
                assert all(a < b for a, b in zip(positions, positions[1:])), (
                    index_info.name, key)
                assert all(rows[p][column] == key for p in positions), (
                    index_info.name, key)
                n_payloads += len(positions)
            assert n_payloads == tree.n_entries > 0
            indexed.add(index_info.name)
    assert indexed == set(committed[database]["indexes"])
