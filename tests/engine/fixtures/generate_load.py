"""Generate the load digests tier-1 compares the current load path against.

``load_digests.json`` (next to this file) pins what loading, indexing
and analyzing a database produce, for a TPC-H database at scale factor
0.01 (all eight tables, the OSDB index set) and for a default
:class:`~repro.calibration.synthetic.CalibrationWorkbench`:

* per table — ``n_rows``, ``n_pages``, the per-page row counts
  (run-length encoded as ``[rows, pages]`` pairs) and a sha256 of every
  row's ``repr`` in physical order;
* per index — ``n_pages``, ``height``, ``fanout``, ``n_entries`` and a
  sha256 of the leaf walk, one ``(key, [(page_no, slot), ...])`` per key;
* per column — a sha256 of ``repr(ColumnStats)``;
* ``Catalog.fingerprint()`` as its ``repr``.

The committed file was generated at commit
``50eddeaca5f05b1395d319c96dfada3f81fc9692``, the last commit whose heap
load appended one validated row at a time, whose ``Date`` compared in
Python and whose index bulk load sorted on a ``(key, page, slot)``
tuple. The batch load that replaced those paths must reproduce it bit
for bit.

The engine has since dropped page and record-id objects: a heap is one
row list, an index payload is a row's position in it, and a page is
geometry (``rows_per_page()``). The digests still speak of pages and
slots, so this helper renders them from the geometry — per-page row
counts from ``n_rows`` and ``rows_per_page()``, a payload as
``divmod(position, rows_per_page())`` — which is the address the
committed file recorded for the same row. To regenerate (only when page geometry, index layout or
statistics change on purpose), run from the repository root::

    PYTHONPATH=src:. python tests/engine/fixtures/generate_load.py --overwrite

Without ``--overwrite`` an existing digest file is never replaced.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import subprocess
import sys

from repro.calibration.synthetic import CalibrationWorkbench
from repro.workloads import build_tpch_database

HERE = pathlib.Path(__file__).parent
DIGEST_PATH = HERE / "load_digests.json"

SCALE_FACTOR = 0.01


def _sha(lines) -> str:
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode())
        digest.update(b"\n")
    return digest.hexdigest()


def _run_lengths(counts):
    runs = []
    for count in counts:
        if runs and runs[-1][0] == count:
            runs[-1][1] += 1
        else:
            runs.append([count, 1])
    return runs


def _page_rows(heap):
    """Rows on each page: every page but the last is full."""
    per_page = heap.rows_per_page()
    return [min(per_page, heap.n_rows - start)
            for start in range(0, heap.n_rows, per_page)]


def _leaf_walk(tree, per_page):
    node = tree._root
    while hasattr(node, "children"):
        node = node.children[0]
    while node is not None:
        for key, positions in zip(node.keys, node.positions):
            yield repr((key, [divmod(pos, per_page) for pos in positions]))
        node = node.next_leaf


def database_digests(db) -> dict:
    """Every table, index and column digest of one loaded database."""
    tables, indexes, columns = {}, {}, {}
    catalog = db.catalog
    for name in catalog.table_names():
        info = catalog.table(name)
        heap = info.heap
        tables[name] = {
            "n_rows": heap.n_rows,
            "n_pages": heap.n_pages,
            "page_rows": _run_lengths(_page_rows(heap)),
            "rows_sha256": _sha(map(repr, heap.rows)),
        }
        for index_name, index_info in sorted(info.indexes.items()):
            tree = index_info.index
            indexes[index_name] = {
                "n_pages": tree.n_pages,
                "height": tree.height,
                "fanout": tree.fanout,
                "n_entries": tree.n_entries,
                "leaves_sha256": _sha(_leaf_walk(tree, heap.rows_per_page())),
            }
        for column, stats in info.stats.columns.items():
            columns[f"{name}.{column}"] = _sha([repr(stats)])
    return {"tables": tables, "indexes": indexes, "columns": columns,
            "fingerprint": repr(catalog.fingerprint())}


def build() -> dict:
    """Both databases, loaded through the current code."""
    return {
        "tpch": build_tpch_database(scale_factor=SCALE_FACTOR),
        "workbench": CalibrationWorkbench().build_database(),
    }


def compute() -> dict:
    """The digests of both databases, loaded through the current code."""
    return {name: database_digests(db) for name, db in build().items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--overwrite", action="store_true",
                        help=f"replace an existing {DIGEST_PATH.name}")
    args = parser.parse_args(argv)

    if DIGEST_PATH.exists() and not args.overwrite:
        print(f"{DIGEST_PATH} exists; pass --overwrite to replace it",
              file=sys.stderr)
        return 2
    sections = compute()
    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=HERE, check=True,
        capture_output=True, text=True).stdout.strip()
    payload = {
        "header": {
            "commit": commit,
            "note": "generated by tests/engine/fixtures/generate_load.py; "
                    "page_rows is run-length encoded as [rows, pages]",
            "scale_factor": SCALE_FACTOR,
        },
        **sections,
    }
    DIGEST_PATH.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"wrote load digests for {', '.join(sections)} to {DIGEST_PATH} "
          f"at {commit}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
