"""Identity proof for the single search strategy per algorithm.

``tests/core/fixtures/search_digests.json`` was written by the commit
*before* the unbatched exhaustive, greedy and dynamic-programming
strategies were deleted, through both of its paths (see
``fixtures/generate.py`` for the commit and the recipe). The current
code with ``engine=None`` must reproduce the batched path's allocation,
cost, evaluation count, stopped flag and fresh-evaluation order on
every case, budgeted or not, cold memo or warm.
"""

import json

import pytest

from tests.core.fixtures import generate


@pytest.fixture(scope="module")
def committed():
    return json.loads(generate.DIGEST_PATH.read_text())


def test_engineless_search_matches_parent_batched_path(committed):
    current = generate.compute(engine=None)
    cases = committed["cases"]
    assert sorted(current) == sorted(cases)
    differing = [key for key, entry in current.items()
                 if entry != cases[key]["batched"]]
    assert not differing, (
        f"{len(differing)} of {len(current)} cases differ from the "
        f"reference, first: {differing[0]} {current[differing[0]]} != "
        f"{cases[differing[0]]['batched']}")


def test_corpus_covers_budgets_and_memos_for_every_algorithm(committed):
    cases = committed["cases"]
    assert len(cases) == 864
    for key, entry in cases.items():
        assert "error" not in entry["batched"], key
    stopped = {key.split("|")[0] for key, entry in cases.items()
               if entry["batched"]["stopped"]}
    assert stopped == {"exhaustive", "greedy", "dynamic-programming"}
    assert len(committed["header"]["commit"]) == 40


def test_generator_refuses_without_the_unbatched_path(tmp_path, monkeypatch):
    monkeypatch.setattr(generate, "DIGEST_PATH", tmp_path / "corpus.json")
    assert generate.main() == 1
    assert not (tmp_path / "corpus.json").exists()
