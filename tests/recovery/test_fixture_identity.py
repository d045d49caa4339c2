"""Identity proof for the journaled-run kernel (ROADMAP aim 3).

``tests/recovery/fixtures/`` holds, for each of the five run kinds, a
journal killed half-way and the same run's completed journal — both
written by the commit *before* the five supervisors were moved onto
:class:`repro.recovery.kernel.JournaledRun` (see ``fixtures/generate.py``
for the commit and the recipe). Resuming the killed journal with the
current code must produce the completed journal's bytes: old journals
stay resumable, and the shared protocol commits exactly what the five
hand-rolled copies did.
"""

import pytest

from tests.recovery.fixtures.generate import SUPERVISORS, fixture_path

pytestmark = pytest.mark.recovery


@pytest.mark.parametrize("kind", sorted(SUPERVISORS))
def test_parent_commit_journal_resumes_to_identical_bytes(kind, tmp_path):
    path = tmp_path / f"{kind}.journal"
    path.write_bytes(fixture_path(kind, "killed").read_bytes())
    run = SUPERVISORS[kind](path).run(resume=True)
    assert run.completed
    assert run.replayed_units > 0 and run.new_units > 0
    assert path.read_bytes() == fixture_path(kind, "completed").read_bytes()
