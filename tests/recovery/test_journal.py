"""Tests for the write-ahead journal (``repro.recovery.journal``).

The journal's contract: atomically created, checksummed per record,
tolerant of exactly one failure mode (a torn final record from a crash
mid-append) and loud about every other kind of damage.
"""

import json

import pytest

from repro.recovery import FORMAT, JournalRecord, RunJournal, read_journal
from repro.util.errors import RecoveryError

pytestmark = pytest.mark.recovery


def make_journal(path, n_records=3):
    journal = RunJournal.create(path, {"run": "test"})
    for i in range(n_records):
        journal.append("unit", {"index": i, "value": i * 1.5})
    return journal


class TestCreateAndAppend:
    def test_create_writes_verified_header(self, tmp_path):
        path = tmp_path / "run.journal"
        RunJournal.create(path, {"run": "demo"})
        meta, records, tail = read_journal(path)
        assert meta["format"] == FORMAT
        assert meta["run"] == "demo"
        assert records == []
        assert tail == 0

    def test_create_refuses_existing_file(self, tmp_path):
        path = tmp_path / "run.journal"
        RunJournal.create(path)
        with pytest.raises(RecoveryError, match="already exists"):
            RunJournal.create(path)

    def test_create_leaves_no_file_behind_on_refusal(self, tmp_path):
        path = tmp_path / "run.journal"
        RunJournal.create(path)
        before = sorted(p.name for p in tmp_path.iterdir())
        with pytest.raises(RecoveryError):
            RunJournal.create(path)
        assert sorted(p.name for p in tmp_path.iterdir()) == before

    def test_append_round_trips(self, tmp_path):
        path = tmp_path / "run.journal"
        make_journal(path, n_records=3)
        _meta, records, tail = read_journal(path)
        assert tail == 0
        assert [r.kind for r in records] == ["unit"] * 3
        assert [r.data["index"] for r in records] == [0, 1, 2]
        assert records[1].data["value"] == pytest.approx(1.5)

    def test_sequence_numbers_are_dense(self, tmp_path):
        path = tmp_path / "run.journal"
        make_journal(path, n_records=4)
        _meta, records, _tail = read_journal(path)
        assert [r.seq for r in records] == [1, 2, 3, 4]


class TestTornTail:
    def test_partial_final_line_is_dropped(self, tmp_path):
        path = tmp_path / "run.journal"
        make_journal(path, n_records=3)
        with open(path, "a") as handle:
            handle.write('{"seq": 4, "kind": "unit", "da')  # killed here
        _meta, records, tail = read_journal(path)
        assert tail == 1
        assert len(records) == 3

    def test_final_record_with_bad_checksum_is_dropped(self, tmp_path):
        path = tmp_path / "run.journal"
        make_journal(path, n_records=2)
        bad = json.dumps({"seq": 3, "kind": "unit", "data": {},
                          "checksum": "0" * 16})
        with open(path, "a") as handle:
            handle.write(bad + "\n")
        _meta, records, tail = read_journal(path)
        assert tail == 1
        assert len(records) == 2

    def test_open_truncates_torn_tail_then_appends_cleanly(self, tmp_path):
        path = tmp_path / "run.journal"
        make_journal(path, n_records=2)
        with open(path, "a") as handle:
            handle.write('{"torn":')
        journal = RunJournal.open(path)
        journal.append("unit", {"index": 2})
        _meta, records, tail = read_journal(path)
        assert tail == 0
        assert [r.data["index"] for r in records] == [0, 1, 2]

    def test_crash_during_tail_repair_loses_no_committed_record(
            self, tmp_path, monkeypatch):
        """A second crash *while* the torn tail is being dropped must
        leave every committed (paid-for) record readable."""
        import os
        import pathlib

        path = tmp_path / "run.journal"
        make_journal(path, n_records=3)
        with open(path, "a") as handle:
            handle.write('{"seq": 4, "kind": "unit", "da')

        class Crash(Exception):
            pass

        def dying_write_text(self, data, *args, **kwargs):
            # What dying inside write_text does: the file is already
            # truncated by open(..., "w"), nothing is written yet.
            open(self, "w").close()
            raise Crash()

        def dying_replace(src, dst):
            raise Crash()

        # Whichever way the repair rewrites the file, it dies mid-way.
        with monkeypatch.context() as patched:
            patched.setattr(pathlib.Path, "write_text", dying_write_text)
            patched.setattr(os, "replace", dying_replace)
            with pytest.raises(Crash):
                RunJournal.open(path)

        journal = RunJournal.open(path)  # the next resume
        assert [r.data["index"] for r in journal.records] == [0, 1, 2]
        assert list(tmp_path.iterdir()) == [path]  # no temp file left


class TestCorruption:
    def test_checksum_mismatch_mid_file_raises(self, tmp_path):
        path = tmp_path / "run.journal"
        make_journal(path, n_records=3)
        lines = path.read_text().splitlines()
        # Flip a data byte in a middle record without fixing its checksum.
        lines[2] = lines[2].replace('"index":1', '"index":7')
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(RecoveryError, match="checksum mismatch"):
            read_journal(path)

    def test_spliced_sequence_raises(self, tmp_path):
        path = tmp_path / "run.journal"
        make_journal(path, n_records=3)
        lines = path.read_text().splitlines()
        del lines[2]  # remove a middle record; seqs now skip
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(RecoveryError, match="sequence"):
            read_journal(path)

    def test_missing_header_raises(self, tmp_path):
        path = tmp_path / "run.journal"
        record = JournalRecord(seq=0, kind="unit", data={"index": 0})
        path.write_text(record.to_line() + "\n")
        with pytest.raises(RecoveryError, match="meta header"):
            read_journal(path)

    def test_wrong_format_version_raises(self, tmp_path):
        path = tmp_path / "run.journal"
        header = JournalRecord(seq=0, kind="meta",
                               data={"format": "repro-journal/99"})
        path.write_text(header.to_line() + "\n")
        with pytest.raises(RecoveryError, match="repro-journal/99"):
            read_journal(path)

    def test_empty_file_raises(self, tmp_path):
        path = tmp_path / "run.journal"
        path.write_text("")
        with pytest.raises(RecoveryError, match="empty"):
            read_journal(path)

    def test_missing_file_raises_recovery_error(self, tmp_path):
        with pytest.raises(RecoveryError, match="cannot read"):
            read_journal(tmp_path / "nope.journal")

    def test_open_refuses_corrupt_journal(self, tmp_path):
        path = tmp_path / "run.journal"
        make_journal(path, n_records=3)
        lines = path.read_text().splitlines()
        lines[1] = lines[1][:-5] + 'junk"'
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(RecoveryError):
            RunJournal.open(path)
