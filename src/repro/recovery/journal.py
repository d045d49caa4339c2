"""Write-ahead journal for crash-recoverable runs.

A :class:`RunJournal` is an append-only file of newline-delimited JSON
records. Each record carries a sequence number and a checksum over its
canonical serialization, so a reader can detect corruption anywhere and
distinguish it from the one benign failure mode: a torn final record
left by a process killed mid-append. The file itself is created
atomically (temp file + ``os.replace``) so a journal either exists with
a valid header or not at all.

Format (``repro-journal/1``)::

    {"seq": 0, "kind": "meta", "data": {...}, "checksum": "..."}
    {"seq": 1, "kind": "calibration", "data": {...}, "checksum": "..."}
    {"seq": 2, "kind": "evaluation", "data": {...}, "checksum": "..."}
    ...

* The first record is always ``kind="meta"`` and carries
  ``format="repro-journal/1"`` plus whatever run identity the writer
  wants resume to verify (fault plan, problem fingerprint, ...).
* ``checksum`` is the first 16 hex digits of the SHA-256 of the
  record's canonical JSON (sorted keys, no checksum field).
* Sequence numbers are dense and ascending; a gap or repeat means the
  file was edited and is rejected.

Readers (:func:`read_journal`) tolerate a truncated tail — a partial
final line, or a final line whose checksum does not verify, is dropped
and reported, because that is exactly what a crash mid-append leaves
behind. Corruption anywhere *before* the tail raises
:class:`~repro.util.errors.RecoveryError`: the journal cannot be
trusted and the run must start over.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import tempfile
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.util.errors import RecoveryError

FORMAT = "repro-journal/1"


def _canonical(payload: Dict[str, Any]) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _checksum(payload: Dict[str, Any]) -> str:
    return hashlib.sha256(_canonical(payload).encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class JournalRecord:
    """One committed unit of work in a journal."""

    seq: int
    kind: str
    data: Dict[str, Any]

    def to_line(self) -> str:
        payload = {"seq": self.seq, "kind": self.kind, "data": self.data}
        payload["checksum"] = _checksum(
            {"seq": self.seq, "kind": self.kind, "data": self.data})
        return _canonical(payload)

    @classmethod
    def from_line(cls, line: str) -> "JournalRecord":
        """Parse and verify one journal line; raises ``RecoveryError``."""
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            raise RecoveryError(f"unparseable journal record: {exc}") from exc
        if not isinstance(payload, dict):
            raise RecoveryError("journal record is not an object")
        try:
            seq = int(payload["seq"])
            kind = str(payload["kind"])
            data = payload["data"]
            stored = str(payload["checksum"])
        except (KeyError, TypeError, ValueError) as exc:
            raise RecoveryError(
                f"journal record missing field: {exc}") from exc
        expected = _checksum({"seq": seq, "kind": kind, "data": data})
        if stored != expected:
            raise RecoveryError(
                f"journal record {seq} checksum mismatch "
                f"({stored} != {expected})")
        return cls(seq=seq, kind=kind, data=data)


def read_journal(path: Union[str, pathlib.Path]) -> Tuple[
        Dict[str, Any], List[JournalRecord], int]:
    """Read and verify a journal file.

    Returns ``(meta, records, tail_dropped)`` where *meta* is the
    header record's data, *records* are the committed non-meta records
    in order, and *tail_dropped* is 1 when a torn final record was
    discarded (0 otherwise). Raises
    :class:`~repro.util.errors.RecoveryError` for anything worse than a
    torn tail: a missing or malformed header, a corrupt record before
    the tail, or a broken sequence.
    """
    path = pathlib.Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise RecoveryError(f"cannot read journal {path}: {exc}") from exc
    lines = text.split("\n")
    # A well-formed file ends with "\n", leaving one trailing empty
    # string; anything after the last newline is a torn tail candidate.
    records: List[JournalRecord] = []
    tail_dropped = 0
    non_empty = [line for line in lines if line.strip()]
    if not non_empty:
        raise RecoveryError(f"journal {path} is empty")
    for position, line in enumerate(non_empty):
        is_last = position == len(non_empty) - 1
        try:
            record = JournalRecord.from_line(line)
        except RecoveryError:
            if is_last:
                # Torn tail: the crash interrupted this append.
                tail_dropped = 1
                break
            raise
        if record.seq != position:
            raise RecoveryError(
                f"journal {path}: record {position} has sequence "
                f"{record.seq} (journal edited or spliced)")
        records.append(record)
    if not records or records[0].kind != "meta":
        raise RecoveryError(f"journal {path} has no meta header")
    meta = records[0].data
    if meta.get("format") != FORMAT:
        raise RecoveryError(
            f"journal {path}: format {meta.get('format')!r} is not {FORMAT!r}")
    return meta, records[1:], tail_dropped


def _replace_atomically(path: pathlib.Path,
                        records: List[JournalRecord]) -> None:
    """Make *path* hold exactly *records*, or leave it untouched.

    The lines go to a temp file in the same directory, are fsynced,
    and only then renamed over *path* — so a crash at any point leaves
    either the old file or the complete new one.
    """
    fd, temp_name = tempfile.mkstemp(
        dir=str(path.parent), prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.writelines(record.to_line() + "\n" for record in records)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp_name, path)
    except BaseException:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise


class RunJournal:
    """Append-only writer over a journal file.

    :meth:`create` writes the header atomically; :meth:`open` reopens
    an existing journal for appending, first dropping any torn tail
    (atomically too) so every later append starts on a clean boundary.
    Each append is flushed and fsynced before returning — a record the
    caller saw committed survives the process dying on the very next
    instruction.
    """

    def __init__(self, path: pathlib.Path, next_seq: int,
                 meta: Dict[str, Any], records: List[JournalRecord]):
        self._path = path
        self._next_seq = next_seq
        self._meta = meta
        self._records = records

    # -- construction ------------------------------------------------------

    @classmethod
    def create(cls, path: Union[str, pathlib.Path],
               meta: Optional[Dict[str, Any]] = None) -> "RunJournal":
        """Create a new journal with a verified header, atomically."""
        path = pathlib.Path(path)
        if path.exists():
            raise RecoveryError(
                f"journal {path} already exists; resume it or remove it")
        data = dict(meta or {})
        data["format"] = FORMAT
        header = JournalRecord(seq=0, kind="meta", data=data)
        path.parent.mkdir(parents=True, exist_ok=True)
        _replace_atomically(path, [header])
        return cls(path, next_seq=1, meta=data, records=[])

    @classmethod
    def open(cls, path: Union[str, pathlib.Path]) -> "RunJournal":
        """Reopen an existing journal for appending (resume)."""
        path = pathlib.Path(path)
        meta, records, tail_dropped = read_journal(path)
        if tail_dropped:
            # Drop the torn tail so appends start on a clean line —
            # atomically: a second crash during the repair must leave
            # the journal as it was (torn but readable), never
            # truncated, because every record in it is a paid-for unit.
            header = JournalRecord(seq=0, kind="meta", data=meta)
            _replace_atomically(path, [header] + records)
        return cls(path, next_seq=len(records) + 1, meta=meta,
                   records=list(records))

    # -- access ------------------------------------------------------------

    @property
    def path(self) -> pathlib.Path:
        return self._path

    @property
    def meta(self) -> Dict[str, Any]:
        return dict(self._meta)

    @property
    def records(self) -> List[JournalRecord]:
        """Committed non-meta records, oldest first."""
        return list(self._records)

    def records_of(self, kind: str) -> List[JournalRecord]:
        return [record for record in self._records if record.kind == kind]

    # -- appending ---------------------------------------------------------

    def append(self, kind: str, data: Dict[str, Any]) -> JournalRecord:
        """Durably append one record; returns it once committed."""
        record = JournalRecord(seq=self._next_seq, kind=kind, data=data)
        with open(self._path, "a", encoding="utf-8") as handle:
            handle.write(record.to_line() + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        self._next_seq += 1
        self._records.append(record)
        return record


class UnitBudgetExceeded(Exception):
    """The simulated kill point of a :class:`BudgetedJournal` was hit."""


class BudgetedJournal:
    """Journal proxy that simulates a crash after N new commits.

    The budget is checked *before* the (N+1)-th append: the unit's work
    is done but never committed, which is exactly the state a real kill
    between compute and commit leaves behind — resume re-runs that
    unit. Both the design-run supervisor (:mod:`repro.recovery.
    supervisor`) and the fleet supervisor (:mod:`repro.fleet.
    supervisor`) model kills this way, so their equivalence tests share
    one crash semantics.
    """

    def __init__(self, journal: RunJournal, max_new_units: Optional[int]):
        self._journal = journal
        self._max_new = max_new_units
        self.new_units = 0

    def append(self, kind: str, data: Dict[str, Any]) -> JournalRecord:
        if self._max_new is not None and self.new_units >= self._max_new:
            raise UnitBudgetExceeded()
        record = self._journal.append(kind, data)
        self.new_units += 1
        return record

    def __getattr__(self, name):
        return getattr(self._journal, name)
