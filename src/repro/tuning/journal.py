"""Append-only JSONL write-ahead journal for sweep checkpoints.

One journal file records one sweep's durable progress as JSON lines::

    {"t": "meta", "space": <digest>, "schema": 1, "seq": 0, "c": <sum>}
    {"t": "attempt", "digest": <point>, "attempt": 1, "seq": 1, "c": ...}
    {"t": "result", "digest": <point>, "record": {...}, "seq": 2, "c": ...}

``c`` is the SHA-256 (12 hex chars) of the record's canonical JSON with
``c`` removed — per-record integrity, so one flipped bit invalidates
exactly one record instead of the file.  Appends are write+flush+fsync:
once :meth:`SweepJournal.append` returns True the record survives
SIGKILL.  The ``tuning.journal:io`` fault site fires inside the append
path; an I/O failure (injected or real) is counted and reported to the
caller, never raised — losing the journal degrades a sweep to
memory-only progress tracking, it must not abort it.

:meth:`SweepJournal.replay` is crash-shaped on purpose: a final line
without a terminating newline is a torn append (the process died
mid-write) and is dropped; a record whose checksum or JSON does not
verify is skipped; duplicate results for one point keep the first
occurrence.  Each anomaly is counted separately so tests can pin the
recovery behaviour.

:meth:`SweepJournal.compact` rewrites the journal to its live content
(meta + one result per point) through the store's atomic-publish idiom
— temp sibling, fsync, ``os.replace``, directory fsync — so a reader
holding the old file descriptor keeps a complete old journal and a
crash at any instant leaves old-or-new, never a torn file.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Dict, Optional

from .. import counters, faults
from ..store import fsync_dir, next_tmp_suffix

#: Journal line-format version; bump on incompatible record changes so
#: stale journals are rejected instead of misread.
JOURNAL_SCHEMA_VERSION = 1


class JournalMismatch(RuntimeError):
    """The journal belongs to a different sweep space or schema."""


def _canonical(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def _checksum(record: dict) -> str:
    body = _canonical({key: value for key, value in record.items()
                       if key != "c"})
    return hashlib.sha256(body.encode()).hexdigest()[:12]


class JournalReplay:
    """Outcome of reading one journal back (see :meth:`SweepJournal.replay`)."""

    def __init__(self) -> None:
        self.meta: Optional[dict] = None
        #: point digest -> result record payload, first occurrence wins.
        self.results: Dict[str, dict] = {}
        #: point digest -> highest attempt number journaled.
        self.attempts: Dict[str, int] = {}
        self.records = 0
        self.torn_tail = 0
        self.corrupt = 0
        self.duplicates = 0

    def inflight(self) -> Dict[str, int]:
        """Points that were dispatched but never completed."""
        return {digest: attempt
                for digest, attempt in self.attempts.items()
                if digest not in self.results}


class SweepJournal:
    """One sweep's write-ahead journal (see module docstring)."""

    def __init__(self, path) -> None:
        self.path = Path(path)
        self._fh = None
        self._seq = 0

    # -- writing ------------------------------------------------------------
    def _open_for_append(self):
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(self.path, "a", encoding="utf-8")
        return self._fh

    def append(self, record: dict) -> bool:
        """Durably append one record; False when the write was lost.

        A lost append is counted (``tuning_journal_io_errors``) and the
        file handle dropped so the next append reopens — transient I/O
        trouble costs individual checkpoints, not the whole journal.
        """
        record = dict(record)
        record["seq"] = self._seq
        record["c"] = _checksum(record)
        line = _canonical(record) + "\n"
        try:
            if faults.fires("tuning.journal") == "io":
                raise OSError("injected tuning.journal io fault")
            fh = self._open_for_append()
            fh.write(line)
            fh.flush()
            os.fsync(fh.fileno())
        except OSError:
            counters.add("tuning", "tuning_journal_io_errors")
            self._drop_handle()
            return False
        self._seq += 1
        counters.add("tuning", "tuning_journal_appends")
        return True

    def append_meta(self, space_digest: str) -> bool:
        return self.append({"t": "meta", "space": space_digest,
                            "schema": JOURNAL_SCHEMA_VERSION})

    def append_attempt(self, digest: str, attempt: int) -> bool:
        return self.append({"t": "attempt", "digest": digest,
                            "attempt": attempt})

    def append_result(self, digest: str, record: dict) -> bool:
        return self.append({"t": "result", "digest": digest,
                            "record": record})

    def _drop_handle(self) -> None:
        if self._fh is not None:
            try:
                self._fh.close()
            except OSError:
                pass
            self._fh = None

    def close(self) -> None:
        self._drop_handle()

    def __enter__(self) -> "SweepJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- reading ------------------------------------------------------------
    def replay(self, expect_space: Optional[str] = None) -> JournalReplay:
        """Recover completed work; tolerant of every torn-write shape.

        ``expect_space`` pins the meta record's space digest: resuming
        a journal written for a different sweep raises
        :class:`JournalMismatch` (silently merging results of the wrong
        space would corrupt the report).
        """
        replay = JournalReplay()
        try:
            raw = self.path.read_bytes()
        except FileNotFoundError:
            return replay
        lines = raw.split(b"\n")
        if lines and lines[-1] != b"":
            # No terminating newline: the writer died mid-append.
            replay.torn_tail += 1
            counters.add("tuning", "tuning_journal_torn_tail")
            lines = lines[:-1]
        for line in lines:
            if not line.strip():
                continue
            try:
                record = json.loads(line.decode("utf-8"))
                if not isinstance(record, dict) \
                        or record.get("c") != _checksum(record):
                    raise ValueError("checksum mismatch")
            except (ValueError, UnicodeDecodeError):
                replay.corrupt += 1
                counters.add("tuning", "tuning_journal_corrupt")
                continue
            replay.records += 1
            counters.add("tuning", "tuning_journal_replayed")
            self._seq = max(self._seq, int(record.get("seq", 0)) + 1)
            kind = record.get("t")
            if kind == "meta":
                if record.get("schema") != JOURNAL_SCHEMA_VERSION:
                    raise JournalMismatch(
                        f"journal {self.path} has schema "
                        f"{record.get('schema')!r}, expected "
                        f"{JOURNAL_SCHEMA_VERSION}"
                    )
                if expect_space is not None \
                        and record.get("space") != expect_space:
                    raise JournalMismatch(
                        f"journal {self.path} belongs to space "
                        f"{record.get('space')!r}, not {expect_space!r}"
                    )
                replay.meta = record
            elif kind == "attempt":
                digest = record.get("digest")
                replay.attempts[digest] = max(
                    replay.attempts.get(digest, 0),
                    int(record.get("attempt", 0)),
                )
            elif kind == "result":
                digest = record.get("digest")
                if digest in replay.results:
                    replay.duplicates += 1
                    counters.add("tuning", "tuning_journal_duplicates")
                    continue
                replay.results[digest] = record.get("record", {})
        return replay

    # -- compaction ---------------------------------------------------------
    def compact(self, space_digest: str, results: Dict[str, dict]) -> bool:
        """Atomically rewrite the journal to meta + one result per point.

        Attempt records and superseded duplicates are dropped; result
        payloads are preserved byte-for-byte (the report is built from
        them).  Publishes via temp-file + fsync + ``os.replace`` +
        directory fsync, so concurrent readers and crashes both see a
        complete journal — old or new, never mixed.  Returns False
        (counted, old journal intact) when I/O fails.
        """
        self._drop_handle()
        records = [{"t": "meta", "space": space_digest,
                    "schema": JOURNAL_SCHEMA_VERSION}]
        records.extend(
            {"t": "result", "digest": digest, "record": results[digest]}
            for digest in sorted(results)
        )
        tmp_path = self.path.with_name(self.path.name + next_tmp_suffix())
        try:
            if faults.fires("tuning.journal") == "io":
                raise OSError("injected tuning.journal io fault")
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with open(tmp_path, "w", encoding="utf-8") as fh:
                for seq, record in enumerate(records):
                    record = dict(record)
                    record["seq"] = seq
                    record["c"] = _checksum(record)
                    fh.write(_canonical(record) + "\n")
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp_path, self.path)
            fsync_dir(self.path.parent)
        except OSError:
            counters.add("tuning", "tuning_journal_io_errors")
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            return False
        self._seq = len(records)
        counters.add("tuning", "tuning_journal_compactions")
        return True
