"""Crash-safe job journal of the evaluation daemon (``repro serve``).

The daemon's :class:`~repro.serve.jobs.JobTable` lives in memory: before
this module existed, a daemon crash silently lost every queued and running
job.  The journal is the write-ahead log that closes that hole — an
append-only, schema-versioned JSONL file beside the result store recording
one record per job *transition*:

``submit``
    The accepted spec (full JSON document), its content digest and the
    submitting client.  Written before the submit response goes back on the
    wire, so an acknowledged job is always recoverable.
``start``
    The digest left the queue for the evaluation thread.
``done`` / ``failed`` / ``quarantined`` / ``cancelled``
    Terminal transitions.  ``done`` results live in the content-addressed
    ResultStore, not here — the journal records *that* a digest finished,
    never *what* it computed.

On startup the daemon replays the journal: every digest with a ``submit``
but no terminal record is *outstanding* and is re-enqueued (results are
content-addressed, so re-evaluating a lost running job is safe, and a
digest already in the store short-circuits to ``done``).  The journal is
then compacted to just the outstanding submits so it never grows without
bound across restarts.

Durability mirrors the result store's JSONL backend: single buffered
write + fsync per record under an advisory flock, torn tails truncated
before appending and salvaged on load (a crash mid-append costs at most
the record being written — and an unacknowledged submit is the client's
to retry).  Corruption in the *middle* of the file raises
:class:`JournalError`; ``repro fsck --repair`` reports and repairs what is
salvageable (see :mod:`repro.store.fsck`).
"""

from __future__ import annotations

import json
import logging
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Union

from repro.store.result_store import _exclusive_lock, atomic_write_text
from repro.testing.chaos import chaos_mangle

logger = logging.getLogger("repro.serve")

#: File name of the journal inside a store directory.
JOURNAL_FILE = "journal.jsonl"

#: Bumped on incompatible journal record changes.
JOURNAL_SCHEMA_VERSION = 1

#: Event kinds a record may carry.
SUBMIT = "submit"
START = "start"
TERMINAL_EVENTS = ("done", "failed", "quarantined", "cancelled")
EVENTS = (SUBMIT, START, *TERMINAL_EVENTS)


class JournalError(RuntimeError):
    """The journal file is damaged beyond the salvageable torn tail."""


@dataclass
class JournalEntry:
    """One outstanding job reconstructed by :meth:`JobJournal.outstanding`."""

    digest: str
    spec: dict
    client: str
    started: bool = False
    error: Optional[str] = None

    def describe(self) -> str:
        state = "running" if self.started else "queued"
        return f"{self.digest} ({state}, client {self.client})"


@dataclass
class JournalAudit:
    """What a full journal read saw (consumed by fsck and tests)."""

    entries: list[JournalEntry] = field(default_factory=list)
    records: int = 0
    torn_tail: bool = False
    orphaned_running: int = 0


class JobJournal:
    """Append-only JSONL write-ahead log of job transitions (module doc).

    One daemon owns one journal; the advisory flock merely protects against
    a misconfigured second daemon sharing the file.  All methods are safe to
    call from the server's connection and evaluation threads — appends are
    single atomic writes, replay happens before the threads start, and
    appends and compaction take one lock, so a drain's compaction cannot
    drop a terminal the evaluation thread journals meanwhile.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()

    # ---------------------------------------------------------------- append

    def append_submit(self, digest: str, spec: dict, client: str) -> None:
        """Journal an accepted submission (before it is acknowledged)."""
        self._append({"event": SUBMIT, "digest": digest, "spec": spec, "client": client})

    def append_start(self, digest: str) -> None:
        """Journal a digest leaving the queue for the evaluation thread."""
        self._append({"event": START, "digest": digest})

    def append_terminal(self, digest: str, state: str, error: Optional[str] = None) -> None:
        """Journal a terminal transition (``done``/``failed``/...)."""
        if state not in TERMINAL_EVENTS:
            raise ValueError(f"not a terminal journal event: {state!r}")
        record: dict[str, object] = {"event": state, "digest": digest}
        if error is not None:
            record["error"] = str(error)
        self._append(record)

    def _append(self, record: dict) -> None:
        record = {"schema_version": JOURNAL_SCHEMA_VERSION, **record}
        line = (json.dumps(record, separators=(",", ":")) + "\n").encode("utf-8")
        # Chaos site "serve-journal": the truncate kind tears this append in
        # half, exactly like a daemon killed mid-write (no-op outside tests).
        line = chaos_mangle("serve-journal", line)
        with self._lock:
            fd = os.open(self.path, os.O_CREAT | os.O_RDWR, 0o644)
            with os.fdopen(fd, "r+b") as handle:
                with _exclusive_lock(handle):
                    self._truncate_torn_tail(handle)
                    handle.write(line)
                    handle.flush()
                    os.fsync(handle.fileno())

    @staticmethod
    def _truncate_torn_tail(handle) -> None:
        """Drop a crash-torn final line before appending a fresh record."""
        size = handle.seek(0, os.SEEK_END)
        if size == 0:
            return
        handle.seek(size - 1)
        if handle.read(1) == b"\n":
            return
        handle.seek(0)
        content = handle.read()
        keep = content.rfind(b"\n") + 1  # 0 when no newline at all
        handle.truncate(keep)
        handle.seek(keep)

    # ---------------------------------------------------------------- replay

    def outstanding(self) -> list[JournalEntry]:
        """Replay the journal: jobs submitted but never finished, in order."""
        return self.audit().entries

    def audit(self) -> JournalAudit:
        """Full replay with damage accounting (fsck uses the extra fields).

        Raises :class:`JournalError` on mid-file corruption; a torn *final*
        line is salvaged (``torn_tail`` set) exactly like the result store.
        """
        audit = JournalAudit()
        if not self.path.exists():
            return audit
        data = self.path.read_bytes()
        text = data.decode("utf-8", errors="replace")
        torn_tail = bool(text) and not text.endswith("\n")
        lines = text.splitlines()
        entries: dict[str, JournalEntry] = {}
        order: list[str] = []
        for index, line in enumerate(lines):
            if not line.strip():
                continue
            final = index == len(lines) - 1
            where = f"{self.path}:{index + 1}"
            try:
                record = json.loads(line)
                if not isinstance(record, dict):
                    raise JournalError(f"journal record at {where} is not a JSON object")
                self._check_schema(record, where)
            except json.JSONDecodeError as exc:
                if final:
                    audit.torn_tail = True
                    logger.warning(
                        "salvaged job journal: dropped truncated final record at %s (%s)",
                        where, exc,
                    )
                    break
                raise JournalError(f"corrupt journal record at {where}: {exc}") from exc
            except JournalError:
                if final and torn_tail:
                    audit.torn_tail = True
                    logger.warning(
                        "salvaged job journal: dropped torn final record at %s", where)
                    break
                raise
            audit.records += 1
            event = record["event"]
            digest = str(record["digest"])
            if event == SUBMIT:
                if digest not in entries:
                    order.append(digest)
                entries[digest] = JournalEntry(
                    digest=digest,
                    spec=dict(record.get("spec") or {}),
                    client=str(record.get("client") or "journal-replay"),
                )
            elif event == START:
                entry = entries.get(digest)
                if entry is not None:
                    entry.started = True
            else:  # terminal
                entry = entries.pop(digest, None)
                if entry is not None:
                    order.remove(digest)
        audit.entries = [entries[digest] for digest in order]
        audit.orphaned_running = sum(1 for entry in audit.entries if entry.started)
        return audit

    @staticmethod
    def _check_schema(record: dict, where: str) -> None:
        version = record.get("schema_version")
        if version != JOURNAL_SCHEMA_VERSION:
            raise JournalError(
                f"unsupported journal schema {version!r} at {where} "
                f"(this build reads schema {JOURNAL_SCHEMA_VERSION})"
            )
        if record.get("event") not in EVENTS:
            raise JournalError(f"unknown journal event {record.get('event')!r} at {where}")
        if not record.get("digest"):
            raise JournalError(f"journal record at {where} has no digest")
        if record["event"] == SUBMIT and not isinstance(record.get("spec"), dict):
            raise JournalError(f"submit record at {where} has no spec document")

    # --------------------------------------------------------------- compact

    def compact(self, entries: Optional[Iterable[JournalEntry]] = None) -> int:
        """Atomically rewrite the journal to just the outstanding submits.

        Called after replay (so the file stays bounded across restarts) and
        on drain shutdown (so the persisted queue is exactly what the next
        daemon re-enqueues).  ``start`` markers are dropped: a recovered job
        goes back to ``queued``.  Returns the number of entries kept.
        """
        with self._lock:
            kept = list(self.outstanding() if entries is None else entries)
            lines = []
            for entry in kept:
                lines.append(json.dumps({
                    "schema_version": JOURNAL_SCHEMA_VERSION,
                    "event": SUBMIT,
                    "digest": entry.digest,
                    "spec": entry.spec,
                    "client": entry.client,
                }, separators=(",", ":")))
            atomic_write_text(self.path, "".join(line + "\n" for line in lines))
        return len(kept)
