"""Integrity audit (and optional repair) of a result-store directory.

``repro fsck <store>`` walks every persistence layer rooted at one store
directory — ``meta.json``, ``results.jsonl``, the pickled artifact and
fitness databases, and the GA checkpoints — and reports what it finds.
With ``repair=True`` it additionally fixes the *salvageable* classes of
corruption in place:

* a crash-torn trailing fragment in ``results.jsonl`` is truncated away
  (the interrupted run recomputes that one result);
* an unreadable GA checkpoint file is deleted (the search restarts from
  scratch instead of dying at resume time);
* leftover ``*.tmp`` files from interrupted atomic writes are removed;
* the ``repro serve`` job journal (``journal.jsonl``): a torn tail is
  truncated away, and entries orphaned in the ``running`` state by a
  daemon crash are compacted back to ``queued`` so the next daemon
  replays them.

Unsalvageable damage — a corrupt record in the *middle* of the JSONL file,
a sqlite database failing its integrity check — is only ever reported:
repairing those would silently drop an unknown amount of data, which is a
decision for the operator, not a tool default.  So is a store kept in the
retired sqlite result format, which an older build converts.
"""

from __future__ import annotations

import json
import sqlite3
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

from repro.store.result_store import (
    JSONL_FILE,
    META_FILE,
    RECORD_FORMAT,
    SCHEMA_VERSION,
    SQLITE_FILE,
    retired_format_problem,
)

#: Sqlite databases hosted in a store directory beside the results.
_SQLITE_SIBLINGS = ("artifacts.sqlite", "fitness.sqlite")


@dataclass(frozen=True)
class FsckFinding:
    """One problem found (and possibly repaired) during an fsck pass."""

    path: str
    problem: str
    repairable: bool = False
    repaired: bool = False

    def describe(self) -> str:
        status = "repaired" if self.repaired else ("repairable" if self.repairable else "damaged")
        return f"[{status}] {self.path}: {self.problem}"


@dataclass
class FsckReport:
    """Outcome of one :func:`fsck_store` pass."""

    root: str
    findings: list[FsckFinding] = field(default_factory=list)
    checked_files: int = 0
    intact_results: int = 0
    checkpoints: int = 0
    artifacts: int = 0
    journaled_jobs: int = 0  # outstanding jobs in the serve journal

    @property
    def clean(self) -> bool:
        return not self.findings

    @property
    def repaired(self) -> int:
        return sum(1 for finding in self.findings if finding.repaired)

    def summary(self) -> str:
        if self.clean:
            return (
                f"{self.root}: clean — {self.checked_files} file(s), "
                f"{self.intact_results} result(s), {self.artifacts} artifact(s), "
                f"{self.checkpoints} checkpoint(s)"
            )
        return (
            f"{self.root}: {len(self.findings)} problem(s), {self.repaired} repaired — "
            f"{self.intact_results} intact result(s)"
        )


def fsck_store(root: Union[str, Path], repair: bool = False) -> FsckReport:
    """Audit every persistence file under a store directory.

    Never raises on corrupt content — every problem becomes a
    :class:`FsckFinding`.  A missing directory or missing ``meta.json`` is
    itself a finding (the path is not a store), not an error.
    """
    root = Path(root)
    report = FsckReport(root=str(root))
    if not root.is_dir():
        report.findings.append(FsckFinding(path=str(root), problem="not a directory"))
        return report

    if _check_meta(root, report) in (None, RECORD_FORMAT):
        _check_results_jsonl(root / JSONL_FILE, report, repair)
    for name in _SQLITE_SIBLINGS:
        path = root / name
        if path.exists():
            report.checked_files += 1
            report.artifacts += _check_sqlite(path, report, table_rows="artifacts")
    _check_checkpoints(root / "checkpoints", report, repair)
    _check_journal(root, report, repair)
    _check_tmp_files(root, report, repair)
    return report


# --------------------------------------------------------------- meta.json


def _check_meta(root: Path, report: FsckReport) -> Optional[str]:
    """The record format ``meta.json`` names (None when it cannot say)."""
    meta_path = root / META_FILE
    if not meta_path.exists():
        if (root / SQLITE_FILE).exists():
            report.findings.append(
                FsckFinding(path=str(root / SQLITE_FILE), problem=retired_format_problem(root, "sqlite"))
            )
            return "sqlite"
        report.findings.append(
            FsckFinding(path=str(meta_path), problem="missing store metadata (not a store?)")
        )
        return None
    report.checked_files += 1
    try:
        meta = json.loads(meta_path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        report.findings.append(FsckFinding(path=str(meta_path), problem=f"unreadable metadata: {exc}"))
        return None
    version = meta.get("schema_version")
    if version != SCHEMA_VERSION:
        report.findings.append(
            FsckFinding(
                path=str(meta_path),
                problem=f"schema {version!r} unsupported (this build reads {SCHEMA_VERSION})",
            )
        )
    record_format = str(meta.get("backend", RECORD_FORMAT))
    if record_format != RECORD_FORMAT:
        report.findings.append(
            FsckFinding(path=str(meta_path), problem=retired_format_problem(root, record_format))
        )
    return record_format


# ------------------------------------------------------------ results files


def _check_results_jsonl(path: Path, report: FsckReport, repair: bool) -> None:
    if not path.exists():
        return
    report.checked_files += 1
    try:
        data = path.read_bytes()
    except OSError as exc:  # pragma: no cover - filesystem failure
        report.findings.append(FsckFinding(path=str(path), problem=f"unreadable: {exc}"))
        return
    text = data.decode("utf-8", errors="replace")
    torn_tail = bool(text) and not text.endswith("\n")
    lines = text.splitlines()
    for index, line in enumerate(lines):
        if not line.strip():
            continue
        final = index == len(lines) - 1
        problem = _record_problem(line)
        if problem is None:
            report.intact_results += 1
            continue
        if final and (torn_tail or problem.startswith("unparseable")):
            repaired = False
            if repair:
                # Truncate away the fragment line; everything before it is
                # intact (a torn tail has no trailing newline to preserve).
                if torn_tail:
                    keep = data.rfind(b"\n") + 1
                else:
                    keep = data.rfind(b"\n", 0, len(data) - 1) + 1
                with open(path, "r+b") as handle:
                    handle.truncate(keep)
                repaired = True
            report.findings.append(
                FsckFinding(
                    path=f"{path}:{index + 1}",
                    problem=f"truncated final record ({problem})",
                    repairable=True,
                    repaired=repaired,
                )
            )
        else:
            report.findings.append(
                FsckFinding(path=f"{path}:{index + 1}", problem=problem)
            )


def _record_problem(line: str) -> Optional[str]:
    """Why a JSONL line is not a valid result record (None when valid)."""
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        return f"unparseable JSON: {exc}"
    if not isinstance(record, dict):
        return "not a JSON object"
    if record.get("schema_version") != SCHEMA_VERSION:
        return f"unsupported schema {record.get('schema_version')!r}"
    if "digest" not in record or "result" not in record:
        return "missing digest/result fields"
    return None


# --------------------------------------------------------- sqlite siblings


def _open_checked(path: Path, report: FsckReport) -> Optional[sqlite3.Connection]:
    """Open a sqlite file and run its integrity check; None when damaged."""
    try:
        connection = sqlite3.connect(str(path))
        (status,) = connection.execute("PRAGMA integrity_check").fetchone()
    except sqlite3.DatabaseError as exc:
        report.findings.append(FsckFinding(path=str(path), problem=f"corrupt database: {exc}"))
        return None
    if status != "ok":
        report.findings.append(
            FsckFinding(path=str(path), problem=f"integrity check failed: {status}")
        )
        connection.close()
        return None
    return connection


def _check_sqlite(path: Path, report: FsckReport, table_rows: str) -> int:
    connection = _open_checked(path, report)
    if connection is None:
        return 0
    try:
        (count,) = connection.execute(f"SELECT COUNT(*) FROM {table_rows}").fetchone()
        return int(count)
    except sqlite3.DatabaseError:
        # The sibling exists but the expected table doesn't (empty db is
        # legitimate — created but never written).
        return 0
    finally:
        connection.close()


# ------------------------------------------------------------- checkpoints


def _check_checkpoints(directory: Path, report: FsckReport, repair: bool) -> None:
    if not directory.is_dir():
        return
    from repro.store.checkpoint import CheckpointError, CheckpointManager

    for path in sorted(directory.glob("*.ckpt")):
        report.checked_files += 1
        try:
            CheckpointManager(path).load()
            report.checkpoints += 1
        except CheckpointError as exc:
            repaired = False
            if repair:
                path.unlink(missing_ok=True)
                repaired = True
            report.findings.append(
                FsckFinding(
                    path=str(path),
                    problem=f"unloadable checkpoint: {exc}",
                    repairable=True,
                    repaired=repaired,
                )
            )


# ------------------------------------------------------------- job journal


def _check_journal(root: Path, report: FsckReport, repair: bool) -> None:
    """Audit the ``repro serve`` job journal hosted beside the results.

    A torn final record (daemon killed mid-append) is salvageable: repair
    truncates it away, exactly like the results backend.  Jobs orphaned in
    the ``running`` state (daemon killed mid-evaluation) are reported, and
    repair compacts the journal — dropping the ``start`` markers so the
    next daemon replays them as ``queued``.  Mid-file corruption is only
    reported: repairing it would silently drop acknowledged jobs.
    """
    from repro.serve.journal import JOURNAL_FILE, JobJournal, JournalError

    path = root / JOURNAL_FILE
    if not path.exists():
        return
    report.checked_files += 1
    journal = JobJournal(path)
    try:
        audit = journal.audit()
    except JournalError as exc:
        report.findings.append(
            FsckFinding(path=str(path), problem=f"corrupt job journal: {exc}")
        )
        return
    report.journaled_jobs += len(audit.entries)
    if audit.torn_tail:
        repaired = False
        if repair:
            # Drop the final (unparseable) record whether or not the tear
            # consumed its newline — mirror _check_results_jsonl.
            data = path.read_bytes()
            if data.endswith(b"\n"):
                keep = data.rfind(b"\n", 0, len(data) - 1) + 1
            else:
                keep = data.rfind(b"\n") + 1
            with open(path, "r+b") as handle:
                handle.truncate(keep)
            repaired = True
        report.findings.append(
            FsckFinding(
                path=str(path),
                problem="torn final journal record (daemon killed mid-append)",
                repairable=True,
                repaired=repaired,
            )
        )
    if audit.orphaned_running:
        repaired = False
        if repair:
            journal.compact(audit.entries)
            repaired = True
        report.findings.append(
            FsckFinding(
                path=str(path),
                problem=(
                    f"{audit.orphaned_running} job(s) orphaned in the running "
                    f"state (daemon crashed mid-evaluation); compaction requeues "
                    f"them for the next daemon"
                ),
                repairable=True,
                repaired=repaired,
            )
        )


# -------------------------------------------------------------- tmp debris


def _check_tmp_files(root: Path, report: FsckReport, repair: bool) -> None:
    for path in sorted(root.rglob("*.tmp")):
        repaired = False
        if repair:
            path.unlink(missing_ok=True)
            repaired = True
        report.findings.append(
            FsckFinding(
                path=str(path),
                problem="leftover temp file from an interrupted atomic write",
                repairable=True,
                repaired=repaired,
            )
        )
