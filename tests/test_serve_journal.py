"""Job-journal unit tests: append/replay, torn-tail salvage, compaction,
schema policing, and the fsck integration that audits/repairs journals."""

from __future__ import annotations

import json
import threading

import pytest

from repro.serve.journal import (
    JOURNAL_SCHEMA_VERSION,
    JobJournal,
    JournalError,
)
from repro.store.fsck import fsck_store
from repro.store.result_store import ResultStore


def _journal(tmp_path) -> JobJournal:
    return JobJournal(tmp_path / "journal.jsonl")


def _spec(name: str) -> dict:
    return {"kind": "simulate", "name": name}


# ------------------------------------------------------------ append/replay


def test_submit_without_terminal_is_outstanding(tmp_path):
    journal = _journal(tmp_path)
    journal.append_submit("d1", _spec("one"), "alice")
    journal.append_submit("d2", _spec("two"), "bob")
    journal.append_terminal("d1", "done")
    outstanding = journal.outstanding()
    assert [entry.digest for entry in outstanding] == ["d2"]
    assert outstanding[0].spec == _spec("two")
    assert outstanding[0].client == "bob"
    assert not outstanding[0].started


def test_started_job_without_terminal_is_orphaned_running(tmp_path):
    journal = _journal(tmp_path)
    journal.append_submit("d1", _spec("one"), "alice")
    journal.append_start("d1")
    audit = journal.audit()
    assert audit.orphaned_running == 1
    assert audit.entries[0].started
    assert "running" in audit.entries[0].describe()


def test_every_terminal_event_clears_the_entry(tmp_path):
    journal = _journal(tmp_path)
    for index, state in enumerate(("done", "failed", "quarantined", "cancelled")):
        journal.append_submit(f"d{index}", _spec(str(index)), "c")
        journal.append_terminal(f"d{index}", state, error=None if state == "done" else "boom")
    assert journal.outstanding() == []


def test_append_terminal_rejects_non_terminal_state(tmp_path):
    with pytest.raises(ValueError, match="not a terminal"):
        _journal(tmp_path).append_terminal("d1", "running")


def test_replay_preserves_submission_order(tmp_path):
    journal = _journal(tmp_path)
    for index in range(5):
        journal.append_submit(f"d{index}", _spec(str(index)), "c")
    journal.append_terminal("d2", "done")
    assert [e.digest for e in journal.outstanding()] == ["d0", "d1", "d3", "d4"]


def test_missing_file_is_empty_not_error(tmp_path):
    assert _journal(tmp_path).outstanding() == []


# ------------------------------------------------------- damage + salvage


def test_torn_final_line_is_salvaged(tmp_path):
    journal = _journal(tmp_path)
    journal.append_submit("d1", _spec("one"), "c")
    journal.append_submit("d2", _spec("two"), "c")
    with open(journal.path, "ab") as handle:  # a crash-torn half record
        handle.write(b'{"schema_version":1,"event":"subm')
    audit = journal.audit()
    assert audit.torn_tail
    assert [e.digest for e in audit.entries] == ["d1", "d2"]


def test_append_truncates_torn_tail_first(tmp_path):
    journal = _journal(tmp_path)
    journal.append_submit("d1", _spec("one"), "c")
    with open(journal.path, "ab") as handle:
        handle.write(b'{"half":')
    journal.append_submit("d2", _spec("two"), "c")
    audit = journal.audit()
    assert not audit.torn_tail  # the tear was cleaned up by the append
    assert [e.digest for e in audit.entries] == ["d1", "d2"]


def test_midfile_corruption_raises_journal_error(tmp_path):
    journal = _journal(tmp_path)
    journal.append_submit("d1", _spec("one"), "c")
    with open(journal.path, "ab") as handle:
        handle.write(b"not json at all\n")
    journal.append_submit("d2", _spec("two"), "c")
    with pytest.raises(JournalError, match="corrupt journal record"):
        journal.outstanding()


def test_schema_mismatch_raises_journal_error(tmp_path):
    journal = _journal(tmp_path)
    record = {"schema_version": JOURNAL_SCHEMA_VERSION + 1, "event": "submit",
              "digest": "d1", "spec": _spec("one"), "client": "c"}
    journal.path.write_text(json.dumps(record) + "\n")
    with pytest.raises(JournalError, match="unsupported journal schema"):
        journal.outstanding()


# --------------------------------------------------------------- compaction


def test_compact_keeps_only_outstanding_submits(tmp_path):
    journal = _journal(tmp_path)
    for index in range(4):
        journal.append_submit(f"d{index}", _spec(str(index)), "c")
    journal.append_start("d0")
    journal.append_terminal("d0", "done")
    journal.append_start("d1")  # orphaned running
    assert journal.compact() == 3
    lines = journal.path.read_text().splitlines()
    assert len(lines) == 3  # one submit per outstanding job, nothing else
    records = [json.loads(line) for line in lines]
    assert all(record["event"] == "submit" for record in records)
    # The orphaned-running start marker is gone: d1 replays as queued.
    assert [e.started for e in journal.outstanding()] == [False, False, False]


def test_compact_does_not_lose_a_concurrent_append(tmp_path, monkeypatch):
    """A drain compacts on a connection thread while the evaluation thread
    may journal the running job's terminal: that record must survive."""
    from repro.serve import journal as journal_module

    journal = _journal(tmp_path)
    journal.append_submit("running", _spec("running"), "alice")
    journal.append_start("running")
    journal.append_submit("queued", _spec("queued"), "bob")
    appender = threading.Thread(target=journal.append_terminal, args=("running", "done"))
    write = journal_module.atomic_write_text

    def write_after_a_racing_append(path, text):
        appender.start()
        appender.join(timeout=0.2)  # returns at once unless appends wait for compaction
        write(path, text)

    monkeypatch.setattr(journal_module, "atomic_write_text", write_after_a_racing_append)
    journal.compact()
    appender.join()
    assert [entry.digest for entry in journal.outstanding()] == ["queued"]


def test_compact_empty_journal_leaves_empty_file(tmp_path):
    journal = _journal(tmp_path)
    journal.append_submit("d1", _spec("one"), "c")
    journal.append_terminal("d1", "done")
    assert journal.compact() == 0
    assert journal.path.read_text() == ""


# ----------------------------------------------------------- fsck coverage


def _store_with_journal(tmp_path):
    """A real store directory hosting a journal (what fsck walks)."""
    store = ResultStore(tmp_path / "store")
    store.close()
    return tmp_path / "store", JobJournal(tmp_path / "store" / "journal.jsonl")


def test_fsck_clean_journal_reports_outstanding_jobs(tmp_path):
    store_dir, journal = _store_with_journal(tmp_path)
    journal.append_submit("d1", _spec("one"), "c")
    report = fsck_store(store_dir)
    assert report.clean
    assert report.journaled_jobs == 1


def test_fsck_repairs_torn_journal_tail(tmp_path):
    store_dir, journal = _store_with_journal(tmp_path)
    journal.append_submit("d1", _spec("one"), "c")
    with open(journal.path, "ab") as handle:
        handle.write(b'{"schema_version":1,"event"')
    report = fsck_store(store_dir)
    assert any("torn final journal record" in f.problem and f.repairable
               for f in report.findings)
    report = fsck_store(store_dir, repair=True)
    assert all(f.repaired for f in report.findings)
    assert fsck_store(store_dir).clean
    assert [e.digest for e in journal.outstanding()] == ["d1"]


def test_fsck_repair_requeues_orphaned_running_jobs(tmp_path):
    store_dir, journal = _store_with_journal(tmp_path)
    journal.append_submit("d1", _spec("one"), "c")
    journal.append_start("d1")  # daemon died mid-evaluation
    report = fsck_store(store_dir)
    assert any("orphaned in the running state" in f.problem for f in report.findings)
    fsck_store(store_dir, repair=True)
    clean = fsck_store(store_dir)
    assert clean.clean and clean.journaled_jobs == 1
    assert not journal.outstanding()[0].started  # back to queued


def test_fsck_reports_midfile_journal_corruption_unrepairable(tmp_path):
    store_dir, journal = _store_with_journal(tmp_path)
    journal.append_submit("d1", _spec("one"), "c")
    with open(journal.path, "ab") as handle:
        handle.write(b"garbage\n")
    journal.append_submit("d2", _spec("two"), "c")
    report = fsck_store(store_dir, repair=True)
    corrupt = [f for f in report.findings if "corrupt job journal" in f.problem]
    assert corrupt and not corrupt[0].repairable and not corrupt[0].repaired
