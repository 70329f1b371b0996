"""Concurrent store-access tests: multiple writers, one store directory.

The serve daemon and an offline ``repro run --store`` can share one store
directory, so its JSONL records must survive genuinely concurrent appends —
including two writers racing to persist the *same* digest.  Each test
forks real processes (threads would share the JSONL file handle, hiding
the races that matter) and then checks that every record survived intact
and ``repro fsck`` stays clean.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.api.spec import RunResult, RunSpec
from repro.cli import main
from repro.store import fsck_store, open_store

#: Writers per test and unique records per writer — enough overlap to hit
#: the lock paths without making the suite slow.
WRITERS = 4
RECORDS = 6


def _result(name: str) -> RunResult:
    spec = RunSpec(kind="simulate", name=name)
    return RunResult(spec=spec, rows=[{"name": name, "value": 2.25}])


def _writer(root: str, index: int, barrier) -> None:
    """One writer process: the shared digest first, then unique records."""
    with open_store(root) as store:
        barrier.wait(timeout=30.0)  # line every writer up on the race
        store.put(_result("shared"))
        for record in range(RECORDS):
            store.put(_result(f"writer-{index}-{record}"))


def _race(tmp_path):
    root = tmp_path / "store"
    open_store(root).close()  # settle meta.json up front
    context = multiprocessing.get_context()
    barrier = context.Barrier(WRITERS)
    processes = [
        context.Process(target=_writer, args=(str(root), index, barrier))
        for index in range(WRITERS)
    ]
    for process in processes:
        process.start()
    for process in processes:
        process.join(timeout=60.0)
        assert process.exitcode == 0
    return root


# JSONL is the one record format; the parameter keeps the test ids.
@pytest.mark.parametrize("backend", ["jsonl"])
def test_concurrent_writers_all_records_survive(tmp_path, backend):
    root = _race(tmp_path)
    with open_store(root) as store:
        digests = store.digests()
        # Every unique record plus exactly one entry for the shared digest.
        assert len(digests) == WRITERS * RECORDS + 1
        shared = store.get(_result("shared").spec_digest)
        assert shared.rows == [{"name": "shared", "value": 2.25}]
        for index in range(WRITERS):
            for record in range(RECORDS):
                name = f"writer-{index}-{record}"
                assert store.get(_result(name).spec_digest).rows[0]["name"] == name


@pytest.mark.parametrize("backend", ["jsonl"])
def test_concurrent_writers_leave_store_fsck_clean(tmp_path, backend):
    root = _race(tmp_path)
    report = fsck_store(root)
    assert report.clean, [finding.describe() for finding in report.findings]
    assert report.intact_results >= WRITERS * RECORDS + 1
    assert main(["fsck", str(root)]) == 0


def test_same_digest_append_race_keeps_one_coherent_record(tmp_path):
    """The duplicate-digest race appends identical JSONL lines, never torn ones."""
    root = _race(tmp_path)
    lines = (root / "results.jsonl").read_text().splitlines()
    assert all(line.startswith('{"schema_version"') for line in lines)
    shared_digest = _result("shared").spec_digest
    duplicates = [line for line in lines if shared_digest in line]
    # Up to one line per writer, all byte-identical — load keeps one record.
    assert 1 <= len(duplicates) <= WRITERS
    assert len(set(duplicates)) == 1
