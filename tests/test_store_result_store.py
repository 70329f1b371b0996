"""Tests for the persistent result store (JSONL and sqlite backends)."""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.api.spec import RunResult, RunSpec
from repro.store import (
    SCHEMA_VERSION,
    ResultStore,
    StoreError,
    atomic_write_text,
    merge_stores,
    open_store,
)
from repro.store.result_store import JSONL_FILE, META_FILE


def make_result(name: str = "r", seconds: float = 1.0) -> RunResult:
    spec = RunSpec(kind="simulate", name=name, workloads=("crc32_proxy",))
    return RunResult(
        spec=spec,
        rows=[{"program": "crc32_proxy", "ser_qs": 0.5}],
        timing={"seconds": seconds},
        provenance={"spec_digest": spec.digest},
    )


class TestAtomicWrite:
    def test_writes_and_replaces(self, tmp_path):
        path = tmp_path / "meta.json"
        atomic_write_text(path, "one")
        atomic_write_text(path, "two")
        assert path.read_text() == "two"
        assert not path.with_name(path.name + ".tmp").exists()


class PinnedResult(RunResult):
    """A result as written while specs could pin a kernel backend."""

    def to_json_dict(self) -> dict:
        data = super().to_json_dict()
        data["spec"]["kernel_backend"] = "interpreted"
        return data


@pytest.mark.parametrize("backend", ["jsonl", "sqlite"])
class TestBackends:
    def test_put_get_round_trip(self, tmp_path, backend):
        with ResultStore(tmp_path / "store", backend=backend) as store:
            result = make_result()
            digest = store.put(result)
            assert digest == result.spec_digest
            assert digest in store
            assert len(store) == 1
            fetched = store.get(digest)
            assert fetched is not None
            assert fetched.rows == result.rows
            assert fetched.spec.name == "r"

    def test_persists_across_reopen(self, tmp_path, backend):
        root = tmp_path / "store"
        # A result stored while the ``process`` evaluation backend existed:
        # loading validates no registry names, so it still reads back.
        legacy = RunResult(spec=RunSpec(kind="simulate", name="legacy", backend="process"))
        with ResultStore(root, backend=backend) as store:
            digest = store.put(make_result())
            legacy_digest = store.put(legacy)
        with open_store(root) as reopened:
            assert reopened.backend_name == backend
            assert reopened.get(digest).rows == make_result().rows
            assert reopened.get(legacy_digest).spec.backend == "process"

    def test_result_pinning_a_kernel_backend_reloads(self, tmp_path, backend):
        """A result stored while specs could pin a kernel backend reloads: its
        spec drops the field, and it keeps the digest it was stored under."""
        root = tmp_path / "store"
        twin = make_result("pinned")
        pinned_spec = dict(twin.spec.to_json_dict(), kernel_backend="interpreted")
        pinned_digest = hashlib.sha256(
            json.dumps(pinned_spec, separators=(",", ":")).encode("utf-8")
        ).hexdigest()
        legacy = PinnedResult(spec=twin.spec, rows=twin.rows,
                              provenance={"spec_digest": pinned_digest})
        with ResultStore(root, backend=backend) as store:
            assert store.put(legacy) == pinned_digest
        with open_store(root) as reopened:
            assert reopened.document(pinned_digest)["spec"]["kernel_backend"] == "interpreted"
            loaded = reopened.get(pinned_digest)
            assert loaded.spec == twin.spec
            assert loaded.spec_digest == pinned_digest
            assert loaded.rows == twin.rows

    def test_missing_digest_is_none(self, tmp_path, backend):
        with ResultStore(tmp_path / "store", backend=backend) as store:
            assert store.get("0" * 64) is None
            assert "0" * 64 not in store

    def test_reput_same_result_is_noop(self, tmp_path, backend):
        with ResultStore(tmp_path / "store", backend=backend) as store:
            store.put(make_result(seconds=1.0))
            # Identical modulo timing: first write wins, no conflict.
            store.put(make_result(seconds=9.0))
            assert len(store) == 1
            assert store.get(make_result().spec_digest).timing == {"seconds": 1.0}

    def test_conflicting_result_raises(self, tmp_path, backend):
        with ResultStore(tmp_path / "store", backend=backend) as store:
            store.put(make_result())
            different = make_result()
            different.rows = [{"program": "crc32_proxy", "ser_qs": 0.9}]
            with pytest.raises(StoreError, match="different result"):
                store.put(different)

    def test_digests_sorted(self, tmp_path, backend):
        with ResultStore(tmp_path / "store", backend=backend) as store:
            for name in ("a", "b", "c"):
                store.put(make_result(name))
            assert store.digests() == sorted(store.digests())
            assert len(store) == 3


class TestBackendSelection:
    def test_default_is_jsonl(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        assert store.backend_name == "jsonl"
        store.close()

    def test_meta_records_backend(self, tmp_path):
        ResultStore(tmp_path / "store", backend="sqlite").close()
        meta = json.loads((tmp_path / "store" / META_FILE).read_text())
        assert meta == {"schema_version": SCHEMA_VERSION, "backend": "sqlite"}

    def test_reopen_with_conflicting_backend_raises(self, tmp_path):
        ResultStore(tmp_path / "store", backend="sqlite").close()
        with pytest.raises(StoreError, match="created with the 'sqlite' backend"):
            ResultStore(tmp_path / "store", backend="jsonl")

    def test_unknown_backend_rejected(self, tmp_path):
        with pytest.raises(StoreError, match="unknown store backend"):
            ResultStore(tmp_path / "store", backend="csv")

    def test_store_path_must_be_directory(self, tmp_path):
        file_path = tmp_path / "not_a_dir"
        file_path.write_text("x")
        with pytest.raises(StoreError, match="not a directory"):
            ResultStore(file_path)

    def test_unknown_schema_rejected(self, tmp_path):
        root = tmp_path / "store"
        ResultStore(root).close()
        atomic_write_text(root / META_FILE, json.dumps({"schema_version": 99, "backend": "jsonl"}))
        with pytest.raises(StoreError, match="schema 99"):
            ResultStore(root)


class TestJsonlRobustness:
    def test_truncated_final_line_tolerated(self, tmp_path):
        root = tmp_path / "store"
        with ResultStore(root) as store:
            digest = store.put(make_result())
        jsonl = root / JSONL_FILE
        jsonl.write_text(jsonl.read_text() + '{"schema_version": 1, "digest": "abc", "resu')
        with open_store(root) as reopened:
            # The intact record survives; the torn append is dropped.
            assert reopened.digests() == [digest]

    def test_append_after_torn_tail_drops_fragment(self, tmp_path):
        """A crash-torn final line must not corrupt the next append."""
        root = tmp_path / "store"
        with ResultStore(root) as store:
            first = store.put(make_result("a"))
        jsonl = root / JSONL_FILE
        jsonl.write_text(jsonl.read_text() + '{"schema_version": 1, "digest": "torn')
        with open_store(root) as reopened:
            second = reopened.put(make_result("b"))
        with open_store(root) as final:
            # Both intact records survive; the torn fragment is gone.
            assert sorted(final.digests()) == sorted([first, second])

    def test_append_to_file_with_no_newline_at_all(self, tmp_path):
        root = tmp_path / "store"
        ResultStore(root).close()
        (root / JSONL_FILE).write_text('{"torn')
        with open_store(root) as store:
            digest = store.put(make_result())
        with open_store(root) as reopened:
            assert reopened.digests() == [digest]

    def test_corrupt_middle_line_raises(self, tmp_path):
        root = tmp_path / "store"
        with ResultStore(root) as store:
            store.put(make_result("a"))
        jsonl = root / JSONL_FILE
        jsonl.write_text("garbage\n" + jsonl.read_text())
        with pytest.raises(StoreError, match="corrupt record"):
            open_store(root)

    def test_record_schema_guard(self, tmp_path):
        root = tmp_path / "store"
        with ResultStore(root) as store:
            store.put(make_result())
        jsonl = root / JSONL_FILE
        record = json.loads(jsonl.read_text())
        record["schema_version"] = 42
        jsonl.write_text(json.dumps(record) + "\n")
        with pytest.raises(StoreError, match="unsupported store schema"):
            open_store(root)


class TestMerge:
    def test_merge_joins_disjoint_stores(self, tmp_path):
        with ResultStore(tmp_path / "a") as a:
            a.put(make_result("left"))
        with ResultStore(tmp_path / "b") as b:
            b.put(make_result("right"))
        merged, added = merge_stores(tmp_path / "dest", [tmp_path / "a", tmp_path / "b"])
        assert added == 2
        assert len(merged) == 2
        merged.close()

    def test_merge_skips_agreeing_duplicates(self, tmp_path):
        for name in ("a", "b"):
            with ResultStore(tmp_path / name) as store:
                store.put(make_result("shared", seconds=float(len(name))))
        merged, added = merge_stores(tmp_path / "dest", [tmp_path / "a", tmp_path / "b"])
        assert added == 1
        merged.close()

    def test_merge_conflict_raises(self, tmp_path):
        with ResultStore(tmp_path / "a") as a:
            a.put(make_result("shared"))
        with ResultStore(tmp_path / "b") as b:
            conflicting = make_result("shared")
            conflicting.rows = [{"program": "crc32_proxy", "ser_qs": 0.123}]
            b.put(conflicting)
        with pytest.raises(StoreError, match="merge conflict"):
            merge_stores(tmp_path / "dest", [tmp_path / "a", tmp_path / "b"])

    def test_merge_rejects_missing_source(self, tmp_path):
        """A typo'd source path must error, not merge as a fresh empty store."""
        with ResultStore(tmp_path / "a") as a:
            a.put(make_result())
        with pytest.raises(StoreError, match="not a result store"):
            merge_stores(tmp_path / "dest", [tmp_path / "a", tmp_path / "typo"])
        assert not (tmp_path / "typo").exists()

    def test_merge_into_cross_backend_destination(self, tmp_path):
        with ResultStore(tmp_path / "src", backend="jsonl") as src:
            src.put(make_result())
        merged, added = merge_stores(tmp_path / "dest", [tmp_path / "src"], backend="sqlite")
        assert added == 1
        assert merged.backend_name == "sqlite"
        merged.close()
