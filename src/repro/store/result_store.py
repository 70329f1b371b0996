"""Persistent, content-addressed storage for :class:`~repro.api.spec.RunResult`s.

A :class:`ResultStore` is a directory that durably maps RunSpec sha256
digests to their RunResult JSON documents, kept in ``results.jsonl``: one
schema-versioned JSON record per line.  Appends are single ``write`` calls
followed by a flush, and the loader tolerates a truncated *final* line, so a
run killed mid-append never corrupts the records written before it.

``meta.json`` records the schema version and the record format
(``"backend": "jsonl"``).  It is written once, atomically, when the store is
created; opening a store never rewrites it, so a read-only source can be
merged.  A store with an unknown schema, or one kept in the retired sqlite
format (``results.sqlite``), raises :class:`StoreError` instead of being
misread; an older build that still reads sqlite converts it with
``repro merge``.

Putting two *different* results under the same digest raises — deterministic
simulations must reproduce the same rows for the same spec, so a conflict
indicates nondeterminism (or a stale store) that should never be papered
over.  Wall-clock ``timing`` blocks and fault-tolerance
``provenance.resilience`` counters are excluded from the comparison — they
describe how a run executed, not what it computed.

``repro fsck`` (see :mod:`repro.store.fsck`) audits every file of a store
directory and can repair salvageable corruption in place.

The directory also hosts the sibling persistence layers used by the
execution stack (see :mod:`repro.store.artifacts`,
:mod:`repro.store.fitness_store` and :mod:`repro.store.checkpoint`):

.. code-block:: text

    store/
      meta.json            record format + schema version
      results.jsonl        RunResult records
      artifacts.sqlite     pickled simulation artefacts (context caches)
      fitness.sqlite       persistent GA fitness cache
      checkpoints/*.ckpt   per-search GA generation checkpoints
"""

from __future__ import annotations

import contextlib
import json
import logging
import os
import tempfile
from pathlib import Path
from typing import Iterable, Optional, Union

from repro.api.spec import RunResult
from repro.testing.chaos import chaos_mangle

logger = logging.getLogger("repro.store")

#: Version of the on-disk record layout; bump on incompatible changes.
SCHEMA_VERSION = 1

#: File names inside a store directory.
META_FILE = "meta.json"
JSONL_FILE = "results.jsonl"

#: The record format ``meta.json`` names (under its historical ``backend`` key).
RECORD_FORMAT = "jsonl"

#: Where the retired sqlite record format kept its results (detected only).
SQLITE_FILE = "results.sqlite"


class StoreError(RuntimeError):
    """A result store is corrupt, incompatible or used inconsistently."""


try:  # POSIX advisory locking; absent on some platforms
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]


@contextlib.contextmanager
def _exclusive_lock(handle):
    """Advisory exclusive lock on an open file (no-op where unsupported)."""
    if fcntl is None:  # pragma: no cover - non-POSIX fallback
        yield
        return
    fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
    try:
        yield
    finally:
        fcntl.flock(handle.fileno(), fcntl.LOCK_UN)


def atomic_write_text(path: Union[str, Path], text: str) -> None:
    """Write ``text`` to ``path`` atomically (temp file + rename).

    The temp name is unique per writer: several processes creating one
    store concurrently (serve daemon + offline runs) may each write
    ``meta.json`` through here, and a shared ``.tmp`` name would let one
    writer truncate the file another is about to rename into place.
    """
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f"{path.name}.{os.getpid()}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _strip_volatile(document: dict) -> dict:
    """A copy of a RunResult JSON dict without run-dependent blocks.

    ``timing``, ``provenance.resilience`` and ``ga.evaluation_seconds``
    describe *how* a run executed (wall clock, fault/retry counters), not
    *what* it computed, so two results differing only there are still the
    same result for conflict detection.
    """
    stripped = {key: value for key, value in document.items() if key != "timing"}
    provenance = stripped.get("provenance")
    if isinstance(provenance, dict) and "resilience" in provenance:
        stripped["provenance"] = {
            key: value for key, value in provenance.items() if key != "resilience"
        }
    ga = stripped.get("ga")
    if isinstance(ga, dict) and "evaluation_seconds" in ga:
        stripped["ga"] = {
            key: value for key, value in ga.items() if key != "evaluation_seconds"
        }
    if stripped.get("children"):
        stripped["children"] = [_strip_volatile(child) for child in stripped["children"]]
    return stripped


class _JsonlBackend:
    """Append-only JSONL persistence (one record per line)."""

    def __init__(self, root: Path) -> None:
        self.path = root / JSONL_FILE

    def load_all(self) -> dict[str, dict]:
        if not self.path.exists():
            return {}
        records: dict[str, dict] = {}
        text = self.path.read_text()
        # A file not ending in a newline was torn by a crash mid-append:
        # its final line is a fragment, even if it happens to parse.
        torn_tail = bool(text) and not text.endswith("\n")
        lines = text.splitlines()
        for index, line in enumerate(lines):
            if not line.strip():
                continue
            final = index == len(lines) - 1
            where = f"{self.path}:{index + 1}"
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                if final:
                    # Salvage: everything before the torn record is intact.
                    self._log_salvage(where, f"unparseable fragment ({exc})", len(records))
                    break
                raise StoreError(f"corrupt record at {where}: {exc}") from exc
            try:
                self._check_schema(record, where)
            except StoreError as exc:
                if final and torn_tail:
                    self._log_salvage(where, str(exc), len(records))
                    break
                raise
            records[str(record["digest"])] = record["result"]
        return records

    @staticmethod
    def _log_salvage(where: str, reason: str, intact: int) -> None:
        logger.warning(
            "salvaged result store: dropped truncated final record at %s (%s); "
            "%d intact record(s) kept — the interrupted run will recompute it",
            where, reason, intact,
        )

    @staticmethod
    def _check_schema(record: dict, where: str) -> None:
        version = record.get("schema_version")
        if version != SCHEMA_VERSION:
            raise StoreError(
                f"unsupported store schema {version!r} at {where} "
                f"(this build reads schema {SCHEMA_VERSION})"
            )
        if "digest" not in record or "result" not in record:
            raise StoreError(f"malformed record at {where}: expected digest + result fields")

    def append(self, digest: str, document: dict) -> None:
        record = {"schema_version": SCHEMA_VERSION, "digest": digest, "result": document}
        line = (json.dumps(record, separators=(",", ":")) + "\n").encode("utf-8")
        # Chaos site "result-store": the truncate kind tears this write in
        # half, exactly like a crash mid-append (no-op outside chaos tests).
        line = chaos_mangle("result-store", line)
        # A single buffered write + flush keeps the line contiguous; the
        # loader above recovers from a torn final line either way.  The
        # advisory flock serializes concurrent writers — a serve daemon and
        # an offline `repro run --store` sharing one directory must not
        # interleave appends or stomp each other's tail-salvage truncation.
        # O_CREAT without O_TRUNC: two processes racing to create the file
        # must not wipe each other's first record the way open("wb") would.
        fd = os.open(self.path, os.O_CREAT | os.O_RDWR, 0o644)
        with os.fdopen(fd, "r+b") as handle:
            with _exclusive_lock(handle):
                self._truncate_torn_tail(handle)
                handle.write(line)
                handle.flush()
                os.fsync(handle.fileno())

    @staticmethod
    def _truncate_torn_tail(handle) -> None:
        """Drop a crash-torn final line so a fresh record never concatenates
        onto the fragment (which would corrupt both records)."""
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


def retired_format_problem(root: Path, record_format: str) -> str:
    """Why a store in a record format this build no longer reads is refused."""
    return (
        f"store {root} keeps its results in the {record_format!r} format, which "
        f"this build no longer reads; convert it with an older build that still "
        f"reads it: 'repro merge NEW_STORE {root}' there writes a JSONL store"
    )


class ResultStore:
    """Durable digest -> RunResult mapping rooted at one directory.

    Use :func:`open_store` (or the constructor) to create/open; the store is
    a context manager.  ``put``/``get`` work on RunResult objects; raw JSON
    documents are kept in memory so repeated gets avoid re-parsing.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        if self.root.exists() and not self.root.is_dir():
            raise StoreError(f"store path {self.root} exists and is not a directory")
        self.root.mkdir(parents=True, exist_ok=True)
        self._open_meta()
        self._backend = _JsonlBackend(self.root)
        self._documents: dict[str, dict] = self._backend.load_all()
        self._results: dict[str, RunResult] = {}
        self._fitness_store = None
        self._artifact_store = None

    # -------------------------------------------------------------- metadata

    def _open_meta(self) -> None:
        """Check ``meta.json``, writing it only when the store is new."""
        meta_path = self.root / META_FILE
        if not meta_path.exists():
            if (self.root / SQLITE_FILE).exists():
                raise StoreError(retired_format_problem(self.root, "sqlite"))
            meta = {"schema_version": SCHEMA_VERSION, "backend": RECORD_FORMAT}
            atomic_write_text(meta_path, json.dumps(meta, indent=2) + "\n")
            return
        try:
            meta = json.loads(meta_path.read_text())
        except json.JSONDecodeError as exc:
            raise StoreError(f"corrupt store metadata {meta_path}: {exc}") from exc
        version = meta.get("schema_version")
        if version != SCHEMA_VERSION:
            raise StoreError(
                f"store {self.root} has schema {version!r}; this build reads schema {SCHEMA_VERSION}"
            )
        record_format = meta.get("backend", RECORD_FORMAT)
        if record_format != RECORD_FORMAT:
            raise StoreError(retired_format_problem(self.root, record_format))

    # ------------------------------------------------------------ result API

    def put(self, result: RunResult, digest: Optional[str] = None) -> str:
        """Persist a result; returns the digest it was stored under.

        ``digest`` defaults to the result's spec digest.  Re-putting the same
        result is a no-op (first write wins); putting a *different* result
        under an existing digest raises (timing excluded from the comparison).
        """
        digest = digest or result.spec_digest
        document = result.to_json_dict()
        existing = self._documents.get(digest)
        if existing is not None:
            if _strip_volatile(existing) != _strip_volatile(document):
                raise StoreError(
                    f"digest {digest} already maps to a different result in {self.root}; "
                    f"deterministic runs must agree — refusing to overwrite"
                )
            return digest
        self._backend.append(digest, document)
        self._documents[digest] = document
        self._results.pop(digest, None)
        return digest

    def get(self, digest: str) -> Optional[RunResult]:
        """The stored result for a digest, or ``None``."""
        result = self._results.get(digest)
        if result is not None:
            return result
        document = self._documents.get(digest)
        if document is None:
            return None
        result = RunResult.from_json_dict(document)
        self._results[digest] = result
        return result

    def document(self, digest: str) -> Optional[dict]:
        """The raw JSON document for a digest (merge/inspection helper)."""
        return self._documents.get(digest)

    def digests(self) -> list[str]:
        return sorted(self._documents)

    def __contains__(self, digest: str) -> bool:
        return digest in self._documents

    def __len__(self) -> int:
        return len(self._documents)

    # --------------------------------------------------------------- merging

    def merge_from(self, other: "ResultStore") -> int:
        """Copy every record of ``other`` into this store; returns #added.

        Records present in both stores must agree (timing excluded) — a
        mismatch raises, because two shards of one sweep can only disagree if
        something nondeterministic happened.
        """
        added = 0
        for digest in other.digests():
            document = other.document(digest)
            assert document is not None
            existing = self._documents.get(digest)
            if existing is not None:
                if _strip_volatile(existing) != _strip_volatile(document):
                    raise StoreError(
                        f"merge conflict for digest {digest}: {other.root} disagrees with {self.root}"
                    )
                continue
            self._backend.append(digest, document)
            self._documents[digest] = document
            added += 1
        return added

    # ------------------------------------------------- sibling persistence

    def fitness_store(self):
        """The store's shared persistent fitness-cache database (lazy)."""
        if self._fitness_store is None:
            from repro.store.artifacts import ArtifactStore

            self._fitness_store = ArtifactStore(self.root / "fitness.sqlite")
        return self._fitness_store

    def artifact_store(self):
        """The store's pickled simulation-artefact database (lazy)."""
        if self._artifact_store is None:
            from repro.store.artifacts import ArtifactStore

            self._artifact_store = ArtifactStore(self.root / "artifacts.sqlite")
        return self._artifact_store

    def checkpoint(self, key: str):
        """A GA checkpoint manager for one search, keyed by digest."""
        from repro.store.checkpoint import CheckpointManager

        return CheckpointManager(self.root / "checkpoints" / f"{key}.ckpt")

    # -------------------------------------------------------------- lifetime

    def close(self) -> None:
        if self._fitness_store is not None:
            self._fitness_store.close()
            self._fitness_store = None
        if self._artifact_store is not None:
            self._artifact_store.close()
            self._artifact_store = None

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def open_store(path: Union[str, Path, ResultStore]) -> ResultStore:
    """Open (or create) a result store at ``path``; passes stores through."""
    if isinstance(path, ResultStore):
        return path
    return ResultStore(path)


def merge_stores(destination: Union[str, Path, ResultStore],
                 sources: Iterable[Union[str, Path, ResultStore]]) -> tuple[ResultStore, int]:
    """Merge shard stores into ``destination``; returns (store, #added).

    The destination is created if missing; every source must already be a
    store (opening a store silently creates one, so a typo'd source path
    would otherwise merge as empty and the miss would go unnoticed).
    """
    checked: list[Union[str, Path, ResultStore]] = []
    for source in sources:
        if not isinstance(source, ResultStore) and not (Path(source) / META_FILE).exists():
            raise StoreError(f"source {source} is not a result store (no {META_FILE})")
        checked.append(source)
    dest = open_store(destination)
    added = 0
    for source in checked:
        src = open_store(source)
        added += dest.merge_from(src)
        if src is not dest:
            src.close()
    return dest, added
