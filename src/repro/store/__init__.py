"""Durable storage for results, simulation artefacts and GA search state.

The store subsystem gives every expensive computation in the repository a
persistent home keyed by content digests:

* :class:`ResultStore` — RunSpec-digest -> RunResult documents (one JSONL
  file, schema-versioned); the unit ``repro sweep --shard``/``repro merge``
  shard and join.
* :class:`ArtifactStore` — pickled simulation artefacts backing the
  :class:`~repro.experiments.runner.ExperimentContext` caches, so figures
  and tables replay from a populated store without re-simulating.
* :class:`PersistentFitnessCache` — the GA fitness cache with a sqlite
  write-through layer: duplicate genomes never re-simulate, across
  processes and sessions.
* :class:`CheckpointManager` / :class:`GACheckpoint` — per-generation GA
  checkpoints; an interrupted search resumes bit-identically.
* :func:`fsck_store` — the ``repro fsck`` audit/repair pass over all of the
  above (salvage torn JSONL tails, drop unloadable checkpoints, report
  sqlite corruption).
"""

from repro.store.artifacts import ArtifactStore, artifact_key
from repro.store.checkpoint import (
    CHECKPOINT_SCHEMA_VERSION,
    CheckpointError,
    CheckpointManager,
    GACheckpoint,
)
from repro.store.fitness_store import PersistentFitnessCache
from repro.store.fsck import FsckFinding, FsckReport, fsck_store
from repro.store.result_store import (
    SCHEMA_VERSION,
    ResultStore,
    StoreError,
    atomic_write_text,
    merge_stores,
    open_store,
)

__all__ = [
    "ArtifactStore",
    "artifact_key",
    "CHECKPOINT_SCHEMA_VERSION",
    "CheckpointError",
    "CheckpointManager",
    "GACheckpoint",
    "PersistentFitnessCache",
    "FsckFinding",
    "FsckReport",
    "fsck_store",
    "SCHEMA_VERSION",
    "ResultStore",
    "StoreError",
    "atomic_write_text",
    "merge_stores",
    "open_store",
]
