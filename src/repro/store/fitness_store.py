"""A :class:`~repro.parallel.cache.FitnessCache` with a durable sqlite layer.

The in-process fitness cache already prevents duplicate genomes from paying
a second cycle-level simulation *within* one GA run.  The persistent variant
extends that guarantee across processes and sessions: every evaluation is
written through to an :class:`~repro.store.artifacts.ArtifactStore`, and a
miss in memory falls back to disk before the engine is told to simulate.

Keys are the same content digests the in-memory cache uses — genome plus the
evaluation-context digest (machine config, fault-rate model, fitness,
simulation budget and seed) — so one shared database safely serves every
configuration at once, and a resumed GA run observes the exact hit/miss
sequence of its uninterrupted twin.

``max_entries`` bounds only the in-memory layer (payloads carry programs and
SER reports); the on-disk layer is unbounded and survives eviction.
"""

from __future__ import annotations

from pathlib import Path
from typing import Mapping, Optional, Sequence, Union

from repro.parallel.cache import FitnessCache
from repro.store.artifacts import ArtifactStore


class PersistentFitnessCache(FitnessCache):
    """Write-through fitness cache: in-memory front, sqlite behind."""

    def __init__(
        self,
        store: Union[ArtifactStore, str, Path],
        context_digest: str = "",
        max_entries: Optional[int] = None,
    ) -> None:
        super().__init__(context_digest=context_digest, max_entries=max_entries)
        if isinstance(store, ArtifactStore):
            self._store = store
            self._owns_store = False
        else:
            self._store = ArtifactStore(store)
            self._owns_store = True

    # -------------------------------------------------------------- lookups

    def lookup_key(self, key: str) -> Optional[tuple[float, dict]]:
        entry = super().lookup_key(key)
        if entry is not None:
            return entry
        stored = self._store.get(key)
        if stored is None:
            return None
        fitness, payload = stored
        # Promote to the in-memory layer without re-writing disk.
        super().store_key(key, fitness, payload)
        return float(fitness), dict(payload)

    def lookup_many(self, keys: Sequence[str]) -> dict[str, tuple[float, dict]]:
        """Batched lookup: memory first, then one disk round-trip for misses.

        The GA engine calls this once per generation, so a population's worth
        of cache probes costs a single ``SELECT ... WHERE key IN`` instead of
        one query per genome.
        """
        found: dict[str, tuple[float, dict]] = {}
        missing: list[str] = []
        for key in keys:
            entry = FitnessCache.lookup_key(self, key)
            if entry is not None:
                found[key] = entry
            else:
                missing.append(key)
        if missing:
            stored = self._store.get_many(missing)
            for key in missing:
                entry = stored.get(key)
                if entry is None:
                    continue
                fitness, payload = entry
                # Promote to the in-memory layer without re-writing disk.
                FitnessCache.store_key(self, key, fitness, payload)
                found[key] = (float(fitness), dict(payload))
        return found

    def store_key(self, key: str, fitness: float, payload: Optional[dict] = None) -> None:
        super().store_key(key, fitness, payload)
        self._store.put(key, (float(fitness), dict(payload or {})))

    def store_many(self, entries: Mapping[str, tuple[float, Optional[dict]]]) -> None:
        """Write-through a whole generation in one sqlite transaction."""
        for key, (fitness, payload) in entries.items():
            FitnessCache.store_key(self, key, fitness, payload)
        self._store.put_many(
            {key: (float(fitness), dict(payload or {}))
             for key, (fitness, payload) in entries.items()}
        )

    # ------------------------------------------------------------- lifetime

    def close(self) -> None:
        """Release the sqlite handle (only if this cache opened it)."""
        if self._owns_store:
            self._store.close()

    def __enter__(self) -> "PersistentFitnessCache":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
