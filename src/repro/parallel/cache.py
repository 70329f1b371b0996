"""Content-addressed fitness memoization for the GA.

Elites, migrants re-sampling an old genome, and duplicate genomes produced by
crossover are common in the paper's GA; each duplicate used to pay a full
cycle-level simulation.  The cache keys every evaluation by a digest of

* the genome (sorted name/value pairs, exact reprs), and
* an evaluation-context digest supplied by the caller — the machine
  configuration, fault-rate model, simulation budget and seed — so results
  can never leak between different configurations or budgets.

Only deterministic evaluators may be cached (every evaluator in this
repository is: all randomness is derived from seeds carried in the genome or
fixed per run).  Payloads are shallow-copied on both store and hit so callers
can mutate their view without corrupting the cache.
"""

from __future__ import annotations

import hashlib
from typing import Mapping, Optional, Sequence


def genome_digest(genome: Mapping[str, object], context_digest: str = "") -> str:
    """Stable content digest of a genome under one evaluation context."""
    parts = [context_digest]
    for name in sorted(genome):
        parts.append(f"{name}={genome[name]!r}")
    text = "|".join(parts)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def evaluation_context_digest(*components: object) -> str:
    """Digest of the evaluation context (config, fault rates, budget, seed)."""
    text = repr(tuple(repr(component) for component in components))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class FitnessCache:
    """Maps genome digests to ``(fitness, payload)`` evaluation results."""

    def __init__(self, context_digest: str = "", max_entries: Optional[int] = None) -> None:
        if max_entries is not None and max_entries <= 0:
            raise ValueError("max_entries must be positive when given")
        self.context_digest = context_digest
        self.max_entries = max_entries
        self._entries: dict[str, tuple[float, dict]] = {}

    # ---------------------------------------------------------------- keys

    def key_for(self, genome: Mapping[str, object]) -> str:
        return genome_digest(genome, self.context_digest)

    # -------------------------------------------------------------- lookup

    def lookup(self, genome: Mapping[str, object]) -> Optional[tuple[float, dict]]:
        """Cached ``(fitness, payload)`` for a genome, or ``None`` on miss."""
        return self.lookup_key(self.key_for(genome))

    def lookup_key(self, key: str) -> Optional[tuple[float, dict]]:
        entry = self._entries.get(key)
        if entry is None:
            return None
        fitness, payload = entry
        return fitness, dict(payload)

    def lookup_many(self, keys: Sequence[str]) -> dict[str, tuple[float, dict]]:
        """Cached entries for several keys at once (hits only).

        Persistent subclasses override this to resolve all in-memory misses
        against disk in one round-trip instead of one query per genome.  The
        GA engine counts hits and misses itself
        (:attr:`~repro.ga.engine.GAResult.cache_hits` / ``cache_misses``).
        """
        found: dict[str, tuple[float, dict]] = {}
        for key in keys:
            entry = self.lookup_key(key)
            if entry is not None:
                found[key] = entry
        return found

    def store(self, genome: Mapping[str, object], fitness: float, payload: Optional[dict] = None) -> str:
        key = self.key_for(genome)
        self.store_key(key, fitness, payload)
        return key

    def store_key(self, key: str, fitness: float, payload: Optional[dict] = None) -> None:
        if self.max_entries is not None and key not in self._entries:
            while len(self._entries) >= self.max_entries:
                # FIFO eviction: drop the oldest insertion.
                self._entries.pop(next(iter(self._entries)))
        self._entries[key] = (float(fitness), dict(payload or {}))

    def store_many(self, entries: Mapping[str, tuple[float, Optional[dict]]]) -> None:
        """Store several ``key -> (fitness, payload)`` entries at once.

        Persistent subclasses override this to flush the whole generation to
        disk in a single transaction.
        """
        for key, (fitness, payload) in entries.items():
            self.store_key(key, fitness, payload)

    # ------------------------------------------------------------- utility

    def clear(self) -> None:
        """Drop every entry."""
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries
