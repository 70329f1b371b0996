"""Compiled, memoized config kernels for the population planes.

:func:`batch_kernel_for` and :func:`vector_kernel_for` turn a machine
configuration into the compiled ``batch_run`` / ``vector_run`` callable of
:mod:`repro.uarch.kernel_batch` / :mod:`repro.uarch.kernel_vector` by asking
:mod:`repro.uarch.kernelgen` for config-specialized Python source and
``compile()``/``exec()``-ing it once.  Both go through one routine,
:func:`_config_kernel_for`, which memoizes at two levels:

* **in-process** — a bounded LRU table per plane keyed by config digest;
  every later population on the same configuration reuses the compiled code
  object.  Worker processes keep their own tables, so a process pool
  compiles each config kernel at most once per worker.
* **across processes** — when an
  :class:`~repro.store.artifacts.ArtifactStore` is attached via
  :func:`configure_source_store` (the experiment context wires the result
  store's artifact database in), generated *source text* is persisted under
  a schema-versioned digest key.  Only source ships between processes and
  sessions — never closures or code objects — and each process compiles
  what it loads.

Single-program runs do not compile anything: :meth:`OutOfOrderCore.run
<repro.uarch.pipeline.OutOfOrderCore.run>` executes the interpreted
reference loop (see :mod:`repro.uarch.kernel_backends`).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

from repro.parallel.cache import evaluation_context_digest
from repro.uarch.kernelgen import (
    KERNEL_SCHEMA,
    generate_batch_kernel_source,
    generate_vector_kernel_source,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.isa.program import Program
    from repro.uarch.config import MachineConfig

@dataclass
class KernelStats:
    """Process-local counters for the kernel cache (observability/tests)."""

    generated: int = 0
    compiled: int = 0
    memo_hits: int = 0
    source_store_hits: int = 0
    failures: int = 0
    failed_digests: set = field(default_factory=set)

    def reset(self) -> None:
        self.generated = 0
        self.compiled = 0
        self.memo_hits = 0
        self.source_store_hits = 0
        self.failures = 0
        self.failed_digests.clear()


STATS = KernelStats()

#: Compiled config kernels are one per distinct machine configuration — a
#: GA search uses exactly one — but a long-lived ``repro serve`` daemon can
#: meet many configs over its lifetime, so these memos are bounded.
CONFIG_KERNEL_CACHE_LIMIT = 64

#: Compiled config-specialized batch kernels, keyed by config digest.
_batch_kernels: dict[str, Callable] = {}
#: Compiled config-specialized vector kernels, keyed by config digest.
_vector_kernels: dict[str, Callable] = {}
_source_store = None
_source_store_pid: Optional[int] = None


def _lru_get(cache: dict, key):
    """Bounded-memo lookup that refreshes recency (move-to-end on hit).

    All kernel/plan/warm memos are plain insertion-ordered dicts bounded by
    evicting ``next(iter(...))``; refreshing on hit makes that eviction
    least-recently-*used* rather than first-inserted, so a long-lived serve
    daemon cycling through many configs keeps its hot entries.
    """
    value = cache.get(key)
    if value is not None:
        del cache[key]
        cache[key] = value
    return value


def _lru_put(cache: dict, key, value, limit: int) -> None:
    """Insert into a bounded memo, evicting least-recently-used entries."""
    if key in cache:
        del cache[key]
    while len(cache) >= limit:
        del cache[next(iter(cache))]
    cache[key] = value


def program_digest(program: "Program") -> str:
    """Content digest of a program (operand plans are keyed by it)."""
    return evaluation_context_digest("kernel-program", KERNEL_SCHEMA, program)


def config_digest(config: "MachineConfig") -> str:
    """Content digest of a machine configuration."""
    return evaluation_context_digest("kernel-config", KERNEL_SCHEMA, config)


def batch_source_key(cfg_digest: str) -> str:
    """ArtifactStore key one config's batch-kernel source is persisted under."""
    return f"kernel-batch-src|v{KERNEL_SCHEMA}|{cfg_digest}"


def vector_source_key(cfg_digest: str) -> str:
    """ArtifactStore key one config's vector-kernel source is persisted under."""
    return f"kernel-vector-src|v{KERNEL_SCHEMA}|{cfg_digest}"


def configure_source_store(store) -> None:
    """Attach (or detach, with ``None``) a durable source cache.

    ``store`` is any ``get``/``put`` mapping — in practice the result
    store's :class:`~repro.store.artifacts.ArtifactStore`.  Generated source
    is written through so later processes and sessions skip codegen; the
    caller owns the store's lifetime.
    """
    global _source_store, _source_store_pid
    _source_store = store
    _source_store_pid = os.getpid() if store is not None else None


def detach_source_store(store) -> None:
    """Detach ``store`` if it is the currently configured source cache.

    Called when the owner (an experiment context whose result store is being
    closed) releases it, so the module never holds a closed database.  A
    different store configured in the meantime is left in place.
    """
    global _source_store
    if _source_store is store:
        configure_source_store(None)


# Attachment bookkeeping: several experiment contexts can share one result
# store (Session memoizes contexts per scale/jobs), and sessions over
# *different* stores can interleave.  The stack records attachment order
# (one entry per attach, duplicates allowed) so releasing the currently
# configured store restores the most recently attached survivor instead of
# silently disabling persistence for a still-open owner.
_attach_stack: list = []


def attach_source_store(store) -> None:
    """Stacked :func:`configure_source_store` for shared/interleaved owners."""
    _attach_stack.append(store)
    configure_source_store(store)


def release_source_store(store) -> None:
    """Drop one attachment of ``store``; reconfigure to the newest survivor."""
    for index in range(len(_attach_stack) - 1, -1, -1):
        if _attach_stack[index] is store:
            del _attach_stack[index]
            break
    if _source_store is not store:
        return
    for survivor in reversed(_attach_stack):
        if survivor is store:
            # Another attachment of the same store is still live.
            return
    configure_source_store(_attach_stack[-1] if _attach_stack else None)


def _discard_failed_store(store) -> None:
    """Drop a store that raised, everywhere: current slot *and* attach stack.

    A broken store (closed database, locked file) must neither stay
    configured nor lurk on the stack to be re-attached when a sibling
    releases; the newest healthy survivor — if any — takes over.
    """
    _attach_stack[:] = [entry for entry in _attach_stack if entry is not store]
    if _source_store is store:
        configure_source_store(_attach_stack[-1] if _attach_stack else None)


def _active_source_store():
    """The source store safe to use from *this* process.

    A sqlite connection must never be used across ``fork()``: pool workers
    inherit the module global, so on first use in a child process the store
    is reopened at the same path with a private connection (concurrent
    writers are serialized by sqlite's file locking).  Stores that cannot be
    reopened — or are not path-backed — are detached in the child.
    """
    global _source_store, _source_store_pid
    store = _source_store
    if store is None or _source_store_pid == os.getpid():
        return store
    path = getattr(store, "path", None)
    if path is None:
        _discard_failed_store(store)
        return None
    try:
        from repro.store.artifacts import ArtifactStore

        _source_store = ArtifactStore(path)
    except Exception:
        _discard_failed_store(store)
        return None
    _source_store_pid = os.getpid()
    return _source_store


def _config_kernel_for(
    plane: str,
    memo: dict,
    store_key: Callable[[str], str],
    generate: Callable,
    compile_: Callable,
    config: "MachineConfig",
) -> Optional[Callable]:
    """The compiled config kernel of one plane, or ``None`` on failure.

    Lookup order: the in-process LRU ``memo``, then persisted source in the
    attached ArtifactStore, then fresh generation (written back to the
    store).  Failures (codegen or compile errors) are remembered per
    (plane, config digest) and never retried, so a pathological config
    degrades to the fallback path once instead of paying the failed
    generation per population.
    """
    cfg_digest = config_digest(config)
    kernel = _lru_get(memo, cfg_digest)
    if kernel is not None:
        STATS.memo_hits += 1
        return kernel
    failed_key = (plane, cfg_digest)
    if failed_key in STATS.failed_digests:
        return None

    # The durable cache is an optimisation only: a broken or closed store
    # (e.g. outliving the session that attached it) detaches itself and
    # generation proceeds locally.
    key = store_key(cfg_digest)
    store = _active_source_store()
    source: Optional[str] = None
    from_store = False
    if store is not None:
        try:
            stored = store.get(key)
        except Exception:
            _discard_failed_store(store)
            stored = None
        if isinstance(stored, str):
            source = stored
            from_store = True
            STATS.source_store_hits += 1

    kernel = None
    if source is not None:
        try:
            kernel = compile_(source, cfg_digest)
        except Exception:
            # A truncated/garbled stored entry must not permanently demote
            # this config to the fallback path — regenerate locally below.
            from_store = False
    if kernel is None:
        try:
            source = generate(config)
            STATS.generated += 1
            kernel = compile_(source, cfg_digest)
        except Exception:
            STATS.failures += 1
            STATS.failed_digests.add(failed_key)
            return None
    if not from_store:
        # Re-resolve: a store that failed during the lookup has been pruned
        # by now, and any healthy survivor should still get the write.
        store = _active_source_store()
        if store is not None:
            try:
                store.put(key, source)
            except Exception:
                _discard_failed_store(store)

    STATS.compiled += 1
    _lru_put(memo, cfg_digest, kernel, CONFIG_KERNEL_CACHE_LIMIT)
    return kernel


def batch_kernel_for(config: "MachineConfig") -> Optional[Callable]:
    """The compiled config-specialized batch kernel, or ``None`` on failure."""
    return _config_kernel_for(
        "batch", _batch_kernels, batch_source_key,
        generate_batch_kernel_source, compile_batch_kernel, config,
    )


def vector_kernel_for(config: "MachineConfig") -> Optional[Callable]:
    """The compiled config-specialized vector kernel, or ``None`` on failure.

    Keyed under a distinct store namespace from the batch kernel, so both
    sources for one config coexist in the ArtifactStore.
    """
    return _config_kernel_for(
        "vector", _vector_kernels, vector_source_key,
        generate_vector_kernel_source, compile_vector_kernel, config,
    )


def compile_batch_kernel(source: str, cfg_digest: str) -> Callable:
    """Compile generated batch-kernel source; returns its ``batch_run``."""
    filename = f"<repro-batch-kernel {cfg_digest[:12]}>"
    namespace: dict[str, object] = {}
    exec(compile(source, filename, "exec"), namespace)
    return namespace["batch_run"]  # type: ignore[return-value]


def compile_vector_kernel(source: str, cfg_digest: str) -> Callable:
    """Compile generated vector-kernel source; returns its ``vector_run``."""
    filename = f"<repro-vector-kernel {cfg_digest[:12]}>"
    namespace: dict[str, object] = {}
    exec(compile(source, filename, "exec"), namespace)
    return namespace["vector_run"]  # type: ignore[return-value]


def clear_kernels() -> None:
    """Drop every compiled kernel and reset counters (tests/benchmarks)."""
    _batch_kernels.clear()
    _vector_kernels.clear()
    STATS.reset()
    from repro.uarch import kernel_batch, kernel_vector

    kernel_batch.clear_batch_caches()
    kernel_vector.clear_vector_caches()
