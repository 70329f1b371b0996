"""Compiled, memoized config kernels for the vector population plane.

:func:`vector_kernel_for` turns a machine configuration into the compiled
``vector_run`` callable of :mod:`repro.uarch.kernel_vector` by asking
:mod:`repro.uarch.kernelgen` for config-specialized Python source and
``compile()``/``exec()``-ing it once.  Compiled kernels are memoized
in-process only, in a bounded LRU table keyed by config digest: every later
population on the same configuration reuses the compiled code object, and
worker processes keep their own tables, so a process pool compiles each
config kernel at most once per worker.  Nothing is persisted — codegen is a
fraction of a millisecond next to the 3–4 ms compile a persisted source
could never skip.

Single-program runs do not compile anything: :meth:`OutOfOrderCore.run
<repro.uarch.pipeline.OutOfOrderCore.run>` executes the interpreted
reference loop (see :mod:`repro.uarch.kernel_backends`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

from repro.parallel.cache import evaluation_context_digest
from repro.uarch.kernelgen import generate_vector_kernel_source

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.uarch.config import MachineConfig

@dataclass
class KernelStats:
    """Process-local counters for the kernel cache (observability/tests)."""

    generated: int = 0
    compiled: int = 0
    memo_hits: int = 0
    failures: int = 0
    failed_digests: set = field(default_factory=set)

    def reset(self) -> None:
        self.generated = 0
        self.compiled = 0
        self.memo_hits = 0
        self.failures = 0
        self.failed_digests.clear()


STATS = KernelStats()

#: Compiled config kernels are one per distinct machine configuration — a
#: GA search uses exactly one — but a long-lived ``repro serve`` daemon can
#: meet many configs over its lifetime, so the memo is bounded.
CONFIG_KERNEL_CACHE_LIMIT = 64

#: Compiled config-specialized vector kernels, keyed by config digest.
_vector_kernels: dict[str, Callable] = {}


def _lru_get(cache: dict, key):
    """Bounded-memo lookup that refreshes recency (move-to-end on hit).

    The memo is a plain insertion-ordered dict bounded by evicting
    ``next(iter(...))``; refreshing on hit makes that eviction
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


def config_digest(config: "MachineConfig") -> str:
    """Content digest of a machine configuration (in-process memo key)."""
    return evaluation_context_digest("kernel-config", config)


def vector_kernel_for(config: "MachineConfig") -> Optional[Callable]:
    """The compiled config-specialized vector kernel, or ``None`` on failure.

    Memo, then generate and compile.  Failures (codegen or compile errors)
    are remembered per config digest and never retried, so a pathological
    config degrades to the interpreter once instead of paying the failed
    generation per population.
    """
    cfg_digest = config_digest(config)
    kernel = _lru_get(_vector_kernels, cfg_digest)
    if kernel is not None:
        STATS.memo_hits += 1
        return kernel
    if cfg_digest in STATS.failed_digests:
        return None
    try:
        source = generate_vector_kernel_source(config)
        STATS.generated += 1
        kernel = compile_vector_kernel(source, cfg_digest)
    except Exception:
        STATS.failures += 1
        STATS.failed_digests.add(cfg_digest)
        return None
    STATS.compiled += 1
    _lru_put(_vector_kernels, cfg_digest, kernel, CONFIG_KERNEL_CACHE_LIMIT)
    return kernel


def compile_vector_kernel(source: str, cfg_digest: str) -> Callable:
    """Compile generated vector-kernel source; returns its ``vector_run``."""
    filename = f"<repro-vector-kernel {cfg_digest[:12]}>"
    namespace: dict[str, object] = {}
    exec(compile(source, filename, "exec"), namespace)
    return namespace["vector_run"]  # type: ignore[return-value]


def clear_kernels() -> None:
    """Drop every compiled kernel and reset counters (tests/benchmarks)."""
    _vector_kernels.clear()
    STATS.reset()
    from repro.uarch import kernel_vector

    kernel_vector.clear_vector_caches()
