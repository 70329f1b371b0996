"""Evaluation backends: the serial reference and the shared worker plumbing.

The GA engine, the stressmark generator and the experiment context all push
batches of independent work (fitness evaluations, workload simulations)
through an :class:`EvaluationBackend`.  The contract every backend honours:

* **Ordered results** — ``map(fn, items)`` returns results in the order of
  ``items`` regardless of which worker finished first, so GA runs are
  bit-identical no matter the worker count.
* **Per-worker state reuse** — process-pool workers
  (:class:`~repro.parallel.resilience.ResilientPoolBackend`) keep every task
  callable they have ever seen in a version-keyed registry
  (:class:`_TaskVersionTable` on the parent side, :func:`_run_task` in the
  worker), so expensive per-task state (code generator, machine
  configuration, warm simulator state, fitness function) is built once per
  worker per task *version* instead of once per item — and the pool itself
  is **never recycled** when the mapped callable changes (sweeps alternating
  evaluators reuse the same warm workers).

Worker count resolution: an explicit ``jobs`` argument wins, then the
``REPRO_JOBS`` environment variable, then 1 (serial).
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Callable, Iterable, Optional, Sequence, TypeVar

from repro.testing.chaos import chaos_hook

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.parallel.resilience import FailurePolicy

T = TypeVar("T")
R = TypeVar("R")

#: Environment variable consulted when no explicit worker count is given.
JOBS_ENV_VAR = "REPRO_JOBS"

#: Most task versions a worker-side registry retains (oldest evicted first).
#: Bounds worker memory for very long sweeps over many distinct evaluators.
TASK_REGISTRY_LIMIT = 64

# Worker-side task registry: version -> installed callable.  Task messages
# are ``(version, fn, item)``; a worker that has already installed
# ``version`` keeps using its registered instance, preserving any lazily
# built per-task state across items, map calls and evaluator changes.
_worker_tasks: dict[int, Callable] = {}


def _init_worker() -> None:
    _worker_tasks.clear()


def _run_task(payload):
    version, fn, item = payload
    task = _worker_tasks.get(version)
    if task is None:
        while len(_worker_tasks) >= TASK_REGISTRY_LIMIT:
            _worker_tasks.pop(min(_worker_tasks))
        _worker_tasks[version] = task = fn
    chaos_hook("worker")
    return task(item)


class _TaskVersionTable:
    """Monotone task versions for mapped callables.

    The strong references in ``_table`` also pin every seen callable's
    ``id()``, so the id-keyed lookup can never alias a collected object;
    both maps are bounded alongside the worker-side registry.
    """

    def __init__(self) -> None:
        self._table: dict[int, Callable] = {}
        self._ids: dict[int, int] = {}
        self._next_version = 0

    def version_for(self, fn: Callable) -> int:
        version = self._ids.get(id(fn))
        if version is not None and self._table.get(version) is fn:
            return version
        while len(self._table) >= TASK_REGISTRY_LIMIT:
            oldest = min(self._table)
            stale = self._table.pop(oldest)
            self._ids.pop(id(stale), None)
        self._next_version += 1
        version = self._next_version
        self._ids[id(fn)] = version
        self._table[version] = fn
        return version


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Resolve a worker count: explicit argument, then ``REPRO_JOBS``, then 1."""
    if jobs is not None:
        return max(1, int(jobs))
    env = os.environ.get(JOBS_ENV_VAR, "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError as exc:
            raise ValueError(f"{JOBS_ENV_VAR} must be an integer, got {env!r}") from exc
    return 1


class EvaluationBackend(ABC):
    """Maps a callable over a batch of items with deterministic ordering."""

    jobs: int = 1

    @abstractmethod
    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
        """Apply ``fn`` to every item; results are in input order."""

    def evaluate_individuals(self, evaluator: Callable, individuals: Sequence) -> list[tuple[float, dict]]:
        """Evaluate GA individuals; returns ``(fitness, payload)`` per individual.

        The GA evaluator protocol mutates ``individual.payload`` in place and
        returns the fitness.  When evaluation happens in another process those
        mutations land on a pickled copy, so backends return the payload
        explicitly and the engine re-applies it on the caller side.
        """
        if not individuals:
            return []
        task = self._individual_task(evaluator)
        return self.map(task, individuals)

    def map_batches(self, fn: Callable[["EvalBatch"], R], batches: Sequence["EvalBatch"]) -> list[R]:
        """Apply ``fn`` to whole batches; per-batch results in input order.

        The base implementation treats each batch as one map item; the
        resilient backend overrides this to recover batch-level failures by
        re-running the failed batch item by item, preserving the per-item
        retry/quarantine contract.
        """
        return self.map(fn, list(batches))

    def evaluate_batch(self, evaluator: Callable, individuals: Sequence) -> list:
        """Evaluate GA individuals population-at-once.

        Individuals are partitioned into one contiguous batch per worker
        (so batch-capable evaluators amortise per-population state) and the
        per-item outcomes — ``(fitness, payload)`` tuples, or ``Quarantined``
        records from resilient backends — are returned flattened, aligned
        with the input order.
        """
        if not individuals:
            return []
        task = self._batch_task(evaluator)
        batches = partition_batches(individuals, self.jobs)
        outcomes = self.map_batches(task, batches)
        flat: list = []
        for batch, outcome in zip(batches, outcomes):
            if isinstance(outcome, list) and len(outcome) == len(batch.items):
                flat.extend(outcome)
            else:
                # A whole-batch outcome (e.g. Quarantined from a resilient
                # backend that could not salvage it): every slot inherits it.
                flat.extend([outcome] * len(batch.items))
        return flat

    def _individual_task(self, evaluator: Callable) -> "_IndividualTask":
        return self._cached_task(evaluator, _IndividualTask)

    def _batch_task(self, evaluator: Callable) -> "_BatchTask":
        return self._cached_task(evaluator, _BatchTask)

    def _cached_task(self, evaluator: Callable, wrapper: Callable):
        # Keep one stable wrapper per (evaluator, protocol) — not just the
        # most recent one — so sweeps alternating between evaluators hand
        # the pool the same callable objects, and therefore the same task
        # versions, every time they come back around.
        cache = getattr(self, "_task_cache", None)
        if cache is None:
            cache = {}
            self._task_cache = cache
        key = (id(evaluator), wrapper)
        cached = cache.get(key)
        if cached is None or cached.evaluator is not evaluator:
            while len(cache) >= TASK_REGISTRY_LIMIT:
                cache.pop(next(iter(cache)))
            cached = wrapper(evaluator)
            cache[key] = cached
        return cached

    def failure_counters(self) -> dict[str, int]:
        """Cumulative fault-tolerance counters (empty for non-resilient backends).

        Resilient backends report ``failures`` / ``retries`` / ``quarantined``
        / ``worker_restarts`` / ``degraded`` so callers (the Session) can
        attribute per-run deltas in result provenance.
        """
        return {}

    def close(self) -> None:
        """Release worker resources (no-op for serial backends)."""

    def __enter__(self) -> "EvaluationBackend":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class _IndividualTask:
    """Picklable wrapper turning the GA evaluator protocol into a pure map."""

    def __init__(self, evaluator: Callable) -> None:
        self.evaluator = evaluator

    def __call__(self, individual) -> tuple[float, dict]:
        fitness = float(self.evaluator(individual))
        return fitness, individual.payload


class EvalBatch:
    """One worker-sized slice of a generation, evaluated as a unit.

    Batching lets evaluators that implement ``evaluate_batch`` share
    per-population state (compiled batch kernels, warm cache/TLB state,
    operand plans) across the genomes of the slice; it is purely an
    execution grouping — outcomes stay per-item and ordered.
    """

    __slots__ = ("items",)

    def __init__(self, items: Sequence) -> None:
        self.items = list(items)

    def __len__(self) -> int:
        return len(self.items)

    def __getstate__(self):
        return self.items

    def __setstate__(self, items) -> None:
        self.items = items


class _BatchTask:
    """Picklable wrapper evaluating one :class:`EvalBatch` per call.

    Evaluators exposing ``evaluate_batch`` get the whole slice at once;
    anything else falls back to the per-item protocol, so batching is safe
    to use with arbitrary evaluators.
    """

    def __init__(self, evaluator: Callable) -> None:
        self.evaluator = evaluator

    def __call__(self, batch: EvalBatch) -> list[tuple[float, dict]]:
        evaluate_batch = getattr(self.evaluator, "evaluate_batch", None)
        if evaluate_batch is not None:
            return evaluate_batch(batch.items)
        return [(float(self.evaluator(item)), item.payload) for item in batch.items]


def partition_batches(items: Sequence, parts: int) -> list[EvalBatch]:
    """Split items into at most ``parts`` contiguous, balanced batches."""
    count = len(items)
    parts = max(1, min(int(parts), count))
    base, extra = divmod(count, parts)
    batches: list[EvalBatch] = []
    start = 0
    for index in range(parts):
        size = base + (1 if index < extra else 0)
        batches.append(EvalBatch(items[start:start + size]))
        start += size
    return batches


class SerialBackend(EvaluationBackend):
    """In-process evaluation; the default and the reference for determinism."""

    jobs = 1

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
        return [fn(item) for item in items]


def create_backend(
    jobs: Optional[int] = None,
    policy: Optional["FailurePolicy"] = None,
) -> EvaluationBackend:
    """Backend for ``jobs`` workers (resolving ``None`` via ``REPRO_JOBS``).

    ``jobs > 1`` returns the fault-tolerant
    :class:`~repro.parallel.resilience.ResilientPoolBackend` (``policy``
    defaults to the ``REPRO_RETRY_*`` environment); one job runs serially.
    """
    resolved = resolve_jobs(jobs)
    if resolved <= 1:
        return SerialBackend()
    from repro.parallel.resilience import ResilientPoolBackend

    return ResilientPoolBackend(resolved, policy=policy)
