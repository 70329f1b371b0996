"""Evaluation backends: the serial reference and the shared worker plumbing.

The GA engine, the stressmark generator and the experiment context all push
batches of independent work (fitness evaluations, workload simulations)
through an :class:`EvaluationBackend`.  The contract every backend honours:

* **Ordered results** — ``map(fn, items)`` returns results in the order of
  ``items`` regardless of which worker finished first, so GA runs are
  bit-identical no matter the worker count.
* **Stateless workers** — every task message a process-pool worker
  (:class:`~repro.parallel.resilience.ResilientPoolBackend`) receives
  carries its callable, and the worker runs it (:func:`_run_task`) and
  keeps nothing.  Any worker can run any task, so the pool is **never
  recycled** when the mapped callable changes (sweeps alternating
  evaluators reuse the same workers), and a respawned worker needs no
  warm-up.

Worker count resolution: an explicit ``jobs`` argument wins, then the
``REPRO_JOBS`` environment variable, then 1 (serial).
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Callable, Iterable, Optional, Sequence, TypeVar

from repro.testing.chaos import chaos_hook

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.parallel.resilience import RetryPolicy

T = TypeVar("T")
R = TypeVar("R")

#: Environment variable consulted when no explicit worker count is given.
JOBS_ENV_VAR = "REPRO_JOBS"

def _run_task(payload):
    # Workers run the callable each ``(fn, item)`` message carries and keep
    # nothing.  The only per-task state an evaluator builds is the GA's
    # ``CodeGenerator(config)``, at 0.26-0.45 us, while unpickling the 1.8 KB
    # ``_BatchTask`` every message carries costs 23-39 us (best of 7
    # ``timeit`` runs, Python 3.11, 2-core Xeon), so caching callables per
    # worker would save nothing measurable.
    fn, item = payload
    chaos_hook("worker")
    return fn(item)


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
        with the input order.  Evaluators without ``evaluate_batch`` follow
        the per-item protocol: they mutate ``individual.payload`` in place
        and return the fitness, and since in a worker those mutations land
        on a pickled copy, the payload travels back in the outcome.
        """
        if not individuals:
            return []
        batches = partition_batches(individuals, self.jobs)
        outcomes = self.map_batches(_BatchTask(evaluator), batches)
        flat: list = []
        for batch, outcome in zip(batches, outcomes):
            if isinstance(outcome, list) and len(outcome) == len(batch.items):
                flat.extend(outcome)
            else:
                # A whole-batch outcome (e.g. Quarantined from a resilient
                # backend that could not salvage it): every slot inherits it.
                flat.extend([outcome] * len(batch.items))
        return flat

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


class EvalBatch:
    """One worker-sized slice of a generation, evaluated as a unit.

    Batching lets evaluators that implement ``evaluate_batch`` run the
    slice as one vector-plane population; it is purely an execution
    grouping — outcomes stay per-item and ordered.
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
    retry: Optional["RetryPolicy"] = None,
) -> EvaluationBackend:
    """Backend for ``jobs`` workers (resolving ``None`` via ``REPRO_JOBS``).

    ``jobs > 1`` returns the fault-tolerant
    :class:`~repro.parallel.resilience.ResilientPoolBackend` running
    ``retry`` (default ``RetryPolicy()``); one job runs serially.
    """
    resolved = resolve_jobs(jobs)
    if resolved <= 1:
        return SerialBackend()
    from repro.parallel.resilience import ResilientPoolBackend

    return ResilientPoolBackend(resolved, retry=retry)
