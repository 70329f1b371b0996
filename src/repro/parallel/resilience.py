"""Fault-tolerant evaluation: the resilient worker pool and its policies.

The worker pool keeps its workers alive across map calls and runs the
callable each task message carries (see :mod:`repro.parallel.backends`);
this module makes it *durable*.  A single segfaulting worker, an
OOM-killed child, a hung simulation or a transiently failing evaluator must
not deadlock ``map`` or abort a multi-hour GA search, so
:class:`ResilientPoolBackend` dispatches items individually over per-worker
pipes and supervises every attempt:

* **Per-item deadlines** — an item running past ``RetryPolicy.timeout`` has
  its worker killed and is retried elsewhere.
* **Dead-worker detection** — a worker exiting mid-task (crash, OOM kill,
  injected chaos) is detected via its process sentinel; only the lost worker
  is respawned, and the survivors keep running.
* **Retries with capped exponential backoff** — a failed attempt re-queues
  the item after ``base_delay * 2**(attempt-1)`` seconds (capped at
  ``max_delay``), up to ``max_attempts`` attempts.
* **Quarantine** — an item that exhausts its attempts is *recorded* as
  :class:`Quarantined` in the result slot instead of raising, so one
  poisonous genome/workload cannot abort the surrounding search.
* **Graceful degradation** — repeated pool-level failures (more worker
  losses than :data:`MAX_POOL_FAILURES`) fall the backend back to
  in-process serial execution with a warning instead of dying.

Determinism is preserved in every path: results are placed by input index,
retries and backoff never touch item ordering or any RNG, and the degraded
serial path calls ``fn(item)`` exactly like
:class:`~repro.parallel.backends.SerialBackend` — so a run under faults is
bit-identical to a clean serial run (the ``chaos-smoke`` gate enforces
this).

The :class:`RetryPolicy` a pool runs is set per run by the RunSpec
(``retries`` / ``task_timeout``) or pinned by the CLI (``--retries`` /
``--task-timeout``); the :class:`~repro.api.session.Session` resolves it
and owns the pools.
"""

from __future__ import annotations

import heapq
import multiprocessing
import time
import warnings
from dataclasses import dataclass, fields as dataclass_fields, replace
from multiprocessing import connection as mp_connection
from typing import Callable, Iterable, Optional, TypeVar

from repro.parallel.backends import EvaluationBackend, _run_task

T = TypeVar("T")
R = TypeVar("R")

#: Worker losses a pool survives before it degrades to in-process serial
#: evaluation.
MAX_POOL_FAILURES = 8

#: Upper bound on one supervision wait so liveness is re-checked regularly.
_MAX_WAIT_SECONDS = 0.5

#: Grace period for a worker to exit after the stop sentinel / SIGTERM.
_JOIN_GRACE_SECONDS = 2.0


@dataclass(frozen=True)
class RetryPolicy:
    """Per-item retry schedule of the resilient backend.

    ``max_attempts`` counts total tries per item (1 = no retries);
    ``timeout`` is the per-item deadline in seconds (``None`` = unlimited);
    failed attempts back off ``base_delay * 2**(attempt-1)`` seconds, capped
    at ``max_delay``.
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    timeout: Optional[float] = None
    max_delay: float = 2.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.base_delay < 0.0:
            raise ValueError("base_delay must be non-negative")
        if self.timeout is not None and self.timeout <= 0.0:
            raise ValueError("timeout must be positive (or None for unlimited)")
        if self.max_delay < self.base_delay:
            raise ValueError("max_delay must be at least base_delay")

    def delay_for(self, attempt: int) -> float:
        """Backoff before re-dispatching after the ``attempt``-th failure (1-based)."""
        return min(self.max_delay, self.base_delay * (2.0 ** (attempt - 1)))

    def derive(self, **overrides: object) -> "RetryPolicy":
        """A copy with fields overridden."""
        return replace(self, **overrides)  # type: ignore[arg-type]


@dataclass(frozen=True)
class Quarantined:
    """Result slot recorded for an item that kept failing.

    The resilient backend never lets a permanently failing genome/workload
    abort the whole search: after ``max_attempts`` failures the item's slot
    holds this record (last error message and attempt count) and the run
    continues.  The GA engine maps it to a ``-inf`` fitness and counts it in
    :class:`~repro.ga.engine.GAResult.quarantined`.
    """

    error: str
    attempts: int


@dataclass
class FailureStats:
    """Cumulative fault counters of one :class:`ResilientPoolBackend`."""

    failures: int = 0
    retries: int = 0
    quarantined: int = 0
    worker_restarts: int = 0
    degraded: int = 0

    def as_dict(self) -> dict[str, int]:
        return {f.name: getattr(self, f.name) for f in dataclass_fields(self)}


def _resilient_worker(conn) -> None:  # pragma: no cover - runs in child processes
    """Worker loop: one ``(seq, payload)`` request per ``(seq, ok, value)`` reply."""
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message is None:
            break
        seq, payload = message
        try:
            value = _run_task(payload)
        except BaseException as exc:
            reply = (seq, False, f"{type(exc).__name__}: {exc}")
        else:
            reply = (seq, True, value)
        try:
            conn.send(reply)
        except (EOFError, OSError, BrokenPipeError):
            break
        except Exception as exc:
            # Unpicklable result/error: report the failure instead of dying
            # silently (Connection.send pickles before writing, so the wire
            # is still clean).
            try:
                conn.send((seq, False, f"unpicklable worker reply: {type(exc).__name__}: {exc}"))
            except Exception:
                break


class _Worker:
    """One supervised worker process with a dedicated duplex pipe.

    A dedicated pipe per worker keeps a crash mid-``send`` from corrupting
    anyone else's channel (the classic reason ``concurrent.futures`` marks
    a whole pool broken): the torn stream dies with the worker.
    """

    __slots__ = ("process", "connection", "seq", "deadline")

    def __init__(self) -> None:
        parent_conn, child_conn = multiprocessing.Pipe(duplex=True)
        self.process = multiprocessing.Process(target=_resilient_worker, args=(child_conn,), daemon=True)
        self.process.start()
        child_conn.close()
        self.connection = parent_conn
        self.seq: Optional[int] = None
        self.deadline: Optional[float] = None

    @property
    def busy(self) -> bool:
        return self.seq is not None

    def dispatch(self, seq: int, payload: tuple, timeout: Optional[float]) -> None:
        self.connection.send((seq, payload))
        self.seq = seq
        self.deadline = None if timeout is None else time.monotonic() + timeout

    def settle(self) -> None:
        """Mark the in-flight item as answered."""
        self.seq = None
        self.deadline = None

    def stop(self) -> None:
        """Graceful shutdown: sentinel, join, then escalate if ignored."""
        try:
            self.connection.send(None)
        except (OSError, ValueError, BrokenPipeError):
            pass
        self.process.join(timeout=_JOIN_GRACE_SECONDS)
        if self.process.is_alive():
            self.kill()
            return
        self.connection.close()

    def kill(self) -> None:
        """Forceful shutdown for hung or error-path workers."""
        self.process.terminate()
        self.process.join(timeout=_JOIN_GRACE_SECONDS)
        if self.process.is_alive():  # pragma: no cover - SIGTERM ignored
            self.process.kill()
            self.process.join()
        try:
            self.connection.close()
        except OSError:  # pragma: no cover - already torn down
            pass


class ResilientPoolBackend(EvaluationBackend):
    """Crash-surviving worker pool with retries, quarantine and degradation.

    The backend every ``jobs > 1`` run uses (see
    :func:`~repro.parallel.backends.create_backend`).  Workers are
    stateless: each task message carries its callable, so one pool serves
    any sequence of map calls and evaluators.
    """

    def __init__(self, jobs: int, retry: Optional[RetryPolicy] = None) -> None:
        if jobs < 1:
            raise ValueError("jobs must be at least 1")
        self.jobs = int(jobs)
        self.retry = retry or RetryPolicy()
        self.stats = FailureStats()
        self._workers: list[_Worker] = []
        self._pool_failures = 0
        self._degraded = False

    # ------------------------------------------------------------------ map

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
        items = list(items)
        if not items:
            return []
        if self._degraded:
            return [self._run_serial(fn, item) for item in items]
        return _MapRun(self, fn, items).run()

    def map_batches(self, fn, batches):
        """Map over whole batches, salvaging failed batches item by item.

        A batch is one task on the wire, so a crash/timeout/poison genome
        first quarantines the *batch*.  Each quarantined batch is then
        re-run as singleton batches through the full retry schedule, so a
        single bad item only ever quarantines itself — the same per-item
        contract :meth:`map` gives unbatched callers.
        """
        batches = list(batches)
        outcomes = self.map(fn, batches)
        for index, (batch, outcome) in enumerate(zip(batches, outcomes)):
            if not isinstance(outcome, Quarantined) or len(batch.items) <= 1:
                continue
            singles = [type(batch)([item]) for item in batch.items]
            resolved: list = []
            for single in self.map(fn, singles):
                if isinstance(single, list) and len(single) == 1:
                    resolved.extend(single)
                else:
                    resolved.append(single)
            outcomes[index] = resolved
        return outcomes

    def failure_counters(self) -> dict[str, int]:
        return self.stats.as_dict()

    @property
    def degraded(self) -> bool:
        """Whether the pool has fallen back to in-process serial execution."""
        return self._degraded

    # ------------------------------------------------------- pool plumbing

    def _ensure_workers(self) -> None:
        while len(self._workers) < self.jobs:
            self._workers.append(_Worker())

    def _replace_worker(self, worker: _Worker) -> None:
        """Respawn one lost/hung worker, leaving the survivors running."""
        worker.kill()
        self.stats.worker_restarts += 1
        self._pool_failures += 1
        index = self._workers.index(worker)
        if self._pool_failures > MAX_POOL_FAILURES:
            self._degrade()
            return
        self._workers[index] = _Worker()

    def _degrade(self) -> None:
        warnings.warn(
            f"resilient pool lost {self._pool_failures} workers "
            f"(> MAX_POOL_FAILURES={MAX_POOL_FAILURES}); "
            f"degrading to in-process serial evaluation",
            RuntimeWarning,
            stacklevel=3,
        )
        self.stats.degraded += 1
        self._degraded = True
        self._stop_workers(graceful=False)

    def _run_serial(self, fn: Callable[[T], R], item: T):
        """Degraded-mode execution: identical to SerialBackend, plus retries.

        No chaos hooks — ``fn(item)`` exactly as the serial reference
        executes it, so degraded results stay bit-identical.
        """
        retry = self.retry
        attempts = 0
        while True:
            try:
                return fn(item)
            except KeyboardInterrupt:
                raise
            except Exception as exc:
                attempts += 1
                self.stats.failures += 1
                error = f"{type(exc).__name__}: {exc}"
                if attempts >= retry.max_attempts:
                    return self._exhausted(error, attempts)
                self.stats.retries += 1
                time.sleep(retry.delay_for(attempts))

    def _exhausted(self, error: str, attempts: int) -> Quarantined:
        """Quarantine an item that used up its attempts."""
        warnings.warn(
            f"quarantined item after {attempts} failed attempt(s): {error}",
            RuntimeWarning,
            stacklevel=4,
        )
        self.stats.quarantined += 1
        return Quarantined(error=error, attempts=attempts)

    def _stop_workers(self, graceful: bool) -> None:
        workers, self._workers = self._workers, []
        for worker in workers:
            if graceful and not worker.busy:
                worker.stop()
            else:
                worker.kill()

    def close(self) -> None:
        self._stop_workers(graceful=True)

    def terminate(self) -> None:
        self._stop_workers(graceful=False)

    def __exit__(self, *exc_info: object) -> None:
        if exc_info and exc_info[0] is not None:
            self.terminate()
        else:
            self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter shutdown path
        try:
            self._stop_workers(graceful=False)
        except Exception:
            pass


class _MapRun:
    """State machine of one resilient ``map`` call.

    Items advance pending -> in-flight -> done (value) | quarantined; every
    failure (error reply, worker death, deadline) re-queues the item with
    backoff until its attempts are exhausted.  Results land by input index,
    so ordering is independent of completion order, worker count and fault
    schedule.
    """

    def __init__(self, backend: ResilientPoolBackend, fn: Callable, items: list) -> None:
        self.backend = backend
        self.fn = fn
        self.items = items
        self.results: list = [None] * len(items)
        self.done = [False] * len(items)
        self.attempts = [0] * len(items)
        self.remaining = len(items)
        # Min-heap of (ready_time, seq): backoff schedules re-dispatches.
        self.ready: list[tuple[float, int]] = [(0.0, seq) for seq in range(len(items))]
        heapq.heapify(self.ready)

    # ------------------------------------------------------------ main loop

    def run(self) -> list:
        backend = self.backend
        while self.remaining:
            if backend._degraded:
                self._finish_serial()
                break
            backend._ensure_workers()
            now = time.monotonic()
            self._dispatch_ready(now)
            if backend._degraded:
                continue
            busy = [worker for worker in backend._workers if worker.busy]
            if not busy:
                # Nothing in flight: we are only waiting out a backoff.
                if self.ready:
                    time.sleep(min(_MAX_WAIT_SECONDS, max(0.0, self.ready[0][0] - now)))
                    continue
                raise RuntimeError("resilient map lost track of pending items")  # pragma: no cover
            self._await_events(busy)
        return self.results

    def _dispatch_ready(self, now: float) -> None:
        backend = self.backend
        idle = [worker for worker in backend._workers if not worker.busy]
        while idle and self.ready and self.ready[0][0] <= now:
            _, seq = heapq.heappop(self.ready)
            worker = idle.pop()
            payload = (self.fn, self.items[seq])
            try:
                worker.dispatch(seq, payload, backend.retry.timeout)
            except (OSError, ValueError, BrokenPipeError):
                # The worker died while idle; the item never started, so
                # re-queue it without charging an attempt.
                heapq.heappush(self.ready, (now, seq))
                backend._replace_worker(worker)
                return

    def _await_events(self, busy: list[_Worker]) -> None:
        timeout = self._wait_timeout(busy)
        handles = [worker.connection for worker in busy] + [worker.process.sentinel for worker in busy]
        signalled = set(mp_connection.wait(handles, timeout))
        now = time.monotonic()
        for worker in busy:
            if self.backend._degraded:
                return
            if worker.connection in signalled:
                self._receive(worker)
            elif worker.process.sentinel in signalled or not worker.process.is_alive():
                self._worker_lost(worker, "worker process died mid-task")
            elif worker.deadline is not None and now >= worker.deadline:
                timeout_s = self.backend.retry.timeout
                self._worker_lost(worker, f"task exceeded its {timeout_s}s deadline")

    def _wait_timeout(self, busy: list[_Worker]) -> float:
        now = time.monotonic()
        candidates = [_MAX_WAIT_SECONDS]
        candidates.extend(worker.deadline - now for worker in busy if worker.deadline is not None)
        if self.ready:
            candidates.append(self.ready[0][0] - now)
        return max(0.0, min(candidates))

    # ------------------------------------------------------- event handling

    def _receive(self, worker: _Worker) -> None:
        try:
            message = worker.connection.recv()
        except (EOFError, OSError):
            self._worker_lost(worker, "worker channel closed mid-task")
            return
        seq, ok, value = message
        worker.settle()
        if self.done[seq]:  # pragma: no cover - duplicate reply safety net
            return
        if ok:
            self._complete(seq, value)
        else:
            self._fail(seq, str(value))

    def _worker_lost(self, worker: _Worker, reason: str) -> None:
        seq = worker.seq
        self.backend._replace_worker(worker)
        if seq is not None and not self.done[seq]:
            self._fail(seq, reason)

    def _complete(self, seq: int, value: object) -> None:
        self.results[seq] = value
        self.done[seq] = True
        self.remaining -= 1

    def _fail(self, seq: int, error: str) -> None:
        backend = self.backend
        retry = backend.retry
        self.attempts[seq] += 1
        backend.stats.failures += 1
        if self.attempts[seq] >= retry.max_attempts:
            self._complete(seq, backend._exhausted(error, self.attempts[seq]))
            return
        backend.stats.retries += 1
        ready_at = time.monotonic() + retry.delay_for(self.attempts[seq])
        heapq.heappush(self.ready, (ready_at, seq))

    # ----------------------------------------------------------- degraded

    def _finish_serial(self) -> None:
        for seq in range(len(self.items)):
            if not self.done[seq]:
                self._complete(seq, self.backend._run_serial(self.fn, self.items[seq]))
