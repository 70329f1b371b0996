"""The evaluation daemon: a threaded JSON-over-TCP front of one warm Session.

``repro serve`` turns the whole evaluation stack — declarative RunSpecs,
digest-keyed ResultStore, warm never-recycled worker pools, the resilient
backend — into a long-running service.  The process model mirrors the
instamatic ``tem_server.py`` split the ROADMAP cites: *many* connection
handler threads parse frames and answer cheap verbs, but exactly **one
evaluation loop** drains the job queue onto one shared
:class:`~repro.api.session.Session`, so every client's work lands on the
same warm fabric and pays no cold-start.

Request flow for ``submit``::

    validate spec -> content digest
        digest in ResultStore?       -> answer immediately (never queued)
        digest already in flight?    -> attach to that job (one evaluation)
        queue below the bound?       -> journal + enqueue FIFO / round-robin
        otherwise                    -> queue_full + retry_after hint

Durability (PR 6's failure-semantics contract extended to the service):

* Every accepted job is recorded in a crash-safe
  :class:`~repro.serve.journal.JobJournal` beside the store *before* the
  submit response hits the wire.  A killed daemon restarted on the same
  store + journal replays the log, re-enqueues every lost queued/running
  job (content-addressed results make re-evaluation safe; digests already
  in the store short-circuit to done) and compacts the journal.
* The evaluation loop is **watchdogged**: each job runs on a supervised
  thread under a per-job deadline (spec ``task_timeout`` >
  ``--job-timeout`` > :data:`DEFAULT_JOB_TIMEOUT`).  A hung evaluation is
  quarantined and journaled, its thread abandoned, and the loop takes the
  next job instead of wedging the daemon.  (An abandoned thread may still
  hold the session; a genuinely hung evaluation is assumed wedged, not
  racing.)
* ``watch`` streams emit periodic keepalive frames
  (``heartbeat_seconds``), so a long-queued job never trips the client's
  socket timeout, and :meth:`ServeClient.wait` re-opens dropped streams.
* ``stop(drain=True)`` (``repro serve --drain`` + SIGTERM/SIGINT) leaves
  the queued jobs journaled instead of cancelling them: the persisted
  queue is exactly what the next daemon re-enqueues.

Results returned over the wire are byte-identical to a local
``Session.run`` of the same spec (volatile ``timing`` and
``provenance.resilience`` aside) because they *are* ``Session.run`` outputs
— the server adds nothing but transport.  See EXPERIMENTS.md ("Evaluation
service") for the verb and failure semantics and ARCHITECTURE.md for the
client -> journal -> queue -> fabric -> store diagram.
"""

from __future__ import annotations

import logging
import os
import socket
import threading
import time
from pathlib import Path
from typing import Optional, Union

from repro.api.registry import RegistryError
from repro.api.spec import RunSpec, SpecError
from repro.serve import jobs as jobstates
from repro.serve.journal import JOURNAL_FILE, JobJournal, JournalError
from repro.serve.jobs import Job, JobTable, QueueFullError
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    error_response,
    recv_frame,
    send_frame,
)
from repro.testing.chaos import ChaosError, chaos_hook

logger = logging.getLogger("repro.serve")

#: Default TCP port (unassigned by IANA; override with ``--port``).
DEFAULT_PORT = 9474

#: Default bound on queued jobs (see JobTable backpressure).
DEFAULT_QUEUE_LIMIT = 32

#: Default per-job watchdog deadline in seconds.  Deliberately generous —
#: it exists to unwedge a daemon whose evaluation hung *forever*, not to
#: police slow-but-live runs.  Spec ``task_timeout`` > ``--job-timeout`` >
#: this value; ``job_timeout=None`` disables the watchdog entirely.
DEFAULT_JOB_TIMEOUT = 3600.0

#: Seconds between keepalive frames on an otherwise idle ``watch`` stream.
#: Well inside the client's default 60s socket timeout.
HEARTBEAT_SECONDS = 15.0

#: Exit status of a clean shutdown or drain (``repro serve``).
EXIT_CLEAN = 0

#: Exit status when the watchdog had to abandon at least one hung
#: evaluation during the daemon's lifetime (``repro serve``).
EXIT_WATCHDOG = 3


class ReproServer:
    """Threaded evaluation daemon around one shared Session.

    ``session`` only needs the Session surface the server uses: ``.store``
    (may be ``None``) and ``.run(RunSpec) -> RunResult`` — tests substitute
    a controllable fake.  With ``owns_session`` (the default) the server
    closes the session — and thereby the warm worker pools — on ``stop``.

    ``journal`` is a :class:`JobJournal`, a path to one, or ``None`` (no
    durability; a crash loses the in-memory queue exactly as before PR 10).
    """

    def __init__(
        self,
        session,
        host: str = "127.0.0.1",
        port: int = 0,
        queue_limit: int = DEFAULT_QUEUE_LIMIT,
        owns_session: bool = True,
        journal: Optional[Union[JobJournal, str, Path]] = None,
        job_timeout: Optional[float] = DEFAULT_JOB_TIMEOUT,
        heartbeat_seconds: float = HEARTBEAT_SECONDS,
        drain_on_stop: bool = False,
    ) -> None:
        self._session = session
        self._owns_session = owns_session
        self.host = host
        self.table = JobTable(queue_limit=queue_limit)
        if journal is not None and not isinstance(journal, JobJournal):
            journal = JobJournal(journal)
        self.journal = journal
        self.job_timeout = job_timeout
        self.heartbeat_seconds = float(heartbeat_seconds)
        self.drain_on_stop = drain_on_stop
        self.store_hits = 0
        self.watchdog_fired = 0
        self.restored_jobs = 0
        self.started_at = time.monotonic()
        self._drained = False
        self._started = False
        self._stopping = threading.Event()
        self._stopped = threading.Event()
        self._lock = threading.Lock()
        self._threads: list[threading.Thread] = []
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(64)
        self._listener.settimeout(0.2)
        self.port = self._listener.getsockname()[1]

    # -------------------------------------------------------------- lifecycle

    def start(self) -> None:
        """Replay the journal, then spawn the accept and evaluation threads.

        Idempotent: the CLI starts the server before printing its replay
        summary, then :meth:`serve_forever` calls through here again.
        """
        if self._started:
            return
        self._started = True
        self._replay_journal()
        for name, target in (("serve-accept", self._accept_loop),
                             ("serve-eval", self._eval_loop)):
            thread = threading.Thread(target=target, name=name, daemon=True)
            thread.start()
            self._threads.append(thread)
        logger.info("repro serve: listening on %s:%d (pid %d)", self.host, self.port, os.getpid())

    def _replay_journal(self) -> None:
        """Re-enqueue every journaled job without a terminal record.

        Digests already in the store short-circuit to ``done`` (their result
        survived the crash); everything else — queued *or* running when the
        old daemon died — goes back to ``queued``.  Re-evaluation is safe:
        results are content-addressed, so a job that actually finished but
        missed its terminal record simply recomputes into the same digest.
        """
        if self.journal is None:
            return
        entries = self.journal.outstanding()  # may raise JournalError: loud > lossy
        store = getattr(self._session, "store", None)
        requeued = 0
        for entry in entries:
            if store is not None and store.get(entry.digest) is not None:
                self.journal.append_terminal(entry.digest, jobstates.DONE)
                continue
            self.table.restore(entry.spec, entry.digest, entry.client)
            requeued += 1
        self.restored_jobs = requeued
        self.journal.compact()
        if entries:
            logger.info(
                "repro serve: journal replay recovered %d job(s) "
                "(%d re-enqueued, %d already in the store)",
                len(entries), requeued, len(entries) - requeued,
            )

    def stop(self, drain: Optional[bool] = None) -> None:
        """Shut down: no new work, the running job finishes, pools close.

        ``drain=False`` cancels the queued jobs (journaling each
        cancellation).  ``drain=True`` leaves them journaled as outstanding
        — the persisted queue a restarted daemon replays.  ``None`` uses
        ``drain_on_stop`` (the CLI's ``--drain`` flag).
        """
        if self._stopping.is_set():
            return
        drain = self.drain_on_stop if drain is None else drain
        self._drained = drain
        self._stopping.set()
        if drain:
            queued = self.table.queued_jobs()
            if self.journal is not None:
                self.journal.compact()
            logger.info("repro serve: draining — %d queued job(s) persisted "
                        "for the next daemon", len(queued))
            return
        cancelled = self.table.cancel_all_queued()
        for job in cancelled:
            self._journal_terminal(job)
        if cancelled:
            logger.info("repro serve: cancelled %d queued job(s) on shutdown", len(cancelled))

    def join(self, timeout: Optional[float] = None) -> None:
        """Wait for the server threads to exit and release the session."""
        deadline = None if timeout is None else time.monotonic() + timeout
        for thread in self._threads:
            remaining = None if deadline is None else max(0.0, deadline - time.monotonic())
            thread.join(remaining)
        self._threads = [t for t in self._threads if t.is_alive()]
        if self._threads:
            return  # timed out; caller may retry
        if not self._stopped.is_set():
            self._stopped.set()
            self._listener.close()
            if self._owns_session:
                self._session.close()

    def serve_forever(self) -> int:
        """Run until :meth:`stop`; returns the process exit code
        (:data:`EXIT_CLEAN`, or :data:`EXIT_WATCHDOG` when a hung evaluation
        had to be abandoned).  The CLI propagates it; tests use
        start/stop/join directly."""
        self.start()
        try:
            while not self._stopping.is_set():
                time.sleep(0.2)
        except KeyboardInterrupt:
            # SIGINT takes the same drain-or-cancel path as SIGTERM.
            logger.info("repro serve: interrupted, shutting down")
            self.stop()
        finally:
            self.stop()
            self.join()
        return EXIT_WATCHDOG if self.watchdog_fired else EXIT_CLEAN

    def __enter__(self) -> "ReproServer":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
        self.join()

    # ------------------------------------------------------------ journaling

    def _journal_submit(self, job: Job) -> None:
        if self.journal is not None:
            self.journal.append_submit(job.digest, job.spec, job.client)

    def _journal_start(self, job: Job) -> None:
        if self.journal is not None:
            self.journal.append_start(job.digest)

    def _journal_terminal(self, job: Job) -> None:
        if self.journal is not None:
            self.journal.append_terminal(job.digest, job.state, error=job.error)

    # ---------------------------------------------------------------- accept

    def _accept_loop(self) -> None:
        while not self._stopping.is_set():
            try:
                connection, address = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            handler = threading.Thread(
                target=self._handle_connection,
                args=(connection, f"{address[0]}:{address[1]}"),
                name=f"serve-conn-{address[1]}",
                daemon=True,
            )
            handler.start()

    def _handle_connection(self, connection: socket.socket, peer: str) -> None:
        with connection:
            connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            while True:
                try:
                    request = recv_frame(connection)
                    # Chaos site "serve_conn": the drop kind severs this
                    # connection mid-conversation (client failover fodder).
                    chaos_hook("serve_conn")
                except (ProtocolError, OSError, ChaosError) as exc:
                    logger.debug("repro serve: dropping %s: %s", peer, exc)
                    return
                if request is None:
                    return
                try:
                    self._dispatch(connection, peer, request)
                except (ProtocolError, OSError) as exc:
                    logger.debug("repro serve: lost %s mid-response: %s", peer, exc)
                    return

    # -------------------------------------------------------------- dispatch

    def _dispatch(self, connection: socket.socket, peer: str, request: dict) -> None:
        verb = request.get("verb")
        handler = getattr(self, f"_verb_{verb}", None) if isinstance(verb, str) else None
        if handler is None:
            send_frame(connection, error_response("bad_frame", f"unknown verb {verb!r}"))
            return
        try:
            handler(connection, peer, request)
        except (ProtocolError, OSError):
            raise  # transport is gone; the connection loop drops the peer
        except Exception as exc:  # noqa: BLE001 - no request may kill a handler thread
            logger.warning("repro serve: %s sent a malformed %r request: %s", peer, verb, exc)
            send_frame(connection, error_response(
                "bad_frame", f"malformed {verb!r} request: {type(exc).__name__}: {exc}"))

    def _verb_ping(self, connection: socket.socket, peer: str, request: dict) -> None:
        from repro import package_version

        store = getattr(self._session, "store", None)
        send_frame(connection, {
            "ok": True,
            "server_version": package_version(),
            "protocol_version": PROTOCOL_VERSION,
            "pid": os.getpid(),
            "uptime_seconds": round(time.monotonic() - self.started_at, 3),
            "store_attached": store is not None,
            "store_results": len(store) if store is not None else None,
            "journal_attached": self.journal is not None,
        })

    def _verb_submit(self, connection: socket.socket, peer: str, request: dict) -> None:
        if self._stopping.is_set():
            send_frame(connection, error_response("shutting_down", "server is shutting down"))
            return
        payload = request.get("spec")
        try:
            if not isinstance(payload, dict):
                raise SpecError(f"submit needs a 'spec' object, got {type(payload).__name__}")
            spec = RunSpec.from_json_dict(payload).validate()
        except (SpecError, RegistryError) as exc:
            send_frame(connection, error_response("invalid_spec", str(exc)))
            return
        digest = spec.digest
        client = str(request.get("client") or peer)
        # Duplicate of a finished run: answer straight from the store, the
        # job queue never sees it.
        store = getattr(self._session, "store", None)
        if store is not None:
            stored = store.get(digest)
            if stored is not None:
                with self._lock:
                    self.store_hits += 1
                send_frame(connection, {
                    "ok": True,
                    "job_id": None,
                    "digest": digest,
                    "state": jobstates.DONE,
                    "source": "store",
                    "result": stored.to_json_dict(),
                })
                return
        try:
            # The journal append runs under the table lock, before the job is
            # visible to the eval loop: an accepted job is durable *first*,
            # so a crash can never leave a start record without its submit.
            job, deduped = self.table.submit(
                spec.to_json_dict(), digest, client, on_accept=self._journal_submit)
        except QueueFullError as exc:
            send_frame(connection, error_response(
                "queue_full", str(exc), retry_after=exc.retry_after))
            return
        response: dict[str, object] = {
            "ok": True,
            "job_id": job.job_id,
            "digest": digest,
            "state": job.state,
            "source": "inflight" if deduped else "queue",
        }
        position = self.table.position(job)
        if position is not None:
            response["position"] = position
        send_frame(connection, response)

    def _verb_status(self, connection: socket.socket, peer: str, request: dict) -> None:
        job = self._lookup(connection, request)
        if job is None:
            return
        info = job.describe()
        position = self.table.position(job)
        if position is not None:
            info["position"] = position
        send_frame(connection, {"ok": True, **info})

    @staticmethod
    def _coerce_timeout(request: dict) -> Optional[float]:
        """The optional ``timeout`` field as a float; bad types answer
        ``bad_frame`` (via the dispatch guard) instead of killing the
        handler thread."""
        raw = request.get("timeout")
        if raw is None:
            return None
        if isinstance(raw, bool) or not isinstance(raw, (int, float)):
            raise ValueError(f"timeout must be a number, got {type(raw).__name__}")
        value = float(raw)
        if value < 0:
            raise ValueError(f"timeout must be non-negative, got {value}")
        return value

    def _verb_result(self, connection: socket.socket, peer: str, request: dict) -> None:
        timeout = self._coerce_timeout(request)
        job = self._lookup(connection, request)
        if job is None:
            return
        if timeout is not None:
            self.table.wait(job, timeout=timeout)
        send_frame(connection, self._result_frame(job))

    def _verb_watch(self, connection: socket.socket, peer: str, request: dict) -> None:
        """Stream one frame per observed state change until terminal.

        Heartbeat frames (``{"heartbeat": true, "final": false}``) are
        interleaved every ``heartbeat_seconds`` while nothing changes, so a
        job sitting deep in the queue never trips the client's socket
        timeout (the PR 9-era failure mode: change-only frames vs the
        client's 60s default).
        """
        self._coerce_timeout(request)  # reject bad-typed fields up front
        job = self._lookup(connection, request)
        if job is None:
            return
        state = None
        last_frame = time.monotonic()
        poll = min(0.5, max(0.05, self.heartbeat_seconds / 3.0))
        while True:
            if job.terminal:
                send_frame(connection, self._result_frame(job))
                return
            if state is not None and self._stopping.is_set():
                send_frame(connection, error_response(
                    "shutting_down", "server stopped while the job was pending",
                    job_id=job.job_id, state=job.state, drained=self._drained))
                return
            if job.state != state:
                state = job.state
                info = job.describe()
                position = self.table.position(job)
                if position is not None:
                    info["position"] = position
                send_frame(connection, {"ok": True, "final": False, **info})
                last_frame = time.monotonic()
            elif time.monotonic() - last_frame >= self.heartbeat_seconds:
                send_frame(connection, {
                    "ok": True, "final": False, "heartbeat": True,
                    "job_id": job.job_id, "state": job.state,
                })
                last_frame = time.monotonic()
            self.table.wait(job, timeout=poll, known_state=state)

    def _result_frame(self, job) -> dict:
        if job.state == jobstates.DONE:
            return {"ok": True, "final": True, "job_id": job.job_id,
                    "digest": job.digest, "state": job.state, "result": job.result}
        if job.terminal:
            code = {
                jobstates.FAILED: "job_failed",
                jobstates.QUARANTINED: "job_quarantined",
                jobstates.CANCELLED: "job_cancelled",
            }[job.state]
            return error_response(code, job.error or f"job is {job.state}",
                                  final=True, job_id=job.job_id, state=job.state)
        return {"ok": True, "final": False, "job_id": job.job_id, "state": job.state}

    def _verb_cancel(self, connection: socket.socket, peer: str, request: dict) -> None:
        job_id = request.get("job_id")
        job, cancelled = self.table.cancel(str(job_id))
        if job is None:
            send_frame(connection, error_response("unknown_job", f"no job {job_id!r}"))
            return
        if cancelled:
            self._journal_terminal(job)
        send_frame(connection, {
            "ok": True, "job_id": job.job_id, "state": job.state, "cancelled": cancelled,
        })

    def _verb_stats(self, connection: socket.socket, peer: str, request: dict) -> None:
        from repro import package_version

        stats = self.table.stats()
        stats["counters"]["store_hits"] = self.store_hits
        stats["counters"]["watchdog_fired"] = self.watchdog_fired
        store = getattr(self._session, "store", None)
        send_frame(connection, {
            "ok": True,
            "server_version": package_version(),
            "protocol_version": PROTOCOL_VERSION,
            "uptime_seconds": round(time.monotonic() - self.started_at, 3),
            "store_results": len(store) if store is not None else None,
            "journal_attached": self.journal is not None,
            **stats,
        })

    def _verb_shutdown(self, connection: socket.socket, peer: str, request: dict) -> None:
        drain = bool(request.get("drain", False))
        logger.info("repro serve: shutdown requested by %s (drain=%s)", peer, drain)
        # Stop before acknowledging: once the client holds the ack, the
        # evaluation loop must take no further queued job.
        self.stop(drain=drain)
        send_frame(connection, {"ok": True, "stopping": True, "drain": drain})

    def _lookup(self, connection: socket.socket, request: dict):
        job_id = request.get("job_id")
        job = self.table.get(str(job_id))
        if job is None:
            send_frame(connection, error_response("unknown_job", f"no job {job_id!r}"))
        return job

    # ------------------------------------------------------------- evaluation

    def _eval_loop(self) -> None:
        """The evaluation loop: queue -> watchdogged run on the shared Session."""
        while True:
            if self._stopping.is_set() and self._drained:
                return  # drain: leave the rest of the queue journaled
            job = self.table.next_job(timeout=0.2)
            if job is None:
                if self._stopping.is_set():
                    return
                continue
            self._journal_start(job)
            # Chaos site "serve_daemon": the exit kind is a kill -9 proxy —
            # the daemon dies with this job journaled as running.
            chaos_hook("serve_daemon")
            self._run_supervised(job)

    def _job_deadline(self, job: Job) -> Optional[float]:
        """Watchdog deadline: spec ``task_timeout`` > server ``job_timeout``."""
        raw = job.spec.get("task_timeout") if isinstance(job.spec, dict) else None
        if isinstance(raw, (int, float)) and not isinstance(raw, bool) and raw > 0:
            return float(raw)
        return self.job_timeout

    def _run_supervised(self, job: Job) -> None:
        """Run one job on a watchdogged thread; never wedges the eval loop.

        The evaluation itself happens on a disposable worker thread.  If it
        exceeds the per-job deadline the job is quarantined + journaled and
        the thread abandoned (daemonic, so it cannot block exit); the loop
        is then free to take the next job.  A finished-but-abandoned
        evaluation is harmless: its result (already in the content-addressed
        store, if any) is what a resubmission will be answered from.
        """
        outcome: dict[str, object] = {}
        finished = threading.Event()

        def evaluate() -> None:
            try:
                # Chaos site "serve_eval": the hang kind wedges exactly this
                # thread, proving the watchdog frees the loop.
                chaos_hook("serve_eval")
                spec = RunSpec.from_json_dict(job.spec)
                outcome["result"] = self._session.run(spec)
            except BaseException as exc:  # noqa: BLE001 - marshalled to the supervisor
                outcome["error"] = exc
            finally:
                finished.set()

        worker = threading.Thread(
            target=evaluate, name=f"serve-eval-{job.job_id}", daemon=True)
        worker.start()
        deadline = self._job_deadline(job)
        if not finished.wait(timeout=deadline):
            with self._lock:
                self.watchdog_fired += 1
            message = (f"watchdog: evaluation exceeded the {deadline:.1f}s deadline; "
                       f"the job was abandoned and quarantined")
            logger.warning("repro serve: job %s %s", job.job_id, message)
            self.table.fail(job, message, quarantined=True)
            self._journal_terminal(job)
            return
        error = outcome.get("error")
        if error is None:
            result = outcome["result"]
            self.table.finish(job, result.to_json_dict())
        else:
            logger.warning("repro serve: job %s failed: %s", job.job_id, error)
            self.table.fail(job, f"{type(error).__name__}: {error}")
        self._journal_terminal(job)


def serve(
    host: str = "127.0.0.1",
    port: int = DEFAULT_PORT,
    store: Optional[str] = None,
    jobs: Optional[int] = None,
    queue_limit: int = DEFAULT_QUEUE_LIMIT,
    retry=None,
    job_timeout: Optional[float] = DEFAULT_JOB_TIMEOUT,
    drain_on_stop: bool = False,
) -> ReproServer:
    """Build a ready-to-start server around a fresh shared Session.

    With a ``store`` the job journal lives beside it
    (``<store>/journal.jsonl``) and the daemon is crash-safe; without one
    there is nowhere durable to journal, so the queue is in-memory only.
    """
    from repro.api.session import Session

    session = Session(jobs=jobs, store=store, retry=retry)
    journal = JobJournal(Path(store) / JOURNAL_FILE) if store else None
    return ReproServer(
        session,
        host=host,
        port=port,
        queue_limit=queue_limit,
        journal=journal,
        job_timeout=job_timeout,
        drain_on_stop=drain_on_stop,
    )
