"""Evaluation service: the ``repro serve`` daemon and its client proxy.

The subsystem turns the local evaluation stack into a long-running service
(see EXPERIMENTS.md, "Evaluation service", and the flow diagram in
ARCHITECTURE.md):

:mod:`repro.serve.protocol`
    Length-prefixed JSON frames, verbs and error codes.
:mod:`repro.serve.jobs`
    Job states, the bounded queue, FIFO/per-client round-robin scheduling,
    in-flight deduplication.
:mod:`repro.serve.journal`
    :class:`JobJournal` — the crash-safe append-only job journal the daemon
    replays on startup so acknowledged work survives a ``kill -9``.
:mod:`repro.serve.server`
    :class:`ReproServer` — the threaded daemon with one watchdogged
    evaluation thread over one shared warm
    :class:`~repro.api.session.Session`.
:mod:`repro.serve.client`
    :class:`ServeClient` — the proxy mirroring ``Session.run`` so specs run
    unchanged against a remote host, with endpoint failover and resumable
    watch streams.
:mod:`repro.serve.loadtest`
    :func:`~repro.serve.loadtest.spawn_daemon` and the specs the serve
    smoke gates submit.
"""

from repro.serve.client import (
    RemoteError,
    RemoteRunError,
    ServeBusyError,
    ServeClient,
    wait_until_ready,
)
from repro.serve.jobs import JobTable, QueueFullError
from repro.serve.journal import JOURNAL_FILE, JobJournal, JournalError
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    parse_endpoint,
    parse_endpoints,
)
from repro.serve.server import (
    DEFAULT_PORT,
    DEFAULT_QUEUE_LIMIT,
    EXIT_CLEAN,
    EXIT_WATCHDOG,
    ReproServer,
    serve,
)

__all__ = [
    "DEFAULT_PORT",
    "DEFAULT_QUEUE_LIMIT",
    "EXIT_CLEAN",
    "EXIT_WATCHDOG",
    "JOURNAL_FILE",
    "JobJournal",
    "JobTable",
    "JournalError",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "QueueFullError",
    "RemoteError",
    "RemoteRunError",
    "ReproServer",
    "ServeBusyError",
    "ServeClient",
    "parse_endpoint",
    "parse_endpoints",
    "serve",
    "wait_until_ready",
]
