"""Daemon harness shared by the serve smoke gates and the examples.

:func:`spawn_daemon` starts ``repro serve`` in a subprocess on an ephemeral
port and returns it once it answers ``ping``; :func:`duplicate_spec` and
:func:`unique_spec` are the small simulate specs the gates submit: one
shared spec every client re-submits (store hits after its first
evaluation) and a stream of distinct specs rotating over five workload
proxies.  The service's throughput and latency are measured by the
repository's benchmark (``perfbench``, workload ``serve_mixed``).
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

from repro.serve.client import wait_until_ready

#: Workload proxies the unique-spec stream rotates over (cheap but real).
_UNIQUE_WORKLOADS = (
    "400.perlbench_proxy",
    "401.bzip2_proxy",
    "429.mcf_proxy",
    "458.sjeng_proxy",
    "462.libquantum_proxy",
)

_LISTENING = re.compile(r"listening on ([0-9.]+):(\d+)")


def duplicate_spec() -> dict:
    """The shared spec every client re-submits (the store-hit workload)."""
    return {
        "kind": "simulate",
        "name": "loadtest-duplicate",
        "workloads": ["403.gcc_proxy"],
        "scale": "quick",
        "scale_overrides": {"workload_instructions": 2000},
    }


def unique_spec(index: int) -> dict:
    """The ``index``-th unique spec (distinct digest, rotating workload)."""
    return {
        "kind": "simulate",
        "name": f"loadtest-unique-{index}",
        "workloads": [_UNIQUE_WORKLOADS[index % len(_UNIQUE_WORKLOADS)]],
        "scale": "quick",
        "scale_overrides": {"workload_instructions": 2000},
    }


def spawn_daemon(
    store: str,
    host: str = "127.0.0.1",
    jobs: Optional[int] = None,
    queue_limit: Optional[int] = None,
    extra_env: Optional[dict] = None,
    extra_args: Optional[list] = None,
) -> tuple[subprocess.Popen, str]:
    """Start ``repro serve`` on an ephemeral port; returns (process, endpoint).

    The endpoint is parsed from the daemon's "listening on HOST:PORT" line,
    so no port is hardwired and parallel harnesses never collide.
    ``extra_args`` are appended verbatim (``["--job-timeout", "2"]`` etc.).
    """
    command = [sys.executable, "-m", "repro", "serve",
               "--host", host, "--port", "0", "--store", store]
    if jobs is not None:
        command += ["--jobs", str(jobs)]
    if queue_limit is not None:
        command += ["--queue-limit", str(queue_limit)]
    command += [str(arg) for arg in (extra_args or [])]
    env = dict(os.environ)
    # Run from a source checkout without installation: put the package's
    # parent (src/) on the child's path.
    src_dir = str(Path(__file__).resolve().parent.parent.parent)
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    env.update(extra_env or {})
    process = subprocess.Popen(
        command, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, env=env,
    )
    # Any failure before the daemon is confirmed ready must reap the child:
    # a leaked daemon would hold the store lock and the port forever.
    try:
        deadline = time.monotonic() + 60.0
        assert process.stdout is not None
        while time.monotonic() < deadline:
            line = process.stdout.readline()
            if not line:
                raise RuntimeError(
                    f"repro serve exited before listening (rc={process.poll()})")
            match = _LISTENING.search(line)
            if match:
                endpoint = f"{match.group(1)}:{match.group(2)}"
                wait_until_ready(endpoint, timeout=30.0)
                return process, endpoint
        raise RuntimeError("repro serve never printed its listening address")
    except BaseException:
        process.kill()
        process.wait()
        raise
