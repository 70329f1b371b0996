"""Start ``repro serve`` with the layer probes installed (traced runs only).

Usage: ``PERFBENCH_TRACE_DIR=DIR python perfbench/launcher.py serve ARGS...``

The probes are the same wrappers a traced local run installs; the CLI
entry point then runs unchanged.  Spans of the daemon and of every forked
pool worker are written to ``DIR`` when each process exits.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))

import bench_tracing as tracing  # noqa: E402


def main() -> int:
    tracer = tracing.Tracer(Path(os.environ["PERFBENCH_TRACE_DIR"]))
    tracing.install(tracer)
    from repro.cli import main as cli_main

    try:
        return cli_main(sys.argv[1:])
    finally:
        tracer.dump()


if __name__ == "__main__":
    sys.exit(main())
