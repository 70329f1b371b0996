"""Command-line interface: regenerate the paper's experiments from a shell.

Usage (after ``pip install -e .``)::

    repro list                           # experiments + registered components
    repro table1                         # print Table I
    repro figure4 --scale quick          # stressmark vs MiBench
    repro figure5 --scale default        # GA knobs + convergence
    repro table3                         # worst-case estimation comparison
    repro stressmark --fault-rates rhc   # just generate one stressmark
    repro figure6 --jobs 4               # fan simulations out over 4 workers
    repro run examples/specs/stressmark_rhc.json --jobs 2   # declarative run
    repro sweep examples/specs/sweep_fault_rates.json --out result.json
    repro bench                          # record perf baselines (PERFORMANCE.md)
    repro sweep sweep.json --store results/          # persist + resume runs
    repro sweep sweep.json --store shard1/ --shard 1/3   # one shard of three
    repro merge results/ shard1/ shard2/ shard3/     # join shard stores
    repro fsck results/                              # audit a store directory
    repro fsck results/ --repair                     # also fix salvageable damage
    repro serve --store results/ --jobs 4            # evaluation daemon
    repro run spec.json --remote HOST:9474           # run against a daemon
    repro --version                                  # package version

Every experiment routes through the declarative run API
(:mod:`repro.api`): a figure/table command executes its canned
:class:`~repro.api.spec.RunSpec` via a :class:`~repro.api.session.Session`,
and ``repro run`` / ``repro sweep`` execute any spec JSON file — the
``--config`` / ``--fault-rates`` / ``--scale`` choices below are read from
the component registries, so registering a new component automatically
extends the CLI.

``--jobs N`` (or the ``REPRO_JOBS`` environment variable) runs the
independent workload simulations and GA fitness evaluations on N worker
processes; results are identical for any worker count.

``--store DIR`` attaches a persistent result store (see EXPERIMENTS.md):
finished results are served from the store instead of re-simulated — an
interrupted sweep resumes from its last finished run, figure/table commands
replay from a populated store, and ``--resume`` additionally continues an
interrupted GA search from its per-generation checkpoint.

``--retries N`` / ``--task-timeout S`` tune the fault-tolerant worker pool
every ``--jobs > 1`` run uses: each simulation/GA evaluation gets up to N
attempts (with capped exponential backoff) and S seconds per attempt before
its worker is declared hung and replaced.  They win over a spec's
``retries`` / ``task_timeout``; unset everywhere, a run gets 3 attempts and
no deadline.

``repro serve`` starts the evaluation daemon (one warm shared fabric, many
clients — see EXPERIMENTS.md, "Evaluation service"); ``repro run SPEC
--remote HOST:PORT`` executes a spec against it with byte-identical results.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, Iterable

from repro.api import (
    CONFIGS,
    FAULT_RATES,
    SCALES,
    RunSpec,
    Session,
    SpecError,
    registries,
)
from repro.api.registry import RegistryError
from repro.store import CheckpointError, StoreError
from repro.avf.analysis import StructureGroup, instantaneous_worst_case_bound
from repro.experiments.figures import figure3, figure4, figure5, figure6, figure7, figure8, figure9
from repro.experiments.tables import table1, table2, table3


def _print_rows(title: str, rows: Iterable[dict]) -> None:
    rows = list(rows)
    print(f"\n=== {title} ===")
    if not rows:
        print("(no rows)")
        return
    keys = list(rows[0].keys())
    print("  ".join(f"{key:>16s}" for key in keys))
    for row in rows:
        cells = []
        for key in keys:
            value = row.get(key, "")
            cells.append(f"{value:>16.4f}" if isinstance(value, float) else f"{str(value):>16s}")
        print("  ".join(cells))


def _cmd_table1(session: Session, args: argparse.Namespace) -> None:
    _print_rows("Table I: baseline configuration",
                [{"parameter": k, "value": v} for k, v in table1().items()])


def _cmd_table2(session: Session, args: argparse.Namespace) -> None:
    _print_rows("Table II: Configuration A",
                [{"parameter": k, "value": v} for k, v in table2().items()])


def _cmd_table3(session: Session, args: argparse.Namespace) -> None:
    result = table3(session=session)
    _print_rows(
        "Table III: worst-case core SER estimation (units/bit)",
        [
            {
                "configuration": row.configuration,
                "stressmark": row.stressmark_ser,
                "best_program": row.best_program_name,
                "best_program_ser": row.best_program_ser,
                "sum_highest": row.sum_of_highest_per_structure_ser,
                "raw_circuit": row.raw_circuit_ser,
            }
            for row in result.rows.values()
        ],
    )


def _cmd_comparison_figure(figure_fn: Callable, title: str):
    def command(session: Session, args: argparse.Namespace) -> None:
        result = figure_fn(session=session)
        _print_rows(title, [row.as_dict() for row in result.rows])
        for group in (StructureGroup.QS, StructureGroup.QS_RF, StructureGroup.DL1_DTLB, StructureGroup.L2):
            print(f"margin over best workload [{group.value}]: {result.stressmark_margin(group):.2f}x")
    return command


def _cmd_figure5(session: Session, args: argparse.Namespace) -> None:
    result = figure5(session=session)
    _print_rows("Figure 5a: knob settings",
                [{"knob": k, "value": v} for k, v in result.knob_table.items()])
    _print_rows(
        "Figure 5b: fitness per generation",
        [
            {"generation": i, "average": avg, "best": best}
            for i, (avg, best) in enumerate(
                zip(result.average_fitness_per_generation, result.best_fitness_per_generation)
            )
        ],
    )


def _cmd_figure6(session: Session, args: argparse.Namespace) -> None:
    results = figure6(session=session)
    for suite, suite_result in results.items():
        _print_rows(
            f"Figure 6: per-structure AVF ({suite.value})",
            [
                {"program": name, **{s.value: value for s, value in row.items()}}
                for name, row in suite_result.rows.items()
            ],
        )


def _cmd_figure7(session: Session, args: argparse.Namespace) -> None:
    results = figure7(session=session)
    for label, comparison in results.items():
        _print_rows(f"Figure 7 ({label.upper()}): SER", [row.as_dict() for row in comparison.rows])


def _cmd_figure8(session: Session, args: argparse.Namespace) -> None:
    result = figure8(session=session)
    _print_rows("Figure 8a: fault rates",
                [{"scenario": s, **rates} for s, rates in result.fault_rate_table.items()])
    _print_rows("Figure 8b: stressmark queueing AVF",
                [{"scenario": s, **{k.value: v for k, v in avf.items()}}
                 for s, avf in result.queueing_avf.items()])
    for scenario, knobs in result.knob_tables.items():
        _print_rows(f"Knob settings ({scenario})", [{"knob": k, "value": v} for k, v in knobs.items()])


def _cmd_figure9(session: Session, args: argparse.Namespace) -> None:
    result = figure9(session=session)
    _print_rows(
        "Figure 9a: stressmark SER per group",
        [{"config": name, **{g.value: v for g, v in groups.items()}}
         for name, groups in result.group_ser.items()],
    )
    for name, knobs in result.knob_tables.items():
        _print_rows(f"Figure 9b: knobs ({name})", [{"knob": k, "value": v} for k, v in knobs.items()])


def _cmd_bound(session: Session, args: argparse.Namespace) -> None:
    _print_rows(
        "Instantaneous worst-case queue SER bound (Section VI)",
        [
            {"config": name, "bound": instantaneous_worst_case_bound(CONFIGS.create(name))}
            for name in CONFIGS.names()
        ],
    )


def _cmd_bench(session: Session, args: argparse.Namespace) -> None:
    from repro.experiments.bench import run_benchmarks

    metrics = run_benchmarks(jobs=args.jobs)
    pipeline = metrics["pipeline"]
    ledger = metrics["ledger"]
    ga = metrics["ga"]
    parallel = metrics["parallel"]
    _print_rows(
        "Benchmark: single detailed simulation (BENCH_pipeline.json)",
        [{
            "instructions": pipeline["instructions"],
            "seconds": pipeline["seconds"],
            "insn_per_sec": pipeline["instructions_per_second"],
            "ipc": pipeline["ipc"],
            "vector_seconds": pipeline["vector_seconds"],
            "vector_speedup": pipeline["vector_speedup"],
            "identical": str(pipeline["vector_identical"]),
        }],
    )
    _print_rows(
        "Benchmark: vulnerability-ledger events (BENCH_pipeline.json)",
        [{
            "events": ledger["events"],
            "seconds": ledger["seconds"],
            "events_per_sec": ledger["events_per_second"],
            "credit_seconds": ledger["credit_seconds"],
        }],
    )
    _print_rows(
        "Benchmark: GA generation + parallel speedup (BENCH_ga.json)",
        [{
            "ga_seconds": ga["seconds"],
            "evaluations": ga["evaluations"],
            "cache_hits": ga["cache_hits"],
            "par_jobs": parallel["jobs"],
            "cores": parallel["cores"],
            "warmup_s": parallel["warmup_seconds"],
            "steady_s": parallel["steady_seconds"],
            "steady_speedup": parallel["speedup"],
            "deterministic": str(parallel["deterministic"]),
        }],
    )
    kernel_vector = metrics["kernel_vector"]
    _print_rows(
        "Benchmark: vector kernel plane vs per-genome interpreter (BENCH_ga.json)",
        [{
            "batch": kernel_vector["batch"],
            "vector_ms_per_genome": kernel_vector["vector_ms_per_genome"],
            "interp_ms_per_genome": kernel_vector["interpreted_ms_per_genome"],
            "vector_speedup": kernel_vector["speedup"],
            "deterministic": str(kernel_vector["deterministic"]),
        }],
    )


def _cmd_stressmark(session: Session, args: argparse.Namespace) -> None:
    spec = RunSpec(kind="stressmark", config=args.config, fault_rates=args.fault_rates)
    result = session.stressmark_result(spec)
    _print_rows("Stressmark knob settings", [{"knob": k, "value": v} for k, v in result.knob_table().items()])
    _print_rows(
        "Stressmark SER (units/bit)",
        [{"group": group.value, "ser": result.report.ser(group)} for group in StructureGroup],
    )


COMMANDS: dict[str, Callable[[Session, argparse.Namespace], None]] = {
    "table1": _cmd_table1,
    "table2": _cmd_table2,
    "table3": _cmd_table3,
    "figure3": _cmd_comparison_figure(figure3, "Figure 3: stressmark vs SPEC CPU2006"),
    "figure4": _cmd_comparison_figure(figure4, "Figure 4: stressmark vs MiBench"),
    "figure5": _cmd_figure5,
    "figure6": _cmd_figure6,
    "figure7": _cmd_figure7,
    "figure8": _cmd_figure8,
    "figure9": _cmd_figure9,
    "bound": _cmd_bound,
    "stressmark": _cmd_stressmark,
    "bench": _cmd_bench,
}

#: Spec-file commands handled outside the legacy experiment table.
SPEC_COMMANDS = ("run", "sweep")


def build_parser() -> argparse.ArgumentParser:
    from repro import package_version
    from repro.serve.server import DEFAULT_PORT, DEFAULT_QUEUE_LIMIT

    parser = argparse.ArgumentParser(prog="repro", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version",
                        version=f"repro {package_version()}")
    parser.add_argument("experiment",
                        choices=sorted(COMMANDS) + ["list", "run", "sweep", "merge", "fsck",
                                                    "serve"],
                        help="experiment to regenerate, 'list', 'run'/'sweep' a spec "
                             "file, 'merge' shard stores, 'fsck' a store directory, "
                             "or 'serve' the evaluation daemon")
    parser.add_argument("spec", nargs="?", default=None, metavar="SPEC.json",
                        help="RunSpec JSON file (run/sweep), or the destination "
                             "store (merge), or the store to audit (fsck)")
    parser.add_argument("extra", nargs="*", default=[], metavar="STORE",
                        help="source stores to join (merge command only)")
    parser.add_argument("--scale", choices=SCALES.names(), default="quick",
                        help="simulation / GA effort (see EXPERIMENTS.md); "
                             "for run/sweep the spec's scale wins")
    parser.add_argument("--config", choices=CONFIGS.names(), default="baseline",
                        help="machine configuration (stressmark command only)")
    parser.add_argument("--fault-rates", choices=FAULT_RATES.names(), default="unit",
                        help="circuit-level fault-rate model (stressmark command only)")
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="worker processes for simulations/GA evaluations "
                             "(default: $REPRO_JOBS, then 1; results are "
                             "identical for any worker count)")
    parser.add_argument("--out", default=None, metavar="RESULT.json",
                        help="write the RunResult JSON here (run/sweep commands only)")
    parser.add_argument("--store", default=None, metavar="DIR",
                        help="persistent result store: completed results are served "
                             "from here instead of re-simulated, fresh results are "
                             "recorded (see EXPERIMENTS.md)")
    parser.add_argument("--resume", action="store_true",
                        help="resume interrupted GA searches from their per-generation "
                             "checkpoints in --store (bit-identical to an "
                             "uninterrupted run)")
    parser.add_argument("--shard", default=None, metavar="I/N",
                        help="run only the I-th of N round-robin shards of a sweep "
                             "(1-based; sweep command only, requires --store)")
    parser.add_argument("--retries", type=int, default=None, metavar="N",
                        help="attempts per simulation/GA evaluation before the item "
                             "is quarantined (worker pool, --jobs > 1; wins over "
                             "a spec's retries; default: 3)")
    parser.add_argument("--task-timeout", type=float, default=None, metavar="SECONDS",
                        help="per-attempt deadline before a worker is declared hung "
                             "and replaced (worker pool, --jobs > 1; wins over "
                             "a spec's task_timeout; default: unlimited)")
    parser.add_argument("--repair", action="store_true",
                        help="fsck command only: repair salvageable damage in place "
                             "(truncate torn JSONL tails, drop unloadable checkpoints, "
                             "remove temp-file debris)")
    parser.add_argument("--remote", default=None, metavar="HOST:PORT[,HOST:PORT...]",
                        help="run/sweep: execute against a live 'repro serve' "
                             "daemon instead of this process (results are "
                             "byte-identical to a local run); a comma-separated "
                             "list enables client-side failover in endpoint order")
    parser.add_argument("--host", default="127.0.0.1", metavar="ADDR",
                        help="serve command only: interface to listen on "
                             "(default: 127.0.0.1; never expose the daemon to "
                             "untrusted networks)")
    parser.add_argument("--port", type=int, default=None, metavar="N",
                        help=f"serve command only: TCP port (default: {DEFAULT_PORT}; "
                             f"0 picks an ephemeral port, printed at startup)")
    parser.add_argument("--queue-limit", type=int, default=None, metavar="N",
                        help=f"serve command only: bound on queued jobs before "
                             f"submits are rejected with retry_after "
                             f"(default: {DEFAULT_QUEUE_LIMIT})")
    parser.add_argument("--job-timeout", type=float, default=None, metavar="SECONDS",
                        help="serve command only: watchdog deadline per evaluation; "
                             "a job exceeding it is quarantined and its eval thread "
                             "abandoned (a spec's task_timeout wins; default: 3600)")
    parser.add_argument("--drain", action="store_true",
                        help="serve command only: on SIGTERM/SIGINT persist the "
                             "queued jobs to the job journal (next daemon on the "
                             "same --store replays them) instead of cancelling")
    return parser


def _cmd_list() -> None:
    print("available experiments:")
    for name in sorted(COMMANDS):
        print(f"  {name}")
    for name in SPEC_COMMANDS:
        print(f"  {name} <spec.json>")
    print("  merge <dest-store> <src-store>...")
    print("  fsck <store> [--repair]")
    print("  serve [--host --port --store --jobs --queue-limit --job-timeout --drain]")
    print("\nregistered components (usable in RunSpec files):")
    labels = {
        "config": "machine configs",
        "fault_rates": "fault-rate models",
        "suite": "workload suites",
        "fitness": "fitness objectives",
        "scale": "experiment scales",
        "structures": "tracked structures",
    }
    for key, registry in registries().items():
        print(f"  {labels.get(key, key):<20s} {', '.join(registry.names())}")
    _print_structures()


def _print_structures() -> None:
    """The STRUCTURES registry rendered with geometry and gating details."""
    from repro.uarch.config import baseline_config, extended_config
    from repro.vuln import STRUCTURES

    baseline = baseline_config()
    extended = extended_config()
    print("\ntracked vulnerable structures (STRUCTURES registry; geometry for "
          "the baseline, flag-gated entries from the 'extended' config):")
    header = f"  {'name':<10s} {'group':<10s} {'kind':<8s} {'entries':>8s} {'bits':>6s}  {'fault-rate key':<15s} gate"
    print(header)
    for name, descriptor in STRUCTURES.items():
        gate = descriptor.config_flag or "-"
        try:
            if descriptor.enabled(baseline):
                config = baseline
            else:
                config = extended
                gate += " (off at baseline)"
            entries = f"{descriptor.entries(config):>8d}"
            bits = f"{descriptor.bits_per_entry(config):>6d}"
        except AttributeError:
            # Plugin structures may key their geometry off config fields the
            # stock configs do not carry; the listing must not crash on them.
            entries, bits = f"{'?':>8s}", f"{'?':>6s}"
            gate += " (custom config)"
        print(
            f"  {name:<10s} {descriptor.group:<10s} {descriptor.kind:<8s} "
            f"{entries} {bits}  {descriptor.fault_rate_key:<15s} {gate}"
        )


def _print_result_rows(result) -> None:
    """Print a RunResult's rows (leaf results of a sweep individually)."""
    if result.children:
        for child in result.children:
            _print_result_rows(child)
        return
    _print_rows(f"{result.kind}: {result.spec.label}", result.rows)
    if result.knobs:
        _print_rows(f"knob settings: {result.spec.label}",
                    [{"knob": k, "value": v} for k, v in result.knobs.items()])


def _retry_from_args(parser: argparse.ArgumentParser, args: argparse.Namespace):
    """A pinned RetryPolicy from --retries/--task-timeout, or None."""
    if args.retries is None and args.task_timeout is None:
        return None
    from repro.parallel.resilience import RetryPolicy

    overrides: dict[str, object] = {}
    if args.retries is not None:
        overrides["max_attempts"] = args.retries
    if args.task_timeout is not None:
        overrides["timeout"] = args.task_timeout
    try:
        return RetryPolicy(**overrides)
    except ValueError as exc:
        parser.error(str(exc))


def _parse_shard(parser: argparse.ArgumentParser, value: str) -> tuple[int, int]:
    try:
        index_text, count_text = value.split("/", 1)
        index, count = int(index_text), int(count_text)
    except ValueError:
        parser.error(f"--shard expects I/N (e.g. 1/3), got {value!r}")
    if count < 1 or not 1 <= index <= count:
        parser.error(f"--shard must satisfy 1 <= I <= N, got {value!r}")
    return index, count


def _cmd_run_spec(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    if not args.spec:
        parser.error(f"'{args.experiment}' needs a spec file: repro {args.experiment} <spec.json>")
    if args.extra:
        parser.error(f"unexpected arguments: {' '.join(args.extra)}")
    try:
        spec = RunSpec.load(args.spec)
    except (SpecError, RegistryError) as exc:
        parser.error(str(exc))
    if args.experiment == "sweep" and spec.kind != "sweep":
        parser.error(f"'repro sweep' expects a sweep spec, {args.spec} has kind={spec.kind!r} "
                     f"(use 'repro run' for single runs)")
    if args.remote is not None:
        return _run_remote(parser, args, spec)
    shard = None
    if args.shard is not None:
        if args.experiment != "sweep":
            parser.error("--shard only applies to 'repro sweep'")
        if not args.store:
            parser.error("--shard needs --store so other shards can merge the results")
        shard = _parse_shard(parser, args.shard)
    if args.resume and not args.store:
        parser.error("--resume needs --store (checkpoints live in the store)")
    try:
        with Session(jobs=args.jobs, store=args.store, resume=args.resume,
                     retry=_retry_from_args(parser, args)) as session:
            if shard is not None:
                result = session.run_shard(spec, *shard)
            else:
                result = session.run(spec)
    except (ValueError, RegistryError, StoreError, CheckpointError) as exc:
        # ValueError also covers structurally-valid specs whose values are
        # rejected deeper down (e.g. a GA population too small to search).
        parser.error(str(exc))
    _print_result_rows(result)
    print(f"\nspec digest: {result.spec_digest}")
    if shard is not None:
        print(f"shard: {shard[0]}/{shard[1]} "
              f"({result.provenance.get('runs', 0)} of {result.provenance.get('total_runs', 0)} runs)")
    print(f"elapsed: {result.timing.get('seconds', 0.0):.2f}s")
    if args.store:
        print(f"results stored in {args.store}")
    if args.out:
        result.save(args.out)
        print(f"result written to {args.out}")
    return 0


def _run_remote(parser: argparse.ArgumentParser, args: argparse.Namespace, spec: RunSpec) -> int:
    """Execute a spec against a live daemon (``repro run SPEC --remote``)."""
    for flag in ("store", "shard", "resume"):
        if getattr(args, flag):
            parser.error(f"--{flag} is handled by the daemon; it cannot be combined "
                         f"with --remote (start 'repro serve --store ...' instead)")
    from repro.serve.client import RemoteError, ServeClient
    from repro.serve.protocol import ProtocolError

    try:
        with ServeClient(args.remote) as client:
            info = client.ping()
            result = client.run(spec)
    except (OSError, ProtocolError, RemoteError, ValueError) as exc:
        parser.error(f"remote run against {args.remote} failed: {exc}")
    _print_result_rows(result)
    print(f"\nspec digest: {result.spec_digest}")
    print(f"served by {args.remote} (repro {info.get('server_version')}, "
          f"protocol v{info.get('protocol_version')})")
    if args.out:
        result.save(args.out)
        print(f"result written to {args.out}")
    return 0


def _cmd_serve(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    """Run the evaluation daemon until interrupted or told to shut down."""
    if args.spec or args.extra:
        parser.error("'serve' takes no positional arguments")
    import signal

    from repro.serve.server import DEFAULT_PORT, DEFAULT_QUEUE_LIMIT, serve

    from repro.serve.server import DEFAULT_JOB_TIMEOUT, EXIT_WATCHDOG

    try:
        server = serve(
            host=args.host,
            port=args.port if args.port is not None else DEFAULT_PORT,
            store=args.store,
            jobs=args.jobs,
            queue_limit=args.queue_limit if args.queue_limit is not None else DEFAULT_QUEUE_LIMIT,
            retry=_retry_from_args(parser, args),
            job_timeout=args.job_timeout if args.job_timeout is not None else DEFAULT_JOB_TIMEOUT,
            drain_on_stop=args.drain,
        )
    except (OSError, ValueError, StoreError) as exc:
        parser.error(f"cannot start the daemon: {exc}")
    # SIGINT and SIGTERM take the same path: drain (persist the queue to the
    # journal) when --drain was given, cancel the queue otherwise.
    signal.signal(signal.SIGTERM, lambda *_: server.stop())
    signal.signal(signal.SIGINT, lambda *_: server.stop())
    # Start (journal replay included) before reporting, so restored_jobs is
    # populated; serve_forever's own start() is an idempotent no-op then.
    server.start()
    # The "listening on" line is the startup handshake load/smoke harnesses
    # parse for the ephemeral port — keep its shape stable.
    print(f"repro serve: listening on {server.host}:{server.port} "
          f"(pid {os.getpid()}, jobs={args.jobs or 'spec'}, "
          f"store={args.store or 'none'}, "
          f"drain={'on' if args.drain else 'off'})", flush=True)
    if server.restored_jobs:
        print(f"repro serve: replayed {server.restored_jobs} journaled job(s) "
              f"from {args.store}", flush=True)
    code = server.serve_forever()
    if code == EXIT_WATCHDOG:
        print("repro serve: stopped (watchdog abandoned at least one hung "
              "evaluation; exit code 3)", flush=True)
    else:
        print("repro serve: stopped", flush=True)
    return code


def _cmd_merge(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    destination = args.spec or args.store
    if not destination:
        parser.error("'merge' needs a destination: repro merge <dest-store> <src-store>...")
    if not args.extra:
        parser.error("'merge' needs at least one source store: "
                     "repro merge <dest-store> <src-store>...")
    from repro.store import merge_stores

    try:
        store, added = merge_stores(destination, args.extra)
    except StoreError as exc:
        parser.error(str(exc))
    print(f"merged {len(args.extra)} store(s) into {destination}: "
          f"{added} result(s) added, {len(store)} total")
    store.close()
    return 0


def _cmd_fsck(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    if not args.spec:
        parser.error("'fsck' needs a store directory: repro fsck <store> [--repair]")
    if args.extra:
        parser.error(f"unexpected arguments: {' '.join(args.extra)}")
    from repro.store import fsck_store

    report = fsck_store(args.spec, repair=args.repair)
    for finding in report.findings:
        print(finding.describe())
    print(report.summary())
    unrepaired = [f for f in report.findings if not f.repaired]
    if unrepaired and not args.repair and all(f.repairable for f in unrepaired):
        print("hint: rerun with --repair to fix the salvageable problems above")
    return 0 if not unrepaired else 1


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.experiment == "list":
        _cmd_list()
        return 0
    if args.experiment == "merge":
        return _cmd_merge(parser, args)
    if args.experiment == "fsck":
        return _cmd_fsck(parser, args)
    if args.experiment == "serve":
        return _cmd_serve(parser, args)
    if args.experiment in SPEC_COMMANDS:
        return _cmd_run_spec(parser, args)
    if args.spec or args.extra:
        stray = " ".join([args.spec, *args.extra]) if args.spec else " ".join(args.extra)
        parser.error(f"'{args.experiment}' takes no positional arguments (got: {stray})")
    if args.shard is not None:
        parser.error("--shard only applies to 'repro sweep'")
    if args.resume and not args.store:
        parser.error("--resume needs --store (checkpoints live in the store)")
    try:
        session = Session(scale=args.scale, jobs=args.jobs, store=args.store, resume=args.resume,
                          retry=_retry_from_args(parser, args))
    except (ValueError, RegistryError, StoreError) as exc:
        parser.error(str(exc))
    try:
        COMMANDS[args.experiment](session, args)
    finally:
        session.close()
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
