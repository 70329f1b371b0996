"""End-to-end benchmark of the three products: GA search, workload suite, serve.

Usage (from the repository root)::

    python3 perfbench/run.py --workload ga_search --seed 1 --seconds 15 --trace 0

Each workload runs in fresh child processes with every path-selecting
``REPRO_*`` variable removed, so the registry's default kernel backend is
what gets measured.  ``--trace 0`` reports the end-to-end metrics of an
untraced run; ``--trace 1`` runs one round untraced as a reference and
then traced, and reports the per-layer split (see ``bench_tracing.py``).
Outside the timed region every run checks its results against the
interpreted oracle, and results of one spec from different processes
against each other.

The last line of standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
Run records, logs and traces go to ``.perfbench/`` in the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import bench_stats as bstats  # noqa: E402
import bench_tracing as tracing  # noqa: E402
import bench_workloads as wl  # noqa: E402

#: End-to-end metrics (``--trace 0``), with units.
END_TO_END = {
    "setup_s": "s",
    "cold_wall_s": "s",
    "warm_wall_s": "s",
    "sim_insns_per_s": "1/s",
    "peak_rss_mb": "MB",
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
}

#: Per-layer metrics (``--trace 1``) that do not come from spans.
_RESULT_LAYER_METRICS = (
    "setup.import_s", "parallel.fitness_hit_ratio", "parallel.retries", "parallel.quarantined",
    "serve.run_ms", "serve.overhead_ms", "serve.store_hit_ratio", "serve.dedup_hits",
    "serve.rejected", "trace.overhead_frac", "failed_frac",
)
_SPAN_LAYER_METRICS = tuple(
    [probe.metric for probe in tracing.PROBES]
    + [name for name in tracing.COUNT_METRICS if name != "memory.warm_lookups"]
    + ["memory.warm_hit_ratio"]
)
PER_LAYER = _SPAN_LAYER_METRICS + _RESULT_LAYER_METRICS

#: Local workloads take the median of at least this many set-ups (probe
#: processes make up for runs with fewer rounds).
SETUP_SAMPLES = 5

#: Every child must finish inside this many seconds of the run's start.
DEADLINE_S = 170.0

SOURCE = ROOT / "src" / "repro" / "__init__.py"


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    return "count"


class ChildFailed(RuntimeError):
    pass


class Runner:
    """Spawns the child processes of one run under a pinned environment."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.started = time.monotonic()
        tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        self.out = ROOT / ".perfbench"
        self.work = self.out / "work" / f"{tag}-{os.getpid()}"
        self.trace_dir = self.out / "traces" / tag
        self.record_path = self.out / "records" / f"{tag}.json"
        tmp = self.work / "tmp"
        tmp.mkdir(parents=True, exist_ok=True)
        pythonpath = os.pathsep.join([str(ROOT / "src"), str(HERE)])
        self.env = bstats.pinned_environment(os.environ, pythonpath, str(tmp))
        self._children = 0

    def child(self, mode: str, trace: bool = False, round_index: int = 0) -> dict:
        self._children += 1
        name = f"{mode}-{self._children}"
        out = self.work / f"{name}.json"
        command = [
            sys.executable, str(HERE / "child.py"), mode,
            "--workload", self.args.workload, "--seed", str(self.args.seed),
            "--work", str(self.work / name), "--out", str(out), "--round", str(round_index),
        ]
        if trace:
            command += ["--trace-dir", str(self.trace_dir)]
        remaining = DEADLINE_S - (time.monotonic() - self.started)
        with open(self.work / f"{name}.log", "w") as log:
            # Own process group, so a child that overruns is killed together
            # with the daemons and pool workers it started.
            process = subprocess.Popen(
                command + ["--spawned", repr(time.monotonic())],
                stdout=log, stderr=subprocess.STDOUT, env=self.env, cwd=ROOT,
                start_new_session=True,
            )
            try:
                code = process.wait(timeout=max(1.0, remaining))
            except subprocess.TimeoutExpired:
                os.killpg(process.pid, signal.SIGKILL)
                process.wait()
                raise ChildFailed(f"{name} exceeded the run deadline")
        if code != 0 or not out.exists():
            tail = (self.work / f"{name}.log").read_text()[-3000:]
            raise ChildFailed(f"{name} exited with {code}:\n{tail}")
        return json.loads(out.read_text())

    def cleanup(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


# ---------------------------------------------------------------- metrics


def _latencies(requests: list, kinds=None) -> list[float]:
    return [r["latency_s"] for r in requests if r["ok"] and (kinds is None or r["kind"] in kinds)]


def end_to_end(workload: str, rounds: list[dict], setups: list[float]) -> dict[str, float]:
    """End-to-end metrics; timings are medians over rounds, specs or requests."""
    requests = [r for run in rounds for r in run["requests"]]
    colds, warms = _latencies(requests, {"cold"}), _latencies(requests, {"warm"})
    if workload == "serve_mixed":
        run = rounds[0]
        served = _latencies([r for r in requests if r["kind"].startswith("loop-")])
        throughput = len(served) / run["loop_s"]
        insns_per_s = sum(r["insns"] for r in requests) / run["run_phase_s"]
    else:
        served = _latencies(requests)
        throughput = bstats.median([len(_latencies(run["requests"])) / run["run_phase_s"] for run in rounds])
        insns_per_s = bstats.median([r["insns"] / r["latency_s"] for r in requests if r["ok"]])
    if not (colds and warms and served):
        raise ChildFailed("no successful cold/warm requests to time")
    return {
        "setup_s": bstats.median(setups),
        "cold_wall_s": bstats.median(colds),
        "warm_wall_s": bstats.median(warms),
        "sim_insns_per_s": insns_per_s,
        "peak_rss_mb": max(run["peak_rss_mb"] for run in rounds),
        "throughput_rps": throughput,
        "latency_p50_ms": bstats.percentile(served, 0.5) * 1000.0,
        "latency_p90_ms": bstats.percentile(served, 0.9) * 1000.0,
    }


def _timed_total(run: dict) -> float:
    return sum(r["latency_s"] for r in run["requests"] if r["kind"] in ("cold", "warm"))


def result_layers(run: dict, probes: list[dict], reference: dict, failed_frac: float) -> dict[str, float]:
    """Per-layer values read from results, the stats verb and the reference run.

    The tracing overhead compares the cold and warm requests of the traced
    run with the same requests of the untraced reference run.
    """
    requests = run["requests"]
    lookups = sum(r["cache_lookups"] for r in requests)
    loop = [r for r in requests if r["kind"].startswith("loop-") and r["ok"]]
    fresh = [r["run_s"] for r in loop if not r["store_hit"]]
    counters = (run.get("serve_stats") or {}).get("counters", {})
    answered = counters.get("store_hits", 0) + counters.get("submitted", 0)
    return {
        "setup.import_s": bstats.median([p["import_s"] for p in probes]),
        "parallel.fitness_hit_ratio": sum(r["cache_hits"] for r in requests) / lookups if lookups else 0.0,
        "parallel.retries": float(sum(r["retries"] for r in requests)),
        "parallel.quarantined": float(sum(r["quarantined"] for r in requests)),
        "serve.run_ms": bstats.median(fresh) * 1000.0 if fresh else 0.0,
        "serve.overhead_ms": bstats.median([r["latency_s"] - r["run_s"] for r in loop]) * 1000.0 if loop else 0.0,
        "serve.store_hit_ratio": counters.get("store_hits", 0) / answered if answered else 0.0,
        "serve.dedup_hits": float(counters.get("dedup_hits", 0)),
        "serve.rejected": float(counters.get("rejected", 0)),
        "trace.overhead_frac": _timed_total(run) / _timed_total(reference) - 1.0,
        "failed_frac": failed_frac,
    }


def same_seed_check(runs: list[dict]) -> list[dict]:
    """Every process that ran the (same) cold spec must give the same digest."""
    digests = [run["cold_digest"] for run in runs if "cold_digest" in run]
    if len(digests) < 2:
        return []
    return [{"what": f"same-seed digest of the cold spec across {len(digests)} processes",
             "ok": len(set(digests)) == 1, "detail": ""}]


def tally(rounds: list[dict], checks: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems): failed requests, missing ones, failed checks."""
    requests = [r for run in rounds for r in run["requests"]]
    attempted = sum(run["expected_requests"] for run in rounds)
    missing = max(0, attempted - len(requests))
    problems = [f"request {r['name']} failed: {r['error'] or 'quarantined'}" for r in requests if not r["ok"]]
    problems += [f"{missing} request(s) never completed"] if missing else []
    problems += [f"check failed: {c['what']} {c['detail']}".rstrip() for c in checks if not c["ok"]]
    if not checks:
        problems.append("no correctness checks ran")
    unpinned = sorted({name for run in rounds for name in run["stamp"]["unpinned"]})
    if unpinned:
        problems.append(f"unpinned environment: {unpinned}")
    failed = sum(1 for r in requests if not r["ok"]) + missing + sum(1 for c in checks if not c["ok"])
    return attempted, min(failed, attempted), problems


# ------------------------------------------------------------------- main


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure(args: argparse.Namespace, runner: Runner) -> dict:
    workload = wl.WORKLOADS[args.workload]
    local = workload.spec is not None
    reference = None
    if args.trace:
        # An untraced reference round, then the same round traced.
        probes = [runner.child("probe") for _ in range(2)]
        shutil.rmtree(runner.trace_dir, ignore_errors=True)
        reference = runner.child("reference")
        rounds = [runner.child("run", trace=True)]
    elif local:
        count = workload.rounds(args.seconds)
        probes = [runner.child("probe") for _ in range(max(0, SETUP_SAMPLES - count))]
        rounds = [runner.child("run", round_index=index) for index in range(count)]
    else:
        probes, rounds = [], [runner.child("run")]
    setups = [p["setup_s"] for p in probes] + [s for run in rounds for s in _setups(run)]
    checks = [c for run in rounds for c in run.get("checks", [])]
    checks += same_seed_check(rounds + ([reference] if reference else []))
    attempted, failed, problems = tally(rounds, checks)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "stamp": rounds[0]["stamp"], "setup_samples_s": setups,
        "requests": [r for run in rounds for r in run["requests"]],
        "checks": checks, "problems": problems,
    }
    if args.trace:
        table = tracing.layer_table(tracing.load_spans(runner.trace_dir))
        probe_report = json.loads((runner.trace_dir / tracing.PROBES_FILE).read_text())
        values = tracing.layer_metrics(table, probe_report["absent"])
        values.update(result_layers(rounds[0], probes, reference, failed / attempted))
        record["absent"] = probe_report["absent"]
        record["layers"] = {
            name: {"inclusive_s": row.inclusive_s, "self_s": row.self_s, "calls": row.calls}
            for name, row in table.rows.items()
        }
        names = PER_LAYER
    else:
        values = end_to_end(args.workload, rounds, setups)
        names = tuple(END_TO_END)
    record["metrics"] = {name: values[name] for name in names}
    record["result"] = {
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit_of(name)} for name in names},
    }
    return record


def _setups(run: dict) -> list[float]:
    return run.get("setup_samples_s") or [run["setup_s"]]


def report(record: dict) -> None:
    """Human-readable lines ahead of the result line."""
    stamp = record["stamp"]
    print(f"perfbench {record['workload']} seed={record['seed']} seconds={record['seconds']} "
          f"trace={record['trace']}: python {stamp['python']}, numpy {stamp['numpy']}, "
          f"nproc {stamp['nproc']}, default kernel backend {stamp['kernel_backend']}")
    requests = record["requests"]
    served = [r for r in requests if r["ok"]]
    resolved = bstats.percentile_resolved(len(served), 0.9)
    print(f"requests: {len(requests)} ({len(served)} ok); latency samples {len(served)}, "
          f"p90 has {bstats.samples_beyond(len(served), 0.9)} beyond "
          f"({'resolved' if resolved else 'unresolved: fewer than 10 beyond'})")
    checks = record["checks"]
    print(f"checks: {sum(c['ok'] for c in checks)}/{len(checks)} passed")
    for problem in record["problems"]:
        print(f"PROBLEM: {problem}")
    if record["trace"]:
        print(f"{'layer':28} {'inclusive_s':>12} {'self_s':>10} {'calls':>7}")
        for name, row in sorted(record["layers"].items()):
            print(f"{name:28} {row['inclusive_s']:12.4f} {row['self_s']:10.4f} {row['calls']:7d}")
        print(f"absent: {', '.join(record['absent']) or 'none'}")
    for name, value in record["metrics"].items():
        print(f"  {name} = {value:.6g} {unit_of(name)}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not SOURCE.is_file():
        print(f"perfbench: {SOURCE.relative_to(ROOT)} not found; run from a repository checkout",
              file=sys.stderr)
        return 2
    runner = Runner(args)
    try:
        record = measure(args, runner)
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        runner.cleanup()
    runner.record_path.parent.mkdir(parents=True, exist_ok=True)
    runner.record_path.write_text(json.dumps(record, indent=1))
    report(record)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
