"""One fresh process of a benchmark run (spawned by ``run.py``).

Modes:

``probe``  import ``repro``, open a Session and resolve the workload's
           first spec; report the set-up time from spawn and the import time.
``run``    the whole workload: set up, run every spec (or serve request)
           with timings, then check the results outside the timed region.
``reference``  set up and run the timed specs of the first round (local) or
           the first daemon's cold and warm requests (serve), without checks:
           the untraced reference for the tracing overhead.

The child writes one JSON document to ``--out``.  With ``--trace-dir`` it
installs the layer probes first and writes its spans there at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import bench_stats as bstats  # noqa: E402
import bench_workloads as wl  # noqa: E402

# ------------------------------------------------------------- recording


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _record(spec: dict, kind: str, latency: float, result=None, error: str = "",
            store_hit: bool = False) -> dict:
    """One request's outcome: timing, simulated work and failure state."""
    record = {
        "name": spec["name"], "kind": kind, "latency_s": latency, "ok": result is not None,
        "error": error, "store_hit": store_hit, "run_s": 0.0, "sims": 0, "insns": 0,
        "quarantined": 0, "retries": 0, "cache_hits": 0, "cache_lookups": 0,
    }
    if result is None:
        return record
    if not store_hit:
        record["run_s"] = float(result.timing.get("seconds", 0.0))
        ga = result.ga or {}
        sims = int(ga["evaluations"]) if result.kind == "stressmark" else len(result.rows)
        record["sims"] = sims
        record["insns"] = sims * wl.instruction_budget(spec)
        record["quarantined"] = int(ga.get("quarantined", 0))
        record["cache_hits"] = int(ga.get("cache_hits", 0))
        record["cache_lookups"] = int(ga.get("cache_hits", 0)) + int(ga.get("cache_misses", 0))
        resilience = result.provenance.get("resilience") or {}
        record["quarantined"] += int(resilience.get("quarantined", 0))
        record["retries"] = int(resilience.get("retries", 0))
    record["ok"] = record["quarantined"] == 0
    return record


def _timed(run, spec: dict, kind: str, store_hit: bool = False):
    start = time.perf_counter()
    try:
        result = run(spec)
    except Exception as exc:  # noqa: BLE001 - a failed request is counted, not fatal
        return None, _record(spec, kind, time.perf_counter() - start, error=f"{type(exc).__name__}: {exc}")
    return result, _record(spec, kind, time.perf_counter() - start, result, store_hit=store_hit)


# ----------------------------------------------------------------- checks


def _check(what: str, ok: bool, detail: str = "") -> dict:
    return {"what": what, "ok": bool(ok), "detail": detail}


def _accounts(result) -> dict:
    return {
        str(name): (account.ace_bit_cycles, account.occupied_entry_cycles)
        for name, account in result.accumulators.items()
    }


def check_stressmark(session, spec: dict) -> dict:
    """Re-simulate the search's best program through the interpreter.

    The report the GA built from the fast path must equal the oracle's at
    full precision: cycles, instructions, per-structure AVF and occupancy
    (ACE bit-cycles and occupied entry-cycles over fixed denominators),
    group SER and miss rates.
    """
    from repro.avf.report import build_report
    from repro.uarch.pipeline import OutOfOrderCore

    resolved = session.resolve(spec)
    best = session.stressmark_result(spec)
    core = OutOfOrderCore(resolved.config, seed=resolved.scale.simulation_seed)
    oracle = core.run_interpreted(best.program, resolved.scale.stressmark_instructions, True)
    ok = build_report(oracle, resolved.fault_rates) == best.report
    return _check(f"oracle best stressmark {spec['name']}", ok)


def check_proxies(session, spec: dict, rows: list, names) -> list:
    """Re-simulate proxies on the default backend and the interpreter.

    Both must agree exactly on stats and per-structure ACE bit-cycles, and
    the oracle's report row must equal the row the run returned.
    """
    from repro.avf.report import build_report
    from repro.uarch.pipeline import OutOfOrderCore
    from repro.workloads.suite import profile_by_name
    from repro.workloads.synthetic import build_workload

    resolved = session.resolve(spec)
    scale = resolved.scale
    by_program = {row["program"]: row for row in rows}
    checks = []
    for name in names:
        program = build_workload(profile_by_name(name), resolved.config, seed=scale.workload_seed)
        fast = OutOfOrderCore(resolved.config, seed=scale.simulation_seed).run(
            program, max_instructions=scale.workload_instructions)
        oracle = OutOfOrderCore(resolved.config, seed=scale.simulation_seed).run_interpreted(
            program, scale.workload_instructions, True)
        row = build_report(oracle, resolved.fault_rates).as_row()
        ok = (fast.stats == oracle.stats and _accounts(fast) == _accounts(oracle)
              and by_program.get(row["program"]) == row)
        checks.append(_check(f"oracle proxy {name} of {spec['name']}", ok))
    return checks


def _guarded(check, *args) -> list:
    try:
        outcome = check(*args)
    except Exception as exc:  # noqa: BLE001 - a crashing check is a failed check
        return [_check(getattr(check, "__name__", "check"), False, f"{type(exc).__name__}: {exc}")]
    return outcome if isinstance(outcome, list) else [outcome]


# ------------------------------------------------------------ environment


def stamp() -> dict:
    """What the measured path depended on: interpreter, numpy, cores, backend."""
    from repro.uarch import kernel_backends

    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    return {
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "kernel_backend": kernel_backends.resolve(None).name,
        "unpinned": bstats.unpinned_variables(),
    }


# ------------------------------------------------------------ local runs


def run_local(args, tracer, document: dict) -> None:
    import_start = time.perf_counter()
    import repro  # noqa: F401

    document["import_s"] = time.perf_counter() - import_start
    from repro.api.session import Session

    workload = wl.WORKLOADS[args.workload]
    if workload.spec is None:  # serve_mixed's import probe: resolve its first request
        specs = [wl.serve_stressmark_spec(args.seed, "cold")]
    else:
        specs = workload.round_specs(args.seed, args.round)
        if args.mode == "probe":
            specs = specs[:1]
    work = Path(args.work)
    session = Session(store=work / "store")
    session.resolve(specs[0])
    document["setup_s"] = time.monotonic() - args.spawned
    document["stamp"] = stamp()
    if args.mode == "probe":
        session.close()
        return

    results, requests = [], []
    run_start = time.perf_counter()
    for index, spec in enumerate(specs):
        result, record = _timed(session.run, spec, "cold" if index == 0 else "warm")
        results.append(result)
        requests.append(record)
    document["run_phase_s"] = time.perf_counter() - run_start
    document["peak_rss_mb"] = _peak_rss_mb()
    document["requests"] = requests
    document["expected_requests"] = len(specs)
    if results[0] is not None:
        document["cold_digest"] = bstats.result_digest(results[0].to_json_dict())
    if args.mode == "reference":
        session.close()
        return

    if tracer is not None:
        tracer.enabled = False
    checks = []
    for index, (spec, result) in enumerate(zip(specs, results)):
        if result is None or (index == 0 and args.round > 0):
            continue  # every round runs the same cold spec; round 0 checks it
        if spec["kind"] == "stressmark":
            checks += _guarded(check_stressmark, session, spec)
        else:
            checks += _guarded(check_proxies, session, spec, result.rows, wl.ORACLE_PROXIES)
    session.close()
    document["checks"] = checks


# ------------------------------------------------------------- serve runs


class Daemon:
    """A ``repro serve --jobs 2`` process on a fresh store, log in a file."""

    def __init__(self, work: Path, trace_dir=None) -> None:
        work.mkdir(parents=True, exist_ok=True)
        self.log_path = work / "daemon.log"
        if trace_dir:
            command = [sys.executable, str(HERE / "launcher.py")]
        else:
            command = [sys.executable, "-m", "repro"]
        command += ["serve", "--host", "127.0.0.1", "--port", "0",
                    "--store", str(work / "store"), "--jobs", "2"]
        env = dict(os.environ)
        if trace_dir:
            env["PERFBENCH_TRACE_DIR"] = str(trace_dir)
        self.spawned = time.monotonic()
        self._log = open(self.log_path, "w")
        self.process = subprocess.Popen(command, stdout=self._log, stderr=subprocess.STDOUT, env=env)
        self.endpoint = ""

    def wait_ready(self, timeout: float = 60.0) -> float:
        """Block until the daemon answers ping; returns spawn-to-ready seconds."""
        from repro.serve.client import wait_until_ready

        deadline = time.monotonic() + timeout
        while not self.endpoint:
            if self.process.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(f"daemon did not start: {self.log_path.read_text()[-2000:]}")
            for line in self.log_path.read_text().splitlines():
                if "listening on " in line:
                    self.endpoint = line.split("listening on ", 1)[1].split()[0]
                    break
            else:
                time.sleep(0.01)
        wait_until_ready(self.endpoint, timeout=max(1.0, deadline - time.monotonic()), interval=0.01)
        return time.monotonic() - self.spawned

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        from repro.serve.client import ServeClient

        try:
            if self.endpoint and self.process.poll() is None:
                with ServeClient(self.endpoint, timeout=10.0) as client:
                    client.shutdown()
                self.process.wait(timeout=30.0)
        except Exception:  # noqa: BLE001 - escalate below
            pass
        finally:
            if self.process.poll() is None:
                self.process.kill()
                self.process.wait()
            self._log.close()


def _serve_client_loop(endpoint: str, seed: int, client_index: int, count: int,
                       answered: list, proxies: list, out: list) -> None:
    """One closed-loop client: send the next request when the last returns."""
    from repro.serve.client import ServeClient

    rng = random.Random(bstats.derive_seed(seed, "serve-client", client_index))
    with ServeClient(endpoint, client_id=f"perfbench-{client_index}") as client:
        for index in range(count):
            kind = wl.SERVE_PATTERN[index % len(wl.SERVE_PATTERN)]
            label = f"{client_index}-{index}"
            if kind == "resubmit":
                spec = answered[rng.randrange(len(answered))]
            elif kind == "stressmark":
                spec = wl.serve_stressmark_spec(seed, label)
            else:
                proxy = proxies[(client_index * count + index) % len(proxies)]
                spec = wl.serve_simulate_spec(seed, label, proxy)
            result, record = _timed(client.run, spec, kind, store_hit=kind == "resubmit")
            record["result"] = result.to_json_dict() if result is not None else None
            record["spec"] = spec
            out.append(record)
            if result is not None and kind != "resubmit":
                answered.append(spec)


def _serve_request(client, spec: dict, kind: str, requests: list, answered=None) -> None:
    result, record = _timed(client.run, spec, kind)
    record["result"] = result.to_json_dict() if result is not None else None
    record["spec"] = spec
    requests.append(record)
    if answered is not None and result is not None:
        answered.append(spec)


def _closed_loop(endpoint: str, seed: int, answered: list, document: dict) -> list:
    from repro.workloads.suite import all_profiles

    proxies = [profile.name for profile in all_profiles()]
    per_client = wl.SERVE_REQUESTS // wl.SERVE_CLIENTS
    outs: list[list] = [[] for _ in range(wl.SERVE_CLIENTS)]
    threads = [
        threading.Thread(
            target=_serve_client_loop,
            args=(endpoint, seed, index, per_client, list(answered), proxies, outs[index]),
        )
        for index in range(wl.SERVE_CLIENTS)
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=150.0)
    document["loop_s"] = time.perf_counter() - start
    records = [record for out in outs for record in out]
    for record in records:
        record["kind"] = "loop-" + record["kind"]
    return records


def run_serve(args, document: dict) -> None:
    """Fresh daemons, each timed from spawn to ready and given one cold GA
    search; the last one then serves the warm searches and the closed loop."""
    from repro.serve.client import ServeClient

    work = Path(args.work)
    document["stamp"] = stamp()
    full = args.mode == "run"
    daemons = wl.SERVE_DAEMONS if full and not args.trace_dir else 1
    document["expected_requests"] = daemons + wl.SERVE_WARM_REQUESTS + (
        wl.SERVE_REQUESTS if full else 0)
    setups, requests, answered = [], [], []
    run_phase = 0.0
    for index in range(daemons):
        last = index == daemons - 1
        daemon = Daemon(work / f"daemon-{index}", trace_dir=args.trace_dir if last else "")
        try:
            setups.append(daemon.wait_ready())
            start = time.perf_counter()
            with ServeClient(daemon.endpoint, client_id="perfbench-main") as client:
                cold = wl.serve_stressmark_spec(args.seed, f"cold-{index}", wl.SERVE_TIMED_POPULATION)
                _serve_request(client, cold, "cold", requests, answered if last else None)
                if last:
                    for warm in range(wl.SERVE_WARM_REQUESTS):
                        spec = wl.serve_stressmark_spec(
                            args.seed, f"warm-{warm}", wl.SERVE_TIMED_POPULATION)
                        _serve_request(client, spec, "warm", requests, answered)
            if last and full:
                requests += _closed_loop(daemon.endpoint, args.seed, answered, document)
                with ServeClient(daemon.endpoint, client_id="perfbench-main") as client:
                    document["serve_stats"] = client.stats()
            if last:
                document["peak_rss_mb"] = daemon.peak_rss_mb()
            run_phase += time.perf_counter() - start
        finally:
            daemon.stop()
    document["setup_samples_s"] = setups
    document["setup_s"] = bstats.median(setups)
    document["run_phase_s"] = run_phase
    if full:
        document["checks"] = _serve_checks(work, requests)
    document["requests"] = [_drop_payload(r) for r in requests]


def _drop_payload(record: dict) -> dict:
    return {key: value for key, value in record.items() if key not in ("result", "spec")}


def _serve_checks(work: Path, requests: list) -> list:
    """Oracle and same-seed checks on a sample of served results.

    The sample is the cold GA search and the first two unique simulate
    requests.  Each is run again in a local ``Session(jobs=2)`` on a fresh
    store and must give the served digest; the local run then feeds the
    oracle checks (best program, proxy rows).
    """
    from repro.api.session import Session

    simulate = [r for r in requests if r["kind"] == "loop-simulate" and r["result"]][:2]
    cold = [r for r in requests if r["kind"] == "cold" and r["result"]][:1]
    checks = []
    with Session(store=work / "rerun", jobs=2) as local:
        for record in cold + simulate:
            spec, served = record["spec"], record["result"]
            checks += _guarded(_rerun_digest, local, spec, served)
            if spec["kind"] == "stressmark":
                checks += _guarded(check_stressmark, local, spec)
            else:
                checks += _guarded(check_proxies, local, spec, served["rows"], spec["workloads"])
    return checks


def _rerun_digest(session, spec: dict, served: dict) -> dict:
    again = session.run(spec).to_json_dict()
    ok = bstats.result_digest(again) == bstats.result_digest(served)
    return _check(f"served vs local digest {spec['name']}", ok)


# ------------------------------------------------------------------ main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("probe", "run", "reference"))
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--round", type=int, default=0, help="which round of specs to run")
    parser.add_argument("--spawned", type=float, required=True, help="time.monotonic() at spawn")
    parser.add_argument("--work", required=True, help="scratch directory for stores")
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace-dir", default="")
    args = parser.parse_args(argv)

    document: dict = {"mode": args.mode, "workload": args.workload, "seed": args.seed}
    tracer = None
    # The serve daemon installs its probes itself (launcher.py).
    if args.trace_dir and args.workload != "serve_mixed":
        import bench_tracing as tracing

        tracer = tracing.Tracer(Path(args.trace_dir))
        tracing.install(tracer)
    try:
        if args.workload == "serve_mixed" and args.mode != "probe":
            run_serve(args, document)
        else:
            run_local(args, tracer, document)
    finally:
        if tracer is not None:
            tracer.dump()
    Path(args.out).write_text(json.dumps(document))
    return 0


if __name__ == "__main__":
    sys.exit(main())
