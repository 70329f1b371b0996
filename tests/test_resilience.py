"""Tests for the fault-tolerant evaluation fabric.

Covers the resilient worker pool (retry / respawn / deadline / quarantine /
degradation), the chaos-injection harness, salvageable stores with
``fsck``, KeyboardInterrupt checkpointing, and the RunSpec/Session retry
knobs.  Every fault path must leave results bit-identical to a clean serial
run — the assertions here compare against :class:`SerialBackend` output.
"""

from __future__ import annotations

import functools
import json
import os
import sqlite3
import time
import warnings
from pathlib import Path

import pytest

from repro.api.spec import RunSpec, SpecError
from repro.ga.engine import GAParameters, GeneticAlgorithm
from repro.ga.genes import FloatGene, GeneSpace, IntGene
from repro.parallel.backends import SerialBackend
from repro.parallel import resilience
from repro.parallel.resilience import (
    FailureStats,
    Quarantined,
    ResilientPoolBackend,
    RetryPolicy,
)
from repro.store.result_store import JSONL_FILE, META_FILE, SCHEMA_VERSION, ResultStore, StoreError
from repro.store.fsck import fsck_store
from repro.store.sqlite_util import retry_locked
from repro.testing.chaos import (
    CHAOS_ENV_VAR,
    ChaosClause,
    ChaosError,
    chaos_hook,
    chaos_mangle,
    parse_chaos_spec,
)

# Pid of the pytest process; forked workers inherit this module constant
# while reporting a different os.getpid(), letting tasks fail only in
# children (so degraded in-process execution never kills the test runner).
_TEST_ROOT_PID = os.getpid()


def _square(value: int) -> int:
    return value * value


def _flaky(value: int, fail_dir: str, mode: str, failures: int) -> int:
    """Fail the first ``failures`` attempts for each item, then succeed.

    Attempts are counted through per-item marker files in ``fail_dir`` so the
    count survives worker crashes and respawns.  The marker is written
    *before* failing, so hung/killed attempts are still charged.
    """
    marker = Path(fail_dir) / f"{value}.attempts"
    attempts = int(marker.read_text()) if marker.exists() else 0
    if attempts < failures:
        marker.write_text(str(attempts + 1))
        if mode == "raise":
            raise RuntimeError(f"flaky failure #{attempts + 1} for item {value}")
        if mode == "exit":
            os._exit(77)
        if mode == "hang":
            time.sleep(60.0)
    return value * value


def _fail_item(value: int, poison: int) -> int:
    """Fail every attempt for one poisoned item, succeed for the rest."""
    if value == poison:
        raise ValueError(f"item {value} is poisoned")
    return value * value


def _exit_in_child(value: int) -> int:
    """Kill the process on every attempt — but only in a worker."""
    if os.getpid() != _TEST_ROOT_PID:
        os._exit(77)
    return value * value


SPACE = GeneSpace([IntGene("a", 0, 50), IntGene("b", 0, 50), FloatGene("c", 0.0, 1.0)])


def sphere_fitness(individual) -> float:
    genome = individual.genome
    individual.payload["echo"] = genome["a"]
    return float(genome["a"]) + float(genome["b"]) + 50.0 * float(genome["c"])


def _failing_fitness(individual) -> float:
    raise RuntimeError("evaluator always fails")


def _interrupting_sphere(individual, counter_dir: str, trigger: int) -> float:
    """Behaves exactly like :func:`sphere_fitness` until call ``trigger``."""
    counter = Path(counter_dir) / "calls"
    calls = int(counter.read_text()) if counter.exists() else 0
    calls += 1
    counter.write_text(str(calls))
    if calls == trigger:
        raise KeyboardInterrupt
    return sphere_fitness(individual)


#: Three attempts with near-zero backoff, so fault tests run fast.
FAST_RETRY = RetryPolicy(max_attempts=3, base_delay=0.001)


# --------------------------------------------------------------- policies


class TestRetryPolicy:
    def test_defaults(self):
        policy = RetryPolicy()
        assert policy.max_attempts == 3
        assert policy.timeout is None

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-0.1)
        with pytest.raises(ValueError):
            RetryPolicy(timeout=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=1.0, max_delay=0.5)

    def test_backoff_is_capped_exponential(self):
        policy = RetryPolicy(base_delay=0.1, max_delay=0.5)
        assert policy.delay_for(1) == pytest.approx(0.1)
        assert policy.delay_for(2) == pytest.approx(0.2)
        assert policy.delay_for(3) == pytest.approx(0.4)
        assert policy.delay_for(4) == pytest.approx(0.5)  # capped
        assert policy.delay_for(10) == pytest.approx(0.5)

    def test_derive_overrides(self):
        derived = RetryPolicy().derive(max_attempts=5, timeout=3.0)
        assert derived.max_attempts == 5
        assert derived.timeout == pytest.approx(3.0)
        assert derived.base_delay == RetryPolicy().base_delay

    def test_hashable_for_backend_sharing(self):
        a = RetryPolicy(max_attempts=2)
        b = RetryPolicy(max_attempts=2)
        assert {a: "shared"}[b] == "shared"


# ----------------------------------------------------------- chaos harness


class TestChaosHarness:
    def test_parse_spec(self):
        clauses = parse_chaos_spec("worker:exit:0.5:2, result-store:truncate")
        assert clauses == (
            ChaosClause(site="worker", kind="exit", probability=0.5, limit=2),
            ChaosClause(site="result-store", kind="truncate"),
        )

    def test_parse_rejects_malformed(self):
        for spec in ("worker", "worker:implode", "worker:exit:2.0", "worker:exit:0.5:-1", "a:b:c:d:e"):
            with pytest.raises(ValueError):
                parse_chaos_spec(spec)

    def test_hooks_are_noops_when_unset(self, monkeypatch):
        monkeypatch.delenv(CHAOS_ENV_VAR, raising=False)
        chaos_hook("worker")
        assert chaos_mangle("result-store", b"payload") == b"payload"

    def test_raise_kind_fires_in_process(self, monkeypatch):
        monkeypatch.setenv(CHAOS_ENV_VAR, "worker:raise")
        with pytest.raises(ChaosError):
            chaos_hook("worker")
        # Other sites are untouched.
        chaos_hook("artifact-store")

    def test_limit_caps_firings(self, monkeypatch):
        monkeypatch.setenv(CHAOS_ENV_VAR, "worker:raise:1.0:2")
        for _ in range(2):
            with pytest.raises(ChaosError):
                chaos_hook("worker")
        chaos_hook("worker")  # limit exhausted: no fault

    def test_process_kinds_never_kill_the_orchestrator(self, monkeypatch):
        # If the guard failed this would os._exit the pytest process.
        monkeypatch.setenv(CHAOS_ENV_VAR, "worker:exit")
        chaos_hook("worker")

    def test_mangle_truncates_payload(self, monkeypatch):
        monkeypatch.setenv(CHAOS_ENV_VAR, "result-store:truncate")
        data = b"x" * 64
        torn = chaos_mangle("result-store", data)
        assert torn == data[:32]


# ---------------------------------------------------------- resilient map


class TestResilientMap:
    def test_clean_path_matches_serial(self):
        items = list(range(10))
        with ResilientPoolBackend(jobs=2, retry=FAST_RETRY) as backend:
            assert backend.map(_square, items) == SerialBackend().map(_square, items)
            assert backend.map(_square, []) == []
            assert backend.failure_counters() == FailureStats().as_dict()

    def test_retry_after_raise(self, tmp_path):
        fn = functools.partial(_flaky, fail_dir=str(tmp_path), mode="raise", failures=2)
        with ResilientPoolBackend(jobs=2, retry=FAST_RETRY) as backend:
            assert backend.map(fn, [3]) == [9]
            stats = backend.stats
        assert stats.failures == 2
        assert stats.retries == 2
        assert stats.quarantined == 0

    def test_worker_exit_respawns_only_lost_worker(self, tmp_path):
        fn = functools.partial(_flaky, fail_dir=str(tmp_path), mode="exit", failures=1)
        with ResilientPoolBackend(jobs=2, retry=FAST_RETRY) as backend:
            assert backend.map(fn, [2, 3, 4, 5]) == [4, 9, 16, 25]
            assert backend.stats.worker_restarts >= 1
            assert not backend.degraded

    def test_hung_item_killed_at_deadline_and_retried(self, tmp_path):
        retry = RetryPolicy(max_attempts=3, base_delay=0.001, timeout=0.5)
        fn = functools.partial(_flaky, fail_dir=str(tmp_path), mode="hang", failures=1)
        start = time.monotonic()
        with ResilientPoolBackend(jobs=2, retry=retry) as backend:
            assert backend.map(fn, [6]) == [36]
            assert backend.stats.worker_restarts >= 1
        assert time.monotonic() - start < 30.0  # killed at ~0.5s, not after 60s

    def test_quarantine_records_poisoned_item_in_place(self):
        fn = functools.partial(_fail_item, poison=2)
        with ResilientPoolBackend(jobs=2, retry=FAST_RETRY) as backend:
            with pytest.warns(RuntimeWarning, match="quarantined"):
                results = backend.map(fn, [0, 1, 2, 3, 4])
            assert backend.stats.quarantined == 1
        assert results[0:2] == [0, 1]
        assert results[3:] == [9, 16]
        quarantined = results[2]
        assert isinstance(quarantined, Quarantined)
        assert quarantined.attempts == 3
        assert "poisoned" in quarantined.error

    def test_degrades_to_serial_after_repeated_worker_loss(self, monkeypatch):
        monkeypatch.setattr(resilience, "MAX_POOL_FAILURES", 1)
        with ResilientPoolBackend(jobs=2, retry=FAST_RETRY) as backend:
            with pytest.warns(RuntimeWarning, match="degrading"):
                results = backend.map(_exit_in_child, [1, 2, 3, 4, 5])
            assert results == [1, 4, 9, 16, 25]
            assert backend.degraded
            assert backend.stats.degraded == 1
            # The degraded backend keeps serving map calls, in-process.
            assert backend.map(_square, [7]) == [49]

    def test_map_identical_under_injected_chaos(self, monkeypatch):
        # Up to 2 injected raises per worker process; with 8 attempts per
        # item no item can exhaust its schedule, so the fault schedule must
        # be invisible in the results.
        monkeypatch.setenv(CHAOS_ENV_VAR, "worker:raise:1.0:2")
        retry = RetryPolicy(max_attempts=8, base_delay=0.001)
        items = list(range(12))
        with ResilientPoolBackend(jobs=2, retry=retry) as backend:
            results = backend.map(_square, items)
            assert backend.stats.retries > 0
        monkeypatch.delenv(CHAOS_ENV_VAR)
        assert results == SerialBackend().map(_square, items)


# ------------------------------------------------------------ GA integration


class TestGAUnderFaults:
    def test_resilient_backend_matches_serial_ga(self):
        params = GAParameters(population_size=8, generations=4, seed=2010)
        serial = GeneticAlgorithm(SPACE, sphere_fitness, params, backend=SerialBackend()).run()
        with ResilientPoolBackend(jobs=2, retry=FAST_RETRY) as backend:
            resilient = GeneticAlgorithm(SPACE, sphere_fitness, params, backend=backend).run()
        assert resilient.best.genome == serial.best.genome
        assert resilient.best_fitness == serial.best_fitness
        assert resilient.history == serial.history
        assert resilient.quarantined == 0

    def test_quarantined_individuals_get_minus_inf_fitness(self):
        params = GAParameters(population_size=4, generations=2, seed=7)
        retry = RetryPolicy(max_attempts=1, base_delay=0.0)
        with ResilientPoolBackend(jobs=2, retry=retry) as backend:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                result = GeneticAlgorithm(SPACE, _failing_fitness, params, backend=backend).run()
        assert result.quarantined > 0
        assert result.best.fitness == float("-inf")
        assert "quarantined" in result.best.payload
        assert result.best.payload["quarantined"]["attempts"] == 1


class TestCheckpointOnInterrupt:
    def test_keyboard_interrupt_checkpoints_and_resumes_identically(self, tmp_path):
        from repro.store.checkpoint import CheckpointManager

        params = GAParameters(population_size=4, generations=3, seed=99)
        reference = GeneticAlgorithm(SPACE, sphere_fitness, params, backend=SerialBackend()).run()

        manager = CheckpointManager(tmp_path / "ga.ckpt")
        flaky = functools.partial(_interrupting_sphere, counter_dir=str(tmp_path), trigger=6)
        with pytest.raises(KeyboardInterrupt):
            GeneticAlgorithm(SPACE, flaky, params, backend=SerialBackend()).run(checkpoint=manager)
        assert manager.exists()

        resumed = GeneticAlgorithm(SPACE, sphere_fitness, params, backend=SerialBackend()).run(
            checkpoint=manager
        )
        assert resumed.best.genome == reference.best.genome
        assert resumed.best_fitness == reference.best_fitness
        assert resumed.history == reference.history


# -------------------------------------------------------- salvageable stores


def _record_line(digest: str) -> bytes:
    record = {"schema_version": SCHEMA_VERSION, "digest": digest, "result": {"rows": []}}
    return json.dumps(record, separators=(",", ":")).encode("utf-8") + b"\n"


def _write_store(root: Path, lines: bytes) -> Path:
    root.mkdir(parents=True, exist_ok=True)
    meta = {"schema_version": SCHEMA_VERSION, "backend": "jsonl"}
    (root / META_FILE).write_text(json.dumps(meta) + "\n")
    (root / JSONL_FILE).write_bytes(lines)
    return root


class TestStoreSalvage:
    def test_torn_final_record_is_salvaged_and_logged(self, tmp_path, caplog):
        torn = _record_line("cccc")[:20]  # unparseable fragment, no newline
        root = _write_store(tmp_path / "store", _record_line("aaaa") + _record_line("bbbb") + torn)
        with caplog.at_level("WARNING", logger="repro.store"):
            store = ResultStore(root)
        assert store.digests() == ["aaaa", "bbbb"]
        assert any("salvaged result store" in record.message for record in caplog.records)

    def test_torn_schema_fragment_is_salvaged(self, tmp_path):
        # Parses as JSON but fails the schema check; salvageable only
        # because the missing trailing newline proves the line was torn.
        root = _write_store(tmp_path / "store", _record_line("aaaa") + b'{"schema_')
        assert ResultStore(root).digests() == ["aaaa"]

    def test_mid_file_corruption_still_raises(self, tmp_path):
        root = _write_store(tmp_path / "store", b"not json\n" + _record_line("aaaa"))
        with pytest.raises(StoreError):
            ResultStore(root)

    def test_unsupported_schema_on_complete_line_raises(self, tmp_path):
        bad = b'{"schema_version": 99, "digest": "x", "result": {}}\n'
        root = _write_store(tmp_path / "store", bad)
        with pytest.raises(StoreError):
            ResultStore(root)


class TestSqliteRetry:
    def test_retries_locked_database(self):
        calls = []

        def flaky_write():
            calls.append(1)
            if len(calls) < 3:
                raise sqlite3.OperationalError("database is locked")
            return "done"

        assert retry_locked(flaky_write, "test write") == "done"
        assert len(calls) == 3

    def test_non_lock_errors_raise_immediately(self):
        calls = []

        def broken_write():
            calls.append(1)
            raise sqlite3.OperationalError("no such table: results")

        with pytest.raises(sqlite3.OperationalError):
            retry_locked(broken_write, "test write")
        assert len(calls) == 1


class TestFsck:
    def test_clean_store(self, tmp_path):
        root = _write_store(tmp_path / "store", _record_line("aaaa") + _record_line("bbbb"))
        report = fsck_store(root)
        assert report.clean
        assert report.intact_results == 2

    def test_missing_directory_is_a_finding(self, tmp_path):
        report = fsck_store(tmp_path / "nope")
        assert not report.clean

    def test_torn_tail_reported_then_repaired(self, tmp_path):
        intact = _record_line("aaaa")
        root = _write_store(tmp_path / "store", intact + _record_line("bbbb")[:25])
        report = fsck_store(root)
        assert len(report.findings) == 1
        finding = report.findings[0]
        assert finding.repairable and not finding.repaired
        assert "truncated final record" in finding.problem

        repaired = fsck_store(root, repair=True)
        assert repaired.findings[0].repaired
        assert (root / JSONL_FILE).read_bytes() == intact
        assert fsck_store(root).clean

    def test_mid_file_corruption_reported_not_repairable(self, tmp_path):
        root = _write_store(tmp_path / "store", b"garbage\n" + _record_line("aaaa"))
        report = fsck_store(root, repair=True)
        assert any(not finding.repairable for finding in report.findings)
        # Repair must not touch unsalvageable damage.
        assert (root / JSONL_FILE).read_bytes().startswith(b"garbage\n")

    def test_unloadable_checkpoint_and_tmp_debris_repaired(self, tmp_path):
        root = _write_store(tmp_path / "store", _record_line("aaaa"))
        checkpoint_dir = root / "checkpoints"
        checkpoint_dir.mkdir()
        (checkpoint_dir / "dead.ckpt").write_bytes(b"not a pickle")
        (root / "results.jsonl.tmp").write_text("partial")

        report = fsck_store(root)
        assert len(report.findings) == 2
        assert all(f.repairable and not f.repaired for f in report.findings)

        fsck_store(root, repair=True)
        assert not (checkpoint_dir / "dead.ckpt").exists()
        assert not (root / "results.jsonl.tmp").exists()
        assert fsck_store(root).clean


# ------------------------------------------------------- spec / session knobs


class TestSpecRetryKnobs:
    def test_validation(self):
        with pytest.raises(SpecError):
            RunSpec(kind="simulate", name="x", retries=0).validate()
        with pytest.raises(SpecError):
            RunSpec(kind="simulate", name="x", task_timeout=-1.0).validate()
        with pytest.raises(SpecError):
            RunSpec(kind="simulate", name="x", task_timeout=True).validate()

    def test_digest_unchanged_when_knobs_unset(self):
        spec = RunSpec(kind="simulate", name="x", workloads=("crc32_proxy",))
        data = spec.to_json_dict()
        assert "retries" not in data
        assert "task_timeout" not in data
        tuned = spec.replace(retries=2, task_timeout=30.0)
        assert tuned.to_json_dict()["retries"] == 2
        assert tuned.digest != spec.digest
        # A stored spec that pinned a kernel backend loads as its unpinned
        # twin, with the twin's digest: the dropped field changed no result.
        pinned = RunSpec.from_json_dict({**data, "kernel_backend": "interpreted"})
        assert "kernel_backend" not in pinned.to_json_dict()
        assert pinned.digest == spec.digest

    def test_sweep_children_inherit_retry_knobs(self):
        sweep = RunSpec(
            kind="sweep",
            name="s",
            retries=4,
            task_timeout=9.0,
            base=RunSpec(kind="simulate", name="s/wl", workloads=("crc32_proxy",)),
            axes={"fault_rates": ("unit", "rhc")},
        )
        children = sweep.expand()
        assert len(children) == 2
        assert all(child.retries == 4 for child in children)
        assert all(child.task_timeout == pytest.approx(9.0) for child in children)

    def test_session_retry_precedence(self):
        from repro.api.session import Session

        plain = RunSpec(kind="simulate", name="x", workloads=("crc32_proxy",))
        tuned = plain.replace(retries=2, task_timeout=30.0)

        with Session() as session:
            # Library defaults when nothing is set.
            assert session.resolve_retry(plain) == RetryPolicy()
            # Spec fields override the defaults.
            policy = session.resolve_retry(tuned)
            assert policy.max_attempts == 2
            assert policy.timeout == pytest.approx(30.0)

        pinned = RetryPolicy(max_attempts=9, timeout=1.5)
        with Session(retry=pinned) as session:
            # A pinned policy (CLI --retries/--task-timeout) beats everything.
            assert session.resolve_retry(tuned) == pinned
