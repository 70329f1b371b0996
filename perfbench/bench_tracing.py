"""Outside-in layer tracing: wrap public functions, record spans, split time.

The benchmark never edits the program.  A traced run rebinds each probed
function — on its class, or on every loaded ``repro`` module that holds it,
since functions are often imported by name — to a wrapper that records one
span per call: name, start, end, parent span, run id and an optional work
count.  Spans stay in memory and are written out when the process ends
(forked pool workers included).  :func:`layer_table` turns them into each
layer's inclusive time, self time (duration minus what child spans cover),
call count and work count.

A probe whose target no longer exists (a deleted backend, a renamed method)
is reported ``absent`` instead of failing the run.  Spans only look at call
arguments and timings, never at the program's own counter objects.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import pkgutil
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence

# ----------------------------------------------------------------- probes


@dataclass(frozen=True)
class Target:
    """One probed callable: ``"module:Qualified.name"`` and its work count.

    ``count`` names the count metric this target adds to; ``counter`` maps
    the call's ``(args, kwargs)`` to the work it represents (default 1).
    """

    path: str
    count: Optional[str] = None
    counter: Optional[Callable[[tuple, dict], int]] = None


@dataclass(frozen=True)
class Probe:
    """A layer metric and the targets whose spans it sums."""

    metric: str
    targets: tuple[Target, ...]
    self_time: bool = False


def _programs(args: tuple, kwargs: dict) -> int:
    programs = kwargs.get("programs", args[2] if len(args) > 2 else ())
    return len(programs)


def _batches(args: tuple, kwargs: dict) -> int:
    backend = args[0]
    individuals = kwargs.get("individuals", args[2] if len(args) > 2 else ())
    return min(max(int(getattr(backend, "jobs", 1)), 1), len(individuals))


def _targets(module: str, *names: str, count: Optional[str] = None, counter=None) -> tuple[Target, ...]:
    return tuple(Target(f"{module}:{name}", count, counter) for name in names)


_KB = "repro.uarch.kernel_backends"

#: The layer boundaries, outermost first.  Metric names are what
#: ``BENCHMARK.json`` lists under ``per_layer``.
PROBES: tuple[Probe, ...] = (
    Probe("api.session_self_s", _targets("repro.api.session", "Session.run"), self_time=True),
    Probe("ga.engine_self_s", _targets("repro.ga.engine", "GeneticAlgorithm.run"), self_time=True),
    Probe("stressmark.decode_s", _targets("repro.stressmark.knobs", "KnobSpace.decode")),
    Probe("stressmark.codegen_s",
          _targets("repro.stressmark.codegen", "CodeGenerator.generate", count="stressmark.programs")),
    Probe("parallel.evaluate_batch_s",
          _targets("repro.parallel.backends", "EvaluationBackend.evaluate_batch",
                   count="parallel.batches", counter=_batches)
          + _targets("repro.parallel.backends", "SerialBackend.map", "ProcessPoolBackend.map")
          + _targets("repro.parallel.resilience", "ResilientPoolBackend.map")),
    Probe("uarch.run_many_s",
          _targets(_KB, "KernelBackend.run_many", "BatchKernelBackend.run_many",
                   "VectorKernelBackend.run_many", count="uarch.run_many_programs", counter=_programs)),
    Probe("uarch.run_one_s",
          _targets(_KB, "InterpretedBackend.run_one", "SourceKernelBackend.run_one",
                   count="uarch.run_one_calls")),
    Probe("uarch.kernel_compile_s",
          _targets("repro.uarch.kernel", "compile_kernel", "compile_batch_kernel",
                   "compile_vector_kernel", count="uarch.kernels_compiled")
          + _targets("repro.uarch.kernelgen", "generate_kernel_source",
                     "generate_batch_kernel_source", "generate_vector_kernel_source")),
    Probe("uarch.columns_s", _targets("repro.uarch.kernel_vector", "build_columns")),
    Probe("memory.warm_region_s",
          _targets("repro.memory.hierarchy", "MemoryHierarchy.warm_region")
          + _targets("repro.uarch.kernel_batch", "warm_state_for", count="memory.warm_lookups")
          + _targets("repro.uarch.kernel_batch", "WarmState.__init__", count="memory.warm_builds")),
    Probe("memory.clone_s",
          _targets("repro.memory.cache", "Cache.clone")
          + _targets("repro.memory.tlb", "Tlb.clone")
          + _targets("repro.memory.hierarchy", "MemoryHierarchy.clone")
          + _targets("repro.vuln.ledger", "VulnerabilityLedger.clone")),
    Probe("avf.report_s", _targets("repro.avf.report", "build_report")),
    Probe("workloads.build_s", _targets("repro.workloads.synthetic", "build_workload")),
    Probe("store.fitness_lookup_s",
          _targets("repro.store.fitness_store", "PersistentFitnessCache.lookup_many")),
    Probe("store.fitness_store_s",
          _targets("repro.store.fitness_store", "PersistentFitnessCache.store_many")),
    Probe("store.checkpoint_s", _targets("repro.store.checkpoint", "CheckpointManager.save")),
    Probe("store.artifact_get_s", _targets("repro.store.artifacts", "ArtifactStore.get", "ArtifactStore.get_many")),
    Probe("store.artifact_put_s", _targets("repro.store.artifacts", "ArtifactStore.put", "ArtifactStore.put_many")),
    Probe("store.result_get_s", _targets("repro.store.result_store", "ResultStore.get")),
    Probe("store.result_put_s", _targets("repro.store.result_store", "ResultStore.put")),
    Probe("serve.journal_append_s",
          _targets("repro.serve.journal", "JobJournal.append_submit",
                   "JobJournal.append_start", "JobJournal.append_terminal")),
)

def _count_metrics(probes: Sequence[Probe]) -> tuple[str, ...]:
    return tuple(dict.fromkeys(
        target.count for probe in probes for target in probe.targets if target.count
    ))


#: Count metrics the probes produce (``memory.warm_lookups`` only feeds a ratio).
COUNT_METRICS = _count_metrics(PROBES)

#: Which probe metrics exist, written beside the spans by :func:`install`.
PROBES_FILE = "probes.json"

#: The spec-name run id is taken from this target's first argument.
_RUN_ID_TARGET = "repro.api.session:Session.run"

# ------------------------------------------------------------------ spans


@dataclass
class Span:
    id: str
    parent: Optional[str]
    metric: str
    target: str
    start: float
    end: float = 0.0
    run: str = ""
    count: int = 0
    count_metric: Optional[str] = None

    def to_json(self) -> dict:
        return self.__dict__.copy()


class Tracer:
    """In-memory span recorder; one per process, thread-aware."""

    def __init__(self, out_dir: Optional[Path] = None) -> None:
        self.out_dir = Path(out_dir) if out_dir is not None else None
        self.enabled = True
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._pid = os.getpid()

    # -- recording

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def run_id(self) -> str:
        return getattr(self._local, "run", "")

    @run_id.setter
    def run_id(self, value: str) -> None:
        self._local.run = value

    def wrap(self, fn: Callable, metric: str, target: Target) -> Callable:
        tracer = self
        sets_run = target.path == _RUN_ID_TARGET

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            previous_run = tracer.run_id
            if sets_run and len(args) > 1:
                tracer.run_id = _spec_name(args[1]) or previous_run
            count = 0
            if target.count:
                count = target.counter(args, kwargs) if target.counter else 1
            span = Span(
                id=f"{tracer._pid}:{next(tracer._ids)}",
                parent=stack[-1].id if stack else None,
                metric=metric, target=target.path, start=time.perf_counter(),
                run=tracer.run_id, count=count, count_metric=target.count,
            )
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)
                tracer.run_id = previous_run

        return traced

    # -- output

    def dump(self) -> Optional[Path]:
        """Write this process's spans as JSON lines; returns the file."""
        if self.out_dir is None:
            return None
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"spans-{os.getpid()}.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.to_json()) + "\n")
        return path

    def _after_fork(self) -> None:
        # A forked pool worker starts with no spans and an empty stack (the
        # parent's open spans belong to the parent) and dumps its own file
        # when multiprocessing runs its exit finalizers.
        self.spans = []
        self._local = threading.local()
        self._pid = os.getpid()
        from multiprocessing import util

        util.Finalize(None, self.dump, exitpriority=100)


def _spec_name(spec: object) -> str:
    name = getattr(spec, "name", None)
    if name is None and isinstance(spec, dict):
        name = spec.get("name")
    return str(name or "")


def _resolve(path: str) -> tuple[object, str, object]:
    """``(owner, attribute, current value)`` of a ``module:Qual.name`` path.

    Raises ImportError / AttributeError when the target does not exist.
    """
    module_name, _, qualname = path.partition(":")
    owner: object = importlib.import_module(module_name)
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    attribute = parts[-1]
    if isinstance(owner, type):
        if attribute not in vars(owner):
            raise AttributeError(f"{path} is not defined on {owner.__name__}")
        return owner, attribute, vars(owner)[attribute]
    return owner, attribute, getattr(owner, attribute)


def _import_package(package: str) -> None:
    """Import every submodule so ``from x import f`` copies exist to rebind."""
    root = importlib.import_module(package)
    for info in pkgutil.walk_packages(root.__path__, prefix=f"{package}."):
        if info.name.endswith("__main__"):
            continue
        try:
            importlib.import_module(info.name)
        except ImportError:
            continue


def install(
    tracer: Tracer,
    probes: Sequence[Probe] = PROBES,
    package: str = "repro",
) -> dict[str, list[str]]:
    """Wrap every probe target; returns ``{"present": [...], "absent": [...]}``.

    A metric is absent when none of its targets exists.  Module-level
    functions are rebound on every loaded module of ``package`` holding them.
    """
    _import_package(package)
    found: set[str] = set()
    for probe in probes:
        for target in probe.targets:
            try:
                owner, attribute, original = _resolve(target.path)
            except (ImportError, AttributeError):
                continue
            found.update(name for name in (probe.metric, target.count) if name)
            wrapper = tracer.wrap(original, probe.metric, target)
            setattr(owner, attribute, wrapper)
            if not isinstance(owner, type):
                _rebind_everywhere(original, wrapper, package)
    if tracer.out_dir is not None:
        from multiprocessing import util

        # Runs in every multiprocessing child after its finalizer registry
        # is reset, so the exit finalizer registered there survives.
        util.register_after_fork(tracer, Tracer._after_fork)
    names = [probe.metric for probe in probes] + list(_count_metrics(probes))
    report = {
        "present": [name for name in names if name in found],
        "absent": [name for name in names if name not in found],
    }
    if tracer.out_dir is not None:
        tracer.out_dir.mkdir(parents=True, exist_ok=True)
        (tracer.out_dir / PROBES_FILE).write_text(json.dumps(report))
    return report


def _rebind_everywhere(original: object, wrapper: object, package: str) -> None:
    for name, module in list(sys.modules.items()):
        if module is None or not (name == package or name.startswith(package + ".")):
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                setattr(module, attribute, wrapper)


# ------------------------------------------------------------ arithmetic


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by a set of (possibly overlapping) intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(iv for iv in intervals if iv[1] > iv[0]):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: Sequence[Span]) -> dict[str, float]:
    """Each span's duration minus the part of it its children cover.

    Children are clipped to the parent's interval and their overlaps are
    counted once, so concurrent or overrunning children never drive a
    parent's self time below zero.
    """
    children: dict[str, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result = {}
    for span in spans:
        covered = union_length(
            (max(child.start, span.start), min(child.end, span.end))
            for child in children.get(span.id, ())
        )
        result[span.id] = (span.end - span.start) - covered
    return result


def _has_ancestor(span: Span, by_id: dict[str, Span], key: Callable[[Span], object]) -> bool:
    mine = key(span)
    parent = by_id.get(span.parent) if span.parent else None
    while parent is not None:
        if key(parent) == mine:
            return True
        parent = by_id.get(parent.parent) if parent.parent else None
    return False


@dataclass
class LayerRow:
    inclusive_s: float = 0.0
    self_s: float = 0.0
    calls: int = 0


@dataclass
class LayerTable:
    rows: dict[str, LayerRow] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)


def layer_table(spans: Sequence[Span]) -> LayerTable:
    """Per-metric inclusive/self seconds and calls, plus per-count totals.

    Inclusive time and calls count a span only when no ancestor carries the
    same metric (a recursive or delegating call is not counted twice); self
    time sums over every span; counts skip spans under an ancestor adding
    to the same count metric.
    """
    by_id = {span.id: span for span in spans}
    own = self_times(spans)
    table = LayerTable()
    for span in spans:
        row = table.rows.setdefault(span.metric, LayerRow())
        row.self_s += own[span.id]
        if not _has_ancestor(span, by_id, lambda s: s.metric):
            row.inclusive_s += span.end - span.start
            row.calls += 1
        if span.count_metric and not _has_ancestor(span, by_id, lambda s: s.count_metric):
            table.counts[span.count_metric] = table.counts.get(span.count_metric, 0) + span.count
    return table


def load_spans(directory: Path) -> list[Span]:
    spans = []
    for path in sorted(Path(directory).glob("spans-*.jsonl")):
        with open(path, encoding="utf-8") as handle:
            spans.extend(Span(**json.loads(line)) for line in handle if line.strip())
    return spans


def layer_metrics(table: LayerTable, absent: Sequence[str]) -> dict[str, float]:
    """The per-layer metric values a traced run reports (absent ones as 0)."""
    values: dict[str, float] = {}
    for probe in PROBES:
        row = table.rows.get(probe.metric, LayerRow())
        values[probe.metric] = 0.0 if probe.metric in absent else (
            row.self_s if probe.self_time else row.inclusive_s)
    for metric in COUNT_METRICS:
        values[metric] = 0.0 if metric in absent else float(table.counts.get(metric, 0))
    lookups = values.pop("memory.warm_lookups")
    values["memory.warm_hit_ratio"] = (
        1.0 - values["memory.warm_builds"] / lookups if lookups else 0.0)
    return values
