"""The batch kernel: shared warm state + plan memoization for populations.

The GA evaluates a whole generation of genomes against one machine
configuration.  Simulated one by one, each genome pays functional warm-up —
walking the program's declared :class:`~repro.isa.program.WarmupRegion`
footprint through the caches and TLBs — from scratch.  This module shares
that cost across a population, and the ``vector`` plane
(:mod:`repro.uarch.kernel_vector`) builds on it: it freezes the warm states
and reuses the operand plans built here, and runs the batch kernel per
program for inputs its column lowering cannot express.  The batch kernel is
not a selectable plane of its own.

* **One compiled kernel per config.**  :func:`repro.uarch.kernelgen.
  generate_batch_kernel_source` folds the machine constants in once; the
  per-genome operand tables stay runtime inputs, so one compile covers the
  whole search (see :func:`repro.uarch.kernel.batch_kernel_for`).
* **One functional warm-up per footprint.**  Stressmark candidates declare
  identical or near-identical warm-up footprints (the knob space only
  toggles the L2-miss region), so a generation needs at most a couple of
  distinct warm states.  :class:`WarmState` runs ``warm_region`` once
  against a master ledger/hierarchy pair and ``materialize``\\ s an
  independent clone per genome — bit-identical to re-running the warm-up,
  because warm-up is deterministic, draws no RNG, and happens entirely at
  cycle 0.  Warm sharing is only used for programs with no explicit setup
  instructions: for those the interpreter's ``spawn('setup')`` stream is
  created but never drawn from, so skipping the replay perturbs nothing.
* **One operand-plan per (config, population).**  The per-op info tables
  (the interpreter's 19-field tuples) are laid out as flat per-column lists
  and memoized by (config digest, sorted program digests) in the attached
  ArtifactStore, so re-evaluated populations (bench repeats, resumed runs,
  pool workers) skip the per-genome precomputation entirely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.memory.hierarchy import MemoryHierarchy
from repro.parallel.cache import evaluation_context_digest
from repro.uarch import kernel as _kernel
from repro.uarch.kernelgen import KERNEL_SCHEMA
from repro.vuln.ledger import VulnerabilityLedger

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.isa.program import Program
    from repro.uarch.config import MachineConfig
    from repro.uarch.pipeline import OutOfOrderCore, SimulationResult

#: Distinct warm states kept per process.  A GA search touches at most two
#: (the knob space only toggles the L2-miss region's presence).
WARM_CACHE_LIMIT = 8

#: Operand plans kept in the in-process memo (oldest evicted first).
PLAN_CACHE_LIMIT = 32


@dataclass
class BatchStats:
    """Process-local counters for the batch plane (observability/tests)."""

    warm_builds: int = 0
    warm_hits: int = 0
    plans_built: int = 0
    plan_memo_hits: int = 0
    plan_store_hits: int = 0
    batch_runs: int = 0

    def reset(self) -> None:
        self.warm_builds = 0
        self.warm_hits = 0
        self.plans_built = 0
        self.plan_memo_hits = 0
        self.plan_store_hits = 0
        self.batch_runs = 0


STATS = BatchStats()

_warm_states: dict[tuple, "WarmState"] = {}
_plans: dict[str, dict[str, list]] = {}


# -------------------------------------------------------------- warm state


class WarmState:
    """A functionally warmed (ledger, hierarchy) master, cloned per genome.

    Construction performs exactly the interpreter's warm-up sequence — the
    same ``MemoryHierarchy`` construction against a fresh ledger, then one
    ``warm_region`` call per declared footprint region, in order.  Warm-up
    is deterministic, consumes no RNG, and runs entirely at cycle 0, so a
    clone of the master is indistinguishable from a freshly warmed pair.
    """

    def __init__(self, config: "MachineConfig", signature: tuple) -> None:
        self.signature = signature
        self._ledger = VulnerabilityLedger(config)
        self._hierarchy = MemoryHierarchy(
            dl1_config=config.dl1,
            l2_config=config.l2,
            dtlb_config=config.dtlb,
            memory_latency=config.memory_latency,
            tlb_miss_penalty=config.tlb_miss_penalty,
            ledger=self._ledger,
            l2_tlb_config=config.l2_tlb,
            l2_tlb_hit_latency=config.l2_tlb_hit_latency,
        )
        for base, size_bytes, dirty, ace, word_fraction, recurrent in signature:
            self._hierarchy.warm_region(
                base=base,
                size_bytes=size_bytes,
                dirty=dirty,
                ace=ace,
                word_fraction=word_fraction,
                recurrent=recurrent,
            )

    def materialize(self) -> tuple[VulnerabilityLedger, MemoryHierarchy]:
        """An independent (ledger, hierarchy) clone for one simulation."""
        ledger = self._ledger.clone()
        return ledger, self._hierarchy.clone(ledger)


def warm_signature(program: "Program") -> tuple:
    """The warm-up footprint of a program as a hashable cache key."""
    return tuple(
        (region.base, region.size_bytes, region.dirty, region.ace,
         region.word_fraction, region.recurrent)
        for region in program.warmup_regions
    )


def supports_warm_sharing(program: "Program") -> bool:
    """Whether a shared warm state is bit-identical for this program.

    Programs with explicit setup instructions replay them through the
    hierarchy (and spawn-and-draw the setup RNG stream), which the shared
    warm state does not capture; they fall back to the unshared path.
    """
    return not program.setup


def warm_state_for(config: "MachineConfig", program: "Program") -> WarmState:
    """The (memoized) warm state for a program's declared footprint."""
    key = (_kernel.config_digest(config), warm_signature(program))
    state = _kernel._lru_get(_warm_states, key)
    if state is not None:
        STATS.warm_hits += 1
        return state
    state = WarmState(config, key[1])
    _kernel._lru_put(_warm_states, key, state, WARM_CACHE_LIMIT)
    STATS.warm_builds += 1
    return state


# ------------------------------------------------------------ operand plans


def plan_key(cfg_digest: str, prog_digests: list[str]) -> str:
    """ArtifactStore key of one batch's operand plan.

    Keyed by (config digest, sorted program digests): the same population
    evaluated again — bench repeats, resumed searches, another worker —
    resolves to the same plan regardless of batch ordering.
    """
    batch_digest = evaluation_context_digest(
        "kernel-batch-plan", KERNEL_SCHEMA, sorted(prog_digests)
    )
    return f"kernel-batch-plan|v{KERNEL_SCHEMA}|{cfg_digest}|{batch_digest}"


def _build_infos(core: "OutOfOrderCore", program: "Program") -> list[tuple]:
    return [
        core._instruction_info(instruction, index, False, program)
        for index, instruction in enumerate(program.body)
    ]


def _plan_for(
    core: "OutOfOrderCore",
    cfg_digest: str,
    programs: list["Program"],
    prog_digests: list[str],
) -> dict[str, list]:
    """Per-op info rows for every program of the batch, keyed by digest.

    Plans are stored column-major (one flat list per info field, shared
    across the ops of a program) and zipped back into the row tuples the
    hot loop unpacks; rows are memoized in-process and the columns persist
    in the attached ArtifactStore.
    """
    key = plan_key(cfg_digest, prog_digests)
    rows = _kernel._lru_get(_plans, key)
    if rows is not None:
        STATS.plan_memo_hits += 1
        return rows

    columns: Optional[dict[str, tuple]] = None
    store = _kernel._active_source_store()
    if store is not None:
        try:
            stored = store.get(key)
        except Exception:
            _kernel._discard_failed_store(store)
            store = None
            stored = None
        if isinstance(stored, dict) and set(stored) == set(prog_digests):
            columns = stored
            STATS.plan_store_hits += 1

    if columns is None:
        columns = {}
        for digest, program in zip(prog_digests, programs):
            if digest not in columns:
                infos = _build_infos(core, program)
                columns[digest] = tuple(zip(*infos)) if infos else ()
        STATS.plans_built += 1
        store = _kernel._active_source_store()
        if store is not None:
            try:
                store.put(key, columns)
            except Exception:
                _kernel._discard_failed_store(store)

    rows = {
        digest: (list(zip(*cols)) if cols else [])
        for digest, cols in columns.items()
    }
    _kernel._lru_put(_plans, key, rows, PLAN_CACHE_LIMIT)
    return rows


# ------------------------------------------------------------- batch runner


def run_program(
    core: "OutOfOrderCore",
    program: "Program",
    max_instructions: int,
    rows: list,
) -> "SimulationResult":
    """One program through the config batch kernel, given its plan ``rows``.

    Empty bodies — and every program, should the config's batch kernel fail
    to generate — run the interpreted reference instead.
    """
    config = core.config
    kernel = _kernel.batch_kernel_for(config)
    if kernel is None or not program.body:
        return core.run_interpreted(program, max_instructions, True)
    warm = warm_state_for(config, program) if supports_warm_sharing(program) else None
    STATS.batch_runs += 1
    return kernel(core, program, max_instructions, rows, warm)


def run_many(
    core: "OutOfOrderCore",
    programs: list["Program"],
    max_instructions: int = 50_000,
) -> list["SimulationResult"]:
    """Simulate every program of a batch through the config batch kernel.

    Returns results aligned with ``programs``; one operand plan covers the
    whole batch (see :func:`run_program` for the per-program path).
    """
    cfg_digest = _kernel.config_digest(core.config)
    prog_digests = [_kernel.program_digest(program) for program in programs]
    plans = _plan_for(core, cfg_digest, programs, prog_digests)
    return [
        run_program(core, program, max_instructions, plans[digest])
        for program, digest in zip(programs, prog_digests)
    ]


def clear_batch_caches() -> None:
    """Drop warm states and plans, reset counters (tests/benchmarks)."""
    _warm_states.clear()
    _plans.clear()
    STATS.reset()
