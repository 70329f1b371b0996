"""The ``vector`` plane: every simulation, run over operand columns.

A GA generation evaluates a whole population of genomes against one machine
configuration; a single program (``OutOfOrderCore.run``) is a population of
one.  Both reach this plane through ``VECTOR.run_many``
(:mod:`repro.uarch.kernel_backends`), with no setting to send them
elsewhere.  This plane removes per-op Python dispatch from the timing loop by
*lowering* each genome's dynamic instruction stream to precomputed columns
before the loop runs:

* **front-end column** — one stall penalty (0 or the miss penalty) per
  dynamic op, drawn from the frontend RNG stream in reference order;
* **mispredict column** — one bool per dynamic branch, produced by a flat
  integer replica of the tournament predictor driven over the whole branch
  trace at once (same RNG draws, same counter updates, no object dispatch);
* **memory columns** — per memory slot, the resolved address of every
  iteration, a plain int (``VectorHierarchy.access`` splits it into page,
  set, tag and word itself, so no access allocates).  Strided / line-cover
  / pointer-chase / fixed patterns are closed-form in the iteration and
  are computed in one comprehension per slot; random patterns replay
  ``pattern.resolve`` in exact reference draw order (the memory RNG stream
  is separate from the branch/front-end streams, so pre-resolving it
  wholesale cannot perturb any other stream).

The timing loop itself (:func:`vector_run`, the interpreted reference loop's
timing, cycle for cycle) then runs against a :class:`VectorHierarchy` — the
memory hierarchy's replacement, lifetime and residency state flattened to
per-slot integer columns with one inlined ``access`` method.  Warm-up is
deterministic, draws no RNG and runs entirely at cycle 0, so the state
``MemoryHierarchy.warm_region`` leaves behind for a program's one
``WarmupRegion`` is a closed-form function of it: each run's hierarchy
starts from a warm plan per cache (five numbers and one warmed line's word
row) and fills a cache set from that closed form the first time an access
reaches it, so a run pays only for the sets it touches.

Everything on the AVF path stays integer-exact: word lifetime state packs
``cycle * 8 + event_code * 2 + write_ace`` into one int, residency credits
are integer sums, and end-of-run credit for still-live ACE writes is the
closed form ``count * final_cycle - sum(start_cycles)`` maintained
incrementally.  The core structures' occupancy and ACE bit-cycles are not
summed op by op at all: the loop keeps each op's dispatch, issue, complete
and commit cycle, and after it each total is a closed form over per-slot
column sums, in integer half bit-cycles, converted to float once and
guarded to stay where a float holds it and the interpreter's op-by-op float
sum exactly (:data:`EXACT_HALVES`).  Results are bit-identical to the
interpreted reference (enforced by the differential matrix in
``tests/test_kernel_differential.py`` and the kernel-smoke and batch-smoke
byte-compares).

A stressmark's core timing repeats within a few iterations, long before
its memory state does.  So the loop proves, at a full-iteration boundary,
that the state it carries forward equals the state ``p <= REPEAT_PERIODS``
iterations earlier moved by one cycle offset, and from there on *fast
mode* re-makes only each block's memory accesses at the template block's
cycles plus the offset, checking every load's latency; a skipped block's
accounting is a closed form, and any changed input hands the loop back to
per-op simulation from the exact state (:func:`vector_run` gives the proof
entry by entry).  ``STATS`` counts the iterations skipped and why fast mode
ended.

Most of fast mode's accesses hit the line the access before reached (a
stressmark's stores and cover loads land on the line its chase load just
fetched), so the hierarchy keeps a *resident-line memo*: the DL1 line the
last call to ``access`` reached, with its DTLB slot and DL1 slot.  That
call has just filled or refreshed both the line and its page, and only
another call to ``access`` can evict either (its L2, L2-TLB and write-back
work touches neither), so the memo holds until the next one, which replaces
it.  Fast mode makes every access to the memo line inline — a DTLB hit and
a DL1 hit on local variables, with no lookup and no call — and calls
``access`` for every other line (:func:`_skip_blocks`).  The memo is keyed
on the line alone, so it is on only where a line cannot straddle two pages
(``page_bytes % line_bytes == 0``, every stock config).

Programs the lowering cannot express (bodies over :data:`MAX_KERNEL_BODY`,
runs over :data:`VECTOR_MAX_OPS`, more than one warm-up region, totals past
:data:`EXACT_HALVES`) run the interpreted reference instead, one program at
a time, counted in ``STATS.fallbacks`` and, per reason code, in
``STATS.fallback_reasons``.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Optional

from repro.isa.instructions import ARCH_REG_COUNT
from repro.isa.memoryref import (
    FixedPattern,
    LineCoverPattern,
    PointerChasePattern,
    StridedPattern,
)
from repro.uarch.pipeline import OutOfOrderCore, SimulationResult, SimulationStats
from repro.uarch.structures import StructureName
from repro.utils.rng import DeterministicRng
from repro.vuln.ledger import VulnerabilityLedger

if TYPE_CHECKING:  # pragma: no cover
    from repro.isa.program import Program
    from repro.memory.cache import CacheConfig
    from repro.memory.tlb import TlbConfig
    from repro.uarch.config import MachineConfig

#: Dynamic-op ceiling for column materialization (memory bound, not a
#: correctness bound — larger runs take the interpreter).
#
# Long programs (reference stressmark on ``baseline``, one fresh process per
# run, shared 2-core x86_64, Python 3.11.7, numpy 2.4.6; medians of
# alternating pairs, interpreter vs the deleted batch kernel):
#   600k ops: 3.09 vs 2.94 s (5 pairs), 4.03 vs 3.22 s (3 pairs); 75 vs 99 MB
#   1M ops:   5.53 vs 5.18 s (3 pairs), 7.00 vs 7.86 s (3 pairs)
# No benchmark program comes near this ceiling, so the interpreter is this
# plane's only fallback until windowed replay lifts it.
VECTOR_MAX_OPS = 500_000

#: Programs with more static body instructions than this take the
#: interpreter — bodies this large are not worth lowering to columns.
MAX_KERNEL_BODY = 4096


class Unvectorizable(Exception):
    """This program cannot be lowered to columns; use the interpreter.

    ``reason`` is a short code naming why, counted per code in
    ``STATS.fallback_reasons``.
    """

    def __init__(self, reason: str, message: str) -> None:
        super().__init__(message)
        self.reason = reason


class VectorStats:
    """In-process counters (observability for tests and the smoke gate).

    ``fallback_reasons`` counts fallbacks per :class:`Unvectorizable` reason
    code.  ``iterations`` counts the loop iterations of every vector run, a
    last partial one included, and ``iterations_fast_forwarded`` the share of
    them fast mode skipped; ``fast_forward_exits`` counts how fast mode
    ended, per cause: ``load_latency`` (a load's latency left the
    template's), ``input_slice`` (a block's mispredict or front-end slice
    did) or ``budget`` (no whole block was left).
    """

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.vector_runs = 0
        self.fallbacks = 0
        self.fallback_reasons: dict[str, int] = {}
        self.iterations = 0
        self.iterations_fast_forwarded = 0
        self.fast_forward_exits: dict[str, int] = {}


STATS = VectorStats()

#: (global_entries, local_entries, choice_entries) -> predictor template.
_predictor_templates: dict[tuple, tuple] = {}


def clear_vector_caches() -> None:
    """Drop the vector plane's in-process caches and reset its counters."""
    _predictor_templates.clear()
    STATS.reset()


def _unsupported(program: "Program") -> Optional[str]:
    """The reason code the column lowering refuses this program for, or None.

    Oversize bodies are not worth specializing.  The warm state has a closed
    form for one warm-up region, and every generated program declares
    exactly one.
    """
    if len(program.body) > MAX_KERNEL_BODY:
        return "oversize_body"
    if len(program.warmup_regions) > 1:
        return "several_warm_regions"
    return None


def supports_vector(program: "Program") -> bool:
    """Whether the column lowering can express this program at all."""
    return _unsupported(program) is None


# --------------------------------------------------------------- predictor


def _predictor_template(config: "MachineConfig") -> tuple:
    """Fresh flat tournament-predictor state for one config (copied lists).

    Mirrors :class:`repro.branch.predictors.HybridPredictor` construction:
    2-bit counters initialised to 2 (weakly taken), zeroed histories; the
    bimodal component masks its 12-bit global history, the local component
    keeps 10-bit histories indexing 1024 counters.
    """
    key = (
        config.branch_predictor_global_entries,
        config.branch_predictor_local_entries,
        config.branch_predictor_choice_entries,
    )
    template = _predictor_templates.get(key)
    if template is None:
        template = ([2] * key[0], [0] * key[1], [2] * 1024, [2] * key[2])
        _predictor_templates[key] = template
    global_table, local_histories, local_counters, choice_table = template
    return (
        list(global_table),
        list(local_histories),
        list(local_counters),
        list(choice_table),
    )


def _mispredict_column(
    config: "MachineConfig",
    body_infos: list,
    full_iters: int,
    tail_ops: int,
    last_iteration: int,
    branch_rng,
) -> list:
    """One mispredict bool per dynamic branch, in dynamic order.

    Replays the hybrid predictor update-for-update over the whole branch
    trace: outcome draw order (only non-loop-closing branches draw), choice
    update gating, counter saturation and history shifts all match
    :meth:`HybridPredictor.update` exactly.
    """
    branch_slots = [
        (index, info[16], bool(info[17]), info[18])
        for index, info in enumerate(body_infos)
        if info[5]
    ]
    if not branch_slots:
        return []
    global_table, local_histories, local_counters, choice_table = _predictor_template(config)
    global_index_mask = len(global_table) - 1
    local_history_mask = len(local_histories) - 1
    choice_mask = len(choice_table) - 1
    global_history = 0
    draw = branch_rng.raw().random
    mispredicts: list[bool] = []
    append = mispredicts.append

    def run_iteration(iteration: int, limit: Optional[int]) -> None:
        nonlocal global_history
        closing_taken = iteration < last_iteration
        for index, taken_probability, loop_closing, pc in branch_slots:
            if limit is not None and index >= limit:
                break
            taken = closing_taken if loop_closing else draw() < taken_probability
            gi = (pc ^ global_history) & global_index_mask
            global_prediction = global_table[gi] > 1
            hi = pc & local_history_mask
            history = local_histories[hi]
            local_prediction = local_counters[history] > 1
            ci = pc & choice_mask
            prediction = global_prediction if choice_table[ci] > 1 else local_prediction
            if global_prediction != local_prediction:
                if global_prediction == taken:
                    if choice_table[ci] < 3:
                        choice_table[ci] += 1
                elif choice_table[ci] > 0:
                    choice_table[ci] -= 1
            if taken:
                if global_table[gi] < 3:
                    global_table[gi] += 1
            elif global_table[gi] > 0:
                global_table[gi] -= 1
            global_history = ((global_history << 1) | taken) & 4095
            if taken:
                if local_counters[history] < 3:
                    local_counters[history] += 1
            elif local_counters[history] > 0:
                local_counters[history] -= 1
            local_histories[hi] = ((history << 1) | taken) & 1023
            append(prediction != taken)

    for iteration in range(full_iters):
        run_iteration(iteration, None)
    if tail_ops:
        run_iteration(full_iters, tail_ops)
    return mispredicts


# ------------------------------------------------------------ memory columns


def _closed_form_addresses(pattern, count: int) -> Optional[list]:
    """The addresses of iterations ``0 .. count-1`` of a closed-form pattern,
    or None.

    Eligibility is by *exact* type (subclasses may override ``resolve``);
    each comprehension is that pattern's ``resolve`` over the iterations.
    """
    kind = type(pattern)
    if kind is FixedPattern:
        return [pattern.address] * count
    if kind is StridedPattern or kind is PointerChasePattern:
        base, stride, region = pattern.base, pattern.stride, pattern.region
        return [base + (iteration * stride) % region for iteration in range(count)]
    if kind is LineCoverPattern:
        base, line_bytes, region = pattern.base, pattern.line_bytes, pattern.region
        word_bytes, slot, slots = pattern.word_bytes, pattern.slot, pattern.slots
        words_per_line = max(1, line_bytes // word_bytes)
        offset = pattern.iteration_offset
        effective = range(offset, offset + count)
        if offset < 0:  # iterations before -offset resolve at 0
            effective = [0] * min(-offset, count) + list(range(offset + count))
        return [
            base + (value * line_bytes) % region
            + (value * slots + slot) % words_per_line * word_bytes
            for value in effective
        ]
    return None


def _memory_columns(
    body_infos: list,
    full_iters: int,
    tail_ops: int,
    memory_rng,
) -> list:
    """Resolved address columns per body slot (None for non-memory ops).

    Each entry is a list of addresses indexed by iteration; the hierarchy
    splits an address into its page, set, tag and word itself.  Slots whose
    pattern draws randomness are resolved in the exact reference order —
    iteration-major, body order within an iteration — so the memory RNG
    stream is untouched.
    """
    columns: list = [None] * len(body_infos)
    address_lists: dict[int, list] = {}
    ordered: list[tuple] = []
    for index, info in enumerate(body_infos):
        is_nop, is_store = info[2], info[4]
        fixed_latency, pattern = info[14], info[15]
        issue_resolve = (not is_nop) and fixed_latency is None
        commit_resolve = is_store and pattern is not None
        if issue_resolve and commit_resolve:
            raise Unvectorizable("double_resolve", "op resolves its address twice per instance")
        if not (issue_resolve or commit_resolve):
            continue
        count = full_iters + (1 if index < tail_ops else 0)
        addresses = _closed_form_addresses(pattern, count)
        if addresses is None:
            ordered.append((index, pattern))
        else:
            address_lists[index] = addresses

    if ordered:
        rows: dict[int, list] = {index: [] for index, _ in ordered}
        resolvers = [(index, pattern, rows[index].append) for index, pattern in ordered]
        for iteration in range(full_iters):
            for _, pattern, append in resolvers:
                append(pattern.resolve(iteration, memory_rng))
        if tail_ops:
            for index, pattern, append in resolvers:
                if index < tail_ops:
                    append(pattern.resolve(full_iters, memory_rng))
        address_lists.update(rows)

    for index, addresses in address_lists.items():
        if addresses and min(addresses) < 0:
            # The reference raises on the first negative address; the
            # interpreter fallback reproduces that exact error.
            raise Unvectorizable("negative_address", "negative address stream")
        columns[index] = addresses
    return columns


def build_columns(
    config: "MachineConfig",
    body_infos: list,
    full_iters: int,
    tail_ops: int,
    last_iteration: int,
    memory_rng,
    branch_rng,
    frontend_rng,
    frontend_miss_rate: float,
    frontend_miss_penalty: int,
) -> tuple:
    """The whole pre-pass: (frontend, mispredict, memory) columns.

    Raises :class:`Unvectorizable` before any caller-visible state is
    touched — :func:`vector_run` calls this before it builds the run's
    hierarchy, so a failed lowering falls back to the interpreter cleanly.
    All three RNG streams are independent spawns, so draining each in its
    own pre-pass preserves every stream's reference draw sequence.
    """
    total_ops = full_iters * len(body_infos) + tail_ops
    if total_ops > VECTOR_MAX_OPS:
        raise Unvectorizable("over_budget", f"{total_ops} dynamic ops exceed the column budget")
    if frontend_miss_rate > 0.0:
        draw = frontend_rng.raw().random
        frontend = [
            frontend_miss_penalty if draw() < frontend_miss_rate else 0
            for _ in range(total_ops)
        ]
    else:
        frontend = None
    mispredicts = _mispredict_column(
        config, body_infos, full_iters, tail_ops, last_iteration, branch_rng
    )
    memory = _memory_columns(body_infos, full_iters, tail_ops, memory_rng)
    return frontend, mispredicts, memory


# --------------------------------------------------------- flat hierarchy


class VectorHierarchy:
    """DL1 + L2 + DTLB (+ L2 TLB) flattened to integer columns.

    One object per genome run.  Semantically a statement-for-statement
    replica of :meth:`MemoryHierarchy.access_parts` restricted to what the
    simulation result can observe: latencies, access and miss counts, the
    load-side L2 miss counter, and integer ACE cycle totals per structure.
    LRU victims are found by a first-minimum scan in dict insertion order —
    identical to the reference ``min()`` because neither implementation
    ever reorders entries in place.

    A word's lifetime state packs ``cycle * 8 + code`` (-1 = untouched):
    FILL=0, READ=2, WRITE=4, +1 when the recorded write was ACE.
    ``state & 7 == 5`` is therefore "ACE write still live" — the only
    terminal state that earns credit on eviction or finalize (-1 reads 7).

    ``access`` takes a plain address and splits it itself.  After each
    call, ``memo_line`` / ``memo_dtlb`` / ``memo_dl1`` name the DL1 line it
    reached, its DTLB slot and its DL1 slot, which stay resident until the
    next call (the module docstring says why); ``memo_on`` is False, and
    ``memo_line`` stays -1, where a line can straddle two pages.

    Set ``s`` of a cache owns slots ``s * ways`` to ``s * ways + ways - 1``.
    A set only grows until it is full, after which every miss reuses its
    victim's slot, so a set of ``n`` lines holds the first ``n`` of its
    slots and the next line of a non-full set takes slot ``s * ways + n``.
    Slot numbers are never observed (the LRU scan follows dict order).
    """

    __slots__ = (
        "memory_latency", "tlb_miss_penalty", "l2_tlb_hit_latency",
        "dl1_hit_latency", "l2_hit_latency", "dtlb_page_bytes",
        "dl1_line_bytes", "dl1_num_sets", "dl1_word_bytes", "dl1_assoc", "dl1_wpl",
        "dl1_plan", "dl1_blank",
        "l2_line_bytes", "l2_num_sets", "l2_word_bytes", "l2_assoc", "l2_wpl", "l2_plan",
        "l2_blank", "has_l2_tlb", "l2_tlb_page_bytes",
        "dl1_word_bits", "l2_word_bits", "dtlb_entry_bits", "l2_tlb_entry_bits",
        "dl1_sets", "dl1_line_no", "dl1_dirty", "dl1_dirty_ace", "dl1_lu",
        "dl1_ws", "dl1_accesses", "dl1_misses",
        "dl1_ace_cycles", "dl1_wa_count", "dl1_wa_sum",
        "l2_sets", "l2_lu", "l2_ws", "l2_accesses", "l2_misses",
        "l2_ace_cycles", "l2_wa_count", "l2_wa_sum",
        "dtlb_map", "dtlb_first", "dtlb_last", "dtlb_lu", "dtlb_rec",
        "dtlb_free", "dtlb_accesses", "dtlb_misses", "dtlb_ace_cycles",
        "l2_tlb_map", "l2_tlb_first", "l2_tlb_last", "l2_tlb_lu",
        "l2_tlb_rec", "l2_tlb_free", "l2_tlb_ace_cycles",
        "load_l2_misses", "memo_on", "memo_line", "memo_dtlb", "memo_dl1",
    )

    # Construction writes no warmed line: every cache set starts as None and
    # the first access that reaches it fills it from the warm plan, so a run
    # pays for the sets it touches.  On ``baseline`` (1 MB direct-mapped L2,
    # 16,384 sets) the 33 proxies at 2k ops fill a median of 756 L2 sets (at
    # most 999), and 24 GA-sampled genomes at 12k ops a median of 506
    # (254-1,144).  The memoized build this replaced wrote every set once
    # per footprint and copied every set on each run (costs per run in
    # PERFORMANCE.md, "Warm-up on first touch").
    def __init__(self, config: "MachineConfig", region: Optional[tuple]) -> None:
        """The hierarchy ``MemoryHierarchy.warm_region`` leaves after warming
        ``region`` (a :func:`warm_signature` entry; None: no warm-up).

        Warm-up runs at cycle 0, so every last use, access and miss counter,
        ACE total and ``wa_sum`` starts at 0; each ``wa_count`` starts at
        its cache's closed-form count of live ACE words, so :meth:`finalize`
        credits the warmed words of sets no access reached.
        """
        dl1, l2, l2_tlb = config.dl1, config.l2, config.l2_tlb
        self.memory_latency = config.memory_latency
        self.tlb_miss_penalty = config.tlb_miss_penalty
        self.l2_tlb_hit_latency = config.l2_tlb_hit_latency
        self.dl1_hit_latency = dl1.hit_latency
        self.l2_hit_latency = l2.hit_latency
        self.has_l2_tlb = l2_tlb is not None
        self.l2_tlb_page_bytes = l2_tlb.page_bytes if l2_tlb is not None else 0
        self.dl1_word_bits = dl1.word_bytes * 8
        self.l2_word_bits = l2.word_bytes * 8
        self.dtlb_entry_bits = config.dtlb.entry_bits
        self.l2_tlb_entry_bits = l2_tlb.entry_bits if l2_tlb is not None else 0
        self.load_l2_misses = 0
        self.dtlb_page_bytes = config.dtlb.page_bytes
        # The resident-line memo is keyed on the DL1 line alone, so it is on
        # only where no line straddles two pages (every stock config).
        self.memo_on = config.dtlb.page_bytes % dl1.line_bytes == 0
        self.memo_line = self.memo_dtlb = self.memo_dl1 = -1

        self.dl1_line_bytes = dl1.line_bytes
        self.dl1_num_sets = dl1.num_sets
        self.dl1_word_bytes = dl1.word_bytes
        self.dl1_assoc = dl1.associativity
        self.dl1_wpl = dl1.words_per_line
        self.dl1_plan = _warm_plan(dl1, region)
        self.dl1_blank = [-1] * dl1.words_per_line
        lines = dl1.num_lines
        self.dl1_sets = [None] * dl1.num_sets
        self.dl1_line_no = [0] * lines
        self.dl1_dirty = [False] * lines
        self.dl1_dirty_ace = [False] * lines
        self.dl1_lu = [0] * lines
        self.dl1_ws = [-1] * (lines * dl1.words_per_line)
        self.dl1_wa_count = self.dl1_plan[4]
        self.dl1_accesses = self.dl1_misses = self.dl1_ace_cycles = self.dl1_wa_sum = 0

        self.l2_line_bytes = l2.line_bytes
        self.l2_num_sets = l2.num_sets
        self.l2_word_bytes = l2.word_bytes
        self.l2_assoc = l2.associativity
        self.l2_wpl = l2.words_per_line
        self.l2_plan = _warm_plan(l2, region)
        self.l2_blank = [-1] * l2.words_per_line
        self.l2_sets = [None] * l2.num_sets
        self.l2_lu = [0] * l2.num_lines
        self.l2_ws = [-1] * (l2.num_lines * l2.words_per_line)
        self.l2_wa_count = self.l2_plan[4]
        self.l2_accesses = self.l2_misses = self.l2_ace_cycles = self.l2_wa_sum = 0

        (self.dtlb_map, self.dtlb_first, self.dtlb_last, self.dtlb_rec,
         self.dtlb_free) = _warm_tlb(config.dtlb, region)
        self.dtlb_lu = [0] * config.dtlb.entries
        self.dtlb_accesses = self.dtlb_misses = self.dtlb_ace_cycles = 0
        if l2_tlb is not None:
            (self.l2_tlb_map, self.l2_tlb_first, self.l2_tlb_last, self.l2_tlb_rec,
             self.l2_tlb_free) = _warm_tlb(l2_tlb, region)
            self.l2_tlb_lu = [0] * l2_tlb.entries
            self.l2_tlb_ace_cycles = 0

    def _warm_dl1_set(self, set_index: int) -> dict:
        """DL1 set ``set_index`` as warm-up left it, filled on first touch."""
        cache_set = _warm_set(
            self.dl1_plan, set_index, self.dl1_num_sets, self.dl1_assoc, self.dl1_wpl,
            self.dl1_ws,
        )
        _, _, words, state, _, _ = self.dl1_plan
        dirty = words > 0 and state >= 4
        dirty_ace = words > 0 and state == 5
        for tag, slot in cache_set.items():
            self.dl1_line_no[slot] = tag * self.dl1_num_sets + set_index
            self.dl1_dirty[slot] = dirty
            self.dl1_dirty_ace[slot] = dirty_ace
        self.dl1_sets[set_index] = cache_set
        return cache_set

    def _warm_l2_set(self, set_index: int) -> dict:
        """L2 set ``set_index`` as warm-up left it, filled on first touch."""
        cache_set = self.l2_sets[set_index] = _warm_set(
            self.l2_plan, set_index, self.l2_num_sets, self.l2_assoc, self.l2_wpl, self.l2_ws
        )
        return cache_set

    def access(self, address: int, is_write: bool, cycle: int, ace: bool) -> int:
        """One memory access; returns its latency.  Leaves the memo on the
        line it reached (when the memo is on)."""
        # ---- DTLB (Tlb.access)
        self.dtlb_accesses += 1
        page = address // self.dtlb_page_bytes
        dtlb_map = self.dtlb_map
        dtlb_slot = dtlb_map.get(page)
        if dtlb_slot is not None:
            self.dtlb_lu[dtlb_slot] = cycle
            if ace:
                if self.dtlb_first[dtlb_slot] < 0:
                    self.dtlb_first[dtlb_slot] = cycle
                self.dtlb_last[dtlb_slot] = cycle
            latency = 0
        else:
            self.dtlb_misses += 1
            free = self.dtlb_free
            if not free:
                lu = self.dtlb_lu
                best = None
                victim_page = victim_slot = -1
                for entry_page, entry_slot in dtlb_map.items():
                    value = lu[entry_slot]
                    if best is None or value < best:
                        best = value
                        victim_page = entry_page
                        victim_slot = entry_slot
                del dtlb_map[victim_page]
                first = self.dtlb_first[victim_slot]
                if first >= 0:
                    duration = self.dtlb_last[victim_slot] - first
                    if duration > 0:
                        self.dtlb_ace_cycles += duration
                free.append(victim_slot)
            dtlb_slot = free.pop()
            dtlb_map[page] = dtlb_slot
            if ace:
                self.dtlb_first[dtlb_slot] = cycle
                self.dtlb_last[dtlb_slot] = cycle
            else:
                self.dtlb_first[dtlb_slot] = -1
                self.dtlb_last[dtlb_slot] = -1
            self.dtlb_lu[dtlb_slot] = cycle
            self.dtlb_rec[dtlb_slot] = False
            if self.has_l2_tlb and self._l2_tlb_access(address, cycle, ace):
                latency = self.l2_tlb_hit_latency
            else:
                latency = self.tlb_miss_penalty

        # ---- DL1 (Cache.access_parts)
        self.dl1_accesses += 1
        line_bytes = self.dl1_line_bytes
        line_number = address // line_bytes
        set_index = line_number % self.dl1_num_sets
        tag = line_number // self.dl1_num_sets
        word = address % line_bytes // self.dl1_word_bytes
        cache_set = self.dl1_sets[set_index]
        if cache_set is None:
            cache_set = self._warm_dl1_set(set_index)
        slot = cache_set.get(tag)
        ws = self.dl1_ws
        evicted_dirty = False
        evicted_address = 0
        evicted_ace = False
        if slot is None:
            self.dl1_misses += 1
            if len(cache_set) >= self.dl1_assoc:
                lu = self.dl1_lu
                best = None
                victim_tag = victim_slot = -1
                for entry_tag, entry_slot in cache_set.items():
                    value = lu[entry_slot]
                    if best is None or value < best:
                        best = value
                        victim_tag = entry_tag
                        victim_slot = entry_slot
                del cache_set[victim_tag]
                wpl = self.dl1_wpl
                base = victim_slot * wpl
                for state in ws[base:base + wpl]:
                    if state & 7 == 5:  # a live ACE write (-1, untouched, is 7)
                        start = state >> 3
                        self.dl1_wa_count -= 1
                        self.dl1_wa_sum -= start
                        duration = cycle - start
                        if duration > 0:
                            self.dl1_ace_cycles += duration
                ws[base:base + wpl] = self.dl1_blank
                if self.dl1_dirty[victim_slot]:
                    evicted_dirty = True
                    evicted_address = self.dl1_line_no[victim_slot] * line_bytes
                    evicted_ace = self.dl1_dirty_ace[victim_slot]
                slot = victim_slot
            else:
                slot = set_index * self.dl1_assoc + len(cache_set)
            cache_set[tag] = slot
            self.dl1_line_no[slot] = line_number
            self.dl1_dirty[slot] = False
            self.dl1_dirty_ace[slot] = False
            index = slot * self.dl1_wpl + word
            ws[index] = cycle * 8  # eager fill of the accessed word
            hit = False
        else:
            hit = True
            index = slot * self.dl1_wpl + word
            if ws[index] < 0:
                ws[index] = cycle * 8  # lazy fill of an untouched word
        self.dl1_lu[slot] = cycle
        state = ws[index]
        if state & 7 == 5:
            self.dl1_wa_count -= 1
            self.dl1_wa_sum -= state >> 3
        if is_write:
            if ace:
                ws[index] = cycle * 8 + 5
                self.dl1_wa_count += 1
                self.dl1_wa_sum += cycle
            else:
                ws[index] = cycle * 8 + 4
            self.dl1_dirty[slot] = True
            if ace:
                self.dl1_dirty_ace[slot] = True
        else:
            if ace:
                duration = cycle - (state >> 3)
                if duration > 0:
                    self.dl1_ace_cycles += duration
            ws[index] = cycle * 8 + 2 + (state & 1)
        if self.memo_on:
            # Line and page are resident now, and only the next call to this
            # method can evict either: the L2 work below touches neither.
            self.memo_line = line_number
            self.memo_dtlb = dtlb_slot
            self.memo_dl1 = slot

        latency += self.dl1_hit_latency
        if not hit:
            l2_hit = self._l2_access(address, False, cycle, ace)
            latency += self.l2_hit_latency
            if not l2_hit:
                latency += self.memory_latency
                if not is_write:
                    self.load_l2_misses += 1
        if evicted_dirty:
            # Dirty DL1 victim written back into the L2 (after the line fill,
            # exactly the reference's ordering).
            self._l2_access(evicted_address, True, cycle, evicted_ace)
        return latency

    def _l2_access(self, address: int, is_write: bool, cycle: int, ace: bool) -> bool:
        """L2 probe; returns hit.  Dirty L2 victims go to memory untracked."""
        self.l2_accesses += 1
        line_address = address // self.l2_line_bytes
        num_sets = self.l2_num_sets
        set_index = line_address % num_sets
        tag = line_address // num_sets
        word = (address % self.l2_line_bytes) // self.l2_word_bytes
        cache_set = self.l2_sets[set_index]
        if cache_set is None:
            cache_set = self._warm_l2_set(set_index)
        slot = cache_set.get(tag)
        ws = self.l2_ws
        if slot is None:
            self.l2_misses += 1
            if len(cache_set) >= self.l2_assoc:
                lu = self.l2_lu
                best = None
                victim_tag = victim_slot = -1
                for entry_tag, entry_slot in cache_set.items():
                    value = lu[entry_slot]
                    if best is None or value < best:
                        best = value
                        victim_tag = entry_tag
                        victim_slot = entry_slot
                del cache_set[victim_tag]
                wpl = self.l2_wpl
                base = victim_slot * wpl
                for state in ws[base:base + wpl]:
                    if state & 7 == 5:
                        start = state >> 3
                        self.l2_wa_count -= 1
                        self.l2_wa_sum -= start
                        duration = cycle - start
                        if duration > 0:
                            self.l2_ace_cycles += duration
                ws[base:base + wpl] = self.l2_blank
                slot = victim_slot
            else:
                slot = set_index * self.l2_assoc + len(cache_set)
            cache_set[tag] = slot
            index = slot * self.l2_wpl + word
            ws[index] = cycle * 8
            hit = False
        else:
            hit = True
            index = slot * self.l2_wpl + word
            if ws[index] < 0:
                ws[index] = cycle * 8
        self.l2_lu[slot] = cycle
        state = ws[index]
        if state & 7 == 5:
            self.l2_wa_count -= 1
            self.l2_wa_sum -= state >> 3
        if is_write:
            if ace:
                ws[index] = cycle * 8 + 5
                self.l2_wa_count += 1
                self.l2_wa_sum += cycle
            else:
                ws[index] = cycle * 8 + 4
        else:
            if ace:
                duration = cycle - (state >> 3)
                if duration > 0:
                    self.l2_ace_cycles += duration
            ws[index] = cycle * 8 + 2 + (state & 1)
        return hit

    def _l2_tlb_access(self, address: int, cycle: int, ace: bool) -> bool:
        """Second-level TLB probe (Tlb.access; stats are unobservable)."""
        page = address // self.l2_tlb_page_bytes
        tlb_map = self.l2_tlb_map
        slot = tlb_map.get(page)
        if slot is not None:
            self.l2_tlb_lu[slot] = cycle
            if ace:
                if self.l2_tlb_first[slot] < 0:
                    self.l2_tlb_first[slot] = cycle
                self.l2_tlb_last[slot] = cycle
            return True
        free = self.l2_tlb_free
        if not free:
            lu = self.l2_tlb_lu
            best = None
            victim_page = victim_slot = -1
            for entry_page, entry_slot in tlb_map.items():
                value = lu[entry_slot]
                if best is None or value < best:
                    best = value
                    victim_page = entry_page
                    victim_slot = entry_slot
            del tlb_map[victim_page]
            first = self.l2_tlb_first[victim_slot]
            if first >= 0:
                duration = self.l2_tlb_last[victim_slot] - first
                if duration > 0:
                    self.l2_tlb_ace_cycles += duration
            free.append(victim_slot)
        slot = free.pop()
        tlb_map[page] = slot
        if ace:
            self.l2_tlb_first[slot] = cycle
            self.l2_tlb_last[slot] = cycle
        else:
            self.l2_tlb_first[slot] = -1
            self.l2_tlb_last[slot] = -1
        self.l2_tlb_lu[slot] = cycle
        self.l2_tlb_rec[slot] = False
        return False

    def finalize(self, cycle: int) -> None:
        """End-of-run credit (MemoryHierarchy.finalize, closed form).

        Live ACE-write words credit ``cycle - start`` each; the loop over
        words is replaced by the incrementally maintained ``count * cycle -
        sum(starts)`` (every start is <= cycle, so the positive-duration
        gate is vacuous and the sum is exact integer arithmetic).  TLB
        entries retire individually — recurrent entries extend their ACE
        window to the end of the run first, exactly like ``Tlb.finalize``.
        """
        self.dl1_ace_cycles += self.dl1_wa_count * cycle - self.dl1_wa_sum
        self.l2_ace_cycles += self.l2_wa_count * cycle - self.l2_wa_sum
        first, last, rec = self.dtlb_first, self.dtlb_last, self.dtlb_rec
        for slot in self.dtlb_map.values():
            start = first[slot]
            if rec[slot] and start >= 0 and last[slot] < cycle:
                last[slot] = cycle
            if start >= 0:
                duration = last[slot] - start
                if duration > 0:
                    self.dtlb_ace_cycles += duration
        self.dtlb_map.clear()
        if self.has_l2_tlb:
            first, last, rec = self.l2_tlb_first, self.l2_tlb_last, self.l2_tlb_rec
            for slot in self.l2_tlb_map.values():
                start = first[slot]
                if rec[slot] and start >= 0 and last[slot] < cycle:
                    last[slot] = cycle
                if start >= 0:
                    duration = last[slot] - start
                    if duration > 0:
                        self.l2_tlb_ace_cycles += duration
            self.l2_tlb_map.clear()


def install_trackers(ledger, hierarchy: VectorHierarchy) -> None:
    """Fold the flat hierarchy's ACE totals into a fresh ledger.

    A fresh ledger has no word/residency trackers registered, so
    ``collect()`` folds nothing for the storage structures; this performs
    the exact same single ``add_bit_cycles`` per account that the reference
    trackers' fold would (one float multiply per structure, from zero).
    """
    ledger.account("dl1").add_bit_cycles(
        float(hierarchy.dl1_ace_cycles) * hierarchy.dl1_word_bits
    )
    ledger.account("l2").add_bit_cycles(
        float(hierarchy.l2_ace_cycles) * hierarchy.l2_word_bits
    )
    ledger.account("dtlb").add_bit_cycles(
        float(hierarchy.dtlb_ace_cycles) * hierarchy.dtlb_entry_bits
    )
    if hierarchy.has_l2_tlb:
        ledger.account("l2_tlb").add_bit_cycles(
            float(hierarchy.l2_tlb_ace_cycles) * hierarchy.l2_tlb_entry_bits
        )


# ------------------------------------------------------------- warm building


def _warm_plan(cache: "CacheConfig", region: Optional[tuple]) -> tuple:
    """``(first_line, count, words, state, live, row)``: what warming
    ``region`` (``None``: nothing) leaves in one cache.

    ``MemoryHierarchy.warm_region`` walks only the tail of the region the
    cache can hold, counted in the cache's own lines: ``count`` consecutive
    lines from line number ``first_line``.  It writes the ``words`` leading
    words of each line in packed word state ``state`` at cycle 0: 5 for
    dirty ACE data, 4 for dirty un-ACE data, 0 for clean fills; ``row`` is
    one warmed line's packed words.  ``count`` never exceeds the cache's
    lines, so warm-up evicts nothing and ``live``, the number of live ACE
    words it leaves, is ``count * words`` when ``state`` is 5.
    """
    wpl = cache.words_per_line
    if region is None:
        return 0, 0, 0, 0, 0, [-1] * wpl
    base, size_bytes, dirty, ace, word_fraction, _ = region
    span = min(size_bytes, cache.size_bytes)
    count = len(range(size_bytes - span, size_bytes, cache.line_bytes))
    words = int(round(word_fraction * wpl))
    state = (5 if ace else 4) if dirty else 0
    return (
        (base + size_bytes - span) // cache.line_bytes,
        count,
        words,
        state,
        count * words if state == 5 else 0,
        [state] * words + [-1] * (wpl - words),
    )


def _warm_set(plan: tuple, set_index: int, num_sets: int, ways: int, wpl: int, ws: list) -> dict:
    """``{tag: slot}`` of one set after the warm-up ``plan``; writes the
    warmed words of its lines into ``ws``.

    The plan's lines deal round-robin over the sets, so this set holds
    every ``num_sets``-th of them from the first that maps to it (no more
    than ``ways``, as the plan never exceeds the cache's lines), in arrival
    order (all have last use 0), in its first slots.
    """
    first_line, count, words, _, _, row = plan
    offset = (set_index - first_line) % num_sets  # region index of the set's first line
    if offset >= count:
        return {}
    lines = (count - 1 - offset) // num_sets + 1
    tag = (first_line + offset) // num_sets
    slot = set_index * ways
    if words:  # the set's slots are fresh: every word still -1
        ws[slot * wpl:(slot + lines) * wpl] = row if lines == 1 else row * lines
    if lines == 1:  # every set of a cache the region covers at most once
        return {tag: slot}
    return {tag + way: slot + way for way in range(lines)}


def _warm_tlb(tlb: "TlbConfig", region) -> tuple:
    """``(tlb_map, first, last, recurrent, free)`` of one TLB after warm-up.

    ``Tlb.warm_page`` once per page over the tail of ``region`` the TLB
    reaches.  Both TLBs share the DTLB's page size, so that tail is at most
    ``entries`` consecutive pages and nothing is evicted: page ``i`` of it
    takes slot ``i``, ACE from cycle 0 when the region is.
    """
    capacity = tlb.entries
    count, first_page, ace, recurrent = 0, 0, False, False
    if region is not None:
        base, size_bytes, _, ace, _, recurrent = region
        offsets = range(size_bytes - min(size_bytes, tlb.reach_bytes), size_bytes, tlb.page_bytes)
        count, first_page = len(offsets), (base + offsets.start) // tlb.page_bytes
    ace_use = [0 if ace else -1] * count + [-1] * (capacity - count)
    return (
        dict(zip(range(first_page, first_page + count), range(count))),
        ace_use,
        ace_use.copy(),
        [recurrent] * count + [False] * (capacity - count),
        list(range(capacity - 1, count - 1, -1)),
    )


def warm_signature(program: "Program") -> tuple:
    """The warm-up footprint of a program: one ``(base, size_bytes, dirty,
    ace, word_fraction, recurrent)`` tuple per region."""
    return tuple(
        (region.base, region.size_bytes, region.dirty, region.ace,
         region.word_fraction, region.recurrent)
        for region in program.warmup_regions
    )


# ------------------------------------------------------------------ running

#: Ops a window of the cycle columns holds before they fold into per-slot
#: sums at the next iteration boundary, so a long run's columns stay bounded
#: by the window.  GA genomes and the workload proxies never fold.
FOLD_OPS = 1 << 15

#: Longest period, in iterations, over which the loop looks for a repeat of
#: its state.  Every stressmark of the survey in PERFORMANCE.md
#: ("Fast-forward through repeating iterations") repeats with a period of 1-4.
REPEAT_PERIODS = 8

#: Every accounting total is an exact integer in half bit-cycles.  Below this
#: many, a float holds it and every partial sum of the interpreter's op-by-op
#: float additions exactly; a run past it takes the interpreter.
EXACT_HALVES = 1 << 53

#: The packed issue ring keeps one int per cycle with four fields of this many
#: bits: ops issued, memory ports, multipliers and ALUs in use.  A field for a
#: limit ``w`` starts at ``_RING_GUARD - w``, so it is full exactly when its
#: guard bit is set.
_RING_FIELD = 7
_RING_GUARD = 1 << (_RING_FIELD - 1)


def _add_slot_sums(slot_sums: list, column: list, start: int) -> None:
    """Add ``sum(column[start + s :: body_len])`` to ``slot_sums[s]`` for every
    body slot ``s`` (``body_len = len(slot_sums)``).

    A column starts at an iteration boundary, so every ``body_len``-th op
    from ``start + s`` is an instance of slot ``s``, a last partial iteration
    included.
    """
    body_len = len(slot_sums)
    for slot in range(body_len):
        slot_sums[slot] += sum(column[start + slot::body_len])


def _relative(column: list, start: int, size: int, disp: int) -> list:
    """``column[start:start + size]`` relative to the dispatch cycle ``disp``;
    a cycle at or below it reads 0, as it can never bind again."""
    return [cycle - disp if cycle > disp else 0 for cycle in column[start:start + size]]


def _block_sums(column: list, start: int, stop: int, body_len: int) -> list:
    """Per body slot, the sum of ``column[start:stop]``'s instances of it
    (``start`` at an iteration boundary)."""
    return [sum(column[start + index:stop:body_len]) for index in range(body_len)]


def _move(column: list, moved: int) -> None:
    """Move every cycle of ``column`` ``moved`` cycles later, in place."""
    column[:] = [cycle + moved for cycle in column]


def _move_issues(issue_col: list, disp: int, moved: int, ring_tag: list, ring_count: list,
                 ring_mask: int, slots: list) -> list:
    """Move the live issues of the issue window ``issue_col`` (the last
    ``rob_entries`` issues before an iteration boundary whose dispatch cycle
    is ``disp``) ``moved`` cycles later in the issue ring; returns them,
    moved, as the IQ heap.

    Live means past ``disp``.  Every live ring cycle and IQ entry is the
    issue of an op in the window, so clearing the window's live cycles
    leaves only dead tags in the ring; each moved cycle then counts its ops
    as the per-op loop would.  The window itself is moved by the caller.
    """
    body_len = len(slots)
    for cycle in issue_col:
        if cycle > disp:
            ring_tag[cycle & ring_mask] = -1
    live = []
    for position, cycle in enumerate(issue_col, -len(issue_col)):
        if cycle > disp:
            cycle += moved
            live.append(cycle)
            slot = cycle & ring_mask
            if ring_tag[slot] == cycle:
                ring_count[slot] += slots[position % body_len][13]
            else:
                ring_tag[slot] = cycle
                ring_count[slot] = slots[position % body_len][14]
    live.sort()
    return live


def _prove_repeat(before: tuple, after: tuple, windows: list) -> Optional[tuple]:
    """``(shift, moving_ready, moving_read)`` when the loop state marked
    ``after`` is the state marked ``before`` moved ``shift`` cycles later,
    else None: the proof of :func:`vector_run`'s docstring, entry by entry.

    ``windows`` holds ``(column, start_before, start_after, size)`` per
    commit and issue window.  The moving lists name the registers whose
    ready or last-read cycle moved by ``shift``; every other one held still
    at or below ``before``'s dispatch cycle.
    """
    (_, _, _, _, _, disp_a, count_a, last_a, commits_a, resume_a, ring_a,
     _, _, _, ready_a, read_a, halves_a) = before
    (_, _, _, _, _, disp_b, count_b, last_b, commits_b, resume_b, ring_b,
     _, _, _, ready_b, read_b, halves_b) = after
    shift = disp_b - disp_a
    if (
        shift <= 0 or count_a != count_b or commits_a != commits_b or ring_a != ring_b
        or last_a - disp_a != last_b - disp_b or halves_a != halves_b
        or max(resume_a - disp_a, 0) != max(resume_b - disp_b, 0)
    ):
        return None
    for column, start_a, start_b, size in windows:
        if _relative(column, start_a, size, disp_a) != _relative(column, start_b, size, disp_b):
            return None
    moving = ([], [])
    for regs, old, new in zip(moving, (ready_a, read_a), (ready_b, read_b)):
        for reg, (cycle_a, cycle_b) in enumerate(zip(old, new)):
            if cycle_b == cycle_a + shift:
                regs.append(reg)
            elif cycle_b != cycle_a or cycle_a > disp_a:
                return None
    return shift, moving[0], moving[1]


def _template_accesses(slots: list, start: int, period: int, rob_entries: int,
                       issue_col: list, complete_col: list, commit_col: list) -> list:
    """The memory accesses of the template block (``period`` iterations from
    op ``start`` of the fold window) in the order the per-op loop made them:
    ``(column, iteration offset, is_write, cycle, ace, latency)``, a load at
    its issue with its latency, a store at its commit with None."""
    body_len = len(slots)
    accesses = []
    for offset in range(period):
        for index, slot in enumerate(slots):
            op = start + offset * body_len + index
            if slot[9] is None:  # a load or prefetch: its fixed latency is None
                issue = issue_col[rob_entries + op]
                accesses.append((slot[10], offset, False, issue, slot[7], complete_col[op] - issue))
            elif slot[11] is not None:
                accesses.append((slot[11], offset, True, commit_col[rob_entries + op], slot[7], None))
    return accesses


def _skip_blocks(access, accesses: list, iteration: int, period: int, full_iters: int,
                 shift: int, mispredict_col: list, branch_index: int, mispredicts: list,
                 frontend_col: Optional[list], frontend: Optional[list]) -> tuple:
    """Fast mode: each block of ``period`` iterations from ``iteration`` on
    is the template block moved a further ``shift`` cycles, so only its
    memory accesses are made, at their moved cycles.

    An access to the hierarchy's memo line (``access`` is its bound
    :meth:`VectorHierarchy.access`) is made here, inline: exactly what
    ``access`` does for a DTLB hit followed by a DL1 hit, at the DL1 hit
    latency, its additive counters summed in locals and added back on exit.
    Every other access calls ``access``, which moves the memo to its line.

    A block runs only if it ends within ``full_iters`` and its slice of the
    mispredict column (and of the front-end column, if any) equals the
    template's, and it counts only if each load's latency equals the
    template's.  Returns ``(blocks, cause, calls)``: the blocks completed,
    the exit cause (``budget``, ``input_slice`` or ``load_latency``) and,
    for ``load_latency``, every access already made in the block it left,
    inline ones included, as ``(address, is_write, cycle, latency)``, the
    last with its true latency.
    """
    hierarchy = access.__self__
    line_bytes = hierarchy.dl1_line_bytes
    word_bytes = hierarchy.dl1_word_bytes
    wpl = hierarchy.dl1_wpl
    hit_latency = hierarchy.dl1_hit_latency
    tlb_lu, tlb_first, tlb_last = hierarchy.dtlb_lu, hierarchy.dtlb_first, hierarchy.dtlb_last
    lu, ws = hierarchy.dl1_lu, hierarchy.dl1_ws
    dirty, dirty_ace = hierarchy.dl1_dirty, hierarchy.dl1_dirty_ace
    memo_line, memo_tlb, memo_slot = hierarchy.memo_line, hierarchy.memo_dtlb, hierarchy.memo_dl1
    hits = wa_count = wa_sum = ace_cycles = 0
    branches = len(mispredicts)
    ops = len(frontend) if frontend is not None else 0
    blocks = 0
    front = 0
    moved = shift
    cause, calls = "budget", None
    while iteration + period <= full_iters:
        if mispredict_col[branch_index:branch_index + branches] != mispredicts or (
            frontend is not None and frontend_col[front:front + ops] != frontend
        ):
            cause = "input_slice"
            break
        for entry in accesses:
            column, offset, is_write, cycle, ace, latency = entry
            address = column[iteration + offset]
            cycle += moved
            if address // line_bytes == memo_line:
                hits += 1
                tlb_lu[memo_tlb] = cycle
                if ace:
                    if tlb_first[memo_tlb] < 0:
                        tlb_first[memo_tlb] = cycle
                    tlb_last[memo_tlb] = cycle
                lu[memo_slot] = cycle
                index = memo_slot * wpl + address % line_bytes // word_bytes
                state = ws[index]
                if state < 0:
                    state = cycle * 8  # lazy fill of an untouched word
                elif state & 7 == 5:
                    wa_count -= 1
                    wa_sum -= state >> 3
                if is_write:
                    dirty[memo_slot] = True
                    if ace:
                        ws[index] = cycle * 8 + 5
                        wa_count += 1
                        wa_sum += cycle
                        dirty_ace[memo_slot] = True
                    else:
                        ws[index] = cycle * 8 + 4
                    continue
                if ace:
                    duration = cycle - (state >> 3)
                    if duration > 0:
                        ace_cycles += duration
                ws[index] = cycle * 8 + 2 + (state & 1)
                if latency == hit_latency:
                    continue
                actual = hit_latency
            else:
                actual = access(address, is_write, cycle, ace)
                memo_line, memo_tlb, memo_slot = (
                    hierarchy.memo_line, hierarchy.memo_dtlb, hierarchy.memo_dl1
                )
                if is_write or actual == latency:
                    continue
            made = accesses[:next(n for n, e in enumerate(accesses) if e is entry) + 1]
            calls = [(made_column[iteration + made_offset], made_write, made_cycle + moved,
                      made_latency)
                     for made_column, made_offset, made_write, made_cycle, _, made_latency
                     in made]
            calls[-1] = calls[-1][:3] + (actual,)
            cause = "load_latency"
            break
        else:
            blocks += 1
            iteration += period
            branch_index += branches
            front += ops
            moved += shift
            continue
        break
    hierarchy.dtlb_accesses += hits
    hierarchy.dl1_accesses += hits
    hierarchy.dl1_wa_count += wa_count
    hierarchy.dl1_wa_sum += wa_sum
    hierarchy.dl1_ace_cycles += ace_cycles
    return blocks, cause, calls


class _Replay:
    """The hierarchy's ``access`` while the per-op loop re-runs a block fast
    mode left part-way: the calls fast mode already made, inline hits
    included, are answered from their results, in order, and must come with
    the same address, kind and cycle; every later call goes to the
    hierarchy.  No access is made twice.
    """

    __slots__ = ("calls", "access")

    def __init__(self, calls: list, access) -> None:
        self.calls = calls[::-1]
        self.access = access

    def __call__(self, address: int, is_write: bool, cycle: int, ace: bool):
        if not self.calls:
            return self.access(address, is_write, cycle, ace)
        expected = self.calls.pop()
        if expected[:3] != (address, is_write, cycle):
            raise RuntimeError(
                f"fast-forward replay diverged: expected {expected[:3]!r}, "
                f"got {(address, is_write, cycle)!r}"
            )
        return expected[3]


def vector_run(core, program: "Program", max_instructions: int):
    """Simulate one program on operand columns.

    The reference loop of :meth:`OutOfOrderCore.run_interpreted
    <repro.uarch.pipeline.OutOfOrderCore.run_interpreted>`, except that every
    per-op stochastic or object-dispatched input is a column read from
    :func:`build_columns` — front-end stall, branch outcome, resolved
    address — and the memory hierarchy is the flat :class:`VectorHierarchy`
    warmed with the program's one region.

    Bit-identity contract: the reference's RNG draw order, probe cycles and
    per-op cycles.  The loop adds no float.  It records each op's dispatch,
    issue, complete and commit cycle in columns; after the loop every core
    structure's occupancy and ACE bit-cycles are closed forms over per-slot
    column sums (FU and store-buffer time is static per slot, register
    lifetimes are summed in the loop), exact integers in half bit-cycles
    because every operand fraction is 0, 0.5 or 1, each converted to float
    once.  Each term the interpreter adds is a non-negative multiple of 0.5,
    so while a total stays below :data:`EXACT_HALVES` half-units none of its
    float partial sums rounds and both give the same float.  A run past that
    bound, a non-integer ``bits_per_entry``, FU latency or drain, or another
    fraction raises :class:`Unvectorizable` and takes the interpreter.

    The structural queues are commit columns pre-sized with ``rob_entries``
    / ``lq_entries`` / ``sq_entries`` / ``free_rename`` zeros, so each
    constraint is one indexed compare with the entry that many back: commit
    cycles are monotone (each commit is clamped to the last), and the
    reference's rename heap never holds more than ``free_rename`` commits.
    The IQ keeps a real heap (issue cycles are not monotone), drained only
    when it holds ``iq_entries`` issues: dispatch is monotone, so an issue
    at or before one dispatch is at or before every later one.  The five
    issue rings are two: the cycle tag and one packed count per cycle.

    Fast-forward.  A stressmark's timing repeats long before its memory
    state does, so at a full-iteration boundary ``B`` the loop proves that
    the state it carries forward is the state at the boundary ``A`` of
    ``p <= REPEAT_PERIODS`` iterations earlier, moved ``D = disp_cycle(B) -
    disp_cycle(A) > 0`` cycles later (:func:`_prove_repeat`).  The state,
    entry by entry:

    * moved by exactly ``D``: ``disp_cycle``; ``last_commit_cycle``; the
      ROB, LQ, SQ and rename windows (the last ``rob_entries``,
      ``lq_entries``, ``sq_entries`` and ``free_rename`` commits the
      constraints read); the issue window (the last ``rob_entries`` issues);
    * equal: ``disp_count``, ``commit_count``, ``ring_size`` and every
      ``reg_halves`` entry;
    * ``fetch_resume_cycle``: moved by ``D``, or at or below the boundary's
      ``disp_cycle`` at both;
    * each ``reg_ready`` and ``reg_last_read`` entry: moved by ``D``, or
      equal and at or below ``A``'s ``disp_cycle``.

    A cycle at or below the boundary's ``disp_cycle`` never binds again:
    dispatch is monotone and the loop only tests ``> dispatch`` or takes
    ``max(dispatch + 1, ...)``, so window entries there compare as equal.
    Registers are stricter, because they also feed the register-file
    account: a ready or last-read cycle that holds still must be at or
    below ``A``'s dispatch cycle, so every later read (issued past it) wins
    the last-read maximum and a lifetime that closes takes the same
    difference in every block.  The IQ heap and the issue ring need no entry
    of their own: an op older than the issue window issued before the op
    ``rob_entries`` later dispatched, at or below the boundary, so the live
    heap entries and ring cycles (those past ``disp_cycle``) are the issue
    window's, and the window fixes them.  That is the whole state: every
    other local is a position in a column, an input column or an
    accounting sum.

    Why a proved state is enough: each step of the loop adds constants to
    cycles, takes maxima or compares cycles, so moving every live cycle by
    ``D`` moves every output by ``D``, provided each block's inputs match
    the template block ``(A, B]``'s — its slice of the mispredict column,
    of the front-end column when there is one, and every load's latency.
    From ``B`` on, each block of ``p`` iterations is then the template's
    cycles plus ``k * D`` for its ``k``, and fast mode (:func:`_skip_blocks`)
    only re-makes its memory accesses, in body order, a load at its
    template issue and a store at its template commit plus ``k * D``,
    checking each load's latency: inline for the hierarchy's memo line,
    through ``VectorHierarchy.access`` for any other.  It appends nothing
    to the cycle columns.  For ``K`` skipped blocks each per-slot sum grows
    by ``K * T + p * D * K * (K + 1) / 2`` (``T`` the slot's sum over the
    template), and the register-file account and the mispredict count by
    ``K`` times the template's increment; all stay integers under the same
    :data:`EXACT_HALVES` guard.

    Fast mode ends at a block whose inputs differ or which does not fit the
    budget; the loop then materializes the state at that block's start as
    a fold would leave it (windows, heap and moving registers moved ``K *
    D``; the ring's live cycles, taken from the issue window, cleared and
    written again ``K * D`` later) and goes on op by op.  A load whose
    latency differed mid-block sends that block back to the per-op loop
    from its start, with the accesses already made answered from their
    results by :class:`_Replay`, which raises if the loop asks for a
    different one; no repeat is proved until all of them are answered, as
    fast mode would make them again.  Detection is a signature per
    iteration (its cycles relative to its first dispatch), looked up among
    the last ``REPEAT_PERIODS``; only a match marks the state and tries a
    proof against a mark ``p`` iterations back in the same fold window.

    Raises :class:`Unvectorizable` for programs the column lowering cannot
    express; :func:`run_many` then runs the interpreter.
    """
    if max_instructions <= 0:
        raise ValueError("max_instructions must be positive")
    config = core.config
    rng = DeterministicRng(core.seed).spawn("sim", program.name)
    stats = SimulationStats()
    frontend_miss_rate = float(program.metadata.get("frontend_miss_rate", 0.0))
    frontend_miss_penalty = int(program.metadata.get("frontend_miss_penalty", 10))
    has_frontend = frontend_miss_rate > 0.0
    memory_rng = rng.spawn("memory")
    branch_rng = rng.spawn("branch")
    frontend_rng = rng.spawn("frontend")

    body_infos = [
        core._instruction_info(instruction, index, program)
        for index, instruction in enumerate(program.body)
    ]
    body_len = len(body_infos)

    max_override = 0
    ace_total = 0
    branch_total = 0
    ace_prefix = [0]
    branch_prefix = [0]
    for info in body_infos:
        if info[14] is not None and info[14] > max_override:
            max_override = info[14]
        if info[11]:
            ace_total += 1
        if info[5]:
            branch_total += 1
        ace_prefix.append(ace_total)
        branch_prefix.append(branch_total)

    ledger = VulnerabilityLedger(config)
    accounts = ledger.accounts
    rob_bits = accounts[StructureName.ROB].bits_per_entry
    iq_bits = accounts[StructureName.IQ].bits_per_entry
    lqt_bits = accounts[StructureName.LQ_TAG].bits_per_entry
    lqd_bits = accounts[StructureName.LQ_DATA].bits_per_entry
    sqt_bits = accounts[StructureName.SQ_TAG].bits_per_entry
    sqd_bits = accounts[StructureName.SQ_DATA].bits_per_entry
    rf_bits = accounts[StructureName.RF].bits_per_entry
    fu_bits = accounts[StructureName.FU].bits_per_entry
    sb_account = accounts.get(StructureName.SB)
    track_sb = sb_account is not None
    sb_bits = sb_account.bits_per_entry if track_sb else 0
    sb_drain = config.store_buffer_drain_cycles if track_sb else 0
    integers = [rob_bits, iq_bits, lqt_bits, lqd_bits, sqt_bits, sqd_bits, rf_bits, fu_bits,
                sb_bits, sb_drain] + [info[14] for info in body_infos if info[7]]
    if not all(isinstance(value, int) for value in integers):
        raise Unvectorizable(
            "non_integer", "a bits-per-entry, FU latency or drain time is not an integer"
        )
    if any(info[13] not in (0.5, 1.0) for info in body_infos):  # so data fractions are 0, .5, 1
        raise Unvectorizable("width_fraction", "an operand width fraction is not 0.5 or 1")
    ring_limits = (config.issue_width, config.memory_issue_width, config.int_multipliers,
                   config.int_alus)
    if not all(isinstance(limit, int) and 0 <= limit <= _RING_GUARD for limit in ring_limits):
        raise Unvectorizable("ring_field", "an issue width does not fit the packed ring's fields")
    ring_fresh = sum(
        (_RING_GUARD - limit) << (field * _RING_FIELD) for field, limit in enumerate(ring_limits)
    )

    latency_bound = max(config.multiply_latency, config.divide_latency, config.alu_latency)
    if max_override > latency_bound:
        latency_bound = max_override
    per_op_latency_bound = (
        config.memory_latency + config.tlb_miss_penalty + latency_bound + 2
    )
    window_bound = config.rob_entries * per_op_latency_bound + 1024
    ring_size = 1 << (min(max(window_bound, 1024), 1 << 17) - 1).bit_length()
    ring_mask = ring_size - 1
    ring_tag = [-1] * ring_size
    ring_count = [0] * ring_size

    iterations_total = program.iterations
    last_iteration = iterations_total - 1
    full_iters = max_instructions // body_len
    if full_iters >= iterations_total:
        full_iters = iterations_total
        tail_ops = 0
    else:
        tail_ops = max_instructions - full_iters * body_len

    # Column pre-pass before any per-run state exists: an Unvectorizable
    # program falls back to the interpreter with nothing to unwind.
    frontend_col, mispredict_col, memory_cols = build_columns(
        config, body_infos, full_iters, tail_ops, last_iteration,
        memory_rng, branch_rng, frontend_rng,
        frontend_miss_rate, frontend_miss_penalty,
    )
    (region,) = warm_signature(program) or (None,)
    hierarchy = VectorHierarchy(config, region)

    # What the loop reads per body slot: class flags, the destination's ACE
    # width in halves (0: un-ACE), the memory columns read at issue and at
    # commit, and the ring's full mask, increment and fresh count.
    slots = []
    for index, (_, is_memory, is_nop, is_lq, is_store, is_branch, is_mul, _, writes_reg,
                dest, srcs, ace, _, width_frac, fixed_latency, pattern, *_) in enumerate(
                    body_infos):
        field_shift = (1 if is_memory else 2 if is_mul else 3) * _RING_FIELD
        slots.append((
            is_nop, is_lq, is_store, is_branch, writes_reg, dest, srcs, ace,
            int(2 * width_frac) if ace else 0, fixed_latency, memory_cols[index],
            memory_cols[index] if is_store and pattern is not None else None,
            _RING_GUARD | _RING_GUARD << field_shift, 1 | 1 << field_shift,
            ring_fresh + (1 | 1 << field_shift),
        ))

    dispatch_width = config.dispatch_width
    commit_width = config.commit_width
    rob_entries = config.rob_entries
    iq_entries = config.iq_entries
    lq_entries = config.lq_entries
    sq_entries = config.sq_entries
    free_rename = config.free_rename_registers
    mispredict_penalty = config.branch_misprediction_penalty

    # Cycle columns of the current fold window.  The issue and commit
    # columns start with one zero per ROB entry, the LQ, SQ and rename
    # columns with one per entry, so the window that many back is always
    # there (a zero never binds: dispatch >= 1).
    dispatch_col = []
    issue_col = [0] * rob_entries
    complete_col = []
    commit_col = [0] * rob_entries
    lq_commit_col = [0] * lq_entries
    sq_commit_col = [0] * sq_entries
    write_commit_col = [0] * free_rename
    dispatch_sums = [0] * body_len
    issue_sums = [0] * body_len
    complete_sums = [0] * body_len
    commit_sums = [0] * body_len
    iq_heap = []
    iq_len = 0
    op_index = 0
    lq_count = 0
    sq_count = 0
    write_count = 0
    branch_index = 0

    # Registers past the architected set start un-ACE: nothing reads their
    # lifetime before a write, and integer sums do not depend on the order
    # registers close in.
    architected = config.architected_registers
    num_regs = max(ARCH_REG_COUNT, architected)
    reg_halves = [2] * architected + [0] * (num_regs - architected)
    reg_last_read = [-1] * num_regs
    reg_ready = [0] * num_regs
    rf_occ = rf_halves = 0

    hierarchy_access = hierarchy.access
    heappush = heapq.heappush
    heappop = heapq.heappop

    branch_mispredictions = 0
    fetch_resume_cycle = 0
    last_commit_cycle = 0
    disp_cycle = 1
    disp_count = 0
    commit_count = 0

    # Fast-forward: the signatures of the last full iterations, newest
    # first; the state marked at each candidate boundary of this fold
    # window, by iteration; the replay of a block fast mode left part-way.
    recent = []
    marks = {}
    replay = None
    replay_end = 0
    fast_forwarded = 0
    exits = {}

    # Full iterations run the whole body; a budget ending mid-iteration adds
    # one last iteration of ``tail_ops`` ops.  The columns fold at the first
    # iteration boundary past ``FOLD_OPS`` ops, and before fast mode.
    iterations = full_iters + (1 if tail_ops else 0)
    iteration = 0
    while iteration < iterations:
        for (is_nop, is_lq, is_store, is_branch, writes_reg, dest, srcs, ace,
             dest_halves, fixed_latency, column, store_col, full, inc,
             fresh) in (slots if iteration < full_iters else slots[:tail_ops]):
            dispatch = disp_cycle
            if fetch_resume_cycle > dispatch:
                dispatch = fetch_resume_cycle
            if has_frontend:
                dispatch += frontend_col[op_index]
            if commit_col[op_index] > dispatch:
                dispatch = commit_col[op_index]
            if is_lq:
                if lq_commit_col[lq_count] > dispatch:
                    dispatch = lq_commit_col[lq_count]
            elif is_store:
                if sq_commit_col[sq_count] > dispatch:
                    dispatch = sq_commit_col[sq_count]
            if writes_reg and write_commit_col[write_count] > dispatch:
                dispatch = write_commit_col[write_count]
            if not is_nop and iq_len >= iq_entries:
                while iq_len and iq_heap[0] <= dispatch:
                    heappop(iq_heap)
                    iq_len -= 1
                if iq_len >= iq_entries:
                    dispatch = iq_heap[0]
            if dispatch == disp_cycle:
                if disp_count >= dispatch_width:
                    dispatch += 1
                    disp_cycle = dispatch
                    disp_count = 1
                else:
                    disp_count += 1
            else:
                disp_cycle = dispatch
                disp_count = 1
            if is_nop:
                issue = complete = dispatch
            else:
                issue = dispatch + 1
                for src in srcs:
                    ready = reg_ready[src]
                    if ready > issue:
                        issue = ready
                slot = issue & ring_mask
                while ring_tag[slot] == issue and ring_count[slot] & full:
                    issue += 1
                    slot = issue & ring_mask
                if issue - dispatch >= ring_size:
                    ring_size, ring_mask, ring_tag, ring_count = OutOfOrderCore._grow_rings(
                        issue - dispatch, dispatch, ring_size, ring_tag, ring_count
                    )
                    slot = issue & ring_mask
                if ring_tag[slot] == issue:
                    ring_count[slot] += inc
                else:
                    ring_tag[slot] = issue
                    ring_count[slot] = fresh
                if fixed_latency is None:
                    complete = issue + hierarchy_access(column[iteration], False, issue, ace)
                else:
                    complete = issue + fixed_latency
            commit = complete + 1
            if commit > last_commit_cycle:
                commit_count = 1
            elif commit_count >= commit_width:
                commit = last_commit_cycle + 1
                commit_count = 1
            else:
                commit = last_commit_cycle
                commit_count += 1
            last_commit_cycle = commit
            if store_col is not None:
                hierarchy_access(store_col[iteration], True, commit, ace)
            if is_branch:
                if mispredict_col[branch_index]:
                    branch_mispredictions += 1
                    resume = complete + mispredict_penalty
                    if resume > fetch_resume_cycle:
                        fetch_resume_cycle = resume
                branch_index += 1
            dispatch_col.append(dispatch)
            issue_col.append(issue)
            complete_col.append(complete)
            commit_col.append(commit)
            op_index += 1
            if is_lq:
                lq_commit_col.append(commit)
                lq_count += 1
            elif is_store:
                sq_commit_col.append(commit)
                sq_count += 1
            if not is_nop:
                heappush(iq_heap, issue)
                iq_len += 1
            if ace:
                for src in srcs:
                    if issue > reg_last_read[src]:
                        reg_last_read[src] = issue
            if writes_reg:
                write_commit_col.append(commit)
                write_count += 1
                if reg_halves[dest]:
                    lifetime = reg_last_read[dest] - reg_ready[dest]
                    if lifetime > 0:
                        rf_occ += lifetime
                        rf_halves += lifetime * reg_halves[dest]
                reg_halves[dest] = dest_halves
                reg_last_read[dest] = -1
                reg_ready[dest] = complete
        iteration += 1

        if replay is not None:
            if not replay.calls:
                hierarchy_access = hierarchy.access
                replay = None
            elif iteration >= replay_end:
                raise RuntimeError("a replayed block left recorded accesses unmade")

        # Candidate test: this iteration's cycles relative to its first
        # dispatch equal one of the last REPEAT_PERIODS iterations'.  Only
        # then is the state marked, and a mark ``period`` iterations back
        # (in this fold window, with a whole block left) tried as a proof —
        # not while a replayed block still holds recorded accesses: fast
        # mode would make them a second time.
        mark = proof = None
        if iteration < full_iters:
            first = dispatch_col[op_index - body_len]
            signature = (disp_cycle - first, last_commit_cycle - first,
                         sum(commit_col[rob_entries + op_index - body_len:]) - body_len * first)
            if signature in recent:
                mark = (op_index, lq_count, sq_count, write_count, branch_index, disp_cycle,
                        disp_count, last_commit_cycle, commit_count, fetch_resume_cycle,
                        ring_size, rf_occ, rf_halves, branch_mispredictions,
                        reg_ready[:], reg_last_read[:], reg_halves[:])
                for period, earlier in enumerate(recent, 1):
                    before = marks.get(iteration - period)
                    if earlier == signature and before is not None and replay is None and (
                            iteration + period <= full_iters):
                        proof = _prove_repeat(before, mark, [
                            (commit_col, before[0], op_index, rob_entries),
                            (issue_col, before[0], op_index, rob_entries),
                            (lq_commit_col, before[1], lq_count, lq_entries),
                            (sq_commit_col, before[2], sq_count, sq_entries),
                            (write_commit_col, before[3], write_count, free_rename),
                        ])
                        if proof is not None:
                            break
            recent.insert(0, signature)
            del recent[REPEAT_PERIODS:]
            marks.pop(iteration - REPEAT_PERIODS, None)

        if proof is not None:
            # The template block (A, B] is still in the columns: its per-slot
            # sums, memory accesses, input slices and accounting increments.
            shift, moving_ready, moving_read = proof
            start = before[0]
            templates = (
                _block_sums(dispatch_col, start, op_index, body_len),
                _block_sums(issue_col, rob_entries + start, rob_entries + op_index, body_len),
                _block_sums(complete_col, start, op_index, body_len),
                _block_sums(commit_col, rob_entries + start, rob_entries + op_index, body_len),
            )
            accesses = _template_accesses(
                slots, start, period, rob_entries, issue_col, complete_col, commit_col
            )
            template_mispredicts = mispredict_col[before[4]:branch_index]
            template_frontend = frontend_col[start:op_index] if has_frontend else None
            increments = (rf_occ - before[11], rf_halves - before[12],
                          branch_mispredictions - before[13])

        if proof is not None or op_index >= FOLD_OPS or iteration == iterations:
            # Fold the window into per-slot sums, keeping the last ROB / LQ /
            # SQ / rename commits and ROB issues the constraints read.
            _add_slot_sums(dispatch_sums, dispatch_col, 0)
            _add_slot_sums(issue_sums, issue_col, rob_entries)
            _add_slot_sums(complete_sums, complete_col, 0)
            _add_slot_sums(commit_sums, commit_col, rob_entries)
            dispatch_col.clear()
            complete_col.clear()
            del issue_col[:op_index]
            del commit_col[:op_index]
            if has_frontend:
                del frontend_col[:op_index]
            del lq_commit_col[:lq_count]
            del sq_commit_col[:sq_count]
            del write_commit_col[:write_count]
            op_index = lq_count = sq_count = write_count = 0
            marks.clear()

        if proof is not None:
            blocks, cause, calls = _skip_blocks(
                hierarchy.access, accesses, iteration, period, full_iters, shift,
                mispredict_col, branch_index, template_mispredicts,
                frontend_col, template_frontend,
            )
            exits[cause] = exits.get(cause, 0) + 1
            if blocks:
                # Materialize the state at the first block not skipped.
                fast_forwarded += blocks * period
                iteration += blocks * period
                branch_index += blocks * len(template_mispredicts)
                if has_frontend:
                    del frontend_col[:blocks * len(template_frontend)]
                rise = period * shift * blocks * (blocks + 1) // 2
                for slot_sums, template in zip(
                        (dispatch_sums, issue_sums, complete_sums, commit_sums), templates):
                    for index in range(body_len):
                        slot_sums[index] += blocks * template[index] + rise
                rf_occ += blocks * increments[0]
                rf_halves += blocks * increments[1]
                branch_mispredictions += blocks * increments[2]
                moved = blocks * shift
                iq_heap = _move_issues(issue_col, disp_cycle, moved, ring_tag, ring_count,
                                       ring_mask, slots)
                iq_len = len(iq_heap)
                for window in (issue_col, commit_col, lq_commit_col, sq_commit_col,
                               write_commit_col):
                    _move(window, moved)
                for reg in moving_ready:
                    reg_ready[reg] += moved
                for reg in moving_read:
                    reg_last_read[reg] += moved
                if fetch_resume_cycle > disp_cycle:
                    fetch_resume_cycle += moved
                last_commit_cycle += moved
                disp_cycle += moved
            if calls is not None:
                replay = hierarchy_access = _Replay(calls, hierarchy.access)
                replay_end = iteration + period
        elif mark is not None:  # positions as any fold at this boundary left them
            marks[iteration] = (op_index, lq_count, sq_count, write_count) + mark[4:]

    # Open register lifetimes.
    for reg in range(num_regs):
        if reg_halves[reg]:
            lifetime = reg_last_read[reg] - reg_ready[reg]
            if lifetime > 0:
                rf_occ += lifetime
                rf_halves += lifetime * reg_halves[reg]

    # Occupancy in entry-cycles and ACE time in half bit-cycles per core
    # structure, from each slot's sums and its instance count.  A nop's
    # issue and complete are its dispatch, so it adds no IQ time.
    rob_occ = rob_ace = iq_occ = iq_ace = lq_occ = lqt_ace = lqd_ace = 0
    sq_occ = sqt_ace = sqd_ace = stores = sb_ace = fu_occ = fu_ace = 0
    for index, info in enumerate(body_infos):
        is_lq, is_store, is_arith, ace, data_halves = (
            info[3], info[4], info[7], info[11], int(2 * info[12])
        )
        dispatched, issued = dispatch_sums[index], issue_sums[index]
        completed, committed = complete_sums[index], commit_sums[index]
        count = full_iters + (index < tail_ops)
        rob_occ += committed - dispatched
        iq_occ += issued - dispatched
        if ace:
            rob_ace += committed - dispatched
            iq_ace += issued - dispatched
        if is_lq:
            lq_occ += committed - dispatched
            if ace:
                lqt_ace += committed - issued
            lqd_ace += data_halves * (committed - completed)
        elif is_store:
            sq_occ += committed - dispatched
            if ace:
                sqt_ace += committed - issued
            sqd_ace += data_halves * (committed - issued)
            stores += count
            sb_ace += data_halves * count
        if is_arith:
            busy = count * max(info[14], 1)
            fu_occ += busy
            if ace:
                fu_ace += busy
    totals = [
        (StructureName.ROB, rob_occ, 2 * rob_bits * rob_ace),
        (StructureName.IQ, iq_occ, 2 * iq_bits * iq_ace),
        (StructureName.LQ_TAG, lq_occ, 2 * lqt_bits * lqt_ace),
        (StructureName.LQ_DATA, lq_occ, lqd_bits * lqd_ace),
        (StructureName.SQ_TAG, sq_occ, 2 * sqt_bits * sqt_ace),
        (StructureName.SQ_DATA, sq_occ, sqd_bits * sqd_ace),
        (StructureName.RF, rf_occ, rf_bits * rf_halves),
        (StructureName.FU, fu_occ, 2 * fu_bits * fu_ace),
    ]
    if track_sb:
        totals.append((StructureName.SB, sb_drain * stores, sb_drain * sb_bits * sb_ace))
    if max(max(2 * occupancy, halves) for _, occupancy, halves in totals) >= EXACT_HALVES:
        raise Unvectorizable(
            "past_exact_range", "an accounting total is past the exact float range"
        )
    for name, occupancy, halves in totals:
        ledger.credit(name, float(occupancy), halves / 2)

    final_cycle = last_commit_cycle  # commits are monotone and at least 2
    hierarchy.finalize(final_cycle)
    install_trackers(ledger, hierarchy)

    stats.committed_instructions = full_iters * body_len + tail_ops
    stats.committed_ace_instructions = full_iters * ace_total + ace_prefix[tail_ops]
    stats.branch_count = full_iters * branch_total + branch_prefix[tail_ops]
    stats.branch_mispredictions = branch_mispredictions
    stats.l2_misses = hierarchy.load_l2_misses
    stats.total_cycles = final_cycle
    stats.dl1_miss_rate = (
        hierarchy.dl1_misses / hierarchy.dl1_accesses if hierarchy.dl1_accesses else 0.0
    )
    stats.l2_miss_rate = (
        hierarchy.l2_misses / hierarchy.l2_accesses if hierarchy.l2_accesses else 0.0
    )
    stats.dtlb_miss_rate = (
        hierarchy.dtlb_misses / hierarchy.dtlb_accesses if hierarchy.dtlb_accesses else 0.0
    )

    STATS.iterations += iterations
    STATS.iterations_fast_forwarded += fast_forwarded
    for cause, count in exits.items():
        STATS.fast_forward_exits[cause] = STATS.fast_forward_exits.get(cause, 0) + count

    return SimulationResult(
        program_name=program.name,
        config=config,
        accumulators=dict(ledger.collect()),
        stats=stats,
        metadata=dict(program.metadata),
    )


def run_many(core, programs, max_instructions: int = 50_000):
    """Evaluate ``programs`` through the vector plane, aligned with the input.

    Programs the lowering cannot express run the interpreted reference
    instead, counted in ``STATS.fallbacks`` and per reason code in
    ``STATS.fallback_reasons``; empty bodies run it inline without counting.
    """
    results = []
    for program in programs:
        if not program.body:
            results.append(core.run_interpreted(program, max_instructions, True))
            continue
        reason = _unsupported(program)
        if reason is None:
            try:
                result = vector_run(core, program, max_instructions)
            except Unvectorizable as refused:
                reason = refused.reason
            else:
                STATS.vector_runs += 1
                results.append(result)
                continue
        STATS.fallbacks += 1
        STATS.fallback_reasons[reason] = STATS.fallback_reasons.get(reason, 0) + 1
        results.append(core.run_interpreted(program, max_instructions, True))
    return results
