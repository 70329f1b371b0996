"""The ``vector`` kernel backend: population evaluation over operand columns.

A GA generation evaluates a whole population of genomes against one machine
configuration.  This plane shares one config-specialized compiled kernel and
one functional warm-up across that population, and removes per-op Python
dispatch from the kernel's hot loop by *lowering* each genome's dynamic
instruction stream to precomputed columns before the timing loop runs:

* **front-end column** — one stall penalty (0 or the miss penalty) per
  dynamic op, drawn from the frontend RNG stream in reference order;
* **mispredict column** — one bool per dynamic branch, produced by a flat
  integer replica of the tournament predictor driven over the whole branch
  trace at once (same RNG draws, same counter updates, no object dispatch);
* **memory columns** — per memory slot, the fully resolved address *parts*
  ``(address, dtlb_page, dl1_set, dl1_tag, dl1_word, dl1_line)`` for every
  iteration.  Strided / line-cover / pointer-chase / fixed patterns are
  closed-form and vectorize to whole numpy int64 columns; random patterns
  replay ``pattern.resolve`` in exact reference draw order (the memory RNG
  stream is separate from the branch/front-end streams, so pre-resolving it
  wholesale cannot perturb any other stream).

The timing loop itself (emitted by
:func:`repro.uarch.kernelgen.generate_vector_kernel_source`) then runs
against a :class:`VectorHierarchy` — the memory hierarchy's replacement,
lifetime and residency state flattened to per-slot integer columns with one
inlined ``access`` method.  Warm-up is deterministic, draws no RNG and runs
entirely at cycle 0, so one *warm master* per (config, warm footprint) — a
real :class:`~repro.memory.hierarchy.MemoryHierarchy` warmed against a fresh
ledger exactly as the interpreter warms it — is built, frozen into a
:class:`VectorWarmState` and dropped; each genome rematerializes the frozen
image by cheap list copies.

Everything on the AVF path stays integer-exact: word lifetime state packs
``cycle * 8 + event_code * 2 + write_ace`` into one int, residency credits
are integer sums, and end-of-run credit for still-live ACE writes is the
closed form ``count * final_cycle - sum(start_cycles)`` maintained
incrementally — so results are bit-identical to the interpreted reference
(enforced by the differential matrix in
``tests/test_kernel_differential.py`` and the kernel-smoke and batch-smoke
byte-compares).

Programs the lowering cannot express (explicit setup sections, bodies over
:data:`MAX_KERNEL_BODY`, runs over :data:`VECTOR_MAX_OPS`, address columns
that overflow the int64 window) run the interpreted reference instead, one
program at a time, counted in ``STATS.fallbacks``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as _np

from repro.isa.memoryref import (
    FixedPattern,
    LineCoverPattern,
    PointerChasePattern,
    StridedPattern,
)
from repro.memory.hierarchy import MemoryHierarchy
from repro.uarch import kernel as _kernel
from repro.vuln.ledger import VulnerabilityLedger

if TYPE_CHECKING:  # pragma: no cover
    from repro.isa.program import Program
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

#: Column values must stay well inside int64 under the decomposition
#: arithmetic; anything near the edge takes the (unbounded-int) fallback.
_INT64_GUARD = 1 << 60

#: Frozen warm states kept per process.  A GA search touches at most two
#: footprints (the knob space only toggles the L2-miss region's presence).
VECTOR_WARM_CACHE_LIMIT = 8

_MISSING = object()


class Unvectorizable(Exception):
    """This program cannot be lowered to columns; use the interpreter."""


class VectorStats:
    """In-process counters (observability for tests and the smoke gate)."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.vector_runs = 0
        self.fallbacks = 0
        self.warm_freezes = 0


STATS = VectorStats()

#: (config digest, warm signature) -> frozen VectorWarmState or None.
_frozen_warm: dict[tuple, Optional["VectorWarmState"]] = {}

#: (global_entries, local_entries, choice_entries) -> predictor template.
_predictor_templates: dict[tuple, tuple] = {}


def clear_vector_caches() -> None:
    """Drop the vector plane's in-process caches (tests, ``clear_kernels``)."""
    _frozen_warm.clear()
    _predictor_templates.clear()
    STATS.reset()


def supports_vector(program: "Program") -> bool:
    """Whether the column lowering can express this program at all.

    Explicit setup sections replay stateful warm-up (and draw the setup RNG
    stream) that the shared warm state does not capture; oversize bodies
    are not worth specializing.
    """
    return not program.setup and len(program.body) <= MAX_KERNEL_BODY


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


def _closed_form_addresses(pattern, count: int):
    """Whole-column addresses for a closed-form pattern, or None.

    Eligibility is by *exact* type (subclasses may override ``resolve``);
    any column whose intermediate arithmetic could leave the int64 guard
    window returns None and takes the ordered python-int path instead.
    """
    kind = type(pattern)
    iterations = None
    if kind is FixedPattern:
        if abs(pattern.address) < _INT64_GUARD:
            return _np.full(count, pattern.address, dtype=_np.int64)
        return None
    if kind is StridedPattern or kind is PointerChasePattern:
        if (
            count * pattern.stride < _INT64_GUARD
            and abs(pattern.base) + pattern.region < _INT64_GUARD
        ):
            iterations = _np.arange(count, dtype=_np.int64)
            return pattern.base + (iterations * pattern.stride) % pattern.region
        return None
    if kind is LineCoverPattern:
        reach = count + abs(pattern.iteration_offset) + 1
        scale = max(pattern.line_bytes, pattern.slots, pattern.word_bytes, 1)
        if (
            reach * scale < _INT64_GUARD
            and abs(pattern.base) + pattern.region < _INT64_GUARD
        ):
            effective = _np.arange(count, dtype=_np.int64) + pattern.iteration_offset
            if pattern.iteration_offset:
                _np.maximum(effective, 0, out=effective)
            words_per_line = max(1, pattern.line_bytes // pattern.word_bytes)
            word_index = (effective * pattern.slots + pattern.slot) % words_per_line
            return (
                pattern.base
                + (effective * pattern.line_bytes) % pattern.region
                + word_index * pattern.word_bytes
            )
        return None
    return None


def _memory_columns(
    config: "MachineConfig",
    body_infos: list,
    full_iters: int,
    tail_ops: int,
    memory_rng,
) -> list:
    """Resolved address-part columns per body slot (None for non-memory ops).

    Each entry is a list of ``(address, dtlb_page, dl1_set, dl1_tag,
    dl1_word, dl1_line)`` tuples indexed by iteration.  Slots whose pattern
    draws randomness (or whose closed form could overflow) are resolved in
    the exact reference order — iteration-major, body order within an
    iteration — so the memory RNG stream is untouched.
    """
    dl1 = config.dl1
    line_bytes = dl1.line_bytes
    num_sets = dl1.num_sets
    word_bytes = dl1.word_bytes
    page_bytes = config.dtlb.page_bytes

    columns: list = [None] * len(body_infos)
    address_arrays: dict[int, object] = {}
    ordered: list[tuple] = []
    for index, info in enumerate(body_infos):
        is_nop, is_store = info[2], info[4]
        fixed_latency, pattern = info[14], info[15]
        issue_resolve = (not is_nop) and fixed_latency is None
        commit_resolve = is_store and pattern is not None
        if issue_resolve and commit_resolve:
            raise Unvectorizable("op resolves its address twice per instance")
        if not (issue_resolve or commit_resolve):
            continue
        count = full_iters + (1 if index < tail_ops else 0)
        addresses = _closed_form_addresses(pattern, count)
        if addresses is None:
            ordered.append((index, pattern))
        else:
            address_arrays[index] = addresses

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
        for index, values in rows.items():
            if values and not (0 <= min(values) and max(values) < _INT64_GUARD):
                if min(values) < 0:
                    # The reference raises on the first negative address; the
                    # interpreter fallback reproduces that exact error.
                    raise Unvectorizable("negative address stream")
                raise Unvectorizable("address stream exceeds the int64 window")
            address_arrays[index] = _np.asarray(values, dtype=_np.int64)

    for index, addresses in address_arrays.items():
        if addresses.size and int(addresses.min()) < 0:
            raise Unvectorizable("negative address stream")
        pages = addresses // page_bytes
        line_addresses = addresses // line_bytes
        set_indices = line_addresses % num_sets
        tags = line_addresses // num_sets
        word_indices = (addresses % line_bytes) // word_bytes
        line_numbers = tags * num_sets + set_indices
        columns[index] = list(
            zip(
                addresses.tolist(),
                pages.tolist(),
                set_indices.tolist(),
                tags.tolist(),
                word_indices.tolist(),
                line_numbers.tolist(),
            )
        )
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
    touched — the generated kernel calls this before materializing warm
    state, so a failed lowering falls back to the interpreter cleanly.
    All three RNG streams are independent spawns, so draining each in its
    own pre-pass preserves every stream's reference draw sequence.
    """
    total_ops = full_iters * len(body_infos) + tail_ops
    if total_ops > VECTOR_MAX_OPS:
        raise Unvectorizable(f"{total_ops} dynamic ops exceed the column budget")
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
    memory = _memory_columns(config, body_infos, full_iters, tail_ops, memory_rng)
    return frontend, mispredicts, memory


# --------------------------------------------------------- flat hierarchy

#: Word lifetime events packed into the low three state bits
#: (``cycle * 8 + code``): FILL=0, READ=2, WRITE=4, +1 when the recorded
#: write was ACE.  ``state & 7 == 5`` is therefore "ACE write still live" —
#: the only terminal state that earns credit on eviction or finalize.
_EVENT_CODES = {"fill": 0, "read": 2, "write": 4}


class VectorHierarchy:
    """DL1 + L2 + DTLB (+ L2 TLB) flattened to integer columns.

    One object per genome run, rematerialized from a frozen
    :class:`VectorWarmState` by shallow list copies.  Semantically a
    statement-for-statement replica of :meth:`MemoryHierarchy.access_parts`
    restricted to what the simulation result can observe: latencies, access
    and miss counts, the load-side L2 miss counter, and integer ACE cycle
    totals per structure.  LRU victims are found by a first-minimum scan in
    dict insertion order — identical to the reference ``min()`` because
    neither implementation ever reorders entries in place.
    """

    __slots__ = (
        "memory_latency", "tlb_miss_penalty", "l2_tlb_hit_latency",
        "dl1_hit_latency", "l2_hit_latency",
        "dl1_line_bytes", "dl1_assoc", "dl1_wpl",
        "l2_line_bytes", "l2_num_sets", "l2_word_bytes", "l2_assoc", "l2_wpl",
        "has_l2_tlb", "l2_tlb_page_bytes",
        "dl1_word_bits", "l2_word_bits", "dtlb_entry_bits", "l2_tlb_entry_bits",
        "dl1_sets", "dl1_line_no", "dl1_dirty", "dl1_dirty_ace", "dl1_lu",
        "dl1_ws", "dl1_free", "dl1_accesses", "dl1_misses",
        "dl1_ace_cycles", "dl1_wa_count", "dl1_wa_sum",
        "l2_sets", "l2_lu", "l2_ws", "l2_free", "l2_accesses", "l2_misses",
        "l2_ace_cycles", "l2_wa_count", "l2_wa_sum",
        "dtlb_map", "dtlb_first", "dtlb_last", "dtlb_lu", "dtlb_rec",
        "dtlb_free", "dtlb_accesses", "dtlb_misses", "dtlb_ace_cycles",
        "l2_tlb_map", "l2_tlb_first", "l2_tlb_last", "l2_tlb_lu",
        "l2_tlb_rec", "l2_tlb_free", "l2_tlb_ace_cycles",
        "load_l2_misses",
    )

    def access(self, parts: tuple, is_write: bool, cycle: int, ace: bool) -> int:
        """One memory access from precomputed parts; returns its latency."""
        address, page, set_index, tag, word, line_number = parts

        # ---- DTLB (Tlb.access with the page precomputed)
        self.dtlb_accesses += 1
        dtlb_map = self.dtlb_map
        slot = dtlb_map.get(page)
        if slot is not None:
            self.dtlb_lu[slot] = cycle
            if ace:
                if self.dtlb_first[slot] < 0:
                    self.dtlb_first[slot] = cycle
                self.dtlb_last[slot] = cycle
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
            slot = free.pop()
            dtlb_map[page] = slot
            if ace:
                self.dtlb_first[slot] = cycle
                self.dtlb_last[slot] = cycle
            else:
                self.dtlb_first[slot] = -1
                self.dtlb_last[slot] = -1
            self.dtlb_lu[slot] = cycle
            self.dtlb_rec[slot] = False
            if self.has_l2_tlb and self._l2_tlb_access(address, cycle, ace):
                latency = self.l2_tlb_hit_latency
            else:
                latency = self.tlb_miss_penalty

        # ---- DL1 (Cache.access_parts with the decomposition precomputed)
        self.dl1_accesses += 1
        cache_set = self.dl1_sets[set_index]
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
                for offset in range(victim_slot * wpl, victim_slot * wpl + wpl):
                    state = ws[offset]
                    if state >= 0:
                        if state & 7 == 5:
                            start = state >> 3
                            self.dl1_wa_count -= 1
                            self.dl1_wa_sum -= start
                            duration = cycle - start
                            if duration > 0:
                                self.dl1_ace_cycles += duration
                        ws[offset] = -1
                if self.dl1_dirty[victim_slot]:
                    evicted_dirty = True
                    evicted_address = self.dl1_line_no[victim_slot] * self.dl1_line_bytes
                    evicted_ace = self.dl1_dirty_ace[victim_slot]
                self.dl1_free.append(victim_slot)
            slot = self.dl1_free.pop()
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
                for offset in range(victim_slot * wpl, victim_slot * wpl + wpl):
                    state = ws[offset]
                    if state >= 0:
                        if state & 7 == 5:
                            start = state >> 3
                            self.l2_wa_count -= 1
                            self.l2_wa_sum -= start
                            duration = cycle - start
                            if duration > 0:
                                self.l2_ace_cycles += duration
                        ws[offset] = -1
                self.l2_free.append(victim_slot)
            slot = self.l2_free.pop()
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


# ------------------------------------------------------------- warm freezing


def _freeze_cache(cache) -> Optional[tuple]:
    """Flatten one warm Cache to column template state (None if unprovable).

    The flat replica relies on the invariant "word touched <=> word state
    live in the tracker"; the freeze *checks* it (count and membership)
    rather than assuming it, so any warm-up path that breaks it degrades to
    the interpreter instead of silently diverging.
    """
    num_sets = cache._num_sets
    associativity = cache._associativity
    words_per_line = cache._words_per_line
    num_lines = num_sets * associativity
    sets: list[dict] = []
    line_no = [0] * num_lines
    dirty = [False] * num_lines
    dirty_ace = [False] * num_lines
    last_use = [0] * num_lines
    word_state = [-1] * (num_lines * words_per_line)
    live = cache.lifetime._live
    wa_count = 0
    wa_sum = 0
    slot = 0
    installed = 0
    for set_index, cache_set in enumerate(cache._sets):
        flat_set: dict = {}
        for tag, line in cache_set.items():
            line_number = tag * num_sets + set_index
            flat_set[tag] = slot
            line_no[slot] = line_number
            dirty[slot] = line.dirty
            dirty_ace[slot] = line.dirty_ace
            last_use[slot] = line.last_use
            base = slot * words_per_line
            for word in line.words_touched:
                state = live.get((line_number, word))
                if state is None:
                    return None
                packed = state[1] * 8 + _EVENT_CODES[state[0].value] + (1 if state[2] else 0)
                word_state[base + word] = packed
                if packed & 7 == 5:
                    wa_count += 1
                    wa_sum += state[1]
                installed += 1
            slot += 1
        sets.append(flat_set)
    if installed != len(live):
        return None  # live word state outside any resident line
    free = list(range(num_lines - 1, slot - 1, -1))
    stats = cache.stats
    return (
        sets, line_no, dirty, dirty_ace, last_use, word_state, free,
        stats.accesses, stats.misses,
        cache.lifetime.ace_word_cycles, wa_count, wa_sum,
    )


def _freeze_tlb(tlb) -> Optional[tuple]:
    """Flatten one warm Tlb to column template state (None if unprovable)."""
    capacity = tlb._capacity
    tlb_map: dict = {}
    first = [-1] * capacity
    last = [-1] * capacity
    last_use = [0] * capacity
    recurrent = [False] * capacity
    slot = 0
    for page, entry in tlb._entries.items():
        if (entry.first_ace_use is None) != (entry.last_ace_use is None):
            return None  # the flat replica assumes they are set together
        tlb_map[page] = slot
        if entry.first_ace_use is not None:
            first[slot] = entry.first_ace_use
            last[slot] = entry.last_ace_use
        last_use[slot] = entry.last_use
        recurrent[slot] = entry.recurrent
        slot += 1
    free = list(range(capacity - 1, slot - 1, -1))
    stats = tlb.stats
    return (
        tlb_map, first, last, last_use, recurrent, free,
        stats.accesses, stats.misses,
        tlb._residency.ace_entry_cycles,
    )


class VectorWarmState:
    """Frozen flat warm state, rematerialized per genome by list copies."""

    __slots__ = ("constants", "dl1", "l2", "dtlb", "l2_tlb")

    def __init__(self, constants: dict, dl1, l2, dtlb, l2_tlb) -> None:
        self.constants = constants
        self.dl1 = dl1
        self.l2 = l2
        self.dtlb = dtlb
        self.l2_tlb = l2_tlb

    @classmethod
    def freeze(
        cls, config: "MachineConfig", hierarchy: MemoryHierarchy
    ) -> Optional["VectorWarmState"]:
        """Flatten a warmed hierarchy (read-only; None = fall back)."""
        dl1 = _freeze_cache(hierarchy.dl1)
        l2 = _freeze_cache(hierarchy.l2)
        dtlb = _freeze_tlb(hierarchy.dtlb)
        if dl1 is None or l2 is None or dtlb is None:
            return None
        l2_tlb = None
        if hierarchy.l2_tlb is not None:
            l2_tlb = _freeze_tlb(hierarchy.l2_tlb)
            if l2_tlb is None:
                return None
        constants = {
            "memory_latency": hierarchy.memory_latency,
            "tlb_miss_penalty": hierarchy.tlb_miss_penalty,
            "l2_tlb_hit_latency": hierarchy.l2_tlb_hit_latency,
            "dl1_hit_latency": hierarchy._dl1_hit_latency,
            "l2_hit_latency": hierarchy._l2_hit_latency,
            "dl1_line_bytes": config.dl1.line_bytes,
            "dl1_assoc": config.dl1.associativity,
            "dl1_wpl": config.dl1.words_per_line,
            "l2_line_bytes": config.l2.line_bytes,
            "l2_num_sets": config.l2.num_sets,
            "l2_word_bytes": config.l2.word_bytes,
            "l2_assoc": config.l2.associativity,
            "l2_wpl": config.l2.words_per_line,
            "has_l2_tlb": hierarchy.l2_tlb is not None,
            "l2_tlb_page_bytes": (
                config.l2_tlb.page_bytes if config.l2_tlb is not None else 0
            ),
            "dl1_word_bits": config.dl1.word_bytes * 8,
            "l2_word_bits": config.l2.word_bytes * 8,
            "dtlb_entry_bits": config.dtlb.entry_bits,
            "l2_tlb_entry_bits": (
                config.l2_tlb.entry_bits if config.l2_tlb is not None else 0
            ),
        }
        return cls(constants, dl1, l2, dtlb, l2_tlb)

    def materialize(self) -> VectorHierarchy:
        """A fresh mutable VectorHierarchy seeded from the frozen template."""
        vh = VectorHierarchy.__new__(VectorHierarchy)
        for name, value in self.constants.items():
            setattr(vh, name, value)

        sets, line_no, dirty, dirty_ace, lu, ws, free, acc, miss, ace, wa_c, wa_s = self.dl1
        vh.dl1_sets = [dict(entry) for entry in sets]
        vh.dl1_line_no = line_no.copy()
        vh.dl1_dirty = dirty.copy()
        vh.dl1_dirty_ace = dirty_ace.copy()
        vh.dl1_lu = lu.copy()
        vh.dl1_ws = ws.copy()
        vh.dl1_free = free.copy()
        vh.dl1_accesses = acc
        vh.dl1_misses = miss
        vh.dl1_ace_cycles = ace
        vh.dl1_wa_count = wa_c
        vh.dl1_wa_sum = wa_s

        sets, _, _, _, lu, ws, free, acc, miss, ace, wa_c, wa_s = self.l2
        vh.l2_sets = [dict(entry) for entry in sets]
        vh.l2_lu = lu.copy()
        vh.l2_ws = ws.copy()
        vh.l2_free = free.copy()
        vh.l2_accesses = acc
        vh.l2_misses = miss
        vh.l2_ace_cycles = ace
        vh.l2_wa_count = wa_c
        vh.l2_wa_sum = wa_s

        tlb_map, first, last, lu, rec, free, acc, miss, ace = self.dtlb
        vh.dtlb_map = dict(tlb_map)
        vh.dtlb_first = first.copy()
        vh.dtlb_last = last.copy()
        vh.dtlb_lu = lu.copy()
        vh.dtlb_rec = rec.copy()
        vh.dtlb_free = free.copy()
        vh.dtlb_accesses = acc
        vh.dtlb_misses = miss
        vh.dtlb_ace_cycles = ace

        if self.l2_tlb is not None:
            tlb_map, first, last, lu, rec, free, _, _, ace = self.l2_tlb
            vh.l2_tlb_map = dict(tlb_map)
            vh.l2_tlb_first = first.copy()
            vh.l2_tlb_last = last.copy()
            vh.l2_tlb_lu = lu.copy()
            vh.l2_tlb_rec = rec.copy()
            vh.l2_tlb_free = free.copy()
            vh.l2_tlb_ace_cycles = ace

        vh.load_l2_misses = 0
        return vh


def warm_signature(program: "Program") -> tuple:
    """The warm-up footprint of a program as a hashable cache key."""
    return tuple(
        (region.base, region.size_bytes, region.dirty, region.ace,
         region.word_fraction, region.recurrent)
        for region in program.warmup_regions
    )


def _warm_master(config: "MachineConfig", signature: tuple) -> MemoryHierarchy:
    """A hierarchy warmed exactly as the interpreter warms one.

    The same ``MemoryHierarchy`` construction against a fresh ledger, then
    one ``warm_region`` call per declared footprint region, in order.
    """
    hierarchy = MemoryHierarchy(
        dl1_config=config.dl1,
        l2_config=config.l2,
        dtlb_config=config.dtlb,
        memory_latency=config.memory_latency,
        tlb_miss_penalty=config.tlb_miss_penalty,
        ledger=VulnerabilityLedger(config),
        l2_tlb_config=config.l2_tlb,
        l2_tlb_hit_latency=config.l2_tlb_hit_latency,
    )
    for base, size_bytes, dirty, ace, word_fraction, recurrent in signature:
        hierarchy.warm_region(
            base=base,
            size_bytes=size_bytes,
            dirty=dirty,
            ace=ace,
            word_fraction=word_fraction,
            recurrent=recurrent,
        )
    return hierarchy


def _frozen_warm_for(
    config: "MachineConfig", program: "Program"
) -> Optional[VectorWarmState]:
    """The frozen warm state for this (config, footprint), LRU-memoized.

    The warm master is built, frozen and dropped here; only the frozen flat
    image is kept.  Failed freezes are cached too (as None) so an
    unfreezable footprint is probed once, not per genome.
    """
    key = (_kernel.config_digest(config), warm_signature(program))
    cached = _frozen_warm.get(key, _MISSING)
    if cached is not _MISSING:
        del _frozen_warm[key]
        _frozen_warm[key] = cached  # refresh LRU recency
        return cached
    state = VectorWarmState.freeze(config, _warm_master(config, key[1]))
    STATS.warm_freezes += 1
    while len(_frozen_warm) >= VECTOR_WARM_CACHE_LIMIT:
        del _frozen_warm[next(iter(_frozen_warm))]
    _frozen_warm[key] = state
    return state


# ------------------------------------------------------------------ running


def run_many(core, programs, max_instructions: int = 50_000):
    """Evaluate ``programs`` through the vector plane, aligned with the input.

    Programs the lowering cannot express — or every program, should the
    config's vector kernel fail to generate — run the interpreted reference
    instead, counted in ``STATS.fallbacks``; empty bodies run it inline
    without counting.
    """
    if not programs:
        return []
    config = core.config
    kernel = _kernel.vector_kernel_for(config)
    results = []
    for program in programs:
        if not program.body:
            results.append(core.run_interpreted(program, max_instructions, True))
            continue
        if kernel is not None and supports_vector(program):
            warm = _frozen_warm_for(config, program)
            if warm is not None:
                try:
                    # The kernel builds the interpreter's per-op info rows.
                    result = kernel(core, program, max_instructions, warm=warm)
                except Unvectorizable:
                    result = None
                if result is not None:
                    STATS.vector_runs += 1
                    results.append(result)
                    continue
        STATS.fallbacks += 1
        results.append(core.run_interpreted(program, max_instructions, True))
    return results
