"""Cycle-level out-of-order core model with ACE/AVF accounting.

The model is a one-pass timing simulator: dynamic instructions are processed
in program order and their dispatch, issue, completion and commit cycles are
computed subject to the machine's structural constraints (ROB/IQ/LQ/SQ/rename
register capacity, dispatch/issue/commit bandwidth, memory-issue ports,
functional-unit counts, branch misprediction redirects and data-memory
latency).  Every dynamic instruction then contributes occupancy and ACE
intervals to the per-structure accumulators, which is exactly the information
ACE analysis needs:

* **ROB** entries are occupied from dispatch to commit and are ACE when the
  instruction is ACE.
* **IQ** entries are occupied (and ACE) from dispatch to issue.
* **LQ/SQ** entries are occupied from dispatch to commit; the tag array is
  ACE once the address is computed at issue, the LQ data array only once the
  data has returned from the memory hierarchy, and the SQ data array once the
  store's operands are ready (the paper's Section IV-A.1 distinction).
* **Rename registers** are ACE from the producer's completion until the last
  read by an ACE consumer.
* **FUs** are ACE while executing ACE arithmetic instructions.
* **DL1/DTLB/L2** ACE time comes from the lifetime analysis embedded in the
  memory hierarchy.

Branch mispredictions redirect fetch: the front-end is stalled until the
branch resolves plus the misprediction penalty, which drains the windows the
same way wrong-path flushes do (wrong-path entries are un-ACE and therefore
never contribute ACE time anyway).

Front-end miss behaviour of workloads (I-cache / I-TLB misses and fetch
inefficiencies) is modelled statistically: programs may carry
``metadata["frontend_miss_rate"]`` (per-instruction probability) and
``metadata["frontend_miss_penalty"]`` (cycles), which inject fetch bubbles.

Implementation notes (hot loop)
-------------------------------
``run_interpreted`` is the reference implementation: ``run`` executes it for
every single-program simulation, and the population planes of
:mod:`repro.uarch.kernel_backends` (GA fitness evaluation) are generated
from it and differentially tested against it (ARCHITECTURE.md, "Kernel
lifecycle").  Its inner loop avoids per-dynamic-op Python overhead:

* Static per-instruction facts (class flags, latencies, ACE fractions,
  branch behaviour) are precomputed once per run into flat tuples instead of
  being re-derived through ``Instruction`` properties per dynamic op.
* The per-cycle dispatch/commit bandwidth counters collapse to a scalar
  ``(cycle, count)`` pair each, because their accesses are monotone in the
  cycle; the issue/memory-port/ALU/multiplier counters use cycle-tagged ring
  buffers with no per-cycle clearing.  A ring slot is valid only when its
  tag equals the probed cycle; rings grow (rare) whenever an instruction's
  issue-to-dispatch span approaches the ring size, which is the exact
  condition under which two live cycles could alias.
* ACE intervals are batched into local floating-point accumulators and
  flushed into the run's :class:`~repro.vuln.ledger.VulnerabilityLedger`
  accounts once at the end of the run.  The sequence of floating-point
  additions is unchanged, so results are bit-identical with the
  straightforward per-op accounting.  Storage-structure (DL1/L2/DTLB and
  the optional L2 TLB) ACE time flows through the same ledger via the
  lifetime events the memory hierarchy emits.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import Mapping, Optional

from repro.branch.predictors import HybridPredictor
from repro.isa.instructions import ARCH_REG_COUNT, Instruction, InstructionClass
from repro.isa.program import BranchBehavior, DynamicOp, Program
from repro.memory.hierarchy import MemoryAccessOutcome, MemoryHierarchy
from repro.uarch.config import MachineConfig
from repro.uarch.structures import AceAccumulator, StructureName
from repro.utils.rng import DeterministicRng
from repro.vuln.ledger import VulnerabilityLedger


@dataclass
class SimulationStats:
    """Aggregate performance-side statistics of a run."""

    total_cycles: int = 0
    committed_instructions: int = 0
    committed_ace_instructions: int = 0
    branch_count: int = 0
    branch_mispredictions: int = 0
    l2_misses: int = 0
    dl1_miss_rate: float = 0.0
    l2_miss_rate: float = 0.0
    dtlb_miss_rate: float = 0.0

    @property
    def ipc(self) -> float:
        if self.total_cycles <= 0:
            return 0.0
        return self.committed_instructions / self.total_cycles

    @property
    def branch_misprediction_rate(self) -> float:
        if self.branch_count == 0:
            return 0.0
        return self.branch_mispredictions / self.branch_count


@dataclass
class SimulationResult:
    """Result of one detailed simulation: the vulnerability accounts + stats.

    ``accumulators`` is the per-structure account mapping of the run's
    :class:`~repro.vuln.ledger.VulnerabilityLedger` — every structure whose
    descriptor was enabled for the machine configuration, in registry order.
    """

    program_name: str
    config: MachineConfig
    accumulators: Mapping[StructureName, AceAccumulator]
    stats: SimulationStats
    metadata: dict[str, object] = field(default_factory=dict)

    @property
    def total_cycles(self) -> int:
        return self.stats.total_cycles

    def avf(self, structure: StructureName) -> float:
        """AVF of one structure over the run."""
        return self.accumulators[structure].avf(self.stats.total_cycles)

    def occupancy(self, structure: StructureName) -> float:
        """Average occupancy of one structure over the run."""
        return self.accumulators[structure].average_occupancy(self.stats.total_cycles)

    def avf_by_structure(self) -> dict[StructureName, float]:
        """AVF of every tracked structure."""
        return {name: self.avf(name) for name in self.accumulators}


# Indices into the per-static-instruction info tuples built by
# ``OutOfOrderCore._instruction_info`` (documentation only; the run loop
# unpacks the whole tuple at once).
_INFO_FIELDS = (
    "index", "is_memory", "is_nop", "is_lq", "is_store", "is_branch",
    "is_mul", "is_arith", "writes_reg", "dest", "srcs", "ace",
    "data_frac", "width_frac", "fixed_latency", "pattern",
    "taken_probability", "loop_closing", "pc",
)


class OutOfOrderCore:
    """Out-of-order core simulator for a given :class:`MachineConfig`."""

    def __init__(self, config: MachineConfig, seed: int = 0) -> None:
        self.config = config
        self.seed = int(seed)

    # ------------------------------------------------------------------ run

    def run(
        self,
        program: Program,
        max_instructions: int = 50_000,
        functional_setup: bool = True,
    ) -> SimulationResult:
        """Simulate ``program`` for up to ``max_instructions`` body instructions.

        ``functional_setup`` executes the program's setup section as a warm-up
        of the memory hierarchy (cache/TLB contents and lifetime state) without
        occupying core structures, mirroring the common practice of functional
        cache warm-up before a detailed simulation window.

        A single program runs the interpreted reference loop through
        :meth:`InterpretedBackend.run_one
        <repro.uarch.kernel_backends.InterpretedBackend.run_one>`: for the
        short programs of the workload suite it beats compiling a kernel per
        program.  Populations go through a kernel backend's ``run_many``
        instead (see :mod:`repro.uarch.kernel_backends`).
        """
        if functional_setup:
            from repro.uarch.kernel_backends import INTERPRETED

            return INTERPRETED.run_one(self, program, max_instructions)
        return self.run_interpreted(program, max_instructions, functional_setup)

    def run_interpreted(
        self,
        program: Program,
        max_instructions: int = 50_000,
        functional_setup: bool = True,
    ) -> SimulationResult:
        """The interpreted reference implementation of :meth:`run`.

        Kept as the semantics oracle for the generated kernels: the
        differential suite and the ``kernel-smoke`` gate compare the
        population planes against it cycle-for-cycle and
        ledger-credit-for-credit.
        """
        if max_instructions <= 0:
            raise ValueError("max_instructions must be positive")

        config = self.config
        rng = DeterministicRng(self.seed).spawn("sim", program.name)
        ledger = VulnerabilityLedger(config)
        hierarchy = MemoryHierarchy(
            dl1_config=config.dl1,
            l2_config=config.l2,
            dtlb_config=config.dtlb,
            memory_latency=config.memory_latency,
            tlb_miss_penalty=config.tlb_miss_penalty,
            ledger=ledger,
            l2_tlb_config=config.l2_tlb,
            l2_tlb_hit_latency=config.l2_tlb_hit_latency,
        )
        predictor = HybridPredictor(
            global_entries=config.branch_predictor_global_entries,
            local_history_entries=config.branch_predictor_local_entries,
            choice_entries=config.branch_predictor_choice_entries,
        )
        accumulators = ledger.accounts
        stats = SimulationStats()

        frontend_miss_rate = float(program.metadata.get("frontend_miss_rate", 0.0))
        frontend_miss_penalty = int(program.metadata.get("frontend_miss_penalty", 10))
        has_frontend_misses = frontend_miss_rate > 0.0

        # Independent, reproducible randomness streams for the different
        # stochastic behaviours of the run (addresses, branches, front-end).
        memory_rng = rng.spawn("memory")
        branch_rng = rng.spawn("branch")
        frontend_rng = rng.spawn("frontend")

        if functional_setup:
            self._run_functional_setup(program, hierarchy, rng)

        # -------------------------------------------- static precomputation
        body_infos = [
            self._instruction_info(instruction, index, False, program)
            for index, instruction in enumerate(program.body)
        ]
        setup_infos: list[tuple] = []
        if not functional_setup:
            setup_infos = [
                self._instruction_info(instruction, index, True, program)
                for index, instruction in enumerate(program.setup)
            ]

        # ------------------------------------------------ bandwidth counters
        # Dispatch and commit choices are monotone non-decreasing across ops,
        # so their per-cycle counters collapse to one (cycle, count) pair.
        disp_cycle = -1
        disp_count = 0
        commit_count = 0
        # Issue-side counters are not monotone (an independent op can issue
        # below an older long-latency op), so they live in cycle-tagged ring
        # buffers: a slot's counts are valid only when ring_tag[slot] equals
        # the probed cycle.  No per-cycle clearing is ever needed; the rings
        # grow when an op's issue-to-dispatch span approaches the ring size
        # (the exact condition under which two live cycles could alias).
        max_override = 0
        for info in body_infos:
            if info[14] is not None and info[14] > max_override:
                max_override = info[14]
        for info in setup_infos:
            if info[14] is not None and info[14] > max_override:
                max_override = info[14]
        per_op_latency_bound = (
            config.memory_latency
            + config.tlb_miss_penalty
            + max(config.multiply_latency, config.divide_latency, config.alu_latency, max_override)
            + 2
        )
        window_bound = config.rob_entries * per_op_latency_bound + 1024
        ring_size = 1 << (min(max(window_bound, 1024), 1 << 17) - 1).bit_length()
        ring_mask = ring_size - 1
        ring_tag = [-1] * ring_size
        ring_issue = [0] * ring_size
        ring_mem = [0] * ring_size
        ring_alu = [0] * ring_size
        ring_mul = [0] * ring_size

        # ------------------------------------------------- structural state
        rob_commits: deque[int] = deque()
        lq_commits: deque[int] = deque()
        sq_commits: deque[int] = deque()
        iq_issue_heap: list[int] = []
        rename_commit_heap: list[int] = []

        # Live-in architected state: the value sitting in each architected
        # register at the start of the window is ACE from cycle 0 until its
        # last read (base addresses, loop-invariant constants, etc.).
        architected = config.architected_registers
        num_regs = max(ARCH_REG_COUNT, architected)
        reg_present = [True] * architected + [False] * (num_regs - architected)
        reg_complete = [0] * num_regs
        reg_width = [1.0] * num_regs
        reg_ace = [True] * num_regs
        reg_last_read = [-1] * num_regs  # -1 == "never read by an ACE consumer"
        reg_ready = [0] * num_regs
        extra_regs: list[int] = []  # regs >= architected, in first-write order

        # --------------------------------------------------- batched sums
        # Each pair mirrors one ledger account's (occupied_entry_cycles,
        # ace_bit_cycles); the same additions happen in the same order, so
        # flushing once at the end (``ledger.credit``) is bit-identical to
        # per-op accounting.
        rob_bits = accumulators[StructureName.ROB].bits_per_entry
        iq_bits = accumulators[StructureName.IQ].bits_per_entry
        lqt_bits = accumulators[StructureName.LQ_TAG].bits_per_entry
        lqd_bits = accumulators[StructureName.LQ_DATA].bits_per_entry
        sqt_bits = accumulators[StructureName.SQ_TAG].bits_per_entry
        sqd_bits = accumulators[StructureName.SQ_DATA].bits_per_entry
        rf_bits = accumulators[StructureName.RF].bits_per_entry
        fu_bits = accumulators[StructureName.FU].bits_per_entry
        rob_occ = rob_ace = 0.0
        iq_occ = iq_ace = 0.0
        lqt_occ = lqt_ace = 0.0
        lqd_occ = lqd_ace = 0.0
        sqt_occ = sqt_ace = 0.0
        sqd_occ = sqd_ace = 0.0
        rf_occ = rf_ace = 0.0
        fu_occ = fu_ace = 0.0
        # Flag-gated post-commit store buffer (absent on the stock configs).
        sb_account = accumulators.get(StructureName.SB)
        track_sb = sb_account is not None
        sb_bits = sb_account.bits_per_entry if track_sb else 0
        sb_drain = float(config.store_buffer_drain_cycles)
        sb_occ = sb_ace = 0.0

        # ------------------------------------------------------ hot locals
        dispatch_width = config.dispatch_width
        issue_width = config.issue_width
        commit_width = config.commit_width
        memory_issue_width = config.memory_issue_width
        int_alus = config.int_alus
        int_multipliers = config.int_multipliers
        rob_entries = config.rob_entries
        iq_entries = config.iq_entries
        lq_entries = config.lq_entries
        sq_entries = config.sq_entries
        free_rename = config.free_rename_registers
        mispredict_penalty = config.branch_misprediction_penalty
        iterations_total = program.iterations
        hierarchy_access = hierarchy.access_parts
        predictor_update = predictor.update
        branch_random = branch_rng.raw().random
        frontend_random = frontend_rng.raw().random
        heappush = heapq.heappush
        heappop = heapq.heappop
        rob_append = rob_commits.append
        rob_popleft = rob_commits.popleft
        lq_append = lq_commits.append
        lq_popleft = lq_commits.popleft
        sq_append = sq_commits.append
        sq_popleft = sq_commits.popleft

        committed = 0
        committed_ace = 0
        branch_count = 0
        branch_mispredictions = 0
        l2_misses = 0

        min_dispatch_cycle = 1
        fetch_resume_cycle = 0
        last_commit_cycle = 0
        final_cycle = 1

        budget = max_instructions
        processed = 0
        done = False

        # Dynamic stream: the setup section once (only when it is not handled
        # functionally), then the body repeated per iteration, truncated at
        # the instruction budget — mirroring Program.dynamic_stream.
        def iteration_blocks():
            if setup_infos:
                yield -1, setup_infos
            for iteration in range(iterations_total):
                yield iteration, body_infos

        for iteration, infos in iteration_blocks():
            resolve_iteration = iteration if iteration > 0 else 0
            closing_taken = iteration < iterations_total - 1
            for info in infos:
                if processed >= budget:
                    done = True
                    break
                processed += 1

                (_, is_memory, is_nop, is_lq, is_store, is_branch, is_mul,
                 is_arith, writes_reg, dest, srcs, ace, data_frac, width_frac,
                 fixed_latency, pattern, taken_probability, loop_closing,
                 pc) = info

                # ------------------------------------------------ dispatch
                dispatch = min_dispatch_cycle
                if fetch_resume_cycle > dispatch:
                    dispatch = fetch_resume_cycle

                if has_frontend_misses and frontend_random() < frontend_miss_rate:
                    dispatch += frontend_miss_penalty

                if len(rob_commits) >= rob_entries and rob_commits[0] > dispatch:
                    dispatch = rob_commits[0]
                if is_lq:
                    if len(lq_commits) >= lq_entries and lq_commits[0] > dispatch:
                        dispatch = lq_commits[0]
                elif is_store:
                    if len(sq_commits) >= sq_entries and sq_commits[0] > dispatch:
                        dispatch = sq_commits[0]

                if writes_reg:
                    while rename_commit_heap and rename_commit_heap[0] <= dispatch:
                        heappop(rename_commit_heap)
                    if len(rename_commit_heap) >= free_rename:
                        if rename_commit_heap[0] > dispatch:
                            dispatch = rename_commit_heap[0]
                        while rename_commit_heap and rename_commit_heap[0] <= dispatch:
                            heappop(rename_commit_heap)

                if not is_nop:
                    while iq_issue_heap and iq_issue_heap[0] <= dispatch:
                        heappop(iq_issue_heap)
                    if len(iq_issue_heap) >= iq_entries:
                        if iq_issue_heap[0] > dispatch:
                            dispatch = iq_issue_heap[0]
                        while iq_issue_heap and iq_issue_heap[0] <= dispatch:
                            heappop(iq_issue_heap)

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
                min_dispatch_cycle = dispatch

                # --------------------------------------------------- issue
                if is_nop:
                    issue = dispatch
                    complete = dispatch
                    latency = 0
                else:
                    issue = dispatch + 1
                    for src in srcs:
                        ready = reg_ready[src]
                        if ready > issue:
                            issue = ready

                    while True:
                        slot = issue & ring_mask
                        if ring_tag[slot] == issue:
                            if ring_issue[slot] >= issue_width:
                                issue += 1
                                continue
                            if is_memory:
                                if ring_mem[slot] >= memory_issue_width:
                                    issue += 1
                                    continue
                            elif is_mul:
                                if ring_mul[slot] >= int_multipliers:
                                    issue += 1
                                    continue
                            elif ring_alu[slot] >= int_alus:
                                issue += 1
                                continue
                        break

                    if issue - dispatch >= ring_size:
                        # Two live cycles could alias; regrow (rare).
                        ring_size, ring_mask, ring_tag, ring_issue, ring_mem, \
                            ring_alu, ring_mul = self._grow_rings(
                                issue - dispatch, dispatch, ring_size,
                                ring_tag, ring_issue, ring_mem, ring_alu, ring_mul,
                            )
                        slot = issue & ring_mask
                    if ring_tag[slot] == issue:
                        ring_issue[slot] += 1
                    else:
                        ring_tag[slot] = issue
                        ring_issue[slot] = 1
                        ring_mem[slot] = 0
                        ring_alu[slot] = 0
                        ring_mul[slot] = 0
                    if is_memory:
                        ring_mem[slot] += 1
                    elif is_mul:
                        ring_mul[slot] += 1
                    else:
                        ring_alu[slot] += 1

                    if fixed_latency is not None:
                        latency = fixed_latency
                    else:
                        # Load/prefetch: resolve the address and access the
                        # memory hierarchy at issue time.
                        address = pattern.resolve(resolve_iteration, memory_rng)
                        latency, dl1_hit, l2_hit, _ = hierarchy_access(address, False, issue, ace)
                        if not dl1_hit and not l2_hit:
                            l2_misses += 1
                    complete = issue + latency

                # -------------------------------------------------- commit
                commit = complete + 1
                if last_commit_cycle > commit:
                    commit = last_commit_cycle
                if commit == last_commit_cycle and commit_count >= commit_width:
                    commit += 1
                if commit == last_commit_cycle:
                    commit_count += 1
                else:
                    commit_count = 1
                last_commit_cycle = commit
                if commit > final_cycle:
                    final_cycle = commit

                # Stores update the data cache when they retire.
                if is_store and pattern is not None:
                    address = pattern.resolve(resolve_iteration, memory_rng)
                    hierarchy_access(address, True, commit, ace)

                # -------------------------------------------- branch logic
                if is_branch:
                    branch_count += 1
                    if loop_closing:
                        taken = closing_taken
                    else:
                        taken = branch_random() < taken_probability
                    if predictor_update(pc, taken):
                        branch_mispredictions += 1
                        resume = complete + mispredict_penalty
                        if resume > fetch_resume_cycle:
                            fetch_resume_cycle = resume

                # ---------------------------------------- structural state
                rob_append(commit)
                if len(rob_commits) > rob_entries:
                    rob_popleft()
                if is_lq:
                    lq_append(commit)
                    if len(lq_commits) > lq_entries:
                        lq_popleft()
                elif is_store:
                    sq_append(commit)
                    if len(sq_commits) > sq_entries:
                        sq_popleft()
                if not is_nop:
                    heappush(iq_issue_heap, issue)
                if writes_reg:
                    heappush(rename_commit_heap, commit)

                # ------------------------------------------------ ACE credit
                duration = float(commit - dispatch)
                rob_occ += duration
                if ace:
                    rob_ace += duration * rob_bits

                if not is_nop:
                    duration = float(issue - dispatch)
                    iq_occ += duration
                    if ace:
                        iq_ace += duration * iq_bits

                if is_lq:
                    lqt_occ += float(issue - dispatch)
                    duration = float(commit - issue)
                    lqt_occ += duration
                    if ace:
                        lqt_ace += duration * lqt_bits
                    lqd_occ += float(complete - dispatch)
                    duration = float(commit - complete)
                    lqd_occ += duration
                    if data_frac:
                        lqd_ace += duration * lqd_bits * data_frac
                elif is_store:
                    sqt_occ += float(issue - dispatch)
                    duration = float(commit - issue)
                    sqt_occ += duration
                    if ace:
                        sqt_ace += duration * sqt_bits
                    sqd_occ += float(issue - dispatch)
                    if data_frac:
                        sqd_ace += duration * sqd_bits * data_frac
                    sqd_occ += duration
                    if track_sb:
                        # The retired store occupies the store buffer for its
                        # drain window [commit, commit + drain); address+data
                        # must survive until the DL1 write completes.
                        sb_occ += sb_drain
                        if data_frac:
                            sb_ace += sb_drain * sb_bits * data_frac

                if is_arith:
                    duration = float(latency if latency > 1 else 1)
                    fu_occ += duration
                    if ace:
                        fu_ace += duration * fu_bits

                # Register-file lifetime: mark ACE source reads at issue, and
                # retire the overwritten destination value's ACE interval.
                if ace:
                    for src in srcs:
                        if reg_present[src] and issue > reg_last_read[src]:
                            reg_last_read[src] = issue
                if writes_reg:
                    if reg_present[dest]:
                        if reg_ace[dest]:
                            last_read = reg_last_read[dest]
                            if last_read > reg_complete[dest]:
                                duration = float(last_read - reg_complete[dest])
                                rf_occ += duration
                                rf_ace += duration * rf_bits * reg_width[dest]
                    else:
                        reg_present[dest] = True
                        extra_regs.append(dest)
                    reg_complete[dest] = complete
                    reg_width[dest] = width_frac
                    reg_ace[dest] = ace
                    reg_last_read[dest] = -1
                    reg_ready[dest] = complete

                committed += 1
                if ace:
                    committed_ace += 1
            if done:
                break

        # Finalise open register lifetimes (architected registers in index
        # order first, then late-allocated ones in first-write order — the
        # same order the per-register records were created in).
        for reg in range(architected):
            if reg_ace[reg]:
                last_read = reg_last_read[reg]
                if last_read > reg_complete[reg]:
                    duration = float(last_read - reg_complete[reg])
                    rf_occ += duration
                    rf_ace += duration * rf_bits * reg_width[reg]
        for reg in extra_regs:
            if reg_ace[reg]:
                last_read = reg_last_read[reg]
                if last_read > reg_complete[reg]:
                    duration = float(last_read - reg_complete[reg])
                    rf_occ += duration
                    rf_ace += duration * rf_bits * reg_width[reg]

        # Flush the batched sums into the ledger accounts.
        credit = ledger.credit
        credit(StructureName.ROB, rob_occ, rob_ace)
        credit(StructureName.IQ, iq_occ, iq_ace)
        credit(StructureName.LQ_TAG, lqt_occ, lqt_ace)
        credit(StructureName.LQ_DATA, lqd_occ, lqd_ace)
        credit(StructureName.SQ_TAG, sqt_occ, sqt_ace)
        credit(StructureName.SQ_DATA, sqd_occ, sqd_ace)
        credit(StructureName.RF, rf_occ, rf_ace)
        credit(StructureName.FU, fu_occ, fu_ace)
        if track_sb:
            credit(StructureName.SB, sb_occ, sb_ace)

        hierarchy.finalize(final_cycle)

        stats.committed_instructions = committed
        stats.committed_ace_instructions = committed_ace
        stats.branch_count = branch_count
        stats.branch_mispredictions = branch_mispredictions
        stats.l2_misses = l2_misses
        stats.total_cycles = final_cycle
        stats.dl1_miss_rate = hierarchy.dl1.stats.miss_rate
        stats.l2_miss_rate = hierarchy.l2.stats.miss_rate
        stats.dtlb_miss_rate = hierarchy.dtlb.stats.miss_rate

        # Fold the storage structures' lifetime totals into their accounts.
        accumulators = dict(ledger.collect())

        return SimulationResult(
            program_name=program.name,
            config=config,
            accumulators=accumulators,
            stats=stats,
            metadata=dict(program.metadata),
        )

    # -------------------------------------------------------------- helpers

    def _instruction_info(
        self, instruction: Instruction, index: int, in_setup: bool, program: Program
    ) -> tuple:
        """Precompute the per-dynamic-op facts of one static instruction.

        Field order is documented by ``_INFO_FIELDS``.  ``fixed_latency`` is
        ``None`` exactly when the latency is dynamic (a load/prefetch without
        an override, which must access the memory hierarchy at issue).
        """
        config = self.config
        opclass = instruction.opclass
        is_lq = opclass is InstructionClass.LOAD or opclass is InstructionClass.PREFETCH
        is_store = opclass is InstructionClass.STORE
        is_mul = opclass is InstructionClass.INT_MUL or opclass is InstructionClass.INT_DIV
        ace = instruction.ace
        width_frac = instruction.width.ace_fraction()

        fixed_latency: Optional[int]
        if instruction.latency_override is not None:
            fixed_latency = instruction.latency_override
        elif opclass is InstructionClass.INT_ALU or opclass is InstructionClass.BRANCH:
            fixed_latency = config.alu_latency
        elif opclass is InstructionClass.INT_MUL:
            fixed_latency = config.multiply_latency
        elif opclass is InstructionClass.INT_DIV:
            fixed_latency = config.divide_latency
        elif is_store:
            # Address generation only; the data-cache write happens at commit.
            fixed_latency = config.alu_latency
        elif is_lq:
            fixed_latency = None
        else:
            fixed_latency = 0

        return (
            index,
            opclass.is_memory,
            opclass is InstructionClass.NOP,
            is_lq,
            is_store,
            opclass is InstructionClass.BRANCH,
            is_mul,
            opclass is InstructionClass.INT_ALU or is_mul,
            instruction.dest is not None,
            instruction.dest,
            instruction.srcs,
            ace,
            width_frac if ace else 0.0,
            width_frac,
            fixed_latency,
            instruction.address_pattern,
            instruction.taken_probability,
            program.branch_behavior(index) is BranchBehavior.LOOP_CLOSING,
            4096 + index if in_setup else index,
        )

    @staticmethod
    def _grow_rings(
        span: int,
        frontier: int,
        ring_size: int,
        ring_tag: list[int],
        ring_issue: list[int],
        ring_mem: list[int],
        ring_alu: list[int],
        ring_mul: list[int],
    ) -> tuple[int, int, list[int], list[int], list[int], list[int], list[int]]:
        """Double the issue rings until ``span`` fits; re-place live slots.

        A slot is live exactly when its tagged cycle is beyond ``frontier``
        (the current dispatch cycle): earlier cycles can never be probed
        again because dispatch is monotone.
        """
        new_size = ring_size
        while new_size <= span:
            new_size <<= 1
        new_mask = new_size - 1
        new_tag = [-1] * new_size
        new_issue = [0] * new_size
        new_mem = [0] * new_size
        new_alu = [0] * new_size
        new_mul = [0] * new_size
        for slot in range(ring_size):
            tag = ring_tag[slot]
            if tag > frontier:
                new_slot = tag & new_mask
                new_tag[new_slot] = tag
                new_issue[new_slot] = ring_issue[slot]
                new_mem[new_slot] = ring_mem[slot]
                new_alu[new_slot] = ring_alu[slot]
                new_mul[new_slot] = ring_mul[slot]
        return new_size, new_mask, new_tag, new_issue, new_mem, new_alu, new_mul

    def _run_functional_setup(
        self, program: Program, hierarchy: MemoryHierarchy, rng: DeterministicRng
    ) -> None:
        """Warm the memory hierarchy with the program's declared footprint.

        Warm-up has two parts: the declared :class:`WarmupRegion` footprints
        (walked at line granularity) and the explicit setup instructions
        (replayed functionally, without core occupancy accounting).
        """
        for region in program.warmup_regions:
            hierarchy.warm_region(
                base=region.base,
                size_bytes=region.size_bytes,
                dirty=region.dirty,
                ace=region.ace,
                word_fraction=region.word_fraction,
                recurrent=region.recurrent,
            )
        setup_rng = rng.spawn("setup")
        for index, instruction in enumerate(program.setup):
            if instruction.address_pattern is None:
                continue
            address = instruction.address_pattern.resolve(index, setup_rng)
            hierarchy.access(
                address,
                is_write=instruction.is_store,
                cycle=0,
                ace=instruction.ace,
            )

    def _execution_latency(
        self,
        instruction: Instruction,
        op: DynamicOp,
        issue: int,
        hierarchy: MemoryHierarchy,
        rng: DeterministicRng,
    ) -> tuple[int, Optional[MemoryAccessOutcome]]:
        """Latency of an issued instruction; memory ops access the hierarchy.

        Kept as the reference (unbatched) formulation of the latency model
        used by the run loop's precomputed ``fixed_latency`` fast path; unit
        tests may exercise it directly.
        """
        config = self.config
        if instruction.latency_override is not None:
            return instruction.latency_override, None
        opclass = instruction.opclass
        if opclass is InstructionClass.INT_ALU or opclass is InstructionClass.BRANCH:
            return config.alu_latency, None
        if opclass is InstructionClass.INT_MUL:
            return config.multiply_latency, None
        if opclass is InstructionClass.INT_DIV:
            return config.divide_latency, None
        if opclass in (InstructionClass.LOAD, InstructionClass.PREFETCH):
            address = instruction.address_pattern.resolve(max(op.iteration, 0), rng)
            outcome = hierarchy.access(
                address, is_write=False, cycle=issue, ace=instruction.ace
            )
            return outcome.latency, outcome
        if opclass is InstructionClass.STORE:
            # Address generation only; the data-cache write happens at commit.
            return config.alu_latency, None
        return 0, None
