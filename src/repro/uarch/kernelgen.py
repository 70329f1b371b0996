"""Config-specialized simulator code generation.

Given a :class:`~repro.uarch.config.MachineConfig`, this module emits the
Python source of the population kernel of the ``vector`` plane
(:func:`generate_vector_kernel_source`).  Machine-configuration constants
(widths, queue depths, latencies, bits-per-entry) are baked in as literals
once per config; everything program-specific — the per-op info rows the
interpreter precomputes, address patterns, iteration count, front-end miss
model — stays a runtime input, so one compile covers a whole GA search.

**Bit-identity contract.**  The generated code performs the same sequence of
floating-point additions into the same accumulators, draws the same RNG
streams in the same order, and probes the memory hierarchy / branch
predictor with the same arguments at the same simulated cycles as
:meth:`repro.uarch.pipeline.OutOfOrderCore.run_interpreted`.  Constant
folding only ever combines values that the interpreter also combines in one
left-associated expression, so every folded literal equals the interpreter's
intermediate exactly.  The differential suite
(``tests/test_kernel_differential.py``) and the ``kernel-smoke`` and
``batch-smoke`` tier-2 gates enforce the contract.
"""

from __future__ import annotations

from repro.uarch.config import MachineConfig
from repro.uarch.structures import StructureName
from repro.vuln.ledger import VulnerabilityLedger


def _lit(value: object) -> str:
    """Exact literal for an int/float/bool (floats round-trip via repr)."""
    return repr(value)


class _Emitter:
    """Tiny indented-source builder."""

    def __init__(self) -> None:
        self.lines: list[str] = []
        self.indent = 0

    def emit(self, line: str = "") -> None:
        if line:
            self.lines.append("    " * self.indent + line)
        else:
            self.lines.append("")

    def block(self, *lines: str) -> None:
        for line in lines:
            self.emit(line)

    def source(self) -> str:
        return "\n".join(self.lines) + "\n"


def generate_vector_kernel_source(config: MachineConfig) -> str:
    """Generate config-specialized *vector* kernel source.

    The vector plane's timing loop: a transcription of the interpreted
    reference loop in which every per-op stochastic or object-dispatched
    input is precomputed into
    columns by :func:`repro.uarch.kernel_vector.build_columns` before the
    loop runs — front-end stalls, branch mispredicts and resolved address
    parts become plain list indexing — and the memory hierarchy is the flat
    :class:`~repro.uarch.kernel_vector.VectorHierarchy` materialized from a
    frozen warm template.  The emitted function is

        ``vector_run(core, program, max_instructions, body_infos, warm)``

    where ``warm`` is a :class:`~repro.uarch.kernel_vector.VectorWarmState`
    (required — setup programs never reach this plane) and ``body_infos``
    the interpreter's per-op info rows (built from the program when
    omitted).

    Bit-identity contract: identical float addition order, RNG draw order
    and probe cycles as the interpreted reference.  The structural queues
    are replaced by append-only commit columns with drain cursors — valid
    because commit cycles are monotone non-decreasing (each op's commit is
    clamped to ``last_commit_cycle``), so the reference's rename heap pops
    in exactly append order; the IQ keeps a real heap (issue cycles are not
    monotone).  Raises ``kernel_vector.Unvectorizable`` for programs the
    column lowering cannot express; the runner falls back to the
    interpreter per item.
    """
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
    sb_drain = float(config.store_buffer_drain_cycles)

    from repro.isa.instructions import ARCH_REG_COUNT

    architected = config.architected_registers
    num_regs = max(ARCH_REG_COUNT, architected)

    static_latency_bound = max(
        config.multiply_latency, config.divide_latency, config.alu_latency
    )

    out = _Emitter()
    out.block(
        '"""Auto-generated config-specialized vector simulator kernel.',
        "",
        f"config: {config.name!r}",
        "Generated by repro.uarch.kernelgen; do not edit.  See ARCHITECTURE.md.",
        '"""',
        "",
        "import heapq",
        "",
        "from repro.uarch import kernel_vector as _kv",
        "from repro.uarch.pipeline import OutOfOrderCore, SimulationResult, SimulationStats",
        "from repro.uarch.structures import StructureName",
        "from repro.utils.rng import DeterministicRng",
        "from repro.vuln.ledger import VulnerabilityLedger",
        "",
        "_grow_rings = OutOfOrderCore._grow_rings",
        "",
        "",
        f"def vector_run(core, program, max_instructions={50_000}, body_infos=None, warm=None):",
    )
    out.indent = 1
    out.block(
        "if max_instructions <= 0:",
        "    raise ValueError('max_instructions must be positive')",
        "if warm is None:",
        "    raise _kv.Unvectorizable('vector kernels require a frozen warm state')",
        "config = core.config",
        "rng = DeterministicRng(core.seed).spawn('sim', program.name)",
        "stats = SimulationStats()",
        "frontend_miss_rate = float(program.metadata.get('frontend_miss_rate', 0.0))",
        "frontend_miss_penalty = int(program.metadata.get('frontend_miss_penalty', 10))",
        "has_frontend = frontend_miss_rate > 0.0",
        "memory_rng = rng.spawn('memory')",
        "branch_rng = rng.spawn('branch')",
        "frontend_rng = rng.spawn('frontend')",
        "",
        "if body_infos is None:",
        "    body_infos = [core._instruction_info(instruction, index, False, program)",
        "                  for index, instruction in enumerate(program.body)]",
        "body_len = len(body_infos)",
        "",
        "max_override = 0",
        "ace_total = 0",
        "branch_total = 0",
        "ace_prefix = [0]",
        "branch_prefix = [0]",
        "for info in body_infos:",
        "    if info[14] is not None and info[14] > max_override:",
        "        max_override = info[14]",
        "    if info[11]:",
        "        ace_total += 1",
        "    if info[5]:",
        "        branch_total += 1",
        "    ace_prefix.append(ace_total)",
        "    branch_prefix.append(branch_total)",
        "",
        f"latency_bound = {static_latency_bound}",
        "if max_override > latency_bound:",
        "    latency_bound = max_override",
        f"per_op_latency_bound = {config.memory_latency + config.tlb_miss_penalty} + latency_bound + 2",
        f"window_bound = {config.rob_entries} * per_op_latency_bound + 1024",
        f"ring_size = 1 << (min(max(window_bound, 1024), {1 << 17}) - 1).bit_length()",
        "ring_mask = ring_size - 1",
        "ring_tag = [-1] * ring_size",
        "ring_issue = [0] * ring_size",
        "ring_mem = [0] * ring_size",
        "ring_alu = [0] * ring_size",
        "ring_mul = [0] * ring_size",
        "",
        "iterations_total = program.iterations",
        "last_iteration = iterations_total - 1",
        "full_iters = max_instructions // body_len",
        "if full_iters >= iterations_total:",
        "    full_iters = iterations_total",
        "    tail_ops = 0",
        "else:",
        "    tail_ops = max_instructions - full_iters * body_len",
        "",
        "# Column pre-pass before any per-run state exists: an Unvectorizable",
        "# program falls back to the interpreter with nothing to unwind.",
        "frontend_col, mispredict_col, memory_cols = _kv.build_columns(",
        "    config, body_infos, full_iters, tail_ops, last_iteration,",
        "    memory_rng, branch_rng, frontend_rng,",
        "    frontend_miss_rate, frontend_miss_penalty,",
        ")",
        "hierarchy = warm.materialize()",
        "",
        "# Append-only commit columns + drain cursors replace the reference",
        "# deques/rename-heap (commit cycles are monotone); the IQ issue heap",
        "# stays a real heap.",
        "commit_col = []",
        "commit_append = commit_col.append",
        "lq_commit_col = []",
        "lq_commit_append = lq_commit_col.append",
        "sq_commit_col = []",
        "sq_commit_append = sq_commit_col.append",
        "write_commit_col = []",
        "write_commit_append = write_commit_col.append",
        "iq_issue_heap = []",
        "op_index = 0",
        "lq_count = 0",
        "sq_count = 0",
        "write_count = 0",
        "rename_drained = 0",
        "iq_len = 0",
        "branch_index = 0",
        "",
        f"reg_present = [True] * {architected} + [False] * {num_regs - architected}",
        f"reg_complete = [0] * {num_regs}",
        f"reg_width = [1.0] * {num_regs}",
        f"reg_ace = [True] * {num_regs}",
        f"reg_last_read = [-1] * {num_regs}",
        f"reg_ready = [0] * {num_regs}",
        "extra_regs = []",
        "",
        "rob_occ = rob_ace = 0.0",
        "iq_occ = iq_ace = 0.0",
        "lqt_occ = lqt_ace = 0.0",
        "lqd_occ = lqd_ace = 0.0",
        "sqt_occ = sqt_ace = 0.0",
        "sqd_occ = sqd_ace = 0.0",
        "rf_occ = rf_ace = 0.0",
        "fu_occ = fu_ace = 0.0",
    )
    if track_sb:
        out.emit("sb_occ = sb_ace = 0.0")
    out.block(
        "",
        "hierarchy_access = hierarchy.access",
        "heappush = heapq.heappush",
        "heappop = heapq.heappop",
        "",
        "branch_mispredictions = 0",
        "min_dispatch_cycle = 1",
        "fetch_resume_cycle = 0",
        "last_commit_cycle = 0",
        "final_cycle = 1",
        "disp_cycle = -1",
        "disp_count = 0",
        "commit_count = 0",
        "",
        "for iteration in range(full_iters):",
    )
    out.indent = 2
    out.block(
        "for _tail_index in range(body_len):",
    )
    out.indent = 3
    _emit_vector_op(
        out,
        track_sb=track_sb,
        sb_bits=sb_bits,
        sb_drain=sb_drain,
        bits=(rob_bits, iq_bits, lqt_bits, lqd_bits, sqt_bits, sqd_bits, rf_bits, fu_bits),
        config=config,
    )
    out.indent = 1

    out.block(
        "",
        "if tail_ops:",
    )
    out.indent = 2
    out.block(
        "iteration = full_iters",
        "for _tail_index in range(tail_ops):",
    )
    out.indent = 3
    _emit_vector_op(
        out,
        track_sb=track_sb,
        sb_bits=sb_bits,
        sb_drain=sb_drain,
        bits=(rob_bits, iq_bits, lqt_bits, lqd_bits, sqt_bits, sqd_bits, rf_bits, fu_bits),
        config=config,
    )
    out.indent = 1

    out.block(
        "",
        f"for reg in range({architected}):",
        "    if reg_ace[reg]:",
        "        last_read = reg_last_read[reg]",
        "        if last_read > reg_complete[reg]:",
        "            duration = float(last_read - reg_complete[reg])",
        "            rf_occ += duration",
        f"            rf_ace += duration * {rf_bits} * reg_width[reg]",
        "for reg in extra_regs:",
        "    if reg_ace[reg]:",
        "        last_read = reg_last_read[reg]",
        "        if last_read > reg_complete[reg]:",
        "            duration = float(last_read - reg_complete[reg])",
        "            rf_occ += duration",
        f"            rf_ace += duration * {rf_bits} * reg_width[reg]",
        "",
        "ledger = VulnerabilityLedger(config)",
        "credit = ledger.credit",
        "credit(StructureName.ROB, rob_occ, rob_ace)",
        "credit(StructureName.IQ, iq_occ, iq_ace)",
        "credit(StructureName.LQ_TAG, lqt_occ, lqt_ace)",
        "credit(StructureName.LQ_DATA, lqd_occ, lqd_ace)",
        "credit(StructureName.SQ_TAG, sqt_occ, sqt_ace)",
        "credit(StructureName.SQ_DATA, sqd_occ, sqd_ace)",
        "credit(StructureName.RF, rf_occ, rf_ace)",
        "credit(StructureName.FU, fu_occ, fu_ace)",
    )
    if track_sb:
        out.emit("credit(StructureName.SB, sb_occ, sb_ace)")
    out.block(
        "",
        "hierarchy.finalize(final_cycle)",
        "_kv.install_trackers(ledger, hierarchy)",
        "",
        "stats.committed_instructions = full_iters * body_len + tail_ops",
        "stats.committed_ace_instructions = full_iters * ace_total + ace_prefix[tail_ops]",
        "stats.branch_count = full_iters * branch_total + branch_prefix[tail_ops]",
        "stats.branch_mispredictions = branch_mispredictions",
        "stats.l2_misses = hierarchy.load_l2_misses",
        "stats.total_cycles = final_cycle",
        "stats.dl1_miss_rate = (hierarchy.dl1_misses / hierarchy.dl1_accesses"
        " if hierarchy.dl1_accesses else 0.0)",
        "stats.l2_miss_rate = (hierarchy.l2_misses / hierarchy.l2_accesses"
        " if hierarchy.l2_accesses else 0.0)",
        "stats.dtlb_miss_rate = (hierarchy.dtlb_misses / hierarchy.dtlb_accesses"
        " if hierarchy.dtlb_accesses else 0.0)",
        "",
        "return SimulationResult(",
        "    program_name=program.name,",
        "    config=config,",
        "    accumulators=dict(ledger.collect()),",
        "    stats=stats,",
        "    metadata=dict(program.metadata),",
        ")",
    )
    out.indent = 0
    return out.source()


def _emit_vector_op(
    out: _Emitter,
    *,
    track_sb: bool,
    sb_bits: int,
    sb_drain: float,
    bits: tuple[int, int, int, int, int, int, int, int],
    config: MachineConfig,
) -> None:
    """Emit the vector per-op body (the interpreter transcription on columns).

    Mirrors the reference loop of :meth:`OutOfOrderCore.run_interpreted`
    statement for statement, except every stochastic or object-dispatched
    input is a column read: front-end stall from
    ``frontend_col``, branch outcome from ``mispredict_col``, memory access
    parts from ``memory_cols``; and the ROB/LQ/SQ/rename structural gates
    index the append-only commit columns directly.
    """
    rob_bits, iq_bits, lqt_bits, lqd_bits, sqt_bits, sqd_bits, rf_bits, fu_bits = bits
    out.block(
        "(_, is_memory, is_nop, is_lq, is_store, is_branch, is_mul,",
        " is_arith, writes_reg, dest, srcs, ace, data_frac, width_frac,",
        " fixed_latency, pattern, taken_probability, loop_closing,",
        " pc) = body_infos[_tail_index]",
        "dispatch = min_dispatch_cycle",
        "if fetch_resume_cycle > dispatch:",
        "    dispatch = fetch_resume_cycle",
        "if has_frontend:",
        "    dispatch += frontend_col[op_index]",
        f"if op_index >= {config.rob_entries} and commit_col[op_index - {config.rob_entries}] > dispatch:",
        f"    dispatch = commit_col[op_index - {config.rob_entries}]",
        "if is_lq:",
        f"    if lq_count >= {config.lq_entries} and lq_commit_col[lq_count - {config.lq_entries}] > dispatch:",
        f"        dispatch = lq_commit_col[lq_count - {config.lq_entries}]",
        "elif is_store:",
        f"    if sq_count >= {config.sq_entries} and sq_commit_col[sq_count - {config.sq_entries}] > dispatch:",
        f"        dispatch = sq_commit_col[sq_count - {config.sq_entries}]",
        "if writes_reg:",
        "    while rename_drained < write_count and write_commit_col[rename_drained] <= dispatch:",
        "        rename_drained += 1",
        f"    if write_count - rename_drained >= {config.free_rename_registers}:",
        "        if write_commit_col[rename_drained] > dispatch:",
        "            dispatch = write_commit_col[rename_drained]",
        "        while rename_drained < write_count and write_commit_col[rename_drained] <= dispatch:",
        "            rename_drained += 1",
        "if not is_nop:",
        "    while iq_len and iq_issue_heap[0] <= dispatch:",
        "        heappop(iq_issue_heap)",
        "        iq_len -= 1",
        f"    if iq_len >= {config.iq_entries}:",
        "        if iq_issue_heap[0] > dispatch:",
        "            dispatch = iq_issue_heap[0]",
        "        while iq_len and iq_issue_heap[0] <= dispatch:",
        "            heappop(iq_issue_heap)",
        "            iq_len -= 1",
        "if dispatch == disp_cycle:",
        f"    if disp_count >= {config.dispatch_width}:",
        "        dispatch += 1",
        "        disp_cycle = dispatch",
        "        disp_count = 1",
        "    else:",
        "        disp_count += 1",
        "else:",
        "    disp_cycle = dispatch",
        "    disp_count = 1",
        "min_dispatch_cycle = dispatch",
        "if is_nop:",
        "    issue = dispatch",
        "    complete = dispatch",
        "    latency = 0",
        "else:",
        "    issue = dispatch + 1",
        "    for src in srcs:",
        "        ready = reg_ready[src]",
        "        if ready > issue:",
        "            issue = ready",
        "    while True:",
        "        slot = issue & ring_mask",
        "        if ring_tag[slot] == issue:",
        f"            if ring_issue[slot] >= {config.issue_width}:",
        "                issue += 1",
        "                continue",
        "            if is_memory:",
        f"                if ring_mem[slot] >= {config.memory_issue_width}:",
        "                    issue += 1",
        "                    continue",
        "            elif is_mul:",
        f"                if ring_mul[slot] >= {config.int_multipliers}:",
        "                    issue += 1",
        "                    continue",
        f"            elif ring_alu[slot] >= {config.int_alus}:",
        "                issue += 1",
        "                continue",
        "        break",
        "    if issue - dispatch >= ring_size:",
        "        ring_size, ring_mask, ring_tag, ring_issue, ring_mem, ring_alu, ring_mul = _grow_rings(",
        "            issue - dispatch, dispatch, ring_size,",
        "            ring_tag, ring_issue, ring_mem, ring_alu, ring_mul,",
        "        )",
        "        slot = issue & ring_mask",
        "    if ring_tag[slot] == issue:",
        "        ring_issue[slot] += 1",
        "    else:",
        "        ring_tag[slot] = issue",
        "        ring_issue[slot] = 1",
        "        ring_mem[slot] = 0",
        "        ring_alu[slot] = 0",
        "        ring_mul[slot] = 0",
        "    if is_memory:",
        "        ring_mem[slot] += 1",
        "    elif is_mul:",
        "        ring_mul[slot] += 1",
        "    else:",
        "        ring_alu[slot] += 1",
        "    if fixed_latency is not None:",
        "        latency = fixed_latency",
        "    else:",
        "        latency = hierarchy_access(memory_cols[_tail_index][iteration], False, issue, ace)",
        "    complete = issue + latency",
        "commit = complete + 1",
        "if last_commit_cycle > commit:",
        "    commit = last_commit_cycle",
        f"if commit == last_commit_cycle and commit_count >= {config.commit_width}:",
        "    commit += 1",
        "if commit == last_commit_cycle:",
        "    commit_count += 1",
        "else:",
        "    commit_count = 1",
        "last_commit_cycle = commit",
        "if commit > final_cycle:",
        "    final_cycle = commit",
        "if is_store and pattern is not None:",
        "    hierarchy_access(memory_cols[_tail_index][iteration], True, commit, ace)",
        "if is_branch:",
        "    if mispredict_col[branch_index]:",
        "        branch_mispredictions += 1",
        f"        resume = complete + {config.branch_misprediction_penalty}",
        "        if resume > fetch_resume_cycle:",
        "            fetch_resume_cycle = resume",
        "    branch_index += 1",
        "commit_append(commit)",
        "if is_lq:",
        "    lq_commit_append(commit)",
        "    lq_count += 1",
        "elif is_store:",
        "    sq_commit_append(commit)",
        "    sq_count += 1",
        "if not is_nop:",
        "    heappush(iq_issue_heap, issue)",
        "    iq_len += 1",
        "if writes_reg:",
        "    write_commit_append(commit)",
        "    write_count += 1",
        "op_index += 1",
        "duration = float(commit - dispatch)",
        "rob_occ += duration",
        "if ace:",
        f"    rob_ace += duration * {rob_bits}",
        "if not is_nop:",
        "    duration = float(issue - dispatch)",
        "    iq_occ += duration",
        "    if ace:",
        f"        iq_ace += duration * {iq_bits}",
        "if is_lq:",
        "    lqt_occ += float(issue - dispatch)",
        "    duration = float(commit - issue)",
        "    lqt_occ += duration",
        "    if ace:",
        f"        lqt_ace += duration * {lqt_bits}",
        "    lqd_occ += float(complete - dispatch)",
        "    duration = float(commit - complete)",
        "    lqd_occ += duration",
        "    if data_frac:",
        f"        lqd_ace += duration * {lqd_bits} * data_frac",
        "elif is_store:",
        "    sqt_occ += float(issue - dispatch)",
        "    duration = float(commit - issue)",
        "    sqt_occ += duration",
        "    if ace:",
        f"        sqt_ace += duration * {sqt_bits}",
        "    sqd_occ += float(issue - dispatch)",
        "    if data_frac:",
        f"        sqd_ace += duration * {sqd_bits} * data_frac",
        "    sqd_occ += duration",
    )
    if track_sb:
        out.block(
            f"    sb_occ += {_lit(sb_drain)}",
            "    if data_frac:",
            f"        sb_ace += {_lit(sb_drain)} * {sb_bits} * data_frac",
        )
    out.block(
        "if is_arith:",
        "    duration = float(latency if latency > 1 else 1)",
        "    fu_occ += duration",
        "    if ace:",
        f"        fu_ace += duration * {fu_bits}",
        "if ace:",
        "    for src in srcs:",
        "        if reg_present[src] and issue > reg_last_read[src]:",
        "            reg_last_read[src] = issue",
        "if writes_reg:",
        "    if reg_present[dest]:",
        "        if reg_ace[dest]:",
        "            last_read = reg_last_read[dest]",
        "            if last_read > reg_complete[dest]:",
        "                duration = float(last_read - reg_complete[dest])",
        "                rf_occ += duration",
        f"                rf_ace += duration * {rf_bits} * reg_width[dest]",
        "    else:",
        "        reg_present[dest] = True",
        "        extra_regs.append(dest)",
        "    reg_complete[dest] = complete",
        "    reg_width[dest] = width_frac",
        "    reg_ace[dest] = ace",
        "    reg_last_read[dest] = -1",
        "    reg_ready[dest] = complete",
    )
