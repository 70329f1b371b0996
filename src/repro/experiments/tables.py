"""Per-table experiment drivers (Tables I, II and III of the paper).

Table III is a thin consumer of its canned sweep spec (see
:mod:`repro.api.presets`): one stressmark search plus one full workload
simulation per fault-rate scenario, executed by the
:class:`~repro.api.session.Session`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.api.presets import children_of_kind, preset_spec
from repro.api.session import Session
from repro.avf.analysis import StructureGroup, group_structures
from repro.avf.report import SerReport
from repro.uarch.config import MachineConfig, baseline_config, config_a
from repro.uarch.faultrates import FaultRateModel
from repro.uarch.structures import core_structure_accumulators


def _config_table(config: MachineConfig) -> dict[str, object]:
    """Render a machine configuration as the paper's Table I/II rows."""
    return {
        "Integer ALUs": f"{config.int_alus}, {config.alu_latency} cycle latency",
        "Integer Multiplier": f"{config.int_multipliers}, {config.multiply_latency} cycle latency",
        "Fetch/slot/map/issue/commit": "/".join(
            str(width)
            for width in (
                config.fetch_width,
                config.dispatch_width,
                config.dispatch_width,
                config.issue_width,
                config.commit_width,
            )
        )
        + " per cycle",
        "Integer Issue Queue": f"{config.iq_entries} entries, {config.iq_bits_per_entry} bits/entry",
        "ROB": f"{config.rob_entries} entries, {config.rob_bits_per_entry} bits/entry",
        "Integer rename register file": f"{config.rename_registers}, {config.register_bits} bits/register",
        "LQ/SQ": f"{config.lq_entries} entries each, {config.lsq_bits_per_entry} bits/entry",
        "Branch Misprediction Penalty": f"{config.branch_misprediction_penalty} cycles",
        "L1 D cache": (
            f"{config.dl1.size_bytes // 1024}kB, {config.dl1.associativity}-way, "
            f"{config.dl1.line_bytes}B line, {config.dl1.hit_latency} cycle latency"
        ),
        "L1 I-cache": (
            f"{config.il1.size_bytes // 1024}kB, {config.il1.associativity}-way, "
            f"{config.il1.line_bytes}B line, {config.il1.hit_latency} cycle latency"
        ),
        "DTLB": f"{config.dtlb.entries} entry, fully associative, {config.dtlb.page_bytes // 1024}kB page",
        "L2 cache": (
            f"{config.l2.size_bytes // (1024 * 1024)}MB, "
            f"{config.l2.associativity}-way, {config.l2.hit_latency} cycle latency"
        ),
    }


def table1() -> dict[str, object]:
    """Table I: baseline configuration of the processor."""
    return _config_table(baseline_config())


def table2() -> dict[str, object]:
    """Table II: alternate configuration (Configuration A)."""
    return _config_table(config_a())


# ------------------------------------------------------------------ Table III


@dataclass
class Table3Row:
    """One row of Table III: worst-case core SER estimates for one scenario."""

    configuration: str
    stressmark_ser: float
    best_program_name: str
    best_program_ser: float
    sum_of_highest_per_structure_ser: float
    raw_circuit_ser: float

    def stressmark_margin_over_best_program(self) -> float:
        if self.best_program_ser <= 0.0:
            return float("inf")
        return self.stressmark_ser / self.best_program_ser

    def sum_of_highest_error(self) -> float:
        """Relative error of the "sum of highest per-structure SER" estimate."""
        if self.stressmark_ser <= 0.0:
            return 0.0
        return abs(self.sum_of_highest_per_structure_ser - self.stressmark_ser) / self.stressmark_ser


@dataclass
class Table3Result:
    """Table III: comparison of worst-case SER estimation methodologies."""

    rows: dict[str, Table3Row] = field(default_factory=dict)

    def row(self, configuration: str) -> Table3Row:
        return self.rows[configuration]


def _sum_of_highest_per_structure(
    reports: list[SerReport], config: MachineConfig, fault_rates: FaultRateModel
) -> float:
    """Core-normalised "sum of highest per-structure SER" over a report set."""
    accumulators = core_structure_accumulators(config)
    members = group_structures(StructureGroup.CORE)
    total_bits = 0.0
    weighted = 0.0
    for structure, accumulator in accumulators.items():
        if structure not in members:
            continue
        bits = float(accumulator.total_bits)
        highest = max(report.avf(structure) for report in reports)
        total_bits += bits
        weighted += highest * bits * fault_rates.rate(structure)
    return weighted / total_bits if total_bits else 0.0


def _raw_circuit_ser(config: MachineConfig, fault_rates: FaultRateModel) -> float:
    """Worst case assuming 100% AVF everywhere in the core."""
    accumulators = core_structure_accumulators(config)
    total_bits = float(sum(a.total_bits for a in accumulators.values()))
    weighted = sum(a.total_bits * fault_rates.rate(name) for name, a in accumulators.items())
    return weighted / total_bits if total_bits else 0.0


#: Table III's scenario labels -> registered fault-rate model names.
TABLE3_SCENARIOS = {"baseline": "unit", "rhc": "rhc", "edr": "edr"}


def table3(session: Session) -> Table3Result:
    """Table III: worst-case core SER estimation methodologies compared.

    For each fault-rate scenario (baseline unit rates, RHC, EDR) the table
    reports the stressmark-induced core SER, the best individual workload
    (name and core SER), the "sum of highest per-structure SER" estimate and
    the raw circuit-level bound.
    """
    spec = preset_spec("table3")
    stress_specs = {child.fault_rates: child for child in children_of_kind(spec, "stressmark")}
    simulate_specs = {child.fault_rates: child for child in children_of_kind(spec, "simulate")}

    result = Table3Result()
    for label, model_name in TABLE3_SCENARIOS.items():
        resolved = session.resolve(stress_specs[model_name])
        config, fault_rates = resolved.config, resolved.fault_rates
        stressmark = session.stressmark_result(stress_specs[model_name])
        workloads = session.workload_report_set(simulate_specs[model_name])
        reports = list(workloads.reports.values())
        best_name, best_report = workloads.best_by(lambda report: report.core_ser)
        result.rows[label] = Table3Row(
            configuration=label,
            stressmark_ser=stressmark.report.core_ser,
            best_program_name=best_name,
            best_program_ser=best_report.core_ser,
            sum_of_highest_per_structure_ser=_sum_of_highest_per_structure(
                reports, config, fault_rates
            ),
            raw_circuit_ser=_raw_circuit_ser(config, fault_rates),
        )
    return result
