"""Per-figure experiment drivers.

Each ``figureN`` function regenerates the data behind the corresponding
figure of the paper and returns it as plain data structures (lists of rows /
series) that the benchmark harness prints and the tests assert on.  The
figures never plot — the *rows/series* are the reproduction artefact.

Each driver is a thin consumer of a canned :class:`~repro.api.spec.RunSpec`
(see :mod:`repro.api.presets`): the spec declares the scenario matrix, the
:class:`~repro.api.session.Session` passed in resolves and executes it
(sharing simulations across figures through its experiment contexts), and
the driver only reshapes the resulting reports into the paper's
presentation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.api.presets import children_of_kind, preset_spec
from repro.api.session import Session
from repro.api.spec import RunSpec
from repro.avf.analysis import StructureGroup
from repro.avf.report import SerReport
from repro.uarch.structures import StructureName
from repro.workloads.profiles import WorkloadSuite

#: Structure groups plotted in Figures 3, 4, 7 and 9.
GROUP_COLUMNS = (
    StructureGroup.QS,
    StructureGroup.QS_RF,
    StructureGroup.DL1_DTLB,
    StructureGroup.L2,
)

def core_structures_of(report: SerReport) -> tuple[StructureName, ...]:
    """The core structures tracked in one report, in account (registry) order.

    Registry-driven: flag-gated core structures (e.g. the store buffer on the
    ``extended`` config) automatically join the per-structure AVF figures.
    """
    return tuple(s for s in report.structure_avf if s.is_core)


@dataclass
class SerComparisonRow:
    """One bar group of Figures 3/4/7/9: a program's SER per structure group."""

    program: str
    is_stressmark: bool
    ser: dict[StructureGroup, float]

    def as_dict(self) -> dict[str, object]:
        row: dict[str, object] = {"program": self.program, "stressmark": self.is_stressmark}
        for group, value in self.ser.items():
            row[f"ser_{group.value}"] = round(value, 4)
        return row


@dataclass
class SerComparisonResult:
    """Result of a stressmark-vs-workloads SER comparison figure."""

    figure: str
    config_name: str
    fault_rate_name: str
    rows: list[SerComparisonRow] = field(default_factory=list)

    def stressmark_row(self) -> SerComparisonRow:
        for row in self.rows:
            if row.is_stressmark:
                return row
        raise ValueError("no stressmark row present")

    def best_workload(self, group: StructureGroup) -> SerComparisonRow:
        candidates = [row for row in self.rows if not row.is_stressmark]
        if not candidates:
            raise ValueError("no workload rows present")
        return max(candidates, key=lambda row: row.ser[group])

    def stressmark_margin(self, group: StructureGroup) -> float:
        """Stressmark SER divided by the best workload SER for a group."""
        best = self.best_workload(group).ser[group]
        if best <= 0.0:
            return float("inf")
        return self.stressmark_row().ser[group] / best


def _ser_row(name: str, report: SerReport, is_stressmark: bool) -> SerComparisonRow:
    return SerComparisonRow(
        program=name,
        is_stressmark=is_stressmark,
        ser={group: report.ser(group) for group in GROUP_COLUMNS},
    )


def _comparison(figure: str, session: Session, spec: RunSpec) -> SerComparisonResult:
    """Execute a comparison sweep (one stressmark + one simulate child)."""
    stressmark_spec = children_of_kind(spec, "stressmark")[0]
    simulate_spec = children_of_kind(spec, "simulate")[0]

    stressmark = session.stressmark_result(stressmark_spec)
    workloads = session.workload_report_set(simulate_spec)
    profiles = session.resolve_profiles(simulate_spec)

    result = SerComparisonResult(
        figure=figure,
        config_name=stressmark.config.name,
        fault_rate_name=stressmark.fault_rates.name,
    )
    result.rows.append(_ser_row("stressmark", stressmark.report, is_stressmark=True))
    for profile in profiles:
        report = workloads.report(profile.name)
        result.rows.append(_ser_row(profile.name, report, is_stressmark=False))
    return result


# --------------------------------------------------------------- Figure 3/4


def figure3(session: Session) -> SerComparisonResult:
    """Figure 3: stressmark vs SPEC CPU2006 SER on the baseline configuration."""
    return _comparison("figure3", session, preset_spec("figure3"))


def figure4(session: Session) -> SerComparisonResult:
    """Figure 4: stressmark vs MiBench SER on the baseline configuration."""
    return _comparison("figure4", session, preset_spec("figure4"))


# ----------------------------------------------------------------- Figure 5


@dataclass
class Figure5Result:
    """Figure 5: final knob settings (a) and GA convergence (b)."""

    knob_table: dict[str, object]
    average_fitness_per_generation: list[float]
    best_fitness_per_generation: list[float]
    cataclysm_generations: list[int]
    final_fitness: float
    evaluations: int


def figure5(session: Session) -> Figure5Result:
    """Figure 5: GA-generated stressmark for the baseline configuration."""
    result = session.stressmark_result(preset_spec("figure5"))
    return Figure5Result(
        knob_table=result.knob_table(),
        average_fitness_per_generation=result.ga_result.average_fitness_trace(),
        best_fitness_per_generation=result.ga_result.best_fitness_trace(),
        cataclysm_generations=list(result.ga_result.cataclysm_generations),
        final_fitness=result.fitness,
        evaluations=result.ga_result.evaluations,
    )


# ----------------------------------------------------------------- Figure 6


@dataclass
class Figure6Result:
    """Figure 6: per-structure AVF of each workload (plus the stressmark)."""

    suite: WorkloadSuite
    rows: dict[str, dict[StructureName, float]] = field(default_factory=dict)

    def avf(self, program: str, structure: StructureName) -> float:
        return self.rows[program][structure]

    def stressmark_exceeds(self, structure: StructureName) -> bool:
        """True when the stressmark has the highest AVF for ``structure``."""
        stressmark = self.rows["stressmark"][structure]
        others = [row[structure] for name, row in self.rows.items() if name != "stressmark"]
        return stressmark >= max(others) if others else True


def figure6(session: Session) -> dict[WorkloadSuite, Figure6Result]:
    """Figure 6 (a, b, c): per-structure AVF for SPEC INT, SPEC FP, MiBench."""
    spec = preset_spec("figure6")
    stressmark = session.stressmark_result(children_of_kind(spec, "stressmark")[0])
    simulate_spec = children_of_kind(spec, "simulate")[0]
    workloads = session.workload_report_set(simulate_spec)

    suite_by_name = {
        "spec_int": WorkloadSuite.SPEC_INT,
        "spec_fp": WorkloadSuite.SPEC_FP,
        "mibench": WorkloadSuite.MIBENCH,
    }
    results: dict[WorkloadSuite, Figure6Result] = {}
    structures = core_structures_of(stressmark.report)
    for suite_name in simulate_spec.suites:
        suite = suite_by_name[suite_name]
        figure = Figure6Result(suite=suite)
        figure.rows["stressmark"] = {
            structure: stressmark.report.avf(structure) for structure in structures
        }
        for profile in session.resolve_profiles(simulate_spec.replace(suites=(suite_name,))):
            report = workloads.report(profile.name)
            figure.rows[profile.name] = {
                structure: report.avf(structure) for structure in structures
            }
        results[suite] = figure
    return results


# ----------------------------------------------------------------- Figure 7


def figure7(session: Session) -> dict[str, SerComparisonResult]:
    """Figure 7: SER of workloads and stressmark on the RHC and EDR configurations."""
    spec = preset_spec("figure7")
    results: dict[str, SerComparisonResult] = {}
    for label in spec.axes["fault_rates"]:
        scenario = RunSpec(
            kind="sweep",
            name=f"figure7_{label}",
            runs=tuple(
                child for child in spec.expand() if child.fault_rates == label
            ),
        )
        results[label] = _comparison(f"figure7_{label}", session, scenario)
    return results


# ----------------------------------------------------------------- Figure 8


@dataclass
class Figure8Result:
    """Figure 8: fault rates, per-scenario stressmark AVF and knob settings."""

    fault_rate_table: dict[str, dict[str, float]]
    queueing_avf: dict[str, dict[StructureName, float]]
    knob_tables: dict[str, dict[str, object]]
    core_ser: dict[str, float]


#: Figure 8's scenario labels -> registered fault-rate model names.
FIGURE8_SCENARIOS = {"baseline": "unit", "rhc": "rhc", "edr": "edr"}


def figure8(session: Session) -> Figure8Result:
    """Figure 8: stressmark adaptation to the RHC and EDR fault-rate models."""
    spec = preset_spec("figure8")
    children = {child.fault_rates: child for child in spec.expand()}

    fault_rate_table: dict[str, dict[str, float]] = {}
    queueing_avf: dict[str, dict[StructureName, float]] = {}
    knob_tables: dict[str, dict[str, object]] = {}
    core_ser: dict[str, float] = {}
    for label, model_name in FIGURE8_SCENARIOS.items():
        resolved = session.resolve(children[model_name])
        fault_rate_table[label] = {
            structure.value: resolved.fault_rates.rate(structure)
            for structure in (
                StructureName.ROB,
                StructureName.IQ,
                StructureName.FU,
                StructureName.RF,
                StructureName.LQ_TAG,
                StructureName.LQ_DATA,
                StructureName.SQ_TAG,
                StructureName.SQ_DATA,
            )
        }
        stressmark = session.stressmark_result(children[model_name])
        queueing_avf[label] = {
            structure: stressmark.report.avf(structure)
            for structure in core_structures_of(stressmark.report)
        }
        knob_tables[label] = stressmark.knob_table()
        core_ser[label] = stressmark.report.core_ser

    return Figure8Result(
        fault_rate_table=fault_rate_table,
        queueing_avf=queueing_avf,
        knob_tables=knob_tables,
        core_ser=core_ser,
    )


# ----------------------------------------------------------------- Figure 9


@dataclass
class Figure9Result:
    """Figure 9: stressmark on the baseline vs Configuration A."""

    group_ser: dict[str, dict[StructureGroup, float]]
    structure_avf: dict[str, dict[StructureName, float]]
    knob_tables: dict[str, dict[str, object]]


def figure9(session: Session) -> Figure9Result:
    """Figure 9: stressmark generation for a different microarchitecture."""
    spec = preset_spec("figure9")
    group_ser: dict[str, dict[StructureGroup, float]] = {}
    structure_avf: dict[str, dict[StructureName, float]] = {}
    knob_tables: dict[str, dict[str, object]] = {}
    for child in spec.expand():
        stressmark = session.stressmark_result(child)
        name = stressmark.config.name
        group_ser[name] = {group: stressmark.report.ser(group) for group in GROUP_COLUMNS}
        structure_avf[name] = {
            structure: stressmark.report.avf(structure)
            for structure in core_structures_of(stressmark.report)
        }
        knob_tables[name] = stressmark.knob_table()
    return Figure9Result(
        group_ser=group_ser, structure_avf=structure_avf, knob_tables=knob_tables
    )
