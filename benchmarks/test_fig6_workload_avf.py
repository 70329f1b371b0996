"""Figure 6: per-structure AVF of SPEC CPU2006 INT/FP and MiBench workloads."""

from __future__ import annotations

from repro.experiments.figures import figure6
from repro.uarch.structures import StructureName
from repro.workloads.profiles import WorkloadSuite

from _bench_utils import print_series


def test_figure6_per_structure_avf(benchmark, bench_session):
    results = benchmark.pedantic(figure6, args=(bench_session,), iterations=1, rounds=1)

    for suite, label in (
        (WorkloadSuite.SPEC_INT, "Figure 6a: SPEC CPU2006 INT"),
        (WorkloadSuite.SPEC_FP, "Figure 6b: SPEC CPU2006 FP"),
        (WorkloadSuite.MIBENCH, "Figure 6c: MiBench"),
    ):
        rows = [
            {"program": name, **{structure.value: value for structure, value in row.items()}}
            for name, row in results[suite].rows.items()
        ]
        print_series(label, rows)

    # The paper: the stressmark achieves higher AVF on all structures except
    # (sometimes) the FUs and RF.
    for suite_result in results.values():
        assert suite_result.stressmark_exceeds(StructureName.ROB)
        assert suite_result.stressmark_exceeds(StructureName.LQ_TAG)
        assert suite_result.stressmark_exceeds(StructureName.SQ_TAG)

    # FP workloads stress the queues more than MiBench (Section VI).
    fp_rob = max(
        row[StructureName.ROB]
        for name, row in results[WorkloadSuite.SPEC_FP].rows.items()
        if name != "stressmark"
    )
    mibench_rob = max(
        row[StructureName.ROB]
        for name, row in results[WorkloadSuite.MIBENCH].rows.items()
        if name != "stressmark"
    )
    assert fp_rob > mibench_rob
