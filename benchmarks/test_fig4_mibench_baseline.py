"""Figure 4: stressmark vs MiBench SER on the baseline configuration."""

from __future__ import annotations

from repro.avf.analysis import StructureGroup
from repro.experiments.figures import figure4

from _bench_utils import print_series


def test_figure4_stressmark_vs_mibench(benchmark, bench_session):
    result = benchmark.pedantic(figure4, args=(bench_session,), iterations=1, rounds=1)

    print_series("Figure 4: SER (units/bit), stressmark vs MiBench",
                 [row.as_dict() for row in result.rows])
    print(f"\nstressmark margins over best MiBench program: "
          f"QS {result.stressmark_margin(StructureGroup.QS):.2f}x  "
          f"DL1+DTLB {result.stressmark_margin(StructureGroup.DL1_DTLB):.2f}x  "
          f"L2 {result.stressmark_margin(StructureGroup.L2):.2f}x "
          "(the paper notes MiBench-induced SER is low)")

    # MiBench coverage is poor, so margins are large (well above the SPEC ones).
    for group in (StructureGroup.QS, StructureGroup.QS_RF, StructureGroup.DL1_DTLB, StructureGroup.L2):
        assert result.stressmark_margin(group) > 1.2
