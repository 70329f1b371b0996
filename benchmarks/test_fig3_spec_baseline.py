"""Figure 3: stressmark vs SPEC CPU2006 SER on the baseline configuration.

The paper reports the stressmark at 0.797 (queues), 0.997 (DL1+DTLB) and
0.931 (L2) units/bit, exceeding the best SPEC CPU2006 program by ~1.4x in the
core, ~2.5x in DL1+DTLB and ~1.5x in the L2.  The benchmark regenerates the
per-program series and asserts the stressmark dominates on every group.
"""

from __future__ import annotations

from repro.avf.analysis import StructureGroup
from repro.experiments.figures import figure3

from _bench_utils import print_series


def test_figure3_stressmark_vs_spec2006(benchmark, bench_session):
    result = benchmark.pedantic(figure3, args=(bench_session,), iterations=1, rounds=1)

    print_series("Figure 3: SER (units/bit), stressmark vs SPEC CPU2006",
                 [row.as_dict() for row in result.rows])
    stressmark = result.stressmark_row()
    print(f"\nstressmark margins over best SPEC program: "
          f"QS {result.stressmark_margin(StructureGroup.QS):.2f}x  "
          f"QS+RF {result.stressmark_margin(StructureGroup.QS_RF):.2f}x  "
          f"DL1+DTLB {result.stressmark_margin(StructureGroup.DL1_DTLB):.2f}x  "
          f"L2 {result.stressmark_margin(StructureGroup.L2):.2f}x "
          f"(paper: ~1.4x core, ~2.5x DL1+DTLB, ~1.5x L2)")

    assert stressmark.ser[StructureGroup.QS] > 0.6
    assert stressmark.ser[StructureGroup.DL1_DTLB] > 0.85
    assert stressmark.ser[StructureGroup.L2] > 0.8
    for group in (StructureGroup.QS, StructureGroup.QS_RF, StructureGroup.DL1_DTLB, StructureGroup.L2):
        assert result.stressmark_margin(group) > 1.0
