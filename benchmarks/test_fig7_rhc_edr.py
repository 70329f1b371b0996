"""Figure 7: SER induced on the RHC and EDR protected configurations."""

from __future__ import annotations

from repro.avf.analysis import StructureGroup
from repro.experiments.figures import figure7

from _bench_utils import print_series


def test_figure7_rhc_and_edr_ser(benchmark, bench_session):
    results = benchmark.pedantic(figure7, args=(bench_session,), iterations=1, rounds=1)

    for label, title in (("rhc", "Figure 7a: Config RHC"), ("edr", "Figure 7b: Config EDR")):
        print_series(title, [row.as_dict() for row in results[label].rows])
        print(f"stressmark core margin over best workload ({label}): "
              f"{results[label].stressmark_margin(StructureGroup.QS_RF):.2f}x "
              "(paper: ~1.3x)")

    # The stressmark must exceed every workload in the core on both scenarios.
    for comparison in results.values():
        assert comparison.stressmark_margin(StructureGroup.QS_RF) > 1.0

    # Protection lowers the absolute worst case: RHC core SER below baseline-like levels,
    # EDR below RHC.
    rhc_core = results["rhc"].stressmark_row().ser[StructureGroup.QS_RF]
    edr_core = results["edr"].stressmark_row().ser[StructureGroup.QS_RF]
    assert edr_core < rhc_core
