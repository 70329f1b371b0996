"""Figure 8: stressmark adaptation to different circuit-level fault rates.

Figure 8a fixes the RHC/EDR fault rates, Figure 8b shows the queueing-
structure AVF the regenerated stressmark achieves per scenario, and Figures
8c/8d the knob settings the GA chooses (fewer loads/stores and longer chains
under RHC; the L2-hit generator with high FU/RF activity under EDR).
"""

from __future__ import annotations

from repro.experiments.figures import figure8
from repro.uarch.structures import StructureName

from _bench_utils import print_series


def test_figure8_adaptation_to_fault_rates(benchmark, bench_session):
    result = benchmark.pedantic(figure8, args=(bench_session,), iterations=1, rounds=1)

    print_series(
        "Figure 8a: circuit-level fault rates (units/bit)",
        [{"scenario": scenario, **rates} for scenario, rates in result.fault_rate_table.items()],
    )
    print_series(
        "Figure 8b: stressmark AVF of queueing structures per scenario",
        [
            {"scenario": scenario, **{s.value: value for s, value in avf.items()}}
            for scenario, avf in result.queueing_avf.items()
        ],
    )
    for scenario in ("rhc", "edr"):
        print_series(f"Figure 8{'c' if scenario == 'rhc' else 'd'}: knob settings ({scenario})",
                     [{"knob": k, "value": v} for k, v in result.knob_tables[scenario].items()])
    print_series("Stressmark core SER per scenario (cf. Table III column 1)",
                 [{"scenario": s, "core_ser": v} for s, v in result.core_ser.items()])

    # Figure 8a values.
    assert result.fault_rate_table["rhc"]["rob"] == 0.25
    assert result.fault_rate_table["edr"]["lq_data"] == 0.0

    # Adaptation: protecting ROB/LQ/SQ lowers the achievable worst case.
    assert result.core_ser["baseline"] > result.core_ser["rhc"] > result.core_ser["edr"]

    # The baseline stressmark keeps the memory queues highly vulnerable.
    assert result.queueing_avf["baseline"][StructureName.ROB] > 0.6
    assert result.queueing_avf["baseline"][StructureName.LQ_TAG] > 0.5
