"""Table III: comparison of worst-case core SER estimation methodologies.

The paper's Table III compares, for the baseline/RHC/EDR fault-rate
scenarios: the stressmark-induced core SER, the best individual program from
the 33-workload suite, and the (unsound) "sum of highest per-structure SER"
estimate.  The raw circuit-level bound (1 / 0.59 / 0.39 units/bit in the
paper) is included as the fully pessimistic reference.
"""

from __future__ import annotations

from repro.experiments.tables import table3

from _bench_utils import print_series


def test_table3_worst_case_estimation_methodologies(benchmark, bench_session):
    result = benchmark.pedantic(table3, args=(bench_session,), iterations=1, rounds=1)

    print_series(
        "Table III: worst-case core SER estimation (units/bit)",
        [
            {
                "configuration": row.configuration,
                "stressmark": row.stressmark_ser,
                "best_program": row.best_program_name,
                "best_program_ser": row.best_program_ser,
                "sum_highest_per_structure": row.sum_of_highest_per_structure_ser,
                "raw_circuit": row.raw_circuit_ser,
                "margin_over_best": row.stressmark_margin_over_best_program(),
            }
            for row in result.rows.values()
        ],
    )

    for row in result.rows.values():
        # Ordering the paper establishes: individual programs < stressmark < raw circuit.
        assert row.best_program_ser < row.stressmark_ser <= row.raw_circuit_ser
        # The stressmark reveals headroom the workload suite misses (29-37% in the paper).
        assert row.stressmark_margin_over_best_program() > 1.05

    assert result.row("baseline").raw_circuit_ser == 1.0
    # Mitigation lowers the worst case monotonically.
    assert (
        result.row("baseline").stressmark_ser
        > result.row("rhc").stressmark_ser
        > result.row("edr").stressmark_ser
    )
