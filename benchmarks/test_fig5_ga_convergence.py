"""Figure 5: GA-generated stressmark — final knob setting and convergence.

Figure 5a of the paper reports the winning knob values for the baseline
configuration (loop size 81, 29 loads, 28 stores, dependency distance 6,
80 % long-latency arithmetic, 93 % reg-reg) and Figure 5b the average fitness
per generation, including the cataclysm dip once the population converges.
"""

from __future__ import annotations

from repro.experiments.figures import figure5

from _bench_utils import print_series


def test_figure5_ga_knobs_and_convergence(benchmark, bench_session):
    result = benchmark.pedantic(figure5, args=(bench_session,), iterations=1, rounds=1)

    print_series("Figure 5a: final knob settings",
                 [{"knob": key, "value": value} for key, value in result.knob_table.items()])
    print_series(
        "Figure 5b: average fitness per generation",
        [
            {
                "generation": index,
                "average_fitness": avg,
                "best_fitness": best,
                "cataclysm": index in result.cataclysm_generations,
            }
            for index, (avg, best) in enumerate(
                zip(result.average_fitness_per_generation, result.best_fitness_per_generation)
            )
        ],
    )
    print(f"\nfinal fitness {result.final_fitness:.4f} after {result.evaluations} evaluations")

    assert result.final_fitness > 0.0
    assert result.knob_table["Loop Size"] >= 16
    # The GA must not regress: the last generation's best is the overall best.
    assert max(result.best_fitness_per_generation) <= result.final_fitness + 1e-9
