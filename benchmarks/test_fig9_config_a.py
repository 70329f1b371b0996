"""Figure 9: stressmark generation for a different microarchitecture (Config A)."""

from __future__ import annotations

from repro.avf.analysis import StructureGroup
from repro.experiments.figures import figure9

from _bench_utils import print_series


def test_figure9_configuration_a(benchmark, bench_session):
    result = benchmark.pedantic(figure9, args=(bench_session,), iterations=1, rounds=1)

    print_series(
        "Figure 9a: stressmark SER per structure group",
        [
            {"config": name, **{group.value: value for group, value in groups.items()}}
            for name, groups in result.group_ser.items()
        ],
    )
    print_series("Figure 9b: knob settings (Configuration A)",
                 [{"knob": k, "value": v} for k, v in result.knob_tables["config_a"].items()])

    # The methodology adapts: high SER is reached on both microarchitectures.
    for config_name in ("baseline", "config_a"):
        assert result.group_ser[config_name][StructureGroup.QS] > 0.5
        assert result.group_ser[config_name][StructureGroup.DL1_DTLB] > 0.7

    # Config A has a larger ROB, so the loop bound (1.2x ROB) is larger too.
    assert result.knob_tables["config_a"]["Loop Size"] <= round(96 * 1.2)
