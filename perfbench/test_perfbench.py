"""Tests of the benchmark's own code (no benchmark run, no subprocess).

Run with ``python -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import importlib.util
import json
import sys
import textwrap
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import bench_stats as bstats  # noqa: E402
import bench_tracing as tracing  # noqa: E402
import bench_workloads as wl  # noqa: E402
from bench_tracing import Span  # noqa: E402


def _load_run():
    spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _span(id, parent, start, end, metric="m", count=0, count_metric=None):
    return Span(id=id, parent=parent, metric=metric, target="t", start=start, end=end,
                count=count, count_metric=count_metric)


# ------------------------------------------------------- self-time arithmetic


class TestSelfTime:
    def test_children_are_subtracted(self):
        spans = [_span("p", None, 0.0, 10.0), _span("a", "p", 1.0, 3.0), _span("b", "p", 5.0, 6.0)]
        assert tracing.self_times(spans)["p"] == pytest.approx(7.0)

    def test_overlapping_children_count_once(self):
        # Two concurrent children covering [2, 6] and [4, 8]: 6 s covered.
        spans = [_span("p", None, 0.0, 10.0), _span("a", "p", 2.0, 6.0), _span("b", "p", 4.0, 8.0)]
        assert tracing.self_times(spans)["p"] == pytest.approx(4.0)

    def test_child_overrunning_parent_is_clipped(self):
        spans = [_span("p", None, 0.0, 5.0), _span("a", "p", 3.0, 9.0), _span("b", "p", -2.0, 1.0)]
        own = tracing.self_times(spans)
        assert own["p"] == pytest.approx(2.0)
        assert own["a"] == pytest.approx(6.0)

    def test_grandchildren_belong_to_their_parent(self):
        spans = [_span("p", None, 0.0, 10.0), _span("c", "p", 2.0, 8.0), _span("g", "c", 3.0, 7.0)]
        own = tracing.self_times(spans)
        assert own["p"] == pytest.approx(4.0)
        assert own["c"] == pytest.approx(2.0)

    def test_union_length(self):
        assert tracing.union_length([(0, 1), (0.5, 2), (3, 4), (5, 5)]) == pytest.approx(3.0)
        assert tracing.union_length([]) == 0.0

    def test_layer_table_counts_nested_same_metric_once(self):
        spans = [
            _span("o", None, 0.0, 4.0, metric="x", count=3, count_metric="n"),
            _span("i", "o", 1.0, 2.0, metric="x", count=3, count_metric="n"),
            _span("w", "o", 2.0, 3.0, metric="y", count=1, count_metric="k"),
        ]
        table = tracing.layer_table(spans)
        assert table.rows["x"].inclusive_s == pytest.approx(4.0)
        assert table.rows["x"].calls == 1
        assert table.rows["x"].self_s == pytest.approx(2.0 + 1.0)
        assert table.counts == {"n": 3, "k": 1}


# ------------------------------------------------------------- percentiles


class TestPercentileRule:
    def test_linear_interpolation(self):
        assert bstats.percentile([3, 1, 2, 5, 4], 0.5) == 3
        assert bstats.percentile([3, 1, 2, 5, 4], 0.9) == pytest.approx(4.6)

    @pytest.mark.parametrize("count, beyond", [(1, 0), (10, 1), (91, 9), (92, 10), (100, 10), (110, 11)])
    def test_samples_beyond_p90(self, count, beyond):
        assert bstats.samples_beyond(count, 0.9) == beyond
        assert bstats.percentile_resolved(count, 0.9) is (beyond >= 10)

    def test_serve_runs_enough_requests_for_p90(self):
        assert wl.SERVE_REQUESTS >= 100
        assert bstats.percentile_resolved(wl.SERVE_REQUESTS, 0.9)


# -------------------------------------------------------------- digests


def _document(**changes):
    document = {
        "spec": {"kind": "stressmark", "seed": 3},
        "rows": [{"program": "p", "ipc": 1.5}],
        "ga": {"best_fitness": 2.0, "evaluations": 10, "evaluation_seconds": 1.25},
        "timing": {"seconds": 4.5},
        "provenance": {"spec_digest": "abc", "resilience": {"retries": 1}},
        "children": [{"rows": [], "timing": {"seconds": 1.0}}],
    }
    document.update(changes)
    return document


class TestVolatileStripping:
    def test_volatile_fields_never_change_the_digest(self):
        other = _document(
            timing={"seconds": 99.0},
            provenance={"spec_digest": "abc", "resilience": {"retries": 7, "quarantined": 1}},
            ga={"best_fitness": 2.0, "evaluations": 10, "evaluation_seconds": 0.1},
            children=[{"rows": [], "timing": {"seconds": 5.0}}],
        )
        assert bstats.result_digest(other) == bstats.result_digest(_document())

    def test_content_changes_the_digest(self):
        changed = _document(rows=[{"program": "p", "ipc": 1.25}])
        assert bstats.result_digest(changed) != bstats.result_digest(_document())

    def test_cold_digests_must_agree_across_processes(self):
        check = _load_run().same_seed_check
        assert check([{"cold_digest": "a"}]) == []
        assert check([{"cold_digest": "a"}, {}, {"cold_digest": "a"}])[0]["ok"]
        assert not check([{"cold_digest": "a"}, {"cold_digest": "b"}])[0]["ok"]

    def test_strip_leaves_the_input_untouched(self):
        document = _document()
        stripped = bstats.strip_volatile(document)
        assert "timing" not in stripped and "resilience" not in stripped["provenance"]
        assert "evaluation_seconds" not in stripped["ga"]
        assert "timing" not in stripped["children"][0]
        assert document["timing"] == {"seconds": 4.5}


# ---------------------------------------------------------------- names


def test_every_metric_name_is_valid():
    run = _load_run()
    names = list(run.END_TO_END) + list(run.PER_LAYER)
    for name in names:
        assert bstats.METRIC_NAME.fullmatch(name), name
    assert len(names) == len(set(names))
    assert not bstats.METRIC_NAME.fullmatch("bad name")


def test_benchmark_json_matches_the_runner():
    config = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    run = _load_run()
    assert [m["name"] for m in config["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in config["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in config["workloads"]] == list(wl.WORKLOADS)
    for metric in config["end_to_end"] + config["per_layer"]:
        assert bstats.METRIC_NAME.fullmatch(metric["name"])
        assert metric["unit"] == run.unit_of(metric["name"])


# ------------------------------------------------------------ probes


@pytest.fixture
def toy_package(tmp_path, monkeypatch):
    package = tmp_path / "pbtoy"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "core.py").write_text(textwrap.dedent("""
        def work(n):
            return n * 2

        class Engine:
            def step(self, items):
                return [work(i) for i in items]
    """))
    (package / "user.py").write_text("from pbtoy.core import work\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    yield "pbtoy"
    for name in [m for m in sys.modules if m == "pbtoy" or m.startswith("pbtoy.")]:
        del sys.modules[name]


def test_probes_rebind_by_name_imports_and_report_absent(toy_package):
    probes = (
        tracing.Probe("toy.work_s", tracing._targets("pbtoy.core", "work", count="toy.calls")),
        tracing.Probe("toy.step_s", tracing._targets("pbtoy.core", "Engine.step", "Engine.gone")),
        tracing.Probe("toy.deleted_s", tracing._targets("pbtoy.removed", "anything")
                      + tracing._targets("pbtoy.core", "Missing.method")),
    )
    tracer = tracing.Tracer()
    report = tracing.install(tracer, probes, package=toy_package)
    assert report["absent"] == ["toy.deleted_s"]
    assert "toy.work_s" in report["present"] and "toy.step_s" in report["present"]

    import pbtoy.core
    import pbtoy.user

    assert pbtoy.user.work(2) == 4  # the by-name copy is wrapped too
    assert pbtoy.core.Engine().step([1, 2]) == [2, 4]
    table = tracing.layer_table(tracer.spans)
    assert table.rows["toy.work_s"].calls == 1 + 2
    assert table.rows["toy.step_s"].calls == 1
    assert table.counts["toy.calls"] == 3

    tracer.enabled = False
    before = len(tracer.spans)
    pbtoy.core.work(1)
    assert len(tracer.spans) == before


def test_absent_metrics_report_zero():
    table = tracing.LayerTable()
    values = tracing.layer_metrics(table, absent=["uarch.columns_s", "uarch.kernels_compiled"])
    assert values["uarch.columns_s"] == 0.0
    assert values["uarch.kernels_compiled"] == 0.0
    assert values["memory.warm_hit_ratio"] == 0.0


# ---------------------------------------------------------- environment


def test_pinned_environment_drops_path_selectors():
    base = {"REPRO_JOBS": "4", "REPRO_KERNEL": "0", "REPRO_KERNEL_BACKEND": "vector",
            "REPRO_RETRY_MAX_ATTEMPTS": "9", "REPRO_CHAOS": "worker:exit", "HOME": "/h"}
    env = bstats.pinned_environment(base, "src")
    assert bstats.unpinned_variables(env) == []
    assert env["HOME"] == "/h" and env["PYTHONPATH"] == "src"
    assert bstats.unpinned_variables(base) == sorted(k for k in base if k != "HOME")


# ------------------------------------------------------------- workloads


def test_specs_come_from_the_seed_alone():
    for workload in wl.WORKLOADS.values():
        if workload.spec is None:
            continue
        first = [workload.spec(7, i) for i in range(3)]
        assert first == [workload.spec(7, i) for i in range(3)]
        assert first[0] != workload.spec(8, 0)
        assert len({json.dumps(spec, sort_keys=True) for spec in first}) == 3
        rounds = [workload.round_specs(7, index) for index in range(3)]
        assert all(specs[0] == first[0] for specs in rounds)  # one cold spec per run
        warm = [json.dumps(spec, sort_keys=True) for specs in rounds for spec in specs[1:]]
        assert len(set(warm)) == len(warm) == min(3, workload.warm_rounds or 3)
    assert wl.serve_stressmark_spec(1, "a") != wl.serve_stressmark_spec(1, "b")
