"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.api import RunResult, RunSpec
from repro.cli import COMMANDS, build_parser, main


class TestParser:
    def test_all_experiments_registered(self):
        expected = {
            "table1", "table2", "table3",
            "figure3", "figure4", "figure5", "figure6", "figure7", "figure8", "figure9",
            "bound", "stressmark", "bench",
        }
        assert expected == set(COMMANDS)

    def test_parser_accepts_known_experiment(self):
        args = build_parser().parse_args(["table1"])
        assert args.experiment == "table1"
        assert args.scale == "quick"

    def test_parser_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure42"])

    def test_version_flag(self, capsys):
        from repro import package_version

        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.strip() == f"repro {package_version()}"

    def test_parser_accepts_jobs(self):
        args = build_parser().parse_args(["figure6", "--jobs", "4"])
        assert args.jobs == 4
        assert build_parser().parse_args(["table1"]).jobs is None

    def test_jobs_documented_in_help(self):
        assert "--jobs" in build_parser().format_help()

    def test_scale_and_fault_rate_options(self):
        args = build_parser().parse_args(["stressmark", "--scale", "default", "--fault-rates", "rhc"])
        assert args.scale == "default"
        assert args.fault_rates == "rhc"

    def test_loadtest_verb_is_gone(self, capsys):
        """The service is benchmarked by perfbench's ``serve_mixed``, not a verb."""
        with pytest.raises(SystemExit) as excinfo:
            main(["loadtest"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'loadtest'" in capsys.readouterr().err


class TestCheapCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "table3" in output and "figure5" in output

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        output = capsys.readouterr().out
        assert "Table I" in output
        assert "ROB" in output

    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        output = capsys.readouterr().out
        assert "Configuration A" in output

    def test_bound(self, capsys):
        assert main(["bound"]) == 0
        output = capsys.readouterr().out
        assert "0.90" in output  # baseline bound ~0.903 (paper: 0.899)

    def test_list_shows_registered_components(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "machine configs" in output and "config_a" in output
        assert "fault-rate models" in output and "edr" in output
        assert "workload suites" in output and "mibench" in output
        assert "experiment scales" in output and "paper" in output
        assert "evaluation backends" not in output
        assert "kernel backends" not in output

    def test_list_shows_tracked_structures(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "tracked vulnerable structures" in output
        # Name, group, geometry and fault-rate key per structure, including
        # the flag-gated extensions with their config gate.
        assert "rob" in output and "qs" in output
        assert "sb" in output and "store_buffer_entries (off at baseline)" in output
        assert "l2_tlb" in output and "l2_tlb_entries" in output
        assert "extended" in output  # the extensions-enabled machine config


class TestSpecCommands:
    def test_parser_accepts_run_with_spec_path(self):
        args = build_parser().parse_args(["run", "spec.json", "--out", "result.json"])
        assert args.experiment == "run"
        assert args.spec == "spec.json"
        assert args.out == "result.json"

    def test_run_requires_spec_file(self, capsys):
        with pytest.raises(SystemExit):
            main(["run"])

    def test_run_rejects_missing_file(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["run", str(tmp_path / "nope.json")])

    def test_run_rejects_invalid_spec(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"kind": "simulate", "fault_rates": "rch"}))
        with pytest.raises(SystemExit):
            main(["run", str(path)])
        assert "did you mean 'rhc'" in capsys.readouterr().err

    def test_run_reports_runtime_value_errors_cleanly(self, tmp_path, capsys):
        """Structurally valid specs whose values fail deeper down exit via parser.error."""
        path = tmp_path / "tiny_pop.json"
        path.write_text(json.dumps({"kind": "stressmark", "scale_overrides": {"ga_population": 2}}))
        with pytest.raises(SystemExit):
            main(["run", str(path)])
        assert "Traceback" not in capsys.readouterr().err

    def test_sweep_rejects_leaf_spec(self, tmp_path, capsys):
        path = tmp_path / "leaf.json"
        path.write_text(json.dumps({"kind": "simulate"}))
        with pytest.raises(SystemExit):
            main(["sweep", str(path)])
        assert "expects a sweep spec" in capsys.readouterr().err

    def test_run_executes_spec_and_writes_result(self, tmp_path, capsys):
        spec = {
            "kind": "simulate",
            "name": "cli_smoke",
            "workloads": ["crc32_proxy"],
            "scale_overrides": {"workload_instructions": 1500},
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out_path = tmp_path / "result.json"
        assert main(["run", str(spec_path), "--out", str(out_path)]) == 0
        output = capsys.readouterr().out
        assert "crc32_proxy" in output
        assert "spec digest:" in output
        result = RunResult.load(out_path)
        assert result.spec_digest == RunSpec.from_json_dict(spec).digest
        assert result.rows[0]["program"] == "crc32_proxy"


class TestStoreCommands:
    SPEC = {
        "kind": "sweep",
        "name": "cli_store",
        "base": {
            "kind": "simulate",
            "name": "wl",
            "workloads": ["crc32_proxy"],
            "scale_overrides": {"workload_instructions": 900},
        },
        "axes": {"fault_rates": ["unit", "rhc"]},
    }

    def _write_spec(self, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(self.SPEC))
        return str(path)

    def test_parser_accepts_store_resume_shard(self):
        args = build_parser().parse_args(
            ["sweep", "spec.json", "--store", "dir", "--resume", "--shard", "1/2"]
        )
        assert args.store == "dir" and args.resume and args.shard == "1/2"

    def test_shard_requires_store(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", self._write_spec(tmp_path), "--shard", "1/2"])
        assert "--shard needs --store" in capsys.readouterr().err

    def test_shard_requires_sweep_command(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["run", self._write_spec(tmp_path), "--store", str(tmp_path / "s"),
                  "--shard", "1/2"])
        assert "only applies to 'repro sweep'" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["1", "0/2", "3/2", "a/b", "1/0"])
    def test_shard_rejects_malformed_values(self, tmp_path, capsys, bad):
        with pytest.raises(SystemExit):
            main(["sweep", self._write_spec(tmp_path), "--store", str(tmp_path / "s"),
                  "--shard", bad])

    def test_resume_requires_store(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["run", self._write_spec(tmp_path), "--resume"])
        assert "--resume needs --store" in capsys.readouterr().err

    def test_merge_requires_destination_and_sources(self, capsys):
        with pytest.raises(SystemExit):
            main(["merge"])
        with pytest.raises(SystemExit):
            main(["merge", "dest-only"])

    def test_merge_rejects_missing_source_cleanly(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["merge", str(tmp_path / "dest"), str(tmp_path / "nope")])
        err = capsys.readouterr().err
        assert "not a result store" in err and "Traceback" not in err

    def test_experiment_commands_reject_positionals(self, capsys):
        with pytest.raises(SystemExit):
            main(["table1", "stray.json", "more"])
        assert "takes no positional arguments" in capsys.readouterr().err

    def test_experiment_commands_reject_shard(self, capsys):
        with pytest.raises(SystemExit):
            main(["table1", "--shard", "1/2"])
        assert "only applies to 'repro sweep'" in capsys.readouterr().err

    def test_experiment_commands_reject_resume_without_store(self, capsys):
        with pytest.raises(SystemExit):
            main(["table1", "--resume"])
        assert "--resume needs --store" in capsys.readouterr().err

    def test_corrupt_store_reported_cleanly(self, tmp_path, capsys):
        spec_path = self._write_spec(tmp_path)
        store_dir = tmp_path / "store"
        store_dir.mkdir()
        (store_dir / "meta.json").write_text("{not json")
        with pytest.raises(SystemExit):
            main(["sweep", spec_path, "--store", str(store_dir)])
        err = capsys.readouterr().err
        assert "corrupt store metadata" in err and "Traceback" not in err

    def test_shard_then_merge_then_replay(self, tmp_path, capsys):
        spec_path = self._write_spec(tmp_path)
        shard1, shard2 = str(tmp_path / "shard1"), str(tmp_path / "shard2")
        assert main(["sweep", spec_path, "--store", shard1, "--shard", "1/2"]) == 0
        assert "shard: 1/2 (1 of 2 runs)" in capsys.readouterr().out
        assert main(["sweep", spec_path, "--store", shard2, "--shard", "2/2"]) == 0
        capsys.readouterr()
        merged = str(tmp_path / "merged")
        assert main(["merge", merged, shard1, shard2]) == 0
        assert "2 result(s) added" in capsys.readouterr().out
        out_path = tmp_path / "result.json"
        assert main(["sweep", spec_path, "--store", merged, "--out", str(out_path)]) == 0
        result = RunResult.load(out_path)
        assert len(result.rows) == 2
        assert {row["fault_rates"] for row in result.rows} == {"unit", "rhc"}
