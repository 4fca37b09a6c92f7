"""CLI tests (fast subcommands only; the heavy tables are covered by
benchmarks and tests/test_experiments.py)."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["teleport"])

    def test_tables_requires_valid_id(self):
        with pytest.raises(SystemExit):
            main(["tables", "--id", "9"])


class TestInfoAndPresets:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "EDBT" in out

    def test_presets(self, capsys):
        assert main(["presets"]) == 0
        out = capsys.readouterr().out
        assert "default-small" in out
        assert "dstc-club" in out


class TestTables:
    def test_table1(self, capsys):
        assert main(["tables", "--id", "1"]) == 0
        out = capsys.readouterr().out
        assert "NC" in out and "20000" in out and "Uniform" in out

    def test_table2(self, capsys):
        assert main(["tables", "--id", "2"]) == 0
        out = capsys.readouterr().out
        assert "STODEPTH" in out and "10000" in out

    def test_table3(self, capsys):
        assert main(["tables", "--id", "3"]) == 0
        out = capsys.readouterr().out
        assert "PartId - RefZone" in out
        assert "Special" in out


class TestBackends:
    def test_backends_lists_engines(self, capsys):
        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        for name in ("simulated", "memory", "sqlite"):
            assert name in out

    def test_run_with_memory_backend(self, capsys):
        assert main(["run", "--preset", "default-small",
                     "--backend", "memory"]) == 0
        out = capsys.readouterr().out
        assert "backend  : memory" in out
        assert "P50" in out and "P95" in out and "P99" in out

    def test_run_with_sqlite_backend(self, capsys):
        assert main(["run", "--preset", "default-small",
                     "--backend", "sqlite", "--buffer-pages", "64"]) == 0
        out = capsys.readouterr().out
        assert "backend  : sqlite" in out
        assert "wall-clock latency" in out

    def test_backends_table_shows_capabilities(self, capsys):
        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        assert "batched-reads" in out
        assert "cold-cache" in out
        assert "clustering" in out

    def test_run_cold_start(self, capsys):
        assert main(["run", "--preset", "default-small",
                     "--backend", "sqlite", "--cold-start"]) == 0
        out = capsys.readouterr().out
        assert "backend  : sqlite" in out


class TestKernelCommands:
    """`ops` and `multiuser` drive the unified kernel from the CLI."""

    def test_ops_on_sqlite(self, capsys):
        assert main(["ops", "--preset", "default-small",
                     "--backend", "sqlite", "--operations", "12"]) == 0
        out = capsys.readouterr().out
        assert "Generic operation mix" in out
        assert "SQL round trips" in out

    def test_ops_on_simulated(self, capsys):
        assert main(["ops", "--preset", "default-small",
                     "--operations", "8"]) == 0
        out = capsys.readouterr().out
        assert "Generic operation mix" in out
        assert "SQL round trips" not in out

    def test_multiuser_on_memory(self, capsys):
        assert main(["multiuser", "--preset", "default-small",
                     "--backend", "memory", "--clients", "2"]) == 0
        out = capsys.readouterr().out
        assert "2 clients on 'memory'" in out
        assert "merged warm wall-clock" in out
        assert "P95" in out

    def test_multiuser_rejects_zero_clients(self, capsys):
        assert main(["multiuser", "--preset", "default-small",
                     "--clients", "0"]) == 1
        err = capsys.readouterr().err
        assert "client" in err.lower()

    def test_run_rejects_unknown_backend(self):
        with pytest.raises(SystemExit):
            main(["run", "--backend", "mongodb"])

    def test_generate_with_backend_load(self, capsys):
        assert main(["generate", "--preset", "default-small",
                     "--backend", "sqlite"]) == 0
        out = capsys.readouterr().out
        assert "bulk load" in out
        assert "storage units" in out

    def test_stale_sqlite_file_errors_cleanly(self, tmp_path, capsys):
        """A non-empty database file yields a message, not a traceback."""
        path = str(tmp_path / "ocb.db")
        assert main(["generate", "--preset", "default-small",
                     "--backend", "sqlite", "--sqlite-path", path]) == 0
        capsys.readouterr()
        assert main(["generate", "--preset", "default-small",
                     "--backend", "sqlite", "--sqlite-path", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("ocb: error:")
        assert "empty backend" in err


class TestGenerateAndRun:
    def test_generate(self, capsys):
        assert main(["generate", "--preset", "default-small"]) == 0
        out = capsys.readouterr().out
        assert "objects" in out
        assert "2000" in out

    def test_generate_with_seed_and_validation(self, capsys):
        assert main(["generate", "--preset", "default-small",
                     "--seed", "5", "--validate"]) == 0

    def test_run_small(self, capsys):
        assert main(["run", "--preset", "default-small",
                     "--buffer-pages", "32"]) == 0
        out = capsys.readouterr().out
        assert "Warm-run metrics" in out
        assert "all" in out

    def test_fig4_tiny(self, capsys):
        assert main(["fig4", "--sizes", "10", "50",
                     "--classes", "1", "5"]) == 0
        out = capsys.readouterr().out
        assert "Figure 4" in out

    def test_fig4_chart(self, capsys):
        assert main(["fig4", "--sizes", "10", "50", "--classes", "1",
                     "--chart"]) == 0
        out = capsys.readouterr().out
        assert "log-log" in out

    def test_qualitative(self, capsys):
        assert main(["qualitative"]) == 0
        out = capsys.readouterr().out
        assert "parameter_simplicity" in out
        assert "dstc" in out


@pytest.mark.slow
class TestExperimentCommands:
    def test_table4_tiny(self, capsys):
        assert main(["table4", "--objects", "2000", "--transactions", "6",
                     "--buffer-pages", "64"]) == 0
        out = capsys.readouterr().out
        assert "Table 4" in out
        assert "DSTC-CluB" in out

    def test_table5_tiny(self, capsys):
        assert main(["table5", "--objects", "1000", "--transactions", "10",
                     "--buffer-pages", "48"]) == 0
        out = capsys.readouterr().out
        assert "Table 5" in out


class TestScenarioCommand:
    def test_list_renders_the_preset_library(self, capsys):
        assert main(["scenario", "--list"]) == 0
        out = capsys.readouterr().out
        for name in ("paper_default", "read_heavy", "write_heavy",
                     "mixed_oltp", "scan_heavy"):
            assert name in out

    def test_bare_invocation_lists_and_hints(self, capsys):
        assert main(["scenario"]) == 0
        out = capsys.readouterr().out
        assert "pick a scenario preset" in out

    def test_preset_runs_in_process(self, capsys):
        assert main(["scenario", "write_heavy", "--warm", "10"]) == 0
        out = capsys.readouterr().out
        assert "per operation class" in out
        assert "write_heavy" in out
        assert "busy retries" in out

    def test_json_document(self, capsys):
        assert main(["scenario", "write_heavy", "--warm", "10",
                     "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["scenario"] == "write_heavy"
        assert document["write_operations"] > 0
        assert document["mode"] == "interleaved"
        assert document["busy_retries"] == 0

    def test_spec_file(self, tmp_path, capsys):
        spec = {
            "mix": {"name": "probe", "entries": [
                {"kind": "simple", "weight": 0.5, "depth": 2},
                {"kind": "update", "weight": 0.5}]},
            "clients": 2, "cold_ops": 1, "warm_ops": 5,
            "backend": "memory",
        }
        path = tmp_path / "probe.json"
        path.write_text(json.dumps(spec))
        assert main(["scenario", str(path), "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["scenario"] == "probe"
        assert document["clients"] == 2
        assert document["operations"] == 2 * 6

    def test_unknown_scenario_fails_cleanly(self, capsys):
        assert main(["scenario", "nope"]) == 1
        assert "unknown scenario" in capsys.readouterr().err

    def test_cwd_file_cannot_shadow_a_preset(self, tmp_path, monkeypatch,
                                             capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "write_heavy").write_text("not json")
        assert main(["scenario", "write_heavy", "--warm", "5",
                     "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["scenario"] == "write_heavy"

    def test_backend_override_drops_the_presets_engine_options(self,
                                                               capsys):
        # hot_spot's ``shards`` option belongs to sharded-sqlite.
        assert main(["scenario", "hot_spot", "--backend", "sqlite",
                     "--warm", "5", "--cold", "1", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["backend"] == "sqlite"
        assert document["operations"] == 6

    def test_same_backend_keeps_the_presets_engine_options(self):
        from repro.cli import _configure_scenario, _load_scenario

        args = build_parser().parse_args(
            ["scenario", "hot_spot", "--backend", "sharded-sqlite"])
        scenario = _configure_scenario(_load_scenario("hot_spot"), args,
                                       {}, for_processes=False)
        assert scenario.backend_options["shards"] == 4

    def test_loadtest_backend_override_drops_the_presets_engine_options(
            self, capsys):
        assert main(["loadtest", "hot_spot", "--backend", "sqlite",
                     "--rate", "200", "--ops", "4", "--seed", "3",
                     "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["backend"] == "sqlite"
        assert [cell["backend"] for cell in document["cells"]] == ["sqlite"]


class TestMachineReadableRunAndOps:
    def test_run_json_matches_scale_convention(self, capsys):
        assert main(["run", "--backend", "memory", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["command"] == "run"
        assert document["warm_transactions"] > 0
        assert document["wall_p50_ms"] <= document["wall_p99_ms"]
        assert document["per_kind"][-1]["kind"] == "all"

    def test_ops_json(self, capsys):
        assert main(["ops", "--backend", "sqlite", "--operations", "8",
                     "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["command"] == "ops"
        assert document["operations"] == 8
        assert document["sql_round_trips"] is not None
        assert sum(row["n"] for row in document["per_operation"]) == 8
