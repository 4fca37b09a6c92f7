"""CLI tests (fast subcommands only; the heavy tables are covered by
benchmarks and tests/test_experiments.py)."""

from __future__ import annotations

import functools
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

    def test_scenario_rejects_the_removed_lazy_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["scenario", "read_heavy", "--lazy"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --lazy" in capsys.readouterr().err


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
    """`ops` and multi-client `scenario` runs drive the unified kernel."""

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
        assert main(["scenario", "paper_default", "--preset",
                     "default-small", "--backend", "memory",
                     "--clients", "2"]) == 0
        out = capsys.readouterr().out
        assert "2 clients (interleaved) on 'memory'" in out
        assert "reads/op" in out
        assert "P95" in out

    def test_multiuser_rejects_zero_clients(self, capsys):
        assert main(["scenario", "paper_default", "--preset",
                     "default-small", "--clients", "0"]) == 1
        err = capsys.readouterr().err
        assert "client" in err.lower()

    def test_multiuser_command_is_gone(self):
        with pytest.raises(SystemExit):
            main(["multiuser", "--clients", "2"])

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

    def test_fig4_keeps_best_of_three(self, capsys, monkeypatch):
        import repro.cli as cli
        calls = []
        real_run_fig4 = cli.run_fig4

        def spy(**kwargs):
            calls.append(kwargs)
            return real_run_fig4(**kwargs)

        monkeypatch.setattr(cli, "run_fig4", spy)
        assert main(["fig4", "--sizes", "10", "--classes", "1"]) == 0
        assert [call["repeats"] for call in calls] == [3]
        assert "best of 3" in capsys.readouterr().out

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

    def test_unknown_backend_option_fails_cleanly(self, tmp_path, capsys):
        spec = {
            "mix": {"name": "probe", "entries": [
                {"kind": "update", "weight": 1.0}]},
            "cold_ops": 1, "warm_ops": 2,
            "backend": "sqlite", "backend_options": {"shards": 2},
        }
        path = tmp_path / "probe.json"
        path.write_text(json.dumps(spec))
        assert main(["scenario", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("ocb: error:")
        assert "'shards'" in err
        assert "busy_timeout_ms" in err  # The accepted options are listed.

    def test_option_on_optionless_engine_fails_cleanly(self, tmp_path,
                                                       capsys):
        spec = {
            "mix": {"name": "probe", "entries": [
                {"kind": "update", "weight": 1.0}]},
            "cold_ops": 1, "warm_ops": 2, "backend": "memory",
            "backend_options": {"shards": 2, "path": "/nonexistent/x"},
        }
        path = tmp_path / "probe.json"
        path.write_text(json.dumps(spec))
        assert main(["scenario", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("ocb: error:")
        assert "backend 'memory' takes no option 'shards'" in err

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

    def test_run_json_logical_fields_are_pinned(self, capsys):
        """Same preset and seed, same per-kind table: every logical field
        of the simulated warm run, exactly."""
        assert main(["run", "--backend", "simulated", "--preset",
                     "default-small", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        all_row = {"kind": "all", "n": 200, "objects_per_txn": 477.015,
                   "reads_per_txn": 224.105, "ios_per_txn": 224.105,
                   "sim_time_per_txn": 2.258509650003965}
        assert document["warm_transactions"] == all_row["n"]
        for field in ("objects_per_txn", "reads_per_txn", "ios_per_txn",
                      "sim_time_per_txn"):
            assert document[field] == all_row[field], field
        assert document["per_kind"] == [
            {"kind": "set", "n": 48,
             "objects_per_txn": 808.8333333333334,
             "reads_per_txn": 385.3333333333333,
             "ios_per_txn": 385.3333333333333,
             "sim_time_per_txn": 3.8831310833397037},
            {"kind": "simple", "n": 57,
             "objects_per_txn": 801.6140350877193,
             "reads_per_txn": 384.57894736842104,
             "ios_per_txn": 384.57894736842104,
             "sim_time_per_txn": 3.875410912287883},
            {"kind": "hierarchy", "n": 48, "objects_per_txn": 176.875,
             "reads_per_txn": 68.3125, "ios_per_txn": 68.3125,
             "sim_time_per_txn": 0.6890787500011629},
            {"kind": "stochastic", "n": 47, "objects_per_txn": 51.0,
             "reads_per_txn": 23.93617021276596,
             "ios_per_txn": 23.93617021276596,
             "sim_time_per_txn": 0.24122204255366234},
            all_row,
        ]

    def test_ops_json(self, capsys):
        assert main(["ops", "--backend", "sqlite", "--operations", "8",
                     "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["command"] == "ops"
        assert document["operations"] == 8
        assert document["sql_round_trips"] is not None
        assert sum(row["n"] for row in document["per_operation"]) == 8


class TestEngineLifecycle:
    """Every command closes the engine it opens, on errors too."""

    @pytest.fixture
    def engines(self, monkeypatch):
        """(opened, closed) lists of every SQLite engine of the run."""
        from repro.backends.sqlite import SQLiteBackend

        opened, closed = [], []
        init, close = SQLiteBackend.__init__, SQLiteBackend.close

        # The registry checks option names against this signature.
        @functools.wraps(init)
        def spy_init(self, *args, **kwargs):
            opened.append(self)
            init(self, *args, **kwargs)

        def spy_close(self):
            closed.append(self)
            close(self)

        monkeypatch.setattr(SQLiteBackend, "__init__", spy_init)
        monkeypatch.setattr(SQLiteBackend, "close", spy_close)
        return opened, closed

    @pytest.mark.parametrize("argv", [
        ["run", "--backend", "sqlite"],
        ["scenario", "read_heavy", "--backend", "sqlite", "--cold", "1",
         "--warm", "5"],
        ["ops", "--backend", "sqlite", "--operations", "8"],
        ["loadtest", "read_heavy", "--backend", "sqlite", "--rate",
         "200,400", "--ops", "4", "--no-predict"],
    ], ids=lambda argv: argv[0])
    def test_closes_every_sqlite_engine(self, argv, engines, capsys):
        opened, closed = engines
        assert main(argv) == 0
        assert opened
        assert {id(engine) for engine in opened} <= \
            {id(engine) for engine in closed}

    @pytest.mark.parametrize("argv", [
        ["ops", "--backend", "sqlite", "--operations", "-1"],
    ], ids=lambda argv: argv[0])
    def test_closes_every_sqlite_engine_on_error(self, argv, engines,
                                                 capsys):
        opened, closed = engines
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("ocb: error:")
        assert {id(engine) for engine in opened} <= \
            {id(engine) for engine in closed}
