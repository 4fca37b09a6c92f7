"""CLI surface of the parallel subsystem: --processes and ocb scale."""

from __future__ import annotations

import json

from repro.cli import main


class TestMultiuserProcesses:
    def test_processes_runs_and_reports_contention(self, capsys):
        assert main(["multiuser", "--backend", "sqlite",
                     "--processes", "2"]) == 0
        out = capsys.readouterr().out
        assert "worker processes" in out
        assert "shared storage" in out
        assert "busy retries" in out
        assert "merged warm wall-clock" in out

    def test_processes_on_simulated_replicates(self, capsys):
        assert main(["multiuser", "--backend", "simulated",
                     "--processes", "2"]) == 0
        out = capsys.readouterr().out
        assert "replicated storage" in out


class TestScale:
    def test_sweep_table(self, capsys):
        assert main(["scale", "--workers", "1", "2"]) == 0
        out = capsys.readouterr().out
        assert "Throughput scaling" in out
        assert "speedup" in out
        assert "busy retries" in out

    def test_sweep_json(self, capsys):
        assert main(["scale", "--workers", "1", "--json"]) == 0
        out = capsys.readouterr().out
        document = json.loads(out)
        assert document["command"] == "scale"
        assert document["system"]["python"]
        assert document["backend"] == "sqlite"
        points = document["points"]
        assert len(points) == 1
        point = points[0]
        assert point["workers"] == 1
        assert point["backend"] == "sqlite"
        assert point["transactions"] > 0
        assert point["throughput"] > 0.0
        assert "busy_retries" in point and "warm_p95_ms" in point
