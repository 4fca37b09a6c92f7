"""The BENCH document schema: build, validate, persist, reload."""

from __future__ import annotations

import json

import pytest

from repro.errors import ParameterError
from repro.obs import results


def _matrix_cell(**overrides):
    cell = {
        "key": "sqlite/read_heavy/c1/interleaved",
        "backend": "sqlite", "scenario": "read_heavy", "clients": 1,
        "mode": "interleaved", "operations": 7, "throughput": 100.0,
        "elapsed_seconds": 0.07, "wall_p50_ms": 1.0, "wall_p95_ms": 2.0,
        "wall_p99_ms": 3.0, "busy_retries": 0, "cpu_seconds": 0.05,
        "peak_rss_kb": 1024,
    }
    cell.update(overrides)
    return cell


class TestBuild:
    def test_build_stamps_version_created_and_system(self):
        document = results.build_document(
            kind="matrix", cells=[_matrix_cell()], name="t")
        assert document["schema_version"] == results.SCHEMA_VERSION
        assert document["kind"] == "matrix"
        assert document["name"] == "t"
        assert "T" in document["created"]
        for key in ("git_rev", "platform", "python", "cpu_count",
                    "hostname"):
            assert key in document["system"]

    def test_build_rejects_unknown_kind(self):
        # ``pipeline_fanout`` was the retired concurrent-read A/B.
        for kind in ("nonsense", "pipeline_fanout"):
            with pytest.raises(ParameterError, match="kind"):
                results.build_document(kind=kind, cells=[{}])

    def test_non_matrix_cells_are_free_form(self):
        document = results.build_document(
            kind="scale_sweep", cells=[{"workers": 1}])
        assert document["cells"] == [{"workers": 1}]


class TestValidate:
    def test_matrix_cell_missing_keys_rejected(self):
        cell = _matrix_cell()
        del cell["wall_p99_ms"], cell["peak_rss_kb"]
        with pytest.raises(ParameterError, match="wall_p99_ms"):
            results.build_document(kind="matrix", cells=[cell])

    def test_empty_cells_rejected(self):
        with pytest.raises(ParameterError, match="cells"):
            results.build_document(kind="matrix", cells=[])

    def test_not_a_mapping_rejected(self):
        with pytest.raises(ParameterError, match="JSON object"):
            results.validate_document([1, 2, 3])

    def test_wrong_schema_version_rejected(self):
        document = results.build_document(kind="matrix",
                                          cells=[_matrix_cell()])
        document["schema_version"] = 99
        with pytest.raises(ParameterError, match="schema_version"):
            results.validate_document(document)

    def test_missing_system_keys_rejected(self):
        document = results.build_document(kind="matrix",
                                          cells=[_matrix_cell()])
        del document["system"]["git_rev"]
        with pytest.raises(ParameterError, match="git_rev"):
            results.validate_document(document)


class TestPersistence:
    def test_round_trip(self, tmp_path):
        document = results.build_document(
            kind="matrix", cells=[_matrix_cell()], name="rt",
            config={"seed": 42})
        path = results.write_document(document,
                                      path=str(tmp_path / "BENCH_x.json"))
        loaded = results.load_document(path)
        assert loaded == document

    def test_default_filename_from_created(self, tmp_path):
        document = results.build_document(kind="matrix",
                                          cells=[_matrix_cell()])
        path = results.write_document(document, directory=str(tmp_path))
        date = document["created"].split("T", 1)[0]
        assert path.endswith(f"BENCH_{date}.json")

    def test_load_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ParameterError, match="invalid JSON"):
            results.load_document(str(path))

    def test_load_rejects_missing_file(self, tmp_path):
        with pytest.raises(ParameterError, match="cannot read"):
            results.load_document(str(tmp_path / "absent.json"))

    def test_written_file_is_plain_json(self, tmp_path):
        document = results.build_document(kind="matrix",
                                          cells=[_matrix_cell()])
        path = results.write_document(document,
                                      path=str(tmp_path / "b.json"))
        with open(path, "r", encoding="utf-8") as handle:
            assert json.load(handle)["kind"] == "matrix"


class TestDefaultFilename:
    def test_uses_created_date(self):
        assert results.default_filename("2026-08-07T12:00:00Z") \
            == "BENCH_2026-08-07.json"

    def test_today_when_unspecified(self):
        name = results.default_filename()
        assert name.startswith("BENCH_") and name.endswith(".json")
