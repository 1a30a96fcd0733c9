"""Golden tests for the ``python -m repro ingest|query|runs`` CLI.

Exercises the surface the store CLI guarantees to scripts: exit
codes, the ``--json`` output shapes, multi-run parallel ingest
(``--runs`` / ``--workers``), shard partitioning with autodetection
on later commands, and spool import/export.  Commands run in-process
through ``repro.cli.main`` so stdout/stderr assertions stay cheap.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.cli import main
from repro.store.sharded import detect_shard_count, shard_paths

INGEST_TINY = ["--cars", "15", "--executions", "2"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--json")
    assert code == 0, err
    return json.loads(out)


@pytest.fixture
def db(tmp_path):
    return os.fspath(tmp_path / "cli.db")


class TestIngestGolden:
    def test_single_run_json_shape(self, db, capsys):
        payload = run_json(capsys, "ingest", "--db", db, "--run", "demo",
                           *INGEST_TINY)
        assert set(payload) == {"db", "workers", "seconds", "runs", "export"}
        assert payload["db"] == db and payload["workers"] == 1
        assert payload["seconds"] > 0 and payload["export"] is None
        (info,) = payload["runs"]
        assert set(info) == {"run_id", "nodes", "edges", "invocations",
                             "source", "ingest"}
        assert info["run_id"] == "demo"
        assert info["ingest"]["workers"] == 1
        assert info["ingest"]["wall_seconds"] > 0
        assert info["source"] == "workload:dealerships"
        assert info["nodes"] > 0 and info["edges"] > 0

    def test_multi_run_auto_names(self, db, capsys):
        payload = run_json(capsys, "ingest", "--db", db, "--runs", "3",
                           *INGEST_TINY)
        assert [info["run_id"] for info in payload["runs"]] == \
            ["run-0001", "run-0002", "run-0003"]

    def test_run_prefix_with_multiple_runs(self, db, capsys):
        payload = run_json(capsys, "ingest", "--db", db, "--runs", "2",
                           "--run", "bench", *INGEST_TINY)
        assert [info["run_id"] for info in payload["runs"]] == \
            ["bench-01", "bench-02"]

    def test_workers_flag_matches_serial_output(self, tmp_path, capsys):
        serial_db = os.fspath(tmp_path / "serial.db")
        parallel_db = os.fspath(tmp_path / "parallel.db")
        serial = run_json(capsys, "ingest", "--db", serial_db,
                          "--runs", "2", *INGEST_TINY)
        parallel = run_json(capsys, "ingest", "--db", parallel_db,
                            "--runs", "2", "--workers", "2", *INGEST_TINY)
        assert parallel["workers"] == 2
        for left, right in zip(serial["runs"], parallel["runs"]):
            assert (left["run_id"], left["nodes"], left["edges"]) == \
                (right["run_id"], right["nodes"], right["edges"])

    def test_human_readable_output(self, db, capsys):
        code, out, err = run_cli(capsys, "ingest", "--db", db,
                                 "--run", "demo", *INGEST_TINY)
        assert code == 0 and err == ""
        assert out.startswith("ingested demo:")
        assert f"-> {db}" in out

    def test_export_round_trips_through_spool_import(self, tmp_path,
                                                     capsys):
        db = os.fspath(tmp_path / "a.db")
        spool = os.fspath(tmp_path / "run.jsonl.gz")
        payload = run_json(capsys, "ingest", "--db", db, "--run", "demo",
                           "--export", spool, *INGEST_TINY)
        assert payload["export"]["path"] == spool
        assert payload["export"]["records"] > 0
        other_db = os.fspath(tmp_path / "b.db")
        code, out, _err = run_cli(capsys, "ingest", "--db", other_db,
                                  "--run", "copy", "--spool", spool)
        assert code == 0 and "ingested copy" in out
        original = run_json(capsys, "runs", "--db", db)["runs"][0]
        copied = run_json(capsys, "runs", "--db", other_db)["runs"][0]
        assert (original["nodes"], original["edges"]) == \
            (copied["nodes"], copied["edges"])

    def test_invalid_runs_count(self, db, capsys):
        code, _out, err = run_cli(capsys, "ingest", "--db", db,
                                  "--runs", "0")
        assert code == 1 and "--runs" in err


class TestShardedStore:
    def test_shards_create_files_and_autodetect(self, tmp_path, capsys):
        db = os.fspath(tmp_path / "sharded.db")
        run_json(capsys, "ingest", "--db", db, "--runs", "4",
                 "--shards", "3", *INGEST_TINY)
        for path in shard_paths(db, 3):
            assert os.path.exists(path)
        assert detect_shard_count(db) == 3
        # Later commands find the shards without being told.
        payload = run_json(capsys, "runs", "--db", db)
        assert len(payload["runs"]) == 4
        query = run_json(capsys, "query", "--db", db, "--run", "run-0001",
                         "--stats")
        assert query["run_id"] == "run-0001" and query["nodes"] > 0


class TestQueryGolden:
    @pytest.fixture
    def populated(self, db, capsys):
        run_json(capsys, "ingest", "--db", db, "--run", "demo",
                 *INGEST_TINY)
        return db

    def test_stats_json_shape(self, populated, capsys):
        payload = run_json(capsys, "query", "--db", populated, "--stats")
        assert set(payload) == {"run_id", "query", "nodes", "edges",
                                "invocations", "nodes_by_kind"}
        assert payload["query"] == "stats" and payload["run_id"] == "demo"
        assert sum(payload["nodes_by_kind"].values()) == payload["nodes"]

    def test_subgraph_json_shape_and_backend_agreement(self, populated,
                                                       capsys):
        csr = run_json(capsys, "query", "--db", populated,
                       "--subgraph", "0")
        assert set(csr) == {"run_id", "query", "node", "size", "ancestors",
                            "descendants", "siblings"}
        plain = run_json(capsys, "query", "--db", populated,
                         "--subgraph", "0", "--backend", "dict")
        assert csr == plain

    def test_reachable_json(self, populated, capsys):
        payload = run_json(capsys, "query", "--db", populated,
                           "--reachable", "0", "0")
        assert payload == {"run_id": "demo", "query": "reachable",
                           "source": 0, "target": 0, "reachable": True}

    def test_zoom_out_json(self, populated, capsys):
        payload = run_json(capsys, "query", "--db", populated,
                           "--zoom-out", "Mdealer1")
        assert payload["query"] == "zoom_out"
        assert payload["zoomed"] == ["Mdealer1"]
        assert payload["nodes"] > 0

    def test_proql_json(self, populated, capsys):
        payload = run_json(capsys, "query", "--db", populated, "--proql",
                           "MATCH kind=tuple | count")
        assert payload["query"] == "proql"
        assert "result" in payload

    def test_error_exit_codes(self, db, capsys):
        code, _out, err = run_cli(capsys, "query", "--db", db, "--stats")
        assert code == 1 and "no runs" in err
        run_json(capsys, "ingest", "--db", db, "--run", "demo",
                 *INGEST_TINY)
        code, _out, err = run_cli(capsys, "query", "--db", db,
                                  "--run", "nope", "--stats")
        assert code == 1 and "unknown run" in err


class TestRunsGolden:
    def test_empty_store_json(self, db, capsys):
        payload = run_json(capsys, "runs", "--db", db)
        assert payload["db"] == db and payload["runs"] == []
        assert set(payload) == {"db", "runs", "shards", "storage_bytes",
                                "cache_info"}
        assert payload["shards"] is None  # unsharded store
        assert set(payload["cache_info"]) == {"graphs", "processors", "csr",
                                              "frozen"}

    def test_empty_store_text(self, db, capsys):
        code, out, _err = run_cli(capsys, "runs", "--db", db)
        assert code == 0 and "no runs" in out

    def test_listing_columns(self, db, capsys):
        run_json(capsys, "ingest", "--db", db, "--run", "demo",
                 *INGEST_TINY)
        code, out, _err = run_cli(capsys, "runs", "--db", db)
        assert code == 0
        header, row = out.splitlines()[:2]
        assert "run id" in header and "invocations" in header
        assert row.startswith("demo") and "workload:dealerships" in row
