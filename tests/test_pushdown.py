"""SQL pushdown tier: interval encoder, range-scan query view, lazy
re-encode lifecycle, EXPLAIN attribution, and the store/catalog
correctness satellites that shipped with it."""

import io
import re
import sqlite3

import pytest

from repro.cli import main as cli_main
from repro.errors import UnknownNodeError, UnknownRunError
from repro.graph import GraphBuilder
from repro.graph.provgraph import ProvenanceGraph
from repro.graph.serialize import dump_graph
from repro.queries.deletion import deletion_set
from repro.queries.explain import explain_query
from repro.store import (
    CSRSnapshot,
    MemoryStore,
    ProvenanceService,
    RunCatalog,
    SQLiteStore,
    open_store,
)
from repro.store.doctor import diagnose
from repro.store.pushdown import (
    INTERVALS_FALLBACK,
    INTERVALS_READY,
    INTERVALS_STALE,
    PushdownUnavailable,
    PushdownView,
    encode_intervals,
    interval_budget,
    pushdown_enabled,
)


def module_graph(fanout: int = 4) -> ProvenanceGraph:
    """A workflow-shaped DAG with >= 10 nodes and a joint (·) node."""
    builder = GraphBuilder()
    workflow_input = builder.workflow_input_node(value=("P1",))
    builder.begin_invocation("Mpush")
    module_input = builder.module_input_node(workflow_input, value=("P1",))
    base = builder.base_tuple_node("Cars", value=("C1",))
    state = builder.module_state_node(base)
    join = builder.times_node([module_input, state])
    output = builder.module_output_node(join, value=1.0)
    for index in range(fanout):
        builder.plus_node([output, join], value=float(index))
    builder.end_invocation()
    return builder.graph


# ----------------------------------------------------------------------
# Encoder
# ----------------------------------------------------------------------
class TestEncoder:
    def test_chain(self):
        rows = encode_intervals([0, 1, 2], [[], [0], [1]], budget=100)
        assert rows == [(0, 3, 1, 3, 0), (1, 2, 1, 2, 1), (2, 1, 1, 1, 2)]

    def test_diamond_merges_and_fragments(self):
        # 0 -> {1, 2} -> 3: the second branch keeps two intervals, the
        # root merges everything back into one.
        rows = encode_intervals([0, 1, 2, 3],
                                [[], [0], [0], [1, 2]], budget=100)
        by_node = {}
        for node_id, post, lo, hi, level in rows:
            by_node.setdefault(node_id, []).append((lo, hi))
        assert by_node[0] == [(1, 4)]
        assert by_node[3] == [(1, 1)]
        assert sorted(len(spans) for spans in by_node.values()) \
            == [1, 1, 1, 2]
        levels = {node_id: level for node_id, _, _, _, level in rows}
        assert levels == {0: 0, 1: 1, 2: 1, 3: 2}

    def test_empty_graph(self):
        assert encode_intervals([], [], budget=100) == []

    def test_cycle_returns_none(self):
        assert encode_intervals([0, 1], [[1], [0]], budget=100) is None

    def test_unreached_cycle_component_returns_none(self):
        # 0 is a root, but 1 <-> 2 sit on an unreachable cycle.
        assert encode_intervals([0, 1, 2],
                                [[], [2], [1]], budget=100) is None

    def test_cycle_reached_from_a_root_returns_none(self):
        # 0 -> 1 <-> 2: every node gets a post number, so only the
        # back edge 2 -> 1 shows the cycle.
        assert encode_intervals([0, 1, 2],
                                [[], [0, 2], [1]], budget=100) is None

    def test_budget_abort_returns_none(self):
        assert encode_intervals([0, 1, 2], [[], [0], [1]],
                                budget=2) is None

    def test_noncontiguous_node_ids(self):
        # Deletion leaves id gaps; views are indexed by id, not rank.
        pred_views = {3: [], 7: [3], 9: [3, 7]}
        rows = encode_intervals([3, 7, 9], pred_views, budget=100)
        assert {row[0] for row in rows} == {3, 7, 9}

    def test_budget_floor(self):
        assert interval_budget(0) == 1024
        assert interval_budget(1000) == 8000

    def test_env_disable(self, monkeypatch):
        monkeypatch.setenv("REPRO_PUSHDOWN", "0")
        assert not pushdown_enabled()
        monkeypatch.setenv("REPRO_PUSHDOWN", "1")
        assert pushdown_enabled()


# ----------------------------------------------------------------------
# Store lifecycle: ready / stale / fallback
# ----------------------------------------------------------------------
class TestIntervalLifecycle:
    def test_put_encodes_eagerly(self):
        store = SQLiteStore()
        store.put_graph("r", module_graph())
        assert store.interval_state("r") == INTERVALS_READY
        assert store.pushdown("r") is not None
        store.close()

    def test_append_marks_stale_then_query_reencodes(self):
        store = SQLiteStore()
        store.put_graph("r", module_graph(fanout=2))
        store.append_graph("r", module_graph(fanout=5))
        assert store.interval_state("r") == INTERVALS_STALE
        view = store.pushdown("r")  # lazy re-encode happens here
        assert store.interval_state("r") == INTERVALS_READY
        loaded = store.load_graph("r")
        snapshot = CSRSnapshot(loaded)
        for node_id in loaded.node_ids():
            assert view.descendants(node_id) == snapshot.descendants(node_id)
            assert view.ancestors(node_id) == snapshot.ancestors(node_id)
        store.close()

    def test_held_view_refreshes_after_append(self):
        store = SQLiteStore()
        store.put_graph("r", module_graph(fanout=2))
        view = store.pushdown("r")
        before = len(view.descendants(0))
        store.append_graph("r", module_graph(fanout=6))
        # The *same* view object must serve the superseding encoding.
        assert len(view.descendants(0)) > before
        store.close()

    def test_fallback_state_disables_view(self):
        store = SQLiteStore()
        store.put_graph("r", module_graph())
        with store._write_lock:
            store._conn.execute(
                "UPDATE runs SET interval_state = ? WHERE run_id = ?",
                (INTERVALS_FALLBACK, "r"))
            store._conn.commit()
        assert store.pushdown("r") is None
        store.close()

    def test_held_view_raises_when_encoding_vanishes(self):
        store = SQLiteStore()
        store.put_graph("r", module_graph())
        view = store.pushdown("r")
        with store._write_lock:
            store._conn.execute(
                "UPDATE runs SET interval_state = ? WHERE run_id = ?",
                (INTERVALS_FALLBACK, "r"))
            store._conn.commit()
        with pytest.raises(PushdownUnavailable):
            view.descendants(0)
        store.close()

    def test_disabled_env_skips_encode_and_view(self, monkeypatch):
        monkeypatch.setenv("REPRO_PUSHDOWN", "0")
        store = SQLiteStore()
        store.put_graph("r", module_graph())
        assert store.interval_state("r") is None
        assert store.pushdown("r") is None
        store.close()

    def test_unknown_run(self):
        store = SQLiteStore()
        with pytest.raises(UnknownRunError):
            store.interval_state("ghost")
        assert store.pushdown("ghost") is None
        store.close()

    def test_delete_run_clears_interval_rows(self):
        store = SQLiteStore()
        store.put_graph("r", module_graph())
        store.delete_run("r")
        count = store._conn.execute(
            "SELECT COUNT(*) FROM node_intervals").fetchone()[0]
        assert count == 0
        store.close()

    def test_memory_store_has_no_pushdown(self):
        store = MemoryStore()
        store.put_graph("r", module_graph())
        assert store.pushdown("r") is None

    def test_sharded_store_routes_pushdown(self, tmp_path):
        store = open_store(tmp_path / "shards.db", shards=2)
        store.put_graph("r-a", module_graph())
        view = store.pushdown("r-a")
        assert view is not None
        assert view.descendants(0)
        store.close()

    def test_preexisting_db_migrates(self, tmp_path):
        # A database written before this tier existed has neither the
        # interval_state column nor the node_intervals table; opening
        # it must migrate, and the first query must encode lazily.
        path = tmp_path / "old.db"
        store = SQLiteStore(path)
        store.put_graph("r", module_graph())
        with store._write_lock:
            store._conn.execute("DROP TABLE node_intervals")
            store._conn.execute(
                "UPDATE runs SET interval_state = NULL")
            store._conn.commit()
        store.close()
        reopened = SQLiteStore(path)
        try:
            assert reopened.interval_state("r") is None
            view = reopened.pushdown("r")
            assert view is not None
            assert reopened.interval_state("r") == INTERVALS_READY
        finally:
            reopened.close()


# ----------------------------------------------------------------------
# Query parity against the in-memory kernels
# ----------------------------------------------------------------------
class TestViewParity:
    @pytest.fixture(scope="class")
    def served(self, dealership_execution):
        graph = dealership_execution[0]
        store = SQLiteStore()
        store.put_graph("r", graph)
        yield store.pushdown("r"), CSRSnapshot(graph), graph
        store.close()

    def test_ancestors_descendants(self, served):
        view, snapshot, graph = served
        for node_id in graph.node_ids():
            assert view.ancestors(node_id) == snapshot.ancestors(node_id)
            assert view.descendants(node_id) == \
                snapshot.descendants(node_id)

    def test_subgraph(self, served):
        view, snapshot, graph = served
        for node_id in list(graph.node_ids())[::17]:
            pushed = view.subgraph(node_id)
            kernel = snapshot.subgraph(node_id)
            assert pushed.ancestors == kernel.ancestors
            assert pushed.descendants == kernel.descendants
            assert pushed.siblings == kernel.siblings

    def test_deletion_set(self, served):
        view, _snapshot, graph = served
        for node_id in list(graph.node_ids())[::31]:
            assert view.deletion_set([node_id]) == \
                deletion_set(graph, [node_id])
            assert view.deletion_set([node_id],
                                     blackbox_multiplicative=True) == \
                deletion_set(graph, [node_id],
                             blackbox_multiplicative=True)

    def test_reachable_contract(self, served):
        view, snapshot, graph = served
        ids = list(graph.node_ids())
        for source, target in zip(ids[::13], ids[7::13]):
            assert view.reachable(source, target) == \
                snapshot.reachable(source, target)
        # Contract edges mirrored from CSRSnapshot.
        assert view.reachable(10**9, 10**9) is True
        assert view.reachable(ids[0], 10**9) is False
        with pytest.raises(UnknownNodeError):
            view.reachable(10**9, ids[0])

    def test_unknown_node_raises(self, served):
        view, _snapshot, _graph = served
        with pytest.raises(UnknownNodeError):
            view.ancestors(10**9)
        with pytest.raises(UnknownNodeError):
            view.descendants(10**9)
        assert view.has_node(10**9) is False


# ----------------------------------------------------------------------
# Plan shape: every statement is an index lookup sized by its answer
# ----------------------------------------------------------------------
#: A SEARCH keyed past ``run_id``: a point or prefix on ``node_id`` /
#: ``target``, or a ``post`` range.
_KEYED = re.compile(r"^SEARCH \w+ USING .*\(run_id=\? AND "
                    r"(node_id=\?|target=\?|post>\?)")


def _unkeyed_steps(store, sql, params):
    """EXPLAIN QUERY PLAN lines that read a table without a key past
    ``run_id`` (the recursive CTE's own work queue, ``SCAN up``, is not
    a table)."""
    plan = [row[-1] for row in store._conn.execute(
        "EXPLAIN QUERY PLAN " + sql, params)]
    return [line for line in plan
            if line.startswith(("SCAN", "SEARCH")) and line != "SCAN up"
            and not _KEYED.match(line)]


class TestPlanShape:
    @pytest.fixture(scope="class")
    def served(self, dealership_execution):
        graph = dealership_execution[0]
        store = SQLiteStore()
        store.put_graph("r", graph)
        yield store, graph
        store.close()

    @pytest.mark.parametrize("verb", ["has_node", "ancestors", "descendants",
                                      "reachable", "subgraph", "deletion_set"])
    def test_every_statement_is_keyed(self, served, verb, monkeypatch):
        store, graph = served
        issued = []
        execute = PushdownView._execute

        def recording(view, sql, params):
            issued.append((sql, params))
            return execute(view, sql, params)

        monkeypatch.setattr(PushdownView, "_execute", recording)
        view = store.pushdown("r")
        node = max(graph.node_ids(), key=lambda n: len(graph.succs(n)))
        if verb == "reachable":
            view.reachable(node, max(graph.node_ids()))
        elif verb == "deletion_set":
            view.deletion_set([node])
        else:
            getattr(view, verb)(node)
        assert issued
        unkeyed = {}
        for sql, params in issued:
            steps = _unkeyed_steps(store, sql, params)
            if steps:
                unkeyed[sql.split(" IN (")[0]] = steps
        assert not unkeyed


# ----------------------------------------------------------------------
# Service wiring + EXPLAIN attribution
# ----------------------------------------------------------------------
class TestServiceTierSelection:
    @pytest.fixture
    def store(self):
        store = SQLiteStore()
        store.put_graph("r", module_graph())
        yield store
        store.close()

    def test_cold_query_never_builds_a_graph(self, store):
        service = ProvenanceService(store)
        plan = explain_query(service, "r", "ancestors", node=5)
        tiers = {step.tier for step in plan.steps}
        names = [step.name for step in plan.steps]
        assert tiers == {"sqlite-pushdown"}
        assert not any("load" in name or "graph" in name
                       for name in names), names

    def test_cold_tiers_for_all_pushdown_kinds(self, store):
        for kind, kwargs in (
                ("subgraph", {"node": 5}),
                ("descendants", {"node": 1}),
                ("deletion", {"nodes": [0]}),
                ("reachability", {"source": 0, "target": 6})):
            service = ProvenanceService(store)  # fresh = cold caches
            plan = explain_query(service, "r", kind, **kwargs)
            assert {step.tier for step in plan.steps} \
                == {"sqlite-pushdown"}, kind

    def test_hot_run_keeps_memory_tiers(self, store):
        service = ProvenanceService(store)
        service.graph("r")  # warm the LRU: zoom surgery could live here
        plan = explain_query(service, "r", "subgraph", node=5)
        assert "sqlite-pushdown" not in {step.tier for step in plan.steps}

    def test_fallback_run_served_by_csr(self, store):
        with store._write_lock:
            store._conn.execute(
                "UPDATE runs SET interval_state = ? WHERE run_id = ?",
                (INTERVALS_FALLBACK, "r"))
            store._conn.commit()
        service = ProvenanceService(store)
        graph = store.load_graph("r")
        assert service.ancestors("r", 5) == graph.ancestors(5)
        assert service.descendants("r", 1) == graph.descendants(1)

    def test_service_answers_match_kernels_cold_and_hot(self, store):
        graph = store.load_graph("r")
        snapshot = CSRSnapshot(graph)
        cold = ProvenanceService(store)
        for node_id in graph.node_ids():
            assert cold.ancestors("r", node_id) == \
                snapshot.ancestors(node_id)
            assert cold.descendants("r", node_id) == \
                snapshot.descendants(node_id)
        assert cold.deletion_set("r", [0]) == deletion_set(graph, [0])
        hot = ProvenanceService(store)
        hot.graph("r")
        assert hot.deletion_set("r", [0]) == deletion_set(graph, [0])


# ----------------------------------------------------------------------
# Satellites: store/catalog correctness fixes
# ----------------------------------------------------------------------
class TestCatalogInvalidation:
    def test_delete_then_reingest_serves_fresh_graph(self):
        """Regression: catalog.delete must evict the service's cached
        artifacts, or a re-ingested run id serves the old graph."""
        store = SQLiteStore()
        service = ProvenanceService(store)
        service.catalog.register(module_graph(fanout=2), run_id="r")
        before = service.graph("r").node_count  # cache the first graph
        service.catalog.delete("r")
        service.catalog.register(module_graph(fanout=6), run_id="r")
        after = service.graph("r").node_count
        assert after == before + 4
        assert service.subgraph("r", 0).size > 0
        store.close()


class TestBusyTimeoutEverywhere:
    def test_memory_connection_has_busy_timeout(self):
        store = SQLiteStore()
        timeout = store._conn.execute(
            "PRAGMA busy_timeout").fetchone()[0]
        assert timeout == 10000
        store.close()

    def test_file_connection_has_busy_timeout(self, tmp_path):
        store = SQLiteStore(tmp_path / "t.db")
        timeout = store._conn.execute(
            "PRAGMA busy_timeout").fetchone()[0]
        assert timeout == 10000
        store.close()


class TestCatalogReprIsIOFree:
    def test_repr_never_touches_the_store(self):
        class ExplodingStore:
            def list_runs(self):
                raise AssertionError("repr must not do store I/O")

            def __getattr__(self, name):
                raise AssertionError("repr must not do store I/O")

            def __repr__(self):
                return "ExplodingStore()"

        catalog = RunCatalog.__new__(RunCatalog)
        catalog.store = ExplodingStore()
        catalog.run_prefix = "run"
        assert "ExplodingStore()" in repr(catalog)


class TestDeterminism:
    def test_jsonl_round_trip_is_byte_identical(self):
        graph = module_graph(fanout=6)
        assert graph.node_count >= 10
        store = SQLiteStore()
        store.put_graph("r", graph)
        original, reloaded = io.StringIO(), io.StringIO()
        dump_graph(graph, original)
        # load_graph's ORDER BY node_id makes the rebuilt dump
        # byte-identical, not just isomorphic.
        dump_graph(store.load_graph("r"), reloaded)
        assert original.getvalue() == reloaded.getvalue()
        store.close()

    def test_eager_and_lazy_encodes_are_identical(self):
        """The ingest-time encode (live graph) and the lazy re-encode
        (stored rows) must emit identical node_intervals rows."""
        store = SQLiteStore()
        store.put_graph("r", module_graph(fanout=6))
        query = ("SELECT node_id, post, lo, hi, level FROM node_intervals "
                 "WHERE run_id = ? ORDER BY node_id, lo")
        eager = store._conn.execute(query, ("r",)).fetchall()
        with store._write_lock:
            store._conn.execute(
                "UPDATE runs SET interval_state = ? WHERE run_id = ?",
                (INTERVALS_STALE, "r"))
            store._conn.commit()
        assert store.ensure_intervals("r")
        lazy = store._conn.execute(query, ("r",)).fetchall()
        assert eager and eager == lazy
        store.close()


# ----------------------------------------------------------------------
# Files written before the clustered (WITHOUT ROWID) layout
# ----------------------------------------------------------------------
#: The provenance DDL as it stood before the clustered layout: rowid
#: tables, and the ``node_intervals_span`` index ancestors used to stab.
_ROWID_DDL = """
CREATE TABLE runs (
    run_id TEXT PRIMARY KEY, created_at REAL NOT NULL,
    updated_at REAL NOT NULL, source TEXT, node_count INTEGER NOT NULL,
    edge_count INTEGER NOT NULL, invocation_count INTEGER NOT NULL,
    next_node_id INTEGER NOT NULL, next_invocation_id INTEGER NOT NULL,
    meta TEXT, interval_state TEXT);
CREATE TABLE nodes (
    run_id TEXT NOT NULL, node_id INTEGER NOT NULL, kind TEXT NOT NULL,
    label TEXT NOT NULL, ntype TEXT NOT NULL, module TEXT,
    invocation INTEGER, value TEXT, PRIMARY KEY (run_id, node_id));
CREATE TABLE edges (
    run_id TEXT NOT NULL, target INTEGER NOT NULL, seq INTEGER NOT NULL,
    source INTEGER NOT NULL, PRIMARY KEY (run_id, target, seq));
CREATE TABLE invocations (
    run_id TEXT NOT NULL, invocation_id INTEGER NOT NULL,
    module TEXT NOT NULL, module_node INTEGER NOT NULL,
    inputs TEXT NOT NULL, outputs TEXT NOT NULL, state TEXT NOT NULL,
    PRIMARY KEY (run_id, invocation_id));
CREATE TABLE pending_ingests (
    run_id TEXT PRIMARY KEY, started_at REAL NOT NULL);
CREATE TABLE node_intervals (
    run_id TEXT NOT NULL, node_id INTEGER NOT NULL, post INTEGER NOT NULL,
    lo INTEGER NOT NULL, hi INTEGER NOT NULL, level INTEGER NOT NULL,
    PRIMARY KEY (run_id, node_id, lo));
CREATE INDEX node_intervals_post ON node_intervals (run_id, post, node_id);
CREATE INDEX node_intervals_span ON node_intervals (run_id, lo, hi, node_id);
"""


def rowid_store_file(path, graph):
    """A store file in the rowid layout holding ``graph`` as run "r":
    the rows are put by the current writer, then copied verbatim."""
    source = f"{path}.src"
    with SQLiteStore(source) as store:
        store.put_graph("r", graph)
    conn = sqlite3.connect(path)
    conn.executescript(_ROWID_DDL)
    conn.execute("ATTACH DATABASE ? AS src", (source,))
    for table in ("runs", "nodes", "edges", "invocations", "node_intervals"):
        conn.execute(f"INSERT INTO main.{table} SELECT * FROM src.{table}")
    conn.commit()
    conn.close()
    return path


def index_names(store):
    return {row[0] for row in store._conn.execute(
        "SELECT name FROM sqlite_master WHERE type = 'index'")}


class TestLegacyLayout:
    def test_verbs_match_csr(self, tmp_path, dealership_execution):
        graph = dealership_execution[0]
        with SQLiteStore(rowid_store_file(tmp_path / "old.db", graph)) \
                as store:
            view = store.pushdown("r")
            snapshot = CSRSnapshot(graph)
            ids = list(graph.node_ids())
            for node_id in ids:
                assert view.ancestors(node_id) == snapshot.ancestors(node_id)
                assert view.descendants(node_id) == \
                    snapshot.descendants(node_id)
            for node_id in ids[::17]:
                pushed, kernel = view.subgraph(node_id), \
                    snapshot.subgraph(node_id)
                assert (pushed.ancestors, pushed.descendants,
                        pushed.siblings) == (kernel.ancestors,
                                             kernel.descendants,
                                             kernel.siblings)
                assert view.deletion_set([node_id]) == \
                    deletion_set(graph, [node_id])
            for source, target in zip(ids[::13], ids[7::13]):
                assert view.reachable(source, target) == \
                    snapshot.reachable(source, target)

    def test_append_then_query_reencodes(self, tmp_path):
        path = rowid_store_file(tmp_path / "old.db", module_graph(fanout=2))
        with SQLiteStore(path) as store:
            store.append_graph("r", module_graph(fanout=5))
            assert store.interval_state("r") == INTERVALS_STALE
            view = store.pushdown("r")
            assert store.interval_state("r") == INTERVALS_READY
            loaded = store.load_graph("r")
            snapshot = CSRSnapshot(loaded)
            for node_id in loaded.node_ids():
                assert view.descendants(node_id) == \
                    snapshot.descendants(node_id)
                assert view.ancestors(node_id) == snapshot.ancestors(node_id)

    def test_span_index_dropped_layout_kept(self, tmp_path):
        path = rowid_store_file(tmp_path / "old.db", module_graph())
        conn = sqlite3.connect(path)
        assert "node_intervals_span" in {row[0] for row in conn.execute(
            "SELECT name FROM sqlite_master WHERE type = 'index'")}
        conn.close()
        with SQLiteStore(path) as store:
            assert "node_intervals_span" not in index_names(store)
            assert "node_intervals_post" in index_names(store)
            # No migration: the tables keep their rowid layout.
            assert store.rowid_tables() == ["edges", "invocations",
                                            "node_intervals", "nodes"]

    def test_new_file_is_clustered(self, tmp_path):
        with SQLiteStore(tmp_path / "new.db") as store:
            store.put_graph("r", module_graph())
            assert store.rowid_tables() == []
            assert not any(name.startswith("sqlite_autoindex_")
                           and name != "sqlite_autoindex_runs_1"
                           and name != "sqlite_autoindex_pending_ingests_1"
                           for name in index_names(store))

    def test_doctor_names_legacy_layout(self, tmp_path, capsys):
        path = rowid_store_file(tmp_path / "old.db", module_graph())
        with SQLiteStore(path) as store:
            report = diagnose(store)
        assert report.healthy
        legacy = [record for record in report.diagnoses()
                  if record["kind"] == "legacy-layout"]
        assert len(legacy) == 1 and legacy[0]["severity"] == "info"
        assert "nodes" in legacy[0]["detail"]
        assert "re-ingest" in legacy[0]["detail"]
        # Informational: the exit code stays 0.
        assert cli_main(["doctor", "--db", str(path)]) == 0
        assert "legacy layout" in capsys.readouterr().out
        with SQLiteStore(tmp_path / "new.db") as store:
            store.put_graph("r", module_graph())
            assert not diagnose(store).legacy_layout
