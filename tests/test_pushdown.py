"""SQL pushdown tier: the interval encoder exhibit, the recursive-walk
query view and its lifecycle, EXPLAIN attribution, and the
store/catalog correctness satellites that shipped with it."""

import io
import re
import sqlite3

import pytest

from repro.cli import main as cli_main
from repro.errors import UnknownNodeError
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


def cyclic_module_graph() -> ProvenanceGraph:
    """``module_graph(fanout=3)`` plus the back edge 9 -> 1, which puts
    1 on a cycle with its own descendants."""
    graph = module_graph(fanout=3)
    graph.add_edge(9, 1)
    return graph


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
# Store lifecycle: put / append / delete
# ----------------------------------------------------------------------
class TestIntervalLifecycle:
    """The view needs no stored labelling: it serves any existing run
    as its rows stand, and never writes on the read path."""

    def test_put_serves_view(self):
        store = SQLiteStore()
        store.put_graph("r", module_graph())
        assert store.pushdown("r") is not None
        store.close()

    def test_append_then_query_answers_superset(self):
        store = SQLiteStore()
        store.put_graph("r", module_graph(fanout=2))
        store.append_graph("r", module_graph(fanout=5))
        writes = store._conn.total_changes
        view = store.pushdown("r")
        loaded = store.load_graph("r")
        assert loaded.node_count == module_graph(fanout=5).node_count
        snapshot = CSRSnapshot(loaded)
        for node_id in loaded.node_ids():
            assert view.descendants(node_id) == snapshot.descendants(node_id)
            assert view.ancestors(node_id) == snapshot.ancestors(node_id)
        assert store._conn.total_changes == writes
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

    def test_held_view_raises_after_delete_run(self):
        store = SQLiteStore()
        store.put_graph("r", module_graph())
        view = store.pushdown("r")
        store.delete_run("r")
        with pytest.raises(PushdownUnavailable):
            view.descendants(0)
        store.close()

    def test_disabled_env_skips_encode_and_view(self, monkeypatch):
        monkeypatch.setenv("REPRO_PUSHDOWN", "0")
        store = SQLiteStore()
        store.put_graph("r", module_graph())
        assert store.pushdown("r") is None
        store.close()

    def test_unknown_run(self):
        store = SQLiteStore()
        assert store.pushdown("ghost") is None
        store.close()

    def test_delete_run_clears_edge_rows(self):
        store = SQLiteStore()
        store.put_graph("r", module_graph())
        store.delete_run("r")
        count = store._conn.execute(
            "SELECT COUNT(*) FROM edges").fetchone()[0]
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
        # A file written while the store still kept interval labels
        # has the node_intervals table and no source index; opening it
        # drops the one and builds the other.
        path = tmp_path / "old.db"
        store = SQLiteStore(path)
        store.put_graph("r", module_graph())
        with store._write_lock:
            store._conn.execute("DROP INDEX edges_by_source")
            store._conn.execute(
                "CREATE TABLE node_intervals (run_id TEXT, node_id INTEGER)")
            store._conn.commit()
        store.close()
        reopened = SQLiteStore(path)
        try:
            assert "edges_by_source" in index_names(reopened)
            assert "node_intervals" not in table_names(reopened)
            view = reopened.pushdown("r")
            assert view is not None
            assert view.descendants(0) == \
                CSRSnapshot(module_graph()).descendants(0)
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

    def test_deletion_set_past_one_seed_chunk(self):
        # 600 seeds fill two IN lists: each chunk's cone holds its own
        # seeds' children and the shared sink.
        builder = GraphBuilder()
        builder.begin_invocation("Mwide")
        roots = [builder.workflow_input_node(value=(index,))
                 for index in range(600)]
        for root in roots:
            builder.plus_node([root], value=1.0)
        sink = builder.plus_node(roots, value=0.0)
        builder.end_invocation()
        graph = builder.graph
        store = SQLiteStore()
        store.put_graph("r", graph)
        removed = store.pushdown("r").deletion_set(roots)
        assert removed == deletion_set(graph, roots)
        assert sink in removed
        store.close()

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

    def test_cyclic_run_matches_csr(self):
        graph = cyclic_module_graph()
        assert not graph.is_acyclic()
        store = SQLiteStore()
        store.put_graph("r", graph)
        view, snapshot = store.pushdown("r"), CSRSnapshot(graph)
        # The CSR kernel's shared membership mask keeps 1's own cycle
        # out of its ancestor sweep; a plain upward walk would not.
        pushed = view.subgraph(1)
        assert pushed.ancestors == set()
        assert pushed.siblings == {0, 3}
        ids = list(graph.node_ids())
        for node_id in ids:
            pushed, kernel = view.subgraph(node_id), \
                snapshot.subgraph(node_id)
            assert (pushed.ancestors, pushed.descendants,
                    pushed.siblings) == (kernel.ancestors,
                                         kernel.descendants, kernel.siblings)
            assert view.ancestors(node_id) == snapshot.ancestors(node_id)
            assert view.descendants(node_id) == \
                snapshot.descendants(node_id)
            assert view.deletion_set([node_id]) == \
                deletion_set(graph, [node_id])
            for target in ids:
                assert view.reachable(node_id, target) == \
                    snapshot.reachable(node_id, target)
        store.close()

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
#: A SEARCH keyed past ``run_id``: a point or prefix on ``node_id``,
#: ``target`` or ``source``; or the point read of the run's own
#: catalog row, whose whole key is ``run_id``.
_KEYED = re.compile(r"^SEARCH \w+ USING .*\(run_id=\? AND "
                    r"(node_id=\?|target=\?|source=\?)"
                    r"|^SEARCH runs USING .*\(run_id=\?\)$")

#: The recursive CTEs' own work queues, which are not tables.
_CTE_QUEUES = ("SCAN up", "SCAN down")


def _plan(store, sql, params=()):
    return [row[-1] for row in store._conn.execute(
        "EXPLAIN QUERY PLAN " + sql, params)]


def _unkeyed_steps(store, sql, params):
    """EXPLAIN QUERY PLAN lines that read a table without a key past
    ``run_id``."""
    return [line for line in _plan(store, sql, params)
            if line.startswith(("SCAN", "SEARCH"))
            and line not in _CTE_QUEUES and not _KEYED.match(line)]


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

    @pytest.mark.parametrize("write", ["load_graph", "append_graph"])
    def test_run_scans_read_the_primary_key_in_order(self, served, write):
        """The whole-run reads behind a cold load and an append walk
        each table's primary key in key order: the source index must
        not tempt the planner into a scan plus a temp b-tree sort."""
        store, graph = served
        issued = []
        store._conn.set_trace_callback(issued.append)
        try:
            if write == "load_graph":
                store.load_graph("r")
            else:
                store.append_graph("r", graph)
        finally:
            store._conn.set_trace_callback(None)
        scans = [sql for sql in issued if sql.startswith("SELECT")
                 and re.search(r"FROM (nodes|edges|invocations) ", sql)]
        expected = {"load_graph": 3, "append_graph": 1}[write]
        assert len(scans) == expected, issued
        for sql in scans:
            plan = _plan(store, sql)
            assert len(plan) == 1, (sql, plan)
            assert re.match(r"^SEARCH \w+ USING PRIMARY KEY \(run_id=\?\)$",
                            plan[0]), (sql, plan)


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

    def test_cyclic_run_served_by_pushdown(self, store):
        store.put_graph("r", cyclic_module_graph())
        graph = store.load_graph("r")
        service = ProvenanceService(store)
        plan = explain_query(service, "r", "subgraph", node=1)
        assert {step.tier for step in plan.steps} == {"sqlite-pushdown"}
        assert service.ancestors("r", 5) == graph.ancestors(5)
        assert service.descendants("r", 1) == graph.descendants(1)
        kernel = CSRSnapshot(graph).subgraph(1)
        pushed = service.subgraph("r", 1)
        assert (pushed.ancestors, pushed.siblings) == \
            (kernel.ancestors, kernel.siblings)

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


# ----------------------------------------------------------------------
# Files written before the clustered (WITHOUT ROWID) layout
# ----------------------------------------------------------------------
#: The provenance DDL as it stood before the clustered layout: rowid
#: tables, the ``node_intervals`` labelling table, and the
#: ``node_intervals_span`` index ancestors used to stab.
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
    the rows are put by the current writer, then copied verbatim (the
    ``node_intervals`` table gets the encoder's labels of ``graph``)."""
    source = f"{path}.src"
    with SQLiteStore(source) as store:
        store.put_graph("r", graph)
    conn = sqlite3.connect(path)
    conn.executescript(_ROWID_DDL)
    conn.execute("ATTACH DATABASE ? AS src", (source,))
    conn.execute("INSERT INTO main.runs SELECT *, 'ready' FROM src.runs")
    for table in ("nodes", "edges", "invocations"):
        conn.execute(f"INSERT INTO main.{table} SELECT * FROM src.{table}")
    ids = list(graph.node_ids())
    conn.executemany(
        "INSERT INTO node_intervals VALUES ('r', ?, ?, ?, ?, ?)",
        encode_intervals(ids, graph.csr().pred_views,
                         interval_budget(len(ids))))
    conn.commit()
    conn.close()
    return path


def index_names(store):
    return {row[0] for row in store._conn.execute(
        "SELECT name FROM sqlite_master WHERE type = 'index'")}


def table_names(store):
    return {row[0] for row in store._conn.execute(
        "SELECT name FROM sqlite_master WHERE type = 'table'")}


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

    def test_append_then_query_serves_superset(self, tmp_path):
        path = rowid_store_file(tmp_path / "old.db", module_graph(fanout=2))
        with SQLiteStore(path) as store:
            store.append_graph("r", module_graph(fanout=5))
            view = store.pushdown("r")
            loaded = store.load_graph("r")
            assert loaded.node_count == module_graph(fanout=5).node_count
            snapshot = CSRSnapshot(loaded)
            for node_id in loaded.node_ids():
                assert view.descendants(node_id) == \
                    snapshot.descendants(node_id)
                assert view.ancestors(node_id) == snapshot.ancestors(node_id)

    def test_span_index_dropped_layout_kept(self, tmp_path):
        path = rowid_store_file(tmp_path / "old.db", module_graph())
        conn = sqlite3.connect(path)
        assert conn.execute("SELECT COUNT(*) FROM node_intervals"
                            ).fetchone()[0] >= module_graph().node_count
        assert "node_intervals_span" in {row[0] for row in conn.execute(
            "SELECT name FROM sqlite_master WHERE type = 'index'")}
        conn.close()
        with SQLiteStore(path) as store:
            # The labelling table goes with both its indexes; the
            # walk-down index is built in its place.
            assert "node_intervals" not in table_names(store)
            assert not {"node_intervals_span", "node_intervals_post"} \
                & index_names(store)
            assert "edges_by_source" in index_names(store)
            # No migration: the tables keep their rowid layout.
            assert store.rowid_tables() == ["edges", "invocations", "nodes"]

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
