"""Unit tests for the provenance store subsystem (repro.store)."""

from __future__ import annotations

import os

import pytest

from repro.errors import (StoreError, UnknownNodeError, UnknownRunError,
                          ZoomError)
from repro.graph import GraphBuilder, NodeKind, ProvenanceGraph
from repro.lipstick import Lipstick, QueryProcessor
from repro.queries import subgraph_query
from repro.queries.subgraph import highest_fanout_nodes
from repro.store import (
    CSRSnapshot,
    MemoryStore,
    ProvenanceService,
    RunCatalog,
    SQLiteStore,
    open_store,
)


def sample_graph() -> ProvenanceGraph:
    """A small graph with every payload shape the codec must survive."""
    builder = GraphBuilder()
    workflow_input = builder.workflow_input_node(value=("P1", "B1", "Civic"))
    invocation = builder.begin_invocation("Mdealer1")
    input_node = builder.module_input_node(workflow_input,
                                           value=("P1", "B1", "Civic"))
    base = builder.base_tuple_node("Cars", value=("C2", "Civic"))
    state = builder.module_state_node(base)
    join = builder.times_node([input_node, state])
    builder.module_output_node(join, value=3.5)
    builder.value_node(None)
    builder.value_node("free-text")
    builder.end_invocation()
    assert invocation.input_nodes
    return builder.graph


def assert_graphs_equal(left: ProvenanceGraph, right: ProvenanceGraph):
    assert left.node_count == right.node_count
    assert left.edge_count == right.edge_count
    assert set(left.nodes) == set(right.nodes)
    for node_id in left.nodes:
        a, b = left.node(node_id), right.node(node_id)
        assert (a.kind, a.label, a.ntype, a.module, a.invocation, a.value) \
            == (b.kind, b.label, b.ntype, b.module, b.invocation, b.value)
        assert left.preds(node_id) == right.preds(node_id)
    assert set(left.invocations) == set(right.invocations)
    for invocation_id, a in left.invocations.items():
        b = right.invocations[invocation_id]
        assert a.module_name == b.module_name
        assert a.module_node == b.module_node
        assert a.input_nodes == b.input_nodes
        assert a.output_nodes == b.output_nodes
        assert a.state_nodes == b.state_nodes


# ----------------------------------------------------------------------
# MemoryStore
# ----------------------------------------------------------------------
class TestMemoryStore:
    def test_put_load_adopts_graph(self):
        store = MemoryStore()
        graph = sample_graph()
        info = store.put_graph("r1", graph)
        assert info.node_count == graph.node_count
        assert store.load_graph("r1") is graph

    def test_copy_on_write_isolates(self):
        store = MemoryStore(copy_on_write=True)
        graph = sample_graph()
        store.put_graph("r1", graph)
        loaded = store.load_graph("r1")
        assert loaded is not graph
        assert_graphs_equal(loaded, graph)

    def test_unknown_run(self):
        store = MemoryStore()
        with pytest.raises(UnknownRunError):
            store.load_graph("missing")
        with pytest.raises(UnknownRunError):
            store.delete_run("missing")
        assert not store.has_run("missing")

    def test_list_and_delete(self):
        store = MemoryStore()
        store.put_graph("a", sample_graph())
        store.put_graph("b", sample_graph())
        assert [info.run_id for info in store.list_runs()] == ["a", "b"]
        store.delete_run("a")
        assert [info.run_id for info in store.list_runs()] == ["b"]

    def test_run_info_tracks_live_mutations(self):
        store = MemoryStore()
        graph = sample_graph()
        store.put_graph("r1", graph)
        before = store.run_info("r1").node_count
        graph.add_node(NodeKind.VALUE, value=7)
        assert store.run_info("r1").node_count == before + 1


# ----------------------------------------------------------------------
# SQLiteStore
# ----------------------------------------------------------------------
class TestSQLiteStore:
    def test_round_trip(self, tmp_path):
        with SQLiteStore(tmp_path / "prov.db") as store:
            graph = sample_graph()
            store.put_graph("r1", graph)
            assert_graphs_equal(store.load_graph("r1"), graph)

    def test_survives_the_process(self, tmp_path):
        path = tmp_path / "prov.db"
        graph = sample_graph()
        with SQLiteStore(path) as store:
            store.put_graph("r1", graph, source="unit-test")
        # Fresh connection: everything must come back from disk.
        with SQLiteStore(path) as store:
            info = store.run_info("r1")
            assert info.source == "unit-test"
            assert_graphs_equal(store.load_graph("r1"), graph)

    def test_put_replaces(self, tmp_path):
        with SQLiteStore(tmp_path / "prov.db") as store:
            store.put_graph("r1", sample_graph())
            small = ProvenanceGraph()
            small.add_node(NodeKind.TUPLE, "only")
            store.put_graph("r1", small)
            assert_graphs_equal(store.load_graph("r1"), small)

    def test_incremental_append_matches_full_put(self, tmp_path):
        with SQLiteStore(tmp_path / "prov.db") as store:
            builder = GraphBuilder()
            invocation_count = 0
            for step in range(3):
                builder.begin_invocation(f"M{step}")
                tuple_node = builder.base_tuple_node("R", value=(step,))
                state = builder.module_state_node(tuple_node)
                builder.module_output_node(state)
                builder.end_invocation()
                invocation_count += 1
                info = store.append_graph("inc", builder.graph)
                assert info.invocation_count == invocation_count
            store.put_graph("full", builder.graph)
            assert_graphs_equal(store.load_graph("inc"),
                                store.load_graph("full"))

    def test_append_refuses_shrunk_graph(self, tmp_path):
        with SQLiteStore(tmp_path / "prov.db") as store:
            store.put_graph("r1", sample_graph())
            with pytest.raises(StoreError):
                store.append_graph("r1", ProvenanceGraph())

    def test_append_refuses_unrelated_graph(self, tmp_path):
        """Appending a different graph of similar size must not
        silently interleave the two into one corrupted run."""
        first = ProvenanceGraph()
        a = first.add_node(NodeKind.TUPLE, "a")
        b = first.add_node(NodeKind.PLUS)
        first.add_edge(a, b)
        other = ProvenanceGraph()
        x = other.add_node(NodeKind.TUPLE, "x")
        y = other.add_node(NodeKind.PLUS)
        other.add_node(NodeKind.TUPLE, "z")
        other.add_edge(x, y)  # node b/y: 1 operand in both, but...
        other.remove_node(x)  # ...now y has 0 operands: shrinks
        with SQLiteStore(tmp_path / "prov.db") as store:
            store.put_graph("r1", first)
            with pytest.raises(StoreError):
                store.append_graph("r1", other)

    def test_delete_run(self, tmp_path):
        with SQLiteStore(tmp_path / "prov.db") as store:
            store.put_graph("r1", sample_graph())
            store.delete_run("r1")
            assert not store.has_run("r1")
            with pytest.raises(UnknownRunError):
                store.load_graph("r1")

    def test_jsonl_import_export(self, tmp_path):
        graph = sample_graph()
        spool = tmp_path / "spool.jsonl.gz"
        from repro.graph import dump_graph
        dump_graph(graph, spool)
        with SQLiteStore(tmp_path / "prov.db") as store:
            info = store.import_jsonl("r1", spool)
            assert info.source == os.fspath(spool)
            out = tmp_path / "export.jsonl"
            records = store.export_jsonl("r1", out)
            assert records > 0
            from repro.graph import load_graph
            assert_graphs_equal(load_graph(out), graph)

    def test_open_store_dispatch(self, tmp_path):
        assert isinstance(open_store(None), MemoryStore)
        store = open_store(tmp_path / "x.db")
        assert isinstance(store, SQLiteStore)
        store.close()


# ----------------------------------------------------------------------
# CSRSnapshot
# ----------------------------------------------------------------------
class TestCSRSnapshot:
    def test_matches_graph_api(self, dealership_execution):
        graph = dealership_execution[0]
        snapshot = CSRSnapshot(graph)
        assert snapshot.node_count == graph.node_count
        assert snapshot.edge_count == graph.edge_count
        for node_id in list(graph.node_ids())[::7]:
            assert snapshot.preds(node_id) == graph.preds(node_id)
            assert snapshot.succs(node_id) == graph.succs(node_id)
            assert snapshot.in_degree(node_id) == graph.in_degree(node_id)
            assert snapshot.out_degree(node_id) == graph.out_degree(node_id)

    def test_traversals_agree_with_graph(self, dealership_execution):
        graph = dealership_execution[0]
        snapshot = CSRSnapshot(graph)
        for node_id in highest_fanout_nodes(graph, 15):
            assert snapshot.ancestors(node_id) == graph.ancestors(node_id)
            assert snapshot.descendants(node_id) == graph.descendants(node_id)
            expected = subgraph_query(graph, node_id)
            actual = snapshot.subgraph(node_id)
            assert actual.ancestors == expected.ancestors
            assert actual.descendants == expected.descendants
            assert actual.siblings == expected.siblings

    def test_reachable(self):
        graph = sample_graph()
        snapshot = CSRSnapshot(graph)
        for source in graph.node_ids():
            for target in graph.node_ids():
                assert snapshot.reachable(source, target) \
                    == graph.reachable(source, target)

    def test_reachable_contract_matches_dict_on_unknown_ids(self):
        """Same answers as ProvenanceGraph.reachable at the edges of
        the contract: unknown target is unreachable, source==target is
        trivially reachable, unknown source raises."""
        graph = sample_graph()
        snapshot = CSRSnapshot(graph)
        known = next(iter(graph.nodes))
        assert snapshot.reachable(99999, 99999) \
            == graph.reachable(99999, 99999) is True
        assert snapshot.reachable(known, 99999) \
            == graph.reachable(known, 99999) is False
        with pytest.raises(UnknownNodeError):
            graph.reachable(99999, known)
        with pytest.raises(UnknownNodeError):
            snapshot.reachable(99999, known)

    def test_sparse_ids_after_surgery(self):
        graph = sample_graph()
        doomed = next(iter(graph.nodes))
        graph.remove_node(doomed)
        snapshot = CSRSnapshot(graph)
        assert not snapshot.has_node(doomed)
        with pytest.raises(UnknownNodeError):
            snapshot.subgraph(doomed)
        for node_id in graph.node_ids():
            assert snapshot.ancestors(node_id) == graph.ancestors(node_id)

    def test_unknown_node(self):
        snapshot = CSRSnapshot(sample_graph())
        with pytest.raises(UnknownNodeError):
            snapshot.descendants(10_000)

    def test_empty_graph(self):
        snapshot = CSRSnapshot(ProvenanceGraph())
        assert snapshot.node_count == 0
        assert list(snapshot.node_ids()) == []
        assert snapshot.memory_bytes() > 0  # offset sentinels

    def test_staleness(self):
        graph = sample_graph()
        snapshot = CSRSnapshot(graph)
        assert snapshot.matches(graph)
        graph.add_node(NodeKind.VALUE, value=1)
        assert not snapshot.matches(graph)


# ----------------------------------------------------------------------
# QueryProcessor integration
# ----------------------------------------------------------------------
class TestQueryProcessorStore:
    def test_from_store_csr_equals_dict(self, tmp_path, dealership_execution):
        graph = dealership_execution[0]
        with SQLiteStore(tmp_path / "prov.db") as store:
            store.put_graph("r1", graph)
            fast = QueryProcessor.from_store(store, "r1")
            slow = QueryProcessor.from_store(store, "r1", csr=False)
            assert fast._current_csr() is not None
            assert slow._current_csr() is None
            for node_id in highest_fanout_nodes(graph, 5):
                a, b = fast.subgraph(node_id), slow.subgraph(node_id)
                assert a.node_ids == b.node_ids
                assert fast.ancestors(node_id) == slow.ancestors(node_id)
                assert fast.descendants(node_id) == slow.descendants(node_id)

    def test_csr_falls_back_after_mutation(self):
        graph = sample_graph()
        processor = QueryProcessor(graph)
        processor.enable_csr()
        assert processor._current_csr() is not None
        node_id = next(iter(graph.nodes))
        processor.delete(node_id, in_place=True)
        assert processor._current_csr() is None
        survivor = next(iter(processor.graph.nodes))
        # Still answers correctly on the dict path.
        assert processor.subgraph(survivor).root == survivor

    def test_lipstick_commit_and_requery(self, tmp_path):
        store = SQLiteStore(tmp_path / "prov.db")
        lipstick = Lipstick(store=store, run_id="session")
        with pytest.raises(RuntimeError):
            Lipstick(track_provenance=False, store=store).commit()
        with pytest.raises(RuntimeError):
            Lipstick().commit()  # no store attached
        builder = lipstick.tracker.builder
        builder.begin_invocation("M")
        tuple_node = builder.base_tuple_node("R", value=(1,))
        builder.module_output_node(tuple_node)
        builder.end_invocation()
        info = lipstick.commit()
        assert info.run_id == "session"
        processor = lipstick.query_processor(run_id="session")
        assert processor.graph.node_count == lipstick.graph.node_count
        store.close()

    def test_default_run_ids_are_unique(self):
        first, second = Lipstick(), Lipstick()
        assert first.run_id != second.run_id


# ----------------------------------------------------------------------
# RunCatalog + ProvenanceService
# ----------------------------------------------------------------------
class TestRunCatalog:
    def test_auto_run_ids(self):
        catalog = RunCatalog(MemoryStore())
        first = catalog.register(sample_graph())
        second = catalog.register(sample_graph())
        assert first.run_id == "run-0001"
        assert second.run_id == "run-0002"

    def test_ingest_and_export_round_trip(self, tmp_path):
        from repro.graph import dump_graph, load_graph
        graph = sample_graph()
        spool = tmp_path / "spool.jsonl"
        dump_graph(graph, spool)
        catalog = RunCatalog(MemoryStore())
        info = catalog.ingest(spool)
        assert [run.run_id for run in catalog.runs()] == [info.run_id]
        out = tmp_path / "round.jsonl.gz"
        catalog.export(info.run_id, out)
        assert_graphs_equal(load_graph(out), graph)
        catalog.delete(info.run_id)
        assert catalog.runs() == []


class TestProvenanceService:
    @pytest.fixture
    def service(self, dealership_execution):
        store = MemoryStore()
        store.put_graph("run-a", dealership_execution[0])
        store.put_graph("run-b", sample_graph())
        return ProvenanceService(store)

    def test_queries_per_run(self, service, dealership_execution):
        graph = dealership_execution[0]
        node = highest_fanout_nodes(graph, 1)[0]
        expected = subgraph_query(graph, node)
        actual = service.subgraph("run-a", node)
        assert actual.node_ids == expected.node_ids
        assert service.descendants("run-a", node) == graph.descendants(node)
        assert service.stats("run-b").node_count == sample_graph().node_count

    def test_csr_cache_hits(self, service, dealership_execution):
        node = highest_fanout_nodes(dealership_execution[0], 1)[0]
        first = service.csr("run-a")
        second = service.csr("run-a")
        assert first is second
        service.subgraph("run-a", node)
        hits, _misses = service.cache_stats()["csr"]
        assert hits >= 2

    def test_cache_invalidation_on_mutation(self, service):
        snapshot = service.csr("run-a")
        graph = service.graph("run-a")
        graph.add_node(NodeKind.VALUE, value=0)
        fresh = service.csr("run-a")
        assert fresh is not snapshot
        assert fresh.matches(graph)

    def test_delete_serves_a_copy(self, service):
        before = service.graph("run-a").node_count
        node = next(iter(service.graph("run-a").nodes))
        result = service.delete("run-a", node)
        assert result.removed
        assert service.graph("run-a").node_count == before

    def test_zoom_round_trip(self, service, dealership_execution):
        graph = dealership_execution[0]
        before = graph.node_count
        module = next(iter(graph.module_names()))
        service.zoom_out("run-a", [module])
        assert service.graph("run-a").node_count != before
        service.zoom_in("run-a", [module])
        assert service.graph("run-a").node_count == before

    def test_failed_zoom_leaves_served_graph_alone(self, dealership_execution):
        store = MemoryStore()
        store.put_graph("run-a", dealership_execution[0].copy())
        service = ProvenanceService(store)

        def state():
            graph = service.graph("run-a")
            return (graph.node_count, graph.edge_count,
                    service.processor("run-a").zoomed_out_modules)

        before = state()
        with pytest.raises(ZoomError):
            service.zoom_out("run-a", ["Magg", "Nope"])
        assert state() == before
        service.zoom_out("run-a", ["Magg"])
        zoomed = state()
        with pytest.raises(ZoomError):
            service.zoom_in("run-a", ["Magg", "Mdealer1"])
        assert state() == zoomed

    def test_processor_rebuilt_after_graph_reload(self):
        """A cached processor must not outlive its graph object when
        the graph cache reloads behind it (LRU divergence)."""
        store = MemoryStore(copy_on_write=True)
        store.put_graph("a", sample_graph())
        store.put_graph("b", sample_graph())
        service = ProvenanceService(store, graph_cache_size=1)
        processor = service.processor("a")
        service.graph("b")  # evicts run a's graph
        refreshed = service.processor("a")
        assert refreshed is not processor
        assert refreshed.graph is service.graph("a")

    def test_invalidate(self, service):
        graph = service.graph("run-a")
        service.invalidate("run-a")
        # Memory store adopts graphs, so a reload returns the same
        # object — but it must have gone back to the store for it.
        _misses_before = service.cache_stats()["graphs"][1]
        assert service.graph("run-a") is graph
        assert service.cache_stats()["graphs"][1] == _misses_before + 1


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCLI:
    def test_ingest_query_runs(self, tmp_path, capsys):
        from repro.cli import main
        db = os.fspath(tmp_path / "cli.db")
        spool = tmp_path / "spool.jsonl.gz"
        from repro.graph import dump_graph
        dump_graph(sample_graph(), spool)

        assert main(["ingest", "--db", db, "--run", "demo",
                     "--spool", os.fspath(spool)]) == 0
        assert "ingested demo" in capsys.readouterr().out

        assert main(["runs", "--db", db]) == 0
        assert "demo" in capsys.readouterr().out

        assert main(["query", "--db", db, "--run", "demo",
                     "--subgraph", "0"]) == 0
        out = capsys.readouterr().out
        assert "subgraph(0)" in out

        assert main(["query", "--db", db, "--subgraph", "0",
                     "--backend", "dict"]) == 0
        assert capsys.readouterr().out == out  # backends agree

        assert main(["query", "--db", db, "--stats"]) == 0
        assert "nodes=" in capsys.readouterr().out

    def test_query_errors(self, tmp_path, capsys):
        from repro.cli import main
        db = os.fspath(tmp_path / "empty.db")
        assert main(["query", "--db", db, "--stats"]) == 1
        assert "no runs" in capsys.readouterr().err
        # Unknown run id on a populated store.
        from repro.store import SQLiteStore
        with SQLiteStore(db) as store:
            store.put_graph("r1", sample_graph())
        assert main(["query", "--db", db, "--run", "nope",
                     "--stats"]) == 1
        assert "unknown run" in capsys.readouterr().err

    def test_experiment_passthrough(self, capsys):
        from repro.cli import main
        assert main(["definitely-not-a-command"]) == 2
        assert "unknown experiments" in capsys.readouterr().out
