"""Columnar-core equivalence tests.

Three families of guarantees introduced by the arena refactor:

* **golden equivalence** — the columnar writer on ``ProvenanceGraph``
  produces byte-identical JSONL (and identical ``check_consistency``
  output) to the seed writer on the seed dict-of-Node representation
  (``legacy_graph.legacy_dump``), both when the
  seed representation is rebuilt from the columnar graph and when a
  full tracked workflow run is driven over each backend;
* **incremental-CSR consistency** — a property test interleaving node
  and edge adds, removals, and reads keeps the incrementally-patched
  adjacency views identical to a from-scratch model and to a frozen
  ``CSRSnapshot`` rebuild;
* **chain-aliasing regression** — ``ReachabilityIndex`` on a 2k-node
  chain stays linear in stored cells instead of quadratic.
"""

import io
import os
import sys
import warnings

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "benchmarks"))

from legacy_graph import (LegacyProvenanceGraph, legacy_dump,  # noqa: E402
                          replay_into_legacy)

from repro.errors import DuplicateEdgeWarning  # noqa: E402
from repro.graph import (GraphBuilder, NodeKind, ProvenanceGraph,  # noqa: E402
                         dump_graph, load_graph)
from repro.queries import ReachabilityIndex, subgraph_query  # noqa: E402
from repro.store import CSRSnapshot  # noqa: E402
from repro.workflow import WorkflowExecutor  # noqa: E402


def _dump_text(graph) -> str:
    buffer = io.StringIO()
    dump_graph(graph, buffer)
    return buffer.getvalue()


def _seed_dump_text(graph) -> str:
    """The seed writer's output (the golden oracle)."""
    buffer = io.StringIO()
    legacy_dump(graph, buffer)
    return buffer.getvalue()


def _run_dealership(graph_backend):
    from repro.benchmark.dealerships import (DealershipRun,
                                             build_dealership_workflow)
    workflow, modules = build_dealership_workflow()
    builder = GraphBuilder(graph=graph_backend)
    executor = WorkflowExecutor(workflow, modules, builder)
    run = DealershipRun(num_cars=24, num_exec=4, seed=11)
    run.buyer.accept_probability = 0.0
    state = run.initial_state(executor)
    run.run(executor, state)
    return builder.graph


# ----------------------------------------------------------------------
# Golden equivalence
# ----------------------------------------------------------------------
class TestGoldenEquivalence:
    def test_dealership_jsonl_byte_identical_vs_seed_representation(
            self, dealership_execution):
        graph = dealership_execution[0]
        legacy = replay_into_legacy(graph)
        assert _dump_text(graph) == _seed_dump_text(legacy)

    def test_arctic_jsonl_byte_identical_vs_seed_representation(
            self, arctic_execution):
        graph = arctic_execution[0]
        legacy = replay_into_legacy(graph)
        assert _dump_text(graph) == _seed_dump_text(legacy)

    def test_tracked_run_identical_across_backends(self):
        """Driving the same workflow over the columnar backend (bulk
        emission) and the seed backend (per-call emission) yields the
        same node ids, attributes, operand order — and bytes."""
        columnar = _run_dealership(ProvenanceGraph())
        legacy = _run_dealership(LegacyProvenanceGraph())
        assert columnar.node_count == legacy.node_count
        assert columnar.edge_count == legacy.edge_count
        assert _dump_text(columnar) == _seed_dump_text(legacy)

    def test_round_trip_is_stable(self, dealership_execution):
        graph = dealership_execution[0]
        first = _dump_text(graph)
        rebuilt = load_graph(io.StringIO(first))
        assert _dump_text(rebuilt) == first

    def test_check_consistency_output_matches_seed(self,
                                                   dealership_execution):
        graph = dealership_execution[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            graph.check_consistency()
        duplicated = ProvenanceGraph()
        first = duplicated.add_node(NodeKind.TUPLE, "t0")
        second = duplicated.add_node(NodeKind.PLUS)
        duplicated.add_edge(first, second)
        duplicated.add_edge(first, second)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            duplicated.check_consistency()
        assert len(caught) == 1
        assert caught[0].category is DuplicateEdgeWarning
        # The seed's exact message text.
        assert str(caught[0].message) == (
            "provenance graph holds 1 duplicate parallel edge(s); they "
            "double-count in edge_count and inflate reachability memory "
            "accounting (pass dedupe=True to add_edge to suppress them)")


# ----------------------------------------------------------------------
# Incremental CSR vs from-scratch rebuild (property test)
# ----------------------------------------------------------------------
operations = st.lists(
    st.one_of(
        st.tuples(st.just("add_node")),
        st.tuples(st.just("add_nodes"), st.integers(min_value=2, max_value=5)),
        st.tuples(st.just("add_edge"), st.integers(0, 60), st.integers(0, 60)),
        st.tuples(st.just("add_edges"),
                  st.lists(st.tuples(st.integers(0, 60), st.integers(0, 60)),
                           max_size=6)),
        st.tuples(st.just("remove"), st.integers(0, 60)),
        st.tuples(st.just("remove_batch"),
                  st.lists(st.integers(0, 60), min_size=1, max_size=4)),
        st.tuples(st.just("read"), st.integers(0, 60)),
    ),
    min_size=5, max_size=60)


class _Model:
    """Naive dict-of-lists oracle mirroring the seed semantics."""

    def __init__(self):
        self.preds = {}
        self.succs = {}
        self.next_id = 0

    def add_node(self):
        node_id = self.next_id
        self.next_id += 1
        self.preds[node_id] = []
        self.succs[node_id] = []
        return node_id

    def add_edge(self, source, target):
        self.preds[target].append(source)
        self.succs[source].append(target)

    def remove(self, doomed):
        doomed = set(doomed)
        for node_id in doomed:
            del self.preds[node_id]
            del self.succs[node_id]
        for remaining in self.preds:
            self.preds[remaining] = [p for p in self.preds[remaining]
                                     if p not in doomed]
            self.succs[remaining] = [s for s in self.succs[remaining]
                                     if s not in doomed]


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(operations)
def test_interleaved_mutation_keeps_views_consistent(ops):
    graph = ProvenanceGraph()
    model = _Model()
    for op in ops:
        kind = op[0]
        if kind == "add_node":
            graph.add_node(NodeKind.TUPLE, f"t{model.next_id}")
            model.add_node()
        elif kind == "add_nodes":
            count = op[1]
            graph.add_nodes(NodeKind.PLUS, count=count)
            for _ in range(count):
                model.add_node()
        elif kind == "add_edge":
            source, target = op[1], op[2]
            if (source in model.preds and target in model.preds
                    and source != target):
                graph.add_edge(source, target)
                model.add_edge(source, target)
        elif kind == "add_edges":
            pairs = [(s, t) for s, t in op[1]
                     if s in model.preds and t in model.preds and s != t]
            graph.add_edges(pairs)
            for source, target in pairs:
                model.add_edge(source, target)
        elif kind == "remove":
            if op[1] in model.preds:
                graph.remove_node(op[1])
                model.remove([op[1]])
        elif kind == "remove_batch":
            doomed = [n for n in set(op[1]) if n in model.preds]
            if doomed:
                graph.remove_nodes(doomed)
                model.remove(doomed)
        elif kind == "read":
            if op[1] in model.preds:
                # Interleaved read: forces an incremental patch.
                assert graph.preds(op[1]) == tuple(model.preds[op[1]])
    # Full agreement with the from-scratch oracle...
    assert sorted(graph.node_ids()) == sorted(model.preds)
    for node_id in model.preds:
        assert graph.preds(node_id) == tuple(model.preds[node_id])
        assert graph.succs(node_id) == tuple(model.succs[node_id])
    assert graph.edge_count == sum(len(p) for p in model.preds.values())
    graph.check_consistency(warn_duplicates=False)
    # ...and with a frozen from-scratch CSR rebuild.
    snapshot = CSRSnapshot(graph)
    for node_id in model.preds:
        assert snapshot.preds(node_id) == graph.preds(node_id)
        assert snapshot.succs(node_id) == graph.succs(node_id)


# ----------------------------------------------------------------------
# Arena-invariant regressions (code-review findings)
# ----------------------------------------------------------------------
class TestArenaInvariants:
    def test_extract_subgraph_with_trailing_unrelated_nodes(self):
        from repro.queries import extract_subgraph
        graph = ProvenanceGraph()
        first = graph.add_node(NodeKind.TUPLE, "a")
        second = graph.add_node(NodeKind.PLUS)
        graph.add_edge(first, second)
        for index in range(3):  # unrelated nodes beyond the subgraph
            graph.add_node(NodeKind.TUPLE, f"x{index}")
        extracted = extract_subgraph(graph, subgraph_query(graph, first))
        assert sorted(extracted.nodes) == [first, second]
        extracted.check_consistency()
        dump_graph(extracted, io.StringIO())
        fresh = extracted.add_node(NodeKind.TUPLE, "new")
        assert fresh == graph._next_node_id  # high-water mark preserved

    def test_sqlite_round_trip_after_trailing_removal(self, tmp_path):
        from repro.store import SQLiteStore
        graph = ProvenanceGraph()
        keep = graph.add_node(NodeKind.TUPLE, "keep")
        doomed = graph.add_node(NodeKind.TUPLE, "doomed")
        graph.remove_node(doomed)
        store = SQLiteStore(str(tmp_path / "runs.db"))
        store.put_graph("r", graph)
        loaded = store.load_graph("r")
        assert sorted(loaded.nodes) == [keep]
        loaded.check_consistency()
        dump_graph(loaded, io.StringIO())
        assert loaded.add_node(NodeKind.PLUS) == doomed + 1  # no id reuse
        store.close()

    def test_bulk_edge_failure_is_atomic(self):
        import pytest
        from repro.errors import UnknownNodeError
        graph = ProvenanceGraph()
        nodes = list(graph.add_nodes(NodeKind.TUPLE,
                                     labels=[f"t{i}" for i in range(40)]))
        good = list(zip(nodes, nodes[1:]))
        # Non-int ids surface as UnknownNodeError (add_edge's contract)
        # on both the big vectorized path and the small-batch path.
        with pytest.raises(UnknownNodeError):
            graph.add_edges(good + [("bad", nodes[0])])
        with pytest.raises(UnknownNodeError):
            graph.add_edges([(None, nodes[0])])
        assert graph.edge_count == 0
        assert len(graph._edge_src) == len(graph._edge_dst) == 0
        graph.add_edges(good)  # log stays aligned and usable
        graph.check_consistency()
        assert graph.preds(nodes[1]) == (nodes[0],)

    def test_reachable_with_invalid_target_is_false(self):
        graph = ProvenanceGraph()
        first = graph.add_node(NodeKind.TUPLE, "a")
        second = graph.add_node(NodeKind.PLUS)
        graph.add_edge(first, second)
        index = ReachabilityIndex(graph)
        assert not index.reachable(first, -1)
        assert not index.reachable(first, 999)
        assert index.reachable(-1, -1)  # source == target short-circuit


# ----------------------------------------------------------------------
# restore_nodes: the inverse of remove_nodes (ZoomIn's primitive)
# ----------------------------------------------------------------------
def _rows(graph):
    ids = list(graph.node_ids())
    return ({node: graph.preds(node) for node in ids},
            {node: graph.succs(node) for node in ids})


class TestRestoreNodes:
    def _graph(self, count):
        graph = ProvenanceGraph()
        return graph, list(graph.add_nodes(NodeKind.PLUS, count=count))

    def test_restore_right_after_remove_is_exact(self):
        graph, (u, x, v, w) = self._graph(4)
        graph.add_edges([(u, x), (x, v), (u, v), (x, v), (w, v)])
        before = _rows(graph)
        graph.remove_nodes([x])
        graph.restore_nodes([x], *before)
        assert _rows(graph) == before
        assert graph.edge_count == 5
        graph.check_consistency(warn_duplicates=False)

    def test_edges_added_since_are_appended_as_a_multiset(self):
        graph, (u, x, v, q) = self._graph(4)
        graph.add_edges([(u, v), (x, v), (u, v)])
        saved = _rows(graph)
        graph.remove_nodes([x])
        graph.add_edges([(u, v), (q, v)])
        graph.restore_nodes([x], *saved)
        assert graph.preds(v) == (u, x, u, u, q)
        assert graph.succs(u) == (v, v, v)
        assert graph.edge_count == 5
        graph.check_consistency(warn_duplicates=False)

    def test_operands_removed_since_are_dropped(self):
        graph, (u, x, v) = self._graph(3)
        graph.add_edges([(u, x), (x, v)])
        saved = _rows(graph)
        graph.remove_nodes([x])
        graph.remove_nodes([v])
        graph.restore_nodes([x], *saved)
        assert (graph.preds(x), graph.succs(x)) == ((u,), ())
        assert not graph.has_node(v)
        assert graph.edge_count == 1
        graph.check_consistency()

    def test_only_removed_rows_restore(self):
        import pytest
        from repro.errors import FrozenGraphError, ProvenanceGraphError
        graph, (u, x) = self._graph(2)
        graph.add_edge(u, x)
        saved = _rows(graph)
        for bad in (u, 99, -1, "x"):
            with pytest.raises(ProvenanceGraphError):
                graph.restore_nodes([bad], *saved)
        graph.remove_nodes([x])
        graph.freeze()
        with pytest.raises(FrozenGraphError):
            graph.restore_nodes([x], *saved)
        assert (graph.node_count, graph.edge_count) == (1, 0)


# ----------------------------------------------------------------------
# ReachabilityIndex chain-aliasing regression
# ----------------------------------------------------------------------
class TestChainAliasing:
    def test_2k_chain_memory_is_linear(self):
        graph = ProvenanceGraph()
        length = 2000
        nodes = list(graph.add_nodes(NodeKind.TUPLE,
                                     labels=[f"t{i}" for i in range(length)]))
        graph.add_edges(zip(nodes, nodes[1:]))
        index = ReachabilityIndex(graph)
        # Seed representation stored Θ(k²) ≈ 4M cells for both
        # directions; aliased bitset rows stay linear.
        assert index.memory_cells() < 16 * length
        # Answers stay exact.
        head, mid, tail = nodes[0], nodes[length // 2], nodes[-1]
        assert index.descendants(head) == frozenset(nodes[1:])
        assert index.descendants(mid) == frozenset(nodes[length // 2 + 1:])
        assert index.descendants(tail) == frozenset()
        assert index.ancestors(tail) == frozenset(nodes[:-1])
        assert index.reachable(head, tail)
        assert not index.reachable(tail, head)

    def test_chain_with_branches_still_agrees_with_traversal(self):
        graph = ProvenanceGraph()
        chain = list(graph.add_nodes(NodeKind.TUPLE,
                                     labels=[f"c{i}" for i in range(50)]))
        graph.add_edges(zip(chain, chain[1:]))
        # A few cross links and joint nodes break pure chains.
        joint = graph.add_node(NodeKind.TIMES)
        graph.add_edge(chain[5], joint)
        graph.add_edge(chain[10], joint)
        graph.add_edge(joint, chain[20])
        index = ReachabilityIndex(graph)
        for node_id in (chain[0], chain[5], joint, chain[30], chain[-1]):
            assert index.descendants(node_id) == graph.descendants(node_id)
            assert index.ancestors(node_id) == graph.ancestors(node_id)
            indexed = index.subgraph(node_id)
            traversed = subgraph_query(graph, node_id)
            assert indexed.ancestors == traversed.ancestors
            assert indexed.descendants == traversed.descendants
            assert indexed.siblings == traversed.siblings
