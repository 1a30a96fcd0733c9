"""Unit + integration tests for the Section 4 query layer:
Zoom, deletion propagation, subgraph, dependency, ProQL-lite."""

import pytest

from repro.errors import (FrozenGraphError, QueryError, UnknownNodeError,
                          ZoomError)
from repro.graph import GraphBuilder, NodeKind, ProvenanceGraph
from repro.queries import (
    ProQL,
    Zoomer,
    coarse_view,
    delete_base_tuples,
    depends_on,
    extract_subgraph,
    highest_fanout_nodes,
    intermediate_nodes,
    propagate_deletion,
    strict_supporting_tuples,
    subgraph_query,
    supporting_tuples,
    zoom_out,
)


@pytest.fixture
def simple_invocation_graph():
    """One module invocation: input → join with state → output.

    Layout: w (workflow input) → i (input ·), base → s (state ·),
    join = ·(i, s), plus = +(join), o (output ·).
    """
    builder = GraphBuilder()
    w = builder.workflow_input_node(value=("req",))
    invocation = builder.begin_invocation("M")
    i = builder.module_input_node(w)
    base = builder.base_tuple_node("Cars", value=("C2",))
    s = builder.module_state_node(base)
    join = builder.times_node([i, s])
    plus = builder.plus_node([join])
    o = builder.module_output_node(plus)
    builder.end_invocation()
    return builder.graph, {"w": w, "i": i, "base": base, "s": s,
                           "join": join, "plus": plus, "o": o,
                           "m": invocation.module_node}


class TestIntermediateNodes:
    def test_definition_4_1(self, simple_invocation_graph):
        graph, nodes = simple_invocation_graph
        intermediates = intermediate_nodes(graph, ["M"])
        # join and plus are intermediate; i/s/o/m/base/w are not.
        assert intermediates == {nodes["join"], nodes["plus"]}

    def test_paths_stop_at_outputs(self, simple_invocation_graph):
        graph, nodes = simple_invocation_graph
        # Add a consumer past the output; it must not be intermediate.
        downstream = graph.add_node(NodeKind.PLUS)
        graph.add_edge(nodes["o"], downstream)
        intermediates = intermediate_nodes(graph, ["M"])
        assert downstream not in intermediates
        assert nodes["o"] not in intermediates


class TestZoom:
    def test_zoom_out_removes_internals(self, simple_invocation_graph):
        graph, nodes = simple_invocation_graph
        zoomed, _zoomer = zoom_out(graph, ["M"])
        for internal in ("join", "plus", "s", "base"):
            assert not zoomed.has_node(nodes[internal])
        for kept in ("w", "i", "o", "m"):
            assert zoomed.has_node(nodes[kept])

    def test_zoom_node_bridges_inputs_to_outputs(self, simple_invocation_graph):
        graph, nodes = simple_invocation_graph
        zoomed, _zoomer = zoom_out(graph, ["M"])
        zoom_nodes = zoomed.nodes_of_kind(NodeKind.ZOOM)
        assert len(zoom_nodes) == 1
        meta = zoom_nodes[0]
        assert set(zoomed.preds(meta.node_id)) == {nodes["i"]}
        assert set(zoomed.succs(meta.node_id)) == {nodes["o"]}
        # Output still reachable from the workflow input.
        assert zoomed.reachable(nodes["w"], nodes["o"])

    def test_zoom_in_is_inverse(self, simple_invocation_graph):
        graph, _nodes = simple_invocation_graph
        before_nodes = set(graph.nodes)
        before_edges = graph.edge_count
        zoomer = Zoomer(graph)
        zoomer.zoom_out(["M"])
        zoomer.zoom_in(["M"])
        assert set(graph.nodes) == before_nodes
        assert graph.edge_count == before_edges
        graph.check_consistency()

    def test_zoom_out_unknown_module(self, simple_invocation_graph):
        graph, _nodes = simple_invocation_graph
        with pytest.raises(ZoomError):
            Zoomer(graph).zoom_out(["Nope"])

    def test_zoom_in_without_zoom_out(self, simple_invocation_graph):
        graph, _nodes = simple_invocation_graph
        with pytest.raises(ZoomError):
            Zoomer(graph).zoom_in(["M"])

    def test_double_zoom_out_is_idempotent(self, simple_invocation_graph):
        graph, _nodes = simple_invocation_graph
        zoomer = Zoomer(graph)
        assert zoomer.zoom_out(["M"]) == ["M"]
        assert zoomer.zoom_out(["M"]) == []  # already zoomed

    def test_coarse_view_has_no_internals(self, dealership_execution):
        graph, _outputs, _run, _executor = dealership_execution
        coarse = coarse_view(graph)
        internal_kinds = {NodeKind.TIMES, NodeKind.PLUS, NodeKind.DELTA,
                          NodeKind.TENSOR, NodeKind.AGG, NodeKind.BLACKBOX,
                          NodeKind.STATE}
        remaining = {node.kind for node in coarse.nodes.values()}
        assert remaining.isdisjoint(internal_kinds)
        assert coarse.nodes_of_kind(NodeKind.ZOOM)

    def test_zoom_roundtrip_on_dealership(self, dealership_execution):
        graph, _outputs, _run, _executor = dealership_execution
        duplicate = graph.copy()
        zoomer = Zoomer(duplicate)
        before = (set(duplicate.nodes), duplicate.edge_count)
        modules = [f"Mdealer{i}" for i in range(1, 5)]
        zoomer.zoom_out(modules)
        zoomer.zoom_in(modules)
        assert (set(duplicate.nodes), duplicate.edge_count) == before
        duplicate.check_consistency()

    def test_zoom_all_modules(self, dealership_execution):
        graph, _outputs, _run, _executor = dealership_execution
        duplicate = graph.copy()
        zoomer = Zoomer(duplicate)
        done = zoomer.zoom_out_all()
        assert set(done) == duplicate.module_names() | set(done)
        assert zoomer.zoomed_out_modules == set(done)

    def test_zoom_in_keeps_parallel_edges(self):
        """Semiring multiplicity i·i is two parallel edges i → x; a
        round trip must restore both, in their operand order."""
        graph = ProvenanceGraph()
        invocation = graph.new_invocation("M")
        t = graph.add_node(NodeKind.WORKFLOW_INPUT)
        i = graph.add_node(NodeKind.INPUT, module="M",
                           invocation=invocation.invocation_id)
        x = graph.add_node(NodeKind.TIMES, module="M",
                           invocation=invocation.invocation_id)
        o = graph.add_node(NodeKind.OUTPUT, module="M",
                           invocation=invocation.invocation_id)
        invocation.input_nodes.append(i)
        invocation.output_nodes.append(o)
        graph.add_edges([(t, i), (i, x), (i, x), (x, o)])
        assert (graph.edge_count, graph.preds(x)) == (4, (i, i))
        zoomer = Zoomer(graph)
        zoomer.zoom_out(["M"])
        assert not graph.has_node(x)
        zoomer.zoom_in(["M"])
        assert (graph.edge_count, graph.preds(x)) == (4, (i, i))
        assert graph.succs(i) == (x, x)
        graph.check_consistency(warn_duplicates=False)

    @staticmethod
    def _zoom_state(graph, zoomer):
        return (graph.node_count, graph.edge_count, zoomer.zoomed_out_modules)

    def test_failed_zoom_out_changes_nothing(self, dealership_execution):
        graph = dealership_execution[0].copy()
        zoomer = Zoomer(graph)
        before = self._zoom_state(graph, zoomer)
        with pytest.raises(ZoomError):
            zoomer.zoom_out(["Magg", "Nope"])
        assert self._zoom_state(graph, zoomer) == before

    def test_failed_zoom_in_changes_nothing(self, dealership_execution):
        graph = dealership_execution[0].copy()
        zoomer = Zoomer(graph)
        zoomer.zoom_out(["Magg"])
        before = self._zoom_state(graph, zoomer)
        with pytest.raises(ZoomError):
            zoomer.zoom_in(["Magg", "Mdealer1"])
        assert self._zoom_state(graph, zoomer) == before

    def test_frozen_zoom_in_keeps_fragment(self, simple_invocation_graph):
        graph, _nodes = simple_invocation_graph
        zoomer = Zoomer(graph)
        zoomer.zoom_out(["M"])
        graph.freeze()
        before = self._zoom_state(graph, zoomer)
        with pytest.raises(FrozenGraphError):
            zoomer.zoom_in(["M"])
        assert self._zoom_state(graph, zoomer) == before


class TestDeletion:
    def test_rule_1_all_incoming_deleted(self, simple_invocation_graph):
        graph, nodes = simple_invocation_graph
        outcome = propagate_deletion(graph, [nodes["join"]])
        assert not outcome.survived(nodes["plus"])  # rule 1

    def test_rule_2_multiplicative(self, simple_invocation_graph):
        graph, nodes = simple_invocation_graph
        outcome = propagate_deletion(graph, [nodes["base"]])
        assert not outcome.survived(nodes["s"])     # · dies on one edge
        assert not outcome.survived(nodes["join"])
        assert not outcome.survived(nodes["o"])
        assert outcome.survived(nodes["i"])          # untouched branch
        assert outcome.survived(nodes["m"])          # no incoming edges

    def test_base_nodes_never_cascade(self, simple_invocation_graph):
        graph, nodes = simple_invocation_graph
        outcome = propagate_deletion(graph, [nodes["w"]])
        # The m-node and the base state tuple survive (Example 4.4).
        assert outcome.survived(nodes["m"])
        assert outcome.survived(nodes["base"])

    def test_plus_survives_partial_deletion(self):
        builder = GraphBuilder()
        builder.begin_invocation("M")
        t1 = builder.base_tuple_node("R")
        t2 = builder.base_tuple_node("R")
        plus = builder.plus_node([t1, t2])
        builder.end_invocation()
        outcome = propagate_deletion(builder.graph, [t1])
        assert outcome.survived(plus)
        outcome = propagate_deletion(builder.graph, [t1, t2])
        assert not outcome.survived(plus)

    def test_in_place_vs_copy(self, simple_invocation_graph):
        graph, nodes = simple_invocation_graph
        propagate_deletion(graph, [nodes["base"]])
        assert graph.has_node(nodes["base"])  # copy mode untouched
        propagate_deletion(graph, [nodes["base"]], in_place=True)
        assert not graph.has_node(nodes["base"])

    def test_unknown_seed(self, simple_invocation_graph):
        graph, _nodes = simple_invocation_graph
        with pytest.raises(UnknownNodeError):
            propagate_deletion(graph, [424242])

    def test_blackbox_flag(self):
        builder = GraphBuilder()
        builder.begin_invocation("M")
        t1 = builder.base_tuple_node("R")
        t2 = builder.base_tuple_node("R")
        bb = builder.blackbox_node("F", [t1, t2])
        builder.end_invocation()
        graph = builder.graph
        # Letter of Definition 4.2: BB survives one input deletion.
        assert propagate_deletion(graph, [t1]).survived(bb)
        # Conservative reading: it dies.
        strict = propagate_deletion(graph, [t1], blackbox_multiplicative=True)
        assert not strict.survived(bb)

    def test_delete_base_tuples_by_label(self, simple_invocation_graph):
        graph, nodes = simple_invocation_graph
        label = graph.node(nodes["base"]).label
        outcome = delete_base_tuples(graph, [label])
        assert nodes["base"] in outcome.removed

    def test_graph_stays_consistent(self, dealership_execution):
        graph, _outputs, _run, _executor = dealership_execution
        seed = next(iter(graph.nodes_of_kind(NodeKind.TUPLE))).node_id
        outcome = propagate_deletion(graph, [seed])
        outcome.graph.check_consistency()


class TestSubgraph:
    def test_components(self, simple_invocation_graph):
        graph, nodes = simple_invocation_graph
        result = subgraph_query(graph, nodes["join"])
        assert nodes["i"] in result.ancestors
        assert nodes["o"] in result.descendants
        assert nodes["join"] in result
        assert result.size <= graph.node_count

    def test_siblings_of_descendants(self):
        builder = GraphBuilder()
        builder.begin_invocation("M")
        t1 = builder.base_tuple_node("R")
        t2 = builder.base_tuple_node("R")
        join = builder.times_node([t1, t2])
        builder.end_invocation()
        result = subgraph_query(builder.graph, t1)
        # t2 is a sibling: it co-derives the join.
        assert t2 in result.siblings

    def test_extract_subgraph(self, simple_invocation_graph):
        graph, nodes = simple_invocation_graph
        result = subgraph_query(graph, nodes["join"])
        extracted = extract_subgraph(graph, result)
        assert extracted.node_count == result.size
        extracted.check_consistency()

    def test_highest_fanout(self, simple_invocation_graph):
        graph, nodes = simple_invocation_graph
        top = highest_fanout_nodes(graph, 2)
        degrees = [graph.out_degree(node_id) for node_id in top]
        assert degrees == sorted(degrees, reverse=True)


class TestDependency:
    def test_depends_on(self, simple_invocation_graph):
        graph, nodes = simple_invocation_graph
        assert depends_on(graph, nodes["o"], [nodes["w"]])
        assert not depends_on(graph, nodes["i"], [nodes["base"]])
        assert not depends_on(graph, nodes["o"], [nodes["o"]])

    def test_supporting_tuples(self, simple_invocation_graph):
        graph, nodes = simple_invocation_graph
        labels = supporting_tuples(graph, nodes["o"])
        assert graph.node(nodes["base"]).label in labels

    def test_strict_supporting_tuples(self, simple_invocation_graph):
        graph, nodes = simple_invocation_graph
        strict = strict_supporting_tuples(graph, nodes["o"])
        assert graph.node(nodes["base"]).label in strict


class TestProQL:
    def test_kind_and_module_filters(self, simple_invocation_graph):
        graph, nodes = simple_invocation_graph
        query = ProQL(graph)
        tuples = query.of_kind(NodeKind.TUPLE)
        assert tuples.ids() == [nodes["base"]]
        assert query.in_module("M").count() > 0

    def test_traversals(self, simple_invocation_graph):
        graph, nodes = simple_invocation_graph
        query = ProQL(graph).node(nodes["join"])
        assert nodes["o"] in query.descendants().ids()
        assert nodes["w"] in query.ancestors().ids()
        assert set(query.parents().ids()) == {nodes["i"], nodes["s"]}
        assert query.children().ids() == [nodes["plus"]]

    def test_set_algebra(self, simple_invocation_graph):
        graph, nodes = simple_invocation_graph
        everything = ProQL(graph)
        p_nodes = everything.p_nodes()
        v_nodes = everything.v_nodes()
        assert p_nodes.union(v_nodes).count() == everything.count()
        assert p_nodes.intersect(v_nodes).is_empty()
        assert everything.minus(p_nodes).count() == v_nodes.count()

    def test_reaches(self, simple_invocation_graph):
        graph, nodes = simple_invocation_graph
        assert ProQL(graph).node(nodes["w"]).reaches(nodes["o"])
        assert not ProQL(graph).node(nodes["o"]).reaches(nodes["w"])

    def test_projections(self, simple_invocation_graph):
        graph, nodes = simple_invocation_graph
        tuples = ProQL(graph).of_kind(NodeKind.TUPLE)
        assert tuples.labels() == [graph.node(nodes["base"]).label]
        assert tuples.one().node_id == nodes["base"]
        assert ("C2",) in ProQL(graph).of_kind(NodeKind.TUPLE).values()

    def test_one_requires_singleton(self, simple_invocation_graph):
        graph, _nodes = simple_invocation_graph
        with pytest.raises(QueryError):
            ProQL(graph).one()

    def test_unknown_node_anchor(self, simple_invocation_graph):
        graph, _nodes = simple_invocation_graph
        with pytest.raises(QueryError):
            ProQL(graph).node(9999)

    def test_cross_graph_combination_rejected(self, simple_invocation_graph):
        graph, _nodes = simple_invocation_graph
        other = GraphBuilder().graph
        with pytest.raises(QueryError):
            ProQL(graph).union(ProQL(other))

    def test_label_filters(self, simple_invocation_graph):
        graph, nodes = simple_invocation_graph
        label = graph.node(nodes["base"]).label
        assert ProQL(graph).with_label(label).count() == 1
        assert ProQL(graph).label_contains("Cars").count() == 1

    def test_motivating_question(self, dealership_execution):
        # "Which cars affected the computation of this winning bid?"
        graph, outputs, _run, _executor = dealership_execution
        best = outputs[0].outputs_of("agg")["BestBids"]
        bid_node = best.rows[0].prov
        cars = (ProQL(graph).node(bid_node).ancestors()
                .of_kind(NodeKind.TUPLE).label_contains("Cars").labels())
        assert cars  # at least the cars of the requested model
