"""Zoom against a plain-dict reference implementation (paper §4.1).

The reference knows nothing of the arena, adjacency rows or kernels:
it holds a dict of node kinds, a dict of owning invocations and a list
of edges.  Its ZoomOut is Definition 4.1 (forward reach from the
invocations' input and state nodes, stopping at output nodes) plus
§4.1 step 4 (state nodes, base tuples feeding only them, VALUE leaves
left edgeless) and step 5 (one ZOOM node per invocation, wired from
its inputs to its outputs).  Its ZoomIn drops the ZOOM nodes and puts
back the removed nodes and every removed edge whose ends are alive.

Hypothesis builds two-module workflows from the Pig Latin programs of
``test_differential_fuzz`` and zooms them in every order of two
ZoomOuts and two ZoomIns.  After each step the graph must hold the
reference's node ids, kinds and edge multiset and pass
``check_consistency``; after the last ZoomIn its JSONL dump must equal
the original byte for byte.
"""

from __future__ import annotations

import io
from collections import Counter, defaultdict

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.datamodel import Relation
from repro.datamodel.relation import Row
from repro.graph import GraphBuilder, NodeKind, dump_graph
from repro.piglatin import Interpreter
from repro.queries import Zoomer
from test_differential_fuzz import R_SCHEMA, S_SCHEMA, programs

MODULES = ("A", "B")


def _invoke(builder, module, generated, tuple_nodes, state):
    """One invocation of ``module``: its program over input tuples and
    persistent state, a Count aggregate over the result, and a Q_state
    that carries the state to the next invocation.  Returns the
    output nodes."""
    program, r_rows, s_rows = generated
    builder.begin_invocation(module)
    inputs = builder.module_input_nodes(tuple_nodes)
    r_values = [r_rows[index % len(r_rows)] if r_rows else (index % 5, 0)
                for index in range(len(inputs))]
    carried = state.get(module)
    if carried is None:
        carried = builder.base_tuple_nodes(f"{module}.S", s_rows)
    states = builder.module_state_nodes(carried)
    environment = {
        "R": Relation(R_SCHEMA, [Row(values, prov)
                                 for values, prov in zip(r_values, inputs)]),
        "S": Relation(S_SCHEMA, [Row(values, prov)
                                 for values, prov in zip(s_rows, states)])}
    result = Interpreter(builder).execute(program, environment)
    last_alias = program.rsplit("\n", 1)[-1].split(" ", 1)[0]
    provs = [row.prov for row in result.relations[last_alias].rows]
    leaves = [builder.value_node(index) for index in range(len(provs))]
    total = builder.agg_node("Count",
                             builder.tensor_nodes(list(zip(provs, leaves))),
                             value=len(provs))
    builder.value_node(-1)  # an edgeless VALUE leaf
    outputs = builder.module_output_nodes(provs + [total])
    state[module] = builder.plus_nodes([[node] for node in states])
    builder.end_invocation()
    return outputs


def build_workflow(generated_a, generated_b, executions):
    """Module A reads workflow inputs; module B reads A's outputs."""
    builder = GraphBuilder()
    state = {}
    for _ in range(executions):
        requests = builder.workflow_input_nodes("workflow", generated_a[1])
        handed = _invoke(builder, "A", generated_a, requests, state)
        _invoke(builder, "B", generated_b, handed, state)
    return builder.graph


class ReferenceZoom:
    """ZoomOut / ZoomIn over plain dicts and an edge list."""

    def __init__(self, graph):
        ids = list(graph.node_ids())
        self.kinds = {node: graph.node(node).kind for node in ids}
        self.owners = {node: graph.node(node).invocation for node in ids}
        self.edges = [(pred, node) for node in ids
                      for pred in graph.preds(node)]
        self.invocations = [
            (invocation.invocation_id, invocation.module_name,
             list(invocation.input_nodes), list(invocation.output_nodes),
             list(invocation.state_nodes))
            for invocation in graph.invocations.values()]
        self.next_id = graph.csr().size
        self.hidden = {}

    def zoom_out(self, module):
        invocations = [entry for entry in self.invocations
                       if entry[1] == module]
        succs = defaultdict(list)
        for source, target in self.edges:
            succs[source].append(target)
        # Definition 4.1: reach from inputs and state, never past an
        # output node; the start nodes themselves are not intermediate.
        starts = {node for entry in invocations
                  for node in entry[2] + entry[4] if node in self.kinds}
        gone = set()
        stack = [succ for start in starts for succ in succs[start]]
        while stack:
            node = stack.pop()
            if (node in starts or node in gone
                    or self.kinds[node] is NodeKind.OUTPUT):
                continue
            gone.add(node)
            stack.extend(succs[node])
        # Step 4: state nodes, and base tuples that feed only them.
        states = {node for entry in invocations for node in entry[4]
                  if node in self.kinds}
        gone |= states
        bases = {source for source, target in self.edges
                 if target in states and self.kinds[source] is NodeKind.TUPLE}
        gone |= {base for base in bases
                 if all(succ in gone for succ in succs[base])}
        owners = {entry[0] for entry in invocations}
        for node in sorted(self.kinds):
            if (self.kinds[node] is NodeKind.VALUE
                    and self.owners[node] in owners
                    and all(succ in gone for succ in succs[node])):
                gone.add(node)
        nodes = {node: (self.kinds.pop(node), self.owners.pop(node))
                 for node in gone}
        edges = [edge for edge in self.edges
                 if edge[0] in gone or edge[1] in gone]
        self.edges = [edge for edge in self.edges
                      if edge[0] not in gone and edge[1] not in gone]
        # Step 5: one ZOOM node per invocation.
        zooms = []
        for invocation_id, _module, inputs, outputs, _state in invocations:
            zoom = self.next_id
            self.next_id += 1
            zooms.append(zoom)
            self.kinds[zoom] = NodeKind.ZOOM
            self.owners[zoom] = invocation_id
            self.edges += [(node, zoom) for node in inputs
                           if node in self.kinds]
            self.edges += [(zoom, node) for node in outputs
                           if node in self.kinds]
        self.hidden[module] = (nodes, edges, set(zooms))

    def zoom_in(self, module):
        nodes, edges, zooms = self.hidden.pop(module)
        for zoom in zooms:
            del self.kinds[zoom], self.owners[zoom]
        self.edges = [edge for edge in self.edges
                      if edge[0] not in zooms and edge[1] not in zooms]
        for node, (kind, owner) in nodes.items():
            self.kinds[node] = kind
            self.owners[node] = owner
        self.edges += [edge for edge in edges
                       if edge[0] in self.kinds and edge[1] in self.kinds]


def dumped(graph):
    buffer = io.StringIO()
    dump_graph(graph, buffer)
    return buffer.getvalue()


def assert_matches(graph, reference):
    ids = list(graph.node_ids())
    assert {node: graph.node(node).kind for node in ids} == reference.kinds
    assert Counter((pred, node) for node in ids
                   for pred in graph.preds(node)) == Counter(reference.edges)
    graph.check_consistency(warn_duplicates=False)


class TestZoomAgainstReference:
    @given(programs(), programs(), st.integers(1, 3),
           st.permutations(MODULES), st.permutations(MODULES), st.booleans())
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_every_zoom_order(self, generated_a, generated_b, executions,
                              out_order, in_order, one_call):
        graph = build_workflow(generated_a, generated_b, executions)
        original = dumped(graph)
        reference = ReferenceZoom(graph)
        zoomer = Zoomer(graph)
        if one_call:
            assert zoomer.zoom_out(out_order) == out_order
            for module in out_order:
                reference.zoom_out(module)
            assert_matches(graph, reference)
        else:
            for module in out_order:
                zoomer.zoom_out([module])
                reference.zoom_out(module)
                assert_matches(graph, reference)
        for module in in_order:
            zoomer.zoom_in([module])
            reference.zoom_in(module)
            assert_matches(graph, reference)
        assert dumped(graph) == original
        # Zooming again starts from fresh fragments.
        zoomer.zoom_out([in_order[0]])
        reference.zoom_out(in_order[0])
        assert_matches(graph, reference)
        zoomer.zoom_in([in_order[0]])
        assert dumped(graph) == original
