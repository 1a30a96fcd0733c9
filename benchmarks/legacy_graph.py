"""The pre-columnar provenance graph, preserved as a baseline.

This module replays the seed/PR-1 representation — a dict of ``Node``
objects plus dict-of-lists adjacency, mutated one node/edge at a
time — so the golden-equivalence tests can assert that the columnar
core and the exact code shape it replaced serialize to
byte-identical JSONL.  The seed's writers are kept here too:
:func:`legacy_dump` (the per-node facade JSONL loop) and
:func:`legacy_node_rows` (the store's per-node ``nodes`` rows) are the
oracles for ``repro.graph.serialize``'s columnar codec.

It is intentionally *not* importable from ``repro``: it exists only
under ``benchmarks/`` as an oracle for ``tests/``.
"""

from __future__ import annotations

import json
from typing import IO, Any, Dict, Iterator, List, Optional, Set, Tuple

from repro.graph.nodes import DEFAULT_LABELS, Node, NodeKind
from repro.graph.provgraph import Invocation, ProvenanceGraph


class LegacyProvenanceGraph:
    """Seed-faithful dict-of-objects graph (the pre-PR hot path).

    Duck-compatible with ``ProvenanceGraph`` for the read surface that
    :func:`legacy_dump` and the traversal baselines need: ``nodes``,
    ``preds``/``succs``, counts, and ``invocations``.
    """

    def __init__(self):
        self.nodes: Dict[int, Node] = {}
        self._preds: Dict[int, List[int]] = {}
        self._succs: Dict[int, List[int]] = {}
        self.invocations: Dict[int, Invocation] = {}
        self._next_node_id = 0
        self._next_invocation_id = 0
        self._edge_count = 0

    # -- construction (per-call, as the seed emitters drove it) --------
    def add_node(self, kind: NodeKind, label: Optional[str] = None,
                 ntype: str = "p", module: Optional[str] = None,
                 invocation: Optional[int] = None, value: Any = None) -> int:
        if label is None:
            label = DEFAULT_LABELS.get(kind, kind.value)
        node_id = self._next_node_id
        self._next_node_id += 1
        self.nodes[node_id] = Node(node_id, kind, label, ntype, module,
                                   invocation, value)
        self._preds[node_id] = []
        self._succs[node_id] = []
        return node_id

    def add_edge(self, source: int, target: int,
                 dedupe: bool = False) -> bool:
        if source not in self.nodes:
            raise KeyError(source)
        if target not in self.nodes:
            raise KeyError(target)
        if dedupe and source in self._preds[target]:
            return False
        self._preds[target].append(source)
        self._succs[source].append(target)
        self._edge_count += 1
        return True

    def new_invocation(self, module_name: str) -> Invocation:
        invocation_id = self._next_invocation_id
        self._next_invocation_id += 1
        module_node = self.add_node(NodeKind.MODULE, module_name, "p",
                                    module=module_name,
                                    invocation=invocation_id)
        invocation = Invocation(invocation_id, module_name, module_node)
        self.invocations[invocation_id] = invocation
        return invocation

    # -- bulk entry points, satisfied per-call (the pre-PR emission
    # shape: GraphBuilder's batched emitters degrade to the seed's
    # one-node/one-edge calls on this backend) ------------------------
    def add_nodes(self, kind: NodeKind, count: Optional[int] = None,
                  labels: Optional[List[str]] = None, ntype: str = "p",
                  module: Optional[str] = None,
                  invocation: Optional[int] = None,
                  values: Optional[List[Any]] = None) -> List[int]:
        if count is None:
            count = len(labels) if labels is not None else len(values)
        return [self.add_node(kind,
                              labels[index] if labels is not None else None,
                              ntype, module, invocation,
                              values[index] if values is not None else None)
                for index in range(count)]

    def add_edges(self, pairs) -> int:
        added = 0
        for source, target in pairs:
            self.add_edge(source, target)
            added += 1
        return added

    def add_edge_lists(self, sources, targets) -> int:
        return self.add_edges(zip(sources, targets))

    def add_operand_edges(self, node_ids, operand_lists) -> int:
        added = 0
        for node, operands in zip(node_ids, operand_lists):
            for operand in operands:
                self.add_edge(operand, node)
                added += 1
        return added

    def restore_node(self, node: Node) -> None:
        """Insert a node at a specific id (the seed load path)."""
        self.nodes[node.node_id] = node
        self._preds[node.node_id] = []
        self._succs[node.node_id] = []
        self._next_node_id = max(self._next_node_id, node.node_id + 1)

    # -- read surface ---------------------------------------------------
    def preds(self, node_id: int) -> Tuple[int, ...]:
        return tuple(self._preds[node_id])

    def succs(self, node_id: int) -> Tuple[int, ...]:
        return tuple(self._succs[node_id])

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        return self._edge_count

    def node_ids(self) -> Iterator[int]:
        return iter(tuple(self.nodes.keys()))

    def out_degree(self, node_id: int) -> int:
        return len(self._succs[node_id])

    # -- traversals (the seed's set-based query hot path) ---------------
    def ancestors(self, node_id: int) -> Set[int]:
        return self._reach(node_id, self._preds)

    def descendants(self, node_id: int) -> Set[int]:
        return self._reach(node_id, self._succs)

    def _reach(self, start: int, adjacency: Dict[int, List[int]]) -> Set[int]:
        seen: Set[int] = set()
        stack = list(adjacency[start])
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            stack.extend(adjacency[current])
        return seen


def legacy_subgraph_query(graph: LegacyProvenanceGraph, node_id: int):
    """The seed's subgraph query: set-based BFS + per-descendant
    ``preds`` tuple copies + set algebra."""
    ancestors = graph.ancestors(node_id)
    descendants = graph.descendants(node_id)
    siblings: Set[int] = set()
    for descendant in descendants:
        for sibling in graph.preds(descendant):
            siblings.add(sibling)
    siblings -= descendants | ancestors | {node_id}
    return ancestors, descendants, siblings


def replay_into_legacy(graph: ProvenanceGraph) -> LegacyProvenanceGraph:
    """Rebuild a columnar graph in the legacy representation (same
    node ids, attributes, operand order, and invocation registry)."""
    legacy = LegacyProvenanceGraph()
    for node_id in graph.node_ids():
        node = graph.node(node_id)
        legacy.restore_node(Node(node_id, node.kind, node.label, node.ntype,
                                 node.module, node.invocation, node.value))
    for node_id in graph.node_ids():
        for operand in graph.preds(node_id):
            legacy.add_edge(operand, node_id)
    legacy._next_node_id = graph._next_node_id
    for invocation_id, invocation in graph.invocations.items():
        clone = Invocation(invocation.invocation_id, invocation.module_name,
                           invocation.module_node)
        clone.input_nodes = list(invocation.input_nodes)
        clone.output_nodes = list(invocation.output_nodes)
        clone.state_nodes = list(invocation.state_nodes)
        legacy.invocations[invocation_id] = clone
    legacy._next_invocation_id = graph._next_invocation_id
    return legacy


def graph_events(graph: ProvenanceGraph):
    """Flatten a graph into a (node_rows, edge_sources, edge_targets)
    build stream for replay benchmarks: nodes in id order, edges in
    per-target operand order.  Edge endpoints come back as ``array('q')``
    columns — the wire format of the columnar edge log."""
    from array import array
    nodes = [(node_id, node.kind, node.label, node.ntype, node.module,
              node.invocation, node.value)
             for node_id, node in ((i, graph.node(i))
                                   for i in graph.node_ids())]
    sources = array("q")
    targets = array("q")
    for node_id in graph.node_ids():
        operands = graph.preds(node_id)
        if operands:
            sources.extend(operands)
            targets.extend([node_id] * len(operands))
    return nodes, sources, targets


def legacy_load_jsonl(path: str) -> LegacyProvenanceGraph:
    """The seed's spool-load path: per-record Node construction plus
    per-edge ``add_edge`` into dict adjacency."""
    legacy = LegacyProvenanceGraph()
    pending: List[Tuple[int, int]] = []
    with open(path, "r", encoding="utf-8") as stream:
        for raw in stream:
            raw = raw.strip()
            if not raw:
                continue
            record = json.loads(raw)
            record_type = record.get("record")
            if record_type == "node":
                node = Node(record["id"], NodeKind(record["kind"]),
                            record["label"], record["ntype"],
                            record.get("module"), record.get("invocation"),
                            record.get("value"))
                legacy.restore_node(node)
                for operand in record.get("preds", []):
                    pending.append((operand, node.node_id))
            elif record_type == "invocation":
                invocation = Invocation(record["id"], record["module"],
                                        record["module_node"])
                invocation.input_nodes = list(record.get("inputs", []))
                invocation.output_nodes = list(record.get("outputs", []))
                invocation.state_nodes = list(record.get("state", []))
                legacy.invocations[invocation.invocation_id] = invocation
    for source, target in pending:
        legacy.add_edge(source, target)
    return legacy


_JSON_ATOMS = (int, float, str, bool, type(None))


def _legacy_encode_value(value: Any):
    """The seed's payload encoding; non-atomic payloads degrade to repr."""
    if isinstance(value, _JSON_ATOMS):
        return {"atom": value}
    if isinstance(value, tuple) and all(isinstance(v, _JSON_ATOMS)
                                        for v in value):
        return {"tuple": list(value)}
    return {"repr": repr(value)}


def legacy_dump(graph, stream: IO[str]) -> int:
    """The seed's JSONL writer: one ``json.dumps`` per record, node
    attributes read through ``graph.nodes`` facades.  Works on both
    ``LegacyProvenanceGraph`` and ``ProvenanceGraph``."""
    records = 1
    stream.write(json.dumps({
        "record": "header",
        "version": 1,
        "nodes": graph.node_count,
        "edges": graph.edge_count,
        "invocations": len(graph.invocations),
    }) + "\n")
    for invocation in graph.invocations.values():
        stream.write(json.dumps({
            "record": "invocation",
            "id": invocation.invocation_id,
            "module": invocation.module_name,
            "module_node": invocation.module_node,
            "inputs": invocation.input_nodes,
            "outputs": invocation.output_nodes,
            "state": invocation.state_nodes,
        }) + "\n")
        records += 1
    for node_id in sorted(graph.nodes):
        node = graph.nodes[node_id]
        stream.write(json.dumps({
            "record": "node",
            "id": node.node_id,
            "kind": node.kind.value,
            "label": node.label,
            "ntype": node.ntype,
            "module": node.module,
            "invocation": node.invocation,
            "value": (_legacy_encode_value(node.value)
                      if node.value is not None else None),
            "preds": list(graph.preds(node_id)),
        }) + "\n")
        records += 1
    return records


def legacy_node_rows(graph: ProvenanceGraph, node_ids) -> List[Tuple]:
    """The seed store's ``nodes`` rows (without ``run_id``) for
    ``node_ids``, one facade read and one ``json.dumps`` per node."""
    rows = []
    for node_id in node_ids:
        node = graph.nodes[node_id]
        rows.append((node.node_id, node.kind.value, node.label, node.ntype,
                     node.module, node.invocation,
                     None if node.value is None
                     else json.dumps(_legacy_encode_value(node.value))))
    return rows
