"""ZoomIn / ZoomOut graph transformations (paper Section 4.1).

ZoomOut hides the intermediate computations and state of every
invocation of the chosen modules, replacing each invocation by a
single meta-node between its original inputs and outputs.  ZoomIn is
its inverse: ``ZoomIn(ZoomOut(G, M), M) = G``.

Because invocations of the same module may share state, zooming out a
*proper subset* of a module's invocations is not meaningful (paper
Section 4.1); the API therefore works on module names only.

Intermediate-computation detection follows Definition 4.1: a node v is
part of the intermediate computation of an invocation of M iff some
directed path reaches v from an input node, a state node, or another
intermediate v-node of an invocation of M, with no output node on the
path (including v itself).

Both directions work on the graph's arena columns and adjacency rows,
never on ``Node`` objects.  Removed nodes are only tombstoned, so their
column values survive; a :class:`ZoomFragment` therefore keeps just the
removed ids, the adjacency rows the removal edited, and the ZOOM node
ids, and ZoomIn writes those rows back with
:meth:`~repro.graph.provgraph.ProvenanceGraph.restore_nodes` — operand
order and parallel edges included, so the restored graph serializes
byte for byte as before.
"""

from __future__ import annotations

from itertools import compress, count
from typing import Dict, Iterable, List, Set, Tuple

from ..errors import ZoomError
from ..graph.nodes import KIND_CODE, NodeKind
from ..graph.provgraph import ProvenanceGraph
from .kernels import multi_source_reach

_TUPLE = KIND_CODE[NodeKind.TUPLE]


def intermediate_nodes(graph: ProvenanceGraph,
                       module_names: Iterable[str]) -> Set[int]:
    """All nodes that Definition 4.1 classifies as intermediate
    computations of invocations of the given modules.

    A multi-source flat-array sweep with an OUTPUT-kind barrier:
    paths stop at (and exclude) output nodes, and the input/state
    start nodes are themselves never intermediate.
    """
    targets = set(module_names)
    start: Set[int] = set()
    for invocation in graph.invocations.values():
        if invocation.module_name in targets:
            start.update(invocation.input_nodes)
            start.update(invocation.state_nodes)
    adjacency = graph.csr()
    barrier = graph.kind_flags((NodeKind.OUTPUT,))
    live_starts = [node for node in start if graph.has_node(node)]
    return set(multi_source_reach(adjacency.succ_views, live_starts,
                                  adjacency.size, barrier))


class ZoomFragment:
    """What ZoomOut of one module changed, enough for ZoomIn to undo it."""

    __slots__ = ("module_name", "removed", "pred_rows", "succ_rows",
                 "zoom_nodes")

    def __init__(self, module_name: str):
        self.module_name = module_name
        #: removed node ids, sorted (their arena rows are tombstoned)
        self.removed: List[int] = []
        #: pred / succ rows as they were before the removal, for the
        #: removed nodes and every surviving neighbor whose row changed
        self.pred_rows: Dict[int, Tuple[int, ...]] = {}
        self.succ_rows: Dict[int, Tuple[int, ...]] = {}
        #: zoom meta-node ids created, keyed by invocation id
        self.zoom_nodes: Dict[int, int] = {}


class Zoomer:
    """Applies ZoomOut / ZoomIn to a graph *in place*.

    One :class:`ZoomFragment` per zoomed-out module holds the saved
    adjacency rows ZoomIn restores; fragments survive interleaved zoom
    operations on other modules because node ids are stable.  (An edge
    between nodes that two modules both hid comes back only when they
    are zoomed in in the reverse order of their ZoomOuts.)  Both
    directions check every module name before touching the graph, so a
    failing call changes nothing.
    """

    def __init__(self, graph: ProvenanceGraph):
        self.graph = graph
        self._fragments: Dict[str, ZoomFragment] = {}

    @property
    def zoomed_out_modules(self) -> Set[str]:
        return set(self._fragments)

    # ------------------------------------------------------------------
    # ZoomOut (paper Section 4.1, steps 1–5)
    # ------------------------------------------------------------------
    def zoom_out(self, module_names: Iterable[str]) -> List[str]:
        """Zoom out of the given modules; returns those actually done."""
        pending = [module_name for module_name in dict.fromkeys(module_names)
                   if module_name not in self._fragments]
        for module_name in pending:
            if not self.graph.invocations_of(module_name):
                raise ZoomError(
                    f"module {module_name!r} has no invocations in the graph")
        # ZOOM nodes are the only rows zooming adds, so one list of
        # VALUE rows serves every module of this call.
        value_rows = list(compress(
            count(), self.graph.kind_flags((NodeKind.VALUE,))))
        for module_name in pending:
            self._zoom_out_single(module_name, value_rows)
        return pending

    def _zoom_out_single(self, module_name: str,
                         value_rows: List[int]) -> None:
        graph = self.graph
        invocations = graph.invocations_of(module_name)
        # Steps 1–3: find and remove intermediate computations.
        to_remove = intermediate_nodes(graph, [module_name])
        adjacency = graph.csr()
        pred_views, succ_views = adjacency.pred_views, adjacency.succ_views
        alive = graph._alive
        kind_codes = graph._kind_codes
        # Step 4: remove state nodes, plus base tuple nodes that feed
        # only state nodes of this module's invocations.
        state_nodes = {node for invocation in invocations
                       for node in invocation.state_nodes
                       if graph.has_node(node)}
        to_remove |= state_nodes
        base_candidates = {pred for node in state_nodes
                           for pred in pred_views[node]
                           if kind_codes[pred] == _TUPLE}
        to_remove.update([base for base in base_candidates
                          if all(succ in to_remove
                                 for succ in succ_views[base])])
        # Also sweep nodes of these invocations that become edgeless
        # (shared VALUE leaves of aggregate computations).
        invocation_ids = {invocation.invocation_id for invocation in invocations}
        owners = graph._invocation_ids
        for node_id in value_rows:
            if (alive[node_id] and owners[node_id] in invocation_ids
                    and all(succ in to_remove
                            for succ in succ_views[node_id])):
                to_remove.add(node_id)
        # Save the rows the removal edits, then remove.
        fragment = ZoomFragment(module_name)
        fragment.removed = removed = sorted(node_id for node_id in to_remove
                                            if alive[node_id])
        pred_rows, succ_rows = fragment.pred_rows, fragment.succ_rows
        for node_id in removed:
            operands = pred_rows[node_id] = pred_views[node_id]
            results = succ_rows[node_id] = succ_views[node_id]
            for pred in operands:
                if pred not in to_remove:
                    succ_rows[pred] = succ_views[pred]
            for succ in results:
                if succ not in to_remove:
                    pred_rows[succ] = pred_views[succ]
        graph.remove_nodes(removed)
        # Step 5: one zoom meta-node per invocation.
        sources: List[int] = []
        targets: List[int] = []
        for invocation in invocations:
            zoom_node = graph.add_node(NodeKind.ZOOM, module_name, "p",
                                       module=module_name,
                                       invocation=invocation.invocation_id)
            fragment.zoom_nodes[invocation.invocation_id] = zoom_node
            for input_node in invocation.input_nodes:
                if graph.has_node(input_node):
                    sources.append(input_node)
                    targets.append(zoom_node)
            for output_node in invocation.output_nodes:
                if graph.has_node(output_node):
                    sources.append(zoom_node)
                    targets.append(output_node)
        graph.add_edge_lists(sources, targets)
        self._fragments[module_name] = fragment

    # ------------------------------------------------------------------
    # ZoomIn (inverse restore)
    # ------------------------------------------------------------------
    def zoom_in(self, module_names: Iterable[str]) -> List[str]:
        """Restore previously zoomed-out modules."""
        names = list(dict.fromkeys(module_names))
        for module_name in names:
            if module_name not in self._fragments:
                raise ZoomError(
                    f"module {module_name!r} is not zoomed out")
        for module_name in names:
            self._zoom_in_single(self._fragments[module_name])
            del self._fragments[module_name]
        return names

    def _zoom_in_single(self, fragment: ZoomFragment) -> None:
        graph = self.graph
        graph.remove_nodes([zoom_node
                            for zoom_node in fragment.zoom_nodes.values()
                            if graph.has_node(zoom_node)])
        graph.restore_nodes(fragment.removed, fragment.pred_rows,
                            fragment.succ_rows)

    # ------------------------------------------------------------------
    # Coarse view
    # ------------------------------------------------------------------
    def zoom_out_all(self) -> List[str]:
        """ZoomOut on every module: the coarse-grained provenance view
        (paper: "Applying ZoomOut on all modules in a fine-grained
        provenance graph results in a coarse-grained provenance
        graph")."""
        return self.zoom_out(sorted(self.graph.module_names()))


def zoom_out(graph: ProvenanceGraph,
             module_names: Iterable[str]) -> Tuple[ProvenanceGraph, Zoomer]:
    """Functional ZoomOut: returns a zoomed *copy* plus its zoomer."""
    duplicate = graph.copy()
    zoomer = Zoomer(duplicate)
    zoomer.zoom_out(module_names)
    return duplicate, zoomer


def coarse_view(graph: ProvenanceGraph) -> ProvenanceGraph:
    """A coarse-grained copy of the graph (all modules zoomed out)."""
    duplicate = graph.copy()
    Zoomer(duplicate).zoom_out_all()
    return duplicate
