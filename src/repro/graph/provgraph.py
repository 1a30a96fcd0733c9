"""The provenance graph: columnar storage, invocation registry, traversals.

As in the Lipstick Query Processor (paper Section 5.1), the graph
stores parent and child adjacency per node and computes ancestor /
descendant sets at query time (no precomputed transitive closure).

Storage is a struct-of-arrays *arena* (the D4M-style associative-array
layout named in PAPERS.md) rather than a dict of ``Node`` objects:

* one column per node attribute, indexed by node id — ``array('b')``
  kind codes, interned-string ids for label / ntype / module,
  ``array('q')`` invocation ids, a plain list for payload values, and
  a ``bytearray`` aliveness mask;
* edges live in an append-only flat log (``array('q')`` source/target
  pairs) so the tracking hot path (fig 5/6) is just two C-level array
  appends per edge, with **no adjacency indexing paid during build**;
* adjacency reads are served from an incrementally-maintained CSR-style
  view — one tuple of neighbor ids per node — that is built lazily on
  first read and then *patched* with the dirty range of the edge log
  (and edited in place by removals and restores), so :meth:`csr` is
  O(1) amortized instead of an O(V+E) rebuild per snapshot.

``Node`` objects still exist, but as lazily-materialized facades whose
attribute reads and writes go straight through to the arena columns —
the public API, JSONL serialization, and store round-trips are
unchanged.  Dead rows (removed nodes) keep their column values, so
:meth:`ProvenanceGraph.restore_nodes` (ZoomIn) brings nodes back by id
with only their adjacency rows saved; node ids are never reused.
"""

from __future__ import annotations

import warnings
from array import array
from collections import Counter
from itertools import repeat as _repeat
from typing import (Any, Dict, Iterable, Iterator, List, Optional, Sequence,
                    Set, Tuple)

from ..errors import (DuplicateEdgeWarning, FrozenGraphError,
                      ProvenanceGraphError, UnknownNodeError)
from .nodes import DEFAULT_LABELS, KIND_BY_CODE, KIND_CODE, Node, NodeKind

try:  # optional accelerator: vectorized bulk-edge validation
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is usually available
    _np = None

_EMPTY: Tuple[int, ...] = ()

#: Cached 256-byte translate tables for ``kind_flags``.
_FLAG_TABLES: Dict[frozenset, bytes] = {}


class Invocation:
    """Bookkeeping for one module invocation (paper's "m" node).

    Records the invocation's m-node and its input / output / state
    node ids — the anchors that Zoom (Section 4.1) starts from.
    """

    __slots__ = ("invocation_id", "module_name", "module_node",
                 "input_nodes", "output_nodes", "state_nodes")

    def __init__(self, invocation_id: int, module_name: str, module_node: int):
        self.invocation_id = invocation_id
        self.module_name = module_name
        self.module_node = module_node
        self.input_nodes: List[int] = []
        self.output_nodes: List[int] = []
        self.state_nodes: List[int] = []

    def __repr__(self) -> str:
        return (f"Invocation(#{self.invocation_id} {self.module_name} "
                f"in={len(self.input_nodes)} out={len(self.output_nodes)} "
                f"state={len(self.state_nodes)})")


class _NodeFacade(Node):
    """A :class:`Node` whose attributes live in the graph's arena.

    Materialized lazily (and cached) by :meth:`ProvenanceGraph.node`;
    reads and writes go through to the columns, so mutating a facade
    (e.g. what-if analysis re-valuing an aggregate) is visible to
    serialization and every other reader.
    """

    __slots__ = ("_graph",)

    def __init__(self, graph: "ProvenanceGraph", node_id: int):
        self.node_id = node_id
        self._graph = graph

    @property
    def kind(self) -> NodeKind:
        return KIND_BY_CODE[self._graph._kind_codes[self.node_id]]

    @kind.setter
    def kind(self, kind: NodeKind) -> None:
        self._graph._check_mutable()
        self._graph._kind_codes[self.node_id] = KIND_CODE[kind]

    @property
    def label(self) -> str:
        graph = self._graph
        return graph._label_table[graph._label_ids[self.node_id]]

    @label.setter
    def label(self, label: str) -> None:
        graph = self._graph
        graph._check_mutable()
        graph._label_ids[self.node_id] = graph._intern(
            graph._label_index, graph._label_table, label)

    @property
    def ntype(self) -> str:
        graph = self._graph
        return graph._ntype_table[graph._ntype_ids[self.node_id]]

    @ntype.setter
    def ntype(self, ntype: str) -> None:
        graph = self._graph
        graph._check_mutable()
        graph._ntype_ids[self.node_id] = graph._intern(
            graph._ntype_index, graph._ntype_table, ntype)

    @property
    def module(self) -> Optional[str]:
        graph = self._graph
        return graph._module_table[graph._module_ids[self.node_id]]

    @module.setter
    def module(self, module: Optional[str]) -> None:
        graph = self._graph
        graph._check_mutable()
        graph._module_ids[self.node_id] = graph._intern(
            graph._module_index, graph._module_table, module)

    @property
    def invocation(self) -> Optional[int]:
        code = self._graph._invocation_ids[self.node_id]
        return None if code < 0 else code

    @invocation.setter
    def invocation(self, invocation: Optional[int]) -> None:
        self._graph._check_mutable()
        self._graph._invocation_ids[self.node_id] = (
            -1 if invocation is None else invocation)

    @property
    def value(self) -> Any:
        return self._graph._values[self.node_id]

    @value.setter
    def value(self, value: Any) -> None:
        self._graph._check_mutable()
        self._graph._values[self.node_id] = value


class _NodeMap:
    """Dict-like view of the graph's alive nodes (id → facade).

    Keeps the historical ``graph.nodes`` surface working on top of the
    arena: iteration / membership / ``values()`` behave like the old
    ``Dict[int, Node]``; assignment adopts a node's attributes into
    the arena at the given id (used by load paths).
    """

    __slots__ = ("_graph",)

    def __init__(self, graph: "ProvenanceGraph"):
        self._graph = graph

    def __len__(self) -> int:
        return self._graph._live_nodes

    def __iter__(self) -> Iterator[int]:
        return self._graph.node_ids()

    def __contains__(self, node_id) -> bool:
        return self._graph.has_node(node_id)

    def __getitem__(self, node_id: int) -> Node:
        try:
            return self._graph.node(node_id)
        except UnknownNodeError:
            raise KeyError(node_id) from None

    def __setitem__(self, node_id: int, node: Node) -> None:
        self._graph._restore_node(node_id, node.kind, node.label, node.ntype,
                                  node.module, node.invocation, node.value)

    def get(self, node_id, default=None):
        graph = self._graph
        if graph.has_node(node_id):
            return graph.node(node_id)
        return default

    def keys(self) -> Iterator[int]:
        return self._graph.node_ids()

    def values(self) -> Iterator[Node]:
        graph = self._graph
        return (graph.node(node_id) for node_id in graph.node_ids())

    def items(self) -> Iterator[Tuple[int, Node]]:
        graph = self._graph
        return ((node_id, graph.node(node_id))
                for node_id in graph.node_ids())

    def __repr__(self) -> str:
        return f"<NodeMap of {self._graph!r}>"


class AdjacencyView:
    """The graph's incrementally-maintained flat adjacency (CSR rows).

    ``pred_views[i]`` / ``succ_views[i]`` are tuples of neighbor ids
    for node ``i`` (empty for dead rows); ``size`` is the row count
    (max node id + 1), sized for ``bytearray`` visited masks.  The
    lists are *live* — later graph mutations patch them in place — so
    consume a view immediately or take a :class:`~repro.store.csr.CSRSnapshot`
    for a frozen copy.
    """

    __slots__ = ("pred_views", "succ_views", "size", "version")

    def __init__(self, pred_views: List[Tuple[int, ...]],
                 succ_views: List[Tuple[int, ...]], size: int, version: int):
        self.pred_views = pred_views
        self.succ_views = succ_views
        self.size = size
        self.version = version

    def __repr__(self) -> str:
        return f"AdjacencyView(size={self.size}, version={self.version})"


class ProvenanceGraph:
    """A mutable DAG stored as parallel columns plus a flat edge log."""

    def __init__(self):
        # -- node columns (row index == node id) -----------------------
        self._kind_codes = array("b")
        self._label_ids = array("i")
        self._ntype_ids = array("i")
        self._module_ids = array("i")
        self._invocation_ids = array("q")
        self._values: List[Any] = []
        self._alive = bytearray()
        # -- interned-string tables ------------------------------------
        self._label_table: List[str] = []
        self._label_index: Dict[str, int] = {}
        self._ntype_table: List[str] = []
        self._ntype_index: Dict[str, int] = {}
        self._module_table: List[Optional[str]] = []
        self._module_index: Dict[Optional[str], int] = {}
        # -- append-only edge log --------------------------------------
        self._edge_src = array("q")
        self._edge_dst = array("q")
        self._edge_count = 0          # alive edges
        # -- incrementally-maintained adjacency views ------------------
        self._pred_views: Optional[List[Tuple[int, ...]]] = None
        self._succ_views: Optional[List[Tuple[int, ...]]] = None
        self._indexed_upto = 0        # edge-log prefix folded into views
        # -- registry / bookkeeping ------------------------------------
        self._facades: Dict[int, Node] = {}
        self.invocations: Dict[int, Invocation] = {}
        self._live_nodes = 0
        self._next_node_id = 0
        self._next_invocation_id = 0
        self._version = 0
        self._frozen = False
        self._node_map = _NodeMap(self)

    @property
    def version(self) -> int:
        """Monotonic mutation counter.

        Bumped on every structural change (node/edge add or remove) so
        snapshot consumers — CSR snapshots, reachability indexes, store
        caches — can tell whether a derived artifact is still valid.
        """
        return self._version

    @property
    def nodes(self) -> _NodeMap:
        """Dict-like view of alive nodes (lazily-materialized facades)."""
        return self._node_map

    # ------------------------------------------------------------------
    # Freeze / snapshot (the concurrency seam)
    # ------------------------------------------------------------------
    @property
    def frozen(self) -> bool:
        """Whether structural mutation is forbidden on this graph."""
        return self._frozen

    def freeze(self) -> "ProvenanceGraph":
        """Permanently forbid structural mutation; returns ``self``.

        A frozen graph can be shared across threads without locking:
        every node/edge add or remove (and facade attribute write)
        raises :class:`~repro.errors.FrozenGraphError`.  Freezing is
        one-way; use :meth:`copy` (copies are born thawed) to mutate
        again.

        The adjacency views are materialized *before* the flag flips:
        lazy first-read building is a multi-step mutation of shared
        state, so leaving it to whichever reader thread arrives first
        would race.  After freezing, every read path's ``_sync`` is a
        no-op.
        """
        self._sync()
        self._frozen = True
        return self

    def snapshot(self) -> "ProvenanceGraph":
        """A frozen deep copy — the copy-on-read handle the service
        layer hands to concurrent readers while ingest proceeds."""
        return self.copy().freeze()

    def _check_mutable(self) -> None:
        if self._frozen:
            raise FrozenGraphError(
                "graph is frozen (a shared read snapshot); structural "
                "mutation is forbidden — work on graph.copy() instead")

    # ------------------------------------------------------------------
    # Interning / validation helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _intern(index: Dict, table: List, value) -> int:
        code = index.get(value)
        if code is None:
            code = len(table)
            index[value] = code
            table.append(value)
        return code

    def _require_node(self, node_id) -> None:
        try:
            if 0 <= node_id < self._next_node_id and self._alive[node_id]:
                return
        except TypeError:
            pass
        raise UnknownNodeError(node_id)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(self, kind: NodeKind, label: Optional[str] = None,
                 ntype: str = "p", module: Optional[str] = None,
                 invocation: Optional[int] = None, value: Any = None) -> int:
        """Create a node and return its id."""
        self._check_mutable()
        if label is None:
            label = DEFAULT_LABELS.get(kind, kind.value)
        node_id = self._next_node_id
        self._next_node_id = node_id + 1
        self._kind_codes.append(KIND_CODE[kind])
        self._label_ids.append(self._intern(self._label_index,
                                            self._label_table, label))
        self._ntype_ids.append(self._intern(self._ntype_index,
                                            self._ntype_table, ntype))
        self._module_ids.append(self._intern(self._module_index,
                                             self._module_table, module))
        self._invocation_ids.append(-1 if invocation is None else invocation)
        self._values.append(value)
        self._alive.append(1)
        self._live_nodes += 1
        self._version += 1
        return node_id

    def add_nodes(self, kind: NodeKind, count: Optional[int] = None,
                  labels: Optional[Sequence[str]] = None, ntype: str = "p",
                  module: Optional[str] = None,
                  invocation: Optional[int] = None,
                  values: Optional[Sequence[Any]] = None) -> range:
        """Bulk :meth:`add_node`: ``count`` nodes of one kind, sharing
        ``ntype`` / ``module`` / ``invocation``; per-node ``labels``
        and ``values`` optional.  Returns the contiguous id range —
        ids are assigned exactly as ``count`` sequential
        :meth:`add_node` calls would assign them.
        """
        self._check_mutable()
        if count is None:
            if labels is not None:
                count = len(labels)
            elif values is not None:
                count = len(values)
            else:
                raise ProvenanceGraphError(
                    "add_nodes needs count, labels, or values")
        start = self._next_node_id
        if count == 0:
            return range(start, start)
        if labels is not None and len(labels) != count:
            raise ProvenanceGraphError(
                f"add_nodes: {len(labels)} labels for {count} nodes")
        if values is not None and len(values) != count:
            raise ProvenanceGraphError(
                f"add_nodes: {len(values)} values for {count} nodes")
        if count == 1:
            self.add_node(kind, labels[0] if labels is not None else None,
                          ntype, module, invocation,
                          values[0] if values is not None else None)
            return range(start, start + 1)
        self._next_node_id = start + count
        self._kind_codes.extend(_repeat(KIND_CODE[kind], count))
        if labels is None:
            default = DEFAULT_LABELS.get(kind, kind.value)
            self._label_ids.extend(
                _repeat(self._intern(self._label_index, self._label_table,
                                     default), count))
        else:
            intern = self._intern
            index, table = self._label_index, self._label_table
            self._label_ids.extend(
                [intern(index, table, label) for label in labels])
        self._ntype_ids.extend(
            _repeat(self._intern(self._ntype_index, self._ntype_table,
                                 ntype), count))
        self._module_ids.extend(
            _repeat(self._intern(self._module_index, self._module_table,
                                 module), count))
        self._invocation_ids.extend(
            _repeat(-1 if invocation is None else invocation, count))
        self._values.extend(values if values is not None
                            else _repeat(None, count))
        self._alive.extend(b"\x01" * count)
        self._live_nodes += count
        self._version += 1
        return range(start, start + count)

    def add_edge(self, source: int, target: int, dedupe: bool = False) -> bool:
        """Add a derivation edge ``source → target``.

        With ``dedupe=True`` a parallel duplicate of an existing edge
        is silently skipped (returns ``False``); the default admits
        duplicates, matching semiring multiplicity (t·t appears twice).
        Returns whether an edge was actually added.

        Appends to the flat edge log only — adjacency views fold the
        new edge in lazily at the next read.
        """
        self._check_mutable()
        self._require_node(source)
        self._require_node(target)
        if source == target:
            raise ProvenanceGraphError(f"self-loop on node {source}")
        if dedupe:
            self._sync()
            if source in self._pred_views[target]:
                return False
        self._edge_src.append(source)
        self._edge_dst.append(target)
        self._edge_count += 1
        self._version += 1
        return True

    def add_edges(self, pairs: Iterable[Tuple[int, int]]) -> int:
        """Bulk :meth:`add_edge` (no dedupe); returns edges added.

        Per-target operand order follows the order of ``pairs``, same
        as sequential ``add_edge`` calls.  Atomic: nothing is kept if
        any edge is invalid.
        """
        sources: List[int] = []
        targets: List[int] = []
        append_source = sources.append
        append_target = targets.append
        for source, target in pairs:
            append_source(source)
            append_target(target)
        return self.add_edge_lists(sources, targets)

    def add_edge_lists(self, sources: Sequence[int],
                       targets: Sequence[int]) -> int:
        """Bulk edges from parallel source/target lists.

        The fastest ingestion path: two C-level ``array.extend`` calls
        plus vectorized endpoint validation (numpy over the edge-log
        and aliveness buffers when available).  Atomic — nothing is
        kept if any edge is invalid.  Returns the number of edges
        added.
        """
        self._check_mutable()
        count = len(sources)
        if count != len(targets):
            raise ProvenanceGraphError(
                f"add_edge_lists: {count} sources vs {len(targets)} targets")
        if not count:
            return 0
        src = self._edge_src
        dst = self._edge_dst
        start = len(src)
        if count < 32:
            # Small batch: one validate-and-append pass.
            try:
                for position in range(count):
                    source = sources[position]
                    target = targets[position]
                    self._require_node(source)
                    self._require_node(target)
                    if source == target:
                        raise ProvenanceGraphError(
                            f"self-loop on node {source}")
                    src.append(source)
                    dst.append(target)
            except Exception:
                del src[start:]
                del dst[start:]
                raise
        else:
            try:
                src.extend(sources)
                dst.extend(targets)
                self._validate_edge_range(start)
            except Exception:
                # Atomic: a partial extend (e.g. a non-int id) must not
                # leave the two log columns misaligned.
                del src[start:]
                del dst[start:]
                # Keep add_edge's exception contract: a non-int id is
                # an unknown node, not a TypeError.
                for endpoint in sources:
                    self._require_node(endpoint)
                for endpoint in targets:
                    self._require_node(endpoint)
                raise
        self._edge_count += count
        self._version += 1
        return count

    def _validate_edge_range(self, start: int) -> None:
        """Check endpoints of log entries ``[start:]`` (alive, in
        range, no self-loops) — vectorized when numpy is present."""
        size = self._next_node_id
        alive = self._alive
        src = self._edge_src
        dst = self._edge_dst
        if _np is not None and len(src) - start >= 64:
            offset = start * src.itemsize
            src_np = _np.frombuffer(src, dtype=_np.int64, offset=offset)
            dst_np = _np.frombuffer(dst, dtype=_np.int64, offset=offset)
            alive_np = _np.frombuffer(alive, dtype=_np.uint8)
            ok = True
            if size:
                ok = (int(src_np.min()) >= 0 and int(src_np.max()) < size
                      and int(dst_np.min()) >= 0 and int(dst_np.max()) < size
                      and bool(alive_np[src_np].all())
                      and bool(alive_np[dst_np].all()))
            else:
                ok = False
            if ok and not (src_np == dst_np).any():
                return
            # Slow pass only to locate and report the offender.
        for position in range(start, len(src)):
            source = src[position]
            target = dst[position]
            if not (0 <= source < size and alive[source]):
                raise UnknownNodeError(source)
            if not (0 <= target < size and alive[target]):
                raise UnknownNodeError(target)
            if source == target:
                raise ProvenanceGraphError(f"self-loop on node {source}")

    def add_operand_edges(self, node_ids: Sequence[int],
                          operand_lists: Sequence[Sequence[int]]) -> int:
        """Bulk edges ``operand → node`` for parallel result/operand
        lists — the shape every batched emitter produces."""
        sources: List[int] = []
        targets: List[int] = []
        extend_sources = sources.extend
        extend_targets = targets.extend
        for node, operands in zip(node_ids, operand_lists):
            if operands:
                extend_sources(operands)
                extend_targets([node] * len(operands))
        return self.add_edge_lists(sources, targets)

    def new_invocation(self, module_name: str) -> Invocation:
        """Register a module invocation and create its m-node."""
        self._check_mutable()
        invocation_id = self._next_invocation_id
        self._next_invocation_id += 1
        module_node = self.add_node(NodeKind.MODULE, module_name, "p",
                                    module=module_name, invocation=invocation_id)
        invocation = Invocation(invocation_id, module_name, module_node)
        self.invocations[invocation_id] = invocation
        return invocation

    def _restore_node(self, node_id: int, kind: NodeKind, label: str,
                      ntype: str = "p", module: Optional[str] = None,
                      invocation: Optional[int] = None,
                      value: Any = None) -> int:
        """(Re)insert a node at a *specific* id with no adjacency.

        Used by the load paths (JSONL / SQLite).  Rows between
        the current high-water mark and ``node_id`` are padded dead.
        """
        self._check_mutable()
        if not isinstance(node_id, int) or node_id < 0:
            raise ProvenanceGraphError(f"invalid node id {node_id!r}")
        size = self._next_node_id
        if node_id >= size:
            if node_id == size:
                # Common case: records arrive in id order — plain append.
                self.add_node(kind, label, ntype, module, invocation, value)
                return node_id
            self._pad_rows(node_id + 1)
        was_alive = self._alive[node_id]
        self._kind_codes[node_id] = KIND_CODE[kind]
        self._label_ids[node_id] = self._intern(self._label_index,
                                                self._label_table, label)
        self._ntype_ids[node_id] = self._intern(self._ntype_index,
                                                self._ntype_table, ntype)
        self._module_ids[node_id] = self._intern(self._module_index,
                                                 self._module_table, module)
        self._invocation_ids[node_id] = -1 if invocation is None else invocation
        self._values[node_id] = value
        if not was_alive:
            self._alive[node_id] = 1
            self._live_nodes += 1
        self._version += 1
        return node_id

    def _restore_columns(self, columns: Sequence[Sequence]) -> None:
        """Bulk :meth:`_restore_node` for load paths.

        ``columns`` are parallel ``(node_ids, kinds, labels, ntypes,
        modules, invocations, values)`` sequences.  Runs of sequential
        fresh ids — the shape every dump produces — extend each column
        once; anything else falls back to the general per-row restore.
        """
        self._check_mutable()
        ids, kinds, labels, ntypes, modules, invocations, values = columns
        if not ids:
            return
        start = self._next_node_id
        count = len(ids)
        if list(ids) != list(range(start, start + count)):
            # Out-of-order or sparse ids: general per-row restore.
            for row in zip(*columns):
                self._restore_node(*row)
            return
        # Dense run of fresh ids: drive every column with C-level
        # map/extend calls (interning loops touch only the distinct
        # strings).
        self._kind_codes.frombytes(bytes(map(KIND_CODE.__getitem__, kinds)))
        for index, table, column in (
                (self._label_index, self._label_table, labels),
                (self._ntype_index, self._ntype_table, ntypes),
                (self._module_index, self._module_table, modules)):
            for item in set(column):
                if item not in index:
                    index[item] = len(table)
                    table.append(item)
        self._label_ids.extend(map(self._label_index.__getitem__, labels))
        self._ntype_ids.extend(map(self._ntype_index.__getitem__, ntypes))
        self._module_ids.extend(map(self._module_index.__getitem__, modules))
        self._invocation_ids.extend(
            -1 if invocation is None else invocation
            for invocation in invocations)
        self._values.extend(values)
        self._alive.extend(b"\x01" * count)
        self._next_node_id = start + count
        self._live_nodes += count
        self._version += 1

    def _pad_rows(self, size: int) -> None:
        """Grow all columns to ``size`` rows with dead placeholders."""
        grow = size - self._next_node_id
        if grow <= 0:
            return
        self._kind_codes.extend([0] * grow)
        filler = self._intern(self._label_index, self._label_table, "")
        self._label_ids.extend([filler] * grow)
        self._ntype_ids.extend(
            [self._intern(self._ntype_index, self._ntype_table, "p")] * grow)
        self._module_ids.extend(
            [self._intern(self._module_index, self._module_table,
                          None)] * grow)
        self._invocation_ids.extend([-1] * grow)
        self._values.extend([None] * grow)
        self._alive.extend(b"\x00" * grow)
        self._next_node_id = size

    # ------------------------------------------------------------------
    # Adjacency view maintenance (the incremental CSR)
    # ------------------------------------------------------------------
    def _sync(self) -> None:
        """Make the adjacency views current: build on first need, then
        patch only the dirty range of the edge log / new node rows."""
        pred_views = self._pred_views
        if pred_views is None:
            self._build_views()
        elif (self._indexed_upto < len(self._edge_src)
                or len(pred_views) < self._next_node_id):
            self._patch_views()

    def _build_views(self) -> None:
        size = self._next_node_id
        pred_lists: Dict[int, List[int]] = {}
        succ_lists: Dict[int, List[int]] = {}
        for source, target in zip(self._edge_src, self._edge_dst):
            bucket = pred_lists.get(target)
            if bucket is None:
                pred_lists[target] = [source]
            else:
                bucket.append(source)
            bucket = succ_lists.get(source)
            if bucket is None:
                succ_lists[source] = [target]
            else:
                bucket.append(target)
        pred_views: List[Tuple[int, ...]] = [_EMPTY] * size
        succ_views: List[Tuple[int, ...]] = [_EMPTY] * size
        for target, operands in pred_lists.items():
            pred_views[target] = tuple(operands)
        for source, results in succ_lists.items():
            succ_views[source] = tuple(results)
        self._pred_views = pred_views
        self._succ_views = succ_views
        self._indexed_upto = len(self._edge_src)

    def _patch_views(self) -> None:
        pred_views = self._pred_views
        succ_views = self._succ_views
        size = self._next_node_id
        if len(pred_views) < size:
            grow = size - len(pred_views)
            pred_views.extend([_EMPTY] * grow)
            succ_views.extend([_EMPTY] * grow)
        src = self._edge_src
        dst = self._edge_dst
        start, end = self._indexed_upto, len(src)
        if start == end:
            return
        new_preds: Dict[int, List[int]] = {}
        new_succs: Dict[int, List[int]] = {}
        for position in range(start, end):
            source = src[position]
            target = dst[position]
            bucket = new_preds.get(target)
            if bucket is None:
                new_preds[target] = [source]
            else:
                bucket.append(source)
            bucket = new_succs.get(source)
            if bucket is None:
                new_succs[source] = [target]
            else:
                bucket.append(target)
        for target, operands in new_preds.items():
            pred_views[target] = pred_views[target] + tuple(operands)
        for source, results in new_succs.items():
            succ_views[source] = succ_views[source] + tuple(results)
        self._indexed_upto = end

    def csr(self) -> AdjacencyView:
        """The flat adjacency view, O(1) amortized (dirty-range
        patching; no per-call rebuild)."""
        self._sync()
        return AdjacencyView(self._pred_views, self._succ_views,
                             self._next_node_id, self._version)

    def kind_flags(self, kinds: Iterable[NodeKind]) -> bytes:
        """One byte per node row: 1 iff the row's kind is in ``kinds``.

        A C-speed ``bytes.translate`` over the kind-code column — the
        building block the query kernels use for kind-dependent
        traversal rules (deletion's ·/⊗ short-circuit, Zoom's
        stop-at-output barrier).
        """
        codes = frozenset(KIND_CODE[kind] for kind in kinds)
        table = _FLAG_TABLES.get(codes)
        if table is None:
            table = bytes(1 if code in codes else 0 for code in range(256))
            _FLAG_TABLES[codes] = table
        return self._kind_codes.tobytes().translate(table)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    def node(self, node_id: int) -> Node:
        try:
            if node_id >= 0 and self._alive[node_id]:
                facade = self._facades.get(node_id)
                if facade is None:
                    facade = _NodeFacade(self, node_id)
                    self._facades[node_id] = facade
                return facade
        except (IndexError, TypeError):
            pass
        raise UnknownNodeError(node_id)

    def has_node(self, node_id) -> bool:
        try:
            return node_id >= 0 and bool(self._alive[node_id])
        except (IndexError, TypeError):
            return False

    def preds(self, node_id: int) -> Tuple[int, ...]:
        """Operands of ``node_id`` (edges pointing into it)."""
        self._require_node(node_id)
        self._sync()
        return self._pred_views[node_id]

    def succs(self, node_id: int) -> Tuple[int, ...]:
        """Nodes derived (partly) from ``node_id``."""
        self._require_node(node_id)
        self._sync()
        return self._succ_views[node_id]

    def has_edge(self, source: int, target: int) -> bool:
        """Whether at least one edge ``source → target`` exists."""
        self._require_node(source)
        self._require_node(target)
        self._sync()
        return source in self._pred_views[target]

    def duplicate_edge_count(self) -> int:
        """Number of parallel edges beyond the first per (source, target)."""
        self._sync()
        return sum(len(operands) - len(set(operands))
                   for operands in self._pred_views if operands)

    def in_degree(self, node_id: int) -> int:
        return len(self.preds(node_id))

    def out_degree(self, node_id: int) -> int:
        return len(self.succs(node_id))

    @property
    def node_count(self) -> int:
        return self._live_nodes

    @property
    def edge_count(self) -> int:
        return self._edge_count

    def memory_bytes(self) -> int:
        """Approximate resident bytes of the columnar arena.

        Sums the flat node/edge columns exactly (array itemsize ×
        length) and estimates the Python-object side — payload values,
        interned label tables, adjacency views — with ``getsizeof``.
        Used by the service's byte-budget cache eviction
        (``REPRO_CACHE_BUDGET_MB``), so it needs to be cheap and
        *proportional*, not a perfect heap audit: payload internals
        (nested tuples) are counted one level deep.
        """
        import sys
        total = 0
        for column in (self._kind_codes, self._label_ids, self._ntype_ids,
                       self._module_ids, self._invocation_ids,
                       self._edge_src, self._edge_dst):
            total += column.itemsize * len(column)
        total += len(self._alive)
        total += sys.getsizeof(self._values)
        for value in self._values:
            if value is not None:
                total += sys.getsizeof(value)
        for table in (self._label_table, self._ntype_table,
                      self._module_table):
            total += sys.getsizeof(table)
            total += sum(sys.getsizeof(entry) for entry in table
                         if entry is not None)
        for views in (self._pred_views, self._succ_views):
            if views is not None:
                total += sys.getsizeof(views)
                total += sum(sys.getsizeof(view) for view in views if view)
        # Invocations: slotted objects, ~200 B each with their id sets.
        total += len(self.invocations) * 200
        return total

    def node_ids(self) -> Iterator[int]:
        if self._live_nodes == self._next_node_id:
            return iter(range(self._next_node_id))
        alive = self._alive
        return iter([node_id for node_id in range(self._next_node_id)
                     if alive[node_id]])

    def nodes_of_kind(self, kind: NodeKind) -> List[Node]:
        code = KIND_CODE[kind]
        codes = self._kind_codes
        alive = self._alive
        return [self.node(node_id) for node_id in range(self._next_node_id)
                if alive[node_id] and codes[node_id] == code]

    def invocations_of(self, module_name: str) -> List[Invocation]:
        return [invocation for invocation in self.invocations.values()
                if invocation.module_name == module_name]

    def module_names(self) -> Set[str]:
        """Distinct module names, as a set-like view with sorted
        iteration order (deterministic across runs, unlike a plain
        ``set`` of strings under hash randomization)."""
        return dict.fromkeys(
            sorted(invocation.module_name
                   for invocation in self.invocations.values())).keys()

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def remove_node(self, node_id: int) -> None:
        """Remove a node and all edges adjacent to it.

        The arena row is tombstoned (column values are kept, so
        :meth:`restore_nodes` is the inverse); neighbor views are
        patched in place.
        """
        self._check_mutable()
        self._require_node(node_id)
        self._sync()
        pred_views = self._pred_views
        succ_views = self._succ_views
        operands = pred_views[node_id]
        results = succ_views[node_id]
        for pred in set(operands):
            succ_views[pred] = tuple(succ for succ in succ_views[pred]
                                     if succ != node_id)
        for succ in set(results):
            pred_views[succ] = tuple(pred for pred in pred_views[succ]
                                     if pred != node_id)
        pred_views[node_id] = _EMPTY
        succ_views[node_id] = _EMPTY
        self._edge_count -= len(operands) + len(results)
        self._alive[node_id] = 0
        self._live_nodes -= 1
        self._version += 1

    def remove_nodes(self, node_ids) -> None:
        """Batch removal: one adjacency sweep for the whole set.

        Equivalent to calling :meth:`remove_node` per id but touches
        each surviving neighbor's view once — deletion propagation and
        ZoomOut rely on this.
        """
        self._check_mutable()
        doomed = set(node_ids)
        if not doomed:
            return  # no mutation, no version bump
        for node_id in doomed:
            self._require_node(node_id)
        self._sync()
        pred_views = self._pred_views
        succ_views = self._succ_views
        surviving_preds = set()
        surviving_succs = set()
        removed_edges = 0
        for node_id in doomed:
            operands = pred_views[node_id]
            removed_edges += len(operands)
            for pred in operands:
                if pred not in doomed:
                    surviving_preds.add(pred)
            for succ in succ_views[node_id]:
                if succ not in doomed:
                    surviving_succs.add(succ)
                    removed_edges += 1
        for pred in surviving_preds:
            succ_views[pred] = tuple(succ for succ in succ_views[pred]
                                     if succ not in doomed)
        for succ in surviving_succs:
            pred_views[succ] = tuple(pred for pred in pred_views[succ]
                                     if pred not in doomed)
        alive = self._alive
        for node_id in doomed:
            pred_views[node_id] = _EMPTY
            succ_views[node_id] = _EMPTY
            alive[node_id] = 0
        self._live_nodes -= len(doomed)
        self._edge_count -= removed_edges
        self._version += 1

    def restore_nodes(self, node_ids: Iterable[int],
                      pred_rows: Dict[int, Tuple[int, ...]],
                      succ_rows: Dict[int, Tuple[int, ...]]) -> None:
        """Inverse of :meth:`remove_nodes`: bring tombstoned rows back.

        ``pred_rows`` / ``succ_rows`` hold adjacency rows saved before
        the removal: those of every restored id and of each surviving
        neighbor whose row the removal edited.  Each saved row is
        written back keeping only operands alive now, then any operands
        the row gained since (compared as multisets) are appended — so
        a restore right after the removal puts back exactly the old
        rows, operand order and parallel edges included.  Rows of nodes
        that are dead now stay empty.
        """
        self._check_mutable()
        restored = set(node_ids)
        alive = self._alive
        for node_id in restored:
            if not (isinstance(node_id, int)
                    and 0 <= node_id < self._next_node_id) or alive[node_id]:
                raise ProvenanceGraphError(
                    f"cannot restore node {node_id!r}: not a removed row")
        if not restored:
            return
        self._sync()
        for node_id in restored:
            alive[node_id] = 1
        is_alive = alive.__getitem__
        added_edges = 0
        for views, rows, counted in ((self._pred_views, pred_rows, True),
                                     (self._succ_views, succ_rows, False)):
            for node_id, saved in rows.items():
                if not alive[node_id]:
                    continue
                current = views[node_id]
                row = (saved if all(map(is_alive, saved))
                       else tuple(filter(is_alive, saved)))
                if current:
                    gained = Counter(current) - Counter(saved)
                    row += tuple(gained.elements())
                if counted:  # each edge sits in exactly one pred row
                    added_edges += len(row) - len(current)
                views[node_id] = row
        self._live_nodes += len(restored)
        self._edge_count += added_edges
        self._version += 1

    def copy(self) -> "ProvenanceGraph":
        """A deep copy (columns are copied; payload values shared).

        Column copies are C-level slices — no per-node object work —
        so copying is far cheaper than re-adding every node.  Copies
        are always born thawed, even when the source is frozen.
        """
        duplicate = ProvenanceGraph()
        duplicate._kind_codes = self._kind_codes[:]
        duplicate._label_ids = self._label_ids[:]
        duplicate._ntype_ids = self._ntype_ids[:]
        duplicate._module_ids = self._module_ids[:]
        duplicate._invocation_ids = self._invocation_ids[:]
        duplicate._values = list(self._values)
        duplicate._alive = bytearray(self._alive)
        duplicate._label_table = list(self._label_table)
        duplicate._label_index = dict(self._label_index)
        duplicate._ntype_table = list(self._ntype_table)
        duplicate._ntype_index = dict(self._ntype_index)
        duplicate._module_table = list(self._module_table)
        duplicate._module_index = dict(self._module_index)
        duplicate._edge_src = self._edge_src[:]
        duplicate._edge_dst = self._edge_dst[:]
        duplicate._edge_count = self._edge_count
        if self._pred_views is not None:
            duplicate._pred_views = list(self._pred_views)
            duplicate._succ_views = list(self._succ_views)
        duplicate._indexed_upto = self._indexed_upto
        duplicate._live_nodes = self._live_nodes
        duplicate._next_node_id = self._next_node_id
        duplicate._next_invocation_id = self._next_invocation_id
        duplicate._version = self._version
        for invocation_id, invocation in self.invocations.items():
            clone = Invocation(invocation.invocation_id, invocation.module_name,
                               invocation.module_node)
            clone.input_nodes = list(invocation.input_nodes)
            clone.output_nodes = list(invocation.output_nodes)
            clone.state_nodes = list(invocation.state_nodes)
            duplicate.invocations[invocation_id] = clone
        return duplicate

    # ------------------------------------------------------------------
    # Traversals (computed at query time, as in the paper's §5.1)
    # ------------------------------------------------------------------
    def ancestors(self, node_id: int) -> Set[int]:
        """All nodes reachable by following edges backwards."""
        self._require_node(node_id)
        self._sync()
        from ..queries.kernels import reach_set
        return reach_set(self._pred_views, node_id, self._next_node_id)

    def descendants(self, node_id: int) -> Set[int]:
        """All nodes reachable by following edges forwards."""
        self._require_node(node_id)
        self._sync()
        from ..queries.kernels import reach_set
        return reach_set(self._succ_views, node_id, self._next_node_id)

    def reachable(self, source: int, target: int) -> bool:
        """Whether a directed path ``source →* target`` exists."""
        if source == target:
            return True
        self._require_node(source)
        if not self.has_node(target):
            return False
        self._sync()
        from ..queries.kernels import reachable
        return reachable(self._succ_views, source, target, self._next_node_id)

    def topological_order(self) -> List[int]:
        """Node ids in a topological order; raises on cycles."""
        self._sync()
        from ..queries.kernels import topo_order
        order = topo_order(self._pred_views, self._succ_views,
                           self.node_ids(), self._next_node_id)
        if len(order) != self._live_nodes:
            raise ProvenanceGraphError("provenance graph contains a cycle")
        return order

    def is_acyclic(self) -> bool:
        try:
            self.topological_order()
            return True
        except ProvenanceGraphError:
            return False

    # ------------------------------------------------------------------
    # Validation (used by tests and after graph surgery)
    # ------------------------------------------------------------------
    def check_consistency(self, warn_duplicates: bool = True) -> None:
        """Verify adjacency symmetry and edge-count bookkeeping.

        With ``warn_duplicates`` (the default) a
        :class:`~repro.errors.DuplicateEdgeWarning` is emitted when
        parallel duplicate edges exist.  Duplicates are *valid* —
        semiring multiplicity t·t is two parallel edges — but they
        double-count in ``edge_count`` and inflate
        ``ReachabilityIndex.memory_cells``, so surprise duplicates
        usually indicate builder bugs; pass ``False`` when they are
        intentional.
        """
        self._sync()
        pred_views = self._pred_views
        succ_views = self._succ_views
        alive = self._alive
        size = self._next_node_id
        if alive.count(1) != self._live_nodes:
            raise ProvenanceGraphError(
                f"node bookkeeping mismatch: {alive.count(1)} alive rows, "
                f"count={self._live_nodes}")
        forward = 0
        for node_id in range(size):
            if not alive[node_id]:
                if pred_views[node_id] or succ_views[node_id]:
                    raise ProvenanceGraphError(
                        f"dead node {node_id} still has adjacency")
                continue
            for succ in succ_views[node_id]:
                if not (0 <= succ < size and alive[succ]):
                    raise ProvenanceGraphError(
                        f"dangling edge {node_id} → {succ}")
                if node_id not in pred_views[succ]:
                    raise ProvenanceGraphError(
                        f"edge {node_id} → {succ} missing from preds")
                forward += 1
        backward = sum(len(pred_views[node_id]) for node_id in range(size)
                       if alive[node_id])
        if forward != backward or forward != self._edge_count:
            raise ProvenanceGraphError(
                f"edge bookkeeping mismatch: succs={forward} preds={backward} "
                f"count={self._edge_count}")
        duplicates = self.duplicate_edge_count() if warn_duplicates else 0
        if duplicates:
            warnings.warn(
                f"provenance graph holds {duplicates} duplicate parallel "
                f"edge(s); they double-count in edge_count and inflate "
                f"reachability memory accounting (pass dedupe=True to "
                f"add_edge to suppress them)",
                DuplicateEdgeWarning, stacklevel=2)

    def __repr__(self) -> str:
        return (f"ProvenanceGraph(nodes={self.node_count}, "
                f"edges={self.edge_count}, invocations={len(self.invocations)})")
