"""Read-optimized CSR (compressed sparse row) graph snapshot.

Section 5.1 of the paper names the memory/speed trade-off this module
exploits: "we store information about parents and children of each
node, and compute ancestor and descendant information as appropriate
at query time.  An alternative is to pre-compute the transitive
closure ... [which] would result in higher memory overhead, but may
speed up query processing."  A :class:`CSRSnapshot` sits between the
two extremes: no transitive closure, but the graph's incrementally
maintained adjacency (:meth:`~repro.graph.provgraph.ProvenanceGraph.csr`)
is frozen into two row lists, predecessors and successors — the
row-indexed associative adjacency of D4M-style engines.

Each row is the graph's own immutable neighbour tuple, indexed by node
id, so freezing is one list copy per direction and no id is re-boxed.
Traversals run on C-level ``list.extend`` over those rows plus a
``bytearray`` visited mask instead of hashing ids through dicts and
sets.

A snapshot is immutable and records the source graph's ``version``;
consumers compare via :meth:`matches` to detect staleness after graph
surgery.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter as _perf
from typing import Iterable, List, Optional, Set, Tuple

from ..errors import UnknownNodeError
from ..graph.provgraph import ProvenanceGraph
from ..obs import profile as _profile
from ..queries import cancel as _cancel
from ..queries.kernels import (_reach_checked, _reachable_checked,
                               subgraph_sets)
from ..queries.subgraph import SubgraphResult


class CSRSnapshot:
    """Frozen adjacency snapshot of a provenance graph."""

    __slots__ = ("version", "node_count", "edge_count", "_mask_size",
                 "_ids", "_id_set", "_pred_views", "_succ_views",
                 "_subgraph_cache")

    def __init__(self, graph: ProvenanceGraph):
        ids = list(graph.node_ids())
        count = len(ids)
        self.version = graph.version
        self.node_count = count
        self.edge_count = graph.edge_count
        self._mask_size = (ids[-1] + 1) if ids else 0
        # Tracker-built graphs have dense ids (0..n-1); graphs that
        # survived surgery may be sparse, so keep the id vocabulary.
        dense = count == self._mask_size
        self._ids: Optional[array] = None if dense else array("q", ids)
        self._id_set: Optional[frozenset] = None if dense else frozenset(ids)
        # Freeze the graph's incrementally-maintained adjacency: the
        # per-node view tuples are immutable and shared (dead rows are
        # already empty), so freezing is one list copy per direction.
        adjacency = graph.csr()
        self._pred_views = adjacency.pred_views[:self._mask_size]
        self._succ_views = adjacency.succ_views[:self._mask_size]
        # The snapshot is immutable, so query answers are memoizable.
        self._subgraph_cache: dict = {}

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def has_node(self, node_id: int) -> bool:
        if self._id_set is not None:
            return node_id in self._id_set
        return 0 <= node_id < self.node_count

    def _check(self, node_id: int) -> None:
        if not isinstance(node_id, int) or not self.has_node(node_id):
            raise UnknownNodeError(node_id)

    def node_ids(self) -> Iterable[int]:
        if self._ids is None:
            return range(self.node_count)
        return iter(self._ids)

    # ------------------------------------------------------------------
    # Adjacency
    # ------------------------------------------------------------------
    def preds(self, node_id: int) -> Tuple[int, ...]:
        """Operands of ``node_id`` (edges pointing into it)."""
        self._check(node_id)
        return self._pred_views[node_id]

    def succs(self, node_id: int) -> Tuple[int, ...]:
        """Nodes derived (partly) from ``node_id``."""
        self._check(node_id)
        return self._succ_views[node_id]

    def in_degree(self, node_id: int) -> int:
        return len(self.preds(node_id))

    def out_degree(self, node_id: int) -> int:
        return len(self.succs(node_id))

    # ------------------------------------------------------------------
    # Traversals (the query hot path)
    # ------------------------------------------------------------------
    def _reach(self, start: int, views: List[Tuple[int, ...]]) -> List[int]:
        """Node ids reachable from ``start`` (exclusive), unordered."""
        mask = bytearray(self._mask_size)
        mask[start] = 1
        reached: List[int] = []
        stack = list(views[start])
        while stack:
            current = stack.pop()
            if mask[current]:
                continue
            mask[current] = 1
            reached.append(current)
            stack.extend(views[current])
        return reached

    def _reach_set(self, start: int, views: List[Tuple[int, ...]]) -> Set[int]:
        """Like :meth:`_reach` but accumulates a set directly —
        cheaper when the caller wants a set anyway."""
        deadline = _cancel.current()
        if deadline is not None:
            return set(_reach_checked(views, start, self._mask_size,
                                      deadline))
        seen: Set[int] = set()
        stack = list(views[start])
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            stack.extend(views[current])
        seen.discard(start)
        return seen

    def _profiled_reach_set(self, name: str, start: int,
                            views: List[Tuple[int, ...]], prof) -> Set[int]:
        started = _perf()
        seen = self._reach_set(start, views)
        seconds = _perf() - started
        edges = len(views[start]) + sum(len(views[n]) for n in seen)
        prof.step(name, tier="csr-view", seconds=seconds,
                  nodes_visited=len(seen), edges_scanned=edges,
                  mask_bytes=self._mask_size)
        return seen

    def ancestors(self, node_id: int) -> Set[int]:
        """All nodes reachable by following edges backwards."""
        self._check(node_id)
        prof = _profile.active()
        if prof is not None:
            return self._profiled_reach_set("csr.ancestors", node_id,
                                            self._pred_views, prof)
        return self._reach_set(node_id, self._pred_views)

    def descendants(self, node_id: int) -> Set[int]:
        """All nodes reachable by following edges forwards."""
        self._check(node_id)
        prof = _profile.active()
        if prof is not None:
            return self._profiled_reach_set("csr.descendants", node_id,
                                            self._succ_views, prof)
        return self._reach_set(node_id, self._succ_views)

    def reachable(self, source: int, target: int) -> bool:
        """Whether a directed path ``source →* target`` exists
        (early-exit DFS — stops as soon as the target is seen).

        Mirrors ``ProvenanceGraph.reachable``'s contract exactly:
        ``source == target`` is True without an existence check, an
        unknown target is simply unreachable, an unknown source
        raises.
        """
        if source == target:
            return True
        self._check(source)
        if not self.has_node(target):
            return False
        prof = _profile.active()
        if prof is not None:
            return self._reachable_profiled(source, target, prof)
        deadline = _cancel.current()
        if deadline is not None:
            return _reachable_checked(self._succ_views, source, target,
                                      self._mask_size, deadline)
        views = self._succ_views
        mask = bytearray(self._mask_size)
        mask[source] = 1
        stack = list(views[source])
        while stack:
            current = stack.pop()
            if current == target:
                return True
            if mask[current]:
                continue
            mask[current] = 1
            stack.extend(views[current])
        return False

    def _reachable_profiled(self, source: int, target: int, prof) -> bool:
        """The :meth:`reachable` loop with visit/edge counters; the
        early exit discards its mask, so profiling needs this twin."""
        views = self._succ_views
        mask = bytearray(self._mask_size)
        mask[source] = 1
        visited = 1
        edges = len(views[source])
        found = False
        started = _perf()
        stack = list(views[source])
        while stack:
            current = stack.pop()
            if current == target:
                found = True
                break
            if mask[current]:
                continue
            mask[current] = 1
            visited += 1
            edges += len(views[current])
            stack.extend(views[current])
        prof.step("csr.reachable", tier="csr-view",
                  seconds=_perf() - started, nodes_visited=visited,
                  edges_scanned=edges, mask_bytes=self._mask_size,
                  found=found)
        return found

    def subgraph(self, node_id: int) -> SubgraphResult:
        """The Section 5.1 subgraph query (ancestors + descendants +
        siblings of descendants) answered from the snapshot.

        Answers are memoized per node — the snapshot is frozen, so a
        repeated query returns the cached result; callers must treat
        the result's node sets as read-only.
        """
        prof = _profile.active()
        cached = self._subgraph_cache.get(node_id)
        if cached is not None:
            if prof is not None:
                prof.step("csr.subgraph", tier="csr-view", memoized=1,
                          nodes_visited=len(cached.ancestors)
                          + len(cached.descendants) + len(cached.siblings))
            return cached
        self._check(node_id)
        if prof is not None:
            prof.step("csr.subgraph", tier="csr-view", memoized=0)
        ancestors, descendants, siblings = subgraph_sets(
            self._pred_views, self._succ_views, node_id, self._mask_size)
        result = SubgraphResult(node_id, ancestors, descendants, siblings)
        self._subgraph_cache[node_id] = result
        return result

    # ------------------------------------------------------------------
    # Cost accounting
    # ------------------------------------------------------------------
    def memory_bytes(self) -> int:
        """Bytes held by the snapshot: the two row lists and their
        per-node view tuples (tuple headers + pointers; the node-id
        ints themselves are shared with the source graph), plus the id
        vocabulary of a sparse graph."""
        total = 0
        if self._ids is not None:
            total += self._ids.itemsize * len(self._ids)
        for views in (self._pred_views, self._succ_views):
            total += sys.getsizeof(views)
            total += sum(sys.getsizeof(view) for view in views if view)
        return total

    def matches(self, graph: ProvenanceGraph) -> bool:
        """Whether this snapshot is still current for ``graph``."""
        return (self.version == graph.version
                and self.node_count == graph.node_count
                and self.edge_count == graph.edge_count)

    def __repr__(self) -> str:
        return (f"CSRSnapshot(nodes={self.node_count}, "
                f"edges={self.edge_count}, bytes={self.memory_bytes()})")
