"""SQL-native query pushdown: recursive walks over stored adjacency.

Section 5.1 of the paper frames the trade-off between storing plain
adjacency (cheap writes, traversal at query time) and precomputing
reachability (fat writes, cheap reads).  The cold path used to pick a
third, worse option: rebuild the whole
:class:`~repro.graph.provgraph.ProvenanceGraph` in Python before
answering anything.  Following the D4M line of work on keeping graph
traversal *inside* the database engine, :class:`PushdownView` answers
ancestors / descendants / subgraph / reachability / deletion
propagation as ``WITH RECURSIVE`` walks over the ``edges`` table the
store already writes — no graph rebuild, no precomputed encoding:

* ancestors walk up the target-keyed ``edges`` primary key;
* descendants, the deletion cone and ``reachable`` walk down the
  ``edges_by_source (run_id, source)`` index, which on the clustered
  table also carries ``target``, so the walk never reads the table;
* subgraph siblings and the deletion counters need the edges entering
  the descendant cone, which the same statement reads by joining each
  cone member to its slots in the ``edges`` primary key.

Each walk reads only the edges of the cone it returns, so a query
costs O(answer) index probes.  Because the walks need no labelling,
appended runs and cyclic runs are served as they stand.

:func:`encode_intervals` keeps the Agrawal-Borgida-Jagadish interval
labelling the store used to precompute: it is the §5.1 "precomputed
reachability" exhibit, timed by the benchmark ladder, and no longer
written by the store.

Set ``REPRO_PUSHDOWN=0`` to disable the tier entirely.
"""

from __future__ import annotations

import os
import time
from collections import deque
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .. import faults as _faults
from ..errors import StoreError, UnknownNodeError
from ..graph.nodes import MULTIPLICATIVE_KINDS, NodeKind
from ..obs import profile as _profile
from ..queries.subgraph import SubgraphResult

#: Tier name this module contributes to EXPLAIN plans.
PUSHDOWN_TIER = "sqlite-pushdown"

#: SQLite bounds compound ``IN (...)`` lists; stay far below the
#: default 32k-variable limit.
_CHUNK = 500

#: Walk down from the seeds bound at ``?2...`` along the source-keyed
#: index; ``{seeds}`` is the seed predicate (``= ?2`` or an ``IN``
#: list).  Seeds appear in ``down`` only when a cycle reaches them.
_DOWN = ("down(n) AS ("
         "SELECT target FROM edges WHERE run_id = ?1 AND source {seeds} "
         "UNION SELECT e.target FROM edges e JOIN down "
         "ON e.run_id = ?1 AND e.source = down.n)")


def pushdown_enabled() -> bool:
    """Whether the pushdown tier is enabled (``REPRO_PUSHDOWN`` env;
    on by default)."""
    return os.environ.get("REPRO_PUSHDOWN", "1").strip().lower() not in (
        "0", "false", "no", "off")


def interval_budget(node_count: int) -> int:
    """Max interval rows :func:`encode_intervals` may emit for a run
    of ``node_count`` nodes: ``8 x node_count`` (floor 1024).
    Well-formed workflow DAGs merge to ~1 row per node, so the budget
    only trips on adversarially join-fragmented graphs."""
    return max(1024, 8 * node_count)


# ----------------------------------------------------------------------
# Encoder (the Section 5.1 labelling exhibit; no store code calls it)
# ----------------------------------------------------------------------
def encode_intervals(node_ids: Sequence[int],
                     pred_views: Sequence[Sequence[int]],
                     budget: int) -> Optional[List[Tuple[int, int, int, int,
                                                         int]]]:
    """Interval-encode a DAG given per-node operand (pred) lists.

    Returns ``(node_id, post, lo, hi, level)`` rows sorted by
    ``(node_id, lo)``, or ``None`` when the graph is cyclic or the
    merged-interval count exceeds ``budget``.  Successor adjacency is
    derived from the pred lists in ``(target, operand-seq)`` order, so
    the output is deterministic for a given graph.
    """
    ids = list(node_ids)
    if not ids:
        return []
    succs: Dict[int, List[int]] = {node_id: [] for node_id in ids}
    roots: List[int] = []
    for target in ids:
        operands = pred_views[target]
        if operands:
            for source in operands:
                succs[source].append(target)
        else:
            roots.append(target)
    if not roots:
        return None  # every node has a pred: cyclic, not a DAG
    # Iterative DFS post-order over the successor direction.  ``order``
    # collects nodes as they finish, i.e. in increasing post order.
    post: Dict[int, int] = {}
    order: List[int] = []
    counter = 0
    for root in roots:
        if root in post:
            continue
        stack = [(root, iter(succs[root]))]
        on_stack = {root}
        while stack:
            node, children = stack[-1]
            advanced = False
            for child in children:
                if child in on_stack:
                    return None  # a back edge: cyclic, not a DAG
                if child not in post:
                    stack.append((child, iter(succs[child])))
                    on_stack.add(child)
                    advanced = True
                    break
            if not advanced:
                stack.pop()
                on_stack.discard(node)
                counter += 1
                post[node] = counter
                order.append(node)
    if len(post) != len(ids):
        return None  # unreached nodes can only sit on a cycle
    # Bottom-up interval merge: successors finish first (smaller
    # post), so walking ``order`` forward sees every child's interval
    # set before its parents need it.
    intervals: Dict[int, List[Tuple[int, int]]] = {}
    total = 0
    for node in order:
        own = post[node]
        segments = [(own, own)]
        for child in succs[node]:
            segments.extend(intervals[child])
        segments.sort()
        merged: List[Tuple[int, int]] = []
        for lo, hi in segments:
            if merged and lo <= merged[-1][1] + 1:
                if hi > merged[-1][1]:
                    merged[-1] = (merged[-1][0], hi)
            else:
                merged.append((lo, hi))
        intervals[node] = merged
        total += len(merged)
        if total > budget:
            return None
    # Levels: min distance from a root.  Preds carry larger post
    # numbers, so walking in decreasing post order sees every operand
    # before the nodes it derives.
    level: Dict[int, int] = {}
    for node in reversed(order):
        operands = pred_views[node]
        if operands:
            level[node] = min(level[source] for source in operands) + 1
        else:
            level[node] = 0
    return [(node_id, post[node_id], lo, hi, level[node_id])
            for node_id in ids
            for lo, hi in intervals[node_id]]


def _chunks(values: Sequence[int], size: int = _CHUNK):
    for start in range(0, len(values), size):
        yield values[start:start + size]


class PushdownUnavailable(StoreError):
    """The run vanished while a view of it was held.  The service
    layer catches this and falls back to the CSR tiers."""


class PushdownView:
    """Answers Section 4/5.1 queries as recursive SQL walks over one
    run's ``edges`` table.

    The view is stateless — every query first re-reads the run's
    catalog row (one primary-key read), so a held view serves the
    store's current rows, appends included, and raises
    :class:`PushdownUnavailable` once the run is deleted.  Answer
    contracts mirror :class:`~repro.store.csr.CSRSnapshot` exactly,
    which the differential fuzz harness enforces.
    """

    __slots__ = ("_store", "run_id")

    def __init__(self, store, run_id: str):
        self._store = store
        self.run_id = run_id

    # -- plumbing ------------------------------------------------------
    def _execute(self, sql: str, params: tuple):
        with self._store._read_lock():
            return self._store._conn.execute(sql, params).fetchall()

    def _fresh(self) -> None:
        if not self._execute("SELECT 1 FROM runs WHERE run_id = ?",
                             (self.run_id,)):
            raise PushdownUnavailable(f"run {self.run_id!r} is gone")

    def _fire(self) -> None:
        _faults.fire("store.read", store=self._store._obs_labels["store"],
                     run_id=self.run_id)

    def _require(self, node_id: int) -> None:
        if not self.has_node(node_id):
            raise UnknownNodeError(node_id)

    def _step(self, prof, name: str, started: float, **counters) -> None:
        if prof is not None:
            prof.step(name, tier=PUSHDOWN_TIER,
                      seconds=time.perf_counter() - started, **counters)

    # -- queries -------------------------------------------------------
    def has_node(self, node_id: int) -> bool:
        return isinstance(node_id, int) and bool(self._execute(
            "SELECT 1 FROM nodes WHERE run_id = ? AND node_id = ?",
            (self.run_id, node_id)))

    def _cone_edges(self, node_ids: Sequence[int],
                    kinds: bool = False) -> List[tuple]:
        """``(target, source)`` for every edge slot entering the
        descendant cone of ``node_ids`` — ``(target, source, kind)``
        with ``kinds`` — read in the same statement as the walk: each
        cone member is joined to its operand slots by the ``edges``
        primary key.  Every member was reached over an edge, so the
        targets are exactly the cone.  A member reached from two
        chunks of seeds comes back once per chunk."""
        # CROSS JOIN pins the join order to walk first: left free, the
        # planner scans the run's whole source index and probes down.
        columns, nodes = (("down.n, e.source, nd.kind",
                           "CROSS JOIN nodes nd ON nd.run_id = ?1 "
                           "AND nd.node_id = down.n ") if kinds
                          else ("down.n, e.source", ""))
        select = (f"SELECT {columns} FROM down {nodes}"
                  "CROSS JOIN edges e ON e.run_id = ?1 AND e.target = down.n")
        found: List[tuple] = []
        for chunk in _chunks(list(node_ids)):
            marks = "IN (" + ",".join("?" * len(chunk)) + ")"
            found.extend(self._execute(
                "WITH RECURSIVE " + _DOWN.format(seeds=marks) + " " + select,
                (self.run_id, *chunk)))
        return found

    def _ancestor_rows(self, node_id: int) -> Set[int]:
        """Distinct ancestors of ``node_id``: one recursive walk up the
        target-keyed ``edges`` primary key, reading only the edges of
        the ancestor cone."""
        rows = self._execute(
            "WITH RECURSIVE up(n) AS ("
            "SELECT source FROM edges WHERE run_id = ?1 AND target = ?2 "
            "UNION SELECT e.source FROM edges e JOIN up "
            "ON e.run_id = ?1 AND e.target = up.n) "
            "SELECT n FROM up WHERE n <> ?2", (self.run_id, node_id))
        return {row[0] for row in rows}

    def descendants(self, node_id: int) -> Set[int]:
        self._fire()
        prof = _profile.active()
        started = time.perf_counter()
        self._fresh()
        self._require(node_id)
        reached = {row[0] for row in self._execute(
            "WITH RECURSIVE " + _DOWN.format(seeds="= ?2")
            + " SELECT n FROM down WHERE n <> ?2", (self.run_id, node_id))}
        self._step(prof, "pushdown.descendants", started,
                   nodes_visited=len(reached))
        return reached

    def ancestors(self, node_id: int) -> Set[int]:
        self._fire()
        prof = _profile.active()
        started = time.perf_counter()
        self._fresh()
        self._require(node_id)
        reached = self._ancestor_rows(node_id)
        self._step(prof, "pushdown.ancestors", started,
                   nodes_visited=len(reached))
        return reached

    def reachable(self, source: int, target: int) -> bool:
        """Contract-compatible with ``CSRSnapshot.reachable``:
        ``source == target`` is True without an existence check, an
        unknown target is unreachable, an unknown source raises."""
        if source == target:
            return True
        self._fire()
        prof = _profile.active()
        started = time.perf_counter()
        self._fresh()
        self._require(source)
        found = bool(self._execute(
            "WITH RECURSIVE " + _DOWN.format(seeds="= ?2")
            + " SELECT 1 FROM down WHERE n = ?3 LIMIT 1",
            (self.run_id, source, target)))
        self._step(prof, "pushdown.reachable", started, found=found)
        return found

    def subgraph(self, node_id: int) -> SubgraphResult:
        """Ancestors + descendants + siblings-of-descendants: one walk
        down that also returns each descendant's operands, and one
        walk up.  The walk up skips the cone only when the node sits
        on a cycle: one statement that walks both ways ran at about
        half the speed of the two plain walks."""
        self._fire()
        prof = _profile.active()
        started = time.perf_counter()
        self._fresh()
        self._require(node_id)
        descendants: Set[int] = set()
        siblings: Set[int] = set()
        on_cycle = False
        for target, source in self._cone_edges((node_id,)):
            if target == node_id:
                on_cycle = True
            else:
                descendants.add(target)
                siblings.add(source)
        ancestors = (self._ancestors_outside_cone(node_id) if on_cycle
                     else self._ancestor_rows(node_id))
        siblings -= ancestors
        siblings -= descendants
        siblings.discard(node_id)
        self._step(prof, "pushdown.subgraph", started,
                   ancestors=len(ancestors), descendants=len(descendants),
                   siblings=len(siblings))
        return SubgraphResult(node_id, ancestors, descendants, siblings)

    def _ancestors_outside_cone(self, node_id: int) -> Set[int]:
        """Subgraph ancestors of a node on a cycle.  The CSR kernel
        shares one membership mask between its sweeps, so the upward
        sweep neither adds nor expands the node or its descendants;
        this walk up skips the same nodes.  Off a cycle no ancestor is
        a descendant, and the plain walk up gives the same set."""
        rows = self._execute(
            "WITH RECURSIVE " + _DOWN.format(seeds="= ?2") + ", "
            "up(n) AS ("
            "SELECT source FROM edges WHERE run_id = ?1 AND target = ?2 "
            "AND source <> ?2 AND source NOT IN down "
            "UNION SELECT e.source FROM edges e JOIN up "
            "ON e.run_id = ?1 AND e.target = up.n "
            "WHERE e.source <> ?2 AND e.source NOT IN down) "
            "SELECT n FROM up", (self.run_id, node_id))
        return {row[0] for row in rows}

    def deletion_set(self, node_ids: Iterable[int],
                     blackbox_multiplicative: bool = False) -> Set[int]:
        """The Definition 4.2 removal set, computed over the seeds'
        descendant cone only (fetched by one walk down) — the counter
        BFS then runs on the edges entering that cone, never the full
        graph.

        Mirrors :func:`repro.queries.deletion.deletion_set` exactly,
        including parallel-edge multiplicity (each stored edge slot
        counts as one incoming derivation).
        """
        self._fire()
        prof = _profile.active()
        started = time.perf_counter()
        self._fresh()
        seeds = tuple(node_ids)
        for seed in seeds:
            self._require(seed)
        # Every node the deletion could touch lies in the seeds'
        # descendant cone, and every edge leaving a cone member enters
        # the cone — so the cone's incoming edge slots, read with the
        # walk, yield the in-degrees, the successor lists and the
        # kinds the counter BFS needs.
        in_degree: Dict[int, int] = {}
        succs: Dict[int, List[int]] = {}
        joint: Dict[int, bool] = {}
        joint_kinds = {kind.value for kind in MULTIPLICATIVE_KINDS}
        if blackbox_multiplicative:
            joint_kinds.add(NodeKind.BLACKBOX.value)
        # A member repeated across seed chunks scales its in-degree and
        # its entries in ``succs`` alike, so its count still reaches 0
        # exactly when every operand slot is removed.
        for target, source, kind in self._cone_edges(seeds, kinds=True):
            in_degree[target] = in_degree.get(target, 0) + 1
            succs.setdefault(source, []).append(target)
            joint[target] = kind in joint_kinds
        removed: Set[int] = set(dict.fromkeys(seeds))
        queue = deque(removed)
        remaining: Dict[int, int] = {}
        while queue:
            current = queue.popleft()
            for successor in succs.get(current, ()):
                if successor in removed:
                    continue
                if joint.get(successor, False):
                    removed.add(successor)
                    queue.append(successor)
                    continue
                count = remaining.get(successor)
                if count is None:
                    count = in_degree.get(successor, 0)
                count -= 1
                if count <= 0:
                    removed.add(successor)
                    queue.append(successor)
                else:
                    remaining[successor] = count
        self._step(prof, "pushdown.deletion", started, seeds=len(seeds),
                   candidates=len(in_degree.keys() | set(seeds)),
                   nodes_visited=len(removed))
        return removed

    def __repr__(self) -> str:
        return f"PushdownView({self._store!r}, run_id={self.run_id!r})"
