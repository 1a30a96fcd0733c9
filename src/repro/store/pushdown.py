"""SQL-native query pushdown over an interval-encoded DAG.

Section 5.1 of the paper frames the trade-off between storing plain
adjacency (cheap writes, traversal at query time) and precomputing
the transitive closure (fat writes, O(1) reachability).  The cold
path previously always picked a third, worse option: rebuild the
whole :class:`~repro.graph.provgraph.ProvenanceGraph` in Python
before answering anything.  Following the D4M line of work on pushing
array-style graph encodings *into* the database engine, this module
materializes a **pre/post-order interval + level encoding** of each
run's DAG at ingest so ancestors / descendants / subgraph / deletion
propagation become index lookups answered entirely inside SQLite — no
graph rebuild, no Python traversal over the full run.

Encoding (Agrawal-Borgida-Jagadish interval labeling, DAG variant):

* a DFS over the *successor* direction from the DAG's roots assigns
  every node a post-order number ``post`` (1-based);
* every node carries a set of merged integer intervals ``[lo, hi]``
  covering exactly the post numbers of itself and its descendants —
  computed bottom-up (increasing post order) by merging each node's
  singleton ``[post, post]`` with its successors' interval sets;
* ``m`` is a descendant of ``n`` iff ``post(m)`` falls inside one of
  ``n``'s intervals, so descendants are a range scan per interval.
  Ancestors do not use the labels: stabbing ``lo <= post(m)`` reads a
  share of the whole run, so they are a recursive walk up the
  target-keyed ``edges`` primary key instead, whose cost follows the
  size of the answer (output-sensitive);
* ``level`` is the node's minimum distance from a root (depth), kept
  for level-bounded queries and as an encode-order fingerprint.

DAG nodes reachable through multiple parents would duplicate whole
subtree labels under tree-unfolding schemes; interval *merging* keeps
the common case near one row per node.  Adversarially join-heavy
graphs can still fragment, so the encoder aborts past a budget
(:func:`interval_budget`) and the run is marked ``fallback`` — those
runs keep answering on the CSR tiers, correctness never depends on
the encoding existing.

Set ``REPRO_PUSHDOWN=0`` to disable the tier entirely;
``REPRO_PUSHDOWN_BUDGET`` (a float, default 8.0) scales the
row-per-node budget.
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

#: ``runs.interval_state`` values.  NULL (a store written before this
#: tier existed, or an append that predates the lazy re-encode) is
#: treated like ``stale``: encodable on first demand.
INTERVALS_READY = "ready"
INTERVALS_STALE = "stale"
INTERVALS_FALLBACK = "fallback"

#: SQLite bounds compound ``IN (...)`` lists; stay far below the
#: default 32k-variable limit.
_CHUNK = 500


def pushdown_enabled() -> bool:
    """Whether the pushdown tier is enabled (``REPRO_PUSHDOWN`` env;
    on by default)."""
    return os.environ.get("REPRO_PUSHDOWN", "1").strip().lower() not in (
        "0", "false", "no", "off")


def interval_budget(node_count: int) -> int:
    """Max interval rows the encoder may emit for a run before it
    gives up and marks the run ``fallback``.

    Defaults to ``8 x node_count`` (floor 1024): well-formed workflow
    DAGs merge to ~1 row per node, so the budget only trips on
    adversarially join-fragmented graphs where the encoding would
    cost more than it saves.
    """
    try:
        factor = float(os.environ.get("REPRO_PUSHDOWN_BUDGET", "8"))
    except ValueError:
        factor = 8.0
    return max(1024, int(factor * node_count))


# ----------------------------------------------------------------------
# Encoder
# ----------------------------------------------------------------------
def encode_intervals(node_ids: Sequence[int],
                     pred_views: Sequence[Sequence[int]],
                     budget: int) -> Optional[List[Tuple[int, int, int, int,
                                                         int]]]:
    """Interval-encode a DAG given per-node operand (pred) lists.

    Returns ``(node_id, post, lo, hi, level)`` rows sorted by
    ``(node_id, lo)``, or ``None`` when the graph is cyclic or the
    merged-interval count exceeds ``budget`` (the caller records
    ``fallback`` and the CSR tiers keep serving).

    Successor adjacency is derived from the pred lists in
    ``(target, operand-seq)`` order, which is exactly how the
    ``edges`` table is ordered — so encoding a live graph at ingest
    and re-encoding from stored rows later produce identical output
    (pinned by a determinism regression test).
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
    """The run's interval encoding cannot serve (re-encode after an
    append tripped the budget, or the run vanished mid-query).  The
    service layer catches this and falls back to the CSR tiers."""


class PushdownView:
    """Answers Section 4/5.1 queries as SQL index lookups over one
    run's ``node_intervals`` and ``edges`` tables.

    The view is stateless — every query re-checks the run's
    ``interval_state`` (one indexed point read) and triggers a lazy
    re-encode when an append marked the run stale, so a held view
    never serves rows from a superseded encoding.  Answer contracts
    mirror :class:`~repro.store.csr.CSRSnapshot` exactly, which the
    differential fuzz harness enforces.
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
        """Re-encode if an append staled the run since this view was
        handed out (one indexed point read when already current)."""
        if not self._store.ensure_intervals(self.run_id):
            raise PushdownUnavailable(
                f"run {self.run_id!r} has no usable interval encoding")

    def _fire(self) -> None:
        _faults.fire("store.read", store=self._store._obs_labels["store"],
                     run_id=self.run_id)

    def _post_of(self, node_id: int) -> Optional[int]:
        rows = self._execute(
            "SELECT post FROM node_intervals "
            "WHERE run_id = ? AND node_id = ? LIMIT 1",
            (self.run_id, node_id))
        return rows[0][0] if rows else None

    def _require(self, node_id: int) -> None:
        if not isinstance(node_id, int) or self._post_of(node_id) is None:
            raise UnknownNodeError(node_id)

    def _step(self, prof, name: str, started: float, **counters) -> None:
        if prof is not None:
            prof.step(name, tier=PUSHDOWN_TIER,
                      seconds=time.perf_counter() - started, **counters)

    # -- queries -------------------------------------------------------
    def has_node(self, node_id: int) -> bool:
        if not isinstance(node_id, int):
            return False
        self._fresh()
        return self._post_of(node_id) is not None

    def _descendant_rows(self, node_ids: Sequence[int]) -> Set[int]:
        """Distinct descendants of any of ``node_ids`` (exclusive of
        the sources themselves unless reached through another).

        The spans come from primary-key lookups, then one indexed
        range scan per merged ``[lo, hi]`` interval rather than a
        self-JOIN: SQLite's planner refuses the ``(run_id, post)`` index
        for a join whose bounds come from the outer row, degrading to a
        full per-row scan of the run.
        """
        spans: List[Tuple[int, int]] = []
        for chunk in _chunks(list(node_ids)):
            marks = ",".join("?" * len(chunk))
            spans.extend(self._execute(
                "SELECT lo, hi FROM node_intervals "
                f"WHERE run_id = ? AND node_id IN ({marks})",
                (self.run_id, *chunk)))
        spans.sort()
        found: Set[int] = set()
        previous_hi = None
        for lo, hi in spans:
            if previous_hi is not None and hi <= previous_hi:
                continue  # nested inside the span just scanned
            if previous_hi is not None and lo <= previous_hi:
                lo = previous_hi + 1
            rows = self._execute(
                "SELECT node_id FROM node_intervals "
                "WHERE run_id = ? AND post >= ? AND post <= ?",
                (self.run_id, lo, hi))
            found.update(row[0] for row in rows)
            previous_hi = hi
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
        reached = self._descendant_rows((node_id,))
        reached.discard(node_id)
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
        target_post = self._post_of(target)
        if target_post is None:
            self._step(prof, "pushdown.reachable", started, found=False)
            return False
        rows = self._execute(
            "SELECT 1 FROM node_intervals WHERE run_id = ? "
            "AND node_id = ? AND lo <= ? AND hi >= ? LIMIT 1",
            (self.run_id, source, target_post, target_post))
        found = bool(rows)
        self._step(prof, "pushdown.reachable", started, found=found)
        return found

    def subgraph(self, node_id: int) -> SubgraphResult:
        """Ancestors + descendants + siblings-of-descendants, with the
        sibling scan pushed to the ``edges`` table."""
        self._fire()
        prof = _profile.active()
        started = time.perf_counter()
        self._fresh()
        self._require(node_id)
        descendants = self._descendant_rows((node_id,))
        descendants.discard(node_id)
        ancestors = self._ancestor_rows(node_id)
        member = {node_id} | ancestors | descendants
        siblings: Set[int] = set()
        for chunk in _chunks(sorted(descendants)):
            marks = ",".join("?" * len(chunk))
            rows = self._execute(
                "SELECT DISTINCT source FROM edges "
                f"WHERE run_id = ? AND target IN ({marks})",
                (self.run_id, *chunk))
            siblings.update(row[0] for row in rows)
        siblings -= member
        self._step(prof, "pushdown.subgraph", started,
                   ancestors=len(ancestors), descendants=len(descendants),
                   siblings=len(siblings))
        return SubgraphResult(node_id, ancestors, descendants, siblings)

    def deletion_set(self, node_ids: Iterable[int],
                     blackbox_multiplicative: bool = False) -> Set[int]:
        """The Definition 4.2 removal set, computed over the seeds'
        descendant cone only (fetched by range scan) — the counter
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
        # the cone — so one target-keyed scan of the cone's incoming
        # edges yields both the in-degrees and the successor lists.
        candidates = self._descendant_rows(seeds)
        candidates.update(seeds)
        in_degree: Dict[int, int] = {}
        succs: Dict[int, List[int]] = {}
        joint: Dict[int, bool] = {}
        joint_kinds = {kind.value for kind in MULTIPLICATIVE_KINDS}
        if blackbox_multiplicative:
            joint_kinds.add(NodeKind.BLACKBOX.value)
        for chunk in _chunks(sorted(candidates)):
            marks = ",".join("?" * len(chunk))
            for target, source in self._execute(
                    "SELECT target, source FROM edges "
                    f"WHERE run_id = ? AND target IN ({marks})",
                    (self.run_id, *chunk)):
                in_degree[target] = in_degree.get(target, 0) + 1
                succs.setdefault(source, []).append(target)
            for node, kind in self._execute(
                    "SELECT node_id, kind FROM nodes "
                    f"WHERE run_id = ? AND node_id IN ({marks})",
                    (self.run_id, *chunk)):
                joint[node] = kind in joint_kinds
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
                   candidates=len(candidates), nodes_visited=len(removed))
        return removed

    def __repr__(self) -> str:
        return f"PushdownView({self._store!r}, run_id={self.run_id!r})"
