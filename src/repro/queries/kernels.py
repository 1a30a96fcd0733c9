"""Flat-array traversal kernels shared by the graph core and queries.

Every kernel runs over the columnar graph's adjacency *views* — one
tuple of neighbor ids per node, indexed by node id (see
:meth:`repro.graph.provgraph.ProvenanceGraph.csr`) — with a
``bytearray`` visited mask instead of hashing ids through sets.  The
pattern comes from the PR-1 ``CSRSnapshot`` read path, hoisted here so
ZoomOut's intermediate-computation sweep, subgraph queries, deletion
propagation, topological ordering, and ``ReachabilityIndex``
construction all share one implementation.

Kind-dependent traversal rules (deletion's ·/⊗ short-circuit, Zoom's
stop-at-output barrier) take a per-node byte-flag string produced by
``ProvenanceGraph.kind_flags`` — a C-speed ``bytes.translate`` over
the kind-code column.

Bitset helpers at the bottom back the ``ReachabilityIndex`` rows:
descendant/ancestor sets stored as Python big-int bitmasks, unioned
with single ``|`` operations.
"""

from __future__ import annotations

import struct as _struct
from collections import deque
from time import perf_counter as _perf
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .. import obs as _obs
from ..obs import profile as _profile
from . import cancel as _cancel
from .cancel import CHECK_EVERY as _CHECK_EVERY

try:  # optional accelerator: C-speed bit materialization
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is usually available
    _np = None

Views = Sequence[Tuple[int, ...]]


def _edges_scanned(views: Views, start_ids: Iterable[int],
                   reached: Iterable[int]) -> int:
    """Edges a sweep examined: every adjacency row it expanded.

    Computed post-hoc from the result, so the hot loops stay
    counter-free; only the profiled path (an active
    :class:`~repro.obs.profile.ProfileCapture`) pays for it.
    """
    total = 0
    for node_id in start_ids:
        total += len(views[node_id])
    for node_id in reached:
        total += len(views[node_id])
    return total


# ----------------------------------------------------------------------
# Reachability sweeps
# ----------------------------------------------------------------------
def reach(views: Views, start: int, size: int) -> List[int]:
    """Node ids reachable from ``start`` (exclusive), unordered."""
    prof = _profile.active()
    if prof is None and not _obs.enabled():
        return _run_reach(views, start, size)
    started = _perf()
    reached = _run_reach(views, start, size)
    seconds = _perf() - started
    if _obs.enabled():
        _obs.observe("kernel.reach.run_seconds", seconds)
        _obs.count("kernel.reach.visited_total", len(reached))
    if prof is not None:
        prof.step("kernel.reach", seconds=seconds,
                  nodes_visited=len(reached),
                  edges_scanned=_edges_scanned(views, (start,), reached),
                  mask_bytes=size)
    return reached


def _reach(views: Views, start: int, size: int) -> List[int]:
    mask = bytearray(size)
    mask[start] = 1
    reached: List[int] = []
    append = reached.append
    stack = list(views[start])
    pop = stack.pop
    extend = stack.extend
    while stack:
        current = pop()
        if mask[current]:
            continue
        mask[current] = 1
        append(current)
        extend(views[current])
    return reached


def _run_reach(views: Views, start: int, size: int) -> List[int]:
    # Deadline dispatch: one module-global read when no thread holds a
    # scope, so the unchecked loop above stays the disabled fast path.
    deadline = _cancel.current()
    if deadline is None:
        return _reach(views, start, size)
    return _reach_checked(views, start, size, deadline)


def _reach_checked(views: Views, start: int, size: int,
                   deadline) -> List[int]:
    """:func:`_reach` with a deadline check every ``CHECK_EVERY``
    expansions (cooperative cancellation; see :mod:`..cancel`)."""
    mask = bytearray(size)
    mask[start] = 1
    reached: List[int] = []
    append = reached.append
    stack = list(views[start])
    pop = stack.pop
    extend = stack.extend
    countdown = _CHECK_EVERY
    while stack:
        current = pop()
        if mask[current]:
            continue
        mask[current] = 1
        append(current)
        extend(views[current])
        countdown -= 1
        if not countdown:
            deadline.check("kernel.reach")
            countdown = _CHECK_EVERY
    return reached


def reach_set(views: Views, start: int, size: int) -> Set[int]:
    """Like :func:`reach` but returns a set."""
    return set(reach(views, start, size))


def reachable(succ_views: Views, source: int, target: int, size: int) -> bool:
    """Early-exit DFS: does a path ``source →* target`` exist?"""
    prof = _profile.active()
    if prof is None and not _obs.enabled():
        return _run_reachable(succ_views, source, target, size)
    started = _perf()
    if prof is not None:
        answer, visited, edges = _reachable_counted(
            succ_views, source, target, size,
            deadline=_cancel.current())
    else:
        answer = _run_reachable(succ_views, source, target, size)
    seconds = _perf() - started
    if _obs.enabled():
        _obs.observe("kernel.reachable.run_seconds", seconds)
    if prof is not None:
        prof.step("kernel.reachable", seconds=seconds,
                  nodes_visited=visited, edges_scanned=edges,
                  mask_bytes=size, found=answer)
    return answer


def _reachable(succ_views: Views, source: int, target: int,
               size: int) -> bool:
    mask = bytearray(size)
    mask[source] = 1
    stack = list(succ_views[source])
    while stack:
        current = stack.pop()
        if current == target:
            return True
        if mask[current]:
            continue
        mask[current] = 1
        stack.extend(succ_views[current])
    return False


def _run_reachable(succ_views: Views, source: int, target: int,
                   size: int) -> bool:
    deadline = _cancel.current()
    if deadline is None:
        return _reachable(succ_views, source, target, size)
    return _reachable_checked(succ_views, source, target, size, deadline)


def _reachable_checked(succ_views: Views, source: int, target: int,
                       size: int, deadline) -> bool:
    mask = bytearray(size)
    mask[source] = 1
    stack = list(succ_views[source])
    countdown = _CHECK_EVERY
    while stack:
        current = stack.pop()
        if current == target:
            return True
        if mask[current]:
            continue
        mask[current] = 1
        stack.extend(succ_views[current])
        countdown -= 1
        if not countdown:
            deadline.check("kernel.reachable")
            countdown = _CHECK_EVERY
    return False


def _reachable_counted(succ_views: Views, source: int, target: int,
                       size: int, deadline=None) -> Tuple[bool, int, int]:
    """:func:`_reachable` plus (visited, edges-scanned) counters.

    The early exit discards traversal state, so cost attribution needs
    this counting twin; it only runs under an active profile capture
    (and honors a deadline when the capture races one).
    """
    mask = bytearray(size)
    mask[source] = 1
    visited = 1
    edges = len(succ_views[source])
    stack = list(succ_views[source])
    countdown = _CHECK_EVERY
    while stack:
        current = stack.pop()
        if current == target:
            return True, visited, edges
        if mask[current]:
            continue
        mask[current] = 1
        visited += 1
        edges += len(succ_views[current])
        stack.extend(succ_views[current])
        if deadline is not None:
            countdown -= 1
            if not countdown:
                deadline.check("kernel.reachable")
                countdown = _CHECK_EVERY
    return False, visited, edges


def multi_source_reach(views: Views, starts: Iterable[int], size: int,
                       barrier: Optional[bytes] = None) -> List[int]:
    """Forward closure from many starts, excluding the starts.

    Nodes whose ``barrier`` byte is set are neither included nor
    expanded — the Definition 4.1 "no output node on the path" rule
    when ``barrier`` flags OUTPUT-kind rows.
    """
    starts = list(starts)  # the kernels walk it twice: mark, then seed
    prof = _profile.active()
    if prof is None and not _obs.enabled():
        return _run_multi_source_reach(views, starts, size, barrier)
    started = _perf()
    reached = _run_multi_source_reach(views, starts, size, barrier)
    seconds = _perf() - started
    if _obs.enabled():
        _obs.observe("kernel.multi_reach.run_seconds", seconds)
        _obs.count("kernel.multi_reach.visited_total", len(reached))
    if prof is not None:
        prof.step("kernel.multi_reach", seconds=seconds,
                  nodes_visited=len(reached),
                  edges_scanned=_edges_scanned(views, starts, reached),
                  mask_bytes=size, sources=len(starts))
    return reached


def _multi_source_reach(views: Views, starts: List[int], size: int,
                        barrier: Optional[bytes] = None) -> List[int]:
    mask = bytearray(size)
    stack: List[int] = []
    extend = stack.extend
    for start in starts:
        mask[start] = 1
    for start in starts:
        extend(views[start])
    reached: List[int] = []
    append = reached.append
    pop = stack.pop
    if barrier is None:
        while stack:
            current = pop()
            if mask[current]:
                continue
            mask[current] = 1
            append(current)
            extend(views[current])
    else:
        while stack:
            current = pop()
            if mask[current]:
                continue
            mask[current] = 1
            if barrier[current]:
                continue
            append(current)
            extend(views[current])
    return reached


def _run_multi_source_reach(views: Views, starts: List[int], size: int,
                            barrier: Optional[bytes] = None) -> List[int]:
    deadline = _cancel.current()
    if deadline is None:
        return _multi_source_reach(views, starts, size, barrier)
    return _multi_source_reach_checked(views, starts, size, barrier,
                                       deadline)


def _multi_source_reach_checked(views: Views, starts: List[int],
                                size: int, barrier: Optional[bytes],
                                deadline) -> List[int]:
    mask = bytearray(size)
    stack: List[int] = []
    extend = stack.extend
    for start in starts:
        mask[start] = 1
    for start in starts:
        extend(views[start])
    reached: List[int] = []
    append = reached.append
    pop = stack.pop
    countdown = _CHECK_EVERY
    while stack:
        current = pop()
        if mask[current]:
            continue
        mask[current] = 1
        if barrier is None or not barrier[current]:
            append(current)
            extend(views[current])
        countdown -= 1
        if not countdown:
            deadline.check("kernel.multi_reach")
            countdown = _CHECK_EVERY
    return reached


# ----------------------------------------------------------------------
# Topological order
# ----------------------------------------------------------------------
def topo_order(pred_views: Views, succ_views: Views,
               node_ids: Iterable[int], size: int) -> List[int]:
    """Kahn's algorithm over flat views; caller compares ``len(order)``
    against the live node count to detect cycles."""
    prof = _profile.active()
    if prof is None and not _obs.enabled():
        return _run_topo_order(pred_views, succ_views, node_ids, size)
    started = _perf()
    order = _run_topo_order(pred_views, succ_views, node_ids, size)
    seconds = _perf() - started
    if _obs.enabled():
        _obs.observe("kernel.topo.run_seconds", seconds)
        _obs.count("kernel.topo.visited_total", len(order))
    if prof is not None:
        prof.step("kernel.topo", seconds=seconds, nodes_visited=len(order),
                  edges_scanned=_edges_scanned(succ_views, (), order),
                  mask_bytes=size)
    return order


def _topo_order(pred_views: Views, succ_views: Views,
                node_ids: Iterable[int], size: int) -> List[int]:
    in_degrees = [0] * size
    frontier: List[int] = []
    for node_id in node_ids:
        degree = len(pred_views[node_id])
        in_degrees[node_id] = degree
        if degree == 0:
            frontier.append(node_id)
    order: List[int] = []
    append = order.append
    pop = frontier.pop
    while frontier:
        current = pop()
        append(current)
        for succ in succ_views[current]:
            remaining = in_degrees[succ] - 1
            in_degrees[succ] = remaining
            if remaining == 0:
                frontier.append(succ)
    return order


def _run_topo_order(pred_views: Views, succ_views: Views,
                    node_ids: Iterable[int], size: int) -> List[int]:
    deadline = _cancel.current()
    if deadline is None:
        return _topo_order(pred_views, succ_views, node_ids, size)
    return _topo_order_checked(pred_views, succ_views, node_ids, size,
                               deadline)


def _topo_order_checked(pred_views: Views, succ_views: Views,
                        node_ids: Iterable[int], size: int,
                        deadline) -> List[int]:
    in_degrees = [0] * size
    frontier: List[int] = []
    for node_id in node_ids:
        degree = len(pred_views[node_id])
        in_degrees[node_id] = degree
        if degree == 0:
            frontier.append(node_id)
    order: List[int] = []
    append = order.append
    pop = frontier.pop
    countdown = _CHECK_EVERY
    while frontier:
        current = pop()
        append(current)
        for succ in succ_views[current]:
            remaining = in_degrees[succ] - 1
            in_degrees[succ] = remaining
            if remaining == 0:
                frontier.append(succ)
        countdown -= 1
        if not countdown:
            deadline.check("kernel.topo")
            countdown = _CHECK_EVERY
    return order


# ----------------------------------------------------------------------
# Subgraph query (§5.1)
# ----------------------------------------------------------------------
def subgraph_sets(pred_views: Views, succ_views: Views, node_id: int,
                  size: int) -> Tuple[Set[int], Set[int], Set[int]]:
    """(ancestors, descendants, siblings-of-descendants) of a node.

    One membership mask serves both sweeps (a DAG's ancestor and
    descendant sets are disjoint, so the two BFS passes share it
    without re-marking), and the sibling set falls out of C-level set
    algebra over descendant operand views — no per-candidate Python
    loop.
    """
    prof = _profile.active()
    if prof is None and not _obs.enabled():
        return _run_subgraph_sets(pred_views, succ_views, node_id, size)
    started = _perf()
    sets = _run_subgraph_sets(pred_views, succ_views, node_id, size)
    seconds = _perf() - started
    if _obs.enabled():
        _obs.observe("kernel.subgraph.run_seconds", seconds)
        _obs.count("kernel.subgraph.visited_total", sum(map(len, sets)))
    if prof is not None:
        ancestors, descendants, siblings = sets
        edges = (_edges_scanned(succ_views, (node_id,), descendants)
                 + _edges_scanned(pred_views, (node_id,), ancestors)
                 + sum(len(pred_views[index]) for index in descendants))
        prof.step("kernel.subgraph", seconds=seconds,
                  nodes_visited=sum(map(len, sets)), edges_scanned=edges,
                  mask_bytes=size, ancestors=len(ancestors),
                  descendants=len(descendants), siblings=len(siblings))
    return sets


def _subgraph_sets(pred_views: Views, succ_views: Views, node_id: int,
                   size: int) -> Tuple[Set[int], Set[int], Set[int]]:
    member = bytearray(size)
    member[node_id] = 1
    descendants: List[int] = []
    append = descendants.append
    stack = list(succ_views[node_id])
    pop = stack.pop
    extend = stack.extend
    while stack:
        current = pop()
        if member[current]:
            continue
        member[current] = 1
        append(current)
        extend(succ_views[current])
    ancestors: List[int] = []
    append = ancestors.append
    stack = list(pred_views[node_id])
    pop = stack.pop
    extend = stack.extend
    while stack:
        current = pop()
        if member[current]:
            continue
        member[current] = 1
        append(current)
        extend(pred_views[current])
    siblings: List[int] = []
    append = siblings.append
    for index in descendants:
        for operand in pred_views[index]:
            if not member[operand]:
                member[operand] = 1
                append(operand)
    return set(ancestors), set(descendants), set(siblings)


def _run_subgraph_sets(pred_views: Views, succ_views: Views, node_id: int,
                       size: int) -> Tuple[Set[int], Set[int], Set[int]]:
    deadline = _cancel.current()
    if deadline is None:
        return _subgraph_sets(pred_views, succ_views, node_id, size)
    return _subgraph_sets_checked(pred_views, succ_views, node_id, size,
                                  deadline)


def _subgraph_sets_checked(pred_views: Views, succ_views: Views,
                           node_id: int, size: int,
                           deadline) -> Tuple[Set[int], Set[int], Set[int]]:
    member = bytearray(size)
    member[node_id] = 1
    countdown = _CHECK_EVERY
    descendants: List[int] = []
    append = descendants.append
    stack = list(succ_views[node_id])
    pop = stack.pop
    extend = stack.extend
    while stack:
        current = pop()
        if member[current]:
            continue
        member[current] = 1
        append(current)
        extend(succ_views[current])
        countdown -= 1
        if not countdown:
            deadline.check("kernel.subgraph")
            countdown = _CHECK_EVERY
    ancestors: List[int] = []
    append = ancestors.append
    stack = list(pred_views[node_id])
    pop = stack.pop
    extend = stack.extend
    while stack:
        current = pop()
        if member[current]:
            continue
        member[current] = 1
        append(current)
        extend(pred_views[current])
        countdown -= 1
        if not countdown:
            deadline.check("kernel.subgraph")
            countdown = _CHECK_EVERY
    siblings: List[int] = []
    append = siblings.append
    for index in descendants:
        for operand in pred_views[index]:
            if not member[operand]:
                member[operand] = 1
                append(operand)
        countdown -= 1
        if not countdown:
            deadline.check("kernel.subgraph")
            countdown = _CHECK_EVERY
    return set(ancestors), set(descendants), set(siblings)


# ----------------------------------------------------------------------
# Deletion propagation (Definition 4.2)
# ----------------------------------------------------------------------
def deletion_reach(succ_views: Views, pred_views: Views,
                   seeds: Sequence[int], joint_flags: bytes) -> Set[int]:
    """The node set Definition 4.2 removes, by forward BFS with
    remaining-incoming-edge counters.

    ``joint_flags`` marks ·/⊗-labeled rows (rule 2): they die on the
    first deleted incoming edge, no counter bookkeeping needed.
    """
    prof = _profile.active()
    if prof is None and not _obs.enabled():
        return _run_deletion_reach(succ_views, pred_views, seeds,
                                   joint_flags)
    started = _perf()
    removed = _run_deletion_reach(succ_views, pred_views, seeds, joint_flags)
    seconds = _perf() - started
    if _obs.enabled():
        _obs.observe("kernel.deletion.run_seconds", seconds)
        _obs.count("kernel.deletion.removed_total", len(removed))
    if prof is not None:
        prof.step("kernel.deletion", seconds=seconds,
                  nodes_visited=len(removed),
                  edges_scanned=_edges_scanned(succ_views, (), removed),
                  mask_bytes=len(joint_flags), seeds=len(seeds))
    return removed


def _deletion_reach(succ_views: Views, pred_views: Views,
                    seeds: Sequence[int], joint_flags: bytes) -> Set[int]:
    removed: Set[int] = set()
    removed_add = removed.add
    remaining_in: Dict[int, int] = {}
    remaining_get = remaining_in.get
    queue = deque(dict.fromkeys(seeds))
    removed.update(queue)
    queue_append = queue.append
    while queue:
        current = queue.popleft()
        for successor in succ_views[current]:
            if successor in removed:
                continue
            if joint_flags[successor]:
                removed_add(successor)
                queue_append(successor)
                continue
            remaining = remaining_get(successor)
            if remaining is None:
                remaining = len(pred_views[successor])
            remaining -= 1
            if remaining == 0:
                removed_add(successor)
                queue_append(successor)
            else:
                remaining_in[successor] = remaining
    return removed


def _run_deletion_reach(succ_views: Views, pred_views: Views,
                        seeds: Sequence[int],
                        joint_flags: bytes) -> Set[int]:
    deadline = _cancel.current()
    if deadline is None:
        return _deletion_reach(succ_views, pred_views, seeds, joint_flags)
    return _deletion_reach_checked(succ_views, pred_views, seeds,
                                   joint_flags, deadline)


def _deletion_reach_checked(succ_views: Views, pred_views: Views,
                            seeds: Sequence[int], joint_flags: bytes,
                            deadline) -> Set[int]:
    removed: Set[int] = set()
    removed_add = removed.add
    remaining_in: Dict[int, int] = {}
    remaining_get = remaining_in.get
    queue = deque(dict.fromkeys(seeds))
    removed.update(queue)
    queue_append = queue.append
    countdown = _CHECK_EVERY
    while queue:
        current = queue.popleft()
        for successor in succ_views[current]:
            if successor in removed:
                continue
            if joint_flags[successor]:
                removed_add(successor)
                queue_append(successor)
                continue
            remaining = remaining_get(successor)
            if remaining is None:
                remaining = len(pred_views[successor])
            remaining -= 1
            if remaining == 0:
                removed_add(successor)
                queue_append(successor)
            else:
                remaining_in[successor] = remaining
        countdown -= 1
        if not countdown:
            deadline.check("kernel.deletion")
            countdown = _CHECK_EVERY
    return removed


# ----------------------------------------------------------------------
# Bitset helpers (ReachabilityIndex rows)
# ----------------------------------------------------------------------
try:
    _popcount = int.bit_count  # Python >= 3.10
except AttributeError:  # pragma: no cover - older interpreters
    def _popcount(mask: int) -> int:
        return bin(mask).count("1")


def popcount(mask: int) -> int:
    """Number of set bits in a bitmask."""
    return _popcount(mask)


#: 16-bit chunk value → set-bit positions, built lazily on first use
#: (~65k tuples; worth it once an index materializes any row).
_CHUNK_BITS: Optional[Tuple[Tuple[int, ...], ...]] = None


def _chunk_table() -> Tuple[Tuple[int, ...], ...]:
    global _CHUNK_BITS
    table = _CHUNK_BITS
    if table is None:
        table = tuple(tuple(bit for bit in range(16) if value >> bit & 1)
                      for value in range(1 << 16))
        _CHUNK_BITS = table
    return table


def warm_tables() -> None:
    """Precompute the fallback chunk table (no-op when numpy serves
    :func:`mask_to_ids`).  Index builders call this so the one-time
    table cost lands in construction, not in the first query."""
    if _np is None:
        _chunk_table()


def mask_to_ids(mask: int) -> List[int]:
    """Set-bit positions of a bitmask, ascending.

    With numpy: ``unpackbits`` + ``flatnonzero`` at C speed.  Without:
    16 bits at a time through a precomputed chunk table — O(bits/16 +
    set bits) either way, instead of O(set bits) big-int shifts.
    """
    if not mask:
        return []
    chunk_count = (mask.bit_length() + 15) // 16
    data = mask.to_bytes(chunk_count * 2, "little")
    if _np is not None:
        bits = _np.unpackbits(_np.frombuffer(data, dtype=_np.uint8),
                              bitorder="little")
        return _np.flatnonzero(bits).tolist()
    table = _chunk_table()
    out: List[int] = []
    append = out.append
    base = 0
    for chunk in _struct.unpack(f"<{chunk_count}H", data):
        if chunk:
            for bit in table[chunk]:
                append(base + bit)
        base += 16
    return out
