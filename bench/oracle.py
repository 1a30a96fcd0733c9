"""An independent oracle for every answer the benchmark checks.

Adjacency lists are copied out of a graph through its public
``node_ids()`` / ``preds()`` / ``succs()`` once; after that nothing
here calls the program.  Traversals are plain breadth-first searches
and the deletion set is the naive fixpoint of Definition 4.2, so they
share no code with the kernels, the CSR snapshot or the pushdown tier
they are compared against.  The graphs come from running the workload
generator in the benchmark process, not from the store under test.
"""

from __future__ import annotations

from array import array
from typing import Dict, FrozenSet, Iterable, Set, Tuple


class Oracle:
    """Reference answers over one provenance graph."""

    def __init__(self, graph) -> None:
        from repro.graph.nodes import MULTIPLICATIVE_KINDS
        self.node_count = graph.node_count
        self.edge_count = graph.edge_count
        self.ids = list(graph.node_ids())
        self.preds: Dict[int, Tuple[int, ...]] = {
            node: tuple(graph.preds(node)) for node in self.ids}
        self.succs: Dict[int, Tuple[int, ...]] = {
            node: tuple(graph.succs(node)) for node in self.ids}
        # kind_flags, not node(): node() caches a facade object per
        # node inside the graph, and reading must leave it as it was.
        flags = graph.kind_flags(MULTIPLICATIVE_KINDS)
        self.joint: FrozenSet[int] = frozenset(
            node for node in self.ids if flags[node])

    def _reach(self, start: int, edges: Dict[int, Tuple[int, ...]]) -> Set[int]:
        seen: Set[int] = set()
        frontier = [start]
        while frontier:
            following = []
            for node in frontier:
                for neighbour in edges[node]:
                    if neighbour not in seen:
                        seen.add(neighbour)
                        following.append(neighbour)
            frontier = following
        seen.discard(start)
        return seen

    def ancestors(self, node: int) -> Set[int]:
        return self._reach(node, self.preds)

    def descendants(self, node: int) -> Set[int]:
        return self._reach(node, self.succs)

    def reachable(self, source: int, target: int) -> bool:
        return source == target or target in self.descendants(source)

    def subgraph(self, node: int) -> Tuple[Set[int], Set[int], Set[int]]:
        """(ancestors, descendants, siblings of descendants): §5.1."""
        ancestors = self.ancestors(node)
        descendants = self.descendants(node)
        known = ancestors | descendants | {node}
        siblings = {operand for member in descendants
                    for operand in self.preds[member]} - known
        return ancestors, descendants, siblings

    def deletion_set(self, seeds: Iterable[int]) -> Set[int]:
        """Definition 4.2 as a fixpoint: drop a node once all of its
        incoming edges are gone, or, if it is labelled · or ⊗, once
        one is.  Only descendants of the seeds can ever qualify."""
        removed = set(seeds)
        candidates: Set[int] = set()
        for seed in removed:
            candidates |= self.descendants(seed)
        candidates -= removed
        changed = True
        while changed:
            changed = False
            for node in sorted(candidates):
                incoming = self.preds[node]
                dead = sum(1 for source in incoming if source in removed)
                if (incoming and dead == len(incoming)) or (
                        dead and node in self.joint):
                    removed.add(node)
                    candidates.discard(node)
                    changed = True
        return removed

    def answer(self, verb: str, node: int):
        if verb == "ancestors":
            return self.ancestors(node)
        if verb == "descendants":
            return self.descendants(node)
        if verb == "subgraph":
            return self.subgraph(node)
        if verb == "deletion":
            return self.deletion_set([node])
        raise ValueError(verb)


def canonical(verb: str, answer):
    """An answer as sorted id arrays (three of them for a subgraph).

    Arrays compare by value and, unlike sets, are invisible to the
    garbage collector: thousands of expected answers kept through the
    measured phase would otherwise be rescanned by every full
    collection the program's own allocations trigger.
    """
    if verb == "subgraph":
        parts = (answer if isinstance(answer, tuple) else
                 (answer.ancestors, answer.descendants, answer.siblings))
        return tuple(array("q", sorted(part)) for part in parts)
    return array("q", sorted(answer))


def same_answer(verb: str, got, expected) -> bool:
    """Whether the program's answer equals the oracle's; ``expected``
    is an oracle answer, raw or already :func:`canonical`."""
    if not isinstance(expected if verb != "subgraph" else expected[0], array):
        expected = canonical(verb, expected)
    return canonical(verb, got) == expected
