"""Cooperative cancellation: deadline scopes and kernel checking twins.

The contract under test: with no active scope the kernels run their
original unchecked loops (zero overhead); inside a scope, traversal
checks the wall clock every ``CHECK_EVERY`` expansions and raises
:class:`~repro.errors.DeadlineExceededError`; and a generous deadline
never changes any answer.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro import obs
from repro.errors import DeadlineExceededError
from repro.graph.nodes import NodeKind
from repro.graph.provgraph import ProvenanceGraph
from repro.queries import cancel
from repro.queries.deletion import deletion_set
from repro.queries.kernels import multi_source_reach
from repro.queries.subgraph import subgraph_query
from repro.store.csr import CSRSnapshot


def chain_graph(n: int) -> ProvenanceGraph:
    graph = ProvenanceGraph()
    ids = [graph.add_node(NodeKind.TUPLE, f"t{i}") for i in range(n)]
    for i in range(1, n):
        graph.add_edge(ids[i - 1], ids[i])
    return graph


def sweep(graph: ProvenanceGraph, barrier_at=None):
    """ZoomOut's forward sweep from the chain head, optionally stopped
    by an OUTPUT-style barrier row."""
    adjacency = graph.csr()
    barrier = None
    if barrier_at is not None:
        barrier = bytearray(adjacency.size)
        barrier[barrier_at] = 1
    return multi_source_reach(adjacency.succ_views, [0], adjacency.size,
                              barrier)


class TestDeadlineScope:
    def test_no_scope_means_no_deadline(self):
        assert cancel.current() is None
        assert not cancel.active()
        cancel.check("nowhere")  # must be a no-op

    def test_scope_installs_and_restores(self):
        with cancel.deadline_scope(10.0) as deadline:
            assert cancel.current() is deadline
            assert cancel.active()
            assert deadline.remaining() > 9.0
        assert cancel.current() is None

    def test_none_and_nonpositive_budgets_are_noops(self):
        for budget in (None, 0, -1.0):
            with cancel.deadline_scope(budget) as deadline:
                assert deadline is None
                assert cancel.current() is None

    def test_scopes_nest_and_unwind(self):
        with cancel.deadline_scope(10.0) as outer:
            with cancel.deadline_scope(5.0) as inner:
                assert cancel.current() is inner
            assert cancel.current() is outer
        assert cancel.current() is None

    def test_expired_deadline_raises_with_context(self):
        with cancel.deadline_scope(0.000001) as deadline:
            time.sleep(0.002)
            assert deadline.expired()
            with pytest.raises(DeadlineExceededError) as excinfo:
                deadline.check("unit.test")
        assert "unit.test" in str(excinfo.value)
        assert excinfo.value.budget_seconds == pytest.approx(0.000001)

    def test_deadlines_are_thread_local(self):
        seen = {}

        def probe():
            seen["other"] = cancel.current()

        with cancel.deadline_scope(10.0):
            worker = threading.Thread(target=probe)
            worker.start()
            worker.join()
        assert seen["other"] is None


class TestKernelCancellation:
    """The checked twins abort long traversals; answers never change."""

    N = 4000  # > CHECK_EVERY so the countdown actually fires

    @pytest.fixture(scope="class")
    def graph(self):
        return chain_graph(self.N)

    def test_expired_deadline_aborts_traversal(self, graph):
        with cancel.deadline_scope(0.000001):
            time.sleep(0.002)
            with pytest.raises(DeadlineExceededError):
                graph.descendants(0)

    def test_all_kernels_honor_expired_deadline(self, graph):
        mid = self.N // 2
        calls = [lambda: graph.descendants(0),
                 lambda: graph.ancestors(self.N - 1),
                 lambda: graph.reachable(0, self.N - 1),
                 lambda: subgraph_query(graph, mid),
                 lambda: deletion_set(graph, [0]),
                 lambda: sweep(graph),
                 lambda: sweep(graph, barrier_at=self.N - 1),
                 lambda: graph.topological_order()]
        for call in calls:
            with cancel.deadline_scope(0.000001):
                time.sleep(0.002)
                with pytest.raises(DeadlineExceededError):
                    call()

    def test_generous_deadline_preserves_answers(self, graph):
        mid = self.N // 2
        plain = (graph.descendants(0), graph.ancestors(self.N - 1),
                 graph.reachable(0, self.N - 1),
                 deletion_set(graph, [mid]), sweep(graph),
                 sweep(graph, barrier_at=mid), graph.topological_order())
        sub_plain = subgraph_query(graph, mid)
        with cancel.deadline_scope(60.0):
            timed = (graph.descendants(0), graph.ancestors(self.N - 1),
                     graph.reachable(0, self.N - 1),
                     deletion_set(graph, [mid]), sweep(graph),
                     sweep(graph, barrier_at=mid), graph.topological_order())
            sub_timed = subgraph_query(graph, mid)
        assert plain == timed
        assert sub_plain.ancestors == sub_timed.ancestors
        assert sub_plain.descendants == sub_timed.descendants
        assert sub_plain.siblings == sub_timed.siblings

    def test_csr_snapshot_honors_deadlines(self, graph):
        snapshot = CSRSnapshot(graph)
        with cancel.deadline_scope(0.000001):
            time.sleep(0.002)
            with pytest.raises(DeadlineExceededError):
                snapshot.descendants(0)
            with pytest.raises(DeadlineExceededError):
                snapshot.reachable(0, self.N - 1)
        # And with room to spare, answers match the graph path.
        with cancel.deadline_scope(60.0):
            assert snapshot.descendants(0) == set(graph.descendants(0))

    def test_multi_source_reach_takes_a_generator_on_every_path(self):
        """The kernels walk ``starts`` twice (mark, then seed), so a
        one-shot iterator must give the same answer on the plain, the
        deadline-checked and the instrumented path."""
        views = [(1,), (2,), (), ()]
        assert multi_source_reach(views, iter([0]), 4) == [1, 2]
        with cancel.deadline_scope(60.0):
            assert multi_source_reach(views, iter([0]), 4) == [1, 2]
        obs.enable(reset=True)
        try:
            assert multi_source_reach(views, iter([0]), 4) == [1, 2]
        finally:
            obs.disable()

    def test_short_traversals_finish_under_tiny_budgets(self):
        # Fewer expansions than CHECK_EVERY: the countdown never fires,
        # so even an absurdly small budget cannot misfire.
        small = chain_graph(16)
        with cancel.deadline_scope(0.000001):
            time.sleep(0.002)
            assert len(small.descendants(0)) == 15
