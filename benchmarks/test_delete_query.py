"""§5.6 Delete: deletion propagation performance.

Paper claims: "Because there is no need to look at ancestors of a
node, this query traverses a much smaller subgraph than a subgraph
query", with per-node processing times under 1 ms in most cases and
at most 10-13 ms.

The *query* is the removed-set computation (:func:`deletion_set`);
materializing the residual graph (``propagate_deletion``) is the
optional second step and is benchmarked separately.
"""

import pytest

from repro.obs import profile
from repro.queries import (
    deletion_set,
    highest_fanout_nodes,
    propagate_deletion,
    subgraph_query,
)


@pytest.mark.benchmark(group="delete")
def test_delete_query(benchmark, dealership_graph):
    node = highest_fanout_nodes(dealership_graph, 1)[0]
    removed = benchmark(deletion_set, dealership_graph, [node])
    assert len(removed) >= 1


@pytest.mark.benchmark(group="delete")
def test_delete_materialized(benchmark, dealership_graph):
    node = highest_fanout_nodes(dealership_graph, 1)[0]
    result = benchmark(propagate_deletion, dealership_graph, [node])
    assert result.removed_count >= 1


@pytest.mark.benchmark(group="delete-shape")
def test_shape_delete_cheaper_than_subgraph(benchmark, dealership_graph):
    """Deletion looks only at descendants, so the query traverses a
    subset of what the corresponding subgraph query touches (counted
    as edges scanned, which repeat exactly, not as seconds)."""
    nodes = highest_fanout_nodes(dealership_graph, 20)

    def compare():
        delete_edges = 0
        subgraph_edges = 0
        for node in nodes:
            with profile.capture("deletion", nodes=[node]) as cap:
                removed = deletion_set(dealership_graph, [node])
            delete_edges += cap.plan.counters_total()["edges_scanned"]
            with profile.capture("subgraph", node=node) as cap:
                result = subgraph_query(dealership_graph, node)
            subgraph_edges += cap.plan.counters_total()["edges_scanned"]
            # The deletion frontier is within the node's descendants.
            assert removed - {node} <= result.descendants
        return delete_edges, subgraph_edges

    delete_edges, subgraph_edges = benchmark.pedantic(
        compare, rounds=1, iterations=1)
    assert delete_edges < subgraph_edges
