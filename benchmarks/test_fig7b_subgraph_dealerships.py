"""Fig 7(b): subgraph query time vs result size (Car dealerships).

Paper claims: processing time increases approximately linearly with
subgraph size and stays sub-second (under 0.2 s for subgraphs of
40k nodes on 2011 hardware); nodes are chosen by highest fan-out.
"""

import pytest

from repro.obs import profile
from repro.queries import highest_fanout_nodes, subgraph_query


@pytest.mark.benchmark(group="fig7b")
def test_subgraph_highest_fanout(benchmark, dealership_graph):
    node = highest_fanout_nodes(dealership_graph, 1)[0]
    result = benchmark(subgraph_query, dealership_graph, node)
    assert result.size > 0


@pytest.mark.benchmark(group="fig7b-shape")
def test_shape_time_grows_with_size(benchmark, dealership_graph):
    def measure(node):
        with profile.capture("subgraph", node=node) as cap:
            result = subgraph_query(dealership_graph, node)
        return cap.plan.counters_total()["edges_scanned"], result.size

    nodes = highest_fanout_nodes(dealership_graph, 50)
    samples = benchmark.pedantic(
        lambda: [measure(node) for node in nodes], rounds=1, iterations=1)
    samples.sort(key=lambda sample: sample[1])
    small_work = sum(edges for edges, _size in samples[:10])
    large_work = sum(edges for edges, _size in samples[-10:])
    # Bigger subgraphs cost more (the paper's linear trend), counted
    # as edges scanned rather than seconds so the check is repeatable.
    assert large_work > small_work
