"""Fig 7(a): ZoomOut / ZoomIn performance.

Paper claims: ZoomOut time is linear in graph size; zooming out the
aggregate module is faster than the dealer modules (far fewer
instances: ≤1 vs ≤5 per execution); ZoomIn is about three times
faster than ZoomOut.
"""

import io

import pytest

from repro.graph import dump_graph
from repro.obs import profile
from repro.queries import Zoomer

DEALERS = [f"Mdealer{index}" for index in range(1, 5)]


@pytest.mark.benchmark(group="fig7a-zoomout")
def test_zoom_out_dealer(benchmark, dealership_graph):
    def zoom():
        duplicate = dealership_graph.copy()
        Zoomer(duplicate).zoom_out(DEALERS)
        return duplicate
    benchmark(zoom)


@pytest.mark.benchmark(group="fig7a-zoomout")
def test_zoom_out_aggregate(benchmark, dealership_graph):
    def zoom():
        duplicate = dealership_graph.copy()
        Zoomer(duplicate).zoom_out(["Magg"])
        return duplicate
    benchmark(zoom)


@pytest.mark.benchmark(group="fig7a-zoomin")
def test_zoom_in_dealer(benchmark, dealership_graph):
    def roundtrip():
        duplicate = dealership_graph.copy()
        zoomer = Zoomer(duplicate)
        zoomer.zoom_out(DEALERS)
        zoomer.zoom_in(DEALERS)
    benchmark(roundtrip)


def dumped(graph):
    buffer = io.StringIO()
    dump_graph(graph, buffer)
    return buffer.getvalue()


@pytest.mark.benchmark(group="fig7a-zoomin")
def test_zoom_all_round_trip_is_exact(benchmark, dealership_graph):
    """ZoomIn(ZoomOut(G, M), M) = G down to operand order: the JSONL
    dump after ZoomOut-all + ZoomIn is byte-identical to the input's."""
    def roundtrip():
        duplicate = dealership_graph.copy()
        zoomer = Zoomer(duplicate)
        zoomer.zoom_in(zoomer.zoom_out_all())
        return duplicate
    restored = benchmark.pedantic(roundtrip, rounds=1, iterations=1)
    assert dumped(restored) == dumped(dealership_graph)


def zoom_work(graph, modules):
    """Nodes the ZoomOut sweeps visit, from the query plan's counters
    (deterministic, unlike a wall-clock sample)."""
    with profile.capture("zoom") as cap:
        Zoomer(graph.copy()).zoom_out(modules)
    return cap.plan.counters_total()["nodes_visited"]


@pytest.mark.benchmark(group="fig7a-shape")
def test_shape_dealer_slower_than_aggregate(benchmark, dealership_graph):
    """Dealer invocations outnumber aggregate invocations, so dealer
    zoom touches more nodes (the paper's explanation of the gap)."""
    dealer_work = benchmark.pedantic(
        lambda: zoom_work(dealership_graph, DEALERS), rounds=1, iterations=1)
    agg_work = zoom_work(dealership_graph, ["Magg"])
    dealer_invocations = len(dealership_graph.invocations_of("Mdealer1")) * 4
    agg_invocations = len(dealership_graph.invocations_of("Magg"))
    assert dealer_invocations > agg_invocations
    assert dealer_work > agg_work
