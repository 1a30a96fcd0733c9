"""Fig 5(a): Car dealerships execution time, with vs without provenance.

Paper claim: provenance tracking roughly doubles-to-triples per-
execution time (2.7 s → 7 s at 10 prior executions; 3.8 s → 11.9 s at
100), and the overhead grows with the number of prior executions
because dealer state (bid history) grows.

These benchmarks time workflow executions with and without tracking;
the companion assertion checks the with/without ordering on the work
itself: the provenance nodes each side emits.
"""

import pytest

from repro.benchmark import run_dealerships
from conftest import DEALER_NUM_CARS

HISTORY = 5


def _history(track: bool):
    return run_dealerships(num_cars=DEALER_NUM_CARS, num_exec=HISTORY,
                           track=track, force_decline=True)


@pytest.mark.benchmark(group="fig5a")
def test_execution_with_provenance(benchmark):
    benchmark(lambda: run_dealerships(num_cars=DEALER_NUM_CARS, num_exec=2,
                                      track=True, force_decline=True))


@pytest.mark.benchmark(group="fig5a")
def test_execution_without_provenance(benchmark):
    benchmark(lambda: run_dealerships(num_cars=DEALER_NUM_CARS, num_exec=2,
                                      track=False, force_decline=True))


@pytest.mark.benchmark(group="fig5a-shape")
def test_shape_tracking_has_overhead(benchmark):
    """Paper shape: with-provenance does strictly more work — the same
    executions, plus a provenance graph nothing else emits."""
    tracked = benchmark.pedantic(lambda: _history(True), rounds=1,
                                 iterations=1)
    untracked = _history(False)
    assert len(tracked.execution_seconds) == \
        len(untracked.execution_seconds) == HISTORY
    assert untracked.graph is None
    assert tracked.graph.node_count > 0
    assert tracked.graph.edge_count > 0
