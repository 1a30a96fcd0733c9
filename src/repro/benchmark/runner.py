"""Experiment runner: regenerates every figure's data as text tables.

Each ``experiment_*`` function reproduces one figure/claim of the
paper's Section 5 at a laptop-friendly scale and returns the rows the
paper plots; ``main`` prints them.  The pytest-benchmark suite in
``benchmarks/`` wraps the same functions.

Run from the command line::

    python -m repro.benchmark.runner            # everything
    python -m repro.benchmark.runner fig5a fig7b
"""

from __future__ import annotations

import statistics
import sys
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

from ..engine.cluster import dealership_parallelism_experiment
from ..graph.stats import output_dependency_profiles
from .workflowgen import (
    measure_delete_queries,
    measure_graph_build,
    measure_subgraph_queries,
    measure_zoom_roundtrip,
    run_arctic,
    run_dealerships,
)

Row = Tuple
Table = List[Row]


def _print_table(title: str, headers: Sequence[str], rows: Iterable[Row]) -> None:
    print(f"\n== {title} ==")
    rendered = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in rendered:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    print(" | ".join(header.ljust(width)
                     for header, width in zip(headers, widths)))
    print("-+-".join("-" * width for width in widths))
    for row in rendered:
        print(" | ".join(cell.ljust(width) for cell, width in zip(row, widths)))


def _fmt(cell) -> str:
    if isinstance(cell, float):
        return f"{cell:.4f}"
    return str(cell)


# ----------------------------------------------------------------------
# Fig 5(a): dealership execution time vs prior executions
# ----------------------------------------------------------------------
def experiment_fig5a(num_cars: int = 200,
                     exec_counts: Sequence[int] = (2, 5, 10, 20)) -> Table:
    """Rows: (numExec, mean s/exec with provenance, without)."""
    rows = []
    for num_exec in exec_counts:
        tracked = run_dealerships(num_cars=num_cars, num_exec=num_exec,
                                  track=True, force_decline=True)
        untracked = run_dealerships(num_cars=num_cars, num_exec=num_exec,
                                    track=False, force_decline=True)
        rows.append((num_exec, tracked.mean_seconds, untracked.mean_seconds))
    return rows


# ----------------------------------------------------------------------
# Fig 5(b): Arctic execution time by topology
# ----------------------------------------------------------------------
def experiment_fig5b(num_stations: int = 8, num_exec: int = 10,
                     history_years: int = 2) -> Table:
    """Rows: (topology, mean s/exec with provenance, without, overhead %)."""
    rows = []
    for topology, fan_out in (("parallel", 2), ("serial", 2), ("dense", 3)):
        tracked = run_arctic(topology, num_stations, fan_out, "month",
                             num_exec, history_years, track=True)
        untracked = run_arctic(topology, num_stations, fan_out, "month",
                               num_exec, history_years, track=False)
        overhead = 0.0
        if untracked.mean_seconds:
            overhead = 100.0 * (tracked.mean_seconds - untracked.mean_seconds
                                ) / untracked.mean_seconds
        rows.append((topology, tracked.mean_seconds, untracked.mean_seconds,
                     overhead))
    return rows


# ----------------------------------------------------------------------
# Fig 5(c): impact of parallelism (simulated cluster)
# ----------------------------------------------------------------------
def experiment_fig5c(num_cars: int = 200) -> Table:
    """Rows: (reducers, % improvement with provenance, without)."""
    result = dealership_parallelism_experiment(num_cars=num_cars)
    return result.rows()


# ----------------------------------------------------------------------
# Fig 6(a): graph build time vs node count (Car dealerships)
# ----------------------------------------------------------------------
def experiment_fig6a(num_cars: int = 200,
                     exec_counts: Sequence[int] = (2, 5, 10, 20)) -> Table:
    """Rows: (numExec, graph nodes, build seconds)."""
    rows = []
    for num_exec in exec_counts:
        outcome = run_dealerships(num_cars=num_cars, num_exec=num_exec,
                                  track=True, force_decline=True)
        build_seconds, rebuilt = measure_graph_build(outcome.graph)
        rows.append((num_exec, rebuilt.node_count, build_seconds))
    return rows


# ----------------------------------------------------------------------
# Fig 6(b): build time vs selectivity, dense fan-out 2, module counts
# ----------------------------------------------------------------------
def experiment_fig6b(module_counts: Sequence[int] = (2, 6, 12),
                     num_exec: int = 5, history_years: int = 2) -> Table:
    """Rows: (selectivity, then one build-seconds column per count)."""
    rows = []
    for selectivity in ("all", "season", "month", "year"):
        row: List = [selectivity]
        for num_stations in module_counts:
            outcome = run_arctic("dense", num_stations, 2, selectivity,
                                 num_exec, history_years, track=True)
            build_seconds, _rebuilt = measure_graph_build(outcome.graph)
            row.append(build_seconds)
        rows.append(tuple(row))
    return rows


# ----------------------------------------------------------------------
# Fig 6(c): build time vs selectivity across topologies
# ----------------------------------------------------------------------
def experiment_fig6c(num_stations: int = 12, num_exec: int = 5,
                     history_years: int = 2) -> Table:
    """Rows: (selectivity, serial, parallel, dense f2, dense f3)."""
    shapes = (("serial", 2), ("parallel", 2), ("dense", 2), ("dense", 3))
    rows = []
    for selectivity in ("all", "season", "month", "year"):
        row: List = [selectivity]
        for topology, fan_out in shapes:
            outcome = run_arctic(topology, num_stations, fan_out, selectivity,
                                 num_exec, history_years, track=True)
            build_seconds, _rebuilt = measure_graph_build(outcome.graph)
            row.append(build_seconds)
        rows.append(tuple(row))
    return rows


# ----------------------------------------------------------------------
# §5.5 size claim: fine-grained vs coarse dependency footprint
# ----------------------------------------------------------------------
def experiment_provenance_size(num_cars: int = 200,
                               num_exec: int = 10) -> Table:
    """Rows: (output node, state tuples used, total, fraction %)."""
    outcome = run_dealerships(num_cars=num_cars, num_exec=num_exec,
                              track=True, force_decline=False)
    rows = []
    for profile in output_dependency_profiles(outcome.graph):
        if profile.fine_grained_state == 0:
            continue
        rows.append((profile.output_node, profile.fine_grained_state,
                     profile.total_state, 100.0 * profile.state_fraction))
    return rows


# ----------------------------------------------------------------------
# Fig 7(a): ZoomOut / ZoomIn timings
# ----------------------------------------------------------------------
def experiment_fig7a(num_cars: int = 200,
                     exec_counts: Sequence[int] = (5, 10, 20)) -> Table:
    """Rows: (numExec, nodes, dealer out/in s, aggregate out/in s)."""
    dealer_modules = [f"Mdealer{index}" for index in range(1, 5)]
    rows = []
    for num_exec in exec_counts:
        outcome = run_dealerships(num_cars=num_cars, num_exec=num_exec,
                                  track=True, force_decline=True)
        dealer_out, dealer_in = measure_zoom_roundtrip(outcome.graph,
                                                       dealer_modules)
        agg_out, agg_in = measure_zoom_roundtrip(outcome.graph, ["Magg"])
        rows.append((num_exec, outcome.graph.node_count,
                     dealer_out, dealer_in, agg_out, agg_in))
    return rows


# ----------------------------------------------------------------------
# Fig 7(b): subgraph query time vs result size (Car dealerships)
# ----------------------------------------------------------------------
def experiment_fig7b(num_cars: int = 200, num_exec: int = 10,
                     node_count: int = 50) -> Table:
    """Rows: (subgraph size, query ms), sorted by size."""
    outcome = run_dealerships(num_cars=num_cars, num_exec=num_exec,
                              track=True, force_decline=True)
    samples = measure_subgraph_queries(outcome.graph, node_count)
    rows = [(size, 1000.0 * seconds) for _node, seconds, size in samples]
    return sorted(rows)


# ----------------------------------------------------------------------
# Fig 7(c): subgraph query time by selectivity and topology (Arctic)
# ----------------------------------------------------------------------
def experiment_fig7c(num_stations: int = 12, num_exec: int = 5,
                     history_years: int = 2, node_count: int = 20) -> Table:
    """Rows: (selectivity, serial ms, dense f2 ms, dense f3 ms, parallel ms)."""
    shapes = (("serial", 2), ("dense", 2), ("dense", 3), ("parallel", 2))
    rows = []
    for selectivity in ("all", "season", "month", "year"):
        row: List = [selectivity]
        for topology, fan_out in shapes:
            outcome = run_arctic(topology, num_stations, fan_out, selectivity,
                                 num_exec, history_years, track=True)
            samples = measure_subgraph_queries(outcome.graph, node_count)
            mean_ms = 1000.0 * statistics.mean(seconds
                                               for _node, seconds, _size in samples)
            row.append(mean_ms)
        rows.append(tuple(row))
    return rows


# ----------------------------------------------------------------------
# §5.6 Delete: propagation timings
# ----------------------------------------------------------------------
def experiment_delete(num_cars: int = 200, num_exec: int = 10,
                      node_count: int = 50) -> Table:
    """Rows: (removed nodes, delete ms), sorted by removed count."""
    outcome = run_dealerships(num_cars=num_cars, num_exec=num_exec,
                              track=True, force_decline=True)
    samples = measure_delete_queries(outcome.graph, node_count)
    rows = [(removed, 1000.0 * seconds) for _node, seconds, removed in samples]
    return sorted(rows)


EXPERIMENTS: Dict[str, Tuple[Callable[[], Table], Sequence[str]]] = {
    "fig5a": (experiment_fig5a,
              ("numExec", "s/exec (prov)", "s/exec (no prov)")),
    "fig5b": (experiment_fig5b,
              ("topology", "s/exec (prov)", "s/exec (no prov)", "overhead %")),
    "fig5c": (experiment_fig5c,
              ("reducers", "% improvement (prov)", "% improvement (no prov)")),
    "fig6a": (experiment_fig6a, ("numExec", "nodes", "build s")),
    "fig6b": (experiment_fig6b,
              ("selectivity", "2 modules", "6 modules", "12 modules")),
    "fig6c": (experiment_fig6c,
              ("selectivity", "serial", "parallel", "dense f2", "dense f3")),
    "provsize": (experiment_provenance_size,
                 ("output node", "state used", "state total", "fraction %")),
    "fig7a": (experiment_fig7a,
              ("numExec", "nodes", "dealer out s", "dealer in s",
               "agg out s", "agg in s")),
    "fig7b": (experiment_fig7b, ("subgraph nodes", "query ms")),
    "fig7c": (experiment_fig7c,
              ("selectivity", "serial ms", "dense f2 ms", "dense f3 ms",
               "parallel ms")),
    "delete": (experiment_delete, ("removed nodes", "delete ms")),
}


def main(argv: Sequence[str]) -> int:
    requested = list(argv) or list(EXPERIMENTS)
    unknown = [name for name in requested if name not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {unknown}; "
              f"available: {sorted(EXPERIMENTS)}")
        return 2
    for name in requested:
        function, headers = EXPERIMENTS[name]
        _print_table(name, headers, function())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
