"""Tests for the WorkflowGen measurement helpers and the experiment
runner (shapes of every figure's table at tiny scale)."""

import pytest

from repro.benchmark import (
    TimedRun,
    measure_delete_queries,
    measure_graph_build,
    measure_subgraph_queries,
    measure_zoom_out,
    measure_zoom_roundtrip,
    run_arctic,
    run_dealerships,
)
from repro.benchmark import runner as runner_module
from repro.benchmark.runner import (
    EXPERIMENTS,
    experiment_fig5a,
    experiment_fig5b,
    experiment_fig6a,
    experiment_fig6b,
    experiment_fig7a,
    experiment_fig7b,
    experiment_provenance_size,
    main,
)
from repro.obs import profile
from repro.queries import Zoomer


class TestTimedRuns:
    def test_run_dealerships_tracked(self):
        outcome = run_dealerships(num_cars=12, num_exec=2, track=True,
                                  force_decline=True)
        assert len(outcome.execution_seconds) == 2
        assert outcome.graph is not None
        assert outcome.graph.node_count > 0
        assert outcome.mean_seconds > 0

    def test_run_dealerships_untracked(self):
        outcome = run_dealerships(num_cars=12, num_exec=1, track=False)
        assert outcome.graph is None

    def test_tracking_overhead_positive_at_scale(self):
        tracked = run_dealerships(num_cars=200, num_exec=3, track=True,
                                  force_decline=True)
        untracked = run_dealerships(num_cars=200, num_exec=3, track=False,
                                    force_decline=True)
        # Fig 5(a): tracking costs overhead — the same executions plus
        # a provenance graph to emit (counted, not timed).
        assert len(tracked.execution_seconds) == \
            len(untracked.execution_seconds) == 3
        assert untracked.graph is None
        assert tracked.graph.node_count > 0

    def test_run_arctic(self):
        outcome = run_arctic("serial", 2, num_exec=2, history_years=1)
        assert len(outcome.execution_seconds) == 2
        assert outcome.graph.node_count > 0

    def test_timed_run_empty(self):
        empty = TimedRun([], None)
        assert empty.mean_seconds == 0.0


class TestMeasurementHelpers:
    @pytest.fixture(scope="class")
    def small_graph(self):
        return run_dealerships(num_cars=12, num_exec=2, track=True,
                               force_decline=True).graph

    def test_measure_graph_build(self, small_graph):
        seconds, rebuilt = measure_graph_build(small_graph)
        assert seconds > 0
        assert rebuilt.node_count == small_graph.node_count

    def test_measure_graph_build_with_path(self, small_graph, tmp_path):
        path = str(tmp_path / "spool.jsonl")
        seconds, _rebuilt = measure_graph_build(small_graph, path)
        assert seconds > 0

    def test_measure_zoom_out(self, small_graph):
        seconds, zoomed = measure_zoom_out(small_graph, ["Magg"])
        assert seconds > 0
        assert zoomed.node_count < small_graph.node_count

    def test_measure_zoom_roundtrip(self, small_graph):
        out_seconds, in_seconds = measure_zoom_roundtrip(small_graph, ["Magg"])
        assert out_seconds > 0 and in_seconds > 0

    def test_measure_subgraph_queries(self, small_graph):
        samples = measure_subgraph_queries(small_graph, 5)
        assert len(samples) == 5
        for _node, seconds, size in samples:
            assert seconds >= 0 and size >= 0

    def test_measure_delete_queries(self, small_graph):
        samples = measure_delete_queries(small_graph, 5)
        assert len(samples) == 5
        for _node, _seconds, removed in samples:
            assert removed >= 1


class TestExperimentShapes:
    def test_fig5a_rows(self):
        rows = experiment_fig5a(num_cars=12, exec_counts=(1, 2))
        assert len(rows) == 2
        for num_exec, tracked, untracked in rows:
            assert tracked > 0 and untracked > 0

    def test_fig5b_rows(self):
        rows = experiment_fig5b(num_stations=2, num_exec=1, history_years=1)
        assert [row[0] for row in rows] == ["parallel", "serial", "dense"]

    def test_fig6a_rows_monotone_nodes(self):
        rows = experiment_fig6a(num_cars=12, exec_counts=(1, 3))
        assert rows[1][1] > rows[0][1]  # more executions ⇒ more nodes

    def test_fig6b_row_shape(self):
        rows = experiment_fig6b(module_counts=(2,), num_exec=2,
                                history_years=1)
        assert [row[0] for row in rows] == ["all", "season", "month", "year"]
        assert all(row[1] > 0 for row in rows)

    def test_fig6b_mechanism_lower_selectivity_bigger_graph(self):
        # The timing ordering of Fig 6(b) comes from graph size; at
        # test scale we assert the size ordering (timings are noisy).
        all_graph = run_arctic("dense", 2, 2, "all", num_exec=2,
                               history_years=1).graph
        year_graph = run_arctic("dense", 2, 2, "year", num_exec=2,
                                history_years=1).graph
        assert all_graph.edge_count > year_graph.edge_count

    def test_fig7a_rows(self):
        rows = experiment_fig7a(num_cars=12, exec_counts=(2,))
        (_num_exec, nodes, *seconds) = rows[0]
        assert nodes > 0
        assert len(seconds) == 4 and min(seconds) >= 0
        # Dealers have more instances, so their ZoomOut visits more
        # nodes (the plan's counters, not the timings above).
        graph = run_dealerships(num_cars=12, num_exec=2, track=True,
                                force_decline=True).graph

        def zoom_work(modules):
            with profile.capture("zoom") as cap:
                Zoomer(graph.copy()).zoom_out(modules)
            return cap.plan.counters_total()["nodes_visited"]

        dealers = [f"Mdealer{index}" for index in range(1, 5)]
        assert zoom_work(dealers) > zoom_work(["Magg"])

    def test_fig7b_rows_sorted(self):
        rows = experiment_fig7b(num_cars=12, num_exec=2, node_count=5)
        sizes = [row[0] for row in rows]
        assert sizes == sorted(sizes)

    def test_provenance_size_fraction_bounds(self):
        rows = experiment_provenance_size(num_cars=40, num_exec=2)
        assert rows
        for _node, used, total, fraction in rows:
            assert 0 < used <= total
            assert 0 < fraction < 100.0

    def test_experiments_registry_complete(self):
        expected = {"fig5a", "fig5b", "fig5c", "fig6a", "fig6b", "fig6c",
                    "provsize", "fig7a", "fig7b", "fig7c", "delete"}
        assert set(EXPERIMENTS) == expected

    def test_main_rejects_unknown(self, capsys):
        assert main(["not-an-experiment"]) == 2
        assert "unknown experiments" in capsys.readouterr().out

    def test_main_prints_table(self, capsys, monkeypatch):
        monkeypatch.setitem(
            runner_module.EXPERIMENTS, "fig5a",
            (lambda: [(1, 0.1, 0.05)], ("numExec", "a", "b")))
        assert main(["fig5a"]) == 0
        output = capsys.readouterr().out
        assert "fig5a" in output and "numExec" in output
