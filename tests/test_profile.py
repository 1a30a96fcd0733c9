"""Unit tests for query profiling: captures, plans, the slow-query
log, retry span annotation and stats gauges.

The service/CLI round-trips for ``repro explain`` live in
``test_explain.py``; this file covers the :mod:`repro.obs.profile`
machinery itself plus the ``retry.attempts``/``retry.slept_s`` span
tags and the cache/shard gauges behind ``repro stats --prom``.
"""

from __future__ import annotations

import json
import sqlite3

import pytest

from repro import obs
from repro.faults.retry import RetryPolicy, retry_call
from repro.obs import profile
from repro.obs.profile import (PlanStep, ProfileCapture, QueryPlan,
                               SlowQueryLog)
from repro.store.catalog import ProvenanceService
from repro.store.memory import MemoryStore


@pytest.fixture(autouse=True)
def _isolated_profiling():
    """Tests never leak a capture, slowlog, or telemetry context."""
    obs.disable()
    profile.disable_slowlog()
    yield
    assert profile.active() is None
    obs.disable()
    profile.disable_slowlog()


def make_plan(seconds=0.25, kind="subgraph", steps=()):
    cap = ProfileCapture(kind, run_id="run-a", params={"node": 3})
    for name, tier, counters in steps:
        cap.step(name, tier=tier, **counters)
    return cap.finish(seconds)


class TestCapture:
    def test_capture_collects_steps_and_clears_itself(self):
        assert profile.active() is None
        with profile.capture("subgraph", run_id="run-a", node=7) as cap:
            assert profile.active() is cap
            cap.step("service.graph", tier="sqlite-cold", seconds=0.01,
                     nodes=10, edges=12)
            cap.step("kernel.subgraph", seconds=0.002, nodes_visited=5,
                     edges_scanned=9, mask_bytes=10)
        assert profile.active() is None
        plan = cap.plan
        assert isinstance(plan, QueryPlan)
        assert plan.kind == "subgraph" and plan.run_id == "run-a"
        assert plan.params == {"node": 7}
        assert [step.name for step in plan.steps] == \
            ["service.graph", "kernel.subgraph"]
        assert plan.seconds > 0

    def test_tiers_first_seen_order_and_dedup(self):
        plan = make_plan(steps=[
            ("a", "sqlite-cold", {}), ("b", "csr-view", {}),
            ("c", None, {}), ("d", "sqlite-cold", {})])
        assert plan.tiers() == ["sqlite-cold", "csr-view"]
        for tier in plan.tiers():
            assert tier in profile.TIERS

    def test_counters_total_sums_numbers_skips_bools(self):
        plan = make_plan(steps=[
            ("a", None, {"nodes_visited": 3, "found": True}),
            ("b", None, {"nodes_visited": 4, "edges_scanned": 7})])
        assert plan.counters_total() == {"nodes_visited": 7,
                                         "edges_scanned": 7}

    def test_to_dict_round_trips_through_json(self):
        plan = make_plan(steps=[("a", "csr-view", {"nodes_visited": 3})])
        plan.summary["size"] = 9
        payload = json.loads(json.dumps(plan.to_dict()))
        assert payload["kind"] == "subgraph"
        assert payload["tiers"] == ["csr-view"]
        assert payload["summary"] == {"size": 9}
        (step,) = payload["steps"]
        assert step["counters"] == {"nodes_visited": 3}

    def test_render_mentions_every_step_and_tier(self):
        plan = make_plan(steps=[("service.graph", "service-lru",
                                 {"nodes": 5})])
        text = plan.render()
        assert "service.graph" in text and "service-lru" in text
        assert "subgraph" in text and "nodes=5" in text

    def test_capture_exception_still_cleans_up(self):
        with pytest.raises(RuntimeError):
            with profile.capture("subgraph", run_id="run-a"):
                raise RuntimeError("boom")
        assert profile.active() is None

    def test_nested_threads_profile_independently(self):
        import threading
        seen = {}

        def other_thread():
            # The outer thread's capture is contextvar-scoped and must
            # not leak into this thread.
            seen["other"] = profile.active()

        with profile.capture("subgraph", run_id="run-a") as cap:
            thread = threading.Thread(target=other_thread)
            thread.start()
            thread.join()
            assert profile.active() is cap
        assert seen["other"] is None


class TestSlowQueryLog:
    def test_threshold_gates_recording(self):
        log = SlowQueryLog(threshold_ms=100.0)
        assert not log.maybe_record(make_plan(seconds=0.05))
        assert log.maybe_record(make_plan(seconds=0.25))
        (entry,) = log.entries()
        assert entry["kind"] == "subgraph"
        assert entry["threshold_ms"] == 100.0
        assert log.recorded() == 1

    def test_ring_drops_oldest_but_counts_all(self):
        log = SlowQueryLog(threshold_ms=0.0, capacity=3)
        for index in range(5):
            plan = make_plan(seconds=0.001 * (index + 1))
            log.maybe_record(plan)
        assert len(log) == 3 and log.recorded() == 5

    def test_jsonl_mirror_and_read_back(self, tmp_path):
        path = tmp_path / "slow.jsonl"
        log = SlowQueryLog(threshold_ms=0.0, path=path)
        log.maybe_record(make_plan(seconds=0.2))
        log.maybe_record(make_plan(seconds=0.3, kind="reachability"))
        entries = profile.read_slowlog(path)
        assert [entry["kind"] for entry in entries] == \
            ["subgraph", "reachability"]

    def test_export_jsonl(self, tmp_path):
        log = SlowQueryLog(threshold_ms=0.0)
        log.maybe_record(make_plan(seconds=0.2))
        out = tmp_path / "export.jsonl"
        assert log.export_jsonl(out) == 1
        assert profile.read_slowlog(out)[0]["kind"] == "subgraph"

    def test_enable_disable_and_snapshot(self):
        assert profile.slowlog() is None
        log = profile.enable_slowlog(threshold_ms=5.0, capacity=7,
                                     reset=True)
        assert profile.slowlog() is log
        assert profile.enable_slowlog(threshold_ms=999.0) is log  # idempotent
        snap = log.snapshot()
        assert snap["threshold_ms"] == 5.0 and snap["capacity"] == 7
        profile.disable_slowlog()
        assert profile.slowlog() is None

    def test_env_threshold_parsing(self, monkeypatch):
        monkeypatch.setenv("REPRO_SLOWLOG_MS", "12.5")
        assert profile._env_threshold_ms() == 12.5
        monkeypatch.setenv("REPRO_SLOWLOG_MS", "junk")
        assert profile._env_threshold_ms(default=3.0) == 3.0
        monkeypatch.delenv("REPRO_SLOWLOG_MS")
        assert profile._env_threshold_ms(default=0.0) == 0.0


class TestQueryScope:
    def test_fast_path_is_shared_null_scope(self):
        scope = profile.query_scope("subgraph", run_id="run-a", node=1)
        assert scope is profile.query_scope("zoom")
        with scope as cap:
            assert cap is None

    def test_slowlog_records_service_query_without_explain(self):
        log = profile.enable_slowlog(threshold_ms=0.0, reset=True)
        with profile.query_scope("subgraph", run_id="run-a", node=1) as cap:
            assert profile.active() is cap
            cap.step("kernel.subgraph", nodes_visited=4)
        (entry,) = log.entries()
        assert entry["kind"] == "subgraph"
        assert entry["steps"][0]["counters"] == {"nodes_visited": 4}

    def test_nested_scope_is_noop_under_outer_capture(self):
        """An EXPLAIN must produce exactly one slowlog entry — the
        outer capture's — not a second, slimmer one from the service
        seam it wraps."""
        log = profile.enable_slowlog(threshold_ms=0.0, reset=True)
        with profile.capture("subgraph", run_id="run-a") as cap:
            with profile.query_scope("subgraph", run_id="run-a") as inner:
                assert inner is None
                assert profile.active() is cap
        assert log.recorded() == 1

    def test_scope_skips_failed_queries(self):
        log = profile.enable_slowlog(threshold_ms=0.0, reset=True)
        with pytest.raises(KeyError):
            with profile.query_scope("subgraph", run_id="run-a"):
                raise KeyError("no such run")
        assert log.recorded() == 0


class TestServiceProfiling:
    """The catalog seams: tier attribution without a store round-trip."""

    @pytest.fixture
    def service(self, dealership_execution):
        store = MemoryStore()
        store.put_graph("run-a", dealership_execution[0])
        return ProvenanceService(store)

    def test_cold_then_warm_graph_tier(self, service):
        with profile.capture("subgraph", run_id="run-a") as cold:
            service.graph("run-a")
        with profile.capture("subgraph", run_id="run-a") as warm:
            service.graph("run-a")
        assert cold.plan.steps[0].tier == "sqlite-cold"
        assert warm.plan.steps[0].tier == "service-lru"
        counters = cold.plan.steps[0].counters
        assert counters["nodes"] > 0 and counters["edges"] > 0

    def test_snapshot_and_index_tiers(self, service):
        with profile.capture("subgraph", run_id="run-a") as cap:
            service.snapshot("run-a")
        assert "frozen-snapshot" in cap.plan.tiers()

    def test_uninstrumented_path_untouched(self, service):
        """No capture, no slowlog: queries take the plain path."""
        node = next(iter(service.graph("run-a").nodes))
        assert service.subgraph("run-a", node).size > 0
        assert profile.active() is None


class TestRetrySpanTags:
    """Satellite: the backoff loop annotates the enclosing span."""

    def _locked_then_ok(self, failures):
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) <= failures:
                raise sqlite3.OperationalError("database is locked")
            return "ok"
        return flaky

    def test_success_after_retries_tags_span(self):
        telemetry = obs.enable(reset=True)
        policy = RetryPolicy(attempts=5, base_seconds=0.01, seed=0)
        with obs.span("store.write"):
            result = retry_call(self._locked_then_ok(2), policy,
                                operation="test", sleep=lambda _s: None)
        assert result == "ok"
        (event,) = telemetry.events.events()
        assert event["tags"]["retry.attempts"] == 3  # 2 failures + success
        assert event["tags"]["retry.slept_s"] > 0

    def test_give_up_tags_failed_attempts(self):
        telemetry = obs.enable(reset=True)
        policy = RetryPolicy(attempts=3, base_seconds=0.01, seed=0)
        with pytest.raises(sqlite3.OperationalError):
            with obs.span("store.write"):
                retry_call(self._locked_then_ok(99), policy,
                           operation="test", sleep=lambda _s: None)
        (event,) = telemetry.events.events()
        assert event["tags"]["retry.attempts"] == 3  # all attempts failed

    def test_zero_retry_path_stays_tag_free(self):
        telemetry = obs.enable(reset=True)
        with obs.span("store.write"):
            retry_call(lambda: "ok", RetryPolicy(attempts=3),
                       operation="test", sleep=lambda _s: None)
        (event,) = telemetry.events.events()
        assert "retry.attempts" not in event["tags"]

    def test_sequential_retries_accumulate_on_one_span(self):
        telemetry = obs.enable(reset=True)
        policy = RetryPolicy(attempts=5, base_seconds=0.01, seed=0)
        with obs.span("store.write"):
            retry_call(self._locked_then_ok(1), policy,
                       operation="test", sleep=lambda _s: None)
            retry_call(self._locked_then_ok(1), policy,
                       operation="test", sleep=lambda _s: None)
        (event,) = telemetry.events.events()
        assert event["tags"]["retry.attempts"] == 4

    def test_no_span_no_telemetry_is_harmless(self):
        policy = RetryPolicy(attempts=5, base_seconds=0.01, seed=0)
        assert retry_call(self._locked_then_ok(1), policy,
                          operation="test", sleep=lambda _s: None) == "ok"


class TestCacheGauges:
    """Satellite: ``repro stats --prom`` exposes cache and shard sizes."""

    def test_record_cache_gauges(self, dealership_execution):
        store = MemoryStore()
        store.put_graph("run-a", dealership_execution[0])
        service = ProvenanceService(store)
        service.graph("run-a")
        service.csr("run-a")
        telemetry = obs.enable(reset=True)
        service.record_cache_gauges()
        registry = telemetry.registry
        assert registry.gauge("cache.graphs.size").value == 1
        assert registry.gauge("cache.csr.size").value == 1
        assert registry.gauge("cache.graphs.capacity").value > 0

    def test_noop_when_disabled(self, dealership_execution):
        store = MemoryStore()
        store.put_graph("run-a", dealership_execution[0])
        service = ProvenanceService(store)
        service.graph("run-a")
        service.record_cache_gauges()  # must not raise, must not enable
        assert not obs.enabled()

    def test_stats_prom_exposes_cache_and_shards(self, tmp_path, capsys):
        from repro.cli import main
        db = str(tmp_path / "g.db")
        assert main(["ingest", "--db", db, "--runs", "2", "--shards", "2",
                     "--cars", "15", "--executions", "2"]) == 0
        capsys.readouterr()
        assert main(["stats", "--db", db, "--prom"]) == 0
        out = capsys.readouterr().out
        assert "cache_graphs_size" in out
        assert "store_shard_runs" in out
        assert 'shard="0"' in out and 'shard="1"' in out
