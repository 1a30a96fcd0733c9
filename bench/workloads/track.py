"""``track_dealerships`` and ``track_arctic``: tracking and committing runs.

The paper's fig 5/6 family as a stored system.  Each round takes the
next spec of a seeded, endless sequence, ingests it with
``ingest_many(catalog, [spec], workers=1)`` (execute + checksum +
durable commit), then runs the same spec tracked and untracked in
alternating order.  ``workflow`` + ``graph`` + ``store`` writes do all
the work; ``queries`` and ``service`` do none.  The two families use
those layers differently — JOIN/FOREACH-heavy stateful modules against
GROUP/aggregate emission with wide fan-in — so a gain on one emission
path that costs the other shows.
"""

from __future__ import annotations

import hashlib
import os
from time import perf_counter
from typing import Dict, List

from ..harness import median
from .base import (Clock, Workload, dealership_spec, ratio, run_spec,
                   spans_median)

#: Spec index of the warm-up run; far from the measured sequence.
WARMUP = 9999


def _sha256(path: str) -> str:
    with open(path, "rb") as stream:
        return hashlib.file_digest(stream, "sha256").hexdigest()


class Track(Workload):

    def spec(self, index: int):
        raise NotImplementedError

    # ------------------------------------------------------------------
    def setup(self) -> None:
        from repro.store import RunCatalog, ingest_many, open_store
        self.teardown()
        self.path = os.path.join(self.context.fresh_dir(), "track.db")
        self.store = open_store(self.path)
        self.catalog = RunCatalog(self.store)
        warm = self.spec(WARMUP)
        self.warm_nodes = ingest_many(self.catalog, [warm],
                                      workers=1)[0].node_count
        run_spec(warm, track=True)
        run_spec(warm, track=False)

    def teardown(self) -> None:
        store = getattr(self, "store", None)
        if store is not None:
            store.close()
            self.store = None

    def inputs(self):
        return [(spec.workload, spec.params)
                for spec in (self.spec(index) for index in range(16))]

    def _ingest(self, spec):
        """The timed top-level operation: one run into the store."""
        from repro.store import ingest_many
        started = perf_counter()
        infos = self.ops.guard(f"ingest {spec.run_id}", ingest_many,
                               self.catalog, [spec], workers=1)
        wall = perf_counter() - started
        if infos is None:
            return None, wall
        info = infos[0]
        landed = self.ops.expect(
            info.node_count > 0 and "quarantined" not in (info.meta or {}),
            f"{spec.run_id} was quarantined: {info.meta}")
        return (info if landed else None), wall

    # ------------------------------------------------------------------
    def measure(self, seconds: float) -> Dict[str, float]:
        from repro.store import open_store
        from repro.store.doctor import graph_checksum
        clock = Clock(seconds)
        ingest_walls: List[float] = []
        rates: List[float] = []
        executions: List[float] = []
        last: List[float] = []
        ratios: List[float] = []
        nodes = 0
        first = None
        index = 0
        while True:
            spec = self.spec(index)
            info, wall = self._ingest(spec)
            runs = {}
            for track in ((True, False) if index % 2 == 0 else (False, True)):
                runs[track] = self.ops.guard(f"run {spec.run_id}", run_spec,
                                             spec, track)
            tracked, untracked = runs[True], runs[False]
            if info is not None and tracked and untracked:
                # The tracked run is an independent execution of the
                # same spec: the store must hold exactly that graph.
                same = self.ops.expect(
                    (info.node_count, info.edge_count)
                    == (tracked.graph.node_count, tracked.graph.edge_count),
                    f"{spec.run_id}: stored {info.node_count} nodes / "
                    f"{info.edge_count} edges, executed "
                    f"{tracked.graph.node_count} / {tracked.graph.edge_count}")
                if same:
                    ingest_walls.append(wall)
                    rates.append(info.node_count / wall)
                    nodes += info.node_count
                    executions.extend(tracked.execution_seconds)
                    last.append(tracked.execution_seconds[-1])
                    ratios.append(ratio(tracked.total_seconds,
                                        untracked.total_seconds))
                    if first is None:
                        first = (spec, info, tracked.graph)
            index += 1
            if not clock.running():
                break
        self.context.counts.update(specs=index, executions=len(executions))
        if first is not None:
            spec, info, graph = first
            recorded = info.meta["ingest"]["spool_sha256"]
            spool = os.path.join(os.path.dirname(self.path), "export.jsonl")
            self.ops.guard("export", self.store.export_jsonl,
                           spec.run_id, spool)
            self.ops.expect(os.path.exists(spool)
                            and _sha256(spool) == recorded,
                            f"{spec.run_id}: export_jsonl does not hash to "
                            "the recorded spool_sha256")
            self.ops.expect(graph_checksum(graph) == recorded,
                            f"{spec.run_id}: an independent execution does "
                            "not hash to the recorded spool_sha256")
        self.store.close()
        stored_bytes = self.store.storage_bytes()
        self.store = open_store(self.path)
        listed = self.store.list_runs()
        self.ops.expect(len(listed) == index + 1
                        and sum(i.node_count for i in listed)
                        >= nodes + self.warm_nodes,
                        f"reopened store lists {len(listed)} runs, "
                        f"expected {index + 1}")
        total_nodes = sum(i.node_count for i in listed)
        return {
            "throughput": median(rates),
            "p50_ms": 1e3 * median(executions),
            "tail_ms": 1e3 * median(last),
            "heavy_p50_ms": 1e3 * median(ingest_walls),
            "overhead_ratio": median(ratios),
            "bytes_per_node": ratio(stored_bytes, total_nodes),
        }

    # ------------------------------------------------------------------
    def _executor(self, spec, builder):
        """The executor, driver and initial state ``run_*`` builds."""
        from repro.benchmark import (ArcticRun, DealershipRun,
                                     build_arctic_workflow,
                                     build_dealership_workflow)
        from repro.workflow.execution import WorkflowExecutor
        params = spec.params
        if spec.workload == "arctic":
            workflow, modules = build_arctic_workflow(
                params["topology"], params["num_stations"], params["fan_out"])
            driver = ArcticRun(workflow, modules,
                               selectivity=params["selectivity"],
                               num_exec=params["num_exec"],
                               history_years=params["history_years"],
                               start_year=params["start_year"])
        else:
            workflow, modules = build_dealership_workflow()
            driver = DealershipRun(num_cars=params["num_cars"],
                                   num_exec=params["num_exec"],
                                   seed=params["seed"])
            driver.buyer.accept_probability = 0.0  # force_decline
        executor = WorkflowExecutor(workflow, modules, builder)
        return executor, driver, modules

    def _execute(self, spec, builder, name: str) -> float:
        """One run, a span around every ``WorkflowExecutor.execute``."""
        tracer = self.tracer
        with tracer.span("workflow.build"):
            executor, driver, _ = self._executor(spec, builder)
            state = driver.initial_state(executor)
        total = 0.0
        for execution in range(spec.params["num_exec"]):
            batch = driver.input_batch(execution)
            with tracer.span(name) as span:
                executor.execute(batch, state)
            total += span.seconds
        return total

    def measure_traced(self, seconds: float) -> Dict[str, float]:
        from repro.graph.builder import GraphBuilder
        from repro.graph.serialize import dump_graph, load_graph
        from repro.piglatin import parse
        from repro.store import SQLiteStore
        from repro.store.doctor import graph_checksum
        from repro.store.pushdown import encode_intervals, interval_budget
        tracer = self.tracer
        clock = Clock(seconds)
        directory = os.path.dirname(self.path)
        untracked_s: List[float] = []
        tracked_s: List[float] = []
        memory: List[float] = []
        reference = layered = 0.0
        first: Dict[str, float] = {}
        index = 0
        while True:
            spec = self.spec(index)
            tracer.next_op()
            info, wall = self._ingest(spec)
            with tracer.layers():
                with tracer.span("workflow.build"):
                    _, _, modules = self._executor(spec, None)
                scripts = [script for module in modules
                           for script in (module.q_state, module.q_out)
                           if script]
                with tracer.span("piglatin.parse", rows=len(scripts)):
                    for script in scripts:
                        parse(script)
                untracked_s.append(
                    self._execute(spec, None, "workflow.execute_untracked"))
                builder = GraphBuilder()
                tracked_s.append(
                    self._execute(spec, builder, "workflow.execute_tracked"))
                graph = builder.graph
                rows = graph.node_count + graph.edge_count
                with tracer.span("store.checksum", rows=rows) as checksum:
                    digest = graph_checksum(graph)
                spool = os.path.join(directory, f"spool-{index}.jsonl")
                with tracer.span("graph.dump", rows=rows):
                    dump_graph(graph, spool)
                with tracer.span("graph.load_spool", rows=rows):
                    loaded = load_graph(spool)
                with tracer.span("store.encode_intervals",
                                 rows=graph.node_count):
                    encode_intervals(list(graph.node_ids()),
                                     graph.csr().pred_views,
                                     interval_budget(graph.node_count))
                single = SQLiteStore(os.path.join(directory,
                                                  f"single-{index}.db"))
                with tracer.span("store.put_graph", rows=rows) as put:
                    stored = single.put_graph(spec.run_id, graph,
                                              source=spec.source)
                single.close()
            memory.append(graph.memory_bytes() / 2**20)
            if info is not None:
                reference += wall
                layered += tracked_s[-1] + checksum.seconds + put.seconds
                self.ops.expect(
                    digest == info.meta["ingest"]["spool_sha256"]
                    and (stored.node_count, stored.edge_count)
                    == (info.node_count, info.edge_count)
                    == (loaded.node_count, loaded.edge_count),
                    f"{spec.run_id}: the layer-by-layer path built a "
                    "different graph from ingest_many")
            if index == 0:
                first = {
                    "graph.nodes": graph.node_count,
                    "graph.edges": graph.edge_count,
                    "graph.spool_bytes_per_node":
                        ratio(os.path.getsize(spool), graph.node_count),
                    "store.db_bytes": single.storage_bytes(),
                }
            os.remove(spool)
            index += 1
            if not clock.running():
                break
        self.context.counts.update(specs=index)
        put_s = sum(tracer.seconds("store.put_graph"))
        return dict(first, **{
            "piglatin.parse_ms": 1e3 * spans_median(tracer, "piglatin.parse"),
            "workflow.exec_untracked_s": median(untracked_s),
            "workflow.exec_tracked_s": median(tracked_s),
            "graph.track_extra_s": median(tracked_s) - median(untracked_s),
            "graph.memory_mb": median(memory),
            "graph.dump_s": spans_median(tracer, "graph.dump"),
            "graph.load_spool_s": spans_median(tracer, "graph.load_spool"),
            "store.put_graph_s": spans_median(tracer, "store.put_graph"),
            "store.put_rows_per_s": ratio(tracer.rows("store.put_graph"),
                                          put_s),
            "store.encode_intervals_s":
                spans_median(tracer, "store.encode_intervals"),
            "store.checksum_s": spans_median(tracer, "store.checksum"),
            "bench.trace_overhead_ratio": ratio(layered, reference),
        })


class TrackDealerships(Track):

    def spec(self, index: int):
        return dealership_spec(self.context.sizes["dealerships"],
                               self.seed + index, f"deal-{index:04d}")


class TrackArctic(Track):

    def spec(self, index: int):
        from repro.store import WorkloadSpec
        # The Arctic generator is a function of station and year, so
        # the seed picks the window each run's history starts in.
        params = dict(self.context.sizes["arctic"],
                      start_year=1961 + (self.seed + index) % 40)
        return WorkloadSpec("arctic", params, run_id=f"arctic-{index:04d}")
