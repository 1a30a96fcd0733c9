"""Parallel ingest pipeline: process-pool execution, concurrent commit.

The paper's Provenance Tracker writes spool files while workflows
execute; this module scales that to *many runs at once*:

1. each :class:`WorkloadSpec` is executed in a worker process (the
   tracking hot path is CPU-bound, so processes — not threads — buy
   real parallelism), and the worker spools its provenance graph to a
   JSONL file exactly as the tracker would;
2. the parent commits finished spools into the store from a small
   thread pool, so commits to different shards of a
   :class:`~repro.store.sharded.ShardedStore` overlap instead of
   queueing behind one database writer.

Determinism: specs carry explicit seeds, run ids are assigned *before*
dispatch, and the JSONL spool format round-trips graphs losslessly —
so ``ingest_many(specs, workers=4)`` stores byte-identical graphs to
``ingest_many(specs, workers=1)`` (the differential and stress suites
assert exactly this).
"""

from __future__ import annotations

import hashlib
import os
import sqlite3
import tempfile
import time
from concurrent.futures import (FIRST_COMPLETED, ProcessPoolExecutor,
                                ThreadPoolExecutor, wait)
from concurrent.futures.process import BrokenProcessPool
from time import perf_counter as _perf
from typing import Dict, List, Optional, Sequence, Tuple

from .. import faults as _faults
from .. import obs as _obs
from ..errors import StoreError, StoreIOError
from ..graph.provgraph import ProvenanceGraph
from ..graph.serialize import dump_graph, load_graph as load_spool
from .base import RunInfo
from .catalog import RunCatalog

#: Workload families ``WorkloadSpec`` knows how to execute.
WORKLOADS = ("dealerships", "arctic")


class WorkloadSpec:
    """A picklable description of one run to execute and ingest.

    ``params`` are forwarded to the WorkflowGen runner for the chosen
    workload family (``num_cars`` / ``num_exec`` / ``seed`` for
    dealerships; ``topology`` / ``num_stations`` / ``num_exec`` for
    arctic).  ``run_id`` may be left ``None`` — the pipeline assigns a
    catalog name before dispatch so serial and parallel ingest name
    runs identically.
    """

    __slots__ = ("workload", "params", "run_id")

    def __init__(self, workload: str = "dealerships",
                 params: Optional[Dict] = None,
                 run_id: Optional[str] = None):
        if workload not in WORKLOADS:
            raise StoreError(
                f"unknown workload {workload!r}; choose from {WORKLOADS}")
        self.workload = workload
        self.params = dict(params or {})
        self.run_id = run_id

    @property
    def source(self) -> str:
        """Catalog ``source`` string recorded for the ingested run."""
        return f"workload:{self.workload}"

    def __getstate__(self):
        return (self.workload, self.params, self.run_id)

    def __setstate__(self, state):
        self.workload, self.params, self.run_id = state

    def __repr__(self) -> str:
        return (f"WorkloadSpec({self.workload!r}, params={self.params!r}, "
                f"run_id={self.run_id!r})")


def dealership_specs(count: int, num_cars: int = 60, num_exec: int = 3,
                     seed: int = 0) -> List[WorkloadSpec]:
    """``count`` dealership specs with consecutive seeds — the stock
    multi-run workload the CLI and benchmarks generate."""
    return [WorkloadSpec("dealerships",
                         {"num_cars": num_cars, "num_exec": num_exec,
                          "seed": seed + index, "force_decline": True})
            for index in range(count)]


def execute_spec(spec: WorkloadSpec) -> ProvenanceGraph:
    """Run the spec's workflow with tracking; returns the graph.

    Runs identically in the parent (serial mode) and in worker
    processes (parallel mode).
    """
    from ..benchmark.workflowgen import run_arctic, run_dealerships
    params = spec.params
    if spec.workload == "arctic":
        outcome = run_arctic(
            topology=params.get("topology", "parallel"),
            num_stations=params.get("num_stations", 4),
            fan_out=params.get("fan_out", 2),
            selectivity=params.get("selectivity", "month"),
            num_exec=params.get("num_exec", 3),
            history_years=params.get("history_years", 1),
            start_year=params.get("start_year", 1961),
            track=True)
    else:
        outcome = run_dealerships(
            num_cars=params.get("num_cars", 60),
            num_exec=params.get("num_exec", 3),
            seed=params.get("seed", 0),
            track=True,
            force_decline=params.get("force_decline", True))
    return outcome.graph


def _spool_spec(spec: WorkloadSpec, directory: str,
                index: int) -> Tuple[str, str, int, Dict]:
    """Worker-process entry point: execute and spool one spec.

    Returns ``(run_id, spool_path, record_count, timings)``; the
    parent commits the spool and deletes it.  The spool is named by
    spec *index*, not run id — run ids are user-supplied and may
    contain path separators.

    ``timings`` measures the worker's stages with its own clock (a
    ``perf_counter`` is meaningless across processes) plus a wall
    timestamp for when the spool landed, which the parent compares
    against its own wall clock to derive commit-queue wait.  Workers
    never touch the telemetry registry — the parent emits spans and
    metrics on their behalf, so the pipeline needs no cross-process
    telemetry plumbing.
    """
    _faults.fire("pool.worker", run_id=spec.run_id or "",
                 workload=spec.workload)
    started = _perf()
    graph = execute_spec(spec)
    executed = _perf()
    path = os.path.join(directory, f"spool-{index:04d}.jsonl")
    _faults.fire("spool.write", run_id=spec.run_id or "", path=path)
    records = dump_graph(graph, path)
    with open(path, "rb") as stream:
        digest = hashlib.file_digest(stream, "sha256").hexdigest()
    timings = {
        "pid": os.getpid(),
        "execute_seconds": executed - started,
        "spool_seconds": _perf() - executed,
        "spooled_at": time.time(),
        "nodes": graph.node_count,
        "edges": graph.edge_count,
        "spool_sha256": digest,
    }
    return spec.run_id, path, records, timings


def _persist_ingest_meta(store, run_id: str, meta: Dict) -> None:
    """Attach the per-run ingest summary to the catalog row.

    Best-effort: backends without metadata support (custom stores)
    raise :class:`StoreError`, and injected ``catalog.meta`` faults
    surface as ``OSError`` — neither may fail the ingest itself.
    """
    try:
        store.set_run_meta(run_id, {"ingest": meta})
    except (StoreError, OSError):
        pass


def _record_run_metrics(meta: Dict) -> None:
    """Mirror one run's ingest summary into the metrics registry."""
    if not _obs.enabled():
        return
    worker = str(meta.get("worker_pid", os.getpid()))
    _obs.count("ingest.runs_total", worker=worker)
    _obs.count("ingest.nodes_total", meta["nodes"])
    _obs.count("ingest.edges_total", meta["edges"])
    _obs.observe("ingest.execute_seconds", meta["execute_seconds"])
    _obs.observe("ingest.commit_seconds", meta["commit_seconds"])
    if "spool_seconds" in meta:
        _obs.observe("ingest.spool_seconds", meta["spool_seconds"])
    if "queue_wait_seconds" in meta:
        _obs.observe("ingest.queue_wait_seconds",
                     meta["queue_wait_seconds"])


def _assign_run_ids(catalog: RunCatalog,
                    specs: Sequence[WorkloadSpec]) -> None:
    """Reserve a catalog name for every unnamed spec, in spec order."""
    for spec in specs:
        if spec.run_id is None:
            spec.run_id = catalog.new_run_id()


def _env_retries(default: int = 1) -> int:
    value = os.environ.get("REPRO_RETRY_INGEST", "").strip()
    return int(value) if value else default


class _PoolBroken(Exception):
    """Internal: the process pool died (a worker was killed)."""


def _quarantine_run(store, spec: WorkloadSpec, error: BaseException,
                    attempts: int) -> RunInfo:
    """Record a failed spec as a quarantined placeholder run.

    The run id stays in the catalog — with an *empty* graph and a
    ``quarantined`` meta entry naming the error — so the failure is
    visible in ``repro runs`` / ``repro doctor`` instead of the whole
    batch failing.  Quarantining also clears the run's ingest
    sentinel (the placeholder commit is a real commit).
    """
    _obs.count("ingest.quarantined_total")
    quarantined = {"error": str(error), "type": type(error).__name__,
                   "attempts": attempts, "workload": spec.workload,
                   "params": spec.params}
    meta = {"quarantined": quarantined}
    try:
        info = store.put_graph(spec.run_id, ProvenanceGraph(),
                               source=f"quarantined:{spec.workload}")
        store.set_run_meta(spec.run_id, meta)
    except (StoreError, sqlite3.Error, OSError):
        # Even the placeholder cannot land (e.g. its shard is down);
        # report the quarantine in the returned info only.
        info = RunInfo(spec.run_id, time.time(), time.time(),
                       f"quarantined:{spec.workload}", 0, 0, 0)
    info.meta = meta
    return info


def _finish_serial_spec(catalog: RunCatalog, spec: WorkloadSpec,
                        retries: int, quarantine: bool,
                        prior_failures: int = 0) -> RunInfo:
    """Execute + commit one spec in-process, with retry/quarantine.

    ``prior_failures`` carries attempts already burned elsewhere (a
    crashed pool worker) so the retry budget is global per spec.
    """
    store = catalog.store
    failures = prior_failures
    while True:
        started = _perf()
        try:
            store.mark_pending(spec.run_id)
            graph = execute_spec(spec)
            executed = _perf()
            info = catalog.register(graph, run_id=spec.run_id,
                                    source=spec.source)
        except Exception as error:
            failures += 1
            if failures <= retries:
                _obs.count("ingest.retries_total")
                continue
            if quarantine:
                return _quarantine_run(store, spec, error, failures)
            raise
        committed = _perf()
        meta = {"workers": 1, "worker_pid": os.getpid(),
                "execute_seconds": executed - started,
                "commit_seconds": committed - executed,
                "wall_seconds": committed - started,
                "nodes": info.node_count, "edges": info.edge_count,
                "spool_sha256": _graph_checksum(graph)}
        _persist_ingest_meta(store, spec.run_id, meta)
        _record_run_metrics(meta)
        info.meta = {"ingest": meta}
        return info


def _graph_checksum(graph: ProvenanceGraph) -> str:
    from .doctor import graph_checksum  # deferred: tiny import cycle
    return graph_checksum(graph)


def ingest_many(catalog: RunCatalog, specs: Sequence[WorkloadSpec],
                workers: int = 1, retries: Optional[int] = None,
                quarantine: bool = True) -> List[RunInfo]:
    """Execute and ingest every spec; returns RunInfos in spec order.

    ``workers <= 1`` executes in-process, committing each graph as it
    finishes (the serial baseline).  ``workers > 1`` fans execution
    out to a process pool; finished spools are committed from a thread
    pool as they arrive, so a slow workflow does not block commits of
    faster ones.

    Fault tolerance: each run is journaled with an ingest sentinel
    (cleared atomically with its commit) so crashes leave detectable —
    not silent — partials; a failing spec is retried up to ``retries``
    times (default ``REPRO_RETRY_INGEST`` or 1) and then, with
    ``quarantine=True``, recorded as a quarantined placeholder run
    instead of failing the batch; a killed worker process breaks only
    the pool, not the batch — unfinished specs fall back to in-process
    execution.  ``quarantine=False`` restores fail-fast semantics
    (the first exhausted spec raises).
    """
    specs = list(specs)
    _assign_run_ids(catalog, specs)
    if len({spec.run_id for spec in specs}) != len(specs):
        raise StoreError("ingest_many specs contain duplicate run ids")
    retries = _env_retries() if retries is None else retries
    if workers <= 1 or len(specs) <= 1:
        with _obs.span("ingest.batch", workers=1, specs=len(specs)):
            return [_finish_serial_spec(catalog, spec, retries, quarantine)
                    for spec in specs]
    store = catalog.store
    sources = {spec.run_id: spec.source for spec in specs}
    infos: Dict[str, RunInfo] = {}
    failures_by_run: Dict[str, int] = {}
    with _obs.span("ingest.batch", workers=workers, specs=len(specs)), \
            tempfile.TemporaryDirectory(prefix="repro-ingest-") as directory:
        # Commits run on pool threads, which never inherit the ambient
        # contextvar — the batch context is captured here, once, and
        # handed to every worker-measured span explicitly.
        root_context = _obs.trace_context()

        def commit(result: Tuple[str, str, int, Dict]) -> Tuple[str, RunInfo]:
            run_id, path, _records, timings = result
            queue_wait = max(0.0, time.time() - timings["spooled_at"])
            started = _perf()
            try:
                _faults.fire("spool.read", run_id=run_id, path=path)
                try:
                    graph = load_spool(path)
                except OSError as error:
                    raise StoreIOError("ingest", path, run_id=run_id,
                                       cause=error) from error
                store.mark_pending(run_id)
                info = store.put_graph(run_id, graph,
                                       source=sources[run_id])
            finally:
                if os.path.exists(path):
                    os.remove(path)
            commit_seconds = _perf() - started
            meta = {"workers": workers, "worker_pid": timings["pid"],
                    "execute_seconds": timings["execute_seconds"],
                    "spool_seconds": timings["spool_seconds"],
                    "queue_wait_seconds": queue_wait,
                    "commit_seconds": commit_seconds,
                    "wall_seconds": (timings["execute_seconds"]
                                     + timings["spool_seconds"]
                                     + queue_wait + commit_seconds),
                    "nodes": info.node_count, "edges": info.edge_count,
                    "spool_sha256": timings["spool_sha256"]}
            _persist_ingest_meta(store, run_id, meta)
            _record_run_metrics(meta)
            info.meta = {"ingest": meta}
            if _obs.enabled():
                worker = str(timings["pid"])
                _obs.record_span("ingest.execute",
                                 timings["execute_seconds"],
                                 parent=root_context, run_id=run_id,
                                 worker=worker)
                _obs.record_span("ingest.commit", commit_seconds,
                                 parent=root_context, run_id=run_id,
                                 worker=worker)
            return run_id, info

        specs_by_run = {spec.run_id: spec for spec in specs}
        fallback: List[WorkloadSpec] = []
        commit_futures = []
        with ThreadPoolExecutor(max_workers=workers) as committers:
            try:
                with ProcessPoolExecutor(max_workers=workers) as executors:
                    outstanding = {
                        executors.submit(_spool_spec, spec, directory,
                                         index): spec
                        for index, spec in enumerate(specs)}
                    # Submit each commit the moment its spool lands
                    # (completion order, not submission order), so
                    # commits overlap with still-running executions and
                    # a slow early run never blocks faster later ones.
                    while outstanding:
                        done, _running = wait(list(outstanding),
                                              return_when=FIRST_COMPLETED)
                        for future in done:
                            spec = outstanding.pop(future)
                            try:
                                result = future.result()
                            except BrokenProcessPool:
                                # The pool is dead for everyone; count
                                # the crash against the spec that
                                # surfaced it and hand every unfinished
                                # spec to the in-process fallback.
                                failures = failures_by_run.get(
                                    spec.run_id, 0) + 1
                                failures_by_run[spec.run_id] = failures
                                fallback.append(spec)
                                fallback.extend(outstanding.values())
                                outstanding.clear()
                                raise _PoolBroken from None
                            except Exception as error:
                                failures = failures_by_run.get(
                                    spec.run_id, 0) + 1
                                failures_by_run[spec.run_id] = failures
                                if failures <= retries:
                                    _obs.count("ingest.retries_total")
                                    outstanding[executors.submit(
                                        _spool_spec, spec, directory,
                                        len(specs) + failures)] = spec
                                elif quarantine:
                                    infos[spec.run_id] = _quarantine_run(
                                        store, spec, error, failures)
                                else:
                                    raise
                            else:
                                commit_futures.append(
                                    (spec, committers.submit(commit,
                                                             result)))
            except _PoolBroken:
                _obs.count("ingest.pool_breaks_total")
            for spec, commit_future in commit_futures:
                try:
                    _run_id, info = commit_future.result()
                except Exception as error:
                    if not quarantine:
                        raise
                    infos[spec.run_id] = _quarantine_run(
                        store, spec, error,
                        failures_by_run.get(spec.run_id, 0) + 1)
                else:
                    infos[spec.run_id] = info
        # Specs stranded by a broken pool re-run in-process: the crash
        # already spent one attempt, the serial path spends the rest.
        for spec in fallback:
            infos[spec.run_id] = _finish_serial_spec(
                catalog, spec, retries, quarantine,
                prior_failures=failures_by_run.get(spec.run_id, 0))
        del specs_by_run
    return [infos[spec.run_id] for spec in specs]
