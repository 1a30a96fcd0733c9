"""Store-backed command-line interface.

Subcommands (anything else falls through to the benchmark runner):

* ``python -m repro ingest`` — execute WorkflowGen workloads (or
  import a tracker spool file) and persist the provenance graphs into
  a SQLite store; ``--runs N --workers M`` executes N runs in an
  M-process pool and commits them concurrently, and ``--shards K``
  partitions runs across K shard databases so commits don't queue
  behind one writer;
* ``python -m repro query`` — answer zoom / subgraph / reachability /
  ProQL queries from a stored run *without re-executing the
  workflow* — the paper's Tracker / Query Processor split (§5.1)
  across two processes;
* ``python -m repro runs`` — list the runs cataloged in a store,
  including each run's persisted ingest cost;
* ``python -m repro stats`` — telemetry report: probes the store with
  an instrumented load + query, replays persisted ingest telemetry,
  and prints the metrics table (``--prom`` for Prometheus text
  exposition);
* ``python -m repro doctor`` — health scan: shard availability and
  integrity, partial (crashed) ingests, spool-checksum verification;
  ``--repair`` rolls back partials and quarantines bad runs;
* ``python -m repro explain`` — EXPLAIN one query: runs it under
  profiling and prints the structured plan (answering tier per step,
  per-kernel nodes/edges/mask-bytes/wall-time counters);
* ``python -m repro slowlog`` — render a slow-query log (the
  in-process ring mirrors to JSONL when ``REPRO_SLOWLOG_MS`` +
  ``REPRO_SLOWLOG_PATH`` are set).

All subcommands accept ``--json`` for machine-readable output and
``--metrics`` / ``--trace PATH`` to enable in-process telemetry (the
metrics table prints to stderr on exit; the trace file gets one JSON
span event per line).

Example session::

    python -m repro ingest --db prov.db --runs 8 --workers 4 --shards 4
    python -m repro runs --db prov.db
    python -m repro query --db prov.db --subgraph 42
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import List, Optional, Sequence

from . import obs
from .errors import LipstickError
from .obs import profile as _profile
from .store import ProvenanceService, RunInfo, WorkloadSpec, open_store
from .store.sharded import detect_shard_count

STORE_COMMANDS = ("ingest", "query", "runs", "stats", "doctor",
                  "explain", "slowlog", "serve")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--db", default="provenance.db",
                        help="SQLite store path (default: provenance.db)")
    parser.add_argument("--shards", type=int, default=None,
                        help="partition runs across N shard databases "
                             "(<db>.shard-NN files; default: autodetect, "
                             "else unsharded)")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable JSON output")
    parser.add_argument("--metrics", action="store_true",
                        help="collect telemetry and print the metrics "
                             "table to stderr on exit")
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="collect telemetry and write span events "
                             "to PATH as JSON lines")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Lipstick provenance store CLI")
    subparsers = parser.add_subparsers(dest="command", required=True)

    ingest = subparsers.add_parser(
        "ingest", help="execute workloads or import a spool file, "
                       "then persist the provenance graphs")
    _add_common(ingest)
    ingest.add_argument("--run", default=None,
                        help="run id (default: auto run-NNNN; with "
                             "--runs N>1 used as a prefix)")
    source = ingest.add_mutually_exclusive_group()
    source.add_argument("--spool", default=None,
                        help="tracker JSONL spool file to import "
                             "(.gz transparent)")
    source.add_argument("--workload", choices=("dealerships", "arctic"),
                        default="dealerships",
                        help="WorkflowGen workload to execute "
                             "(default: dealerships)")
    ingest.add_argument("--runs", type=int, default=1,
                        help="number of generated runs to ingest "
                             "(default: 1)")
    ingest.add_argument("--workers", type=int, default=1,
                        help="process-pool size for parallel ingest "
                             "(default: 1 = serial)")
    ingest.add_argument("--seed", type=int, default=0,
                        help="base RNG seed; run i uses seed+i "
                             "(default: 0)")
    ingest.add_argument("--cars", type=int, default=100,
                        help="dealerships: number of cars")
    ingest.add_argument("--executions", type=int, default=5,
                        help="number of workflow executions")
    ingest.add_argument("--stations", type=int, default=4,
                        help="arctic: number of stations")
    ingest.add_argument("--topology", default="parallel",
                        choices=("parallel", "serial", "dense"),
                        help="arctic: workflow topology")
    ingest.add_argument("--export", default=None,
                        help="also export the (first) run as a JSONL "
                             "spool (.gz transparent)")
    ingest.add_argument("--retries", type=int, default=None,
                        help="per-run retry budget before a failing run "
                             "is quarantined (default: REPRO_RETRY_INGEST "
                             "or 1)")
    ingest.add_argument("--no-quarantine", action="store_true",
                        help="fail the whole batch on the first "
                             "exhausted run instead of quarantining it")

    query = subparsers.add_parser(
        "query", help="answer provenance queries from a stored run")
    _add_common(query)
    query.add_argument("--run", default=None,
                       help="run id (default: most recent run)")
    query.add_argument("--backend", choices=("csr", "dict"), default="csr",
                       help="traversal backend (default: csr)")
    what = query.add_mutually_exclusive_group(required=True)
    what.add_argument("--subgraph", type=int, metavar="NODE",
                      help="subgraph query on NODE")
    what.add_argument("--reachable", nargs=2, type=int,
                      metavar=("SOURCE", "TARGET"),
                      help="is TARGET derived (partly) from SOURCE?")
    what.add_argument("--zoom-out", nargs="+", metavar="MODULE",
                      help="ZoomOut the given modules")
    what.add_argument("--proql", metavar="TEXT",
                      help='ProQL-lite pipeline, e.g. '
                           '"MATCH kind=tuple | descendants | count"')
    what.add_argument("--stats", action="store_true",
                      help="graph statistics for the run")

    runs = subparsers.add_parser("runs", help="list runs in the store")
    _add_common(runs)

    stats = subparsers.add_parser(
        "stats", help="telemetry report over the store (metrics table, "
                      "shard placement, historical ingest cost)")
    _add_common(stats)
    stats.add_argument("--prom", action="store_true",
                       help="Prometheus text exposition instead of the "
                            "human table")
    stats.add_argument("--probe-runs", type=int, default=1,
                       help="instrument a load + subgraph query against "
                            "the N most recent runs (default: 1; 0 "
                            "skips probing)")

    explain = subparsers.add_parser(
        "explain", help="run one query under profiling and print its "
                        "plan: answering tier per step + kernel cost "
                        "counters")
    _add_common(explain)
    explain.add_argument("--run", default=None,
                         help="run id (default: most recent run)")
    which = explain.add_mutually_exclusive_group(required=True)
    which.add_argument("--subgraph", type=int, metavar="NODE",
                       help="subgraph query on NODE")
    which.add_argument("--ancestors", type=int, metavar="NODE",
                       help="ancestor scan of NODE (pushdown range "
                            "query on cold runs)")
    which.add_argument("--descendants", type=int, metavar="NODE",
                       help="descendant scan of NODE (pushdown range "
                            "query on cold runs)")
    which.add_argument("--reachable", nargs=2, type=int,
                       metavar=("SOURCE", "TARGET"),
                       help="reachability SOURCE -> TARGET")
    which.add_argument("--zoom-out", nargs="+", metavar="MODULE",
                       help="ZoomOut the given modules (on a copy; "
                            "the stored run is untouched)")
    which.add_argument("--delete", nargs="+", type=int, metavar="NODE",
                       help="deletion propagation from the given nodes")
    which.add_argument("--what-if", nargs="+", type=int, metavar="NODE",
                       help="what-if deletion of the given nodes")
    which.add_argument("--depends", nargs="+", type=int,
                       metavar="NODE",
                       help="dependency query: first id is the target "
                            "node, the rest are candidate sources")
    which.add_argument("--proql", metavar="TEXT",
                       help='ProQL-lite pipeline, e.g. '
                            '"MATCH kind=tuple | descendants | count"')

    slowlog = subparsers.add_parser(
        "slowlog", help="render a slow-query JSONL log (written when "
                        "REPRO_SLOWLOG_MS + REPRO_SLOWLOG_PATH are set)")
    _add_common(slowlog)
    slowlog.add_argument("--log", default=None, metavar="PATH",
                         help="slow-query JSONL file (default: "
                              "$REPRO_SLOWLOG_PATH)")
    slowlog.add_argument("--limit", type=int, default=20,
                         help="show at most N entries, slowest first "
                              "(default: 20)")
    slowlog.add_argument("--min-ms", type=float, default=0.0,
                         help="hide entries faster than this many "
                              "milliseconds")

    doctor = subparsers.add_parser(
        "doctor", help="scan the store for partial, corrupted, or "
                       "quarantined runs; --repair rolls back partials")
    _add_common(doctor)
    doctor.add_argument("--repair", action="store_true",
                        help="roll back partial ingests and quarantine "
                             "checksum-failed runs")
    doctor.add_argument("--no-checksums", action="store_true",
                        help="skip re-serialization checksum verification "
                             "(faster on large stores)")
    doctor.add_argument("--quick", action="store_true",
                        help="PRAGMA quick_check instead of the full "
                             "integrity_check")

    serve = subparsers.add_parser(
        "serve", help="HTTP/JSON query service with admission control, "
                      "per-request deadlines, and circuit breakers")
    _add_common(serve)
    serve.add_argument("--host", default=None,
                       help="bind address (default: $REPRO_SERVICE_HOST "
                            "or 127.0.0.1)")
    serve.add_argument("--port", type=int, default=None,
                       help="TCP port, 0 picks a free one (default: "
                            "$REPRO_SERVICE_PORT or 8423)")
    serve.add_argument("--inflight", type=int, default=None,
                       help="max concurrently executing requests "
                            "(default: $REPRO_SERVICE_MAX_INFLIGHT or 8)")
    serve.add_argument("--queue-depth", type=int, default=None,
                       help="bounded waiting room past the in-flight "
                            "budget; excess requests get 429 (default: "
                            "$REPRO_SERVICE_QUEUE_DEPTH or 64)")
    serve.add_argument("--deadline-ms", type=float, default=None,
                       help="default per-request wall-clock budget; 0 "
                            "disables (default: $REPRO_SERVICE_DEADLINE_MS "
                            "or 2000)")
    serve.add_argument("--tenant-rate", type=float, default=None,
                       help="per-tenant token-bucket rate in requests/s; "
                            "0 disables (default: "
                            "$REPRO_SERVICE_TENANT_RATE or off)")
    return parser


def _open_store(args):
    """The store behind ``--db``/``--shards`` (autodetects shard files
    left by an earlier ``ingest --shards N``)."""
    shards = args.shards
    if shards is None:
        shards = detect_shard_count(args.db) or 1
    return open_store(args.db, shards=shards)


def _info_dict(info: RunInfo) -> dict:
    payload = {"run_id": info.run_id, "nodes": info.node_count,
               "edges": info.edge_count,
               "invocations": info.invocation_count,
               "source": info.source,
               "ingest": (info.meta or {}).get("ingest")}
    quarantined = (info.meta or {}).get("quarantined")
    if quarantined:  # only when present, to keep the stable key set
        payload["quarantined"] = quarantined
    return payload


def _ingest_specs(args) -> List[WorkloadSpec]:
    if args.workload == "arctic":
        # Arctic's observation generator is seeded by (station, year);
        # shifting the window per run makes the stored graphs differ.
        base_params = [{"topology": args.topology,
                        "num_stations": args.stations,
                        "num_exec": args.executions,
                        "start_year": 1961 + args.seed + index}
                       for index in range(args.runs)]
    else:
        base_params = [{"num_cars": args.cars, "num_exec": args.executions,
                        "seed": args.seed + index, "force_decline": True}
                       for index in range(args.runs)]
    run_ids: List[Optional[str]] = [None] * args.runs
    if args.run is not None:
        if args.runs == 1:
            run_ids = [args.run]
        else:
            run_ids = [f"{args.run}-{index + 1:02d}"
                       for index in range(args.runs)]
    return [WorkloadSpec(args.workload, params, run_id=run_id)
            for params, run_id in zip(base_params, run_ids)]


def cmd_ingest(args) -> int:
    if args.runs < 1:
        raise LipstickError("--runs must be at least 1")
    if args.spool and (args.runs != 1 or args.workers != 1
                       or args.seed != 0):
        raise LipstickError(
            "--spool imports exactly one run; it cannot be combined "
            "with --runs, --workers, or --seed")
    with _open_store(args) as store:
        service = ProvenanceService(store)
        catalog = service.catalog
        started = time.perf_counter()
        if args.spool:
            infos = [catalog.ingest(args.spool, run_id=args.run)]
        else:
            specs = _ingest_specs(args)
            infos = service.ingest_many(specs, workers=args.workers,
                                        retries=args.retries,
                                        quarantine=not args.no_quarantine)
        elapsed = time.perf_counter() - started
        quarantined = [info for info in infos
                       if (info.meta or {}).get("quarantined")]
        exported = None
        if args.export:
            records = catalog.export(infos[0].run_id, args.export)
            exported = {"path": args.export, "records": records}
        if args.json:
            print(json.dumps({
                "db": args.db, "workers": args.workers,
                "seconds": round(elapsed, 6),
                "runs": [_info_dict(info) for info in infos],
                "export": exported}))
        else:
            for info in infos:
                quarantine = (info.meta or {}).get("quarantined")
                if quarantine:
                    print(f"quarantined {info.run_id}: "
                          f"{quarantine.get('error')} "
                          f"(after {quarantine.get('attempts')} attempts)")
                    continue
                print(f"ingested {info.run_id}: {info.node_count} nodes, "
                      f"{info.edge_count} edges, "
                      f"{info.invocation_count} invocations -> {args.db}")
            if exported:
                print(f"exported {exported['records']} records -> "
                      f"{exported['path']}")
        if quarantined:
            print(f"warning: {len(quarantined)} run(s) quarantined; "
                  f"see `repro doctor --db {args.db}`", file=sys.stderr)
    return 0


def _resolve_run(service: ProvenanceService, run_id: Optional[str]) -> str:
    runs = service.runs()
    if not runs:
        raise LipstickError("store holds no runs; ingest one first")
    if run_id is None:
        return runs[-1].run_id
    if not any(info.run_id == run_id for info in runs):
        raise LipstickError(
            f"unknown run {run_id!r}; stored runs: "
            f"{[info.run_id for info in runs]}")
    return run_id


def cmd_query(args) -> int:
    with _open_store(args) as store:
        service = ProvenanceService(store)
        run_id = _resolve_run(service, args.run)
        use_csr = args.backend == "csr"
        if args.subgraph is not None:
            if use_csr:
                result = service.subgraph(run_id, args.subgraph)
            else:
                from .queries.subgraph import subgraph_query
                result = subgraph_query(service.graph(run_id), args.subgraph)
            if args.json:
                print(json.dumps({
                    "run_id": run_id, "query": "subgraph",
                    "node": args.subgraph, "size": result.size,
                    "ancestors": len(result.ancestors),
                    "descendants": len(result.descendants),
                    "siblings": len(result.siblings)}))
            else:
                print(f"{run_id}: subgraph({args.subgraph}) -> "
                      f"{result.size} nodes "
                      f"({len(result.ancestors)} ancestors, "
                      f"{len(result.descendants)} descendants, "
                      f"{len(result.siblings)} siblings)")
        elif args.reachable is not None:
            source, target = args.reachable
            if use_csr:
                answer = service.reachable(run_id, source, target)
            else:
                answer = service.graph(run_id).reachable(source, target)
            if args.json:
                print(json.dumps({"run_id": run_id, "query": "reachable",
                                  "source": source, "target": target,
                                  "reachable": bool(answer)}))
            else:
                print(f"{run_id}: reachable({source} -> {target}) = {answer}")
        elif args.zoom_out is not None:
            zoomed = service.zoom_out(run_id, args.zoom_out)
            graph = service.graph(run_id)
            if args.json:
                print(json.dumps({"run_id": run_id, "query": "zoom_out",
                                  "zoomed": zoomed,
                                  "nodes": graph.node_count,
                                  "edges": graph.edge_count}))
            else:
                print(f"{run_id}: zoomed out {zoomed}; graph now "
                      f"{graph.node_count} nodes / {graph.edge_count} edges")
        elif args.proql is not None:
            outcome = service.processor(run_id).query_text(args.proql)
            if args.json:
                print(json.dumps({"run_id": run_id, "query": "proql",
                                  "text": args.proql,
                                  "result": repr(outcome)}))
            else:
                print(f"{run_id}: {outcome}")
        else:
            stats = service.stats(run_id)
            if args.json:
                print(json.dumps({"run_id": run_id, "query": "stats",
                                  "nodes": stats.node_count,
                                  "edges": stats.edge_count,
                                  "invocations": stats.invocation_count,
                                  "nodes_by_kind": stats.nodes_by_kind}))
            else:
                print(f"{run_id}: {stats}")
    return 0


def _shard_stats(store) -> Optional[list]:
    stats = getattr(store, "shard_stats", None)
    return stats() if callable(stats) else None


def _ingest_cost(info: RunInfo) -> str:
    """Human summary of a run's persisted ingest telemetry."""
    meta = (info.meta or {}).get("ingest")
    if not meta:
        return "-"
    return (f"{meta['wall_seconds']:.2f}s"
            f"/{meta['workers']}w")


def cmd_runs(args) -> int:
    with _open_store(args) as store:
        service = ProvenanceService(store)
        runs = store.list_runs()
        failures = list(getattr(runs, "failures", []))
        for failure in failures:
            print(f"warning: shard {failure['shard']} unreachable "
                  f"({failure['error']}); listing is incomplete",
                  file=sys.stderr)
        if args.json:
            payload = {"db": args.db,
                       "runs": [_info_dict(info) for info in runs],
                       "shards": _shard_stats(store),
                       "storage_bytes": store.storage_bytes(),
                       "cache_info": service.cache_info()}
            if failures:  # only when degraded, to keep the key set stable
                payload["degraded"] = failures
            print(json.dumps(payload))
            return 0
        if not runs:
            print(f"{args.db}: no runs")
            return 0
        print(f"{'run id':<16} {'nodes':>8} {'edges':>8} "
              f"{'invocations':>12} {'ingest':>10}  source")
        for info in runs:
            print(f"{info.run_id:<16} {info.node_count:>8} "
                  f"{info.edge_count:>8} {info.invocation_count:>12} "
                  f"{_ingest_cost(info):>10}  {info.source or '-'}")
    return 0


def cmd_stats(args) -> int:
    """Telemetry report: probe the store with instrumented operations,
    replay persisted ingest telemetry into the registry, and export.

    The probe (a cold graph load + a subgraph query per recent run)
    exercises the store, cache, and kernel namespaces; the persisted
    per-run ingest summaries populate the ingest namespace — so one
    command reports live-process metrics over all four subsystems.
    """
    from .store.ingest import _record_run_metrics
    telemetry = obs.enable(trace_path=args.trace)
    with _open_store(args) as store:
        service = ProvenanceService(store)
        runs = store.list_runs()
        for info in runs:
            meta = (info.meta or {}).get("ingest")
            if meta:
                _record_run_metrics(meta)
        if args.probe_runs > 0:
            for info in runs[-args.probe_runs:]:
                graph = service.graph(info.run_id)
                service.graph(info.run_id)  # cache.graphs hit
                try:
                    node_id = next(iter(graph.node_ids()))
                except StopIteration:
                    continue
                service.subgraph(info.run_id, node_id)
                service.descendants(info.run_id, node_id)
        shard_stats = _shard_stats(store)
        storage = store.storage_bytes()
        if storage is not None:
            obs.gauge("store.storage_bytes", storage)
        # Occupancy gauges: cache sizes/capacities and per-shard run
        # counts land in the registry, so --prom exposes them too.
        service.record_cache_gauges()
        for entry in shard_stats or []:
            shard = str(entry["shard"])
            obs.gauge("store.shard.runs", entry["runs"], shard=shard)
            obs.gauge("store.shard.nodes", entry["nodes"], shard=shard)
            obs.gauge("store.shard.edges", entry["edges"], shard=shard)
            if entry.get("bytes") is not None:
                obs.gauge("store.shard.bytes", entry["bytes"], shard=shard)
        log = _profile.slowlog()
        slow = log.snapshot() if log is not None else None
        if args.json:
            print(json.dumps({"db": args.db,
                              "runs": [_info_dict(info) for info in runs],
                              "shards": shard_stats,
                              "storage_bytes": storage,
                              "cache_info": service.cache_info(),
                              "slowlog": slow,
                              "metrics": telemetry.registry.snapshot()}))
            return 0
        if args.prom:
            sys.stdout.write(obs.to_prometheus(telemetry.registry))
            return 0
        print(obs.render_table(telemetry.registry,
                               title=f"metrics ({args.db})"))
        print(f"\nruns: {len(runs)}  storage: "
              f"{storage if storage is not None else 'in-memory'} bytes")
        if shard_stats:
            for entry in shard_stats:
                print(f"  shard {entry['shard']:>2}: {entry['runs']} runs, "
                      f"{entry['nodes']} nodes, {entry['edges']} edges, "
                      f"{entry['bytes'] if entry['bytes'] is not None else '-'}"
                      f" bytes")
        if slow is not None:
            print(f"\nslow queries (>= {slow['threshold_ms']:g} ms): "
                  f"{slow['recorded']} recorded, "
                  f"{len(slow['entries'])} in ring")
            for entry in slow["entries"][-5:]:
                print(f"  {entry.get('run_id') or '-'} "
                      f"{entry.get('kind')}: "
                      f"{entry.get('seconds', 0) * 1000:.1f} ms, "
                      f"{len(entry.get('steps') or [])} step(s)")
    return 0


def _explain_request(args):
    """(kind, params) from the explain subcommand's flags."""
    if args.subgraph is not None:
        return "subgraph", {"node": args.subgraph}
    if args.ancestors is not None:
        return "ancestors", {"node": args.ancestors}
    if args.descendants is not None:
        return "descendants", {"node": args.descendants}
    if args.reachable is not None:
        source, target = args.reachable
        return "reachability", {"source": source, "target": target}
    if args.zoom_out is not None:
        return "zoom", {"modules": args.zoom_out}
    if args.delete is not None:
        return "deletion", {"nodes": args.delete}
    if args.what_if is not None:
        return "whatif", {"nodes": args.what_if}
    if args.depends is not None:
        if len(args.depends) < 2:
            raise LipstickError(
                "--depends needs a target node and at least one source")
        return "dependency", {"node": args.depends[0],
                              "sources": args.depends[1:]}
    return "proql", {"text": args.proql}


def cmd_explain(args) -> int:
    kind, params = _explain_request(args)
    with _open_store(args) as store:
        service = ProvenanceService(store)
        run_id = _resolve_run(service, args.run)
        plan = service.explain(run_id, kind, **params)
        if args.json:
            print(json.dumps({"db": args.db, **plan.to_dict()}))
        else:
            print(plan.render())
    return 0


def cmd_slowlog(args) -> int:
    path = args.log or os.environ.get("REPRO_SLOWLOG_PATH")
    if not path:
        raise LipstickError(
            "no slow-query log: pass --log PATH or set "
            "REPRO_SLOWLOG_PATH (with REPRO_SLOWLOG_MS) so queries "
            "mirror slow plans to a JSONL file")
    try:
        entries = _profile.read_slowlog(path)
    except OSError as error:
        raise LipstickError(f"cannot read slow-query log {path}: {error}")
    entries = [entry for entry in entries
               if entry.get("seconds", 0) * 1000 >= args.min_ms]
    entries.sort(key=lambda entry: entry.get("seconds", 0), reverse=True)
    shown = entries[:max(args.limit, 0)]
    if args.json:
        print(json.dumps({"log": path, "total": len(entries),
                          "entries": shown}))
        return 0
    if not entries:
        print(f"{path}: no slow queries")
        return 0
    print(f"{path}: {len(entries)} slow quer"
          f"{'y' if len(entries) == 1 else 'ies'}, slowest first")
    for entry in shown:
        tiers = ",".join(entry.get("tiers") or []) or "-"
        print(f"  {entry.get('seconds', 0) * 1000:>9.2f} ms  "
              f"{entry.get('kind', '?'):<12} "
              f"{entry.get('run_id') or '-':<12} "
              f"steps={len(entry.get('steps') or []):<3} tiers={tiers}")
    return 0


def cmd_doctor(args) -> int:
    """Health scan (and optional repair) of a provenance store.

    Exit code 0 when the store is healthy (or was fully repaired),
    1 when problems remain — so scripts and CI can gate on it.
    """
    from .store.doctor import diagnose, repair
    try:
        store = _open_store(args)
    except LipstickError as error:
        if args.json:
            print(json.dumps({"db": args.db, "healthy": False,
                              "problems": 1, "error": str(error)}))
        else:
            print(f"{args.db}: cannot open store: {error}")
        return 1
    verify = not args.no_checksums
    with store:
        report = diagnose(store, verify_checksums=verify, quick=args.quick)
        if args.repair and not report.healthy:
            repaired = repair(store, report,
                              verify_checksums=verify).repaired
            # Re-scan so the verdict (and exit code) reflects the
            # post-repair state, not the problems we just fixed.
            report = diagnose(store, verify_checksums=verify,
                              quick=args.quick)
            report.repaired = repaired
        if args.json:
            print(json.dumps({"db": args.db, **report.to_dict()}))
            return 0 if report.healthy else 1
        status = ("healthy" if report.healthy
                  else f"{report.problems} problem(s)")
        print(f"{args.db}: {status}")
        for entry in report.shards or []:
            if not entry["available"]:
                print(f"  shard {entry['shard']} unavailable: "
                      f"{entry['path']}")
            elif entry["integrity"]:
                print(f"  shard {entry['shard']} corrupted: "
                      f"{'; '.join(entry['integrity'][:3])}")
        for partial in report.partial_runs:
            print(f"  partial ingest {partial['run_id']}: "
                  f"{partial['state']}")
        for failure in report.checksum_failures:
            print(f"  checksum mismatch {failure['run_id']}: stored "
                  f"graph differs from its ingest spool")
        for entry in report.unverifiable:
            print(f"  unverifiable {entry['run_id']}: {entry['error']}")
        for entry in report.degraded:
            print(f"  degraded scan: {entry['error']}")
        for info in report.quarantined:
            print(f"  quarantined {info['run_id']}: {info['error']} "
                  f"(informational)")
        for action in report.repaired:
            print(f"  repaired {action['run_id']}: {action['action']}")
        for entry in report.legacy_layout:
            print(f"  legacy layout: {entry['detail']} (informational)")
        if not report.healthy and not args.repair:
            print("run with --repair to roll back partial ingests and "
                  "quarantine checksum failures")
    return 0 if report.healthy else 1


def cmd_serve(args) -> int:
    """Run the resilient HTTP front end until interrupted."""
    import asyncio

    from .service.server import ServiceConfig, serve as serve_async

    overrides = {}
    if args.host is not None:
        overrides["host"] = args.host
    if args.port is not None:
        overrides["port"] = args.port
    if args.inflight is not None:
        overrides["max_inflight"] = max(args.inflight, 1)
    if args.queue_depth is not None:
        overrides["queue_depth"] = max(args.queue_depth, 0)
    if args.deadline_ms is not None:
        overrides["default_deadline_ms"] = args.deadline_ms
    if args.tenant_rate is not None:
        overrides["tenant_rate"] = args.tenant_rate
    config = ServiceConfig.from_env(**overrides)
    store = _open_store(args)
    with store:
        service = ProvenanceService(store)
        try:
            asyncio.run(serve_async(service, config))
        except KeyboardInterrupt:
            print("shutting down", file=sys.stderr)
    return 0


def store_main(argv: Sequence[str]) -> int:
    args = build_parser().parse_args(list(argv))
    telemetry = None
    if args.metrics or args.trace:
        telemetry = obs.enable(trace_path=args.trace)
    handlers = {"ingest": cmd_ingest, "query": cmd_query,
                "runs": cmd_runs, "stats": cmd_stats,
                "doctor": cmd_doctor, "explain": cmd_explain,
                "slowlog": cmd_slowlog, "serve": cmd_serve}
    try:
        code = handlers[args.command](args)
    except LipstickError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    if telemetry is not None and args.command != "stats":
        # stderr so --json stdout stays machine-parseable.
        print(obs.render_table(telemetry.registry), file=sys.stderr)
    return code


def main(argv: Sequence[str]) -> int:
    """Dispatch: store subcommands here, experiment names (or nothing)
    to the benchmark runner, preserving ``python -m repro fig5a``."""
    argv = list(argv)
    if argv and argv[0] in STORE_COMMANDS:
        return store_main(argv)
    from .benchmark.runner import main as runner_main
    return runner_main(argv)
