"""Multi-run catalog and query service over a ``GraphStore``.

The paper's Query Processor serves one graph per process (Section
5.1: it "starts by reading provenance-annotated tuples from disk and
building the provenance graph").  This module scales that design out:

* :class:`RunCatalog` is the registration side — it names runs,
  ingests tracker spool files (``.gz`` transparent), and adopts live
  graphs into whichever backend it wraps;
* :class:`ProvenanceService` is the serving side — it keeps LRU
  caches of rebuilt graphs and :class:`~repro.store.csr.CSRSnapshot`
  instances so repeated zoom / subgraph / deletion / what-if queries
  against the same runs skip both the disk rebuild and the snapshot
  build.

Caches are keyed by the graph's mutation ``version``: surgery on a
served graph (in-place deletion, zoom) silently invalidates the
derived artifacts instead of serving stale answers.

Thread model: every cache locks its lookup/insert (builds run
*outside* the lock so unrelated keys never queue behind a slow cold
build), and the service serializes everything touching one run's live
graph through a per-run lock, so concurrent readers can hit the
service while an ingest pipeline commits runs behind it.  Stateful
per-run processors (zoom surgery persists) remain single-threaded by
design — concurrent readers should take
:meth:`ProvenanceService.snapshot` (a frozen graph copy) or go
through the immutable CSR read path.
"""

from __future__ import annotations

import os
import threading
import time
from collections import OrderedDict
from typing import (Callable, Hashable, List, Optional, Sequence, TypeVar,
                    Union)

from .. import faults as _faults
from .. import obs as _obs
from ..obs import profile as _profile
from ..errors import StoreIOError
from ..queries import cancel as _cancel
from ..graph.provgraph import ProvenanceGraph
from ..queries.deletion import deletion_set as _kernel_deletion_set
from ..queries.subgraph import SubgraphResult
from .base import GraphStore, RunInfo
from .csr import CSRSnapshot
from .pushdown import PushdownUnavailable

T = TypeVar("T")

_MISSING = object()


def _env_cache_budget_bytes() -> Optional[int]:
    """``REPRO_CACHE_BUDGET_MB`` as bytes, or None when unset/invalid."""
    text = os.environ.get("REPRO_CACHE_BUDGET_MB", "").strip()
    if not text:
        return None
    try:
        megabytes = float(text)
    except ValueError:
        return None
    if megabytes <= 0:
        return None
    return int(megabytes * 1024 * 1024)


def _default_sizer(value) -> int:
    """Bytes an entry holds: its own ``memory_bytes()`` when it has
    one (graphs, CSR snapshots), else a shallow ``getsizeof``."""
    import sys
    probe = getattr(value, "memory_bytes", None)
    if callable(probe):
        try:
            return int(probe())
        except Exception:  # a half-built artifact must not kill caching
            pass
    return sys.getsizeof(value)


class LRUCache:
    """A tiny ordered-dict LRU; ``capacity <= 0`` disables caching.

    Eviction is double-gated: entry count (``capacity``) and,
    optionally, a resident-byte budget (``budget_bytes``; sizes come
    from ``sizer``, defaulting to each value's ``memory_bytes()``).
    Without the byte gate a few giant runs can either evict every
    small run (count pressure) or OOM the process (no memory
    pressure at all); with it, eviction trims least-recently-used
    entries until the cache fits, always keeping at least the entry
    just inserted so one over-budget artifact degrades to
    cache-of-one instead of a rebuild storm.

    Thread-safe: lookup, insert, and eviction happen under one
    reentrant lock, but ``build()`` runs *outside* it so an expensive
    cold build (a cold SQLite rebuild, a CSR snapshot) never blocks
    hits — or other builds — for unrelated keys.  Two threads missing
    the same key concurrently may both build; the first insert wins
    and the loser's value is discarded (the service layer's per-run
    locks already prevent that for same-run artifacts).
    """

    def __init__(self, capacity: int, name: Optional[str] = None,
                 budget_bytes: Optional[int] = None,
                 sizer: Callable[[object], int] = _default_sizer):
        self.capacity = capacity
        self.name = name
        self.budget_bytes = budget_bytes
        self._sizer = sizer
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.total_bytes = 0
        self._lock = threading.RLock()
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()
        self._sizes: dict = {}
        # Metric names are precomputed so the hot path pays one dict
        # lookup per cache access when telemetry is on, zero when off.
        prefix = f"cache.{name}" if name else None
        self._hits_metric = f"{prefix}.hits_total" if prefix else None
        self._misses_metric = f"{prefix}.misses_total" if prefix else None
        self._evictions_metric = (f"{prefix}.evictions_total"
                                  if prefix else None)
        self._bytes_metric = f"{prefix}.bytes" if prefix else None

    def _record(self, metric: Optional[str], amount: int = 1) -> None:
        if metric is not None and _obs.enabled():
            _obs.count(metric, amount)

    def _drop(self, key: Hashable) -> None:
        """Remove one entry, size bookkeeping included (lock held)."""
        del self._entries[key]
        self.total_bytes -= self._sizes.pop(key, 0)

    def _publish_bytes(self) -> None:
        if self._bytes_metric is not None and _obs.enabled():
            _obs.gauge(self._bytes_metric, self.total_bytes)

    def get_or_build(self, key: Hashable, build: Callable[[], T]) -> T:
        with self._lock:
            if self.capacity <= 0:
                self.misses += 1
            else:
                try:
                    value = self._entries[key]
                    self._entries.move_to_end(key)
                    self.hits += 1
                    self._record(self._hits_metric)
                    return value  # type: ignore[return-value]
                except KeyError:
                    self.misses += 1
        self._record(self._misses_metric)
        value = build()
        if self.capacity <= 0:
            return value
        # Sized outside the lock: memory_bytes() walks the artifact.
        size = self._sizer(value) if self.budget_bytes is not None else 0
        with self._lock:
            existing = self._entries.get(key, _MISSING)
            if existing is not _MISSING:
                # Lost a concurrent build race; serve the first insert
                # so every caller shares one artifact.
                self._entries.move_to_end(key)
                return existing  # type: ignore[return-value]
            self._entries[key] = value
            self._sizes[key] = size
            self.total_bytes += size
            evicted = 0
            while len(self._entries) > self.capacity:
                self._drop(next(iter(self._entries)))
                evicted += 1
            if self.budget_bytes is not None:
                while (self.total_bytes > self.budget_bytes
                       and len(self._entries) > 1):
                    self._drop(next(iter(self._entries)))
                    evicted += 1
            if evicted:
                self.evictions += evicted
                self._record(self._evictions_metric, evicted)
            self._publish_bytes()
            return value

    def contains(self, key: Hashable) -> bool:
        """Membership without touching hit/miss counters or recency —
        the EXPLAIN path peeks before ``get_or_build`` to attribute
        the answering tier without skewing cache statistics."""
        with self._lock:
            return key in self._entries

    def evict(self, predicate: Callable[[Hashable], bool]) -> None:
        with self._lock:
            stale = [key for key in self._entries if predicate(key)]
            for key in stale:
                self._drop(key)
            if stale:
                self.evictions += len(stale)
                self._record(self._evictions_metric, len(stale))
                self._publish_bytes()

    def info(self) -> dict:
        """Counters + occupancy snapshot (functools-style cache_info)."""
        with self._lock:
            info = {"hits": self.hits, "misses": self.misses,
                    "evictions": self.evictions,
                    "size": len(self._entries), "capacity": self.capacity}
            if self.budget_bytes is not None:
                info["bytes"] = self.total_bytes
                info["budget_bytes"] = self.budget_bytes
            return info

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


class RunCatalog:
    """Names and registers workflow runs inside one ``GraphStore``.

    Run-id allocation is race-free within a process: handed-out ids
    are *reserved* under a lock until they land in the store, so two
    ingest workers asking for fresh ids never collide.
    """

    def __init__(self, store: GraphStore, run_prefix: str = "run",
                 invalidate: Optional[Callable[[str], None]] = None):
        self.store = store
        self.run_prefix = run_prefix
        # A service fronting the same store passes its ``invalidate``
        # here so catalog-side deletes evict that run's cached
        # artifacts (deleting + re-ingesting a run id must never
        # serve the old graph out of the LRU).
        self._invalidate = invalidate
        self._naming_lock = threading.Lock()
        self._reserved: set = set()

    def new_run_id(self) -> str:
        """A fresh, collision-free run id (``run-0001`` style).

        The id is reserved until something is stored under it, so
        concurrent callers each get a distinct name.
        """
        with self._naming_lock:
            taken = {info.run_id for info in self.store.list_runs()}
            taken |= self._reserved
            index = len(taken) + 1
            while f"{self.run_prefix}-{index:04d}" in taken:
                index += 1
            run_id = f"{self.run_prefix}-{index:04d}"
            self._reserved.add(run_id)
            return run_id

    def register(self, graph: ProvenanceGraph,
                 run_id: Optional[str] = None,
                 source: Optional[str] = None) -> RunInfo:
        """Store a full graph snapshot; auto-names the run if needed."""
        if run_id is None:
            run_id = self.new_run_id()
        return self.store.put_graph(run_id, graph, source=source)

    def append(self, run_id: str, graph: ProvenanceGraph,
               source: Optional[str] = None) -> RunInfo:
        """Incrementally persist a (grown) graph for an existing run."""
        return self.store.append_graph(run_id, graph, source=source)

    def ingest(self, path: Union[str, os.PathLike],
               run_id: Optional[str] = None) -> RunInfo:
        """Import a tracker JSONL spool file (``.gz`` transparent).

        Raises :class:`~repro.errors.StoreIOError` (carrying the run
        id and path) when the spool file cannot be read.
        """
        if run_id is None:
            run_id = self.new_run_id()
        try:
            return self.store.import_jsonl(run_id, path)
        except OSError as error:
            raise StoreIOError("ingest", path, run_id=run_id,
                               cause=error) from error

    def export(self, run_id: str, path: Union[str, os.PathLike]) -> int:
        try:
            return self.store.export_jsonl(run_id, path)
        except OSError as error:
            raise StoreIOError("export", path, run_id=run_id,
                               cause=error) from error

    def runs(self) -> List[RunInfo]:
        return self.store.list_runs()

    def delete(self, run_id: str) -> None:
        self.store.delete_run(run_id)
        if self._invalidate is not None:
            self._invalidate(run_id)

    def __repr__(self) -> str:
        # Deliberately I/O-free: a repr during logging/debugging must
        # not hit the store (which can raise on a degraded shard).
        return f"RunCatalog({self.store!r}, prefix={self.run_prefix!r})"


class ProvenanceService:
    """Serves Section 4 queries for many stored runs, with caching.

    One service instance fronts one store; per-run
    :class:`~repro.lipstick.QueryProcessor` facades are built (and
    cached) on demand, each accelerated by a cached CSR snapshot.
    """

    def __init__(self, store: GraphStore, graph_cache_size: int = 8,
                 csr_cache_size: int = 8,
                 cache_budget_bytes: Optional[int] = None):
        self.store = store
        self.catalog = RunCatalog(store, invalidate=self.invalidate)
        if cache_budget_bytes is None:
            cache_budget_bytes = _env_cache_budget_bytes()
        # The byte budget guards the three caches that hold whole-graph
        # artifacts; half to live graphs, a quarter each to frozen
        # copies and CSR snapshots.  Entry-count caps still apply.
        graph_budget = csr_budget = frozen_budget = None
        if cache_budget_bytes is not None:
            graph_budget = max(cache_budget_bytes // 2, 1)
            csr_budget = frozen_budget = max(cache_budget_bytes // 4, 1)
        self.cache_budget_bytes = cache_budget_bytes
        self._graphs = LRUCache(graph_cache_size, name="graphs",
                                budget_bytes=graph_budget)
        self._processors = LRUCache(graph_cache_size, name="processors")
        self._snapshots = LRUCache(csr_cache_size, name="csr",
                                   budget_bytes=csr_budget)
        self._frozen = LRUCache(graph_cache_size, name="frozen",
                                budget_bytes=frozen_budget)
        self._load_seconds: dict = {}
        # Per-run locks serialize operations that touch a run's *live*
        # cached graph (loads, derived-artifact builds, zoom surgery,
        # copies), so a snapshot can never observe a half-mutated
        # graph.  Queries against already-built immutable artifacts
        # (CSR snapshots, frozen copies) run outside the lock.
        self._run_locks: dict = {}
        self._run_locks_guard = threading.Lock()
        # Write generations, mixed into the graph/processor cache
        # keys: a reader that loaded a run concurrently with an
        # overwrite can only insert its stale graph under the *old*
        # generation's key — future reads miss it and rebuild fresh
        # instead of serving it forever.  ``invalidate(run)`` bumps
        # that run's generation; ``invalidate()`` bumps the epoch.
        self._generations: dict = {}
        self._epoch = 0

    def _run_lock(self, run_id: str) -> "threading.RLock":
        with self._run_locks_guard:
            lock = self._run_locks.get(run_id)
            if lock is None:
                lock = threading.RLock()
                self._run_locks[run_id] = lock
            return lock

    def _generation(self, run_id: str) -> tuple:
        with self._run_locks_guard:
            return (self._epoch, self._generations.get(run_id, 0))

    # ------------------------------------------------------------------
    # Cached artifacts
    # ------------------------------------------------------------------
    def graph(self, run_id: str) -> ProvenanceGraph:
        """The rebuilt graph for ``run_id`` (LRU-cached)."""
        def build() -> ProvenanceGraph:
            # Deadline + fault seam before the expensive cold rebuild:
            # a request whose budget is already spent must not start a
            # multi-second load, and storm tests inject latency/locks
            # here deterministically.
            _cancel.check("service.graph")
            _faults.fire("service.snapshot", run_id=run_id, op="graph-load")
            with _obs.span("store.load_run", run_id=run_id):
                started = time.perf_counter()
                graph = self.store.load_graph(run_id)
                self._load_seconds[run_id] = time.perf_counter() - started
            return graph
        with self._run_lock(run_id):
            key = (run_id, self._generation(run_id))
            prof = _profile.active()
            if prof is None:
                return self._graphs.get_or_build(key, build)
            hit = self._graphs.contains(key)
            started = time.perf_counter()
            graph = self._graphs.get_or_build(key, build)
            prof.step("service.graph",
                      tier="service-lru" if hit else "sqlite-cold",
                      seconds=time.perf_counter() - started,
                      nodes=graph.node_count, edges=graph.edge_count)
            return graph

    def load_seconds(self, run_id: str) -> Optional[float]:
        """Seconds the last cold rebuild of ``run_id`` took, if any."""
        return self._load_seconds.get(run_id)

    def processor(self, run_id: str):
        """A cached, CSR-accelerated QueryProcessor for ``run_id``.

        The processor is stateful (zoom operations persist across
        calls), mirroring an interactive Query Processor session.
        """
        from ..lipstick import QueryProcessor  # deferred: import cycle
        with self._run_lock(run_id):
            graph = self.graph(run_id)
            key = (run_id, self._generation(run_id))

            def build():
                return QueryProcessor(graph, service=self, run_id=run_id)

            processor = self._processors.get_or_build(key, build)
            if processor.graph is not graph:
                # The graph cache was evicted and reloaded behind this
                # processor; a stale processor would serve (and mutate)
                # a graph object nothing else sees.  Rebuild against
                # the current one.
                self._processors.evict(lambda k: k == key)
                processor = self._processors.get_or_build(key, build)
            return processor

    def csr(self, run_id: str) -> CSRSnapshot:
        """The flat-array snapshot for the run's current graph."""
        with self._run_lock(run_id):
            graph = self.graph(run_id)
            key = (run_id, graph.version)
            prof = _profile.active()
            if prof is None:
                return self._snapshots.get_or_build(
                    key, lambda: CSRSnapshot(graph))
            hit = self._snapshots.contains(key)
            started = time.perf_counter()
            snapshot = self._snapshots.get_or_build(
                key, lambda: CSRSnapshot(graph))
            prof.step("service.csr", tier="csr-view",
                      seconds=time.perf_counter() - started, cached=int(hit),
                      nodes=snapshot.node_count, edges=snapshot.edge_count)
            return snapshot

    def snapshot(self, run_id: str) -> ProvenanceGraph:
        """A frozen copy of the run's graph (copy-on-read).

        The returned graph raises
        :class:`~repro.errors.FrozenGraphError` on structural
        mutation, so it can be handed to any number of reader threads
        while ingest — or zoom surgery on the served graph — proceeds
        (the copy itself is taken under the run's lock, so it never
        observes a half-applied mutation).  Cached per graph version;
        callers share one frozen copy.
        """
        with self._run_lock(run_id):
            graph = self.graph(run_id)
            key = (run_id, graph.version)

            def build():
                _faults.fire("service.snapshot", run_id=run_id, op="frozen")
                return graph.snapshot()

            prof = _profile.active()
            if prof is None:
                return self._frozen.get_or_build(key, build)
            hit = self._frozen.contains(key)
            started = time.perf_counter()
            frozen = self._frozen.get_or_build(key, build)
            prof.step("service.snapshot", tier="frozen-snapshot",
                      seconds=time.perf_counter() - started, cached=int(hit),
                      nodes=frozen.node_count, edges=frozen.edge_count)
            return frozen

    def invalidate(self, run_id: Optional[str] = None) -> None:
        """Drop cached artifacts (all runs when ``run_id`` is None) —
        call after writing to the store behind the service."""
        if run_id is None:
            with self._run_locks_guard:
                self._epoch += 1
            for cache in (self._graphs, self._processors, self._snapshots,
                          self._frozen):
                cache.evict(lambda key: True)
            return
        with self._run_locks_guard:
            self._generations[run_id] = self._generations.get(run_id, 0) + 1
        self._graphs.evict(lambda key: key[0] == run_id)
        self._processors.evict(lambda key: key[0] == run_id)
        for cache in (self._snapshots, self._frozen):
            cache.evict(lambda key: key[0] == run_id)

    # ------------------------------------------------------------------
    # Parallel ingest (the write side of the concurrent service)
    # ------------------------------------------------------------------
    def ingest_many(self, specs: Sequence, workers: int = 1,
                    retries: Optional[int] = None,
                    quarantine: bool = True) -> List[RunInfo]:
        """Execute many workload specs and commit each as a run.

        ``workers > 1`` executes the workflows in a process pool and
        commits the resulting spools concurrently (thread pool over
        the store's shards); the committed graphs are byte-identical
        to what serial ingest produces.  ``retries``/``quarantine``
        control the per-spec fault-tolerance policy.  See
        :func:`repro.store.ingest.ingest_many`.
        """
        from .ingest import ingest_many
        infos = ingest_many(self.catalog, specs, workers=workers,
                            retries=retries, quarantine=quarantine)
        for info in infos:
            # A spec may overwrite an existing run; cached artifacts
            # for it are stale the moment the store is written.
            self.invalidate(info.run_id)
        return infos

    # ------------------------------------------------------------------
    # Per-run queries (Section 4, served from the store)
    # ------------------------------------------------------------------
    def _pushdown(self, run_id: str):
        """The store's in-database query view for a *cold* run, else
        None.

        Selected ahead of the ``sqlite-cold`` rebuild but behind the
        in-memory tiers: when the run's graph is already cached (it
        may carry zoom surgery the store never saw, and RAM answers
        faster anyway) the CSR path keeps serving.  The view is
        re-fetched per query — one indexed point read — so it always
        reflects the store's current rows.
        """
        if self._graphs.contains((run_id, self._generation(run_id))):
            return None
        factory = getattr(self.store, "pushdown", None)
        if factory is None:
            return None
        return factory(run_id)

    def subgraph(self, run_id: str, node_id: int) -> SubgraphResult:
        """Subgraph query: pushdown when cold, CSR read path when hot."""
        with _profile.query_scope("subgraph", run_id=run_id, node=node_id):
            view = self._pushdown(run_id)
            if view is not None:
                try:
                    return view.subgraph(node_id)
                except PushdownUnavailable:
                    pass
            return self.csr(run_id).subgraph(node_id)

    def ancestors(self, run_id: str, node_id: int):
        with _profile.query_scope("ancestors", run_id=run_id, node=node_id):
            view = self._pushdown(run_id)
            if view is not None:
                try:
                    return view.ancestors(node_id)
                except PushdownUnavailable:
                    pass
            return self.csr(run_id).ancestors(node_id)

    def descendants(self, run_id: str, node_id: int):
        with _profile.query_scope("descendants", run_id=run_id,
                                  node=node_id):
            view = self._pushdown(run_id)
            if view is not None:
                try:
                    return view.descendants(node_id)
                except PushdownUnavailable:
                    pass
            return self.csr(run_id).descendants(node_id)

    def reachable(self, run_id: str, source: int, target: int) -> bool:
        with _profile.query_scope("reachability", run_id=run_id,
                                  source=source, target=target):
            view = self._pushdown(run_id)
            if view is not None:
                try:
                    return view.reachable(source, target)
                except PushdownUnavailable:
                    pass
            return self.csr(run_id).reachable(source, target)

    def deletion_set(self, run_id: str, node_ids,
                     blackbox_multiplicative: bool = False):
        """The Definition 4.2 removal set, without materializing the
        surviving graph — pushdown-served when the run is cold."""
        with _profile.query_scope("deletion", run_id=run_id):
            view = self._pushdown(run_id)
            if view is not None:
                try:
                    return view.deletion_set(
                        node_ids,
                        blackbox_multiplicative=blackbox_multiplicative)
                except PushdownUnavailable:
                    pass
            return _kernel_deletion_set(
                self.graph(run_id), list(node_ids),
                blackbox_multiplicative=blackbox_multiplicative)

    def zoom_out(self, run_id: str, module_names) -> List[str]:
        with _profile.query_scope("zoom", run_id=run_id,
                                  direction="out"):
            with self._run_lock(run_id):  # zoom mutates the served graph
                return self.processor(run_id).zoom_out(module_names)

    def zoom_in(self, run_id: str, module_names) -> List[str]:
        with _profile.query_scope("zoom", run_id=run_id, direction="in"):
            with self._run_lock(run_id):
                return self.processor(run_id).zoom_in(module_names)

    def delete(self, run_id: str, node_ids):
        """Deletion propagation on a copy (the stored run is untouched)."""
        with _profile.query_scope("deletion", run_id=run_id):
            with self._run_lock(run_id):  # the copy must not race surgery
                return self.processor(run_id).delete(node_ids,
                                                     in_place=False)

    def what_if(self, run_id: str, node_ids=(), tuple_labels=()):
        with _profile.query_scope("whatif", run_id=run_id):
            with self._run_lock(run_id):
                return self.processor(run_id).what_if(node_ids,
                                                      tuple_labels)

    def explain(self, run_id: str, kind: str, **params):
        """Run one query under profiling; returns its
        :class:`~repro.obs.profile.QueryPlan` (see
        :func:`repro.queries.explain.explain_query`)."""
        from ..queries.explain import explain_query  # deferred: layering
        return explain_query(self, run_id, kind, **params)

    def stats(self, run_id: str):
        with self._run_lock(run_id):
            return self.processor(run_id).stats()

    def runs(self) -> List[RunInfo]:
        return self.store.list_runs()

    def cache_stats(self) -> dict:
        """Hit/miss counters for the layered caches (observability)."""
        return {
            "graphs": (self._graphs.hits, self._graphs.misses),
            "processors": (self._processors.hits, self._processors.misses),
            "csr": (self._snapshots.hits, self._snapshots.misses),
        }

    def cache_info(self) -> dict:
        """Full per-cache counters: hits, misses, evictions, size,
        capacity — keyed by cache name (the ``cache.<name>.*`` metric
        namespace uses the same keys)."""
        return {
            "graphs": self._graphs.info(),
            "processors": self._processors.info(),
            "csr": self._snapshots.info(),
            "frozen": self._frozen.info(),
        }

    def record_cache_gauges(self) -> None:
        """Export :meth:`cache_info` occupancy as gauges
        (``cache.<name>.size`` / ``.capacity``) so ``repro stats
        --prom`` shows cache pressure, not just hit/miss counters.
        No-op when telemetry is disabled."""
        if not _obs.enabled():
            return
        for name, info in self.cache_info().items():
            _obs.gauge(f"cache.{name}.size", info["size"])
            _obs.gauge(f"cache.{name}.capacity", info["capacity"])

    def __repr__(self) -> str:
        return (f"ProvenanceService({self.store!r}, "
                f"cached_graphs={len(self._graphs)})")
