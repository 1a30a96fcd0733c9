"""``query_cold``: a working set larger than the program's caches.

Fig 6+7 as a stored system.  Set-up ingests 12 Car-dealership runs and
reopens the store behind a fresh ``ProvenanceService`` whose graph
cache holds 8, so round-robin access never hits.  Each turn asks the
four traversals on the run the next turn will load — not resident, so
whichever tier answers (today the SQL pushdown), answers cold — and
then a full-graph operation on this turn's run, which forces the
row-to-graph rebuild.  Store reads, interval pushdown, rebuild and CSR
build do the work; the kernels do almost none.  This is where a
persisted read representation must win, and ``track_*`` is where its
write and space cost must show.
"""

from __future__ import annotations

import os
import random
import statistics
import subprocess
import sys
from time import perf_counter
from typing import Dict, List

from .. import harness, spec as _spec
from ..harness import median, quantile
from ..oracle import Oracle, same_answer
from .base import (VERBS, Clock, Workload, ask, dealership_spec, oracle_verb,
                   ratio, run_spec, spans_median)

#: Nodes asked cold per turn (four traversals each).
COLD_NODES = 2

#: ``service.explain`` kinds for the tier count, by service verb.
EXPLAIN_KIND = {"ancestors": "ancestors", "descendants": "descendants",
                "subgraph": "subgraph", "deletion_set": "deletion"}

TIERS = ("service-lru", "frozen-snapshot", "csr-view", "bitset-index",
         "sqlite-pushdown", "sqlite-cold")


def count_tiers(plans) -> Dict[str, float]:
    counts = {f"store.tier.{tier}": 0.0 for tier in TIERS}
    for plan in plans:
        for tier in plan.tiers():
            key = f"store.tier.{tier}"
            if key in counts:
                counts[key] += 1
    return counts


def cache_metrics(service) -> Dict[str, float]:
    stats = service.cache_stats()
    info = service.cache_info()
    return {
        "store.cache_hit_ratio.graphs":
            ratio(stats["graphs"][0], sum(stats["graphs"])),
        "store.cache_hit_ratio.csr": ratio(stats["csr"][0], sum(stats["csr"])),
        "store.cache_evictions":
            sum(cache["evictions"] for cache in info.values()),
    }


class QueryCold(Workload):

    def setup(self) -> None:
        from repro.store import (ProvenanceService, RunCatalog, ingest_many,
                                 open_store)
        self.teardown()
        sizes = self.context.sizes
        self.path = os.path.join(self.context.fresh_dir(), "cold.db")
        self.specs = [dealership_spec(sizes["dealerships"], self.seed + index,
                                      f"cold-{index:02d}")
                      for index in range(sizes["cold"]["runs"])]
        store = open_store(self.path)
        self.infos = ingest_many(RunCatalog(store), self.specs, workers=1)
        store.close()
        self.stored_bytes = store.storage_bytes()
        self.store = open_store(self.path)
        self.service = ProvenanceService(self.store)
        self.runs = [spec.run_id for spec in self.specs]

    def teardown(self) -> None:
        store = getattr(self, "store", None)
        if store is not None:
            store.close()
            self.store = None

    def prepare(self) -> None:
        from repro.queries import Zoomer
        self.oracles: Dict[str, Oracle] = {}
        self.module: Dict[str, str] = {}
        self.zoomed_nodes: Dict[str, int] = {}
        for spec, info in zip(self.specs, self.infos):
            graph = run_spec(spec, track=True).graph
            oracle = self.oracles[spec.run_id] = Oracle(graph)
            self.ops.expect((info.node_count, info.edge_count)
                            == (oracle.node_count, oracle.edge_count),
                            f"{spec.run_id}: stored counts differ from an "
                            "independent execution")
            module = self.module[spec.run_id] = sorted(graph.module_names())[0]
            zoomed = graph.copy()
            Zoomer(zoomed).zoom_out([module])
            self.zoomed_nodes[spec.run_id] = zoomed.node_count
        rng = random.Random(self.seed)
        self.offset = {run: rng.randrange(self.oracles[run].node_count)
                       for run in self.runs}
        self.drawn = {run: 0 for run in self.runs}

    def inputs(self):
        return {"specs": [spec.params for spec in self.specs],
                "offsets": self.offset}

    def _node(self, run: str) -> int:
        """The next query node of ``run``: a seeded offset plus golden-
        ratio steps through the ids, so that any number of draws is
        spread evenly over the run's executions and two seeds ask
        about equally hard questions."""
        ids = self.oracles[run].ids
        step = self.drawn[run]
        self.drawn[run] = step + 1
        return ids[(self.offset[run] + int(step * 0.6180339887 * len(ids)))
                   % len(ids)]

    def _traversals(self, service, run: str, node: int) -> Dict[str, float]:
        """The four verbs on one node, each timed and then checked:
        seconds by verb, right answers only."""
        seconds = {}
        for verb in VERBS:
            started = perf_counter()
            answer = self.ops.guard(f"{verb} {run}#{node}", ask, service,
                                    verb, run, node)
            elapsed = perf_counter() - started
            if answer is None:
                continue
            name = oracle_verb(verb)
            if self.ops.expect(
                    same_answer(name, answer,
                                self.oracles[run].answer(name, node)),
                    f"{verb} {run}#{node}: wrong answer"):
                seconds[verb] = elapsed
        return seconds

    # ------------------------------------------------------------------
    def measure(self, seconds: float) -> Dict[str, float]:
        service = self.service
        runs = self.runs
        clock = Clock(seconds)
        cold: Dict[str, List[float]] = {verb: [] for verb in VERBS}
        rates: List[float] = []
        heavy: List[float] = []
        ratios: List[float] = []
        asked: Dict[str, list] = {}
        turn = 0
        while True:
            # Traversals on the run the *next* turn will load: with 12
            # runs round-robin through a cache of 8 it is never
            # resident, so whichever tier answers, answers cold.
            ahead = runs[(turn + 1) % len(runs)]
            loads = service.cache_stats()["graphs"][1]
            asked[ahead] = []
            for _ in range(COLD_NODES):
                node = self._node(ahead)
                answered = self._traversals(service, ahead, node)
                asked[ahead].append((node, answered))
                for verb, elapsed in answered.items():
                    cold[verb].append(elapsed)
                rates.append(ratio(len(answered), sum(answered.values())))
            self.ops.expect(service.cache_stats()["graphs"][1] == loads,
                            f"traversals on {ahead} loaded its graph: they "
                            "were not answered cold")
            elapsed = self._open(service, runs[turn % len(runs)], asked,
                                 ratios)
            if elapsed is not None:
                heavy.append(elapsed)
            turn += 1
            if not clock.running():
                break
        self.context.counts.update(turns=turn,
                                   cold_queries=sum(map(len, cold.values())),
                                   query_pairs=len(ratios))
        nodes = sum(info.node_count for info in self.infos)
        # Per verb first, then the mean over verbs: the median of a
        # four-verb mixture would sit between the verbs' modes.
        return {
            "throughput": median(rates),
            "p50_ms": 1e3 * statistics.mean(median(cold[verb])
                                            for verb in VERBS),
            "tail_ms": 1e3 * statistics.mean(quantile(cold[verb], 0.9)
                                             for verb in VERBS),
            "heavy_p50_ms": 1e3 * median(heavy),
            "overhead_ratio": median(ratios),
            "bytes_per_node": ratio(self.stored_bytes, nodes),
        }

    def _open(self, service, run: str, asked: Dict[str, list],
              ratios: List[float]):
        """One full-graph operation: load the whole graph, zoom out the
        first module, take stats.  Between load and zoom (which edits
        the served graph) the queries the previous turn asked cold on
        this run are asked again, outside this operation's timer, now
        that it is resident; each pair gives one cold / hot ratio a
        fraction of a second apart."""
        oracle = self.oracles[run]
        started = perf_counter()
        graph = self.ops.guard(f"graph {run}", service.graph, run)
        loaded = perf_counter() - started
        if graph is None:
            return None
        counts = (graph.node_count, graph.edge_count)
        if run in asked:
            service.csr(run)
            # One untimed round first: the first queries on a snapshot
            # pay for what it builds lazily, and "resident" means after.
            self._traversals(service, run, oracle.ids[len(oracle.ids) // 2])
            for node, before in asked.pop(run):
                hot = self._traversals(service, run, node)
                ratios.extend(ratio(before[verb], hot[verb])
                              for verb in hot if verb in before)
        module = self.module[run]
        started = perf_counter()
        zoomed = self.ops.guard(f"zoom_out {run}", service.zoom_out, run,
                                [module])
        stats = self.ops.guard(f"stats {run}", service.stats, run)
        elapsed = loaded + perf_counter() - started
        right = self.ops.expect(
            counts == (oracle.node_count, oracle.edge_count)
            and zoomed == [module] and stats is not None
            and stats.node_count == self.zoomed_nodes[run],
            f"full-graph operation on {run}: wrong graph or zoom")
        return elapsed if right else None

    # ------------------------------------------------------------------
    def measure_traced(self, seconds: float) -> Dict[str, float]:
        from repro.store import CSRSnapshot, ProvenanceService, open_store
        tracer = self.tracer
        # Which tier answers, over a fixed query list, so it repeats.
        explainer = ProvenanceService(self.store)
        plans = []
        for run in self.runs:
            node = self._node(run)
            for verb in VERBS:
                key = "nodes" if verb == "deletion_set" else "node"
                value = [node] if verb == "deletion_set" else node
                plans.append(self.ops.guard(
                    f"explain {verb}", explainer.explain, run,
                    EXPLAIN_KIND[verb], **{key: value}))
            plans.append(self.ops.guard(
                "explain zoom", explainer.explain, run, "zoom",
                modules=[self.module[run]]))
        metrics = count_tiers(plan for plan in plans if plan is not None)
        with tracer.layers():
            with tracer.span("store.open"):
                second = open_store(self.path)
            second.close()
            for _ in range(3):
                with tracer.span("cli.runs"):
                    done = subprocess.run(
                        [sys.executable, "-m", "repro", "runs", "--db",
                         self.path, "--json"], env=harness.child_environment(),
                        cwd=_spec.ROOT, capture_output=True, timeout=60)
                self.ops.expect(done.returncode == 0,
                                f"repro runs exited {done.returncode}")
        clock = Clock(seconds)
        reference = layered = 0.0
        csr_mb: List[float] = []
        turn = 0
        while True:
            run = self.runs[turn % len(self.runs)]
            oracle = self.oracles[run]
            node = self._node(run)
            tracer.next_op()
            # The same inputs through the top-level API, untraced.
            started = perf_counter()
            ask(self.service, "ancestors", run, node)
            self.service.graph(run)
            reference += perf_counter() - started
            with tracer.layers():
                view = self.store.pushdown(run)
                for verb in VERBS:
                    name = oracle_verb(verb)
                    with tracer.span(f"store.pushdown_{name}") as span:
                        answer = (view.deletion_set([node])
                                  if verb == "deletion_set"
                                  else getattr(view, verb)(node))
                    self.ops.expect(
                        same_answer(name, answer, oracle.answer(name, node)),
                        f"pushdown {verb} {run}#{node}: wrong answer")
                    if verb == "ancestors":
                        layered += span.seconds
                with tracer.span("store.load_graph",
                                 rows=oracle.node_count
                                 + oracle.edge_count) as span:
                    graph = self.store.load_graph(run)
                layered += span.seconds
                with tracer.span("store.csr_build", rows=oracle.node_count):
                    snapshot = CSRSnapshot(graph)
                with tracer.span("graph.copy", rows=oracle.node_count):
                    duplicate = graph.copy()
            csr_mb.append(snapshot.memory_bytes() / 2**20)
            self.ops.expect(
                (duplicate.node_count, duplicate.edge_count)
                == (oracle.node_count, oracle.edge_count)
                and snapshot.ancestors(node) == oracle.ancestors(node),
                f"load_graph/CSRSnapshot/copy of {run}: wrong graph")
            turn += 1
            if not clock.running():
                break
        self.context.counts.update(turns=turn)
        metrics.update(cache_metrics(self.service))
        load_s = sum(tracer.seconds("store.load_graph"))
        metrics.update({
            "store.open_s": spans_median(tracer, "store.open"),
            "cli.startup_ms": 1e3 * spans_median(tracer, "cli.runs"),
            "store.load_graph_s": spans_median(tracer, "store.load_graph"),
            "store.load_rows_per_s":
                ratio(tracer.rows("store.load_graph"), load_s),
            "store.csr_build_s": spans_median(tracer, "store.csr_build"),
            "store.csr_mb": median(csr_mb),
            "graph.copy_s": spans_median(tracer, "graph.copy"),
            "bench.trace_overhead_ratio": ratio(layered, reference),
        })
        for verb in VERBS:
            name = oracle_verb(verb)
            metrics[f"store.pushdown_{name}_ms"] = 1e3 * spans_median(
                tracer, f"store.pushdown_{name}")
        return metrics
