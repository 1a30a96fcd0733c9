"""``query_warm``: one resident run, the kernels do all the work.

Fig 7.  One Car-dealership run (1000 cars x 20 executions, about 48k
nodes) sits in a ``MemoryStore``-backed ``ProvenanceService`` with its
graph and CSR snapshot warm, so ``store`` and ``service`` do nothing
but dispatch.  The node set is the paper's §5.6 policy (highest
fan-out) plus the highest node ids (final-execution outputs).  A pass
asks every traversal once per node and ``reachable`` once per pair;
passes alternate between no deadline and ``deadline_scope(60)`` — the
same kernels used the way the server always uses them — and each pass
starts on a fresh snapshot (``invalidate`` + untimed re-warm) so the
snapshot's subgraph memo never answers.  ZoomOut-all + ZoomIn round
trips on fresh copies follow.
"""

from __future__ import annotations

import gc
import random
from contextlib import nullcontext
from time import perf_counter
from typing import Dict, List, Tuple

from ..harness import median, quantile
from ..oracle import Oracle, canonical, same_answer
from .base import (VERBS, Clock, Workload, dealership_spec, oracle_verb,
                   per_row, ratio, run_spec, spans_median)
from .query_cold import cache_metrics, count_tiers

RUN = "warm"

#: Share of the measured seconds the traversal passes get; the zoom
#: round trips get the rest.
TRAVERSALS = 0.6

#: Seconds of ``deadline_scope`` in the deadline passes: never reached,
#: so only the cost of checking for it is measured.
DEADLINE_S = 60.0


class QueryWarm(Workload):

    def setup(self) -> None:
        from repro.queries import highest_fanout_nodes
        from repro.store import MemoryStore, ProvenanceService
        sizes = self.context.sizes["warm"]
        self.spec = dealership_spec(sizes, self.seed, RUN)
        self.graph = run_spec(self.spec, track=True).graph
        self.service = ProvenanceService(MemoryStore())
        self.service.catalog.register(self.graph, run_id=RUN)
        self._warm()
        ids = sorted(self.graph.node_ids())
        chosen = (highest_fanout_nodes(self.graph, sizes["fanout_nodes"])
                  + ids[-sizes["top_nodes"]:])
        self.nodes = list(dict.fromkeys(chosen))
        rng = random.Random(self.seed)
        self.pairs = [(rng.choice(self.nodes), rng.choice(ids))
                      for _ in range(sizes["pairs"])]
        self.whatif_nodes = self.nodes[:sizes["whatif_nodes"]]

    def _warm(self) -> None:
        self.service.graph(RUN)
        self.service.csr(RUN)

    def prepare(self) -> None:
        oracle = self.oracle = Oracle(self.graph)
        self.expected = {
            (verb, node): canonical(oracle_verb(verb),
                                    oracle.answer(oracle_verb(verb), node))
            for node in self.nodes for verb in VERBS}
        self.expected_reach = [oracle.reachable(a, b) for a, b in self.pairs]

    def inputs(self):
        return {"spec": self.spec.params, "nodes": self.nodes,
                "pairs": self.pairs, "whatif": self.whatif_nodes}

    # ------------------------------------------------------------------
    def _pass(self, deadline: bool) -> Tuple[float, List[float], int]:
        """One pass on a fresh snapshot: (seconds inside the queries,
        their latencies, summed answer sizes).  Each answer is checked
        before the next query, outside its timer."""
        from repro.queries.cancel import deadline_scope
        service = self.service
        service.invalidate(RUN)
        self._warm()
        gc.collect()  # this pass pays no collection debt of the last one
        calls = [(verb, getattr(service, verb)) for verb in VERBS[:3]] + [
            ("deletion_set",
             lambda run, node: service.deletion_set(run, [node]))]
        latencies: List[float] = []
        visited = 0
        failed_before = self.ops.failed
        with deadline_scope(DEADLINE_S) if deadline else nullcontext():
            for node in self.nodes:
                for verb, call in calls:
                    started = perf_counter()
                    try:
                        answer = call(RUN, node)
                    except Exception as error:
                        self.ops.expect(False, f"{verb} #{node}: {error!r}")
                        continue
                    latencies.append(perf_counter() - started)
                    self.ops.expect(same_answer(oracle_verb(verb), answer,
                                                self.expected[verb, node]),
                                    f"{verb} #{node}: wrong answer")
                    visited += (len(answer) if verb != "subgraph"
                                else answer.size - 1)
            for pair, expected in zip(self.pairs, self.expected_reach):
                started = perf_counter()
                try:
                    found = service.reachable(RUN, *pair)
                except Exception as error:
                    self.ops.expect(False, f"reachable {pair}: {error!r}")
                    continue
                latencies.append(perf_counter() - started)
                self.ops.expect(found == expected,
                                f"reachable {pair}: wrong answer")
        if self.ops.failed != failed_before:
            latencies = []  # a pass with a failure has no latency figure
        return sum(latencies), latencies, visited

    def _zoom(self):
        """ZoomOut all modules and ZoomIn again on a fresh copy:
        (out seconds, in seconds), or None when the answer is wrong."""
        from repro.lipstick import QueryProcessor
        duplicate = self.graph.copy()
        processor = QueryProcessor(duplicate)
        gc.collect()
        started = perf_counter()
        modules = self.ops.guard("zoom_out_all", processor.zoom_out_all)
        between = perf_counter()
        coarse = duplicate.node_count
        restored = self.ops.guard("zoom_in", processor.zoom_in, modules or [])
        ended = perf_counter()
        oracle = self.oracle
        probe = self.nodes[::max(1, len(self.nodes) // 50)]
        right = self.ops.expect(
            bool(modules) and restored is not None
            and coarse < oracle.node_count
            and (duplicate.node_count, duplicate.edge_count)
            == (oracle.node_count, oracle.edge_count)
            and all(sorted(duplicate.preds(node)) == sorted(oracle.preds[node])
                    and sorted(duplicate.succs(node))
                    == sorted(oracle.succs[node]) for node in probe),
            "zoom round trip did not restore the graph")
        return (between - started, ended - between) if right else None

    def measure(self, seconds: float) -> Dict[str, float]:
        clock = Clock(TRAVERSALS * seconds)
        plain_wall: List[float] = []
        ratios: List[float] = []
        latencies: List[float] = []
        pairs = 0
        while True:
            # Alternate which side goes first, pair by pair.
            order = (False, True) if pairs % 2 == 0 else (True, False)
            walls = {}
            for deadline in order:
                wall, sample, _ = self._pass(deadline)
                walls[deadline] = wall if sample else None
                if not deadline:
                    latencies.extend(sample)
            if walls[False] and walls[True]:
                plain_wall.append(walls[False])
                ratios.append(walls[True] / walls[False])
            pairs += 1
            if not clock.running():
                break
        clock = Clock((1 - TRAVERSALS) * seconds)
        trips: List[float] = []
        while True:
            zoomed = self._zoom()
            if zoomed is not None:
                trips.append(sum(zoomed))
            if not clock.running():
                break
        self._warm()
        queries = len(self.nodes) * len(VERBS) + len(self.pairs)
        self.context.counts.update(pass_pairs=pairs, queries_per_pass=queries,
                                   zoom_round_trips=len(trips))
        resident = (self.graph.memory_bytes()
                    + self.service.csr(RUN).memory_bytes())
        return {
            "throughput": median([queries / wall for wall in plain_wall]),
            "p50_ms": 1e3 * median(latencies),
            "tail_ms": 1e3 * quantile(latencies, 0.99),
            "heavy_p50_ms": 1e3 * median(trips),
            "overhead_ratio": median(ratios),
            "bytes_per_node": ratio(resident, self.oracle.node_count),
        }

    # ------------------------------------------------------------------
    def _kernel_pass(self, prefix: str) -> list:
        """The five query functions on the graph itself, no service,
        one span per verb around the loop over the node set.  Returns
        (name, answers) for :meth:`_check_kernels`, which runs once the
        decomposition's root span has closed."""
        from repro.queries import deletion_set, subgraph_query
        graph, tracer, nodes = self.graph, self.tracer, self.nodes
        calls = {
            "ancestors": graph.ancestors, "descendants": graph.descendants,
            "subgraph": lambda node: subgraph_query(graph, node),
            "deletion": lambda node: deletion_set(graph, [node]),
        }
        answered = []
        for name, call in calls.items():
            with tracer.span(f"{prefix}.{name}", rows=len(nodes)):
                answered.append((name, [call(node) for node in nodes]))
        with tracer.span(f"{prefix}.reachable", rows=len(self.pairs)):
            answered.append(("reachable", [graph.reachable(a, b)
                                           for a, b in self.pairs]))
        return answered

    def _check_kernels(self, answered: list) -> None:
        for name, answers in answered:
            if name == "reachable":
                right = answers == self.expected_reach
            else:
                verb = "deletion_set" if name == "deletion" else name
                right = all(same_answer(name, answer,
                                        self.expected[verb, node])
                            for node, answer in zip(self.nodes, answers))
            self.ops.expect(right, f"queries.{name}: wrong answer")

    def measure_traced(self, seconds: float) -> Dict[str, float]:
        from repro.queries import ReachabilityIndex
        from repro.queries.cancel import deadline_scope
        tracer, service, nodes = self.tracer, self.service, self.nodes
        # Fixed work first, so its counts repeat: answer sizes of one
        # pass, and which tier answers a fixed query list.
        _, _, visited = self._pass(deadline=False)
        plans = []
        for node in nodes[:20]:
            for kind, params in (("ancestors", {"node": node}),
                                 ("descendants", {"node": node}),
                                 ("subgraph", {"node": node}),
                                 ("deletion", {"nodes": [node]})):
                plans.append(self.ops.guard(f"explain {kind}",
                                            service.explain, RUN, kind,
                                            **params))
        metrics = count_tiers(plan for plan in plans if plan is not None)
        metrics["queries.nodes_visited"] = visited
        with tracer.layers():
            with tracer.span("queries.reach_index_build",
                             rows=self.oracle.node_count):
                index = ReachabilityIndex(self.graph)
            with tracer.span("queries.reach_index_query", rows=len(nodes)):
                closure = [index.descendants(node) for node in nodes]
        self.ops.expect(
            all(same_answer("descendants", found,
                            self.expected["descendants", node])
                for node, found in zip(nodes, closure)),
            "ReachabilityIndex.descendants: wrong answer")
        clock = Clock(seconds)
        reference = 0.0
        rounds = 0
        while True:
            tracer.next_op()
            wall, _, _ = self._pass(deadline=False)
            reference += wall
            service.invalidate(RUN)
            self._warm()
            with tracer.layers():
                answered = self._kernel_pass("queries")
                with deadline_scope(DEADLINE_S):
                    answered += self._kernel_pass("queries.deadline")
                with tracer.span("store.service_ancestors", rows=len(nodes)):
                    for node in nodes:
                        service.ancestors(RUN, node)
                with tracer.span("store.first_ask", rows=len(nodes)):
                    for node in nodes:
                        service.subgraph(RUN, node)
                with tracer.span("store.memo_hit", rows=len(nodes)):
                    for node in nodes:
                        service.subgraph(RUN, node)
                self._zoom_traced()
                for node in self.whatif_nodes[:10]:
                    with tracer.span("queries.whatif"):
                        outcome = self.ops.guard("what_if", service.what_if,
                                                 RUN, [node])
                    if outcome is not None:
                        self.ops.expect(
                            outcome.deletion.removed_count
                            == len(self.oracle.deletion_set([node])),
                            f"what_if #{node}: wrong survivor count")
            self._check_kernels(answered)
            rounds += 1
            if not clock.running():
                break
        self.context.counts.update(rounds=rounds)
        verbs = ("ancestors", "descendants", "subgraph", "reachable",
                 "deletion")
        plain = sum(sum(tracer.seconds(f"queries.{verb}")) for verb in verbs)
        checked = sum(sum(tracer.seconds(f"queries.deadline.{verb}"))
                      for verb in verbs)
        metrics.update(cache_metrics(service))
        metrics.update({f"queries.{verb}_us":
                        1e6 * per_row(tracer, f"queries.{verb}")
                        for verb in verbs})
        metrics.update({
            "store.service_overhead_us":
                1e6 * (per_row(tracer, "store.service_ancestors")
                       - per_row(tracer, "queries.ancestors")),
            "store.memo_hit_us": 1e6 * per_row(tracer, "store.memo_hit"),
            "queries.deadline_overhead_ratio": ratio(checked, plain),
            "queries.zoom_out_s": spans_median(tracer, "queries.zoom_out"),
            "queries.zoom_in_s": spans_median(tracer, "queries.zoom_in"),
            "queries.whatif_ms": 1e3 * spans_median(tracer, "queries.whatif"),
            "queries.reach_index_build_s":
                spans_median(tracer, "queries.reach_index_build"),
            "queries.reach_index_query_us":
                1e6 * per_row(tracer, "queries.reach_index_query"),
            "bench.trace_overhead_ratio": ratio(plain, reference),
        })
        return metrics

    def _zoom_traced(self) -> None:
        from repro.lipstick import QueryProcessor
        tracer = self.tracer
        duplicate = self.graph.copy()
        processor = QueryProcessor(duplicate)
        with tracer.span("queries.zoom_out"):
            modules = processor.zoom_out_all()
        with tracer.span("queries.zoom_in"):
            processor.zoom_in(modules)
        self.ops.expect((duplicate.node_count, duplicate.edge_count)
                        == (self.oracle.node_count, self.oracle.edge_count),
                        "traced zoom round trip did not restore the graph")
