"""``serve_closed``: the HTTP front end under a closed loop.

``python -m repro serve`` runs as a subprocess over 4 Car-dealership
runs, every run touched (graph and CSR resident) before timing.  The
benchmark process drives ``min(nproc, 2)`` keep-alive connections in a
closed loop — provenance clients are analysts and tools that wait for
each reply — with a seeded mix: 40% ancestors, 25% descendants, 20%
subgraph, 10% reachable, 5% deletion, half asking for id lists, nodes
uniform over the run.  It is the only workload where ``service`` (HTTP
parse, admission, thread hand-off, JSON encode, socket) dominates: the
kernel is a few percent of a request, so kernel or store changes
predict no change here and front-end changes predict none on
``query_warm``.
"""

from __future__ import annotations

import json
import os
import random
import re
import select
import signal
import socket
import subprocess
import sys
import threading
from time import perf_counter
from typing import Dict, List, NamedTuple, Optional, Tuple

from .. import harness, spec as _spec
from ..harness import median, quantile
from ..oracle import Oracle
from .base import Clock, Workload, dealership_spec, ratio, run_spec

MIX = (("ancestors", 0.40), ("descendants", 0.25), ("subgraph", 0.20),
       ("reachable", 0.10), ("deletion", 0.05))
VERBS = tuple(verb for verb, _ in MIX)
CONTENT_LENGTH = re.compile(rb"(?i)content-length:\s*(\d+)")


class Request(NamedTuple):
    verb: str
    run: str
    nodes: Tuple[int, ...]
    ids: bool
    path: str


class Record(NamedTuple):
    request: Request
    status: int
    seconds: float
    body: bytes
    done: float  # perf_counter() when the reply was complete


#: Seconds per window.  Load is applied in windows and every metric is
#: the median over windows of that window's figure: the sandbox's speed
#: drifts by several percent over seconds, and a median over windows
#: (with the in-process reference taken right after each window, so the
#: ratio sees the same drift on both sides) is steadier than one figure
#: over the whole run.
WINDOW_S = 1.0


class Connection:
    """A keep-alive HTTP/1.1 connection on a raw socket.

    ``http.client`` spends about as much CPU per request as the server
    does; with the load generated from one process that would measure
    the client.  This reads exactly what the server writes: a status
    line, headers with ``Content-Length``, and the body.
    """

    def __init__(self, host: str, port: int) -> None:
        self.address = (host, port)
        self.sock: Optional[socket.socket] = None
        self.buffer = b""

    def get(self, path: str) -> Tuple[int, bytes]:
        """(status, body); (-1, b"") when the exchange fails, after
        which the next call reconnects."""
        try:
            if self.sock is None:
                self.sock = socket.create_connection(self.address, timeout=30)
                self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                self.buffer = b""
            self.sock.sendall(b"GET " + path.encode("latin-1")
                              + b" HTTP/1.1\r\nHost: bench\r\n\r\n")
            buffer = self.buffer
            while b"\r\n\r\n" not in buffer:
                buffer += self._receive()
            head, _, rest = buffer.partition(b"\r\n\r\n")
            length = int(CONTENT_LENGTH.search(head).group(1))
            while len(rest) < length:
                rest += self._receive()
            self.buffer = rest[length:]
            return int(head[9:12]), rest[:length]
        except (OSError, ValueError, AttributeError):
            self.close()
            return -1, b""

    def _receive(self) -> bytes:
        chunk = self.sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed the connection")
        return chunk

    def close(self) -> None:
        if self.sock is not None:
            self.sock.close()
            self.sock = None


class RequestStream:
    """One client's endless, seeded request sequence."""

    def __init__(self, seed: int, client: int, node_counts: Dict[str, int]):
        self.rng = random.Random(f"serve/{seed}/{client}")
        self.node_counts = node_counts
        self.runs = sorted(node_counts)

    def next(self) -> Request:
        rng = self.rng
        draw, verb = rng.random(), VERBS[-1]
        for name, share in MIX:
            if draw < share:
                verb = name
                break
            draw -= share
        run = rng.choice(self.runs)
        count = self.node_counts[run]
        ids = rng.random() < 0.5
        base = f"/v1/runs/{run}/{verb}"
        if verb == "reachable":
            nodes = (rng.randrange(count), rng.randrange(count))
            return Request(verb, run, nodes, False,
                           f"{base}?source={nodes[0]}&target={nodes[1]}")
        node = rng.randrange(count)
        key = "nodes" if verb == "deletion" else "node"
        return Request(verb, run, (node,), ids,
                       f"{base}?{key}={node}" + ("&ids=1" if ids else ""))


def right_answer(oracle: Oracle, request: Request, body: bytes) -> bool:
    """Whether a 200 body carries the oracle's count and ids."""
    try:
        payload = json.loads(body)
    except ValueError:
        return False
    verb, node = request.verb, request.nodes[0]
    if verb == "reachable":
        return payload.get("reachable") == oracle.reachable(*request.nodes)
    if verb == "subgraph":
        ancestors, descendants, siblings = oracle.subgraph(node)
        ok = (payload.get("ancestors") == len(ancestors)
              and payload.get("descendants") == len(descendants)
              and payload.get("siblings") == len(siblings)
              and payload.get("size") == 1 + len(ancestors | descendants
                                                 | siblings))
        if request.ids:
            ok = ok and (payload.get("ancestor_ids") == sorted(ancestors)
                         and payload.get("descendant_ids")
                         == sorted(descendants)
                         and payload.get("sibling_ids") == sorted(siblings))
        return ok
    expected = (oracle.deletion_set([node]) if verb == "deletion"
                else oracle.answer(verb, node))
    ok = payload.get("count") == len(expected)
    if request.ids:
        ok = ok and payload.get("ids") == sorted(expected)
    return ok


class ServeClosed(Workload):
    proc: Optional[subprocess.Popen] = None

    def __init__(self, context) -> None:
        super().__init__(context)
        self.cpus = sorted(os.sched_getaffinity(0))
        if len(self.cpus) >= 2:
            context.notes["cpu_pinning"] = {"server": self.cpus[-1:],
                                            "load_generator": self.cpus[:-1]}

    def setup(self) -> None:
        from repro.store import RunCatalog, ingest_many, open_store
        self.teardown()
        self._pin(0, self.cpus[:-1])
        sizes = self.context.sizes
        directory = self.context.fresh_dir()
        self.path = os.path.join(directory, "serve.db")
        self.specs = [dealership_spec(sizes["dealerships"], self.seed + index,
                                      f"serve-{index:02d}")
                      for index in range(sizes["serve"]["runs"])]
        store = open_store(self.path)
        self.infos = ingest_many(RunCatalog(store), self.specs, workers=1)
        store.close()
        self.stored_bytes = store.storage_bytes()
        self.node_counts = {info.run_id: info.node_count
                            for info in self.infos}
        self.clients = min(os.cpu_count() or 1, 2)
        self._spawn(directory)
        for run in self.node_counts:  # graph, then CSR, resident
            for path in (f"/v1/runs/{run}/stats",
                         f"/v1/runs/{run}/ancestors?node=0"):
                status, _ = self._get(path)
                if status != 200:
                    raise RuntimeError(f"warm-up GET {path}: {status}")

    def _pin(self, pid: int, cpus: List[int]) -> None:
        """Keep the server on the last CPU and this process, which
        generates the load, on the others.  Left to migrate, the
        server's threads wake each other across CPUs and its CPU per
        request settles, run by run, at one of two levels a factor of
        two apart; pinned, there is one level."""
        if len(self.cpus) >= 2:
            os.sched_setaffinity(pid, cpus)

    def _spawn(self, directory: str) -> None:
        self.log = open(os.path.join(directory, "server.log"), "wb")
        started = perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--db", self.path,
             "--port", "0"], env=harness.child_environment(), cwd=_spec.ROOT,
            stdout=subprocess.PIPE, stderr=self.log)
        self._pin(self.proc.pid, self.cpus[-1:])  # before it has threads
        ready, _, _ = select.select([self.proc.stdout], [], [], 60)
        line = self.proc.stdout.readline() if ready else b""
        match = re.search(rb"http://([\d.]+):(\d+)", line)
        if match is None:
            raise RuntimeError(f"repro serve did not start: {line!r}")
        self.host, self.port = match.group(1).decode(), int(match.group(2))
        clock = Clock(30)
        while self._get("/healthz")[0] != 200:
            if not clock.running():
                raise RuntimeError("repro serve never answered /healthz")
        self.startup_s = perf_counter() - started

    def _get(self, path: str) -> Tuple[int, bytes]:
        conn = Connection(self.host, self.port)
        try:
            return conn.get(path)
        finally:
            conn.close()

    def teardown(self) -> None:
        store = getattr(self, "inproc_store", None)
        if store is not None:
            store.close()
            self.inproc_store = None
        proc = self.proc
        if proc is None:
            return
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        self.log.close()
        self.proc = None

    def prepare(self) -> None:
        from repro.store import ProvenanceService, open_store
        self.oracles = {}
        for spec, info in zip(self.specs, self.infos):
            oracle = self.oracles[spec.run_id] = Oracle(
                run_spec(spec, track=True).graph)
            self.ops.expect((info.node_count, info.edge_count)
                            == (oracle.node_count, oracle.edge_count),
                            f"{spec.run_id}: stored counts differ from an "
                            "independent execution")
        self.inproc_store = open_store(self.path)
        self.inproc = ProvenanceService(self.inproc_store)
        for run in self.node_counts:
            self.inproc.graph(run)
            self.inproc.csr(run)

    def inputs(self):
        streams = [RequestStream(self.seed, client, self.node_counts)
                   for client in range(self.clients)]
        return {"specs": [spec.params for spec in self.specs],
                "requests": [[stream.next().path for _ in range(200)]
                             for stream in streams]}

    def peak_rss_mb(self) -> float:
        return self._proc_status_kb("VmHWM") / 1024.0

    def _proc_status_kb(self, field: str) -> float:
        with open(f"/proc/{self.proc.pid}/status") as stream:
            for line in stream:
                if line.startswith(field + ":"):
                    return float(line.split()[1])
        return 0.0

    def _server_cpu_s(self) -> float:
        with open(f"/proc/{self.proc.pid}/stat") as stream:
            fields = stream.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    # ------------------------------------------------------------------
    def _client(self, client: int, clock: Clock, traced: bool,
                records: List[Record]) -> None:
        stream = RequestStream(self.seed, client, self.node_counts)
        tracer = self.tracer if traced else None
        conn = Connection(self.host, self.port)
        try:
            while clock.running():
                request = stream.next()
                if tracer is not None:
                    tracer.next_op()
                    with tracer.span(f"service.req.{request.verb}") as span:
                        status, body = conn.get(request.path)
                    elapsed, done = span.seconds, span.end
                else:
                    started = perf_counter()
                    status, body = conn.get(request.path)
                    done = perf_counter()
                    elapsed = done - started
                records.append(Record(request, status, elapsed, body, done))
        finally:
            conn.close()

    def _load(self, seconds: float, traced: bool):
        """Closed loop for ``seconds``: (records, when it started)."""
        clock = Clock(seconds)
        per_client: List[List[Record]] = [[] for _ in range(self.clients)]
        threads = [threading.Thread(target=self._client,
                                    args=(client, clock, traced, records))
                   for client, records in enumerate(per_client)]
        started = perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return ([record for records in per_client for record in records],
                started)

    def _checked(self, records: List[Record]) -> List[Record]:
        """The records whose answer is a 200 the oracle agrees with;
        checked after the clock has stopped."""
        good = []
        for record in records:
            request = record.request
            if record.status != 200:
                self.ops.expect(False, f"GET {request.path}: status "
                                       f"{record.status}")
            elif self.ops.expect(
                    right_answer(self.oracles[request.run], request,
                                 record.body),
                    f"GET {request.path}: wrong answer"):
                good.append(record)
        return good

    def _in_process(self, request: Request) -> bytes:
        """The same request answered by ``ProvenanceService`` calls and
        encoded the way the server's handlers encode it."""
        service, run, node = self.inproc, request.run, request.nodes[0]
        verb = request.verb
        if verb == "reachable":
            payload = {"query": verb, "run": run, "source": node,
                       "target": request.nodes[1],
                       "reachable": bool(service.reachable(
                           run, *request.nodes))}
        elif verb == "subgraph":
            result = service.subgraph(run, node)
            payload = {"query": verb, "run": run, "node": node,
                       "size": result.size,
                       "ancestors": len(result.ancestors),
                       "descendants": len(result.descendants),
                       "siblings": len(result.siblings)}
            if request.ids:
                payload["ancestor_ids"] = sorted(result.ancestors)
                payload["descendant_ids"] = sorted(result.descendants)
                payload["sibling_ids"] = sorted(result.siblings)
        else:
            found = (service.deletion_set(run, [node]) if verb == "deletion"
                     else getattr(service, verb)(run, node))
            payload = {"query": verb, "run": run, "node": node,
                       "count": len(found)}
            if request.ids:
                payload["ids"] = sorted(found)
        return json.dumps(payload, separators=(",", ":")).encode("utf-8")

    def _replay(self, traced: bool) -> float:
        """Client 0's first requests answered in process: the median
        seconds per request."""
        tracer = self.tracer if traced else None
        stream = RequestStream(self.seed, 0, self.node_counts)
        seconds = []
        for _ in range(self.context.sizes["serve"]["inproc_requests"]):
            request = stream.next()
            started = perf_counter()
            if tracer is not None:
                with tracer.span("store.in_process"):
                    body = self.ops.guard("in-process", self._in_process,
                                          request)
            else:
                body = self.ops.guard("in-process", self._in_process, request)
            elapsed = perf_counter() - started
            if body is not None and self.ops.expect(
                    right_answer(self.oracles[request.run], request, body),
                    f"in-process {request.path}: wrong answer"):
                seconds.append(elapsed)
        return median(seconds)

    # ------------------------------------------------------------------
    def measure(self, seconds: float) -> Dict[str, float]:
        rates: List[float] = []
        p50s: List[float] = []
        tails: List[float] = []
        heavies: List[float] = []
        ratios: List[float] = []
        requests = 0
        count = max(1, round(seconds / WINDOW_S))
        for _ in range(count):
            records, started = self._load(seconds / count, traced=False)
            wall = max(record.done for record in records) - started
            good = self._checked(records)
            in_process = self._replay(traced=False)
            requests += len(records)
            if not good:
                continue
            latencies = [record.seconds for record in good]
            rates.append(len(good) / wall)
            p50s.append(median(latencies))
            tails.append(quantile(latencies, 0.99))
            heavies.append(median([record.seconds for record in good
                                   if record.request.ids]))
            ratios.append(ratio(p50s[-1], in_process))
        self.context.counts.update(clients=self.clients, requests=requests,
                                   windows=len(rates))
        nodes = sum(self.node_counts.values())
        return {
            "throughput": median(rates),
            "p50_ms": 1e3 * median(p50s),
            "tail_ms": 1e3 * median(tails),
            "heavy_p50_ms": 1e3 * median(heavies),
            "overhead_ratio": median(ratios),
            "bytes_per_node": ratio(self.stored_bytes, nodes),
        }

    def measure_traced(self, seconds: float) -> Dict[str, float]:
        tracer = self.tracer
        with tracer.layers():
            for _ in range(50):
                with tracer.span("service.healthz"):
                    status, _ = self._get("/healthz")
                self.ops.expect(status == 200, f"/healthz: status {status}")
        # Untraced and traced load alternate, window by window, so both
        # see the server at both of its levels.
        plain: List[Record] = []
        records: List[Record] = []
        cpu = 0.0
        count = max(1, round(seconds / (2 * WINDOW_S)))
        for _ in range(count):
            plain += self._load(seconds / (2 * count), traced=False)[0]
            before = self._server_cpu_s()
            with tracer.layers():
                records += self._load(seconds / (2 * count), traced=True)[0]
            cpu += self._server_cpu_s() - before
        good = self._checked(records)
        self._checked(plain)
        with tracer.layers():
            in_process = self._replay(traced=True)
        self.context.counts.update(clients=self.clients,
                                   requests=len(records))
        latencies = [record.seconds for record in good]
        statuses = [record.status for record in records]
        metrics = {
            "service.startup_s": self.startup_s,
            "service.healthz_ms":
                1e3 * median(tracer.seconds("service.healthz")),
            "service.inproc_ms": 1e3 * in_process,
            "service.overhead_ms": 1e3 * (median(latencies) - in_process),
            "service.cpu_ms_per_req": 1e3 * ratio(cpu, len(records)),
            "service.body_bytes_per_req":
                ratio(sum(len(record.body) for record in records),
                      len(records)),
            "service.status_200": statuses.count(200),
            "service.status_429": statuses.count(429),
            "service.status_5xx": sum(1 for status in statuses
                                      if status >= 500 or status < 0),
            "service.wrong_answers": statuses.count(200) - len(good),
            "service.rss_mb": self.peak_rss_mb(),
            # Equal windows, so requests completed compare directly.
            "bench.trace_overhead_ratio": ratio(len(plain), len(records)),
        }
        for verb in VERBS:
            metrics[f"service.req_ms.{verb}"] = 1e3 * median(
                [record.seconds for record in good
                 if record.request.verb == verb])
        return metrics
