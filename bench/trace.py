"""Benchmark-side tracer: in-memory spans, self time, the layer ladder.

Spans are recorded here, around the calls into each layer, not inside
the program.  A span is (id, name, parent, operation id, start, end,
rows); its layer is the part of the name before the first dot.  Spans
stay in a list until the run ends and are then flushed as JSONL.  A
span's self time is its duration minus the part of that interval its
child spans cover, so self times over one root add up to its duration.
"""

from __future__ import annotations

import json
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Dict, Iterator, List, Optional, Tuple

#: Name of the root span of one layer-by-layer decomposition.
ROOT_NAME = "bench.layers"


class Span:
    __slots__ = ("id", "name", "parent", "op", "start", "end", "rows")

    def __init__(self, id: int, name: str, parent: Optional[int], op: int,
                 start: float):
        self.id = id
        self.name = name
        self.parent = parent
        self.op = op
        self.start = start
        self.end = start
        self.rows = 0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Collects spans; each thread nests its own, under a shared root."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ops = 0
        self.root: Optional[Span] = None

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def next_op(self) -> int:
        """A fresh operation id: spans of one operation share it."""
        with self._lock:
            self._ops += 1
            self._local.op = self._ops
            return self._ops

    @contextmanager
    def span(self, name: str, rows: int = 0) -> Iterator[Span]:
        stack = self._stack()
        parent = stack[-1] if stack else self.root
        with self._lock:
            span = Span(len(self.spans), name,
                        parent.id if parent is not None else None,
                        getattr(self._local, "op", 0), 0.0)
            self.spans.append(span)
        stack.append(span)
        span.rows = rows
        span.start = perf_counter()
        try:
            yield span
        finally:
            span.end = perf_counter()
            stack.pop()

    @contextmanager
    def layers(self) -> Iterator[Span]:
        """A ``bench.layers`` root: the layer-by-layer decomposition of
        one operation.  Spans other threads open while it is active
        hang under it; the ladder is taken over all such roots."""
        with self.span(ROOT_NAME) as span:
            self.root = span
            try:
                yield span
            finally:
                self.root = None

    # ------------------------------------------------------------------
    def seconds(self, name: str) -> List[float]:
        return [span.seconds for span in self.spans if span.name == name]

    def rows(self, name: str) -> int:
        return sum(span.rows for span in self.spans if span.name == name)

    def self_times(self) -> Dict[int, float]:
        """Span id -> duration minus the union of its children."""
        children: Dict[int, List[Span]] = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent].append(span)
        result = {}
        for span in self.spans:
            covered, edge = 0.0, span.start
            for child in sorted(children[span.id], key=lambda c: c.start):
                start, end = max(child.start, edge), min(child.end, span.end)
                if end > start:
                    covered += end - start
                    edge = end
            result[span.id] = span.seconds - covered
        return result

    def ladder(self) -> Tuple[List[dict], float]:
        """(rows, wall): one row per layer under the ``bench.layers``
        roots — self seconds, share of the roots' summed wall, spans,
        and rows per second where spans carry rows."""
        self_times = self.self_times()
        inside = set()
        wall = 0.0
        rows: Dict[str, dict] = {}
        for span in self.spans:  # parents are always recorded first
            if span.name == ROOT_NAME:
                wall += span.seconds
            elif span.parent not in inside:
                continue
            inside.add(span.id)
            row = rows.setdefault(span.layer, {"layer": span.layer,
                                               "seconds": 0.0, "spans": 0,
                                               "rows": 0})
            row["seconds"] += self_times[span.id]
            row["spans"] += 1
            row["rows"] += span.rows
        for row in rows.values():
            row["share"] = row["seconds"] / wall if wall else 0.0
            row["rows_per_s"] = (row["rows"] / row["seconds"]
                                 if row["rows"] and row["seconds"] else 0.0)
        return sorted(rows.values(), key=lambda row: -row["seconds"]), wall

    def flush(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as stream:
            for span in self.spans:
                stream.write(json.dumps({
                    "id": span.id, "name": span.name, "parent": span.parent,
                    "op": span.op, "start": span.start, "end": span.end,
                    "rows": span.rows}) + "\n")


def format_ladder(workload: str, rows: List[dict], wall: float) -> str:
    lines = [f"ladder {workload}: traced wall {wall:.3f} s",
             f"  {'layer':<10} {'self s':>10} {'share':>7} {'spans':>7} "
             f"{'rows/s':>12}"]
    for row in rows:
        rate = f"{row['rows_per_s']:.0f}" if row["rows_per_s"] else "-"
        lines.append(f"  {row['layer']:<10} {row['seconds']:>10.4f} "
                     f"{row['share']:>6.1%} {row['spans']:>7} {rate:>12}")
    return "\n".join(lines)
