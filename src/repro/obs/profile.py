"""Per-query cost profiles: EXPLAIN plans and the slow-query log.

PR 6's metrics show *that* a query was fast; this module shows *why*.
A :class:`QueryPlan` is an ordered list of :class:`PlanStep` entries —
each naming the answering tier and carrying the kernel cost counters
(nodes visited, edges scanned, mask bytes, wall seconds) — assembled
while a query runs under an active :class:`ProfileCapture`.

Tiers (the §5.1 serving hierarchy, cheapest first):

* ``service-lru``     — the service's version-keyed graph LRU hit;
* ``frozen-snapshot`` — a cached frozen copy served to readers;
* ``csr-view``        — the frozen-row :class:`CSRSnapshot` read path
  (memoized subgraph answers included);
* ``sqlite-pushdown`` — recursive edge walks inside SQLite
  (:mod:`repro.store.pushdown`) — answers cold queries without
  rebuilding the graph;
* ``sqlite-cold``     — a cold store rebuild (SQLite in production;
  whatever backend the service fronts).

The capture seam mirrors :mod:`repro.obs`'s null-object discipline:
instrumented code calls :func:`active` — one module-global integer
read when nothing is profiling — and only pays for counter
computation while a capture (or the slow-query log) is live.  Captures
are :mod:`contextvars`-scoped, so concurrent service threads profile
independently.

The slow-query log is a bounded ring buffer of plan dicts.  Enable it
with ``REPRO_SLOWLOG_MS`` (threshold; ``REPRO_SLOWLOG_PATH``
optionally mirrors entries to a JSONL file) or
:func:`enable_slowlog`; every service query that crosses the
threshold is recorded with its captured plan steps.  ``python -m
repro slowlog`` renders a mirrored file; ``repro stats`` surfaces the
in-process ring.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from contextvars import ContextVar
from typing import Any, Dict, Iterable, List, Optional, Union

#: Canonical tier vocabulary (used by plan renderers and tests).
TIERS = ("service-lru", "frozen-snapshot", "csr-view", "sqlite-pushdown",
         "sqlite-cold")

_perf = time.perf_counter


class PlanStep:
    """One step of a query plan: where it ran and what it touched."""

    __slots__ = ("name", "tier", "seconds", "counters")

    def __init__(self, name: str, tier: Optional[str] = None,
                 seconds: float = 0.0, counters: Optional[Dict] = None):
        self.name = name
        self.tier = tier
        self.seconds = seconds
        self.counters = counters or {}

    def to_dict(self) -> dict:
        return {"name": self.name, "tier": self.tier,
                "seconds": self.seconds, "counters": dict(self.counters)}

    def __repr__(self) -> str:
        return (f"PlanStep({self.name!r}, tier={self.tier!r}, "
                f"seconds={self.seconds:.6f}, {self.counters})")


class QueryPlan:
    """A structured EXPLAIN result: ordered steps + tier attribution."""

    __slots__ = ("kind", "run_id", "params", "steps", "seconds",
                 "started_wall", "summary")

    def __init__(self, kind: str, run_id: Optional[str], params: Dict,
                 steps: List[PlanStep], seconds: float,
                 started_wall: float):
        self.kind = kind
        self.run_id = run_id
        self.params = params
        self.steps = steps
        self.seconds = seconds
        self.started_wall = started_wall
        self.summary: Dict[str, Any] = {}

    def tiers(self) -> List[str]:
        """Distinct answering tiers, in first-seen step order."""
        seen: List[str] = []
        for step in self.steps:
            if step.tier is not None and step.tier not in seen:
                seen.append(step.tier)
        return seen

    def counters_total(self) -> Dict[str, int]:
        """Numeric counters summed across every plan step."""
        totals: Dict[str, int] = {}
        for step in self.steps:
            for key, value in step.counters.items():
                if isinstance(value, (int, float)) and not isinstance(
                        value, bool):
                    totals[key] = totals.get(key, 0) + value
        return totals

    def to_dict(self) -> dict:
        return {"kind": self.kind, "run_id": self.run_id,
                "params": dict(self.params), "seconds": self.seconds,
                "started": self.started_wall, "tiers": self.tiers(),
                "summary": dict(self.summary),
                "steps": [step.to_dict() for step in self.steps]}

    def render(self) -> str:
        """Human-readable plan, one aligned row per step."""
        params = " ".join(f"{key}={value}"
                          for key, value in self.params.items())
        header = (f"{self.run_id or '-'} · {self.kind}({params}) — "
                  f"{len(self.steps)} step(s), {self.seconds * 1000:.3f} ms")
        if self.summary:
            header += "  [" + " ".join(f"{key}={value}" for key, value
                                       in self.summary.items()) + "]"
        rows = [("step", "tier", "ms", "counters")]
        for step in self.steps:
            counters = " ".join(f"{key}={value}"
                                for key, value in step.counters.items())
            rows.append((step.name, step.tier or "-",
                         f"{step.seconds * 1000:.3f}", counters))
        widths = [max(len(row[column]) for row in rows)
                  for column in range(3)]
        lines = [header]
        for name, tier, ms, counters in rows:
            lines.append(f"  {name:<{widths[0]}}  {tier:<{widths[1]}}  "
                         f"{ms:>{widths[2]}}  {counters}".rstrip())
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (f"QueryPlan({self.kind!r}, run={self.run_id!r}, "
                f"steps={len(self.steps)}, tiers={self.tiers()})")


class ProfileCapture:
    """Collects plan steps while one query executes.

    Install via :func:`capture` (or :func:`query_scope`); instrumented
    code discovers the active capture through :func:`active` and calls
    :meth:`step`.
    """

    __slots__ = ("kind", "run_id", "params", "steps", "started_wall",
                 "plan")

    def __init__(self, kind: str, run_id: Optional[str] = None,
                 params: Optional[Dict] = None):
        self.kind = kind
        self.run_id = run_id
        self.params = params or {}
        self.steps: List[PlanStep] = []
        self.started_wall = time.time()
        self.plan: Optional[QueryPlan] = None

    def step(self, name: str, tier: Optional[str] = None,
             seconds: float = 0.0, **counters) -> PlanStep:
        entry = PlanStep(name, tier=tier, seconds=seconds,
                         counters=counters)
        self.steps.append(entry)
        return entry

    def finish(self, seconds: float) -> QueryPlan:
        self.plan = QueryPlan(self.kind, self.run_id, self.params,
                              self.steps, seconds, self.started_wall)
        return self.plan


# ----------------------------------------------------------------------
# Module state: the active capture + the slow-query log
# ----------------------------------------------------------------------
_capture_var: "ContextVar[Optional[ProfileCapture]]" = ContextVar(
    "repro_profile_capture", default=None)
_lock = threading.Lock()
#: Count of live captures across all threads — the one-read fast gate
#: (mirrors ``obs._active``): when zero, :func:`active` never touches
#: the contextvar.
_captures = 0

_slowlog: Optional["SlowQueryLog"] = None


def active() -> Optional[ProfileCapture]:
    """The current thread's live capture, or None (the fast path)."""
    if not _captures:
        return None
    return _capture_var.get()


class _Capture:
    """Context manager installing a :class:`ProfileCapture`; on exit
    the finished plan lands on ``capture.plan`` and — if it crossed the
    slow-query threshold — in the slow-query log."""

    __slots__ = ("capture", "_token", "_started")

    def __init__(self, capture: ProfileCapture):
        self.capture = capture
        self._token = None
        self._started = 0.0

    def __enter__(self) -> ProfileCapture:
        global _captures
        with _lock:
            _captures += 1
        self._token = _capture_var.set(self.capture)
        self._started = _perf()
        return self.capture

    def __exit__(self, exc_type, exc, tb) -> bool:
        global _captures
        seconds = _perf() - self._started
        _capture_var.reset(self._token)
        with _lock:
            _captures -= 1
        plan = self.capture.finish(seconds)
        log = _slowlog
        if log is not None and exc_type is None:
            log.maybe_record(plan)
        return False


def capture(kind: str, run_id: Optional[str] = None,
            **params) -> _Capture:
    """Profile one query::

        with profile.capture("subgraph", run_id=run, node=42) as cap:
            service.subgraph(run, 42)
        plan = cap.plan
    """
    return _Capture(ProfileCapture(kind, run_id=run_id, params=params))


# ----------------------------------------------------------------------
# Slow-query log
# ----------------------------------------------------------------------
class SlowQueryLog:
    """Bounded ring of slow-query plan dicts, optionally mirrored to a
    JSONL file (one entry per line, append-only)."""

    def __init__(self, threshold_ms: float = 100.0, capacity: int = 256,
                 path: Optional[Union[str, os.PathLike]] = None):
        self.threshold_ms = threshold_ms
        self.capacity = capacity
        self.path = os.fspath(path) if path is not None else None
        self._lock = threading.Lock()
        self._entries: deque = deque(maxlen=capacity)
        self._recorded = 0

    def maybe_record(self, plan: QueryPlan) -> bool:
        """Record ``plan`` iff it crossed the threshold."""
        if plan.seconds * 1000.0 < self.threshold_ms:
            return False
        self.record(plan.to_dict())
        return True

    def record(self, entry: dict) -> None:
        entry = dict(entry, threshold_ms=self.threshold_ms)
        with self._lock:
            self._entries.append(entry)
            self._recorded += 1
            if self.path is not None:
                with open(self.path, "a", encoding="utf-8") as stream:
                    json.dump(entry, stream, default=str)
                    stream.write("\n")

    def entries(self) -> List[dict]:
        with self._lock:
            return list(self._entries)

    def recorded(self) -> int:
        """Entries ever recorded (the ring may have dropped old ones)."""
        with self._lock:
            return self._recorded

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def export_jsonl(self, path: Union[str, os.PathLike]) -> int:
        """Write the current ring to ``path``; returns entries written."""
        entries = self.entries()
        with open(path, "w", encoding="utf-8") as stream:
            for entry in entries:
                json.dump(entry, stream, default=str)
                stream.write("\n")
        return len(entries)

    def snapshot(self) -> dict:
        """The ring + its config, for ``repro stats`` surfacing."""
        return {"threshold_ms": self.threshold_ms,
                "capacity": self.capacity, "recorded": self.recorded(),
                "entries": self.entries()}

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __repr__(self) -> str:
        return (f"SlowQueryLog(threshold_ms={self.threshold_ms}, "
                f"entries={len(self)}/{self.capacity})")


def slowlog() -> Optional[SlowQueryLog]:
    """The active slow-query log, or None when disabled."""
    return _slowlog


def enable_slowlog(threshold_ms: Optional[float] = None,
                   capacity: int = 256,
                   path: Optional[Union[str, os.PathLike]] = None,
                   reset: bool = False) -> SlowQueryLog:
    """Turn the slow-query log on (idempotent; ``reset=True`` starts a
    fresh ring).  ``threshold_ms`` defaults to ``REPRO_SLOWLOG_MS`` or
    100 ms; ``path`` defaults to ``REPRO_SLOWLOG_PATH`` (no mirror
    when unset)."""
    global _slowlog
    with _lock:
        if _slowlog is not None and not reset:
            return _slowlog
        if threshold_ms is None:
            threshold_ms = _env_threshold_ms(default=100.0)
        if path is None:
            path = os.environ.get("REPRO_SLOWLOG_PATH") or None
        _slowlog = SlowQueryLog(threshold_ms=threshold_ms,
                                capacity=capacity, path=path)
        return _slowlog


def disable_slowlog() -> None:
    global _slowlog
    with _lock:
        _slowlog = None


def read_slowlog(path: Union[str, os.PathLike]) -> List[dict]:
    """Parse a mirrored slow-query JSONL file back into entry dicts."""
    entries: List[dict] = []
    with open(path, "r", encoding="utf-8") as stream:
        for line in stream:
            line = line.strip()
            if line:
                entries.append(json.loads(line))
    return entries


# ----------------------------------------------------------------------
# The query seam used by ProvenanceService methods
# ----------------------------------------------------------------------
class _NullScope:
    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, exc_type, exc, tb):
        return False


_NULL_SCOPE = _NullScope()


class _QueryScope:
    """Times one service query under its own capture, so a slow query
    gets step-level detail in the slow-query log even when nobody
    asked for an EXPLAIN.  Inside an outer capture (an EXPLAIN run) it
    is a no-op — the steps land on, and the slowlog entry comes from,
    the outer capture."""

    __slots__ = ("kind", "run_id", "params", "_cm")

    def __init__(self, kind: str, run_id: Optional[str], params: Dict):
        self.kind = kind
        self.run_id = run_id
        self.params = params
        self._cm: Optional[_Capture] = None

    def __enter__(self):
        if _capture_var.get() is None and _slowlog is not None:
            self._cm = _Capture(
                ProfileCapture(self.kind, run_id=self.run_id,
                               params=self.params))
            return self._cm.__enter__()
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._cm is not None:
            return self._cm.__exit__(exc_type, exc, tb)
        return False


def query_scope(kind: str, run_id: Optional[str] = None, **params):
    """Wrap a service query entry point.  Two module-global reads when
    neither profiling nor the slow-query log is active."""
    if not _captures and _slowlog is None:
        return _NULL_SCOPE
    return _QueryScope(kind, run_id, params)


def _env_threshold_ms(default: float = 100.0) -> float:
    text = os.environ.get("REPRO_SLOWLOG_MS", "").strip()
    if not text:
        return default
    try:
        return float(text)
    except ValueError:
        return default


# Environment opt-in, mirroring REPRO_OBS: a positive REPRO_SLOWLOG_MS
# activates the slow-query log for the process at import time.
if _env_threshold_ms(default=0.0) > 0.0:
    enable_slowlog()
