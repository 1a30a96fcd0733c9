"""One benchmark run: set up, measure (or trace), check, report.

A run is one workload in one mode.  Untraced, it calls only the
program's top-level API and yields the end-to-end metrics; traced, it
calls each layer's public functions one after another inside
benchmark-side spans and yields the per-layer metrics.  Either way the
last line of standard output is the JSON object the contract asks for,
and ``bench/out/`` receives the full result with its manifest.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import shutil
import sqlite3
import statistics
import subprocess
import sys
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence

from . import spec as _spec
from .trace import Tracer, format_ladder


class Ops:
    """Operations attempted and failed (exception, bad status, refusal
    or wrong answer); a failed operation has no latency figure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []

    def expect(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(message)
        return ok

    def guard(self, what: str, call: Callable, *args, **kwargs):
        """Run one operation; an exception is a failed operation and
        yields None.  A result is counted when the caller checks it."""
        try:
            return call(*args, **kwargs)
        except Exception as error:  # the run must report, not crash
            self.expect(False, f"{what}: {type(error).__name__}: {error}")
            return None


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def quantile(values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile: the smallest sample with at least ``q``
    of the samples at or below it."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]


class Context:
    """What a workload needs from the run: inputs, scratch, accounting."""

    def __init__(self, workload: str, seed: int, profile: str,
                 tracer: Optional[Tracer]):
        self.workload = workload
        self.seed = seed
        self.profile = profile
        self.sizes = _spec.PROFILES[profile]
        self.tracer = tracer
        self.ops = Ops()
        self.counts: Dict[str, int] = {}
        self.notes: Dict[str, object] = {}
        self.dir = os.path.join(_spec.OUT_DIR,
                                f"{workload}-{os.getpid()}")
        self._dirs = 0

    def fresh_dir(self) -> str:
        """A new empty directory under ``bench/out/`` for this run."""
        self._dirs += 1
        path = os.path.join(self.dir, f"d{self._dirs}")
        os.makedirs(path)
        return path

    def cleanup(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def require_program() -> str:
    """Path of the program's source, or exit 2 when it is not there
    (the benchmark measures this checkout, never an installed copy)."""
    source = os.path.join(_spec.ROOT, "src")
    if not os.path.isfile(os.path.join(source, "repro", "__init__.py")):
        print(f"bench: no program to measure at {source}/repro",
              file=sys.stderr)
        raise SystemExit(2)
    if source not in sys.path:
        sys.path.insert(0, source)
    return source


def require_clean_environment() -> None:
    dirty = sorted(name for name in os.environ
                   if name.startswith(_spec.FORBIDDEN_ENV))
    if dirty:
        print(f"bench: refusing to run with {', '.join(dirty)} set",
              file=sys.stderr)
        raise SystemExit(2)


def child_environment() -> Dict[str, str]:
    """Environment for ``python -m repro`` subprocesses."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(_spec.ROOT, "src")
    return env


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_sha() -> str:
    if not os.path.exists(os.path.join(_spec.ROOT, ".git")):
        return "unknown"
    try:
        done = subprocess.run(["git", "-C", _spec.ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() or "unknown"


def sqlite_modes() -> Dict[str, object]:
    """Journal and synchronous mode as the store sets them, read from a
    connection the store itself opened on a scratch database."""
    from repro.store import open_store
    os.makedirs(_spec.OUT_DIR, exist_ok=True)
    path = os.path.join(_spec.OUT_DIR, f"modes-{os.getpid()}.db")
    store = open_store(path)
    try:
        conn = getattr(store, "_conn", None)
        if conn is None:
            return {"journal_mode": "unknown", "synchronous": "unknown"}
        return {"journal_mode": conn.execute(
                    "PRAGMA journal_mode").fetchone()[0],
                "synchronous": conn.execute(
                    "PRAGMA synchronous").fetchone()[0]}
    finally:
        store.close()
        for suffix in ("", "-wal", "-shm"):
            if os.path.exists(path + suffix):
                os.remove(path + suffix)


def manifest(context: Context, seconds: float, inputs) -> dict:
    encoded = json.dumps(inputs, sort_keys=True, default=str).encode("utf-8")
    return {
        "workload": context.workload, "seed": context.seed,
        "profile": context.profile, "seconds": seconds,
        "traced": context.tracer is not None,
        "setup_repeats": _spec.SETUP_REPEATS,
        "sizes": context.sizes, "counts": context.counts,
        "notes": context.notes,
        "inputs_sha256": hashlib.sha256(encoded).hexdigest(),
        "git_sha": git_sha(), "python": platform.python_version(),
        "platform": platform.platform(), "nproc": os.cpu_count(),
        "sqlite": sqlite3.sqlite_version, "sqlite_modes": sqlite_modes(),
        "storage": "on-disk SQLite under bench/out/; reads come from the "
                   "OS page cache, so latencies are the sandbox's, not a "
                   "device's",
        "claim": None,
    }


def run_one(workload: str, seed: int, seconds: float, trace: bool,
            profile: str = "std") -> dict:
    """Run one workload in one mode; returns the contract's object."""
    definition = _spec.load()
    if workload not in definition.workloads:
        print(f"bench: unknown workload {workload!r}; choose from "
              f"{definition.workloads}", file=sys.stderr)
        raise SystemExit(2)
    require_clean_environment()
    require_program()
    from .workloads import WORKLOADS
    tracer = Tracer() if trace else None
    context = Context(workload, seed, profile, tracer)
    context.cleanup()
    os.makedirs(context.dir)
    # Temporary files of SQLite and of Python stay inside the checkout.
    os.environ["TMPDIR"] = os.environ["SQLITE_TMPDIR"] = context.dir
    instance = WORKLOADS[workload](context)
    setups: List[float] = []
    try:
        # The traced run reports no set-up time, so it sets up once.
        for _ in range(1 if trace else _spec.SETUP_REPEATS):
            started = perf_counter()
            instance.setup()
            setups.append(perf_counter() - started)
        instance.prepare()
        if tracer is not None:
            measured = instance.measure_traced(seconds)
            ladder, ladder_wall = tracer.ladder()
            own = sum(row["seconds"] for row in ladder
                      if row["layer"] == "bench")
            measured["bench.unattributed_share"] = (
                own / ladder_wall if ladder_wall else 0.0)
        else:
            measured = instance.measure(seconds)
            measured["setup_s"] = median(setups)
        if not trace:
            measured["peak_rss_mb"] = instance.peak_rss_mb()
        described = manifest(context, seconds, instance.inputs())
    finally:
        instance.teardown()
        context.cleanup()
    wanted = definition.metrics(trace)
    unknown = sorted(set(measured) - set(wanted))
    if unknown:
        raise _spec.SpecError(f"{workload} emitted metrics BENCHMARK.json "
                              f"does not list: {unknown}")
    expected = set(wanted) if not trace else {
        name for name, entry in definition.catalogue["per_layer"].items()
        if workload in entry["workloads"]}
    missing = sorted(expected - set(measured))
    if missing:
        raise _spec.SpecError(f"{workload} did not measure {missing}")
    # A layer a workload never calls did no work there: count 0, busy 0 s.
    metrics = {name: {"value": float(measured.get(name, 0.0)),
                      "unit": wanted[name]["unit"]} for name in wanted}
    ops = context.ops
    result = {"correct": ops.failed == 0, "attempted": max(ops.attempted, 1),
              "failed": ops.failed, "metrics": metrics}
    report = dict(result, manifest=described, setups_s=setups,
                  failures=ops.messages)
    os.makedirs(_spec.OUT_DIR, exist_ok=True)
    stem = f"{workload}-{'traced' if trace else 'untraced'}"
    if tracer is not None:
        report["ladder"] = ladder
        report["ladder_wall"] = ladder_wall
        tracer.flush(os.path.join(_spec.OUT_DIR, f"trace-{workload}.jsonl"))
    with open(os.path.join(_spec.OUT_DIR, f"result-{stem}.json"), "w",
              encoding="utf-8") as stream:
        json.dump(report, stream, indent=1, default=str)
    print_report(workload, report, set(measured),
                 format_ladder(workload, ladder, ladder_wall)
                 if tracer is not None else None)
    return result


def print_report(workload: str, report: dict, measured: set,
                 ladder: Optional[str]) -> None:
    info = report["manifest"]
    modes = info["sqlite_modes"]
    print(f"== {workload} ({'traced' if info['traced'] else 'untraced'}) "
          f"seed={info['seed']} profile={info['profile']} "
          f"seconds={info['seconds']} git={info['git_sha'][:12]} "
          f"inputs={info['inputs_sha256'][:12]}")
    print(f"   python {info['python']}, nproc {info['nproc']}, SQLite "
          f"{info['sqlite']} journal_mode={modes['journal_mode']} "
          f"synchronous={modes['synchronous']}; {info['storage']}")
    print(f"   counts: {json.dumps(info['counts'], sort_keys=True)}")
    for name, metric in report["metrics"].items():
        if name in measured:
            print(f"   {name:<34} {metric['value']:>16.6g} {metric['unit']}")
    if ladder:
        print(ladder)
    print(f"   operations: {report['attempted']} attempted, "
          f"{report['failed']} failed")
    for message in report["failures"]:
        print(f"   FAILED: {message}")
