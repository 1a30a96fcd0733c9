"""Whole-benchmark commands: run everything, A/A check, baseline table.

Every run is a fresh ``python3 -m bench run --workload ...`` process,
as the driver runs it, so peak RSS and lazy start-up belong to one
workload and nothing carries over between them.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from typing import Dict, List, Optional, Sequence

from . import harness, spec as _spec

#: Where ``aa`` leaves its table for ``baseline`` to quote.
AA_REPORT = os.path.join(_spec.OUT_DIR, "aa-last.txt")


def run_process(workload: str, seed: int, seconds: float, trace: bool,
                profile: str, echo: bool = False) -> dict:
    """One contract run in its own process; the parsed last line."""
    done = subprocess.run(
        [sys.executable, "-m", "bench", "run", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(int(trace)), "--profile", profile],
        cwd=_spec.ROOT, capture_output=True, text=True)
    lines = done.stdout.rstrip("\n").split("\n")
    if echo:
        print("\n".join(lines[:-1]), flush=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"bench: {workload} seed {seed} exited "
                         f"{done.returncode}")
    return json.loads(lines[-1])


def spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median — the driver's measure of how steady a metric is."""
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (third - first) / middle if middle else 0.0


def worse_by(metric: dict, before: float, after: float) -> float:
    """How much worse ``after`` is than ``before``, as a share of
    ``before``; negative when it is better."""
    if not before:
        return 0.0
    change = (after - before) / before
    return change if metric["better"] == "lower" else -change


def run_all(definition: _spec.Spec, args) -> int:
    """Every workload, untraced then traced, every metric printed."""
    failed = attempted = 0
    summary: Dict[str, dict] = {}
    for workload in definition.workloads:
        for trace in (False, True):
            result = run_process(workload, args.seed, args.seconds, trace,
                                 args.profile, echo=True)
            attempted += result["attempted"]
            failed += result["failed"]
            summary.setdefault(workload, {}).update(
                {name: metric["value"]
                 for name, metric in result["metrics"].items()})
    print(f"== all workloads: {attempted} operations attempted, "
          f"{failed} failed")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": summary}))
    return 0 if failed == 0 else 1


class RunSet:
    """One set of runs: per workload, each end-to-end metric's values
    over the seeds, and the exact counts of one traced run."""

    def __init__(self, definition: _spec.Spec, args,
                 workloads: Sequence[str], label: str) -> None:
        self.values: Dict[str, Dict[str, List[float]]] = {}
        self.exact: Dict[str, Dict[str, float]] = {}
        self.layers: Dict[str, Dict[str, float]] = {}
        self.failed = 0
        for workload in workloads:
            per_metric = self.values[workload] = {
                name: [] for name in definition.end_to_end}
            for seed in range(args.seed, args.seed + args.runs):
                result = run_process(workload, seed, args.seconds, False,
                                     args.profile)
                self.failed += result["failed"]
                for name, metric in result["metrics"].items():
                    per_metric[name].append(metric["value"])
                print(f"  set {label} {workload} seed {seed}: "
                      f"{result['attempted']} operations, "
                      f"{result['failed']} failed", flush=True)
            traced = run_process(workload, args.seed, args.seconds, True,
                                 args.profile)
            self.failed += traced["failed"]
            self.layers[workload] = {name: metric["value"] for name, metric
                                     in traced["metrics"].items()}
            self.exact[workload] = {name: self.layers[workload][name]
                                    for name in definition.exact()}


def aa(definition: _spec.Spec, args) -> int:
    """Two sets of runs of the same code, the second with the workload
    order reversed.  Fails when a median moves by more than the
    metric's bound, a spread exceeds it (``setup_s`` excepted, as the
    driver excepts it), an exact count differs, or an operation fails.
    The spread is printed next to each bound so that a bound that is
    too tight is corrected here."""
    first = RunSet(definition, args, definition.workloads, "A")
    second = RunSet(definition, args, definition.workloads[::-1], "B")
    problems: List[str] = []
    lines = [f"A/A: {args.runs} seeds from {args.seed} per workload per set, "
             f"--seconds {args.seconds:g}, profile {args.profile}",
             f"{'workload':<18} {'metric':<15} {'median A':>12} "
             f"{'median B':>12} {'B worse':>8} {'spread A':>9} "
             f"{'spread B':>9} {'bound':>6}"]
    for workload in definition.workloads:
        for name, metric in definition.end_to_end.items():
            a = first.values[workload][name]
            b = second.values[workload][name]
            shift = worse_by(metric, statistics.median(a),
                             statistics.median(b))
            spreads = (spread(a), spread(b))
            bound = metric["bound"]
            flags = ""
            if abs(shift) > bound:
                flags += " MOVED"
                problems.append(f"{workload} {name}: medians differ by "
                                f"{shift:+.1%}, bound {bound:.0%}")
            if name != "setup_s" and max(spreads) > bound:
                flags += " UNSTEADY"
                problems.append(f"{workload} {name}: spread "
                                f"{max(spreads):.1%}, bound {bound:.0%}")
            elif name != "setup_s" and max(spreads) > bound / 3:
                flags += " (above a third of the bound)"
            lines.append(
                f"{workload:<18} {name:<15} {statistics.median(a):>12.5g} "
                f"{statistics.median(b):>12.5g} {shift:>+8.1%} "
                f"{spreads[0]:>9.1%} {spreads[1]:>9.1%} {bound:>6.0%}{flags}")
    differing = [f"{workload} {name}: exact count "
                 f"{first.exact[workload][name]} != "
                 f"{second.exact[workload][name]}"
                 for workload in definition.workloads
                 for name in definition.exact()
                 if first.exact[workload][name]
                 != second.exact[workload][name]]
    problems += differing
    lines.append(f"exact counts: {len(definition.exact())} per workload "
                 f"compared, {len(differing)} differ")
    if first.failed or second.failed:
        problems.append(f"{first.failed + second.failed} operations failed")
    lines += [f"A/A FAILED: {problem}" for problem in problems]
    if not problems:
        lines.append("A/A passed: every median within its bound, every "
                     "spread within its bound, exact counts identical, no "
                     "operation failed")
    print("\n".join(lines))
    with open(AA_REPORT, "w", encoding="utf-8") as stream:
        stream.write("\n".join(lines) + "\n")
    return 1 if problems else 0


# ----------------------------------------------------------------------
def baseline(definition: _spec.Spec, args) -> int:
    """Measure ``--runs`` seeds per workload plus one traced run and
    write ``bench/BASELINE.md``."""
    runs = RunSet(definition, args, definition.workloads, "baseline")
    lines = [
        "# Baseline",
        "",
        "Written by `python3 -m bench baseline`; measure it again after "
        "every accepted change to the benchmark or the program.",
        "",
        f"- machine: {platform.platform()}, nproc {os.cpu_count()}",
        f"- Python {platform.python_version()}, git {harness.git_sha()}",
        f"- profile `{args.profile}`, `--seconds {args.seconds:g}`, seeds "
        f"{args.seed}..{args.seed + args.runs - 1} ({args.runs} untraced "
        f"runs per workload), traced run at seed {args.seed}",
        f"- operations failed: {runs.failed}",
        "",
        "Stores are on-disk SQLite (WAL, `synchronous=NORMAL`, the "
        "store's defaults) under `bench/out/`; reads come from the OS "
        "page cache, so latencies are this sandbox's, not a device's.",
        "",
        "## End-to-end metrics",
        "",
        "IQR is the distance between the first and third quartile "
        "(`statistics.quantiles(values, n=4)`); spread is IQR / median.",
        "",
    ]
    for workload in definition.workloads:
        counts = (last_report(workload, "untraced") or {}).get(
            "manifest", {}).get("counts", {})
        lines += [f"### {workload}", "",
                  f"Counts reached in the last run: "
                  f"`{json.dumps(counts, sort_keys=True)}`", "",
                  "| metric | unit | min | median | IQR | spread | bound |",
                  "|---|---|---|---|---|---|---|"]
        for name, metric in definition.end_to_end.items():
            values = runs.values[workload][name]
            middle = statistics.median(values)
            share = spread(values)
            lines.append(
                f"| `{name}` | {metric['unit']} | {min(values):.5g} | "
                f"{middle:.5g} | {share * middle:.3g} | {share:.1%} | "
                f"{metric['bound']:.0%} |")
        lines.append("")
    lines += ["## Per-layer metrics and ladder (traced run)", "",
              "A layer a workload never calls reads 0 there and is left "
              "out below.", ""]
    for workload in definition.workloads:
        lines += [f"### {workload}", "", "```",
                  ladder_text(workload) or "(no ladder recorded)", "```", "",
                  "| metric | value | unit |", "|---|---|---|"]
        measured = definition.catalogue["per_layer"]
        for name, value in runs.layers[workload].items():
            if workload in measured[name]["workloads"]:
                lines.append(f"| `{name}` | {value:.6g} | "
                             f"{definition.per_layer[name]['unit']} |")
        lines.append("")
    if os.path.exists(AA_REPORT):
        with open(AA_REPORT, encoding="utf-8") as stream:
            lines += ["## Last A/A check (`python3 -m bench aa`)", "", "```",
                      stream.read().rstrip("\n"), "```", ""]
    path = os.path.join(_spec.BENCH_DIR, "BASELINE.md")
    with open(path, "w", encoding="utf-8") as stream:
        stream.write("\n".join(lines))
    print(f"wrote {path}")
    return 0 if runs.failed == 0 else 1


def last_report(workload: str, mode: str) -> Optional[dict]:
    """The result file of the last ``mode`` run of ``workload``."""
    path = os.path.join(_spec.OUT_DIR, f"result-{workload}-{mode}.json")
    try:
        with open(path, encoding="utf-8") as stream:
            return json.load(stream)
    except OSError:
        return None


def ladder_text(workload: str) -> Optional[str]:
    """The ladder of the last traced run of ``workload``."""
    from .trace import format_ladder
    report = last_report(workload, "traced")
    if report is None:
        return None
    return format_ladder(workload, report["ladder"], report["ladder_wall"])
