"""What the benchmark measures: ``BENCHMARK.json``, its catalogue, and sizes.

``BENCHMARK.json`` (repo root) fixes names, units, directions and bounds;
``bench/metrics.json`` adds what the contract's fixed key set has no room
for — which workloads measure a metric, which end-to-end metric a layer
metric should move, and which counts repeat exactly for a seed.  The two
are checked against each other on load, so a metric cannot be added to
one and forgotten in the other.
"""

from __future__ import annotations

import json
import os
import re
from typing import Dict, List

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")

#: Setting any of these changes what the program does per call
#: (telemetry, fault injection, slow log, cache budget), so a run with
#: one set is not comparable with any other run.
FORBIDDEN_ENV = ("REPRO_OBS", "REPRO_FAULTS", "REPRO_SLOWLOG",
                 "REPRO_CACHE_BUDGET_MB")

#: Times the set-up is repeated per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Input sizes.  ``std`` is what ``BENCHMARK.json`` is measured at;
#: ``smoke`` exists for the tier-1 test and is never compared.
PROFILES: Dict[str, Dict[str, dict]] = {
    "std": {
        "dealerships": {"num_cars": 400, "num_exec": 10},
        "arctic": {"topology": "dense", "fan_out": 3, "num_stations": 12,
                   "num_exec": 10, "history_years": 4,
                   "selectivity": "month"},
        "cold": {"runs": 12},
        "warm": {"num_cars": 1000, "num_exec": 20, "fanout_nodes": 1000,
                 "top_nodes": 1000, "pairs": 1000, "whatif_nodes": 60},
        "serve": {"runs": 4, "inproc_requests": 1000},
    },
    "smoke": {
        "dealerships": {"num_cars": 40, "num_exec": 3},
        "arctic": {"topology": "dense", "fan_out": 2, "num_stations": 4,
                   "num_exec": 3, "history_years": 1,
                   "selectivity": "month"},
        "cold": {"runs": 10},
        "warm": {"num_cars": 60, "num_exec": 4, "fanout_nodes": 40,
                 "top_nodes": 40, "pairs": 40, "whatif_nodes": 10},
        "serve": {"runs": 2, "inproc_requests": 100},
    },
}


class SpecError(Exception):
    """``BENCHMARK.json`` or ``metrics.json`` is malformed."""


class Spec:
    """The parsed, validated benchmark definition."""

    def __init__(self, benchmark: dict, catalogue: dict):
        self.run_seconds: int = benchmark["run_seconds"]
        self.workloads: List[str] = [w["name"] for w in benchmark["workloads"]]
        self.end_to_end: Dict[str, dict] = {
            m["name"]: m for m in benchmark["end_to_end"]}
        self.per_layer: Dict[str, dict] = {
            m["name"]: m for m in benchmark["per_layer"]}
        self.catalogue = catalogue
        self._validate(benchmark)

    def _validate(self, benchmark: dict) -> None:
        names = (self.workloads + list(self.end_to_end)
                 + list(self.per_layer))
        listed = (len(benchmark["workloads"]) + len(benchmark["end_to_end"])
                  + len(benchmark["per_layer"]))
        if len(set(names)) != listed:
            raise SpecError("a name is used more than once")
        for name in names:
            if not NAME.match(name):
                raise SpecError(f"invalid name {name!r}")
        for metric in list(self.end_to_end.values()) + list(
                self.per_layer.values()):
            if not UNIT.match(metric["unit"]):
                raise SpecError(f"invalid unit {metric['unit']!r}")
            if metric["better"] not in ("lower", "higher"):
                raise SpecError(f"{metric['name']}: better must be "
                                "lower or higher")
        for metric in self.end_to_end.values():
            if not 0 < metric["bound"] <= 0.25:
                raise SpecError(f"{metric['name']}: bound out of range")
        for section, listed_names in (("end_to_end", self.end_to_end),
                                      ("per_layer", self.per_layer)):
            described = set(self.catalogue[section])
            if described != set(listed_names):
                odd = sorted(described ^ set(listed_names))
                raise SpecError(f"metrics.json and BENCHMARK.json disagree "
                                f"on {section}: {odd}")
        for name, entry in self.catalogue["per_layer"].items():
            unknown = set(entry["workloads"]) - set(self.workloads)
            if unknown:
                raise SpecError(f"{name}: unknown workloads {sorted(unknown)}")

    def metrics(self, trace: bool) -> Dict[str, dict]:
        return self.per_layer if trace else self.end_to_end

    def exact(self) -> List[str]:
        """Per-layer counts that must repeat exactly for a seed."""
        return [name for name, entry in self.catalogue["per_layer"].items()
                if entry.get("exact")]


def load() -> Spec:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        benchmark = json.load(f)
    with open(os.path.join(BENCH_DIR, "metrics.json"), encoding="utf-8") as f:
        catalogue = json.load(f)
    return Spec(benchmark, catalogue)
