"""Tier-1 smoke test: every workload, both modes, tiny sizes.

Runs the benchmark exactly as the driver does — one process per
workload and mode, a real ``repro serve`` subprocess on an ephemeral
port included — at ``--profile smoke``, and checks the contract: the
output schema, zero failed operations, and that every name in
``BENCHMARK.json`` is emitted with its unit.
"""

import json
import os
import subprocess
import sys

import pytest

from bench import spec

ROOT = spec.ROOT
DEFINITION = spec.load()


def run_bench(*arguments, cwd=ROOT):
    return subprocess.run([sys.executable, "-m", "bench", "run", *arguments],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=180)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", DEFINITION.workloads)
def test_workload_meets_the_contract(workload, trace):
    done = run_bench("--workload", workload, "--seed", "0", "--seconds",
                     "0.5", "--trace", str(trace), "--profile", "smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.rstrip("\n").split("\n")[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    wanted = DEFINITION.metrics(bool(trace))
    assert set(result["metrics"]) == set(wanted)
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"}
        assert metric["unit"] == wanted[name]["unit"]
        assert isinstance(metric["value"], float)
    if trace:
        measured = DEFINITION.catalogue["per_layer"]
        for name, metric in result["metrics"].items():
            if (workload in measured[name]["workloads"]
                    and not name.startswith(("store.tier.", "service.status_",
                                             "service.wrong", "store.cache_",
                                             "store.service_overhead"))):
                assert metric["value"] > 0, name
    else:
        assert all(metric["value"] > 0
                   for metric in result["metrics"].values())


def test_benchmark_json_keeps_to_the_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        benchmark = json.load(f)
    assert set(benchmark) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert benchmark["paths"] == ["bench"]
    assert 2 <= len(benchmark["workloads"]) <= 8
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200
               and "\n" not in w["why"] for w in benchmark["workloads"])
    assert all(set(m) == {"name", "unit", "better", "bound"}
               for m in benchmark["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"}
               for m in benchmark["per_layer"])
    setup = DEFINITION.end_to_end["setup_s"]
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"]
                                 for m in DEFINITION.end_to_end.values())


def test_refuses_telemetry_and_a_checkout_without_the_program(tmp_path):
    env = dict(os.environ, REPRO_OBS="1")
    done = subprocess.run(
        [sys.executable, "-m", "bench", "run", "--workload", "query_warm",
         "--profile", "smoke"], cwd=ROOT, env=env, capture_output=True,
        text=True, timeout=60)
    assert done.returncode != 0 and "REPRO_OBS" in done.stderr
    # A directory holding only BENCHMARK.json and bench/: nothing to measure.
    import shutil
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run_bench("--workload", "query_warm", "--seed", "0", "--seconds",
                     "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0 and done.stdout == ""
