"""The repository benchmark: five workloads, end-to-end metrics, layer ladder.

``python3 -m bench run --workload W --seed N --seconds S --trace 0|1`` is
the contract ``BENCHMARK.json`` records; ``python3 -m bench run`` with no
workload runs all five twice (untraced, then traced) and prints every
metric; ``python3 -m bench aa`` checks that two sets of runs of the same
code agree within the benchmark's own bounds.  See ``bench/README.md``.
"""
