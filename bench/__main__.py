"""``python3 -m bench run|aa|baseline`` — see ``bench/README.md``."""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from . import compare, harness, spec


def main(argv: Sequence[str]) -> int:
    definition = spec.load()
    parser = argparse.ArgumentParser(prog="python3 -m bench")
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser(
        "run", help="one workload in one mode (the BENCHMARK.json command), "
                    "or, with no --workload, all five untraced then traced")
    run.add_argument("--workload", choices=definition.workloads)
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    for command in (run,
                    commands.add_parser(
                        "aa", help="two sets of runs of the same code must "
                                   "agree within the benchmark's own bounds"),
                    commands.add_parser(
                        "baseline", help="measure and write "
                                         "bench/BASELINE.md")):
        command.add_argument("--seed", type=int, default=0)
        command.add_argument("--seconds", type=float,
                             default=float(definition.run_seconds))
        command.add_argument("--profile", choices=sorted(spec.PROFILES),
                             default="std")
        if command is not run:
            command.add_argument("--runs", type=int, default=3,
                                 help="runs (seeds) per set")
    args = parser.parse_args(list(argv))
    if args.command == "aa":
        return compare.aa(definition, args)
    if args.command == "baseline":
        return compare.baseline(definition, args)
    if args.workload is None:
        return compare.run_all(definition, args)
    result = harness.run_one(args.workload, args.seed, args.seconds,
                             bool(args.trace), args.profile)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
