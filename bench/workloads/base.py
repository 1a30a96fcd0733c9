"""What every workload provides to :func:`bench.harness.run_one`."""

from __future__ import annotations

from time import perf_counter
from typing import Dict

from .. import harness

#: The traversal verbs every query workload asks, as
#: ``ProvenanceService`` method names; ``deletion_set`` takes a list.
VERBS = ("ancestors", "descendants", "subgraph", "deletion_set")


def ask(service, verb: str, run_id: str, node: int):
    """One traversal through the top-level service API."""
    if verb == "deletion_set":
        return service.deletion_set(run_id, [node])
    return getattr(service, verb)(run_id, node)


def oracle_verb(verb: str) -> str:
    return "deletion" if verb == "deletion_set" else verb


def dealership_spec(sizes: dict, seed: int, run_id: str):
    """One Car-dealership run (``force_decline`` pins the execution
    count, so state grows monotonically as on fig 5a's x axis)."""
    from repro.store import WorkloadSpec
    return WorkloadSpec("dealerships", {
        "num_cars": sizes["num_cars"], "num_exec": sizes["num_exec"],
        "seed": seed, "force_decline": True}, run_id=run_id)


def run_spec(spec, track: bool):
    """Execute a spec's workflow in this process: the ``TimedRun``."""
    from repro.benchmark import run_arctic, run_dealerships
    if spec.workload == "arctic":
        return run_arctic(track=track, **spec.params)
    return run_dealerships(track=track, **spec.params)


class Workload:
    """One workload: repeatable set-up, an untraced and a traced way to
    measure, and the inputs both were given."""

    def __init__(self, context: "harness.Context") -> None:
        self.context = context
        self.ops = context.ops
        self.tracer = context.tracer
        self.seed = context.seed

    def setup(self) -> None:
        """Everything before the measured phase; may run several times,
        each replacing what the previous one built."""
        raise NotImplementedError

    def prepare(self) -> None:
        """Untimed benchmark-side work: the oracle."""

    def measure(self, seconds: float) -> Dict[str, float]:
        """Top-level API only; the end-to-end metrics."""
        raise NotImplementedError

    def measure_traced(self, seconds: float) -> Dict[str, float]:
        """Layer by layer under spans; the per-layer metrics."""
        raise NotImplementedError

    def inputs(self):
        """JSON-able description of the generated inputs, hashed into
        the manifest so two commits can prove they ran the same load."""
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return harness.peak_rss_mb()

    def teardown(self) -> None:
        """Stop and close whatever the last set-up left running."""


class Clock:
    """A wall-clock budget for one phase of the measured run."""

    def __init__(self, seconds: float) -> None:
        self.ends = perf_counter() + seconds

    def running(self) -> bool:
        return perf_counter() < self.ends


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def spans_median(tracer, name: str) -> float:
    return harness.median(tracer.seconds(name))


def per_row(tracer, name: str) -> float:
    """Seconds per row over every span called ``name``."""
    return ratio(sum(tracer.seconds(name)), tracer.rows(name))
