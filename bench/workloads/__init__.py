"""The five workloads; ``WORKLOADS`` maps each ``BENCHMARK.json`` name
to the class that runs it."""

from .query_cold import QueryCold
from .query_warm import QueryWarm
from .serve import ServeClosed
from .track import TrackArctic, TrackDealerships

WORKLOADS = {
    "track_dealerships": TrackDealerships,
    "track_arctic": TrackArctic,
    "query_cold": QueryCold,
    "query_warm": QueryWarm,
    "serve_closed": ServeClosed,
}
