"""EXPLAIN for provenance queries: run one query under profiling.

``explain_query(service, run_id, kind, ...)`` executes a single query
of one of the six paper kinds (plus ProQL text pipelines) against a
:class:`~repro.store.catalog.ProvenanceService` with a
:mod:`repro.obs.profile` capture installed, and returns the resulting
:class:`~repro.obs.profile.QueryPlan` — ordered steps naming the
answering tier (service LRU / frozen snapshot / CSR view / SQLite
pushdown / cold store rebuild) with per-kernel cost counters.

The service argument is duck-typed (``graph``/``csr``/``subgraph``/
``reachable`` methods), keeping this module free of store imports; it
is also what ``python -m repro explain`` and
``QueryProcessor(..., explain=True)`` call into.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from ..obs import profile as _profile
from ..obs.profile import QueryPlan
from .deletion import deletion_set
from .dependency import depends_on
from .proql_text import run_query
from .whatif import what_if_deleted
from .zoom import zoom_out

#: The explainable query kinds: the six Section-4 entry points plus
#: ProQL text pipelines and the raw ancestor/descendant scans (the
#: latter surface the pushdown tier's range queries directly).
QUERY_KINDS = ("zoom", "subgraph", "deletion", "whatif", "dependency",
               "reachability", "ancestors", "descendants", "proql")


class Explained(NamedTuple):
    """A query answer bundled with the plan that produced it."""
    result: object
    plan: QueryPlan


def explain_query(service, run_id: str, kind: str, *,
                  node: Optional[int] = None,
                  source: Optional[int] = None,
                  target: Optional[int] = None,
                  modules: Sequence[str] = (),
                  nodes: Sequence[int] = (),
                  labels: Sequence[str] = (),
                  sources: Sequence[int] = (),
                  text: Optional[str] = None) -> QueryPlan:
    """Profile one query; the answer rides on ``plan.summary``.

    Parameters by kind: ``subgraph``/``ancestors``/``descendants``/
    ``dependency`` need ``node``
    (dependency also ``sources``); ``reachability`` needs ``source`` +
    ``target``; ``zoom`` needs ``modules``; ``deletion`` needs
    ``nodes``; ``whatif`` needs ``nodes`` and/or ``labels``; ``proql``
    needs ``text``.  Zoom explains on a *copy* of the served graph —
    explaining never mutates the run.
    """
    if kind not in QUERY_KINDS:
        raise ValueError(f"unknown query kind {kind!r}; "
                         f"expected one of {QUERY_KINDS}")
    params = _params_for(kind, node=node, source=source, target=target,
                         modules=modules, nodes=nodes, labels=labels,
                         sources=sources, text=text)
    with _profile.capture(kind, run_id=run_id, **params) as cap:
        summary = _run(service, run_id, kind, node=node, source=source,
                       target=target, modules=modules, nodes=nodes,
                       labels=labels, sources=sources, text=text)
    cap.plan.summary.update(summary)
    return cap.plan


def _params_for(kind: str, **kwargs) -> dict:
    """The plan's params dict: only what this kind consumed."""
    wanted = {
        "subgraph": ("node",),
        "ancestors": ("node",),
        "descendants": ("node",),
        "reachability": ("source", "target"),
        "zoom": ("modules",),
        "deletion": ("nodes",),
        "whatif": ("nodes", "labels"),
        "dependency": ("node", "sources"),
        "proql": ("text",),
    }[kind]
    params = {}
    for name in wanted:
        value = kwargs.get(name)
        if isinstance(value, (list, tuple)):
            value = list(value)
        params[name] = value
    return params


def _run(service, run_id: str, kind: str, *, node, source, target,
         modules, nodes, labels, sources, text) -> dict:
    if kind == "subgraph":
        result = service.subgraph(run_id, node)
        return {"size": result.size}
    if kind == "ancestors":
        return {"count": len(service.ancestors(run_id, node))}
    if kind == "descendants":
        return {"count": len(service.descendants(run_id, node))}
    if kind == "reachability":
        answer = service.reachable(run_id, source, target)
        return {"reachable": answer}
    if kind == "deletion":
        # Prefer the service's deletion_set (pushdown-served when the
        # run is cold); duck-typed fakes without it keep the old path.
        service_deletion = getattr(service, "deletion_set", None)
        if service_deletion is not None:
            removed = service_deletion(run_id, list(nodes))
        else:
            removed = deletion_set(service.graph(run_id), list(nodes))
        return {"removed": len(removed)}
    if kind == "whatif":
        result = what_if_deleted(service.graph(run_id),
                                 node_ids=list(nodes),
                                 tuple_labels=list(labels))
        return {"removed": result.deletion.removed_count,
                "changed_aggregates": len(result.changes),
                "stale_blackboxes": len(result.stale_blackboxes)}
    if kind == "dependency":
        answer = depends_on(service.graph(run_id), node, list(sources))
        return {"depends": answer}
    if kind == "zoom":
        zoomed, _ = zoom_out(service.graph(run_id), list(modules))
        return {"zoomed_nodes": zoomed.node_count,
                "zoomed_edges": zoomed.edge_count}
    # proql
    result = run_query(service.graph(run_id), text or "")
    summary = {"result_type": type(result).__name__}
    if isinstance(result, (list, tuple, set, frozenset, dict)):
        summary["result_size"] = len(result)
    elif isinstance(result, int):
        summary["result"] = result
    return summary
