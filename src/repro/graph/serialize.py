"""Filesystem round-trip of provenance graphs (JSON Lines).

The Lipstick architecture (paper Section 5.1) splits the system into a
*Provenance Tracker* whose "output is written to the file-system, and
is used as input by the Query Processor".  This module is that
interchange format: a streaming JSONL file with one record per node
(including its operand edges) plus invocation records, so the Query
Processor can rebuild the in-memory graph without re-running the
workflow.

Paths ending in ``.gz`` are read and written through gzip
transparently, so large spools stay small on disk; the store layer
(:mod:`repro.store`) reuses these helpers for JSONL import/export.

One columnar codec serves both directions: :func:`node_records` reads
the arena columns (no ``Node`` facades) for the SQLite ``nodes`` rows
and the JSONL node lines alike, :func:`decode_records` rebuilds the
store's rows, and the spool checksum hashes :func:`dump_chunks`.
"""

from __future__ import annotations

import gzip
import json
import os
from itertools import islice
from typing import Any, Dict, IO, Iterable, Iterator, List, Tuple, Union

from ..errors import SerializationError
from .nodes import KIND_BY_CODE, NodeKind
from .provgraph import Invocation, ProvenanceGraph

FORMAT_VERSION = 1

_JSON_ATOMS = (int, float, str, bool, type(None))

#: ``json.dumps`` with its default settings, minus the per-call checks.
_encode = json.JSONEncoder().encode

#: Node kinds by their serialized value (the store's ``kind`` column).
_KIND_BY_VALUE = {kind.value: kind for kind in NodeKind}

_NODE_LINE = ('{"record": "node", "id": %d, "kind": %s, "label": %s, '
              '"ntype": %s, "module": %s, "invocation": %s, "value": %s, '
              '"preds": %s}\n')


class ReprPayload(str):
    """A ``repr`` payload read back; the codec writes it as ``repr``
    again, so load-then-dump reproduces the same bytes."""

    __slots__ = ()


def _payload_json(value: Any) -> str:
    """JSON text of a non-``None`` payload; non-atomic payloads degrade
    to their repr."""
    if isinstance(value, ReprPayload):
        return '{"repr": %s}' % _encode(value)
    if isinstance(value, _JSON_ATOMS):
        return '{"atom": %s}' % _encode(value)
    if isinstance(value, tuple) and all(isinstance(v, _JSON_ATOMS) for v in value):
        return '{"tuple": %s}' % _encode(value)
    return '{"repr": %s}' % _encode(repr(value))


def _decode_value(encoded):
    if "atom" in encoded:
        return encoded["atom"]
    if "tuple" in encoded:
        return tuple(encoded["tuple"])
    return ReprPayload(encoded["repr"]) if "repr" in encoded else None


def node_records(graph: ProvenanceGraph, start: int = 0,
                 quote=None) -> Iterator[Tuple]:
    """``(id, kind, label, ntype, module, invocation, payload_json)``
    for every alive node with id >= ``start``, read straight off the
    arena columns: the store's ``nodes`` rows.  Each distinct payload
    object is encoded once, memoised by identity (``1``, ``True`` and
    ``1.0`` are equal but encode apart).  With ``quote`` (the JSONL
    writer passes the JSON encoder) every string-table entry, and
    ``None``, is mapped through it once."""
    tables = ([kind.value for kind in KIND_BY_CODE], graph._label_table,
              graph._ntype_table, graph._module_table)
    null = None
    if quote is not None:
        tables = [list(map(quote, table)) for table in tables]
        null = quote(None)
    kinds, labels, ntypes, modules = tables
    memo: Dict[int, str] = {}
    for (node_id, alive, code, label, ntype, module, invocation,
         value) in zip(range(start, graph._next_node_id),
                       graph._alive[start:], graph._kind_codes[start:],
                       graph._label_ids[start:], graph._ntype_ids[start:],
                       graph._module_ids[start:],
                       graph._invocation_ids[start:], graph._values[start:]):
        if not alive:
            continue
        if value is None:
            payload = null
        else:
            payload = memo.get(id(value))
            if payload is None:
                payload = memo[id(value)] = _payload_json(value)
        yield (node_id, kinds[code], labels[label], ntypes[ntype],
               modules[module], null if invocation < 0 else invocation,
               payload)


def decode_records(records: Iterable[Tuple]) -> Tuple[List, ...]:
    """Inverse of :func:`node_records`: the node columns for
    ``ProvenanceGraph._restore_columns``.  Each distinct payload text
    is decoded once, so nodes with equal payload text share one
    object.  Records are consumed one at a time: keeping every row
    tuple alive would push the cyclic GC into full collections of
    whatever else is resident."""
    columns = ids, kinds, labels, ntypes, modules, invocations, values = (
        [], [], [], [], [], [], [])
    decoded: Dict[Any, Any] = {None: None}
    for node_id, kind, label, ntype, module, invocation, payload in records:
        value = decoded.get(payload, decoded)
        if value is decoded:
            value = decoded[payload] = _decode_value(json.loads(payload))
        ids.append(node_id)
        kinds.append(_KIND_BY_VALUE[kind])
        labels.append(label)
        ntypes.append(ntype)
        modules.append(module)
        invocations.append(invocation)
        values.append(value)
    return columns


def _is_gzip_path(path: Union[str, os.PathLike]) -> bool:
    return os.fspath(path).endswith(".gz")


def _open_text(path: Union[str, os.PathLike], mode: str) -> IO[str]:
    """Open a spool path for text I/O, transparently gzipped for ``.gz``."""
    if _is_gzip_path(path):
        return gzip.open(path, mode + "t", encoding="utf-8")
    return open(path, mode, encoding="utf-8")


def dump_graph(graph: ProvenanceGraph, destination: Union[str, os.PathLike, IO[str]]) -> int:
    """Write ``graph`` as JSONL; returns the number of records written.

    ``destination`` may be a path or an open text file; paths ending
    in ``.gz`` are gzip-compressed.
    """
    if hasattr(destination, "write"):
        return _dump_to_stream(graph, destination)
    with _open_text(destination, "w") as stream:
        return _dump_to_stream(graph, stream)


def _dump_to_stream(graph: ProvenanceGraph, stream: IO[str]) -> int:
    stream.writelines(dump_chunks(graph))
    return 1 + len(graph.invocations) + graph.node_count


def dump_chunks(graph: ProvenanceGraph) -> Iterator[str]:
    """The text :func:`dump_graph` writes, in chunks: the header, the
    invocation records, then node lines 4096 at a time."""
    yield json.dumps({"record": "header", "version": FORMAT_VERSION,
                      "nodes": graph.node_count, "edges": graph.edge_count,
                      "invocations": len(graph.invocations)}) + "\n"
    yield "".join(json.dumps({
        "record": "invocation",
        "id": invocation.invocation_id,
        "module": invocation.module_name,
        "module_node": invocation.module_node,
        "inputs": invocation.input_nodes,
        "outputs": invocation.output_nodes,
        "state": invocation.state_nodes,
    }) + "\n" for invocation in graph.invocations.values())
    pred_views = graph.csr().pred_views
    lines = (_NODE_LINE % (*row, list(pred_views[row[0]]))
             for row in node_records(graph, 0, _encode))
    while True:
        chunk = "".join(islice(lines, 4096))
        if not chunk:
            return
        yield chunk


def load_graph(source: Union[str, os.PathLike, IO[str]]) -> ProvenanceGraph:
    """Rebuild a graph previously written by :func:`dump_graph`.

    ``source`` may be a path (``.gz`` decompressed transparently) or
    an open text file.
    """
    if hasattr(source, "read"):
        return _load_from_lines(iter(source))
    with _open_text(source, "r") as stream:
        return _load_from_lines(iter(stream))


def _load_from_lines(lines: Iterator[str]) -> ProvenanceGraph:
    graph = ProvenanceGraph()
    header: Dict[str, Any] = {}
    node_rows = []
    pending_sources: list = []
    pending_targets: list = []
    max_node_id = -1
    max_invocation_id = -1
    loads = json.loads
    for line_number, raw in enumerate(lines, start=1):
        raw = raw.strip()
        if not raw:
            continue
        try:
            record = loads(raw)
        except json.JSONDecodeError as error:
            raise SerializationError(
                f"line {line_number}: invalid JSON ({error})") from error
        record_type = record.get("record")
        if record_type == "node":
            try:
                kind = NodeKind(record["kind"])
            except ValueError as error:
                raise SerializationError(
                    f"line {line_number}: unknown node kind "
                    f"{record['kind']!r}") from error
            node_id = record["id"]
            value = record.get("value")
            node_rows.append((node_id, kind, record["label"],
                              record["ntype"], record.get("module"),
                              record.get("invocation"),
                              _decode_value(value) if value is not None
                              else None))
            preds = record.get("preds")
            if preds:
                pending_sources.extend(preds)
                pending_targets.extend([node_id] * len(preds))
            if node_id > max_node_id:
                max_node_id = node_id
        elif record_type == "invocation":
            invocation = Invocation(record["id"], record["module"],
                                    record["module_node"])
            invocation.input_nodes = list(record.get("inputs", []))
            invocation.output_nodes = list(record.get("outputs", []))
            invocation.state_nodes = list(record.get("state", []))
            graph.invocations[invocation.invocation_id] = invocation
            max_invocation_id = max(max_invocation_id, invocation.invocation_id)
        elif record_type == "header":
            if record.get("version") != FORMAT_VERSION:
                raise SerializationError(
                    f"unsupported format version {record.get('version')!r}")
            header = record
        else:
            raise SerializationError(
                f"line {line_number}: unknown record type {record_type!r}")
    if not header:
        raise SerializationError("missing header record")
    if node_rows:
        graph._restore_columns(tuple(zip(*node_rows)))
    graph.add_edge_lists(pending_sources, pending_targets)
    graph._next_node_id = max(graph._next_node_id, max_node_id + 1)
    graph._next_invocation_id = max_invocation_id + 1
    expected_nodes = header.get("nodes")
    if expected_nodes is not None and expected_nodes != graph.node_count:
        raise SerializationError(
            f"header declares {expected_nodes} nodes, found {graph.node_count}")
    expected_edges = header.get("edges")
    if expected_edges is not None and expected_edges != graph.edge_count:
        raise SerializationError(
            f"header declares {expected_edges} edges, found {graph.edge_count}")
    return graph
