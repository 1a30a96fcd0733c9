"""The columnar node codec (``repro.graph.serialize``) against the seed.

The codec reads the arena columns directly, encodes each distinct
payload object once and escapes each interned string once; the SQLite
``nodes`` rows, the JSONL spool and the spool checksum all go through
it.  These tests pin it to the seed's per-node facade writers kept in
``benchmarks/legacy_graph.py``:

* on generated graphs — payloads equal under ``==`` but encoded apart
  (``1``/``True``/``1.0``, ``0.0``/``-0.0``, ``(1,)``/``(True,)``/
  ``(1.0,)``), one tuple object shared by many nodes, strings that
  need escaping, dead rows, ZOOM nodes — the JSONL and the ``nodes``
  rows equal the seed's byte for byte, and store and JSONL round trips
  re-dump identically;
* a facade write between two encodes shows up in the second one;
* an append writes only rows above the stored high-water mark;
* ``repr`` payloads (values with no JSON form) survive store and
  JSONL round trips and ``repro doctor``'s checksum verification.
"""

import io
import os
import sys

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "benchmarks"))

from legacy_graph import legacy_dump, legacy_node_rows  # noqa: E402

from repro.graph import NodeKind, ProvenanceGraph, dump_graph  # noqa: E402
from repro.graph import load_graph  # noqa: E402
from repro.graph.serialize import (ReprPayload, decode_records,  # noqa: E402
                                   node_records)
from repro.store import SQLiteStore  # noqa: E402
from repro.store.doctor import diagnose, graph_checksum  # noqa: E402

LABELS = ["t0", 'q"uote', "back\\slash", "δ", "None", "", "+"]
MODULES = [None, 'M"1', "δmod", "back\\mod", "Magg"]


def _payloads():
    """Fresh payload objects for one graph: values equal under ``==``
    that must still encode apart, one shared tuple, and values that
    only have a ``repr``."""
    shared = ("shared", 7, 2.5)
    return [None, 1, True, 1.0, 0.0, -0.0, (1,), (True,), (1.0,),
            shared, shared, shared, 'δ"\\', float("inf"), (),
            ("x", [1, 2]), frozenset({1, 2}), ("a", None, False)]


node_specs = st.lists(
    st.tuples(st.sampled_from(list(NodeKind)),
              st.integers(0, len(LABELS) - 1),
              st.sampled_from(["p", "v"]),
              st.integers(0, len(MODULES) - 1),
              st.one_of(st.none(), st.integers(0, 3)),
              st.integers(0, len(_payloads()) - 1)),
    min_size=1, max_size=40)


def _dump(graph) -> str:
    buffer = io.StringIO()
    dump_graph(graph, buffer)
    return buffer.getvalue()


def _seed_dump(graph) -> str:
    buffer = io.StringIO()
    legacy_dump(graph, buffer)
    return buffer.getvalue()


def _stored_rows(store, run_id: str):
    return store._conn.execute(
        "SELECT node_id, kind, label, ntype, module, invocation, value "
        "FROM nodes WHERE run_id = ? ORDER BY node_id", (run_id,)).fetchall()


def _build(specs, edges, doomed, invocations) -> ProvenanceGraph:
    graph = ProvenanceGraph()
    payloads = _payloads()
    for module in MODULES[1:1 + invocations]:
        graph.new_invocation(module)
    for kind, label, ntype, module, invocation, payload in specs:
        graph.add_node(kind, LABELS[label], ntype, MODULES[module],
                       invocation, payloads[payload])
    size = graph._next_node_id
    graph.add_edges((source % size, target % size)
                    for source, target in edges
                    if source % size != target % size)
    graph.remove_nodes(node_id % size for node_id in doomed
                       if node_id % size >= invocations)
    return graph


graphs = st.builds(
    _build, node_specs,
    st.lists(st.tuples(st.integers(0, 60), st.integers(0, 60)), max_size=60),
    st.lists(st.integers(0, 60), max_size=8),
    st.integers(0, 2))


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(graphs)
def test_codec_matches_seed_writers_and_round_trips(graph):
    text = _dump(graph)
    assert text == _seed_dump(graph)
    store = SQLiteStore()
    try:
        store.put_graph("r", graph)
        assert _stored_rows(store, "r") == legacy_node_rows(
            graph, graph.node_ids())
        assert _dump(store.load_graph("r")) == text
    finally:
        store.close()
    assert _dump(load_graph(io.StringIO(text))) == text
    assert graph_checksum(graph) == graph_checksum(
        load_graph(io.StringIO(text)))


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(graphs, st.integers(0, 60), st.integers(0, len(_payloads()) - 1))
def test_facade_write_between_encodes_is_seen(graph, pick, payload):
    alive = list(graph.node_ids())
    if not alive:
        return
    before = _dump(graph)
    node = graph.node(alive[pick % len(alive)])
    node.value = _payloads()[payload]
    node.label = "fresh \"label\" δ"
    after = _dump(graph)
    assert after == _seed_dump(graph)
    assert after != before
    assert list(node_records(graph)) == legacy_node_rows(
        graph, graph.node_ids())


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(graphs, node_specs)
def test_append_writes_only_rows_above_high_water_mark(graph, extra):
    store = SQLiteStore()
    try:
        store.put_graph("r", graph)
        stored = _stored_rows(store, "r")
        high_water = graph._next_node_id
        alive = list(graph.node_ids())
        if alive:  # an old row the append must not rewrite
            graph.node(alive[0]).label = "rewritten"
        payloads = _payloads()
        for kind, label, ntype, module, invocation, payload in extra:
            graph.add_node(kind, LABELS[label], ntype, MODULES[module],
                           invocation, payloads[payload])
        assert [record[0] for record in node_records(graph, high_water)] \
            == list(range(high_water, graph._next_node_id))
        store.append_graph("r", graph)
        assert _stored_rows(store, "r") == stored + legacy_node_rows(
            graph, range(high_water, graph._next_node_id))
    finally:
        store.close()


def test_decoded_payloads_are_shared_per_text():
    ids, kinds, labels, _, modules, invocations, values = decode_records([
        (0, "tuple", "a", "p", None, None, '{"tuple": ["x", 1]}'),
        (1, "tuple", "b", "p", None, None, '{"tuple": ["x", 1]}'),
        (2, "value", "c", "v", None, 0, '{"atom": 1}'),
        (3, "value", "d", "v", None, 0, '{"atom": true}'),
        (4, "plus", "+", "p", "M", None, None),
    ])
    assert ids == [0, 1, 2, 3, 4] and labels[4] == "+"
    assert modules[4] == "M" and invocations[2:4] == [0, 0]
    assert values[0] is values[1] == ("x", 1)
    assert values[2] == 1 and values[2] is not True
    assert values[3] is True
    assert kinds[4] is NodeKind.PLUS and values[4] is None


class TestReprPayloads:
    """A value with no JSON form is written as ``{"repr": ...}``; read
    back, it must be written as ``repr`` again (not as an atom
    string), or the checksum of the stored run drifts."""

    @staticmethod
    def _graph() -> ProvenanceGraph:
        graph = ProvenanceGraph()
        token = graph.add_node(NodeKind.TUPLE, "t", value=("x", [1, 2]))
        udf = graph.add_node(NodeKind.BLACKBOX, "udf", ntype="v",
                             value=frozenset({1, 2}))
        plain = graph.add_node(NodeKind.VALUE, ntype="v", value="(1, 2)")
        graph.add_edge(token, udf)
        graph.add_edge(plain, udf)
        return graph

    def test_jsonl_round_trip(self):
        graph = self._graph()
        text = _dump(graph)
        loaded = load_graph(io.StringIO(text))
        assert isinstance(loaded.node(0).value, ReprPayload)
        assert loaded.node(0).value == "('x', [1, 2])"
        assert not isinstance(loaded.node(2).value, ReprPayload)
        assert _dump(loaded) == text
        assert graph_checksum(loaded) == graph_checksum(graph)

    def test_store_round_trip_and_doctor(self, tmp_path):
        graph = self._graph()
        expected = graph_checksum(graph)
        store = SQLiteStore(str(tmp_path / "runs.db"))
        try:
            store.put_graph("r", graph)
            store.set_run_meta("r", {"ingest": {"spool_sha256": expected}})
            loaded = store.load_graph("r")
            assert isinstance(loaded.node(1).value, ReprPayload)
            assert graph_checksum(loaded) == expected
            report = diagnose(store)
            assert report.checksum_failures == []
            assert report.healthy
            # Re-storing the loaded graph keeps the same rows.
            rows = _stored_rows(store, "r")
            store.put_graph("again", loaded)
            assert _stored_rows(store, "again") == rows
        finally:
            store.close()
