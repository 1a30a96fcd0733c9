"""Randomized differential test harness for the Pig Latin pipeline.

Hypothesis generates small, *valid-by-construction* Pig Latin programs
(FILTER / FOREACH / DISTINCT / JOIN / GROUP / UNION over generated
relations) and runs each program twice:

* **tracked** — with a ``GraphBuilder``, exactly as a workflow module
  invocation would run it (the system under test); and
* **naive** — a fresh untracked interpreter over rebuilt relations
  (the reference oracle: plain bag semantics, no provenance at all).

The differential assertions: every alias's output rows agree between
the two runs (bag equality, provenance-blind), provenance never
perturbs data.  On top of that, the tracked run's graph must satisfy
the structural invariants the rest of the system leans on:
``check_consistency``, CSR-snapshot/adjacency agreement, acyclicity,
and a byte-stable JSONL round-trip.
"""

from __future__ import annotations

import io
from collections import Counter

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.datamodel import FieldType, Relation, Schema
from repro.graph import GraphBuilder
from repro.graph.serialize import dump_graph, load_graph
from repro.piglatin import Interpreter
from repro.queries.deletion import deletion_set, propagate_deletion
from repro.store import CSRSnapshot, SQLiteStore

R_SCHEMA = Schema.of(("a", FieldType.INT), ("b", FieldType.INT))
S_SCHEMA = Schema.of(("a", FieldType.INT), ("c", FieldType.INT))

_SMALL_INT = st.integers(min_value=0, max_value=4)
_COMPARATORS = ("==", "!=", "<", ">", "<=", ">=")


class _Alias:
    """What the generator knows about a bound alias.

    ``fields`` is the tuple of *plain* field names when they are safe
    to reference (base relations, FILTER/FOREACH/DISTINCT results);
    ``None`` after JOIN/GROUP, whose prefixed / bag-typed schemas make
    field references ambiguous — such aliases still feed the
    field-free operators (DISTINCT, UNION).  ``types`` is the field
    type shape (``"int"`` / ``"bag"`` tags) UNION compatibility is
    checked against.
    """

    __slots__ = ("name", "fields", "types")

    def __init__(self, name, fields, types):
        self.name = name
        self.fields = fields
        self.types = types

    @property
    def arity(self):
        return len(self.types)


@st.composite
def programs(draw):
    """(program text, R rows, S rows) with every statement valid."""
    r_rows = draw(st.lists(st.tuples(_SMALL_INT, _SMALL_INT),
                           min_size=0, max_size=6))
    s_rows = draw(st.lists(st.tuples(_SMALL_INT, _SMALL_INT),
                           min_size=0, max_size=5))
    aliases = [_Alias("R", ("a", "b"), ("int", "int")),
               _Alias("S", ("a", "c"), ("int", "int"))]
    statements = []
    count = draw(st.integers(min_value=1, max_value=5))
    for index in range(count):
        target = f"T{index}"
        simple = [alias for alias in aliases if alias.fields is not None]
        choices = ["filter", "foreach", "distinct", "group", "join"]
        unionable = [(x, y) for x in aliases for y in aliases
                     if x.name != y.name and x.types == y.types]
        if unionable:
            choices.append("union")
        op = draw(st.sampled_from(choices))
        if op == "filter":
            src = draw(st.sampled_from(simple))
            field = draw(st.sampled_from(src.fields))
            comparator = draw(st.sampled_from(_COMPARATORS))
            constant = draw(_SMALL_INT)
            statements.append(
                f"{target} = FILTER {src.name} BY "
                f"{field} {comparator} {constant};")
            result = _Alias(target, src.fields, src.types)
        elif op == "foreach":
            src = draw(st.sampled_from(simple))
            kept = draw(st.lists(st.sampled_from(src.fields), min_size=1,
                                 max_size=len(src.fields), unique=True))
            statements.append(
                f"{target} = FOREACH {src.name} GENERATE "
                f"{', '.join(kept)};")
            result = _Alias(target, tuple(kept), ("int",) * len(kept))
        elif op == "distinct":
            src = draw(st.sampled_from(aliases))
            statements.append(f"{target} = DISTINCT {src.name};")
            result = _Alias(target, src.fields, src.types)
        elif op == "group":
            src = draw(st.sampled_from(simple))
            field = draw(st.sampled_from(src.fields))
            statements.append(f"{target} = GROUP {src.name} BY {field};")
            result = _Alias(target, None, ("int", "bag"))
        elif op == "join":
            left = draw(st.sampled_from(simple))
            right = draw(st.sampled_from(
                [alias for alias in simple if alias.name != left.name]
                or simple))
            if right.name == left.name:
                # Only one simple alias left; fall back to DISTINCT to
                # keep the program valid (self-joins double-reference
                # one alias and are exercised elsewhere).
                statements.append(f"{target} = DISTINCT {left.name};")
                result = _Alias(target, left.fields, left.types)
            else:
                left_key = draw(st.sampled_from(left.fields))
                right_key = draw(st.sampled_from(right.fields))
                statements.append(
                    f"{target} = JOIN {left.name} BY {left_key}, "
                    f"{right.name} BY {right_key};")
                result = _Alias(target, None, left.types + right.types)
        else:  # union
            left, right = draw(st.sampled_from(unionable))
            statements.append(
                f"{target} = UNION {left.name}, {right.name};")
            # Field names come from the left input, but suffix-matching
            # could now be ambiguous; treat as field-free.
            result = _Alias(target, None, left.types)
        aliases.append(result)
    return "\n".join(statements), r_rows, s_rows


def _environment(r_rows, s_rows):
    return {"R": Relation.from_values(R_SCHEMA, r_rows),
            "S": Relation.from_values(S_SCHEMA, s_rows)}


def _row_bag(relation: Relation) -> Counter:
    """Provenance-blind multiset signature of a relation's rows."""
    return Counter(row.signature() for row in relation.rows)


def _run_tracked(program, r_rows, s_rows):
    builder = GraphBuilder()
    builder.begin_invocation("Mfuzz")
    interpreter = Interpreter(builder)
    result = interpreter.execute(program, _environment(r_rows, s_rows))
    builder.end_invocation()
    return result, builder.graph


def _run_naive(program, r_rows, s_rows):
    return Interpreter().execute(program, _environment(r_rows, s_rows))


_FUZZ_SETTINGS = settings(
    max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])


class TestDifferentialExecution:
    @given(programs())
    @_FUZZ_SETTINGS
    def test_tracked_outputs_match_naive_reexecution(self, generated):
        program, r_rows, s_rows = generated
        tracked, _graph = _run_tracked(program, r_rows, s_rows)
        naive = _run_naive(program, r_rows, s_rows)
        assert tracked.relations.keys() == naive.relations.keys()
        for alias, relation in tracked.relations.items():
            assert _row_bag(relation) == _row_bag(naive.relations[alias]), \
                f"alias {alias!r} diverged for program:\n{program}"

    @given(programs())
    @_FUZZ_SETTINGS
    def test_tracked_execution_is_deterministic(self, generated):
        program, r_rows, s_rows = generated
        _result_a, graph_a = _run_tracked(program, r_rows, s_rows)
        _result_b, graph_b = _run_tracked(program, r_rows, s_rows)
        first, second = io.StringIO(), io.StringIO()
        dump_graph(graph_a, first)
        dump_graph(graph_b, second)
        assert first.getvalue() == second.getvalue()


class TestGraphInvariants:
    @given(programs())
    @_FUZZ_SETTINGS
    def test_graph_consistency_and_acyclicity(self, generated):
        program, r_rows, s_rows = generated
        _result, graph = _run_tracked(program, r_rows, s_rows)
        graph.check_consistency(warn_duplicates=False)
        assert graph.is_acyclic()

    @given(programs())
    @_FUZZ_SETTINGS
    def test_csr_snapshot_agrees_with_adjacency(self, generated):
        program, r_rows, s_rows = generated
        _result, graph = _run_tracked(program, r_rows, s_rows)
        snapshot = CSRSnapshot(graph)
        assert snapshot.node_count == graph.node_count
        assert snapshot.edge_count == graph.edge_count
        for node_id in graph.node_ids():
            assert sorted(snapshot.preds(node_id)) == \
                sorted(graph.preds(node_id))
            assert sorted(snapshot.succs(node_id)) == \
                sorted(graph.succs(node_id))
            assert snapshot.ancestors(node_id) == graph.ancestors(node_id)
            assert snapshot.descendants(node_id) == \
                graph.descendants(node_id)

class TestPushdownParity:
    """The SQL pushdown tier answers every query a CSR snapshot (and
    the deletion kernel) can, with identical results, on arbitrary
    generated DAGs — including after deletion propagation re-shapes
    the graph, and after one back edge makes the graph cyclic."""

    @staticmethod
    def _assert_parity(graph, program):
        store = SQLiteStore()
        try:
            store.put_graph("fuzz", graph)
            view = store.pushdown("fuzz")
            assert view is not None
            snapshot = CSRSnapshot(graph)
            ids = list(graph.node_ids())
            for node_id in ids:
                assert view.ancestors(node_id) == \
                    snapshot.ancestors(node_id), program
                assert view.descendants(node_id) == \
                    snapshot.descendants(node_id), program
            for node_id in ids[::7]:
                pushed = view.subgraph(node_id)
                kernel = snapshot.subgraph(node_id)
                assert (pushed.ancestors, pushed.descendants,
                        pushed.siblings) == (kernel.ancestors,
                                             kernel.descendants,
                                             kernel.siblings), program
                assert view.deletion_set([node_id]) == \
                    deletion_set(graph, [node_id]), program
                for target in ids[::5]:
                    assert view.reachable(node_id, target) == \
                        snapshot.reachable(node_id, target), program
        finally:
            store.close()

    @given(programs())
    @_FUZZ_SETTINGS
    def test_pushdown_matches_kernels(self, generated):
        program, r_rows, s_rows = generated
        _result, graph = _run_tracked(program, r_rows, s_rows)
        self._assert_parity(graph, program)

    @given(programs())
    @_FUZZ_SETTINGS
    def test_pushdown_matches_kernels_on_a_cycle(self, generated):
        program, r_rows, s_rows = generated
        _result, graph = _run_tracked(program, r_rows, s_rows)
        # Close a cycle through the node with the largest cone: its
        # newest descendant becomes one of its operands.
        head = max(graph.node_ids(),
                   key=lambda node: len(graph.descendants(node)))
        cone = graph.descendants(head)
        if not cone:
            return
        graph.add_edge(max(cone), head)
        assert not graph.is_acyclic()
        self._assert_parity(graph, program)

    @given(programs())
    @_FUZZ_SETTINGS
    def test_pushdown_survives_deletion_and_reencode(self, generated):
        program, r_rows, s_rows = generated
        _result, graph = _run_tracked(program, r_rows, s_rows)
        seed = next(iter(graph.node_ids()))
        outcome = propagate_deletion(graph, [seed])
        survivor = outcome.graph
        if survivor.node_count == 0:
            return
        store = SQLiteStore()
        try:
            store.put_graph("fuzz", survivor)
            view = store.pushdown("fuzz")
            assert view is not None
            snapshot = CSRSnapshot(survivor)
            for node_id in survivor.node_ids():
                assert view.ancestors(node_id) == \
                    snapshot.ancestors(node_id), program
                assert view.descendants(node_id) == \
                    snapshot.descendants(node_id), program
        finally:
            store.close()


class TestSerializationStability:
    @given(programs())
    @_FUZZ_SETTINGS
    def test_jsonl_round_trip_is_byte_stable(self, generated):
        program, r_rows, s_rows = generated
        _result, graph = _run_tracked(program, r_rows, s_rows)
        first = io.StringIO()
        dump_graph(graph, first)
        rebuilt = load_graph(io.StringIO(first.getvalue()))
        assert rebuilt.node_count == graph.node_count
        assert rebuilt.edge_count == graph.edge_count
        rebuilt.check_consistency(warn_duplicates=False)
        second = io.StringIO()
        dump_graph(rebuilt, second)
        assert first.getvalue() == second.getvalue()
