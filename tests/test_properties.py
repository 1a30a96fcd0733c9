"""Property-based tests (hypothesis) on the core algebra and graph.

Covers: semiring laws of N[X], homomorphism of evaluation, consistency
of graph deletion propagation with algebraic token deletion, zoom
round-trips, interpreter bag-semantics invariants.
"""

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.datamodel import FieldType, Relation, Schema
from repro.graph import GraphBuilder, NodeKind, to_expression
from repro.piglatin import Interpreter
from repro.provenance import (
    BOOLEAN,
    COUNTING,
    Polynomial,
    Token,
    TROPICAL,
    delta,
    product_of,
    sum_of,
    token,
)
from repro.queries import Zoomer, propagate_deletion

TOKENS = [Token(f"t{i}") for i in range(4)]

# ----------------------------------------------------------------------
# Polynomial strategies
# ----------------------------------------------------------------------
polynomials = st.deferred(lambda: st.one_of(
    st.sampled_from([Polynomial.zero(), Polynomial.one()]),
    st.sampled_from(TOKENS).map(Polynomial.of_token),
    st.integers(min_value=0, max_value=3).map(Polynomial.constant),
    st.tuples(polynomials, polynomials).map(lambda pair: pair[0] + pair[1]),
    st.tuples(polynomials, polynomials).map(lambda pair: pair[0] * pair[1]),
))

valuations = st.fixed_dictionaries(
    {tok: st.integers(min_value=0, max_value=3) for tok in TOKENS})


class TestSemiringLaws:
    @given(polynomials, polynomials)
    def test_addition_commutative(self, p, q):
        assert p + q == q + p

    @given(polynomials, polynomials, polynomials)
    def test_addition_associative(self, p, q, r):
        assert (p + q) + r == p + (q + r)

    @given(polynomials, polynomials)
    def test_multiplication_commutative(self, p, q):
        assert p * q == q * p

    @given(polynomials, polynomials, polynomials)
    def test_multiplication_associative(self, p, q, r):
        assert (p * q) * r == p * (q * r)

    @given(polynomials, polynomials, polynomials)
    def test_distributivity(self, p, q, r):
        assert p * (q + r) == p * q + p * r

    @given(polynomials)
    def test_identities(self, p):
        assert p + Polynomial.zero() == p
        assert p * Polynomial.one() == p
        assert (p * Polynomial.zero()).is_zero()

    @given(polynomials, polynomials, valuations)
    def test_evaluation_is_homomorphism(self, p, q, values):
        valuation = values.__getitem__
        assert ((p + q).evaluate(COUNTING, valuation)
                == p.evaluate(COUNTING, valuation)
                + q.evaluate(COUNTING, valuation))
        assert ((p * q).evaluate(COUNTING, valuation)
                == p.evaluate(COUNTING, valuation)
                * q.evaluate(COUNTING, valuation))

    @given(polynomials, valuations)
    def test_boolean_evaluation_matches_counting_positivity(self, p, values):
        counting = p.evaluate(COUNTING, values.__getitem__)
        boolean = p.evaluate(BOOLEAN, lambda t: values[t] > 0)
        assert boolean == (counting > 0)

    @given(polynomials, st.sets(st.sampled_from(TOKENS)))
    def test_delete_tokens_equals_zero_valuation(self, p, dead):
        survivors = p.delete_tokens(dead)
        valuation = lambda t: 0 if t in dead else 1
        assert (survivors.evaluate(COUNTING, lambda _t: 1)
                == p.evaluate(COUNTING, valuation))


# ----------------------------------------------------------------------
# Expression strategies (with δ)
# ----------------------------------------------------------------------
expressions = st.deferred(lambda: st.one_of(
    st.sampled_from(TOKENS).map(token),
    st.lists(expressions, min_size=2, max_size=3).map(sum_of),
    st.lists(expressions, min_size=2, max_size=3).map(product_of),
    expressions.map(delta),
))


class TestExpressionProperties:
    @given(expressions, st.sets(st.sampled_from(TOKENS)))
    def test_deletion_agrees_with_boolean_semantics(self, expression, dead):
        simplified = expression.delete_tokens(dead)
        alive = lambda t: t not in dead
        expected = expression.evaluate(BOOLEAN, alive)
        actual = (not simplified.is_zero()
                  and simplified.evaluate(BOOLEAN, lambda _t: True))
        assert actual == expected

    @given(expressions)
    def test_tropical_evaluation_defined(self, expression):
        # δ is identity in tropical; evaluation must never fail.
        cost = expression.evaluate(TROPICAL, lambda _t: 1.0)
        assert cost >= 0.0


# ----------------------------------------------------------------------
# Graph properties
# ----------------------------------------------------------------------
@st.composite
def small_dags(draw):
    """A random layered provenance-ish DAG inside one invocation."""
    builder = GraphBuilder()
    builder.begin_invocation("M")
    leaves = [builder.base_tuple_node("R")
              for _ in range(draw(st.integers(2, 5)))]
    layers = [leaves]
    for _depth in range(draw(st.integers(1, 3))):
        previous = layers[-1]
        width = draw(st.integers(1, 3))
        layer = []
        for _node in range(width):
            kind = draw(st.sampled_from(["plus", "times", "delta"]))
            count = draw(st.integers(1, min(3, len(previous))))
            indices = draw(st.permutations(range(len(previous))))
            operands = [previous[i] for i in indices[:count]]
            if kind == "plus":
                layer.append(builder.plus_node(operands))
            elif kind == "times":
                layer.append(builder.times_node(operands))
            else:
                layer.append(builder.delta_node(operands))
        layers.append(layer)
    builder.end_invocation()
    return builder.graph, leaves, layers[-1]


class TestGraphProperties:
    @settings(suppress_health_check=[HealthCheck.too_slow], deadline=None)
    @given(small_dags(), st.data())
    def test_deletion_propagation_matches_algebra(self, dag, data):
        """Graph deletion (Def 4.2) and algebraic token deletion agree
        on the survival of every derived node."""
        graph, leaves, roots = dag
        dead_count = data.draw(st.integers(0, len(leaves)))
        dead_leaves = leaves[:dead_count]
        dead_labels = {graph.node(leaf).label for leaf in dead_leaves}
        outcome = propagate_deletion(graph, dead_leaves)
        for root in roots:
            expression = to_expression(graph, root)
            dead_tokens = {t for t in expression.tokens()
                           if t.name in dead_labels}
            algebra_survives = not expression.delete_tokens(dead_tokens).is_zero()
            assert outcome.survived(root) == algebra_survives

    @settings(suppress_health_check=[HealthCheck.too_slow], deadline=None)
    @given(small_dags())
    def test_deletion_monotone_in_seeds(self, dag):
        graph, leaves, _roots = dag
        fewer = propagate_deletion(graph, leaves[:1]).removed
        more = propagate_deletion(graph, leaves[:2]).removed
        assert fewer <= more

    @settings(suppress_health_check=[HealthCheck.too_slow], deadline=None)
    @given(small_dags())
    def test_graphs_acyclic_and_consistent(self, dag):
        graph, _leaves, _roots = dag
        assert graph.is_acyclic()
        graph.check_consistency()

    @settings(suppress_health_check=[HealthCheck.too_slow], deadline=None)
    @given(small_dags())
    def test_copy_equals_original(self, dag):
        graph, _leaves, _roots = dag
        duplicate = graph.copy()
        assert set(duplicate.nodes) == set(graph.nodes)
        assert duplicate.edge_count == graph.edge_count
        for node_id in graph.node_ids():
            assert sorted(duplicate.preds(node_id)) == sorted(graph.preds(node_id))


# ----------------------------------------------------------------------
# Interpreter bag-semantics invariants
# ----------------------------------------------------------------------
ROWS = st.lists(
    st.tuples(st.sampled_from(["a", "b", "c"]),
              st.integers(min_value=0, max_value=5)),
    min_size=0, max_size=8)
SCHEMA = Schema.of(("k", FieldType.CHARARRAY), ("n", FieldType.INT))


def _relation(rows):
    return Relation.from_values(SCHEMA, rows)


class TestInterpreterProperties:
    @given(ROWS)
    def test_projection_preserves_cardinality(self, rows):
        result = Interpreter().execute("B = FOREACH R GENERATE k;",
                                       {"R": _relation(rows)})
        assert len(result.relation("B")) == len(rows)

    @given(ROWS)
    def test_filter_then_union_partition(self, rows):
        script = """
Lo = FILTER R BY n < 3;
Hi = FILTER R BY n >= 3;
Both = UNION Lo, Hi;
"""
        result = Interpreter().execute(script, {"R": _relation(rows)})
        assert result.relation("Both") == _relation(rows)

    @given(ROWS)
    def test_distinct_idempotent(self, rows):
        script = "D1 = DISTINCT R; D2 = DISTINCT D1;"
        result = Interpreter().execute(script, {"R": _relation(rows)})
        assert result.relation("D1") == result.relation("D2")

    @given(ROWS)
    def test_group_partitions_input(self, rows):
        result = Interpreter().execute("G = GROUP R BY k;",
                                       {"R": _relation(rows)})
        total = sum(len(row.values[1]) for row in result.relation("G").rows)
        assert total == len(rows)

    @given(ROWS)
    def test_group_count_matches_python(self, rows):
        script = """
G = GROUP R BY k;
C = FOREACH G GENERATE group, COUNT(R) AS n;
"""
        result = Interpreter().execute(script, {"R": _relation(rows)})
        counts = dict(result.relation("C").value_rows())
        expected = {}
        for key, _value in rows:
            expected[key] = expected.get(key, 0) + 1
        assert counts == expected

    @given(ROWS, ROWS)
    def test_join_cardinality(self, left_rows, right_rows):
        result = Interpreter().execute(
            "J = JOIN L BY k, R BY k;",
            {"L": _relation(left_rows), "R": _relation(right_rows)})
        expected = 0
        for lk, _lv in left_rows:
            for rk, _rv in right_rows:
                if lk == rk:
                    expected += 1
        assert len(result.relation("J")) == expected

    @given(ROWS)
    def test_order_is_permutation(self, rows):
        result = Interpreter().execute("O = ORDER R BY n;",
                                       {"R": _relation(rows)})
        assert result.relation("O") == _relation(rows)
        values = [row.values[1] for row in result.relation("O").rows]
        assert values == sorted(values)

    @given(ROWS)
    def test_sum_matches_python(self, rows):
        script = """
G = GROUP R ALL;
S = FOREACH G GENERATE SUM(R.n) AS total;
"""
        result = Interpreter().execute(script, {"R": _relation(rows)})
        if rows:
            assert result.relation("S").value_rows() == [
                (sum(n for _k, n in rows),)]
        else:
            assert len(result.relation("S")) == 0

    @given(ROWS)
    def test_tracked_and_untracked_agree_on_values(self, rows):
        script = """
G = GROUP R BY k;
C = FOREACH G GENERATE group, COUNT(R) AS n;
D = DISTINCT R;
"""
        untracked = Interpreter().execute(script, {"R": _relation(rows)})
        builder = GraphBuilder()
        builder.begin_invocation("M")
        tracked = Interpreter(builder).execute(script, {"R": _relation(rows)})
        builder.end_invocation()
        for alias in ("C", "D"):
            assert tracked.relation(alias) == untracked.relation(alias)


class TestSerializationProperties:
    @settings(suppress_health_check=[HealthCheck.too_slow], deadline=None,
              max_examples=30)
    @given(small_dags())
    def test_round_trip_preserves_structure(self, dag):
        import io

        from repro.graph import dump_graph, load_graph

        graph, _leaves, _roots = dag
        buffer = io.StringIO()
        dump_graph(graph, buffer)
        buffer.seek(0)
        rebuilt = load_graph(buffer)
        assert set(rebuilt.nodes) == set(graph.nodes)
        assert rebuilt.edge_count == graph.edge_count
        for node_id in graph.node_ids():
            assert sorted(rebuilt.preds(node_id)) == sorted(graph.preds(node_id))
            assert rebuilt.node(node_id).kind is graph.node(node_id).kind
        rebuilt.check_consistency()

    @settings(suppress_health_check=[HealthCheck.too_slow], deadline=None,
              max_examples=20)
    @given(small_dags(), st.data())
    def test_deletion_commutes_with_round_trip(self, dag, data):
        import io

        from repro.graph import dump_graph, load_graph
        from repro.queries import deletion_set

        graph, leaves, _roots = dag
        seed_count = data.draw(st.integers(1, len(leaves)))
        seeds = leaves[:seed_count]
        before = deletion_set(graph, seeds)
        buffer = io.StringIO()
        dump_graph(graph, buffer)
        buffer.seek(0)
        rebuilt = load_graph(buffer)
        assert deletion_set(rebuilt, seeds) == before


class TestZoomProperties:
    @settings(suppress_health_check=[HealthCheck.too_slow], deadline=None,
              max_examples=20)
    @given(st.integers(0, 3))
    def test_zoom_roundtrip_on_random_arctic(self, station_pick):
        from repro.benchmark.arctic import ArcticRun, build_arctic_workflow
        from repro.workflow import WorkflowExecutor

        workflow, modules = build_arctic_workflow("parallel", 2)
        builder = GraphBuilder()
        executor = WorkflowExecutor(workflow, modules, builder)
        run = ArcticRun(workflow, modules, selectivity="year", num_exec=1,
                        history_years=1)
        run.run(executor)
        import io

        from repro.graph import dump_graph

        def dumped():
            buffer = io.StringIO()
            dump_graph(graph, buffer)
            return buffer.getvalue()

        graph = builder.graph
        module_name = ["Msta1", "Msta2", "Mout", "Msta1"][station_pick]
        before = (set(graph.nodes), graph.edge_count)
        original = dumped()
        zoomer = Zoomer(graph)
        zoomer.zoom_out([module_name])
        zoomer.zoom_in([module_name])
        assert (set(graph.nodes), graph.edge_count) == before
        graph.check_consistency()
        assert dumped() == original
        zoomer.zoom_in(zoomer.zoom_out_all())
        assert dumped() == original
