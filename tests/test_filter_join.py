"""Mediator FILTER joins: cross-component ``?a = ?b`` as a value-keyed join.

The scheduler rewrites a residue conjunct ``?a = ?b`` (or
``sameTerm(?a, ?b)``) whose variables two different required components
bind into a hash join on the canonical equality key, instead of a cross
product followed by the filter.  These tests pin down that the rewrite
is exact:

* the kernel equals cross product + ``Relation.filter`` as bags, over
  IRIs, plain / language-tagged strings, cross-type equal numerics, NaN,
  ill-typed numerics and unbound cells;
* every strategy x statistics mode answers the LargeRDFBench-style
  FILTER-join queries (C5/B5/B6) and crafted cross-endpoint federations
  exactly like the union-graph oracle, with unconsumed conjuncts still
  applied;
* ``max_mediator_rows`` now admits B5, and still aborts a filter join
  whose own output is too large from inside the kernel.
"""

from __future__ import annotations

import itertools
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.engine import LusailConfig, LusailEngine
from repro.datasets import largerdf, queries_largerdf
from repro.endpoint import Endpoint, Federation
from repro.exceptions import MemoryLimitError
from repro.obs import MetricsRegistry, Tracer
from repro.rdf import IRI, BNode, Literal, Triple, Variable
from repro.rdf.terms import XSD_DECIMAL, XSD_DOUBLE, XSD_INTEGER
from repro.relational import Relation, kernel_runtime, make_filter_predicate
from repro.relational.filters import (
    conjuncts,
    equality_conjunct,
    equality_key,
)
from repro.sparql.ast import BooleanOp, Comparison, FunctionCall, TermExpr, VarExpr
from repro.sparql.evaluator import _term_equal, evaluate_select
from repro.sparql.parser import parse_query

A, X, B, Y = Variable("a"), Variable("x"), Variable("b"), Variable("y")

#: Terms whose ``=`` semantics differ from plain term identity.
POOL = (
    IRI("http://e.org/1"),
    IRI("http://e.org/2"),
    BNode("n1"),
    Literal("1"),
    Literal("a"),
    Literal("a", language="en"),
    Literal("a", language="fr"),
    Literal("1", datatype=XSD_INTEGER),
    Literal("01", datatype=XSD_INTEGER),
    Literal("1.0", datatype=XSD_DECIMAL),
    Literal("1e0", datatype=XSD_DOUBLE),
    Literal("2", datatype=XSD_INTEGER),
    Literal("2.50", datatype=XSD_DECIMAL),
    Literal("2.5e0", datatype=XSD_DOUBLE),
    Literal("NaN", datatype=XSD_DOUBLE),
    Literal("INF", datatype=XSD_DOUBLE),
    Literal("abc", datatype=XSD_INTEGER),
    Literal("true", datatype="http://www.w3.org/2001/XMLSchema#boolean"),
)

EQUALS = Comparison("=", VarExpr(A), VarExpr(B))
SAME_TERM = FunctionCall("SAMETERM", [VarExpr(A), VarExpr(B)])

_cell = st.one_of(st.none(), st.sampled_from(POOL))
_rows = st.lists(st.tuples(_cell, _cell), max_size=12)
_SETTINGS = settings(max_examples=150, deadline=None)


def _bag(relation: Relation) -> Counter:
    return Counter(tuple(row) for row in relation.project((A, X, B, Y)).rows)


def _oracle_bag(query: str, federation: Federation) -> Counter:
    result = evaluate_select(federation.union_store(), parse_query(query))
    return Counter(map(tuple, result.rows))


def _engine_bag(outcome) -> Counter:
    return Counter(map(tuple, outcome.result.rows))


# ---------------------------------------------------------------- kernel


class TestEqualityKey:
    @pytest.mark.parametrize("left,right", itertools.product(POOL, repeat=2))
    def test_key_equality_is_term_equality(self, left, right):
        assert (equality_key(left) == equality_key(right)) == _term_equal(left, right)

    def test_conjunct_recognition(self):
        assert equality_conjunct(EQUALS).key is equality_key
        assert equality_conjunct(SAME_TERM).key is None
        assert equality_conjunct(Comparison("=", VarExpr(A), VarExpr(A))) is None
        assert equality_conjunct(Comparison("<", VarExpr(A), VarExpr(B))) is None
        assert equality_conjunct(Comparison("=", VarExpr(A), TermExpr(Literal("1")))) is None

    def test_conjuncts_flatten_nested_and(self):
        inner = BooleanOp("&&", [EQUALS, SAME_TERM])
        other = Comparison(">", VarExpr(X), TermExpr(Literal("3")))
        either = BooleanOp("||", [EQUALS, other])
        assert conjuncts(BooleanOp("&&", [inner, other, either])) == [
            EQUALS,
            SAME_TERM,
            other,
            either,
        ]


class TestValueJoinKernel:
    @_SETTINGS
    @given(_rows, _rows)
    def test_equals_cross_product_plus_filter(self, left_rows, right_rows):
        left = Relation((A, X), left_rows)
        right = Relation((B, Y), right_rows)
        expected = _bag(left.join(right).filter(make_filter_predicate(EQUALS)))
        assert _bag(left.value_join(right, A, B, equality_key)) == expected
        # Argument order does not matter.
        assert _bag(right.value_join(left, B, A, equality_key)) == expected

    @_SETTINGS
    @given(_rows, _rows)
    def test_same_term_equals_cross_product_plus_filter(self, left_rows, right_rows):
        left = Relation((A, X), left_rows)
        right = Relation((B, Y), right_rows)
        expected = _bag(left.join(right).filter(make_filter_predicate(SAME_TERM)))
        assert _bag(left.value_join(right, A, B)) == expected

    def test_records_join_stats_like_a_cross_product(self):
        left = Relation((A, X), [(Literal("1"), None)] * 3)
        right = Relation((B, Y), [(Literal("1.0", datatype=XSD_DECIMAL), None)] * 5)
        with kernel_runtime() as runtime:
            joined = left.value_join(right, A, B, equality_key)
        assert len(joined) == 15
        stats = runtime.last_join
        assert (stats.kind, stats.build_rows, stats.probe_rows, stats.rows_out) == (
            "value",
            3,
            5,
            15,
        )
        assert runtime.counters.rows_emitted == 15

    def test_row_limit_enforced_while_emitting(self):
        left = Relation((A, X), [(Literal("1"), None)] * 20)
        right = Relation((B, Y), [(Literal("1", datatype=XSD_INTEGER), None)] * 20)
        with kernel_runtime(max_rows=100):
            with pytest.raises(MemoryLimitError, match="aborted mid-join"):
                left.value_join(right, A, B, equality_key)

    def test_rejects_shared_variables(self):
        with pytest.raises(ValueError):
            Relation((A, X)).value_join(Relation((B, X)), A, B)


class TestMemoizedFilter:
    def test_predicate_runs_once_per_distinct_referenced_tuple(self):
        calls = []
        predicate = make_filter_predicate(EQUALS)

        def counting(solution):
            calls.append(solution)
            return predicate(solution)

        counting.variables = predicate.variables
        one, two = Literal("1"), Literal("2")
        rows = [(one, IRI(f"http://e.org/x{i}"), one, None) for i in range(50)]
        rows += [(one, None, two, IRI("http://e.org/y"))] * 50
        relation = Relation((A, X, B, Y), rows)
        kept = relation.filter(counting)
        assert len(kept) == 50
        # Only (a, b) is read: two distinct tuples, two evaluations, and
        # the solutions carry no unreferenced columns.
        assert len(calls) == 2
        assert all(set(solution) == {A, B} for solution in calls)


# ---------------------------------------------------------------- engine

STRATEGIES = ("bound-join", "partial", "auto")
STATISTICS = ("charsets", "probe")
FILTER_JOIN_QUERIES = ("C5", "B5", "B6")


@pytest.fixture(scope="module")
def largerdf_federation() -> Federation:
    return largerdf.build_federation(scale=0.5, seed=1)


def _lusail(federation, **config) -> LusailEngine:
    engine = LusailEngine(federation, config=LusailConfig(**config))
    engine.registry = MetricsRegistry()
    return engine


class TestLargeRdfFilterJoins:
    @pytest.mark.parametrize("statistics", STATISTICS)
    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("name", FILTER_JOIN_QUERIES)
    def test_matches_union_oracle(self, largerdf_federation, name, strategy, statistics):
        query = queries_largerdf.all_queries()[name]
        engine = _lusail(largerdf_federation, strategy=strategy, statistics=statistics)
        outcome = engine.execute(query)
        assert outcome.ok and outcome.complete
        assert _engine_bag(outcome) == _oracle_bag(query, largerdf_federation)
        assert engine.registry.counter_value("mediator_filter_joins_total") == 1
        assert engine.registry.counter_value("mediator_cross_products_total") == 0

    def test_row_guard_admits_b5(self, largerdf_federation):
        # The 288k-row cross product used to trip a 10k guard; the keyed
        # join never materializes it.
        query = queries_largerdf.all_queries()["B5"]
        outcome = _lusail(largerdf_federation, max_mediator_rows=10_000).execute(query)
        assert outcome.status == "ok"
        assert _engine_bag(outcome) == _oracle_bag(query, largerdf_federation)

    def test_explain_names_the_join(self, largerdf_federation):
        text = LusailEngine(largerdf_federation).explain(queries_largerdf.all_queries()["B5"])
        assert "mediator FILTER join: (?level = ?beta)" in text


EX = "http://ex.org/"


def _ex(name: str) -> IRI:
    return IRI(EX + name)


def _numeric_federation() -> Federation:
    """Two endpoints holding both sides of a numeric FILTER join.

    ``?s ex:a ?x`` / ``?s ex:z ?z`` and ``?t ex:b ?y`` live at both
    endpoints, with values spelled as plain, integer, decimal and double
    literals, so equal numbers meet across types, across endpoints and
    within one endpoint (partial evaluation's local-complete rows).
    """
    spellings = [
        lambda n: Literal(str(n)),
        lambda n: Literal(str(n), datatype=XSD_INTEGER),
        lambda n: Literal(f"{n}.0", datatype=XSD_DECIMAL),
        lambda n: Literal(f"{n}e0", datatype=XSD_DOUBLE),
    ]
    endpoints = []
    for index, name in enumerate(("EP1", "EP2")):
        endpoint = Endpoint(name)
        triples = []
        for i in range(8):
            subject = _ex(f"{name}/s{i}")
            triples.append(Triple(subject, _ex("a"), spellings[(i + index) % 4](i % 4)))
            triples.append(Triple(subject, _ex("z"), Literal(str(i), datatype=XSD_INTEGER)))
            other = _ex(f"{name}/t{i}")
            triples.append(Triple(other, _ex("b"), spellings[(i + 2 * index + 1) % 4](i % 3)))
        triples.append(Triple(_ex(f"{name}/nan"), _ex("a"), Literal("NaN", datatype=XSD_DOUBLE)))
        triples.append(Triple(_ex(f"{name}/nan"), _ex("z"), Literal("9", datatype=XSD_INTEGER)))
        triples.append(Triple(_ex(f"{name}/tnan"), _ex("b"), Literal("NaN", datatype=XSD_DOUBLE)))
        triples.append(Triple(_ex(f"{name}/bad"), _ex("b"), Literal("x", datatype=XSD_INTEGER)))
        endpoint.add_all(triples)
        endpoints.append(endpoint)
    return Federation(endpoints)


_PREFIX = f"PREFIX ex: <{EX}>\n"
EQUALS_QUERY = _PREFIX + """
SELECT ?s ?t ?x ?y WHERE {
  ?s ex:a ?x . ?s ex:z ?z .
  ?t ex:b ?y .
  FILTER (?x = ?y)
}"""
CONJUNCT_QUERY = _PREFIX + """
SELECT ?s ?t ?z WHERE {
  ?s ex:a ?x . ?s ex:z ?z .
  ?t ex:b ?y .
  FILTER (?x = ?y && ?z > 3)
}"""
SAME_TERM_QUERY = _PREFIX + """
SELECT ?s ?t WHERE {
  ?s ex:a ?x .
  ?t ex:b ?y .
  FILTER (sameTerm(?y, ?x))
}"""
PLAIN_EQUALS_QUERY = _PREFIX + """
SELECT ?s ?t WHERE {
  ?s ex:a ?x .
  ?t ex:b ?y .
  FILTER (?x = ?y)
}"""
NON_EQUALITY_QUERY = _PREFIX + """
SELECT ?s ?t WHERE {
  ?s ex:a ?x .
  ?t ex:b ?y .
  FILTER (?x < ?y)
}"""
#: Three components: two conjuncts merge them all, the third then spans
#: one component and stays a filter.
CHAIN_QUERY = _PREFIX + """
SELECT ?s ?t ?u WHERE {
  ?s ex:a ?x .
  ?t ex:b ?y .
  ?u ex:z ?w .
  FILTER (?x = ?y && ?y = ?w && ?w = ?x)
}"""
#: ?y is also bound by an OPTIONAL group, left-joined after the filter join.
OPTIONAL_QUERY = _PREFIX + """
SELECT ?s ?t ?v WHERE {
  ?s ex:a ?x .
  ?t ex:b ?y .
  OPTIONAL { ?v ex:b ?y }
  FILTER (?x = ?y)
}"""

#: id -> (query, expected filter joins, expected cross-product joins).
CASES = {
    "equals": (EQUALS_QUERY, 1, 0),
    "extra-conjunct": (CONJUNCT_QUERY, 1, 0),
    "same-term": (SAME_TERM_QUERY, 1, 0),
    "chain": (CHAIN_QUERY, 2, 0),
    "optional-var": (OPTIONAL_QUERY, 1, 0),
    "non-equality": (NON_EQUALITY_QUERY, 0, 1),
}


class TestCraftedCrossEndpointJoins:
    @pytest.fixture(scope="class")
    def federation(self) -> Federation:
        return _numeric_federation()

    @pytest.mark.parametrize("statistics", STATISTICS)
    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("case", CASES)
    def test_matches_union_oracle(self, federation, case, strategy, statistics):
        query, filter_joins, cross_products = CASES[case]
        engine = _lusail(federation, strategy=strategy, statistics=statistics)
        outcome = engine.execute(query)
        assert outcome.ok
        assert _engine_bag(outcome) == _oracle_bag(query, federation)
        registry = engine.registry
        assert registry.counter_value("mediator_filter_joins_total") == filter_joins
        assert registry.counter_value("mediator_cross_products_total") == cross_products

    def test_oracle_answers_are_not_vacuous(self, federation):
        equals = _oracle_bag(EQUALS_QUERY, federation)
        rows = list(equals.elements())
        # Cross-type numeric matches across endpoints...
        assert any(
            x != y and s.value.split("/")[-2] != t.value.split("/")[-2] for s, t, x, y in rows
        )
        # ...and the unconsumed conjunct removes some, but not all, rows.
        with_conjunct = sum(_oracle_bag(CONJUNCT_QUERY, federation).values())
        assert 0 < with_conjunct < sum(equals.values())
        for query in (SAME_TERM_QUERY, CHAIN_QUERY, OPTIONAL_QUERY):
            assert 0 < sum(_oracle_bag(query, federation).values())

    def test_span_marks_the_consumed_expression(self, federation):
        engine = _lusail(federation)
        engine.tracer = Tracer(enabled=True)
        assert engine.execute(CONJUNCT_QUERY).ok
        (root,) = engine.tracer.roots
        marked = [s for s in root.find("mediator_join") if "filter_join" in s.attrs]
        assert [s.attrs["filter_join"] for s in marked] == ["(?x = ?y)"]


class TestFilterJoinRowGuard:
    def test_oversized_filter_join_aborts_inside_the_kernel(self):
        # 150 x 150 equal values: each input fits the limit, the join's
        # own 22,500-row output does not.
        ep1, ep2 = Endpoint("EP1"), Endpoint("EP2")
        ep1.add_all(Triple(_ex(f"s{i}"), _ex("a"), Literal("1")) for i in range(150))
        ep2.add_all(
            Triple(_ex(f"t{i}"), _ex("b"), Literal("1.0", datatype=XSD_DECIMAL))
            for i in range(150)
        )
        federation = Federation([ep1, ep2])
        for strategy in STRATEGIES:
            engine = _lusail(federation, strategy=strategy, max_mediator_rows=10_000)
            outcome = engine.execute(PLAIN_EQUALS_QUERY)
            assert outcome.status == "oom", strategy
            assert "aborted mid-join" in outcome.error, strategy
