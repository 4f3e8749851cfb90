"""Unit tests for SPARQL evaluation over the triple store."""

import pytest

from repro.rdf import IRI, Literal, RDF_TYPE, Triple, Variable, typed_literal
from repro.sparql import evaluate, evaluate_select, parse_query
from repro.store import TripleStore

EX = "PREFIX ex: <http://ex.org/>\n"


def ex(name: str) -> IRI:
    return IRI(f"http://ex.org/{name}")


@pytest.fixture
def store() -> TripleStore:
    s = TripleStore()
    s.add_all(
        [
            Triple(ex("alice"), RDF_TYPE, ex("Person")),
            Triple(ex("alice"), ex("name"), Literal("Alice")),
            Triple(ex("alice"), ex("age"), typed_literal(30)),
            Triple(ex("alice"), ex("knows"), ex("bob")),
            Triple(ex("bob"), RDF_TYPE, ex("Person")),
            Triple(ex("bob"), ex("name"), Literal("Bob")),
            Triple(ex("bob"), ex("age"), typed_literal(25)),
            Triple(ex("carol"), RDF_TYPE, ex("Person")),
            Triple(ex("carol"), ex("name"), Literal("Carol")),
            Triple(ex("carol"), ex("knows"), ex("alice")),
            Triple(ex("dave"), ex("name"), Literal("Dave")),  # untyped
        ]
    )
    return s


def rows(store, text):
    return evaluate_select(store, parse_query(EX + text)).rows


def names(store, text):
    return sorted(r[0].value for r in rows(store, text))


class TestBGP:
    def test_single_pattern(self, store):
        assert len(rows(store, "SELECT ?s WHERE { ?s a ex:Person }")) == 3

    def test_join_two_patterns(self, store):
        result = rows(store, "SELECT ?n WHERE { ?s ex:knows ?o . ?o ex:name ?n }")
        assert sorted(r[0].value for r in result) == ["Alice", "Bob"]

    def test_empty_result(self, store):
        assert rows(store, "SELECT ?s WHERE { ?s ex:nothing ?o }") == []

    def test_projection_keeps_duplicates(self, store):
        result = rows(store, "SELECT ?t WHERE { ?s a ?t }")
        assert len(result) == 3  # bag semantics

    def test_repeated_variable_in_pattern(self, store):
        store.add(Triple(ex("loop"), ex("knows"), ex("loop")))
        result = rows(store, "SELECT ?s WHERE { ?s ex:knows ?s }")
        assert [r[0] for r in result] == [ex("loop")]

    def test_concrete_subject(self, store):
        result = rows(store, "SELECT ?n WHERE { ex:alice ex:name ?n }")
        assert result == [(Literal("Alice"),)]

    def test_variable_predicate(self, store):
        result = rows(store, "SELECT ?p WHERE { ex:dave ?p ?o }")
        assert result == [(ex("name"),)]


class TestFilters:
    def test_numeric_comparison(self, store):
        assert names(store, "SELECT ?n WHERE { ?s ex:age ?a . ?s ex:name ?n FILTER (?a > 26) }") == ["Alice"]

    def test_equality_on_literals(self, store):
        assert len(rows(store, 'SELECT ?s WHERE { ?s ex:name ?n FILTER (?n = "Bob") }')) == 1

    def test_inequality(self, store):
        assert len(rows(store, 'SELECT ?s WHERE { ?s ex:name ?n FILTER (?n != "Bob") }')) == 3

    def test_boolean_and_or(self, store):
        text = 'SELECT ?n WHERE { ?s ex:age ?a . ?s ex:name ?n FILTER (?a >= 25 && ?a <= 27 || ?n = "Alice") }'
        assert names(store, text) == ["Alice", "Bob"]

    def test_negation(self, store):
        assert names(store, 'SELECT ?n WHERE { ?s ex:name ?n FILTER (!(?n = "Dave")) }') == [
            "Alice", "Bob", "Carol",
        ]

    def test_regex(self, store):
        assert names(store, 'SELECT ?n WHERE { ?s ex:name ?n FILTER REGEX(?n, "^[AB]") }') == [
            "Alice", "Bob",
        ]

    def test_regex_case_insensitive(self, store):
        assert names(store, 'SELECT ?n WHERE { ?s ex:name ?n FILTER REGEX(?n, "alice", "i") }') == ["Alice"]

    def test_contains_strstarts(self, store):
        assert names(store, 'SELECT ?n WHERE { ?s ex:name ?n FILTER CONTAINS(?n, "aro") }') == ["Carol"]
        assert names(store, 'SELECT ?n WHERE { ?s ex:name ?n FILTER STRSTARTS(?n, "Da") }') == ["Dave"]

    def test_bound_over_optional(self, store):
        text = "SELECT ?s WHERE { ?s a ex:Person OPTIONAL { ?s ex:knows ?o } FILTER BOUND(?o) }"
        assert len(rows(store, text)) == 2

    def test_isiri_isliteral(self, store):
        assert len(rows(store, "SELECT ?o WHERE { ex:alice ?p ?o FILTER ISIRI(?o) }")) == 2
        assert len(rows(store, "SELECT ?o WHERE { ex:alice ?p ?o FILTER ISLITERAL(?o) }")) == 2

    def test_str_and_ucase(self, store):
        assert names(store, 'SELECT ?n WHERE { ?s ex:name ?n FILTER (UCASE(?n) = "BOB") }') == ["Bob"]

    def test_arithmetic(self, store):
        assert names(store, "SELECT ?n WHERE { ?s ex:age ?a . ?s ex:name ?n FILTER (?a * 2 = 50) }") == ["Bob"]

    def test_error_in_filter_drops_row(self, store):
        # Comparing a name (non-numeric) with < keeps only rows where the
        # comparison is defined; names are strings so string order applies,
        # but comparing an IRI with a number is an error -> dropped.
        text = "SELECT ?s WHERE { ?s ex:knows ?o FILTER (?o > 5) }"
        assert rows(store, text) == []

    def test_exists(self, store):
        text = "SELECT ?s WHERE { ?s a ex:Person FILTER EXISTS { ?s ex:knows ?o } }"
        assert len(rows(store, text)) == 2

    def test_not_exists(self, store):
        text = "SELECT ?s WHERE { ?s a ex:Person FILTER NOT EXISTS { ?s ex:knows ?o } }"
        assert [r[0] for r in rows(store, text)] == [ex("bob")]

    def test_not_exists_with_subselect(self, store):
        """The paper's Fig 6 check-query shape."""
        text = (
            "SELECT ?s WHERE { ?s a ex:Person . "
            "FILTER NOT EXISTS { SELECT ?s WHERE { ?s ex:knows ?x } } }"
        )
        assert [r[0] for r in rows(store, text)] == [ex("bob")]


class TestOptional:
    def test_left_join_keeps_unmatched(self, store):
        text = "SELECT ?s ?o WHERE { ?s a ex:Person OPTIONAL { ?s ex:knows ?o } }"
        result = rows(store, text)
        assert len(result) == 3
        unmatched = [r for r in result if r[1] is None]
        assert len(unmatched) == 1

    def test_optional_filter_inside(self, store):
        text = (
            "SELECT ?s ?o WHERE { ?s a ex:Person "
            "OPTIONAL { ?s ex:knows ?o FILTER (?o = ex:bob) } }"
        )
        result = rows(store, text)
        matched = [r for r in result if r[1] is not None]
        assert matched == [(ex("alice"), ex("bob"))]


class TestUnionValuesSubselect:
    def test_union(self, store):
        text = "SELECT ?x WHERE { { ?x ex:knows ex:bob } UNION { ?x ex:knows ex:alice } }"
        assert sorted(r[0].value for r in rows(store, text)) == [
            "http://ex.org/alice", "http://ex.org/carol",
        ]

    def test_values_restricts(self, store):
        text = "SELECT ?n WHERE { VALUES (?s) { (ex:alice) (ex:bob) } ?s ex:name ?n }"
        assert names(store, text) == ["Alice", "Bob"]

    def test_values_undef_matches_all(self, store):
        text = "SELECT ?s WHERE { VALUES (?s) { (UNDEF) } ?s a ex:Person }"
        assert len(rows(store, text)) == 3

    def test_subselect_join(self, store):
        text = (
            "SELECT ?n WHERE { ?s ex:name ?n . "
            "{ SELECT ?s WHERE { ?s ex:knows ?o } } }"
        )
        assert names(store, text) == ["Alice", "Carol"]


class TestModifiers:
    def test_distinct(self, store):
        plain = rows(store, "SELECT ?t WHERE { ?s a ?t }")
        distinct = rows(store, "SELECT DISTINCT ?t WHERE { ?s a ?t }")
        assert len(plain) == 3 and len(distinct) == 1

    def test_order_by_asc(self, store):
        result = rows(store, "SELECT ?a WHERE { ?s ex:age ?a } ORDER BY ?a")
        assert [r[0].numeric_value() for r in result] == [25, 30]

    def test_order_by_desc(self, store):
        result = rows(store, "SELECT ?a WHERE { ?s ex:age ?a } ORDER BY DESC(?a)")
        assert [r[0].numeric_value() for r in result] == [30, 25]

    def test_order_by_non_projected_variable(self, store):
        # SPARQL sorts whole solutions before projecting ?a away.
        asc = rows(store, "SELECT ?s WHERE { ?s ex:age ?a } ORDER BY ?a")
        desc = rows(store, "SELECT ?s WHERE { ?s ex:age ?a } ORDER BY DESC(?a)")
        assert asc == [(ex("bob"),), (ex("alice"),)]
        assert desc == [(ex("alice"),), (ex("bob"),)]

    def test_distinct_keeps_order_by_order(self, store):
        result = rows(
            store,
            "SELECT DISTINCT ?s WHERE { ?s ex:name ?n . ?s ?p ?o } ORDER BY DESC(?n) LIMIT 3",
        )
        assert result == [(ex("dave"),), (ex("carol"),), (ex("bob"),)]

    def test_limit_offset(self, store):
        result = rows(store, "SELECT ?n WHERE { ?s ex:name ?n } ORDER BY ?n LIMIT 2 OFFSET 1")
        assert [r[0].value for r in result] == ["Bob", "Carol"]

    def test_count_star(self, store):
        result = rows(store, "SELECT (COUNT(*) AS ?c) WHERE { ?s a ex:Person }")
        assert result[0][0].numeric_value() == 3

    def test_count_distinct(self, store):
        result = rows(store, "SELECT (COUNT(DISTINCT ?t) AS ?c) WHERE { ?s a ?t }")
        assert result[0][0].numeric_value() == 1


class TestAsk:
    def test_ask_true_false(self, store):
        assert evaluate(store, parse_query(EX + "ASK { ?s a ex:Person }")) is True
        assert evaluate(store, parse_query(EX + "ASK { ?s a ex:Robot }")) is False

    def test_ask_with_join(self, store):
        assert evaluate(store, parse_query(EX + "ASK { ?s ex:knows ?o . ?o ex:knows ?s }")) is False
