"""Endpoint results on the wire as id rows.

Endpoints ship :class:`EncodedRows` (their dictionary plus id rows); the
mediator translates each distinct id into its codec once, and the client
sizes payloads from a per-id byte memo.  These tests hold both against
the term-space paths they replace: decode-then-encode ingest and the
term-walk payload oracle (``tests/payload_oracle.py``).
"""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import FedXEngine
from repro.core.engine import LusailConfig, LusailEngine
from repro.core.execution.partial import PartialBranchScheduler
from repro.datasets import lubm
from repro.endpoint import Endpoint
from repro.endpoint.client import _payload_bytes
from repro.rdf import IRI, BNode, Literal, Namespace, Triple, Variable
from repro.relational.relation import Relation, RowStore
from repro.sparql import parse_query
from repro.sparql.evaluator import SelectResult
from repro.sparql.partial import FragmentSpec, PartialSpec
from repro.store.dictionary import EncodedRows, TermDictionary
from tests.payload_oracle import payload_bytes

EX = Namespace("http://ex.org/")
XSD_INTEGER = IRI("http://www.w3.org/2001/XMLSchema#integer")

_terms = st.one_of(
    st.integers(0, 30).map(lambda i: EX[f"r{i}"]),
    st.integers(0, 10).map(lambda i: BNode(f"b{i}")),
    st.text(max_size=6).map(Literal),
    st.integers(-5, 5).map(lambda i: Literal(str(i), datatype=XSD_INTEGER)),
    st.sampled_from(["en", "fr"]).map(lambda tag: Literal("chat", language=tag)),
)


@st.composite
def _shipped(draw):
    """A random endpoint dictionary, id rows over it (``None`` cells
    included), and a target codec that already holds some terms."""
    terms = draw(st.lists(_terms, min_size=1, max_size=25, unique=True))
    source = TermDictionary()
    for term in terms:
        source.encode(term)
    width = draw(st.integers(0, 4))
    cell = st.one_of(st.none(), st.integers(0, len(terms) - 1))
    ids = draw(st.lists(st.tuples(*[cell] * width), max_size=30))
    target = TermDictionary()
    for term in draw(st.lists(st.sampled_from(terms), max_size=10)):
        target.encode(term)
    return source, ids, width, target


@settings(max_examples=200, deadline=None)
@given(_shipped())
def test_translate_then_decode_equals_decode_then_encode(shipped):
    source, ids, width, target = shipped
    decoded = [source.decode_row(row) for row in ids]

    translated = RowStore(target, width)
    translated.extend(EncodedRows(source, ids))
    reencoded = RowStore(TermDictionary(), width)
    reencoded.extend(decoded)

    assert len(translated) == len(reencoded) == len(ids)
    assert list(translated) == list(reencoded) == decoded
    assert translated[1:-1] == decoded[1:-1]
    assert translated[::2] == decoded[::2]
    # Term rows into a codec that already knows every term re-use the
    # translated ids exactly.
    again = RowStore(target, width)
    again.extend(decoded)
    assert again.columns == translated.columns


@settings(max_examples=100, deadline=None)
@given(_shipped())
def test_tagged_ingest_matches_term_rows(shipped):
    source, ids, width, target = shipped
    origin = IRI("urn:partial-origin:EP")
    decoded = [source.decode_row(row) for row in ids]
    tagged = RowStore(target, width + 1)
    tagged.extend_tagged(EncodedRows(source, ids), origin)
    by_terms = RowStore(target, width + 1)
    by_terms.extend_tagged(decoded, origin)
    assert list(tagged) == list(by_terms) == [(*row, origin) for row in decoded]


class TestEncodedRows:
    def test_decodes_lazily_and_once(self):
        source = TermDictionary()
        a, b = source.encode(EX.a), source.encode(Literal("b"))
        rows = EncodedRows(source, [(a, None), (b, a)])
        assert len(rows) == 2 and rows._decoded is None
        first = list(rows)
        assert first == [(EX.a, None), (Literal("b"), EX.a)]
        assert rows.decoded() is rows.decoded()
        assert rows[1] == (Literal("b"), EX.a)
        assert rows == [(EX.a, None), (Literal("b"), EX.a)]
        assert (EX.a, None) in rows

    def test_zero_width_rows(self):
        rows = EncodedRows(TermDictionary(), [(), ()])
        assert list(rows) == [(), ()]

    def test_select_result_adopts_without_decoding(self):
        rows = EncodedRows(TermDictionary(), [])
        assert SelectResult((), rows).rows is rows

    def test_endpoint_ships_undecoded_rows(self):
        endpoint = Endpoint("EP", [Triple(EX[f"s{i}"], EX.p, EX[f"o{i}"]) for i in range(5)])
        query = parse_query(f"SELECT ?s ?o WHERE {{ ?s <{EX.p.value}> ?o }}")
        selected = endpoint.select(query).rows
        assert isinstance(selected, EncodedRows) and selected._decoded is None
        assert selected.dictionary is endpoint.dictionary
        result = endpoint.partial_evaluate(PartialSpec(query, (FragmentSpec(0, query),)))
        for rows in (result.complete.rows, result.fragments[0].result.rows):
            assert isinstance(rows, EncodedRows) and rows._decoded is None
            assert Counter(rows) == Counter((EX[f"s{i}"], EX[f"o{i}"]) for i in range(5))


class TestTranslationMemo:
    QUERY = parse_query(f"SELECT ?s ?o WHERE {{ ?s <{EX.p.value}> ?o }}")

    def _ingested(self, endpoint, codec=None) -> Counter:
        store = RowStore(codec, 2)
        store.extend(endpoint.select(self.QUERY).rows)
        return Counter(store)

    def test_memo_survives_dictionary_growth(self):
        endpoint = Endpoint("EP", [Triple(EX.s0, EX.p, EX.o0)])
        codec = TermDictionary()
        assert self._ingested(endpoint, codec) == Counter({(EX.s0, EX.o0): 1})
        endpoint.add(Triple(EX.s1, EX.p, Literal("new")))
        assert self._ingested(endpoint, codec) == Counter(
            {(EX.s0, EX.o0): 1, (EX.s1, Literal("new")): 1}
        )
        # Only shipped terms are interned: never the predicate.
        assert EX.p not in codec

    def test_memo_survives_remove(self):
        first, second = Triple(EX.s0, EX.p, EX.o0), Triple(EX.s1, EX.p, EX.o1)
        endpoint = Endpoint("EP", [first, second])
        codec = TermDictionary()
        self._ingested(endpoint, codec)
        endpoint.remove(first)
        assert self._ingested(endpoint, codec) == Counter({(EX.s1, EX.o1): 1})
        endpoint.add(Triple(EX.s2, EX.p, EX.o0))
        assert self._ingested(endpoint, codec) == Counter(
            {(EX.s1, EX.o1): 1, (EX.s2, EX.o0): 1}
        )

    def test_two_target_codecs(self):
        endpoint = Endpoint("EP", [Triple(EX[f"s{i}"], EX.p, EX[f"o{i}"]) for i in range(4)])
        want = Counter((EX[f"s{i}"], EX[f"o{i}"]) for i in range(4))
        seeded = TermDictionary()
        for i in reversed(range(4)):
            seeded.encode(EX[f"o{i}"])
        for codec in (TermDictionary(), seeded, TermDictionary()):
            assert self._ingested(endpoint, codec) == want
        # And the process-wide mediator codec alongside them.
        assert self._ingested(endpoint) == want


class TestPayloadBytes:
    TERMS = [
        EX.a,
        BNode("node7"),
        Literal("chat", language="fr"),
        Literal("42", datatype=XSD_INTEGER),
        Literal("plain text"),
        Literal(""),
    ]

    def test_memo_bytes_equal_term_walk_oracle(self):
        source = TermDictionary()
        ids = [source.encode(term) for term in self.TERMS]
        rows = [(i, None, ids[-1 - k]) for k, i in enumerate(ids)] + [(None, None, None)]
        vars = (Variable("x"), Variable("y"), Variable("z"))
        encoded = SelectResult(vars, EncodedRows(source, rows))
        decoded = SelectResult(vars, [source.decode_row(row) for row in rows])
        want = payload_bytes(decoded)
        assert want > 0
        assert _payload_bytes(encoded) == want
        assert _payload_bytes(decoded) == want
        # Warm memo, grown dictionary: still exact.
        ids.append(source.encode(Literal("later")))
        rows.append((ids[-1], ids[0], None))
        encoded = SelectResult(vars, EncodedRows(source, rows))
        decoded = SelectResult(vars, [source.decode_row(row) for row in rows])
        assert _payload_bytes(encoded) == payload_bytes(decoded)


_LUBM_QUERIES = {**lubm.queries(), **lubm.crossing_queries()}

_ENGINES = {
    "bound-join": lambda federation: LusailEngine(
        federation, config=LusailConfig(strategy="bound-join")
    ),
    "partial": lambda federation: LusailEngine(
        federation, config=LusailConfig(strategy="partial")
    ),
    "FedX": FedXEngine,
}


def _requests(engine_name: str, query_text: str):
    engine = _ENGINES[engine_name](lubm.build_federation(2, seed=7))
    outcome = engine.execute(query_text)
    assert outcome.ok, outcome.error
    records = [
        (r.kind, r.endpoint, r.rows, r.request_bytes, r.response_bytes, r.start_ms, r.end_ms)
        for r in outcome.metrics.records
    ]
    return records, outcome.metrics.virtual_ms, Counter(outcome.result.rows)


@pytest.mark.parametrize("engine_name", sorted(_ENGINES))
@pytest.mark.parametrize("name", sorted(_LUBM_QUERIES))
def test_lubm_response_bytes_match_term_walk(name, engine_name, monkeypatch):
    got = _requests(engine_name, _LUBM_QUERIES[name])
    monkeypatch.setattr("repro.endpoint.client._payload_bytes", payload_bytes)
    want = _requests(engine_name, _LUBM_QUERIES[name])
    assert got == want
    assert any(record[4] > 0 for record in got[0])


def test_drop_same_origin_keeps_mixed_rows_with_multiplicity():
    origins = [Variable(f"__src{i}") for i in range(3)]
    x = Variable("x")
    a, b = IRI("urn:partial-origin:A"), IRI("urn:partial-origin:B")
    rows = [
        (EX.v, a, a, a),
        (EX.v, a, b, a),
        (EX.v, a, b, a),
        (EX.w, b, b, b),
        (EX.w, b, b, a),
        (EX.w, a, a, b),
    ]
    relation = Relation((x, *origins), rows)
    kept = PartialBranchScheduler._drop_same_origin(None, relation, origins)
    assert list(kept) == [row for row in rows if len(set(row[1:])) > 1]
    pair = PartialBranchScheduler._drop_same_origin(None, relation, origins[:2])
    assert list(pair) == [row for row in rows if row[1] != row[2]]
