"""Property tests for the SPARQL evaluator against a brute-force oracle.

The oracle evaluates a BGP by enumerating every combination of matching
triples (cartesian product with consistency checks) — hopelessly slow
but obviously correct.  The engine's index-driven evaluation must agree,
including duplicate multiplicities.
"""

from collections import Counter
from itertools import product

from hypothesis import given, settings, strategies as st

from repro.rdf import IRI, Triple, TriplePattern, Variable
from repro.sparql.ast import BGP, GroupPattern, SelectQuery
from repro.sparql.evaluator import evaluate_select
from repro.store import TripleStore

_IRIS = [IRI(f"http://p.org/n{i}") for i in range(6)]
_PREDICATES = [IRI(f"http://p.org/p{i}") for i in range(3)]
_VARIABLES = [Variable(n) for n in ("a", "b", "c")]

_triples = st.builds(
    Triple,
    st.sampled_from(_IRIS),
    st.sampled_from(_PREDICATES),
    st.sampled_from(_IRIS),
)

_positions = st.one_of(st.sampled_from(_IRIS), st.sampled_from(_VARIABLES))
_pred_positions = st.one_of(st.sampled_from(_PREDICATES), st.sampled_from(_VARIABLES))
_patterns = st.builds(TriplePattern, _positions, _pred_positions, _positions)


def _oracle_bgp(store: TripleStore, patterns: list[TriplePattern]):
    """All solutions by brute-force enumeration."""
    triples = list(store)
    solutions = []
    for combo in product(triples, repeat=len(patterns)):
        bindings: dict[Variable, object] = {}
        consistent = True
        for pattern, triple in zip(patterns, combo):
            for position, value in zip(pattern.positions(), triple):
                if isinstance(position, Variable):
                    seen = bindings.get(position)
                    if seen is None:
                        bindings[position] = value
                    elif seen != value:
                        consistent = False
                        break
                elif position != value:
                    consistent = False
                    break
            if not consistent:
                break
        if consistent:
            solutions.append(dict(bindings))
    return solutions


@given(
    st.lists(_triples, max_size=15),
    st.lists(_patterns, min_size=1, max_size=3),
)
@settings(max_examples=60, deadline=None)
def test_bgp_matches_brute_force(triples, patterns):
    store = TripleStore()
    store.add_all(triples)
    variables = sorted(
        {v for p in patterns for v in p.variables()}, key=lambda v: v.name
    )
    query = SelectQuery(
        where=GroupPattern([BGP(patterns)]), select_vars=tuple(variables) or None
    )
    engine_rows = evaluate_select(store, query).rows
    oracle_rows = [
        tuple(solution.get(v) for v in variables)
        for solution in _oracle_bgp(store, patterns)
    ]
    assert Counter(engine_rows) == Counter(oracle_rows)


@given(
    st.lists(_triples, max_size=15),
    st.lists(_patterns, min_size=1, max_size=2),
)
@settings(max_examples=40, deadline=None)
def test_distinct_is_set_of_bag(triples, patterns):
    store = TripleStore()
    store.add_all(triples)
    variables = sorted(
        {v for p in patterns for v in p.variables()}, key=lambda v: v.name
    )
    plain = SelectQuery(where=GroupPattern([BGP(patterns)]), select_vars=tuple(variables) or None)
    distinct = SelectQuery(
        where=GroupPattern([BGP(patterns)]),
        select_vars=tuple(variables) or None,
        distinct=True,
    )
    plain_rows = evaluate_select(store, plain).rows
    distinct_rows = evaluate_select(store, distinct).rows
    assert set(distinct_rows) == set(plain_rows)
    assert len(distinct_rows) == len(set(plain_rows))


@given(st.lists(_triples, max_size=15), _patterns)
@settings(max_examples=40, deadline=None)
def test_ask_iff_select_nonempty(triples, pattern):
    from repro.sparql.ast import AskQuery
    from repro.sparql.evaluator import evaluate_ask

    store = TripleStore()
    store.add_all(triples)
    select = SelectQuery(where=GroupPattern([BGP([pattern])]), select_vars=None)
    ask = AskQuery(GroupPattern([BGP([pattern])]))
    assert evaluate_ask(store, ask) == bool(evaluate_select(store, select).rows)


@given(st.lists(_triples, max_size=12), st.lists(_patterns, min_size=2, max_size=3))
@settings(max_examples=40, deadline=None)
def test_pattern_order_irrelevant(triples, patterns):
    store = TripleStore()
    store.add_all(triples)
    variables = sorted(
        {v for p in patterns for v in p.variables()}, key=lambda v: v.name
    )
    forward = SelectQuery(
        where=GroupPattern([BGP(patterns)]), select_vars=tuple(variables) or None
    )
    backward = SelectQuery(
        where=GroupPattern([BGP(list(reversed(patterns)))]),
        select_vars=tuple(variables) or None,
    )
    assert Counter(evaluate_select(store, forward).rows) == Counter(
        evaluate_select(store, backward).rows
    )


@given(
    st.lists(_triples, max_size=15),
    st.lists(_patterns, min_size=1, max_size=3),
)
@settings(max_examples=60, deadline=None)
def test_encoded_matches_reference_path(triples, patterns):
    """The id-space engine agrees with the preserved term-space path.

    ``repro.sparql.reference`` keeps the pre-dictionary-encoding
    implementation (term-keyed indexes, per-match ``Triple`` objects);
    the production evaluator runs on integer ids end to end.  Both must
    produce the same solution multiset on arbitrary data.
    """
    from repro.sparql.reference import ReferenceStore, reference_bgp

    store = TripleStore()
    store.add_all(triples)
    reference = ReferenceStore()
    reference.add_all(triples)
    variables = sorted(
        {v for p in patterns for v in p.variables()}, key=lambda v: v.name
    )
    query = SelectQuery(
        where=GroupPattern([BGP(patterns)]), select_vars=tuple(variables) or None
    )
    engine_rows = evaluate_select(store, query).rows
    reference_rows = [
        tuple(solution.get(v) for v in variables)
        for solution in reference_bgp(reference, patterns)
    ]
    assert Counter(engine_rows) == Counter(reference_rows)


# --------------------------------------------------------------------------
# Compiled plans vs the interpretive evaluator.
#
# ``repro.sparql.plan`` compiles queries into reusable physical plans;
# the interpretive evaluator is kept as the correctness oracle.  Both
# must agree — same solution multiset, same schema — on arbitrary
# BGP / FILTER / OPTIONAL / VALUES combinations, and a cached plan
# re-bound with a fresh VALUES block must be bit-identical to compiling
# the bound query from scratch.

from repro.sparql.ast import (
    Comparison,
    Filter,
    OptionalPattern,
    TermExpr,
    ValuesPattern,
    VarExpr,
)
from repro.sparql.plan import compile_query, split_parameters

_maybe_filter = st.one_of(
    st.none(),
    st.builds(
        lambda op, var, term: Filter(Comparison(op, VarExpr(var), TermExpr(term))),
        st.sampled_from(["=", "!="]),
        st.sampled_from(_VARIABLES),
        st.sampled_from(_IRIS),
    ),
)
_maybe_optional = st.one_of(
    st.none(),
    st.builds(
        lambda pattern: OptionalPattern(GroupPattern([BGP([pattern])])),
        _patterns,
    ),
)
# Single-variable VALUES over ?a; None is SPARQL's UNDEF.
_values_rows = st.lists(
    st.tuples(st.one_of(st.none(), st.sampled_from(_IRIS))),
    min_size=1,
    max_size=3,
)
_maybe_values = st.one_of(
    st.none(),
    st.builds(
        lambda rows: ValuesPattern((Variable("a"),), tuple(rows)),
        _values_rows,
    ),
)


def _build_query(patterns, values, optional, filter_):
    elements = []
    if values is not None:
        elements.append(values)
    elements.append(BGP(patterns))
    if optional is not None:
        elements.append(optional)
    if filter_ is not None:
        elements.append(filter_)
    return SelectQuery(where=GroupPattern(elements), select_vars=None)


@given(
    st.lists(_triples, max_size=15),
    st.lists(_patterns, min_size=1, max_size=3),
    _maybe_values,
    _maybe_optional,
    _maybe_filter,
)
@settings(max_examples=80, deadline=None)
def test_compiled_matches_interpretive(triples, patterns, values, optional, filter_):
    store = TripleStore()
    store.add_all(triples)
    query = _build_query(patterns, values, optional, filter_)
    expected = evaluate_select(store, query)
    got = compile_query(store, query).execute_select()
    assert got.vars == expected.vars
    assert Counter(got.rows) == Counter(expected.rows)


@given(
    st.lists(_triples, max_size=15),
    st.lists(_patterns, min_size=1, max_size=2),
    _values_rows,
    _values_rows,
)
@settings(max_examples=60, deadline=None)
def test_cached_plan_rebinds_like_fresh_compile(triples, patterns, rows1, rows2):
    """One compiled plan serves successive bound-join blocks.

    Plans are cached by skeleton exactly as ``Endpoint._plan_for`` does:
    a fully bound block becomes a parameter of one shared plan, a block
    with UNDEF stays in the skeleton and keys its own plan.  Executing
    the cached plan must be bit-identical (schema, rows, and row order)
    to compiling the bound query from scratch, and multiset-equal to the
    interpretive oracle.
    """
    store = TripleStore()
    store.add_all(triples)
    values_var = (Variable("a"),)
    plans: dict = {}
    for rows in (rows1, rows2):
        query = SelectQuery(
            where=GroupPattern([ValuesPattern(values_var, tuple(rows)), BGP(patterns)]),
            select_vars=None,
        )
        skeleton, params = split_parameters(query)
        plan = plans.get(skeleton)
        if plan is None:
            plan = plans[skeleton] = compile_query(store, skeleton)
        rebound = plan.execute_select(params)
        fresh = compile_query(store, query).execute_select()
        assert rebound.vars == fresh.vars
        assert rebound.rows == fresh.rows
        assert Counter(rebound.rows) == Counter(evaluate_select(store, query).rows)


@given(st.lists(_triples, max_size=15), st.lists(_patterns, min_size=1, max_size=2))
@settings(max_examples=40, deadline=None)
def test_compiled_ask_matches_interpretive(triples, patterns):
    from repro.sparql.ast import AskQuery
    from repro.sparql.evaluator import evaluate_ask

    store = TripleStore()
    store.add_all(triples)
    ask = AskQuery(GroupPattern([BGP(patterns)]))
    assert compile_query(store, ask).execute_ask() == evaluate_ask(store, ask)
