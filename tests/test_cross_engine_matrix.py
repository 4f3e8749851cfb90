"""The full correctness matrix: every engine x every benchmark workload.

Each cell asserts exact (bag-semantics) agreement with the centralized
union-graph oracle.  This is the broadest single guarantee in the suite:
all five engines implement the same query semantics over all four
benchmark families.
"""

from collections import Counter

import pytest

from repro.baselines import AnapsidEngine, FedXEngine, HibiscusEngine, SplendidEngine
from repro.core.engine import LusailEngine
from repro.datasets import bio2rdf, lubm, qfed, queries_largerdf, queries_lubm
from repro.sparql import evaluate_select, parse_query
from repro.sparql.ast import FunctionCall, SelectQuery, VarExpr

ENGINES = {
    "Lusail": LusailEngine,
    "FedX": FedXEngine,
    "HiBISCuS": HibiscusEngine,
    "SPLENDID": SplendidEngine,
    "ANAPSID": AnapsidEngine,
}


@pytest.fixture(scope="module")
def workloads(lubm2, qfed_federation, largerdf_federation):
    bio_federation = bio2rdf.build_federation(seed=7)
    lubm_texts = dict(queries_lubm.queries())
    lubm_texts.update(lubm.queries())
    # ORDER BY over an expression key, cut by LIMIT: the top five
    # emails are distinct, so only a correct sort returns the oracle's rows.
    lubm_texts["OrderByExpression"] = """
        PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>
        SELECT ?s ?e WHERE { ?s ub:name ?n . ?s ub:emailAddress ?e }
        ORDER BY DESC(STR(?e)) LIMIT 5
    """
    # ORDER BY a variable the projection drops, cut by LIMIT: SPARQL
    # sorts before projecting, so the key must still see ?e — as a bare
    # variable and inside an expression.
    lubm_texts["OrderByHiddenKey"] = """
        PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>
        SELECT ?s WHERE { ?s ub:emailAddress ?e } ORDER BY DESC(?e) LIMIT 3
    """
    lubm_texts["OrderByHiddenExpression"] = """
        PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>
        SELECT ?s WHERE { ?s ub:emailAddress ?e } ORDER BY ASC(STR(?e)) LIMIT 3
    """
    return {
        "lubm": (lubm2, lubm_texts),
        "qfed": (qfed_federation, {**qfed.queries(), "Drug": qfed.drug_query()}),
        "largerdf": (largerdf_federation, queries_largerdf.paper_selection()),
        "bio2rdf": (bio_federation, bio2rdf.queries()),
    }


def _key_variable(expression):
    """``(variable, lexical)`` of a ``?v`` or ``STR(?v)`` ORDER BY key, or None."""
    if isinstance(expression, VarExpr):
        return expression.variable, False
    if (
        isinstance(expression, FunctionCall)
        and expression.name == "STR"
        and isinstance(expression.args[0], VarExpr)
    ):
        return expression.args[0].variable, True
    return None


def _sorted_before_projection(union, query) -> Counter:
    """Expected rows of an ORDER BY ``?v`` / ``STR(?v)`` query, built
    independently of the engines' modifier tails: evaluate every
    solution (``SELECT *``), sort the whole solutions key by key, then
    project, deduplicate and slice.  Asserts no tie at the LIMIT cut,
    so the expected rows are unique."""
    everything = evaluate_select(union, SelectQuery(where=query.where))
    solutions = [dict(zip(everything.vars, row)) for row in everything.rows]

    def sort_key(solution, key):
        variable, lexical = key
        value = solution.get(variable)
        if value is None:
            return (0,)
        return (1, value.value) if lexical else (1, value.sort_key())

    keys = [_key_variable(condition.expression) for condition in query.order_by]
    for condition, key in reversed(list(zip(query.order_by, keys))):
        solutions.sort(
            key=lambda solution: sort_key(solution, key),
            reverse=not condition.ascending,
        )
    projected = query.projected_variables()
    rows = [tuple(solution.get(v) for v in projected) for solution in solutions]
    if query.distinct:
        rows = list(dict.fromkeys(rows))
    end = None if query.limit is None else query.offset + query.limit
    if end is not None and end < len(rows):
        assert not query.distinct, "tie check needs the pre-DISTINCT positions"
        last, first_cut = solutions[end - 1], solutions[end]
        assert [sort_key(last, v) for v in keys] != [
            sort_key(first_cut, v) for v in keys
        ], "tie at the LIMIT cut: expected rows are not unique"
    return Counter(rows[query.offset:end])


@pytest.fixture(scope="module")
def oracles(workloads):
    cache: dict[tuple[str, str], tuple[Counter, Counter | None, int]] = {}
    for family, (federation, texts) in workloads.items():
        union = federation.union_store()
        for name, text in texts.items():
            query = parse_query(text)
            if query.order_by and all(
                _key_variable(condition.expression) for condition in query.order_by
            ):
                cache[(family, name)] = (_sorted_before_projection(union, query), None, 0)
                continue
            exact = Counter(evaluate_select(union, query).rows)
            if query.limit is not None and not query.order_by:
                # LIMIT without ORDER BY: any `limit` valid rows are a
                # correct answer; keep the unlimited row set for the
                # subset check.
                unlimited = SelectQuery(
                    where=query.where,
                    select_vars=query.select_vars,
                    distinct=query.distinct,
                    aggregate=query.aggregate,
                    order_by=query.order_by,
                    limit=None,
                    offset=0,
                )
                full = Counter(evaluate_select(union, unlimited).rows)
                cache[(family, name)] = (exact, full, query.limit)
            else:
                cache[(family, name)] = (exact, None, 0)
    return cache


@pytest.mark.parametrize("engine_name", sorted(ENGINES))
@pytest.mark.parametrize("family", ["lubm", "qfed", "largerdf", "bio2rdf"])
def test_engine_matches_oracle_on_family(engine_name, family, workloads, oracles):
    federation, texts = workloads[family]
    engine = ENGINES[engine_name](federation)
    mismatches = []
    for name, text in texts.items():
        outcome = engine.execute(text)
        if not outcome.ok:
            mismatches.append(f"{name}: {outcome.status} ({outcome.error})")
            continue
        exact, full, limit = oracles[(family, name)]
        got = Counter(outcome.result.rows)
        if full is not None:
            # LIMIT without ORDER BY: correct iff `limit` rows (or all,
            # if fewer exist), each drawn from the unlimited answer.
            expected_count = min(limit, sum(full.values()))
            ok = sum(got.values()) == expected_count and all(
                full.get(row, 0) >= count for row, count in got.items()
            )
        else:
            ok = got == exact
        if not ok:
            mismatches.append(
                f"{name}: {len(outcome.result)} rows vs oracle {sum(exact.values())}"
            )
    assert not mismatches, f"{engine_name} on {family}: {mismatches}"
