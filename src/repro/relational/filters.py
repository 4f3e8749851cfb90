"""Evaluate FILTER expressions at the mediator.

Multi-variable filters whose variables span different subqueries cannot
be pushed to any endpoint; the paper applies them "during the join
evaluation phase".  This module reuses the endpoint evaluator's expression
machinery against an empty store (EXISTS-free expressions never touch
the store).

It also recognises the residue conjuncts the scheduler can evaluate *as*
a join instead of after one: ``?a = ?b`` and ``sameTerm(?a, ?b)``.  For
those, :func:`equality_key` gives every term a canonical key such that
two terms compare equal under the evaluator's ``=`` exactly when their
keys are equal — so a hash join on the keys returns precisely the rows
the filter would keep out of the cross product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Hashable

from repro.exceptions import EvaluationError
from repro.rdf.terms import Literal, Term, Variable, effective_boolean_value
from repro.sparql.ast import BooleanOp, Comparison, ExistsExpr, Expression, FunctionCall, VarExpr
from repro.sparql.evaluator import _Evaluator, _ExpressionError
from repro.store.triple_store import TripleStore

_EMPTY_STORE = TripleStore(name="mediator-filter")
_EVALUATOR = _Evaluator(_EMPTY_STORE)


def _contains_exists(expression: Expression) -> bool:
    if isinstance(expression, ExistsExpr):
        return True
    for slot in getattr(expression, "__slots__", ()):
        value = getattr(expression, slot)
        if isinstance(value, Expression) and _contains_exists(value):
            return True
        if isinstance(value, tuple):
            for item in value:
                if isinstance(item, Expression) and _contains_exists(item):
                    return True
    return False


def make_filter_predicate(expression: Expression):
    """Build a solution-level predicate from a FILTER expression.

    The predicate carries the expression's ``variables`` so
    :meth:`~repro.relational.relation.Relation.filter` can evaluate it
    over just the columns it reads.  Raises :class:`EvaluationError` for
    EXISTS expressions — those depend on graph data and must be
    evaluated at the endpoints.
    """
    if _contains_exists(expression):
        raise EvaluationError("EXISTS filters cannot be evaluated at the mediator")

    def predicate(solution: dict[Variable, Term]) -> bool:
        try:
            value = _EVALUATOR.eval_expression(expression, solution)
        except _ExpressionError:
            return False
        if isinstance(value, bool):
            return value
        return effective_boolean_value(value)

    predicate.variables = frozenset(expression.variables())
    return predicate


def conjuncts(expression: Expression) -> list[Expression]:
    """The top-level ``&&`` operands of a FILTER, flattened.

    A FILTER keeps a solution exactly when every conjunct evaluates to
    true (an error anywhere rejects it either way), so the conjuncts can
    be applied one at a time — or consumed by a join — independently.
    """
    if isinstance(expression, BooleanOp) and expression.op == "&&":
        return [part for operand in expression.operands for part in conjuncts(operand)]
    return [expression]


def equality_key(term: Term) -> Hashable:
    """Canonical key of ``term`` under the evaluator's ``=``.

    ``(0, v)`` for a literal with a non-NaN numeric value ``v`` — so
    ``"1"``, ``"1"^^xsd:integer``, ``"1.0"^^xsd:decimal`` and
    ``"1e0"^^xsd:double`` meet — and ``(1, term)`` otherwise: IRIs,
    blank nodes, non-numeric literals and NaN only equal their own term.
    """
    if isinstance(term, Literal):
        value = term.numeric_value()
        if value is not None and not (isinstance(value, float) and math.isnan(value)):
            return (0, value)
    return (1, term)


@dataclass(frozen=True)
class EqualityConjunct:
    """A conjunct a join can evaluate: ``?left = ?right`` or sameTerm.

    ``key`` maps a term to its join key; ``None`` means the term itself
    (sameTerm), which for the mediator codec is the id.
    """

    expression: Expression
    left: Variable
    right: Variable
    key: Callable[[Term], Hashable] | None


def equality_conjunct(expression: Expression) -> EqualityConjunct | None:
    """Recognise ``?a = ?b`` / ``sameTerm(?a, ?b)`` over two variables."""
    if isinstance(expression, Comparison) and expression.op == "=":
        operands, key = (expression.left, expression.right), equality_key
    elif isinstance(expression, FunctionCall) and expression.name == "SAMETERM":
        operands, key = tuple(expression.args), None
    else:
        return None
    if len(operands) != 2 or not all(isinstance(op, VarExpr) for op in operands):
        return None
    left, right = operands[0].variable, operands[1].variable
    if left == right:
        return None
    return EqualityConjunct(expression, left, right, key)
