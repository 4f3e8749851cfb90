"""SPARQL evaluation over a :class:`~repro.store.TripleStore`.

This module is the query processor that runs *inside* each simulated
endpoint, playing the role Jena Fuseki / Virtuoso played in the paper's
testbed.  It implements the SPARQL subset defined in
:mod:`repro.sparql.ast` with standard semantics:

* basic graph patterns via index nested-loop joins with greedy
  selectivity-based pattern ordering;
* FILTER applied at the end of its enclosing group, with EXISTS /
  NOT EXISTS evaluated by substitution;
* OPTIONAL as a left join, UNION as multiset union, VALUES as an inline
  relation, sub-SELECT evaluated independently and joined;
* DISTINCT, ORDER BY, LIMIT/OFFSET, and COUNT aggregates.

The evaluator runs entirely in the store's **id space**: variables are
bound to dense integer ids from the store's
:class:`~repro.store.dictionary.TermDictionary`, BGP matching iterates
encoded id triples, and joins / DISTINCT / aggregates compare ints.
Terms are decoded exactly once, when the :class:`SelectResult` is built —
that is the encode/decode boundary the endpoint exposes to the
federation.  Expression evaluation (FILTER, ORDER BY) still sees real
terms: solutions are decoded on demand for it, since it inspects term
internals (numeric values, language tags) rather than identity.

Externally visible solutions are plain ``dict[Variable, Term]`` mappings;
unbound variables are simply absent.  Internally the same shape holds
ids: ``dict[Variable, int]``.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator, Mapping, Sequence

from repro.exceptions import EvaluationError
from repro.rdf.terms import (
    IRI,
    BNode,
    Literal,
    Term,
    Variable,
    XSD_BOOLEAN,
    effective_boolean_value,
    typed_literal,
)
from repro.rdf.triple import TriplePattern
from repro.sparql.ast import (
    Arithmetic,
    AskQuery,
    BGP,
    BooleanOp,
    Comparison,
    ExistsExpr,
    Expression,
    Filter,
    FunctionCall,
    GroupPattern,
    Not,
    OptionalPattern,
    PatternNode,
    Query,
    SelectQuery,
    SubSelect,
    TermExpr,
    UnionPattern,
    ValuesPattern,
    VarExpr,
)
from repro.store.triple_store import TripleStore

Solution = dict[Variable, Term]
#: Internal solution shape: variables bound to dictionary ids.
IdSolution = dict[Variable, int]


class SelectResult:
    """Materialized SELECT result: a variable schema plus rows of terms.

    Rows are tuples aligned with ``vars``; ``None`` marks an unbound
    variable (e.g. from OPTIONAL).
    """

    __slots__ = ("vars", "rows", "sort_order")

    def __init__(
        self,
        vars: Sequence[Variable],
        rows: Sequence[tuple[Term | None, ...]],
        sort_order: Sequence[Variable] = (),
    ):
        self.vars = tuple(vars)
        self.rows = list(rows)
        #: Leading variables the rows are (non-strictly) sorted by, in the
        #: *producing store's id order* — metadata from compiled plans over
        #: the sorted backend, ``()`` when no ordering is promised.  Term
        #: rows re-encoded elsewhere (the mediator codec) keep only the
        #: grouping implied by this, not numeric order.
        self.sort_order = tuple(sort_order)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[tuple[Term | None, ...]]:
        return iter(self.rows)

    def __eq__(self, other):
        return (
            isinstance(other, SelectResult)
            and self.vars == other.vars
            and sorted(self.rows, key=_row_key) == sorted(other.rows, key=_row_key)
        )

    def __repr__(self):
        return f"SelectResult(vars={[v.name for v in self.vars]}, rows={len(self.rows)})"

    def bindings(self) -> Iterator[Solution]:
        """Iterate rows as variable->term dicts (unbound vars omitted)."""
        for row in self.rows:
            yield {var: value for var, value in zip(self.vars, row) if value is not None}

    def column(self, variable: Variable) -> list[Term | None]:
        index = self.vars.index(variable)
        return [row[index] for row in self.rows]

    def as_set(self) -> set[tuple[Term | None, ...]]:
        return set(self.rows)


def _row_key(row: tuple[Term | None, ...]) -> tuple:
    return tuple((0,) if value is None else value.sort_key() for value in row)


# --------------------------------------------------------------------------
# Pattern ordering (shared with the plan compiler)


def pick_next_pattern(
    store: TripleStore, patterns: Sequence[TriplePattern], bound: set[Variable]
) -> int:
    """Greedy ordering: prefer patterns connected to bound variables,
    then lower estimated cardinality, then fewer variables.

    Shared by the interpretive evaluator (which re-runs it per request)
    and the plan compiler in :mod:`repro.sparql.plan` (which runs it once
    at compile time) — both must order identically.
    """
    best_index = 0
    best_key: tuple | None = None
    for index, pattern in enumerate(patterns):
        connected = bool(pattern.variables() & bound) or not bound
        estimate = estimate_pattern(store, pattern, bound)
        key = (0 if connected else 1, estimate, pattern.selectivity_class())
        if best_key is None or key < best_key:
            best_key = key
            best_index = index
    return best_index


def estimate_pattern(
    store: TripleStore, pattern: TriplePattern, bound: set[Variable]
) -> int:
    """Cardinality estimate treating bound variables as constants."""
    s = pattern.subject if not isinstance(pattern.subject, Variable) else None
    p = pattern.predicate if not isinstance(pattern.predicate, Variable) else None
    o = pattern.object if not isinstance(pattern.object, Variable) else None
    if isinstance(pattern.subject, Variable) and pattern.subject in bound:
        # A bound join variable will be a constant at match time; assume
        # it is as selective as a concrete subject.
        return 1 + (store.predicate_count(p) if p is not None else 0) // max(
            1, store.distinct_subjects(p) if p is not None else 1
        )
    if s is None and o is None:
        if p is None:
            return len(store)
        return store.predicate_count(p)
    return store.count(s, p, o)


# --------------------------------------------------------------------------
# Expression evaluation


class _ExpressionError(Exception):
    """Internal: an expression evaluated to a SPARQL 'error' value."""


def _numeric(term: Term | None) -> float | int:
    if isinstance(term, Literal):
        value = term.numeric_value()
        if value is not None:
            return value
    raise _ExpressionError


def _compare(op: str, left: Term | None, right: Term | None) -> bool:
    if left is None or right is None:
        raise _ExpressionError
    if op == "=":
        return _term_equal(left, right)
    if op == "!=":
        return not _term_equal(left, right)
    # Ordering comparisons: numeric if both numeric, else string on literals.
    if isinstance(left, Literal) and isinstance(right, Literal):
        left_num, right_num = left.numeric_value(), right.numeric_value()
        if left_num is not None and right_num is not None:
            pair = (left_num, right_num)
        else:
            pair = (left.value, right.value)
    elif isinstance(left, IRI) and isinstance(right, IRI):
        pair = (left.value, right.value)
    else:
        raise _ExpressionError
    if op == "<":
        return pair[0] < pair[1]
    if op == "<=":
        return pair[0] <= pair[1]
    if op == ">":
        return pair[0] > pair[1]
    if op == ">=":
        return pair[0] >= pair[1]
    raise EvaluationError(f"unknown comparison {op}")


def _term_equal(left: Term, right: Term) -> bool:
    if left == right:
        return True
    if isinstance(left, Literal) and isinstance(right, Literal):
        left_num, right_num = left.numeric_value(), right.numeric_value()
        if left_num is not None and right_num is not None:
            return left_num == right_num
    return False


def _string_value(term: Term | None) -> str:
    if isinstance(term, Literal):
        return term.value
    if isinstance(term, IRI):
        return term.value
    raise _ExpressionError


class _Evaluator:
    """Evaluates one query against one store, in id space."""

    def __init__(self, store: TripleStore):
        self.store = store
        self.dictionary = store.dictionary
        # Sub-SELECTs are uncorrelated with the outer bindings except
        # through the join on shared variables, so their results — and a
        # hash index per join-key — are computed once per query.  This is
        # what keeps Lusail's FILTER NOT EXISTS check queries linear
        # instead of quadratic.
        self._subselect_cache: dict[SelectQuery, list[IdSolution]] = {}
        self._subselect_indexes: dict[tuple, dict[tuple, list[IdSolution]]] = {}
        # VALUES rows are encoded once per block, not once per solution.
        self._values_cache: dict[ValuesPattern, list[tuple[int | None, ...]]] = {}

    # ----------------------------------------------------------- patterns

    def eval_group(self, group: GroupPattern, solutions: list[IdSolution]) -> list[IdSolution]:
        """Evaluate a group graph pattern given incoming id solutions."""
        filters: list[Filter] = []
        current = solutions
        for element in group.elements:
            if isinstance(element, Filter):
                filters.append(element)
            else:
                current = self._eval_element(element, current)
        for filter_node in filters:
            current = [
                s for s in current if self._filter_passes_ids(filter_node.expression, s)
            ]
        return current

    def _eval_element(self, element: PatternNode, solutions: list[IdSolution]) -> list[IdSolution]:
        if isinstance(element, BGP):
            return self._eval_bgp(list(element.triples), solutions)
        if isinstance(element, GroupPattern):
            return self.eval_group(element, solutions)
        if isinstance(element, OptionalPattern):
            return self._eval_optional(element, solutions)
        if isinstance(element, UnionPattern):
            merged: list[Solution] = []
            for branch in element.branches:
                merged.extend(self.eval_group(branch, solutions))
            return merged
        if isinstance(element, ValuesPattern):
            return self._join_values(element, solutions)
        if isinstance(element, SubSelect):
            return self._join_subselect(element, solutions)
        raise EvaluationError(f"cannot evaluate pattern node {element!r}")

    # ---------------------------------------------------------------- BGP

    def _eval_bgp(self, patterns: list[TriplePattern], solutions: list[IdSolution]) -> list[IdSolution]:
        if not patterns:
            return solutions
        # Run the whole BGP on positional id rows: variables become column
        # slots once, so the per-candidate work inside `_extend_rows` is
        # pure tuple indexing and int comparison — no per-pattern dict
        # copies.  Convert back to keyed solutions only at the boundary.
        schema: list[Variable] = []
        seen: set[Variable] = set()
        for solution in solutions:
            for var in solution:
                if var not in seen:
                    seen.add(var)
                    schema.append(var)
        rows = [tuple(solution.get(var) for var in schema) for solution in solutions]
        remaining = list(patterns)
        bound_vars = set(seen)
        while remaining:
            index = self._pick_next_pattern(remaining, bound_vars)
            pattern = remaining.pop(index)
            schema, rows = self._extend_rows(pattern, schema, rows)
            bound_vars |= pattern.variables()
            if not rows:
                return []
        return [
            {var: value for var, value in zip(schema, row) if value is not None}
            for row in rows
        ]

    def _pick_next_pattern(self, patterns: list[TriplePattern], bound: set[Variable]) -> int:
        return pick_next_pattern(self.store, patterns, bound)

    def _estimate(self, pattern: TriplePattern, bound: set[Variable]) -> int:
        return estimate_pattern(self.store, pattern, bound)

    def _extend_rows(
        self, pattern: TriplePattern, schema: list[Variable], rows: list[tuple]
    ) -> tuple[list[Variable], list[tuple]]:
        """Join one triple pattern into positional id rows over ``schema``.

        The pattern is compiled once against the schema: each position
        becomes a constant id, a slot of an already-bound variable, or a
        fresh output column.  A concrete term missing from the dictionary
        cannot occur in the data, so the pattern is dead.
        """
        lookup = self.dictionary.lookup
        slot_of = {var: index for index, var in enumerate(schema)}
        out_schema = list(schema)
        consts: list[int | None] = [None, None, None]
        slots: list[int | None] = [None, None, None]
        new_positions: list[int] = []  # triple components that bind new columns
        eq_checks: list[tuple[int, int]] = []  # repeated fresh variable in-pattern
        first_new: dict[Variable, int] = {}
        for index, position in enumerate(pattern.positions()):
            if isinstance(position, Variable):
                slot = slot_of.get(position)
                if slot is not None:
                    slots[index] = slot
                elif position in first_new:
                    eq_checks.append((first_new[position], index))
                else:
                    first_new[position] = index
                    new_positions.append(index)
                    out_schema.append(position)
            else:
                term_id = lookup(position)
                if term_id is None:
                    return out_schema, []
                consts[index] = term_id
        s_const, p_const, o_const = consts
        s_slot, p_slot, o_slot = slots
        # Memoize index lookups on the lookup key: many rows share the
        # same join-variable values (e.g. a VALUES block binding one
        # variable to few distinct terms).
        match_ids = self.store.match_ids
        match_cache: dict[tuple, list[tuple]] = {}
        extended: list[tuple] = []
        for row in rows:
            s = s_const if s_slot is None else row[s_slot]
            p = p_const if p_slot is None else row[p_slot]
            o = o_const if o_slot is None else row[o_slot]
            key = (s, p, o)
            matches = match_cache.get(key)
            if matches is None:
                matches = list(match_ids(s, p, o))
                if eq_checks:
                    matches = [
                        m for m in matches if all(m[i] == m[j] for i, j in eq_checks)
                    ]
                match_cache[key] = matches
            # A bound slot holding None means this row leaves that
            # variable unbound (e.g. VALUES UNDEF): the match must be
            # written back into the slot, not just appended.
            pending = [
                (index, slot)
                for index, slot in ((0, s_slot), (1, p_slot), (2, o_slot))
                if slot is not None and row[slot] is None
            ]
            if not pending:
                # Bound slots were substituted into the index lookup, so
                # every match is consistent with them by construction.
                for match in matches:
                    extended.append(row + tuple(match[i] for i in new_positions))
            else:
                for match in matches:
                    patched = list(row)
                    consistent = True
                    for index, slot in pending:
                        value = match[index]
                        existing = patched[slot]
                        if existing is None:
                            patched[slot] = value
                        elif existing != value:
                            consistent = False
                            break
                    if consistent:
                        extended.append(
                            tuple(patched) + tuple(match[i] for i in new_positions)
                        )
        return out_schema, extended

    # ----------------------------------------------------------- OPTIONAL

    def _eval_optional(
        self, element: OptionalPattern, solutions: list[IdSolution]
    ) -> list[IdSolution]:
        result: list[IdSolution] = []
        for solution in solutions:
            matches = self.eval_group(element.pattern, [dict(solution)])
            if matches:
                result.extend(matches)
            else:
                result.append(solution)
        return result

    # ------------------------------------------------------------- VALUES

    def _join_values(self, element: ValuesPattern, solutions: list[IdSolution]) -> list[IdSolution]:
        rows = self._values_cache.get(element)
        if rows is None:
            # VALUES terms come from the query text, not the data, so they
            # are interned: a fresh id still never equals any data id, and
            # the row can be projected out even when it joins nothing.
            encode = self.dictionary.encode
            rows = [
                tuple(None if value is None else encode(value) for value in row)
                for row in element.rows
            ]
            self._values_cache[element] = rows
        joined: list[IdSolution] = []
        for solution in solutions:
            for row in rows:
                candidate = dict(solution)
                compatible = True
                for variable, value in zip(element.vars, row):
                    if value is None:
                        continue  # UNDEF matches anything
                    existing = candidate.get(variable)
                    if existing is None:
                        candidate[variable] = value
                    elif existing != value:
                        compatible = False
                        break
                if compatible:
                    joined.append(candidate)
        return joined

    # ---------------------------------------------------------- SubSelect

    def _join_subselect(self, element: SubSelect, solutions: list[IdSolution]) -> list[IdSolution]:
        inner_solutions = self._subselect_cache.get(element.query)
        if inner_solutions is None:
            vars, id_rows = self._select_id_result(element.query)
            inner_solutions = [
                {
                    variable: value
                    for variable, value in zip(vars, row)
                    if value is not None
                }
                for row in id_rows
            ]
            self._subselect_cache[element.query] = inner_solutions
        if not solutions:
            return []

        inner_vars = set(element.query.projected_variables())
        # Join keys: projected inner variables the outer solutions bind.
        key_vars = tuple(
            sorted(
                {v for solution in solutions for v in solution} & inner_vars,
                key=lambda v: v.name,
            )
        )
        if not key_vars:
            joined = []
            for solution in solutions:
                for inner_solution in inner_solutions:
                    merged = dict(solution)
                    merged.update(inner_solution)
                    joined.append(merged)
            return joined

        index_key = (element.query, key_vars)
        index = self._subselect_indexes.get(index_key)
        if index is None:
            index = {}
            for inner_solution in inner_solutions:
                key = tuple(inner_solution.get(v) for v in key_vars)
                index.setdefault(key, []).append(inner_solution)
            self._subselect_indexes[index_key] = index

        joined = []
        for solution in solutions:
            key = tuple(solution.get(v) for v in key_vars)
            if None in key:
                # Partially unbound key: fall back to a scan for this row.
                candidates = inner_solutions
            else:
                candidates = index.get(key, ())
            for inner_solution in candidates:
                compatible = True
                for variable, value in inner_solution.items():
                    existing = solution.get(variable)
                    if existing is not None and existing != value:
                        compatible = False
                        break
                if compatible:
                    merged = dict(solution)
                    merged.update(inner_solution)
                    joined.append(merged)
        return joined

    # ------------------------------------------------------------- SELECT

    def _select_id_result(
        self, query: SelectQuery
    ) -> tuple[tuple[Variable, ...], list[tuple[int | None, ...]]]:
        """Evaluate a SELECT fully in id space: schema plus id rows.

        Applies aggregation, projection, DISTINCT, ORDER BY and
        LIMIT/OFFSET.  DISTINCT and COUNT DISTINCT compare ids — the
        dictionary is injective, so id equality *is* term equality.
        """
        solutions = self.eval_group(query.where, [{}])

        if query.aggregate is not None:
            aggregate = query.aggregate
            if aggregate.variable is None:
                count = len(solutions)
            else:
                values = [s[aggregate.variable] for s in solutions if aggregate.variable in s]
                count = len(set(values)) if aggregate.distinct else len(values)
            return (aggregate.alias,), [(self.dictionary.encode(typed_literal(count)),)]

        projected = query.projected_variables()
        rows = [tuple(solution.get(variable) for variable in projected) for solution in solutions]

        if query.distinct:
            seen: set[tuple[int | None, ...]] = set()
            unique_rows: list[tuple[int | None, ...]] = []
            for row in rows:
                if row not in seen:
                    seen.add(row)
                    unique_rows.append(row)
            rows = unique_rows

        if query.order_by:
            self._sort_id_rows(rows, projected, query)

        if query.offset:
            rows = rows[query.offset:]
        if query.limit is not None:
            rows = rows[: query.limit]
        return projected, rows

    def _sort_id_rows(
        self,
        rows: list[tuple[int | None, ...]],
        projected: tuple[Variable, ...],
        query: SelectQuery,
    ) -> None:
        sort_id_rows(self, rows, projected, query.order_by)

    # ------------------------------------------------------------ filters

    def _decode_solution(self, solution: IdSolution) -> Solution:
        """Decode an id solution to terms for expression evaluation."""
        decode = self.dictionary.decode
        return {variable: decode(value) for variable, value in solution.items()}

    def _filter_passes_ids(self, expression: Expression, solution: IdSolution) -> bool:
        """FILTER bridge from id space: expressions inspect real terms."""
        return self._filter_passes(expression, self._decode_solution(solution))

    def _filter_passes(self, expression: Expression, solution: Solution) -> bool:
        try:
            value = self.eval_expression(expression, solution)
        except _ExpressionError:
            return False
        if isinstance(value, bool):
            return value
        return effective_boolean_value(value)

    def eval_expression(self, expression: Expression, solution: Solution):
        """Evaluate an expression to a Term, bool, or raise _ExpressionError."""
        if isinstance(expression, VarExpr):
            value = solution.get(expression.variable)
            if value is None:
                raise _ExpressionError
            return value
        if isinstance(expression, TermExpr):
            return expression.term
        if isinstance(expression, Comparison):
            left = self._eval_operand(expression.left, solution)
            right = self._eval_operand(expression.right, solution)
            return _compare(expression.op, left, right)
        if isinstance(expression, Arithmetic):
            left = _numeric(self._eval_operand(expression.left, solution))
            right = _numeric(self._eval_operand(expression.right, solution))
            if expression.op == "+":
                return typed_literal(left + right)
            if expression.op == "-":
                return typed_literal(left - right)
            if expression.op == "*":
                return typed_literal(left * right)
            if right == 0:
                raise _ExpressionError
            return typed_literal(left / right)
        if isinstance(expression, BooleanOp):
            if expression.op == "&&":
                return all(self._filter_passes(part, solution) for part in expression.operands)
            return any(self._filter_passes(part, solution) for part in expression.operands)
        if isinstance(expression, Not):
            return not self._filter_passes(expression.operand, solution)
        if isinstance(expression, FunctionCall):
            return self._eval_function(expression, solution)
        if isinstance(expression, ExistsExpr):
            # Pattern evaluation happens in id space; the (term-level)
            # solution is re-encoded to seed it.  Interning is safe: every
            # term here round-tripped through the dictionary already or
            # comes from the query text.
            encode = self.dictionary.encode
            seed = {variable: encode(value) for variable, value in solution.items()}
            matches = self.eval_group(expression.pattern, [seed])
            exists = bool(matches)
            return (not exists) if expression.negated else exists
        raise EvaluationError(f"cannot evaluate expression {expression!r}")

    def _eval_operand(self, expression: Expression, solution: Solution):
        value = self.eval_expression(expression, solution)
        if isinstance(value, bool):
            return Literal("true" if value else "false", datatype=XSD_BOOLEAN)
        return value

    def _eval_function(self, call: FunctionCall, solution: Solution):
        name = call.name

        def arg(index: int):
            return self._eval_operand(call.args[index], solution)

        if name == "BOUND":
            inner = call.args[0]
            if not isinstance(inner, VarExpr):
                raise EvaluationError("BOUND expects a variable")
            return inner.variable in solution
        if name == "REGEX":
            text = _string_value(arg(0))
            pattern = _string_value(arg(1))
            flags = 0
            if len(call.args) > 2 and "i" in _string_value(arg(2)):
                flags |= re.IGNORECASE
            return re.search(pattern, text, flags) is not None
        if name == "STR":
            return Literal(_string_value(arg(0)))
        if name == "LANG":
            value = arg(0)
            if isinstance(value, Literal):
                return Literal(value.language or "")
            raise _ExpressionError
        if name == "LANGMATCHES":
            lang = _string_value(arg(0)).lower()
            range_ = _string_value(arg(1)).lower()
            if range_ == "*":
                return bool(lang)
            return lang == range_ or lang.startswith(range_ + "-")
        if name == "DATATYPE":
            value = arg(0)
            if isinstance(value, Literal):
                return IRI(value.datatype or "http://www.w3.org/2001/XMLSchema#string")
            raise _ExpressionError
        if name == "CONTAINS":
            return _string_value(arg(1)) in _string_value(arg(0))
        if name == "STRSTARTS":
            return _string_value(arg(0)).startswith(_string_value(arg(1)))
        if name == "STRENDS":
            return _string_value(arg(0)).endswith(_string_value(arg(1)))
        if name == "STRLEN":
            return typed_literal(len(_string_value(arg(0))))
        if name == "UCASE":
            return Literal(_string_value(arg(0)).upper())
        if name == "LCASE":
            return Literal(_string_value(arg(0)).lower())
        if name in ("ISIRI", "ISURI"):
            return isinstance(arg(0), IRI)
        if name == "ISLITERAL":
            return isinstance(arg(0), Literal)
        if name == "ISBLANK":
            return isinstance(arg(0), BNode)
        if name == "ISNUMERIC":
            value = arg(0)
            return isinstance(value, Literal) and value.numeric_value() is not None
        if name == "SAMETERM":
            return arg(0) == arg(1)
        if name == "ABS":
            return typed_literal(abs(_numeric(arg(0))))
        raise EvaluationError(f"unsupported function {name}")


def sort_id_rows(
    evaluator: "_Evaluator",
    rows: list[tuple[int | None, ...]],
    projected: Sequence[Variable],
    order_by: Sequence,
) -> None:
    """ORDER BY on id rows: sort keys need real terms, so rows decode per key.

    Shared by the interpretive evaluator and the compiled-plan tail.
    """
    decode = evaluator.dictionary.decode

    def row_key(row: tuple[int | None, ...]):
        solution = {
            variable: decode(value)
            for variable, value in zip(projected, row)
            if value is not None
        }
        return order_key(evaluator, solution, order_by)

    rows.sort(key=row_key)


def order_key(evaluator: "_Evaluator", solution: Solution, order_by: Sequence) -> tuple:
    """The ORDER BY sort key of one term solution.

    Every ORDER BY in the system sorts by this key: the interpretive
    evaluator and the compiled-plan tail (through :func:`sort_id_rows`)
    and the federated mediator's result finalization.  An expression
    that errors or is unbound sorts first, as SPARQL's unbound does.
    """
    keys = []
    for condition in order_by:
        try:
            value = evaluator.eval_expression(condition.expression, solution)
        except _ExpressionError:
            value = None
        if isinstance(value, bool):
            value = typed_literal(value)
        key = (0,) if value is None else value.sort_key()
        keys.append(_DescendingKey(key) if not condition.ascending else key)
    return tuple(keys)


# --------------------------------------------------------------------------
# Public entry points


def evaluate_select(store: TripleStore, query: SelectQuery) -> SelectResult:
    """Evaluate a SELECT query and materialize the result.

    The whole pipeline runs in id space; this is the single place where
    ids are decoded back to terms — the endpoint's encode/decode boundary.
    """
    evaluator = _Evaluator(store)
    projected, id_rows = evaluator._select_id_result(query)
    decode_row = store.dictionary.decode_row
    return SelectResult(projected, [decode_row(row) for row in id_rows])


class _DescendingKey:
    """Wrapper inverting comparison order for DESC sort keys."""

    __slots__ = ("key",)

    def __init__(self, key):
        self.key = key

    def __lt__(self, other):
        return other.key < self.key

    def __eq__(self, other):
        return isinstance(other, _DescendingKey) and self.key == other.key


def evaluate_ask(store: TripleStore, query: AskQuery) -> bool:
    """Evaluate an ASK query."""
    evaluator = _Evaluator(store)
    # Short-circuit: a single-pattern ASK is the common source-selection
    # probe; answer it straight from the indexes.
    if len(query.where.elements) == 1 and isinstance(query.where.elements[0], BGP):
        triples = query.where.elements[0].triples
        if len(triples) == 1:
            pattern = triples[0]
            return self_ask(store, pattern)
    return bool(evaluator.eval_group(query.where, [{}]))


def self_ask(store: TripleStore, pattern: TriplePattern) -> bool:
    """ASK over a single triple pattern using the store indexes directly."""
    return store.ask(pattern.subject, pattern.predicate, pattern.object)


def evaluate(store: TripleStore, query: Query):
    """Evaluate any supported query; returns SelectResult or bool."""
    if isinstance(query, SelectQuery):
        return evaluate_select(store, query)
    if isinstance(query, AskQuery):
        return evaluate_ask(store, query)
    raise EvaluationError(f"unsupported query type {type(query).__name__}")


def solutions_to_result(
    solutions: Iterable[Mapping[Variable, Term]], vars: Sequence[Variable]
) -> SelectResult:
    """Project an iterable of solution dicts onto a schema."""
    rows = [tuple(solution.get(variable) for variable in vars) for solution in solutions]
    return SelectResult(vars, rows)
