"""Compiled physical plans for the endpoint query engine.

The interpretive evaluator in :mod:`repro.sparql.evaluator` re-derives
pattern order, filter placement, and projection wiring on every request.
That is pure overhead on Lusail's hot path, which hammers endpoints with
*repeated query skeletons*: block-wise bound joins re-issue the same
subquery once per VALUES block, and check / COUNT probes share shapes
across pattern pairs.  This module compiles a query **once** into an
explicit operator pipeline that can be executed many times:

* the BGP probe sequence is fixed at compile time using the same greedy
  statistics-driven ordering the evaluator uses per request
  (:func:`~repro.sparql.evaluator.pick_next_pattern`);
* FILTERs are pushed down to the earliest operator at which all their
  variables are *certainly* bound, and pure equality comparisons against
  non-numeric constants run directly in id space;
* OPTIONAL / UNION / sub-SELECT compile to composed sub-plans;
* projection, DISTINCT, ORDER BY and LIMIT/OFFSET form the pipeline
  tail; ASK and LIMIT queries run the probe pipeline **lazily** so
  evaluation stops as soon as enough rows exist;
* fully bound top-level VALUES clauses compile to **parameter slots**:
  an endpoint can strip the rows off a bound-join request
  (:func:`split_parameters`), look the remaining skeleton up in its
  plan cache, and bind the new block into the already-compiled plan.
  A VALUES clause holding UNDEF stays inline in the skeleton and
  compiles as fixed rows (certainty per column, UNDEF matching
  anything), so every query runs through the compiled pipeline.

Operators exchange *positional id rows*: tuples aligned to a
compile-time variable schema, with ``None`` marking an unbound slot
(OPTIONAL / UNDEF).  All joins and comparisons are on dictionary ids;
terms are decoded only for expression evaluation and once at the final
:class:`~repro.sparql.evaluator.SelectResult`.

Compiled plans are pinned to the store's data ``version``: pattern order
and statistics choices are only valid while the data is unchanged, so
caches must drop plans whose :attr:`CompiledPlan.valid` is False.

The interpretive evaluator supplies expression semantics, pattern
ordering and ORDER BY keys, and remains the correctness oracle: property
tests assert compiled results match it (and
:mod:`repro.sparql.reference` behind it) on randomized queries.
"""

from __future__ import annotations

from itertools import islice
from operator import itemgetter
from typing import Iterator

from repro.exceptions import EvaluationError
from repro.rdf.terms import BNode, IRI, Literal, Term, Variable, typed_literal
from repro.rdf.triple import TriplePattern
from repro.sparql.ast import (
    AskQuery,
    BGP,
    BooleanOp,
    Comparison,
    ExistsExpr,
    Expression,
    Filter,
    GroupPattern,
    Not,
    OptionalPattern,
    Query,
    SelectQuery,
    SubSelect,
    TermExpr,
    UnionPattern,
    ValuesPattern,
    VarExpr,
)
from repro.sparql.evaluator import (
    SelectResult,
    _Evaluator,
    estimate_pattern,
    pick_next_pattern,
    sort_id_rows,
)
from repro.store.triple_store import TripleStore

#: An id row: ints (bound), None (unbound), positions fixed by a schema.
IdRow = tuple
#: The seed relation: one empty row over the empty schema.
_SEED = ((),)


# --------------------------------------------------------------------------
# Parameter slots: VALUES rows in/out of a query skeleton


def _is_parameter(element) -> bool:
    """True for a top-level VALUES block that becomes a parameter slot.

    Only fully bound blocks do: a block holding UNDEF stays inline and
    compiles as fixed rows, so the compiler can track certainty per
    column instead of assuming every parameter column is bound.
    """
    return isinstance(element, ValuesPattern) and not any(
        None in row for row in element.rows
    )


def split_parameters(query: Query) -> tuple[Query, tuple]:
    """Strip fully bound top-level VALUES rows out of ``query``.

    Returns ``(skeleton, params)`` where the skeleton replaces every
    UNDEF-free VALUES clause directly under the WHERE group with an
    empty-row placeholder and ``params`` holds the stripped row blocks
    in order.  The skeleton is the plan-cache key: every bound-join
    block issued for the same subquery shares it.  A block containing
    UNDEF stays in the skeleton, so it keys its own plan.
    """
    elements: list = []
    params: list[tuple] = []
    for element in query.where.elements:
        if _is_parameter(element):
            params.append(element.rows)
            elements.append(ValuesPattern(element.vars, ()))
        else:
            elements.append(element)
    if not params:
        return query, ()
    return _replace_where(query, GroupPattern(elements)), tuple(params)


def _replace_where(query: Query, where: GroupPattern) -> Query:
    if isinstance(query, AskQuery):
        return AskQuery(where)
    return SelectQuery(
        where=where,
        select_vars=query.select_vars,
        distinct=query.distinct,
        aggregate=query.aggregate,
        order_by=query.order_by,
        limit=query.limit,
        offset=query.offset,
    )


# --------------------------------------------------------------------------
# Execution context: per-execution state over a shared compiled plan


class _ExecutionContext:
    """Mutable per-execution state; the compiled plan itself is immutable.

    Holds the encoded parameter blocks, per-operator scratch state
    (probe match caches, materialized sub-selects) and a lazily-built
    interpretive :class:`_Evaluator` used only for FILTER / ORDER BY
    expression semantics.
    """

    __slots__ = ("store", "dictionary", "param_rows", "_evaluator", "_state")

    def __init__(self, store: TripleStore, param_rows: tuple = ()):
        self.store = store
        self.dictionary = store.dictionary
        self.param_rows = param_rows
        self._evaluator: _Evaluator | None = None
        self._state: dict[int, dict] = {}

    @property
    def evaluator(self) -> _Evaluator:
        evaluator = self._evaluator
        if evaluator is None:
            evaluator = self._evaluator = _Evaluator(self.store)
        return evaluator

    def state(self, op) -> dict:
        state = self._state.get(id(op))
        if state is None:
            state = self._state[id(op)] = {}
        return state


# --------------------------------------------------------------------------
# Operators


class _ProbeOp:
    """One triple-pattern index probe, compiled against the row schema.

    Each position is a constant id, a slot of an already-bound column,
    or a fresh output column.  ``maybe_pending`` lists bound slots whose
    column is nullable (OPTIONAL / UNDEF upstream): a ``None`` there
    means the match must be written back into the slot.  In the default
    (cached) mode, matches are memoized per lookup key **on the plan
    itself** — the plan is pinned to one store version, so memos can
    never go stale within its lifetime, and bound-join blocks that share
    join-variable values (same advisor, same course) reuse them across
    executions.  In ``lazy`` mode the probe streams straight off the
    index iterator so ASK / LIMIT / EXISTS consumers stop after the
    first row.
    """

    #: Match memos are cleared past this many distinct lookup keys; a
    #: plain clear keeps the hot path branch-free (no LRU bookkeeping).
    MATCH_CACHE_LIMIT = 65536

    __slots__ = (
        "consts",
        "slots",
        "new_positions",
        "eq_checks",
        "maybe_pending",
        "lazy",
        "estimate",
        "pattern_text",
        "sort_vars",
        "_n_new",
        "_first_new",
        "_extract",
        "_match_cache",
    )

    def __init__(self, consts, slots, new_positions, eq_checks, maybe_pending, lazy):
        self.consts = consts
        self.slots = slots
        self.new_positions = tuple(new_positions)
        self.eq_checks = eq_checks
        self.maybe_pending = maybe_pending
        self.lazy = lazy
        # Compile-time ordering estimate (expected matches per input
        # row) and the source pattern, kept for the EXPLAIN ANALYZE
        # probe-order audit; filled in by the compiler's BGP walk.
        self.estimate: int | None = None
        self.pattern_text = ""
        #: Variables this probe's matches arrive sorted by (per input
        #: row), from :meth:`TripleStore.match_order`; ``None`` when the
        #: store backend makes no ordering promise.  Feeds the pipeline
        #: sort-order metadata (:func:`_pipeline_sort_order`).
        self.sort_vars: tuple | None = None
        self._n_new = len(self.new_positions)
        self._first_new = self.new_positions[0] if self.new_positions else None
        self._extract = itemgetter(*self.new_positions) if self._n_new >= 2 else None
        self._match_cache: dict | None = None if lazy else {}

    def run(self, ctx: _ExecutionContext, rows) -> Iterator[IdRow]:
        s_const, p_const, o_const = self.consts
        s_slot, p_slot, o_slot = self.slots
        new_positions = self.new_positions
        eq_checks = self.eq_checks
        maybe_pending = self.maybe_pending
        match_ids = ctx.store.match_ids
        match_cache = self._match_cache
        for row in rows:
            s = s_const if s_slot is None else row[s_slot]
            p = p_const if p_slot is None else row[p_slot]
            o = o_const if o_slot is None else row[o_slot]
            if match_cache is None:
                matches = match_ids(s, p, o)
                if eq_checks:
                    matches = (
                        m for m in matches if all(m[i] == m[j] for i, j in eq_checks)
                    )
            else:
                key = (s, p, o)
                matches = match_cache.get(key)
                if matches is None:
                    matches = list(match_ids(s, p, o))
                    if eq_checks:
                        matches = [
                            m for m in matches if all(m[i] == m[j] for i, j in eq_checks)
                        ]
                    if len(match_cache) >= self.MATCH_CACHE_LIMIT:
                        match_cache.clear()
                    match_cache[key] = matches
            pending = (
                [(i, slot) for i, slot in maybe_pending if row[slot] is None]
                if maybe_pending
                else None
            )
            if not pending:
                for match in matches:
                    yield row + tuple(match[i] for i in new_positions)
            else:
                for match in matches:
                    patched = list(row)
                    consistent = True
                    for i, slot in pending:
                        value = match[i]
                        existing = patched[slot]
                        if existing is None:
                            patched[slot] = value
                        elif existing != value:
                            consistent = False
                            break
                    if consistent:
                        yield tuple(patched) + tuple(match[i] for i in new_positions)

    def run_list(self, ctx: _ExecutionContext, rows: list) -> list:
        """Batch form of :meth:`run` for non-lazy plans.

        Whole-list processing with pre-resolved extraction avoids the
        per-row generator machinery of the streaming path — this is the
        bound-join hot loop.
        """
        s_const, p_const, o_const = self.consts
        s_slot, p_slot, o_slot = self.slots
        match_ids = ctx.store.match_ids
        eq_checks = self.eq_checks
        maybe_pending = self.maybe_pending
        match_cache = self._match_cache
        if match_cache is None:  # lazy op driven through the batch path
            match_cache = ctx.state(self)
        n_new = self._n_new
        first_new = self._first_new
        extract = self._extract
        out: list = []
        for row in rows:
            s = s_const if s_slot is None else row[s_slot]
            p = p_const if p_slot is None else row[p_slot]
            o = o_const if o_slot is None else row[o_slot]
            key = (s, p, o)
            matches = match_cache.get(key)
            if matches is None:
                if eq_checks:
                    matches = [
                        m
                        for m in match_ids(s, p, o)
                        if all(m[i] == m[j] for i, j in eq_checks)
                    ]
                else:
                    matches = list(match_ids(s, p, o))
                if len(match_cache) >= self.MATCH_CACHE_LIMIT:
                    match_cache.clear()
                match_cache[key] = matches
            if not matches:
                continue
            if maybe_pending:
                pending = [(i, slot) for i, slot in maybe_pending if row[slot] is None]
                if pending:
                    for match in matches:
                        patched = list(row)
                        consistent = True
                        for i, slot in pending:
                            value = match[i]
                            existing = patched[slot]
                            if existing is None:
                                patched[slot] = value
                            elif existing != value:
                                consistent = False
                                break
                        if consistent:
                            out.append(
                                tuple(patched)
                                + tuple(match[i] for i in self.new_positions)
                            )
                    continue
            if n_new == 1:
                out.extend([row + (m[first_new],) for m in matches])
            elif n_new == 0:
                out.extend([row] * len(matches))
            elif n_new == 3:
                out.extend([row + m for m in matches])
            else:
                out.extend([row + extract(m) for m in matches])
        return out

    def describe(self) -> str:
        return "probe(lazy)" if self.lazy else "probe"


class _ValuesOp:
    """A VALUES join.  Fixed rows are encoded once at compile time; a
    parameter slot reads the per-execution block from the context.  When
    VALUES leads the pipeline and binds only fresh columns — the
    bound-join hot path — the encoded block passes through untouched.
    """

    __slots__ = ("slot", "fixed_rows", "targets", "n_new", "passthrough")

    def __init__(self, slot, fixed_rows, targets, n_new, passthrough):
        self.slot = slot
        self.fixed_rows = fixed_rows
        self.targets = targets
        self.n_new = n_new
        self.passthrough = passthrough

    def rows_for(self, ctx: _ExecutionContext):
        return self.fixed_rows if self.slot is None else ctx.param_rows[self.slot]

    def run(self, ctx: _ExecutionContext, rows) -> Iterator[IdRow]:
        vrows = self.rows_for(ctx)
        if self.passthrough:
            for _row in rows:
                yield from vrows
            return
        targets = self.targets
        pad = [None] * self.n_new
        for row in rows:
            for vrow in vrows:
                out = list(row) + pad
                ok = True
                for j, value in enumerate(vrow):
                    if value is None:
                        continue  # UNDEF matches anything
                    target = targets[j]
                    existing = out[target]
                    if existing is None:
                        out[target] = value
                    elif existing != value:
                        ok = False
                        break
                if ok:
                    yield tuple(out)

    def run_list(self, ctx: _ExecutionContext, rows: list) -> list:
        if self.passthrough:
            vrows = self.rows_for(ctx)
            if len(rows) == 1:
                # The usual shape: VALUES leads the pipeline, seeded by
                # the single empty row — the encoded block IS the output.
                return list(vrows)
            out: list = []
            for _row in rows:
                out.extend(vrows)
            return out
        return list(self.run(ctx, iter(rows)))

    def describe(self) -> str:
        return "values(param)" if self.slot is not None else "values"


class _IdEqOp:
    """``FILTER(?x = <const>)`` / ``!=`` in id space.

    Only compiled when the variable is certainly bound and the constant
    cannot participate in numeric coercion (IRI, BNode, or a literal
    with no numeric value) — for those, dictionary-id equality *is*
    SPARQL term equality.
    """

    __slots__ = ("slot", "const_id", "negated")

    def __init__(self, slot, const_id, negated):
        self.slot = slot
        self.const_id = const_id
        self.negated = negated

    def run(self, ctx: _ExecutionContext, rows) -> Iterator[IdRow]:
        slot = self.slot
        const_id = self.const_id
        if self.negated:
            for row in rows:
                if row[slot] != const_id:
                    yield row
        else:
            for row in rows:
                if row[slot] == const_id:
                    yield row

    def run_list(self, ctx: _ExecutionContext, rows: list) -> list:
        slot = self.slot
        const_id = self.const_id
        if self.negated:
            return [row for row in rows if row[slot] != const_id]
        return [row for row in rows if row[slot] == const_id]

    def describe(self) -> str:
        return "id_eq(!=)" if self.negated else "id_eq(=)"


class _FilterOp:
    """A general FILTER: decodes only the expression's variables and
    delegates to the interpretive expression machinery, so compiled
    semantics cannot drift from the evaluator's."""

    __slots__ = ("expression", "decode_slots")

    def __init__(self, expression, decode_slots):
        self.expression = expression
        self.decode_slots = decode_slots

    def run(self, ctx: _ExecutionContext, rows) -> Iterator[IdRow]:
        evaluator = ctx.evaluator
        decode = ctx.dictionary.decode
        expression = self.expression
        decode_slots = self.decode_slots
        for row in rows:
            solution = {}
            for var, index in decode_slots:
                value = row[index]
                if value is not None:
                    solution[var] = decode(value)
            if evaluator._filter_passes(expression, solution):
                yield row

    def run_list(self, ctx: _ExecutionContext, rows: list) -> list:
        return list(self.run(ctx, iter(rows)))

    def describe(self) -> str:
        return "filter"


class _ExistsFilterOp:
    """``FILTER [NOT] EXISTS { ... }`` via a compiled lazy sub-plan:
    each row seeds the sub-plan and only its first result is taken."""

    __slots__ = ("plan", "negated")

    def __init__(self, plan, negated):
        self.plan = plan
        self.negated = negated

    def run(self, ctx: _ExecutionContext, rows) -> Iterator[IdRow]:
        plan = self.plan
        negated = self.negated
        for row in rows:
            found = next(plan.run(ctx, iter((row,))), None) is not None
            if found != negated:
                yield row

    def run_list(self, ctx: _ExecutionContext, rows: list) -> list:
        # The EXISTS sub-plan is compiled lazy (take-first); keep it
        # streaming per row.
        return list(self.run(ctx, iter(rows)))

    def describe(self) -> str:
        tag = "not_exists" if self.negated else "exists"
        return f"{tag}[{', '.join(self.plan.describe())}]"


class _OptionalOp:
    """Left join: each row runs the sub-plan; on no match the row is
    padded with ``None`` for the sub-plan's fresh columns."""

    __slots__ = ("plan", "pad")

    def __init__(self, plan, pad):
        self.plan = plan
        self.pad = pad

    def run(self, ctx: _ExecutionContext, rows) -> Iterator[IdRow]:
        plan = self.plan
        pad = self.pad
        for row in rows:
            matched = False
            for out in plan.run(ctx, iter((row,))):
                matched = True
                yield out
            if not matched:
                yield row + pad

    def run_list(self, ctx: _ExecutionContext, rows: list) -> list:
        plan = self.plan
        pad = self.pad
        out: list = []
        for row in rows:
            matched = plan.run_list(ctx, [row])
            if matched:
                out.extend(matched)
            else:
                out.append(row + pad)
        return out

    def describe(self) -> str:
        return f"optional[{', '.join(self.plan.describe())}]"


class _UnionOp:
    """Multiset union, branch-major like the evaluator: the input is
    materialized once, then each branch consumes it in turn.  Branch
    output rows are remapped onto the union schema when needed."""

    __slots__ = ("branches",)

    def __init__(self, branches):
        self.branches = branches

    def run(self, ctx: _ExecutionContext, rows) -> Iterator[IdRow]:
        rows = list(rows)
        for plan, out_map in self.branches:
            if out_map is None:
                yield from plan.run(ctx, iter(rows))
            else:
                for brow in plan.run(ctx, iter(rows)):
                    yield tuple(None if i is None else brow[i] for i in out_map)

    def run_list(self, ctx: _ExecutionContext, rows: list) -> list:
        out: list = []
        for plan, out_map in self.branches:
            brows = plan.run_list(ctx, rows)
            if out_map is None:
                out.extend(brows)
            else:
                out.extend(
                    tuple(None if i is None else brow[i] for i in out_map)
                    for brow in brows
                )
        return out

    def describe(self) -> str:
        inner = " | ".join(", ".join(plan.describe()) for plan, _ in self.branches)
        return f"union[{inner}]"


class _GroupOp:
    """A nested group graph pattern as one operator."""

    __slots__ = ("plan",)

    def __init__(self, plan):
        self.plan = plan

    def run(self, ctx: _ExecutionContext, rows) -> Iterator[IdRow]:
        return self.plan.run(ctx, rows)

    def run_list(self, ctx: _ExecutionContext, rows: list) -> list:
        return self.plan.run_list(ctx, rows)

    def describe(self) -> str:
        return f"group[{', '.join(self.plan.describe())}]"


class _SubSelectOp:
    """Join with an uncorrelated sub-SELECT.  The inner plan runs once
    per execution; a hash index on the shared (key) columns is built
    alongside, mirroring the evaluator's per-query sub-select cache."""

    __slots__ = ("core", "key_slots", "key_cols", "targets", "n_new")

    def __init__(self, core, key_slots, key_cols, targets, n_new):
        self.core = core
        self.key_slots = key_slots
        self.key_cols = key_cols
        self.targets = targets
        self.n_new = n_new

    def run(self, ctx: _ExecutionContext, rows) -> Iterator[IdRow]:
        state = ctx.state(self)
        if "rows" not in state:
            _, inner_rows = self.core.id_result(ctx)
            index: dict = {}
            for irow in inner_rows:
                key = tuple(irow[c] for c in self.key_cols)
                index.setdefault(key, []).append(irow)
            state["rows"] = inner_rows
            state["index"] = index
        inner_rows = state["rows"]
        index = state["index"]
        key_slots = self.key_slots
        targets = self.targets
        pad = [None] * self.n_new
        for row in rows:
            if key_slots:
                key = tuple(row[i] for i in key_slots)
                candidates = inner_rows if None in key else index.get(key, ())
            else:
                candidates = inner_rows
            for irow in candidates:
                out = list(row) + pad
                ok = True
                for col, target in targets:
                    value = irow[col]
                    if value is None:
                        continue
                    existing = out[target]
                    if existing is None:
                        out[target] = value
                    elif existing != value:
                        ok = False
                        break
                if ok:
                    yield tuple(out)

    def run_list(self, ctx: _ExecutionContext, rows: list) -> list:
        return list(self.run(ctx, iter(rows)))

    def describe(self) -> str:
        return "subselect"


class _GroupPlan:
    """A compiled group: an operator chain plus its output schema and
    the set of columns certainly bound in every output row."""

    __slots__ = ("ops", "out_schema", "out_certain")

    def __init__(self, ops, out_schema, out_certain):
        self.ops = ops
        self.out_schema = out_schema
        self.out_certain = out_certain

    def run(self, ctx: _ExecutionContext, rows) -> Iterator[IdRow]:
        for op in self.ops:
            rows = op.run(ctx, rows)
        return rows

    def run_list(self, ctx: _ExecutionContext, rows: list) -> list:
        for op in self.ops:
            rows = op.run_list(ctx, rows)
            if not rows:
                break
        return rows

    def describe(self) -> list[str]:
        return [op.describe() for op in self.ops]


def _distinct_rows(rows) -> Iterator[IdRow]:
    seen: set = set()
    for row in rows:
        if row not in seen:
            seen.add(row)
            yield row


def _pipeline_sort_order(plan: _GroupPlan) -> tuple:
    """Variables a pipeline's output rows are sorted by (static walk).

    Every operator except UNION emits its per-input-row output
    contiguously and in input order, so an established leading sort order
    survives the rest of the pipeline non-strictly.  While the chain is
    still *strictly* sorted — seed row through consecutive probes over
    the sorted store backend, with row-dropping filters in between — each
    probe's own sorted match iteration extends the order by its fresh
    positions.  VALUES, OPTIONAL and sub-SELECT joins stop the extension
    (their per-row outputs have their own ordering) but preserve the
    prefix; UNION interleaves branches and resets the order entirely.
    """
    order: list[Variable] = []
    seeded = False
    extendable = False
    for op in plan.ops:
        if isinstance(op, _ProbeOp):
            if not seeded:
                seeded = True
                if op.sort_vars is None:
                    extendable = False
                else:
                    order = list(op.sort_vars)
                    extendable = True
            elif extendable:
                if op.sort_vars is None:
                    extendable = False
                else:
                    order.extend(var for var in op.sort_vars if var not in order)
        elif isinstance(op, (_IdEqOp, _FilterOp, _ExistsFilterOp)):
            # Row-dropping only: a subsequence of a (strictly) sorted
            # sequence keeps both the order and its strictness.
            continue
        elif isinstance(op, _UnionOp):
            order = []
            seeded = True
            extendable = False
        elif isinstance(op, _GroupOp):
            if not seeded:
                order = list(_pipeline_sort_order(op.plan))
            seeded = True
            extendable = False
        else:  # _ValuesOp / _OptionalOp / _SubSelectOp
            seeded = True
            extendable = False
    return tuple(order)


# --------------------------------------------------------------------------
# Compiler


class _Compiler:
    """Compiles AST pattern nodes to operator chains.

    Tracks two facts per column while walking the group: the schema
    (column order, fixed by the same greedy pattern ordering the
    evaluator uses) and *certainty* — whether every surviving row is
    guaranteed a non-None value in that column.  Certainty is what makes
    filter pushdown safe: a filter may run as soon as all its variables
    are certainly bound, because from that operator on its verdict can
    never change.
    """

    def __init__(self, store: TripleStore, lazy: bool = False):
        self.store = store
        self.dictionary = store.dictionary
        self.lazy = lazy

    # ------------------------------------------------------------- groups

    def compile_group(
        self,
        group: GroupPattern,
        in_schema: tuple,
        in_certain: frozenset,
        param_slots: dict[int, int] | None = None,
    ) -> _GroupPlan:
        schema: list[Variable] = list(in_schema)
        certain: set[Variable] = set(in_certain)
        ops: list = []
        # timeline[k] = the certainly-bound set *before* operator k;
        # a filter whose variables are all in timeline[k] is pushed to
        # run just before operator k.
        timeline: list[set[Variable]] = [set(certain)]
        filters: list[Filter] = []
        for element in group.elements:
            if isinstance(element, Filter):
                filters.append(element)
            elif isinstance(element, BGP):
                self._compile_bgp(element, schema, certain, ops, timeline)
            elif isinstance(element, GroupPattern):
                sub = self.compile_group(element, tuple(schema), frozenset(certain))
                ops.append(_GroupOp(sub))
                schema[:] = sub.out_schema
                certain = set(sub.out_certain)
                timeline.append(set(certain))
            elif isinstance(element, OptionalPattern):
                sub = self.compile_group(
                    element.pattern, tuple(schema), frozenset(certain)
                )
                new = sub.out_schema[len(schema):]
                ops.append(_OptionalOp(sub, (None,) * len(new)))
                schema.extend(new)
                # A left join adds columns but never certainty.
                timeline.append(set(certain))
            elif isinstance(element, UnionPattern):
                op, out_schema, out_certain = self._compile_union(
                    element, tuple(schema), frozenset(certain)
                )
                ops.append(op)
                schema[:] = out_schema
                certain = set(out_certain)
                timeline.append(set(certain))
            elif isinstance(element, ValuesPattern):
                slot = None if param_slots is None else param_slots.get(id(element))
                self._compile_values(element, slot, schema, certain, ops)
                timeline.append(set(certain))
            elif isinstance(element, SubSelect):
                self._compile_subselect(element, schema, certain, ops)
                timeline.append(set(certain))
            else:
                raise EvaluationError(f"cannot compile pattern node {element!r}")
        final_ops = self._place_filters(
            ops, timeline, filters, tuple(schema), frozenset(certain)
        )
        return _GroupPlan(tuple(final_ops), tuple(schema), frozenset(certain))

    # ---------------------------------------------------------------- BGP

    def _compile_bgp(self, element, schema, certain, ops, timeline) -> None:
        remaining = list(element.triples)
        # Ordering treats every schema column as bound, exactly as the
        # evaluator treats every solution key; ties and estimates use
        # the shared pick_next_pattern so both engines order alike.
        bound = set(schema)
        while remaining:
            index = pick_next_pattern(self.store, remaining, bound)
            pattern = remaining.pop(index)
            op = self._compile_probe(pattern, schema, certain)
            op.estimate = estimate_pattern(self.store, pattern, bound)
            op.pattern_text = pattern.n3()
            ops.append(op)
            bound |= pattern.variables()
            timeline.append(set(certain))

    def _compile_probe(self, pattern: TriplePattern, schema, certain) -> _ProbeOp:
        slot_of = {var: i for i, var in enumerate(schema)}
        consts: list = [None, None, None]
        slots: list = [None, None, None]
        new_positions: list[int] = []
        eq_checks: list[tuple[int, int]] = []
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
                    schema.append(position)
            else:
                # encode (not lookup): a term absent from the data gets a
                # fresh id that matches nothing in the indexes, which is
                # exactly the evaluator's dead-pattern outcome — and the
                # id stays valid for the plan's whole cached lifetime.
                consts[index] = self.dictionary.encode(position)
        maybe_pending = tuple(
            (index, slot)
            for index, slot in ((0, slots[0]), (1, slots[1]), (2, slots[2]))
            if slot is not None and schema[slot] not in certain
        )
        # After the probe every pattern variable is bound in every
        # surviving row: consts matched, slots substituted or patched,
        # fresh columns filled from the match.
        certain.update(pattern.variables())
        op = _ProbeOp(
            tuple(consts),
            tuple(slots),
            tuple(new_positions),
            tuple(eq_checks),
            maybe_pending,
            self.lazy,
        )
        # Compile-time sorted-scan metadata: at probe time a position is
        # bound iff it carries a constant or reads an input slot, so the
        # store can already say which positions its iteration will be
        # sorted by.  Map those positions to pattern variables (repeated
        # variables dedupe to their first sorted position).
        order = self.store.match_order(
            consts[0] is not None or slots[0] is not None,
            consts[1] is not None or slots[1] is not None,
            consts[2] is not None or slots[2] is not None,
        )
        if order is not None:
            positions = pattern.positions()
            sort_vars: list[Variable] = []
            for index in order:
                variable = positions[index]
                if isinstance(variable, Variable) and variable not in sort_vars:
                    sort_vars.append(variable)
            op.sort_vars = tuple(sort_vars)
        return op

    # ------------------------------------------------------------- VALUES

    def _compile_values(self, element, slot, schema, certain, ops) -> None:
        targets: list[int] = []
        local: dict[Variable, int] = {}
        base = len(schema)
        new_vars: list[Variable] = []
        for var in element.vars:
            index = local.get(var)
            if index is None:
                slot_of = {v: i for i, v in enumerate(schema)}
                index = slot_of.get(var)
            if index is None:
                index = len(schema)
                new_vars.append(var)
                schema.append(var)
            local[var] = index
            targets.append(index)
        if slot is None:
            encode = self.dictionary.encode
            fixed_rows = tuple(
                tuple(None if value is None else encode(value) for value in row)
                for row in element.rows
            )
            # A column with no UNDEF makes its variable certain.
            for j, var in enumerate(element.vars):
                if all(row[j] is not None for row in fixed_rows):
                    certain.add(var)
        else:
            fixed_rows = ()
            # Only UNDEF-free blocks become parameter slots (see
            # _is_parameter), and _resolve_params rejects UNDEF rows.
            certain.update(element.vars)
        passthrough = base == 0 and targets == list(range(len(element.vars)))
        ops.append(
            _ValuesOp(slot, fixed_rows, tuple(targets), len(new_vars), passthrough)
        )

    # -------------------------------------------------------------- UNION

    def _compile_union(self, element, in_schema, in_certain):
        compiled = [
            self.compile_group(branch, in_schema, in_certain)
            for branch in element.branches
        ]
        out_schema = list(in_schema)
        known = set(in_schema)
        for sub in compiled:
            for var in sub.out_schema[len(in_schema):]:
                if var not in known:
                    known.add(var)
                    out_schema.append(var)
        branches = []
        for sub in compiled:
            if list(sub.out_schema) == out_schema:
                out_map = None
            else:
                pos = {var: i for i, var in enumerate(sub.out_schema)}
                out_map = tuple(pos.get(var) for var in out_schema)
            branches.append((sub, out_map))
        # Certain only if certain down every branch.
        out_certain = set(compiled[0].out_certain)
        for sub in compiled[1:]:
            out_certain &= sub.out_certain
        return _UnionOp(tuple(branches)), out_schema, out_certain

    # ---------------------------------------------------------- SubSelect

    def _compile_subselect(self, element, schema, certain, ops) -> None:
        core = _Compiler(self.store, lazy=False).compile_select(element.query)
        inner_vars = core.projected
        key_vars = tuple(
            sorted(set(schema) & set(inner_vars), key=lambda v: v.name)
        )
        slot_of = {var: i for i, var in enumerate(schema)}
        inner_pos = {var: i for i, var in enumerate(inner_vars)}
        key_slots = tuple(slot_of[v] for v in key_vars)
        key_cols = tuple(inner_pos[v] for v in key_vars)
        targets = []
        n_new = 0
        for col, var in enumerate(inner_vars):
            target = slot_of.get(var)
            if target is None:
                target = len(schema)
                schema.append(var)
                n_new += 1
            targets.append((col, target))
        for var in inner_vars:
            if var in core.certain_projected:
                certain.add(var)
        ops.append(_SubSelectOp(core, key_slots, key_cols, tuple(targets), n_new))

    # ------------------------------------------------------------ filters

    def _place_filters(self, ops, timeline, filters, schema, certain_final):
        parts: list[Expression] = []
        for filter_node in filters:
            parts.extend(_split_conjunction(filter_node.expression))
        placements: list[list] = [[] for _ in range(len(ops) + 1)]
        for expression in parts:
            op, position = self._compile_filter(
                expression, schema, timeline, certain_final
            )
            placements[position].append(op)
        final: list = []
        for index, op in enumerate(ops):
            final.extend(placements[index])
            final.append(op)
        final.extend(placements[len(ops)])
        return final

    def _compile_filter(self, expression, schema, timeline, certain_final):
        end = len(timeline) - 1
        # EXISTS (and !EXISTS) keep group-end semantics: they see the
        # complete row, and a compiled lazy sub-plan takes only the
        # first inner solution per row.
        exists = _as_exists(expression)
        if exists is not None:
            pattern, negated = exists
            sub = _Compiler(self.store, lazy=True).compile_group(
                pattern, schema, certain_final
            )
            return _ExistsFilterOp(sub, negated), end
        slot_of = {var: i for i, var in enumerate(schema)}
        decode_slots = tuple(
            (var, slot_of[var])
            for var in sorted(expression.variables(), key=lambda v: v.name)
            if var in slot_of
        )
        if _contains_bound_or_exists(expression):
            # BOUND / nested EXISTS verdicts depend on *when* they run;
            # only the group end matches the evaluator.
            return _FilterOp(expression, decode_slots), end
        variables = expression.variables()
        position = None
        for k, known in enumerate(timeline):
            if variables <= known:
                position = k
                break
        if position is None:
            # Never certainly bound: evaluate at group end, where a
            # still-unbound variable makes the filter drop the row —
            # identical to the evaluator's error semantics.
            return _FilterOp(expression, decode_slots), end
        id_eq = self._id_eq(expression, slot_of)
        if id_eq is not None:
            return id_eq, position
        return _FilterOp(expression, decode_slots), position

    def _id_eq(self, expression, slot_of):
        if not isinstance(expression, Comparison) or expression.op not in ("=", "!="):
            return None
        left, right = expression.left, expression.right
        if isinstance(left, VarExpr) and isinstance(right, TermExpr):
            var, term = left.variable, right.term
        elif isinstance(left, TermExpr) and isinstance(right, VarExpr):
            var, term = right.variable, left.term
        else:
            return None
        if isinstance(term, Literal):
            # Numeric literals compare by value ("1" = "01"), which id
            # equality cannot express; leave those to the evaluator.
            if term.numeric_value() is not None:
                return None
        elif not isinstance(term, (IRI, BNode)):
            return None
        slot = slot_of.get(var)
        if slot is None:
            return None
        return _IdEqOp(slot, self.dictionary.encode(term), expression.op == "!=")

    # ------------------------------------------------------------- SELECT

    def compile_select(
        self, query: SelectQuery, param_slots: dict[int, int] | None = None
    ) -> "_SelectCore":
        plan = self.compile_group(query.where, (), frozenset(), param_slots)
        schema = plan.out_schema
        if query.aggregate is not None:
            aggregate = query.aggregate
            agg_slot = None
            if aggregate.variable is not None and aggregate.variable in schema:
                agg_slot = schema.index(aggregate.variable)
            return _SelectCore(
                plan=plan,
                aggregate=aggregate,
                agg_slot=agg_slot,
                projected=(aggregate.alias,),
                proj_map=(),
                identity=False,
                distinct=False,
                order_by=(),
                limit=None,
                offset=0,
                certain_projected=frozenset((aggregate.alias,)),
                lazy=self.lazy,
                sort_order=(),
            )
        projected = query.projected_variables()
        pos = {var: i for i, var in enumerate(schema)}
        proj_map = tuple(pos.get(var) for var in projected)
        identity = proj_map == tuple(range(len(schema)))
        # ORDER BY re-sorts; otherwise projection keeps whatever leading
        # run of the pipeline's store-id order survives into the output
        # columns (DISTINCT / OFFSET / LIMIT only drop rows).
        if query.order_by:
            sort_order: tuple = ()
        else:
            pipeline_order = _pipeline_sort_order(plan)
            keep = 0
            for var in pipeline_order:
                if var not in projected:
                    break
                keep += 1
            sort_order = pipeline_order[:keep]
        return _SelectCore(
            plan=plan,
            aggregate=None,
            agg_slot=None,
            projected=projected,
            proj_map=proj_map,
            identity=identity,
            distinct=query.distinct,
            order_by=query.order_by,
            limit=query.limit,
            offset=query.offset,
            certain_projected=frozenset(
                var for var in projected if var in plan.out_certain
            ),
            lazy=self.lazy,
            sort_order=sort_order,
        )

    def compile_ask(
        self, query: AskQuery, param_slots: dict[int, int] | None = None
    ) -> "_SelectCore":
        plan = self.compile_group(query.where, (), frozenset(), param_slots)
        return _SelectCore(
            plan=plan,
            aggregate=None,
            agg_slot=None,
            projected=(),
            proj_map=(),
            identity=False,
            distinct=False,
            order_by=(),
            limit=None,
            offset=0,
            certain_projected=frozenset(),
            lazy=self.lazy,
            sort_order=(),
        )


def _split_conjunction(expression: Expression) -> list[Expression]:
    """Flatten top-level && into independent filters.

    Safe because the evaluator treats ``a && b`` as both operands
    passing, with per-operand error handling — exactly the semantics of
    two consecutive FILTERs.
    """
    if isinstance(expression, BooleanOp) and expression.op == "&&":
        parts: list[Expression] = []
        for operand in expression.operands:
            parts.extend(_split_conjunction(operand))
        return parts
    return [expression]


def _as_exists(expression: Expression):
    """(pattern, negated) if the expression is (possibly negated) EXISTS."""
    if isinstance(expression, ExistsExpr):
        return expression.pattern, expression.negated
    if isinstance(expression, Not) and isinstance(expression.operand, ExistsExpr):
        inner = expression.operand
        return inner.pattern, not inner.negated
    return None


def _contains_bound_or_exists(expression: Expression) -> bool:
    stack = [expression]
    while stack:
        node = stack.pop()
        if isinstance(node, ExistsExpr):
            return True
        if getattr(node, "name", None) == "BOUND":
            return True
        for attr in ("left", "right", "operand"):
            child = getattr(node, attr, None)
            if child is not None:
                stack.append(child)
        for attr in ("operands", "args"):
            children = getattr(node, attr, None)
            if children:
                stack.extend(children)
    return False


# --------------------------------------------------------------------------
# Pipeline tail: aggregation / projection / DISTINCT / ORDER BY / slice


class _SelectCore:
    """The compiled WHERE pipeline plus the solution-modifier tail."""

    __slots__ = (
        "plan",
        "aggregate",
        "agg_slot",
        "projected",
        "proj_map",
        "identity",
        "distinct",
        "order_by",
        "limit",
        "offset",
        "certain_projected",
        "lazy",
        "sort_order",
    )

    def __init__(
        self,
        plan,
        aggregate,
        agg_slot,
        projected,
        proj_map,
        identity,
        distinct,
        order_by,
        limit,
        offset,
        certain_projected,
        lazy,
        sort_order=(),
    ):
        self.plan = plan
        self.aggregate = aggregate
        self.agg_slot = agg_slot
        self.projected = projected
        self.proj_map = proj_map
        self.identity = identity
        self.distinct = distinct
        self.order_by = order_by
        self.limit = limit
        self.offset = offset
        self.certain_projected = certain_projected
        self.lazy = lazy
        self.sort_order = tuple(sort_order)

    def _iter_projected(self, ctx: _ExecutionContext) -> Iterator[IdRow]:
        rows = self.plan.run(ctx, iter(_SEED))
        if self.identity:
            return rows
        proj_map = self.proj_map
        return (
            tuple(None if i is None else row[i] for i in proj_map) for row in rows
        )

    def _projected_list(self, ctx: _ExecutionContext) -> list:
        """Batch form of :meth:`_iter_projected` for non-lazy plans."""
        rows = self.plan.run_list(ctx, list(_SEED))
        if self.identity:
            return rows
        proj_map = self.proj_map
        return [
            tuple(None if i is None else row[i] for i in proj_map) for row in rows
        ]

    def _aggregate_rows(self, ctx: _ExecutionContext, rows: list) -> list:
        """COUNT tail over raw (unprojected) pipeline rows."""
        aggregate = self.aggregate
        if aggregate.variable is None:
            count = len(rows)
        elif self.agg_slot is None:
            count = 0
        else:
            slot = self.agg_slot
            values = [row[slot] for row in rows if row[slot] is not None]
            count = len(set(values)) if aggregate.distinct else len(values)
        return [(ctx.dictionary.encode(typed_literal(count)),)]

    def _finish(self, ctx: _ExecutionContext, rows, max_rows: int | None) -> list:
        """DISTINCT / ORDER BY / slice tail over projected rows."""
        if self.distinct:
            rows = _distinct_rows(rows)
        if self.order_by:
            materialized = list(rows)
            sort_id_rows(ctx.evaluator, materialized, self.projected, self.order_by)
            if self.offset:
                materialized = materialized[self.offset:]
            if self.limit is not None:
                materialized = materialized[: self.limit]
            if max_rows is not None:
                materialized = materialized[:max_rows]
            return materialized
        # No ORDER BY: the tail streams, so LIMIT (and the endpoint's
        # result_limit via max_rows) stops pipeline iteration early.
        stop = self.limit
        if max_rows is not None:
            stop = max_rows if stop is None else min(stop, max_rows)
        if self.offset or stop is not None:
            rows = islice(
                rows, self.offset, None if stop is None else self.offset + stop
            )
        return list(rows)

    def id_result(
        self, ctx: _ExecutionContext, max_rows: int | None = None
    ) -> tuple[tuple, list]:
        """Projected schema plus id rows, mirroring the evaluator's
        ``_select_id_result`` tail exactly (same clause order)."""
        if self.aggregate is not None:
            rows = self.plan.run_list(ctx, list(_SEED))
            return self.projected, self._aggregate_rows(ctx, rows)
        # Lazy plans stream so ASK / LIMIT stop early; everything else
        # runs list-at-a-time through the batch operator path.
        rows = self._iter_projected(ctx) if self.lazy else self._projected_list(ctx)
        return self.projected, self._finish(ctx, rows, max_rows)

    def ask(self, ctx: _ExecutionContext) -> bool:
        return next(self.plan.run(ctx, iter(_SEED)), None) is not None


# --------------------------------------------------------------------------
# Public API


class CompiledPlan:
    """A query compiled against one store, executable many times.

    ``params`` to the execute methods supplies one block of term rows
    per parameter slot (fully bound top-level VALUES clause, in order);
    omitted, the rows the query was compiled with are used.  Parameter
    rows must be fully bound: a VALUES block with UNDEF compiles inline
    as fixed rows instead, and an explicit parameter row holding
    ``None`` raises :class:`EvaluationError`.
    """

    __slots__ = (
        "store",
        "core",
        "param_specs",
        "default_params",
        "store_version",
        "is_ask",
    )

    def __init__(self, store, core, param_specs, default_params, is_ask):
        self.store = store
        self.core = core
        self.param_specs = param_specs
        self.default_params = default_params
        self.store_version = store.version
        self.is_ask = is_ask

    @property
    def valid(self) -> bool:
        """False once the store mutated after compilation."""
        return self.store.version == self.store_version

    @property
    def sort_order(self) -> tuple:
        """Projected variables the result rows are sorted by (id order).

        Non-empty only when the store backend promises sorted match
        iteration and the compiled pipeline preserves it end to end;
        mediators use it to chain merge joins without re-sorting.
        """
        return self.core.sort_order

    def explain(self) -> list[str]:
        """Operator chain of the WHERE pipeline, for tests and debugging."""
        return self.core.plan.describe()

    def audit_probes(self, params=None) -> list[dict]:
        """Estimate-vs-actual audit of the top-level probe chain.

        Re-runs the WHERE pipeline op by op with materialized
        intermediates and reports, per probe, the compiler's ordering
        estimate against the measured matches-per-input-row.  Pure
        local re-execution: no store mutation, no cache-counter
        traffic, so the EXPLAIN ANALYZE layer can call it without
        perturbing plan-cache statistics or virtual time.
        """
        params = self._resolve_params(params)
        ctx = _ExecutionContext(self.store, self._encode_params(params))
        records: list[dict] = []
        rows = list(_SEED)
        for op in self.core.plan.ops:
            n_in = len(rows)
            if not n_in:
                break
            rows = op.run_list(ctx, rows)
            if isinstance(op, _ProbeOp) and op.estimate is not None:
                records.append(
                    {
                        "pattern": op.pattern_text,
                        "estimated": float(op.estimate),
                        "actual": len(rows) / n_in,
                        "input_rows": n_in,
                        "output_rows": len(rows),
                    }
                )
        return records

    # ---------------------------------------------------------- execution

    def execute(self, params=None, max_rows: int | None = None):
        if self.is_ask:
            return self.execute_ask(params)
        return self.execute_select(params, max_rows=max_rows)

    def execute_select(self, params=None, max_rows: int | None = None) -> SelectResult:
        params = self._resolve_params(params)
        ctx = _ExecutionContext(self.store, self._encode_params(params))
        projected, id_rows = self.core.id_result(ctx, max_rows)
        decode_row = self.store.dictionary.decode_row
        return SelectResult(
            projected,
            [decode_row(row) for row in id_rows],
            sort_order=self.core.sort_order,
        )

    def execute_ask(self, params=None) -> bool:
        params = self._resolve_params(params)
        ctx = _ExecutionContext(self.store, self._encode_params(params))
        return self.core.ask(ctx)

    # ------------------------------------------------------------- params

    def _resolve_params(self, params) -> tuple:
        if params is None:
            return self.default_params
        params = tuple(tuple(tuple(row) for row in block) for block in params)
        if len(params) != len(self.param_specs):
            raise EvaluationError(
                f"plan expects {len(self.param_specs)} parameter blocks, "
                f"got {len(params)}"
            )
        for vars, block in zip(self.param_specs, params):
            for row in block:
                if len(row) != len(vars):
                    raise EvaluationError(
                        f"parameter row arity {len(row)} != {len(vars)}"
                    )
                if None in row:
                    raise EvaluationError(
                        "parameter rows must be fully bound; "
                        "compile a VALUES block with UNDEF inline"
                    )
        return params

    def _encode_params(self, params) -> tuple:
        encode = self.store.dictionary.encode
        return tuple(
            tuple(tuple(map(encode, row)) for row in block) for block in params
        )


def compile_query(store: TripleStore, query: Query) -> CompiledPlan:
    """Compile ``query`` into a reusable physical plan over ``store``.

    Fully bound top-level VALUES clauses become parameter slots; their
    current rows become the plan's default parameters, so
    ``compile_query(q).execute()`` is a drop-in for ``evaluate(store, q)``.
    A top-level VALUES clause holding UNDEF compiles as fixed rows.
    """
    param_slots: dict[int, int] = {}
    param_specs: list[tuple] = []
    default_params: list[tuple] = []
    for element in query.where.elements:
        if _is_parameter(element):
            param_slots[id(element)] = len(param_specs)
            param_specs.append(element.vars)
            default_params.append(element.rows)
    if isinstance(query, AskQuery):
        # ASK wants one solution: stream every probe.
        core = _Compiler(store, lazy=True).compile_ask(query, param_slots)
        is_ask = True
    elif isinstance(query, SelectQuery):
        # LIMIT without ORDER BY / aggregation can stop the pipeline as
        # soon as enough rows exist, so probes stream instead of
        # memoizing full match lists.
        lazy = (
            query.limit is not None
            and not query.order_by
            and query.aggregate is None
        )
        core = _Compiler(store, lazy=lazy).compile_select(query, param_slots)
        is_ask = False
    else:
        raise EvaluationError(f"unsupported query type {type(query).__name__}")
    return CompiledPlan(
        store, core, tuple(param_specs), tuple(default_params), is_ask
    )


def execute_compiled(store: TripleStore, query: Query):
    """Compile and execute in one step (uncached convenience entry)."""
    return compile_query(store, query).execute()
