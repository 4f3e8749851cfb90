"""SAPE subquery evaluation (paper Algorithm 3).

Execution of one decomposed conjunctive branch:

1. **Disjoint fast path** — a single required subquery and no OPTIONAL
   blocks: the whole branch is evaluated independently at every relevant
   endpoint and the results concatenated (Alg 3 lines 2-4).
2. **Phase one** — non-delayed subqueries go to all their endpoints
   concurrently; results of connected subqueries are joined eagerly
   (with the DP join-order optimizer) to obtain the found bindings.
3. **Phase two** — delayed subqueries run serially, most selective
   first, as block-wise bound joins: found bindings of the shared
   variables are shipped in ``VALUES`` blocks, one request per block per
   endpoint.  Generic patterns get their source list refined with the
   bindings first (Alg 3 line 13).
4. Components still disconnected at the end are combined — first by
   value-keyed hash joins for residue conjuncts ``?a = ?b`` spanning two
   of them (:func:`plan_filter_joins`), then by cross product for
   whatever remains.
5. OPTIONAL groups are evaluated last (always delayed) and left-joined;
   the residue conjuncts no join consumed apply at the mediator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.decomposition.subquery import DecompositionPlan, Subquery, values_block
from repro.core.execution.cost_model import CardinalityEstimates
from repro.core.execution.join_order import (
    JoinHints,
    execute_plan,
    plan_joins,
    plan_summary,
)
from repro.core.execution.request_handler import ElasticRequestHandler
from repro.endpoint.client import FederationClient
from repro.exceptions import MemoryLimitError, NetworkError
from repro.net import metrics as metrics_module
from repro.net.simulator import MediatorCostModel
from repro.planning.source_selection import refine_sources_with_bindings
from repro.rdf.terms import Term, Variable
from repro.rdf.triple import TriplePattern
from repro.relational import kernels
from repro.relational.filters import (
    EqualityConjunct,
    conjuncts,
    equality_conjunct,
    make_filter_predicate,
)
from repro.relational.kernels import KernelCounters, kernel_runtime
from repro.relational.relation import Relation
from repro.sparql.serializer import serialize_expression


#: Smallest block the adaptive bound join may shrink to.
MIN_BLOCK = 50
#: Elastic Request Handler worker threads per mediator machine; the
#: engine multiplies it by ``LusailConfig.machines`` for the mediator's
#: thread count (:attr:`MediatorCostModel.threads`).
POOL_SIZE = 8


def adaptive_block_size(
    block_size: int, min_block: int, estimated_rows: float, bindings: int
) -> int:
    """Bound-join block size scaled by estimated rows per binding.

    Selective delayed subqueries (at most one row back per shipped
    binding) keep the full block; unselective ones shrink the block so
    one VALUES request does not ship ``block_size * rows_per_binding``
    rows back at once, clamped to ``[min_block, block_size]``.
    """
    if bindings <= 0:
        return block_size
    rows_per_binding = estimated_rows / bindings
    if rows_per_binding <= 1.0:
        return block_size
    floor = max(1, min(min_block, block_size))
    return max(floor, min(block_size, int(block_size / rows_per_binding)))


def residue_conjuncts(plan: DecompositionPlan) -> list:
    """The branch's mediator residue as a flat list of ``&&`` conjuncts."""
    return [part for expression in plan.residue_filters for part in conjuncts(expression)]


def plan_filter_joins(plan: DecompositionPlan) -> list[tuple[int, EqualityConjunct]]:
    """Residue conjuncts the scheduler evaluates as joins, in join order.

    A conjunct ``?a = ?b`` or ``sameTerm(?a, ?b)`` is *consumed* when
    ``?a`` and ``?b`` are bound by two different required components
    (connected groups of required subqueries).  Required columns are
    always bound, so a later OPTIONAL left join cannot change either
    value and the join's verdict is the filter's.  Each consumed conjunct
    merges its two components, so a later conjunct over the same pair
    stays an ordinary filter.  Returns ``(index into
    residue_conjuncts(plan), conjunct)`` pairs.
    """
    groups: list[set[Variable]] = []
    for subquery in plan.required_subqueries():
        merged = set(subquery.variables())
        for group in [group for group in groups if group & merged]:
            merged |= group
            groups.remove(group)
        groups.append(merged)
    joins: list[tuple[int, EqualityConjunct]] = []
    for index, expression in enumerate(residue_conjuncts(plan)):
        conjunct = equality_conjunct(expression)
        if conjunct is None:
            continue
        left = next((group for group in groups if conjunct.left in group), None)
        right = next((group for group in groups if conjunct.right in group), None)
        if left is None or right is None or left is right:
            continue
        groups.remove(right)
        left |= right
        joins.append((index, conjunct))
    return joins


@dataclass
class SchedulerConfig:
    """Tunable execution knobs (defaults follow the paper)."""

    #: Largest bound-join block; each delayed subquery's block shrinks
    #: with its COUNT-estimated rows-per-binding, never below
    #: :data:`MIN_BLOCK` (see :func:`adaptive_block_size`).
    block_size: int = 500
    refine_sources: bool = True
    greedy_join_order: bool = False
    max_mediator_rows: int | None = 2_000_000
    #: Degradation mode: instead of failing the whole query when an
    #: endpoint is irrecoverable (retries exhausted, breaker open), drop
    #: that endpoint's contribution and record it as completeness
    #: metadata on the query metrics.  Off by default: a failed
    #: subquery fails the query fast.
    partial_results: bool = False


@dataclass
class BranchOutcome:
    relation: Relation
    end_ms: float
    join_cost_units: float = 0.0


@dataclass
class _Component:
    """A connected group of already-evaluated relations, joined eagerly."""

    relation: Relation
    variables: set[Variable] = field(default_factory=set)


class BranchScheduler:
    """Executes one decomposed branch against the federation."""

    def __init__(
        self,
        client: FederationClient,
        plan: DecompositionPlan,
        needed_vars: set[Variable],
        estimates: CardinalityEstimates,
        mediator: MediatorCostModel,
        config: SchedulerConfig,
    ):
        self.client = client
        self.plan = plan
        self.needed_vars = needed_vars
        self.estimates = estimates
        self.mediator = mediator
        self.config = config
        self.handler = ElasticRequestHandler(
            pool_size=mediator.threads,
            endpoint_names=tuple(client.federation.names()),
        )
        self.join_cost_units = 0.0
        #: Columnar-kernel work counters for this branch, flushed to the
        #: metrics registry when :meth:`run` finishes.
        self.kernel_counters = KernelCounters()
        #: Endpoints dropped in partial-results mode; their contribution
        #: is skipped for the rest of the branch.
        self._dead_endpoints: set[str] = set()
        #: Residue conjuncts this branch can evaluate as joins, and the
        #: indexes of those a join actually consumed (skipped by
        #: :meth:`_apply_residue`).
        self.filter_joins = plan_filter_joins(plan)
        self._consumed_conjuncts: set[int] = set()

    # ----------------------------------------------------------- plumbing

    def _live(self, sources: tuple[str, ...]) -> tuple[str, ...]:
        if not self._dead_endpoints:
            return sources
        return tuple(name for name in sources if name not in self._dead_endpoints)

    def _drop_endpoint(self, endpoint: str, exc: NetworkError, at_ms: float) -> float:
        """Record a partial-results drop; returns the failure's timestamp."""
        self._dead_endpoints.add(endpoint)
        self.client.metrics.dropped_endpoints.append(endpoint)
        self.client.registry.inc(
            "partial_drops_total", engine=self.client.engine, endpoint=endpoint
        )
        return exc.at_ms if exc.at_ms is not None else at_ms

    def _guard_rows(self, rows: int) -> None:
        limit = self.config.max_mediator_rows
        if limit is not None and rows > limit:
            self.client.metrics.status = "oom"
            raise MemoryLimitError(
                f"mediator intermediate results exceeded {limit} rows", rows=rows
            )

    def _execute_subquery(
        self, subquery: Subquery, at_ms: float, kind: str = metrics_module.SELECT
    ) -> tuple[Relation, float]:
        """Evaluate a subquery at all its endpoints concurrently."""
        projection = subquery.projection(self.needed_vars) or tuple(
            sorted(subquery.variables(), key=lambda v: v.name)
        )
        query = subquery.to_select(projection)
        relation = Relation(projection, partitions=1)
        finish = at_ms
        mark = self.client.metrics.mark()
        audit = self.client.audit
        with self.client.tracer.span(
            "subquery",
            t0=at_ms,
            subquery=subquery.id,
            delayed=subquery.delayed,
            estimated_cardinality=subquery.estimated_cardinality,
            endpoints=list(subquery.sources),
        ) as span:
            for endpoint in self._live(subquery.sources):
                try:
                    result, end = self.client.select(endpoint, query, at_ms, kind=kind)
                except NetworkError as exc:
                    if not self.config.partial_results:
                        raise
                    finish = max(finish, self._drop_endpoint(endpoint, exc, at_ms))
                    continue
                finish = max(finish, end)
                relation.rows.extend(result.rows)
                if audit.enabled:
                    # SAPE's per-endpoint COUNT-derived estimate against
                    # the rows this endpoint actually returned.
                    audit.record(
                        "sape_cardinality",
                        self.estimates.endpoint_cardinality(
                            subquery, endpoint, self.needed_vars
                        ),
                        len(result.rows),
                        endpoint=endpoint,
                        subquery=subquery.id,
                    )
            if audit.enabled:
                # The aggregate C(sq) that drove the delay decision.
                audit.record(
                    "delay",
                    subquery.estimated_cardinality,
                    len(relation),
                    span=span,
                    subquery=subquery.id,
                    delayed=subquery.delayed,
                )
            span.set(
                rows=len(relation),
                requests=self.client.metrics.requests_since(mark),
            ).end(finish)
        relation.partitions = self.handler.partitions_for(subquery.sources, len(relation))
        self._guard_rows(len(relation))
        return relation, finish

    def _execute_bound_subquery(
        self,
        subquery: Subquery,
        bind_vars: tuple[Variable, ...],
        binding_rows: list[tuple[Term | None, ...]],
        sources: tuple[str, ...],
        at_ms: float,
    ) -> tuple[Relation, float]:
        """Evaluate a delayed subquery with VALUES blocks of bindings."""
        projection = subquery.projection(self.needed_vars) or tuple(
            sorted(subquery.variables(), key=lambda v: v.name)
        )
        relation = Relation(projection, partitions=1)
        finish = at_ms
        block_size = adaptive_block_size(
            self.config.block_size,
            MIN_BLOCK,
            subquery.estimated_cardinality,
            len(binding_rows),
        )
        tracer = self.client.tracer
        metrics = self.client.metrics
        # Every block of this subquery shares one query skeleton, so all
        # blocks after the first should hit the endpoint plan caches;
        # the hit delta on the span confirms compiled-plan reuse.
        plan_hits_before = self.client.registry.counter_value(
            "plan_cache_hits_total", engine=self.client.engine
        )
        with tracer.span(
            "bound_subquery",
            t0=at_ms,
            subquery=subquery.id,
            bindings=len(binding_rows),
            block_size=block_size,
            estimated_cardinality=subquery.estimated_cardinality,
            endpoints=list(sources),
        ) as subquery_span:
            for start in range(0, len(binding_rows), block_size):
                block = binding_rows[start:start + block_size]
                query = subquery.to_select(projection, values=values_block(bind_vars, block))
                mark = metrics.mark()
                rows_before = len(relation)
                with tracer.span(
                    "bound_block", t0=at_ms, block=start // block_size, bindings=len(block)
                ) as block_span:
                    block_end = at_ms
                    for endpoint in self._live(sources):
                        try:
                            result, end = self.client.select(
                                endpoint, query, at_ms, kind=metrics_module.BOUND
                            )
                        except NetworkError as exc:
                            if not self.config.partial_results:
                                raise
                            dropped_at = self._drop_endpoint(endpoint, exc, at_ms)
                            block_end = max(block_end, dropped_at)
                            finish = max(finish, dropped_at)
                            continue
                        block_end = max(block_end, end)
                        finish = max(finish, end)
                        relation.rows.extend(result.rows)
                    block_span.set(
                        rows=len(relation) - rows_before,
                        requests=metrics.requests_since(mark),
                    ).end(block_end)
                self.client.registry.inc(
                    "bound_join_blocks_total", engine=self.client.engine
                )
            audit = self.client.audit
            if audit.enabled:
                # Total rows the COUNT estimate predicted vs. received...
                audit.record(
                    "bound_join",
                    subquery.estimated_cardinality,
                    len(relation),
                    span=subquery_span,
                    subquery=subquery.id,
                    bindings=len(binding_rows),
                )
                # ...and the per-binding selectivity that sized the blocks.
                if binding_rows:
                    audit.record(
                        "block_size",
                        subquery.estimated_cardinality / len(binding_rows),
                        len(relation) / len(binding_rows),
                        span=subquery_span,
                        subquery=subquery.id,
                        block_size=block_size,
                    )
            subquery_span.set(
                rows=len(relation),
                requests=sum(
                    int(child.attrs.get("requests", 0)) for child in subquery_span.children
                ),
                plan_cache_hits=int(
                    self.client.registry.counter_value(
                        "plan_cache_hits_total", engine=self.client.engine
                    )
                    - plan_hits_before
                ),
            ).end(finish)
        relation.partitions = self.handler.partitions_for(sources, len(relation))
        self._guard_rows(len(relation))
        return relation, finish

    def _audit_join_plan(self, plan, joined: Relation, cost: float, span) -> None:
        """Record the join enumerator's estimates against measured reality."""
        audit = self.client.audit
        if not audit.enabled:
            return
        summary = plan_summary(plan)
        span.set(join_order=summary["order"])
        audit.record(
            "join_cost",
            summary["estimated_cost"],
            cost,
            span=span,
            order=summary["order"],
        )
        audit.record("join_rows", summary["estimated_rows"], len(joined), span=span)

    # ----------------------------------------------------------- components

    def _merge_into_components(
        self, components: list[_Component], relation: Relation, at_ms: float = 0.0
    ) -> None:
        """Join a new relation into every component it connects with."""
        vars = set(relation.vars)
        connected = [c for c in components if c.variables & vars]
        merged_relation = relation
        merged_vars = set(vars)
        counters = self.kernel_counters
        fast_before = counters.fast_dispatches
        general_before = counters.general_dispatches
        with self.client.tracer.span(
            "mediator_join", t0=at_ms, inputs=len(connected) + 1
        ) as span:
            for component in connected:
                merged_relation = component.relation.join(merged_relation)
                # Charge the paper's JoinCost from the kernel's measured
                # build/probe row counts, not a pre-join estimate.
                self.join_cost_units += kernels.last_join_cost()
                merged_vars |= component.variables
                components.remove(component)
            span.set(
                rows=len(merged_relation),
                kernel_fast=counters.fast_dispatches - fast_before,
                kernel_general=counters.general_dispatches - general_before,
            ).end(at_ms)
        self.client.registry.inc(
            "mediator_join_rows_total", len(merged_relation), engine=self.client.engine
        )
        self._guard_rows(len(merged_relation))
        components.append(_Component(relation=merged_relation, variables=merged_vars))

    def _bindings_for(
        self, components: list[_Component], variables: set[Variable]
    ) -> tuple[tuple[Variable, ...], list[tuple[Term | None, ...]], int] | None:
        """Find the component sharing variables with a delayed subquery.

        Returns (shared variables, distinct binding rows, binding count),
        or None when nothing evaluated so far connects to the subquery.
        """
        best: tuple[tuple[Variable, ...], list[tuple[Term | None, ...]], int] | None = None
        for component in components:
            shared = tuple(
                sorted(component.variables & variables, key=lambda v: v.name)
            )
            if not shared:
                continue
            projected = component.relation.project(shared).distinct()
            rows = [row for row in projected.rows if None not in row]
            if best is None or len(rows) < best[2]:
                best = (shared, rows, len(rows))
        return best

    def _refined_cardinality(
        self, subquery: Subquery, components: list[_Component]
    ) -> float:
        bindings = self._bindings_for(components, subquery.variables())
        if bindings is None:
            return subquery.estimated_cardinality
        return min(subquery.estimated_cardinality, float(bindings[2]))

    # ------------------------------------------------------------- phases

    def run(self, at_ms: float) -> BranchOutcome:
        """Execute the branch with the columnar kernel runtime installed.

        The runtime streams ``max_mediator_rows`` through the kernels (a
        too-large join aborts mid-probe) and collects kernel counters,
        which are flushed to the metrics registry when the branch ends —
        whether it succeeded, overflowed or failed.
        """
        flushed = dict(self.kernel_counters.items())
        try:
            with kernel_runtime(
                max_rows=self.config.max_mediator_rows,
                counters=self.kernel_counters,
                metrics=self.client.metrics,
            ):
                return self._run(at_ms)
        finally:
            for name, value in self.kernel_counters.items():
                delta = value - flushed[name]
                if delta:
                    self.client.registry.inc(name, delta, engine=self.client.engine)

    def _run(self, at_ms: float) -> BranchOutcome:
        required = self.plan.required_subqueries()
        optional_groups = self.plan.optional_groups()
        tracer = self.client.tracer

        if self.plan.disjoint and not optional_groups:
            with tracer.span("phase1", t0=at_ms, disjoint=True) as span:
                relation, end = self._execute_subquery(required[0], at_ms)
                span.set(rows=len(relation)).end(end)
            relation = self._apply_residue(relation)
            return BranchOutcome(relation, end, self.join_cost_units)

        now = at_ms
        components: list[_Component] = []

        # Phase one: non-delayed required subqueries, concurrently.
        eager = [sq for sq in required if not sq.delayed]
        eager_results: list[tuple[Subquery, Relation]] = []
        with tracer.span("phase1", t0=now, subqueries=[sq.id for sq in eager]) as span:
            phase_end = now
            for subquery in eager:
                relation, end = self._execute_subquery(subquery, now)
                phase_end = max(phase_end, end)
                eager_results.append((subquery, relation))
            now = phase_end

            # Join connected eager results (DP order inside each component).
            components = self._join_eager(eager_results, now)
            span.set(rows=sum(len(r) for __, r in eager_results)).end(now)

        # Phase two: delayed required subqueries, most selective first.
        delayed = [sq for sq in required if sq.delayed]
        if delayed:
            with tracer.span(
                "phase2", t0=now, subqueries=[sq.id for sq in delayed]
            ) as span:
                while delayed:
                    delayed.sort(key=lambda sq: self._refined_cardinality(sq, components))
                    subquery = delayed.pop(0)
                    now = self._run_delayed(subquery, components, now)
                span.end(now)

        # Combine remaining components (cross product only if genuinely
        # disconnected).
        relation = self._combine_components(components, now)

        # OPTIONAL groups: evaluate with bindings, left join.
        for group_id in sorted(optional_groups):
            with tracer.span("optional_group", t0=now, group=group_id) as span:
                relation, now = self._run_optional_group(
                    optional_groups[group_id], relation, now
                )
                span.set(rows=len(relation)).end(now)

        relation = self._apply_residue(relation)
        now += self.mediator.scan_ms(len(relation))
        return BranchOutcome(relation, now, self.join_cost_units)

    def _join_eager(
        self, eager_results: list[tuple[Subquery, Relation]], at_ms: float = 0.0
    ) -> list[_Component]:
        """Group eager relations into connected components and join each."""
        components: list[_Component] = []
        if not eager_results:
            return components
        remaining = list(eager_results)
        while remaining:
            seed_sq, seed_rel = remaining.pop(0)
            group = [(seed_sq, seed_rel)]
            group_vars = set(seed_rel.vars)
            changed = True
            while changed:
                changed = False
                for item in list(remaining):
                    if set(item[1].vars) & group_vars:
                        group.append(item)
                        group_vars |= set(item[1].vars)
                        remaining.remove(item)
                        changed = True
            relations = [relation for __, relation in group]
            if len(relations) == 1:
                joined = relations[0]
            else:
                with self.client.tracer.span(
                    "join_ordering",
                    t0=at_ms,
                    algorithm="greedy" if self.config.greedy_join_order else "dp",
                    inputs=len(relations),
                ) as span:
                    plan = plan_joins(
                        relations,
                        greedy=self.config.greedy_join_order,
                        hints=self._join_hints(group),
                    )
                    joined, cost = execute_plan(plan, relations)
                    self.join_cost_units += cost
                    span.set(rows=len(joined), join_cost_units=cost).end(at_ms)
                    self._audit_join_plan(plan, joined, cost, span)
                self.client.registry.inc(
                    "mediator_join_rows_total", len(joined), engine=self.client.engine
                )
            self._guard_rows(len(joined))
            components.append(_Component(relation=joined, variables=set(joined.vars)))
        return components

    def _join_hints(self, group: list[tuple[Subquery, Relation]]) -> JoinHints | None:
        """Statistics hints for one eager join group.

        Uses only summaries the provider already fetched this query, so
        building the hints is free in virtual time; returns None (the
        min-rule estimator) when no provider is installed or nothing is
        provable.
        """
        provider = getattr(self.client, "stats", None)
        if provider is None:
            return None
        hints = JoinHints()
        for index, (subquery, relation) in enumerate(group):
            for variable in relation.vars:
                count = provider.distinct_values(subquery, variable)
                if count is not None:
                    hints.var_counts[(index, variable)] = float(count)
        for i in range(len(group)):
            for j in range(i + 1, len(group)):
                left_sq, left_rel = group[i]
                right_sq, right_rel = group[j]
                for variable in set(left_rel.vars) & set(right_rel.vars):
                    rows = provider.pair_fanout(left_sq, variable, right_sq)
                    if rows is None:
                        continue
                    key = frozenset((i, j))
                    known = hints.pair_rows.get(key)
                    hints.pair_rows[key] = rows if known is None else min(known, rows)
        if not hints.var_counts and not hints.pair_rows:
            return None
        return hints

    def _run_delayed(
        self, subquery: Subquery, components: list[_Component], now: float
    ) -> float:
        bindings = self._bindings_for(components, subquery.variables())
        sources = subquery.sources

        if bindings is not None and self.config.refine_sources and self._is_generic(subquery):
            sources, now = self._refine_generic_sources(subquery, bindings, sources, now)

        if bindings is None or not bindings[1]:
            if bindings is not None and not bindings[1]:
                # Connected component is empty: the join is empty, skip
                # the remote work entirely.
                relation = Relation(
                    subquery.projection(self.needed_vars)
                    or tuple(sorted(subquery.variables(), key=lambda v: v.name))
                )
                end = now
            else:
                relation, end = self._execute_subquery(subquery, now)
        else:
            bind_vars, rows, __ = bindings
            relation, end = self._execute_bound_subquery(
                subquery, bind_vars, rows, sources, now
            )
        self._merge_into_components(components, relation, end)
        return end

    def _is_generic(self, subquery: Subquery) -> bool:
        return any(
            isinstance(pattern.predicate, Variable) for pattern in subquery.patterns
        )

    def _refine_generic_sources(
        self,
        subquery: Subquery,
        bindings: tuple[tuple[Variable, ...], list[tuple[Term | None, ...]], int],
        sources: tuple[str, ...],
        now: float,
    ) -> tuple[tuple[str, ...], float]:
        """Alg 3 line 13: shrink the source list of generic patterns."""
        bind_vars, rows, __ = bindings
        sample = rows[:3]
        bound_patterns: list[TriplePattern] = []
        for pattern in subquery.patterns:
            shared = pattern.variables() & set(bind_vars)
            if not shared:
                continue
            for row in sample:
                mapping = {
                    var: value
                    for var, value in zip(bind_vars, row)
                    if value is not None and var in shared
                }
                bound_patterns.append(pattern.bind(mapping))
        if not bound_patterns:
            return sources, now
        refined, end = refine_sources_with_bindings(
            self.client,
            subquery.patterns[0],
            bind_vars[0],
            bound_patterns,
            sources,
            now,
        )
        return (refined or sources), end

    def _combine_components(
        self, components: list[_Component], at_ms: float = 0.0
    ) -> Relation:
        if not components:
            return Relation.unit()
        components = list(components)
        for index, conjunct in self.filter_joins:
            self._filter_join(components, index, conjunct, at_ms)
        relations = [component.relation for component in components]
        if len(relations) == 1:
            return relations[0]
        self.client.registry.inc(
            "mediator_cross_products_total", len(relations) - 1, engine=self.client.engine
        )
        with self.client.tracer.span(
            "mediator_join", t0=at_ms, inputs=len(relations), cross_product=True
        ) as span:
            plan = plan_joins(relations, greedy=True)
            joined, cost = execute_plan(plan, relations)
            self.join_cost_units += cost
            span.set(rows=len(joined), join_cost_units=cost).end(at_ms)
            self._audit_join_plan(plan, joined, cost, span)
        self._guard_rows(len(joined))
        return joined

    def _filter_join(
        self,
        components: list[_Component],
        index: int,
        conjunct: EqualityConjunct,
        at_ms: float,
    ) -> None:
        """Merge the two components a residue equality spans by a keyed join.

        The join keeps exactly the cross-product rows the conjunct would
        pass, so the conjunct is marked consumed.  A no-op when one
        component already binds both variables.
        """
        left = next((c for c in components if conjunct.left in c.variables), None)
        right = next((c for c in components if conjunct.right in c.variables), None)
        if left is None or right is None or left is right:
            return
        with self.client.tracer.span(
            "mediator_join",
            t0=at_ms,
            inputs=2,
            filter_join=serialize_expression(conjunct.expression),
        ) as span:
            joined = left.relation.value_join(
                right.relation, conjunct.left, conjunct.right, conjunct.key
            )
            cost = kernels.last_join_cost()
            self.join_cost_units += cost
            span.set(rows=len(joined), join_cost_units=cost).end(at_ms)
        self.client.registry.inc("mediator_filter_joins_total", engine=self.client.engine)
        self._guard_rows(len(joined))
        self._consumed_conjuncts.add(index)
        components.remove(left)
        components.remove(right)
        components.append(
            _Component(relation=joined, variables=left.variables | right.variables)
        )

    def _run_optional_group(
        self, subqueries: list[Subquery], base: Relation, now: float
    ) -> tuple[Relation, float]:
        """Evaluate one OPTIONAL block and left-join it onto the base."""
        group_id = subqueries[0].optional_group
        base_component = _Component(relation=base, variables=set(base.vars))
        group_relation: Relation | None = None
        end = now
        for subquery in sorted(subqueries, key=lambda sq: sq.estimated_cardinality):
            context = [base_component]
            if group_relation is not None:
                context.append(
                    _Component(relation=group_relation, variables=set(group_relation.vars))
                )
            bindings = self._bindings_for(context, subquery.variables())
            if bindings is not None and bindings[1]:
                bind_vars, rows, __ = bindings
                relation, end = self._execute_bound_subquery(
                    subquery, bind_vars, rows, subquery.sources, now
                )
            else:
                relation, end = self._execute_subquery(subquery, now)
            now = end
            if group_relation is None:
                group_relation = relation
            else:
                group_relation = group_relation.join(relation)
                self.join_cost_units += kernels.last_join_cost()
            self._guard_rows(len(group_relation))
        if group_relation is None:
            return base, now
        for expression in self.plan.optional_residue.get(group_id, ()):
            group_relation = group_relation.filter(make_filter_predicate(expression))
        joined = base.left_join(group_relation)
        self.join_cost_units += kernels.last_join_cost()
        return joined, now

    def _apply_residue(self, relation: Relation, consumed: bool = False) -> Relation:
        """Filter by the residue conjuncts no join consumed.

        With ``consumed=True``, by exactly the consumed ones instead — for
        rows that did not come through the filter join (partial
        evaluation's local-complete matches).
        """
        for index, expression in enumerate(residue_conjuncts(self.plan)):
            if (index in self._consumed_conjuncts) == consumed:
                relation = relation.filter(make_filter_predicate(expression))
        return relation
