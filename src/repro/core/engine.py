"""The Lusail engine: LADE decomposition + SAPE execution.

This is the paper's system (Fig 4) end to end:

1. **Source selection** — one cached ASK per triple pattern per endpoint.
2. **Query analysis (LADE)** — detect global join variables with locality
   check queries (Alg 1), decompose each conjunctive branch into
   locality-safe subqueries (Alg 2), push filters, and collect COUNT
   statistics for the cost model.
3. **Query execution (SAPE)** — delay large subqueries (``mu + sigma``
   threshold after Chauvenet rejection), evaluate eager subqueries
   concurrently, bound-join the delayed ones block-wise, and join results
   with the DP join-order optimizer (Alg 3).

Configuration flags expose the paper's ablations: decomposition mode,
delay policy, Chauvenet on/off, DP vs greedy join ordering, source
refinement, and caching.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.core.decomposition.decomposer import decompose, enumerate_decompositions
from repro.core.decomposition.gjv import GJVResult, detect_gjvs
from repro.core.decomposition.subquery import DecompositionPlan, Subquery
from repro.core.execution.cost_model import (
    DelayPolicy,
    collect_statistics,
    decide_delays,
)
from repro.core.execution.partial import (
    PartialBranchScheduler,
    StrategyDecision,
    choose_strategy,
)
from repro.core.execution.scheduler import (
    MIN_BLOCK,
    POOL_SIZE,
    BranchScheduler,
    SchedulerConfig,
    adaptive_block_size,
    plan_filter_joins,
)
from repro.endpoint.cache import EngineCaches
from repro.endpoint.client import FederationClient
from repro.endpoint.federation import Federation
from repro.net.simulator import MediatorCostModel, NetworkConfig
from repro.planning.base_engine import DEFAULT_TIMEOUT_MS, FederatedEngine
from repro.planning.normalize import Branch, NormalizedQuery, partition_filters
from repro.planning.source_selection import SourceSelection, select_sources
from repro.rdf.terms import Variable
from repro.rdf.triple import TriplePattern
from repro.relational.relation import Relation
from repro.sparql.ast import VarExpr


@dataclass
class LusailConfig:
    """Engine knobs; defaults match the paper's chosen settings."""

    #: "lade" = locality-aware (the contribution); "exclusive" = schema-only
    #: exclusive groups (ablation baseline); "triple" = one subquery per
    #: triple pattern (the naive strategy of Sec II).
    decomposition: str = "lade"
    delay_policy: DelayPolicy = DelayPolicy.MU_SIGMA
    use_chauvenet: bool = True
    enable_delay: bool = True
    #: Adaptive bound-join blocks: each delayed subquery's block shrinks
    #: with its COUNT-estimated rows-per-binding, never below MIN_BLOCK.
    block_size: int = 500
    refine_sources: bool = True
    greedy_join_order: bool = False
    max_mediator_rows: int | None = 2_000_000
    #: Compile-time decomposition choice (the paper's stated future
    #: work): enumerate the decompositions reachable by different GJV
    #: traversal orders and pick the one with the smallest estimated
    #: intermediate results.
    optimize_decomposition: bool = False
    #: Multi-machine execution (paper Sec V, supported feature): the
    #: mediator's worker pool and join parallelism scale with the number
    #: of machines hosting it.
    machines: int = 1
    #: Degradation under faults (see docs/resilience.md): drop an
    #: irrecoverable endpoint's contribution instead of failing the
    #: query, reporting completeness metadata.
    partial_results: bool = False
    #: Planner statistics source: "charsets" answers ASK / COUNT / check
    #: questions from per-endpoint characteristic-set summaries when
    #: provable (remote probes as fallback); "probe" is the pure
    #: per-query probe path the paper describes.
    statistics: str = "charsets"
    #: Execution strategy for required subqueries: "bound-join" is the
    #: paper's SAPE ladder, "partial" ships the whole branch to every
    #: endpoint in one round and assembles partial matches at the
    #: mediator (:mod:`repro.core.execution.partial`), and "auto" picks
    #: per branch from the charset-statistics cost estimates.
    strategy: str = "bound-join"

    def scheduler_config(self) -> SchedulerConfig:
        return SchedulerConfig(
            block_size=self.block_size,
            refine_sources=self.refine_sources,
            greedy_join_order=self.greedy_join_order,
            max_mediator_rows=self.max_mediator_rows,
            partial_results=self.partial_results,
        )


@dataclass
class QueryPlanInfo:
    """Per-query plan details exposed for inspection and experiments."""

    branch_plans: list[DecompositionPlan] = field(default_factory=list)
    gjv_names: list[str] = field(default_factory=list)
    subquery_count: int = 0
    delayed_count: int = 0
    check_queries: int = 0


class LusailEngine(FederatedEngine):
    """Lusail: locality-aware decomposition + selectivity-aware execution."""

    name = "Lusail"

    def __init__(
        self,
        federation: Federation,
        config: LusailConfig | None = None,
        network_config: NetworkConfig | None = None,
        caches: EngineCaches | None = None,
        timeout_ms: float | None = DEFAULT_TIMEOUT_MS,
        mediator: MediatorCostModel | None = None,
    ):
        super().__init__(federation, network_config, caches, timeout_ms)
        self.config = config or LusailConfig()
        self.statistics = self.config.statistics
        machines = max(1, self.config.machines)
        if machines > 1:
            # Each extra machine contributes its own request workers.
            self.network_config = replace(
                self.network_config,
                mediator_slots=self.network_config.mediator_slots * machines,
            )
        self.mediator = mediator or MediatorCostModel(
            threads=POOL_SIZE * machines
        )
        self.last_plan: QueryPlanInfo | None = None
        #: Scheduler class; the multi-query optimizer swaps in a sharing
        #: variant (see :mod:`repro.core.mqo`).
        self.scheduler_class: type[BranchScheduler] = BranchScheduler

    # ------------------------------------------------------------ pipeline

    def _execute_normalized(
        self, client: FederationClient, normalized: NormalizedQuery
    ) -> tuple[Relation, float]:
        plan_info = QueryPlanInfo()
        self.last_plan = plan_info

        union_relation: Relation | None = None
        end_ms = 0.0
        phase_maxima: dict[str, float] = {}
        # Branch schedulers install their own kernel runtime; this outer
        # one covers the cross-branch UNIONs with the same row limit.
        with self._mediator_runtime(client, self.config.max_mediator_rows):
            for branch in normalized.branches:
                relation, branch_end, phases = self._execute_branch(
                    client, branch, normalized, plan_info
                )
                end_ms = max(end_ms, branch_end)
                for phase, duration in phases.items():
                    phase_maxima[phase] = max(phase_maxima.get(phase, 0.0), duration)
                union_relation = relation if union_relation is None else union_relation.union(relation)
        assert union_relation is not None  # normalize() guarantees >= 1 branch
        # Branches execute concurrently: the phase profile is the maximum
        # across branches, not the sum.
        client.metrics.phase_ms = dict(phase_maxima)
        return union_relation, end_ms

    def _execute_branch(
        self,
        client: FederationClient,
        branch: Branch,
        normalized: NormalizedQuery,
        plan_info: QueryPlanInfo,
    ) -> tuple[Relation, float, dict[str, float]]:
        now = 0.0
        phases: dict[str, float] = {}
        tracer = client.tracer

        with tracer.span("branch", t0=0.0) as branch_span:
            # ---- Phase 1: source selection ----------------------------
            all_patterns = list(branch.all_patterns())
            mark = client.metrics.mark()
            with tracer.span("source_selection", t0=0.0) as span:
                selection, now = select_sources(client, all_patterns, now)
                span.set(
                    patterns=len(all_patterns),
                    requests=client.metrics.requests_since(mark),
                ).end(now)
            phases["source_selection"] = now

            missing_required = [
                pattern for pattern in branch.patterns if not selection.relevant(pattern)
            ]
            if missing_required:
                # Some required pattern has no source anywhere: empty answer.
                branch_span.set(empty="no source for required pattern").end(now)
                return Relation(tuple(normalized.projected_variables())), now, phases

            # ---- Phase 2: analysis (LADE + statistics) -----------------
            analysis_start = now
            with tracer.span("analysis", t0=now) as analysis_span:
                with tracer.span("decomposition", t0=now) as span:
                    plan, now = self._decompose_branch(client, branch, selection, now)
                    span.set(
                        subqueries=len(plan.subqueries),
                        gjvs=plan.gjv_names(),
                        check_queries=plan.check_query_count,
                    ).end(now)
                plan_info.branch_plans.append(plan)
                plan_info.gjv_names = sorted(set(plan_info.gjv_names) | set(plan.gjv_names()))
                plan_info.subquery_count += len(plan.subqueries)
                plan_info.check_queries += plan.check_query_count

                needed_vars = self._needed_variables(plan, normalized)

                estimates, now = collect_statistics(client, plan.subqueries, now)
                with tracer.span("delay_decision", t0=now) as span:
                    if self.config.enable_delay:
                        decision = decide_delays(
                            plan.subqueries,
                            estimates,
                            projected=needed_vars,
                            policy=self.config.delay_policy,
                            use_chauvenet=self.config.use_chauvenet,
                        )
                        span.set(
                            policy=str(self.config.delay_policy.value),
                            cardinality_threshold=decision.cardinality_threshold,
                            endpoint_threshold=decision.endpoint_threshold,
                            delayed=sorted(decision.delayed_ids),
                            chauvenet_rejected=sorted(decision.cardinality_rejected_ids),
                            estimated_cardinalities=decision.cardinalities,
                        )
                    else:
                        for subquery in plan.subqueries:
                            subquery.estimated_cardinality = estimates.subquery_cardinality(
                                subquery, needed_vars
                            )
                            subquery.delayed = False
                        span.set(policy="disabled", delayed=[])
                    span.end(now)
                analysis_span.end(now)
            delayed_count = sum(1 for sq in plan.subqueries if sq.delayed)
            plan_info.delayed_count += delayed_count
            client.registry.inc("subqueries_total", len(plan.subqueries), engine=self.name)
            client.registry.inc("delayed_subqueries_total", delayed_count, engine=self.name)
            client.registry.inc(
                "check_queries_total", plan.check_query_count, engine=self.name
            )
            phases["analysis"] = now - analysis_start

            # ---- Phase 3: execution (SAPE or partial evaluation) -------
            execution_start = now
            scheduler_class, decision = self._resolve_strategy(
                plan, needed_vars, estimates, client
            )
            with tracer.span(
                "execution", t0=now, strategy=decision.strategy
            ) as span:
                scheduler = scheduler_class(
                    client=client,
                    plan=plan,
                    needed_vars=needed_vars,
                    estimates=estimates,
                    mediator=self.mediator,
                    config=self.config.scheduler_config(),
                )
                outcome = scheduler.run(now)
                now = outcome.end_ms + self.mediator.row_ms * outcome.join_cost_units
                if client.audit.enabled:
                    # The picker's crossing-selectivity estimate against
                    # the digest-pruning survival the partial round
                    # actually measured (echoed for bound-join runs,
                    # where nothing measures it).  Recorded as percent:
                    # the q-error histogram clamps values below 1.
                    actual = (
                        scheduler.actual_crossing_selectivity()
                        if isinstance(scheduler, PartialBranchScheduler)
                        else decision.estimated_crossing_selectivity
                    )
                    client.audit.record(
                        "strategy",
                        100.0 * decision.estimated_crossing_selectivity,
                        100.0 * actual,
                        span=span,
                        strategy=decision.strategy,
                        reason=decision.reason,
                        est_partial_rows=round(decision.est_partial_rows, 1),
                        est_bound_rows=round(decision.est_bound_rows, 1),
                    )
                if client.audit.enabled and plan.subqueries:
                    # SAPE treats max C(sq) as the bound on what the
                    # branch can produce; audit it against the branch's
                    # actual result size.
                    client.audit.record(
                        "branch_rows",
                        max(sq.estimated_cardinality for sq in plan.subqueries),
                        len(outcome.relation),
                        span=span,
                    )
                counters = scheduler.kernel_counters
                span.set(
                    rows=len(outcome.relation),
                    join_cost_units=outcome.join_cost_units,
                    kernel_fast=counters.fast_dispatches,
                    kernel_general=counters.general_dispatches,
                    kernel_rows_emitted=counters.rows_emitted,
                ).end(now)
            phases["execution"] = now - execution_start
            client.metrics.mediator_rows = max(
                client.metrics.mediator_rows, len(outcome.relation)
            )
            branch_span.set(rows=len(outcome.relation)).end(now)
        return outcome.relation, now, phases

    # ------------------------------------------------------------ strategy

    def _resolve_strategy(
        self, plan, needed_vars, estimates, client
    ) -> tuple[type[BranchScheduler], StrategyDecision]:
        """Pick the branch scheduler class for the configured strategy.

        The multi-query optimizer swaps ``scheduler_class`` for a
        sharing variant; partial evaluation cannot substitute for that,
        so any non-default scheduler always wins and the decision is
        recorded as forced.
        """
        requested = self.config.strategy
        if requested not in ("auto", "partial", "bound-join"):
            raise ValueError(f"unknown execution strategy {requested!r}")
        if self.scheduler_class is not BranchScheduler:
            decision = choose_strategy(plan, needed_vars, estimates, client)
            return self.scheduler_class, replace(
                decision,
                strategy="bound-join",
                reason="scheduler overridden (multi-query optimizer)",
            )
        decision = choose_strategy(plan, needed_vars, estimates, client)
        if requested != "auto" and requested != decision.strategy:
            decision = replace(
                decision, strategy=requested, reason="forced by configuration"
            )
        if decision.strategy == "partial":
            return PartialBranchScheduler, decision
        return BranchScheduler, decision

    # -------------------------------------------------------- decomposition

    def _decompose_branch(
        self,
        client: FederationClient,
        branch: Branch,
        selection: SourceSelection,
        now: float,
    ) -> tuple[DecompositionPlan, float]:
        mode = self.config.decomposition
        check_count = 0

        if mode == "lade":
            gjvs, now = detect_gjvs(client, list(branch.patterns), selection, now)
            check_count += gjvs.check_queries_run
            if self.config.optimize_decomposition and gjvs.variables:
                required_groups, now = self._choose_decomposition(
                    client, list(branch.patterns), gjvs, selection, now
                )
            else:
                required_groups = decompose(list(branch.patterns), gjvs, selection)
        elif mode == "exclusive":
            gjvs = GJVResult()
            required_groups = _exclusive_groups(list(branch.patterns), selection)
        elif mode == "triple":
            gjvs = GJVResult()
            required_groups = [[pattern] for pattern in branch.patterns]
        else:
            raise ValueError(f"unknown decomposition mode {mode!r}")

        # OPTIONAL blocks are decomposed independently, under the same
        # locality rules, and tagged with their group index.
        optional_plans: list[tuple[int, list[list[TriplePattern]]]] = []
        for index, block in enumerate(branch.optionals):
            if any(not selection.relevant(pattern) for pattern in block.patterns):
                # The block can never match anywhere: OPTIONAL contributes
                # nothing and the base rows pass through unextended.
                continue
            block_patterns = list(block.patterns)
            if mode == "lade":
                block_gjvs, now = detect_gjvs(client, block_patterns, selection, now)
                check_count += block_gjvs.check_queries_run
                groups = decompose(block_patterns, block_gjvs, selection)
            elif mode == "exclusive":
                groups = _exclusive_groups(block_patterns, selection)
            else:
                groups = [[pattern] for pattern in block_patterns]
            optional_plans.append((index, groups))

        # Push filters: each filter goes to the first group covering all
        # its variables; leftovers run at the mediator.
        group_var_sets = [
            {variable for pattern in group for variable in pattern.variables()}
            for group in required_groups
        ]
        pushed, residue = partition_filters(branch.filters, group_var_sets)

        subqueries: list[Subquery] = []
        next_id = 0
        for group, filters in zip(required_groups, pushed):
            subqueries.append(
                Subquery(
                    id=next_id,
                    patterns=tuple(group),
                    sources=_group_sources(group, selection),
                    filters=tuple(filters),
                )
            )
            next_id += 1

        optional_residue: dict[int, tuple] = {}
        for block_index, groups in optional_plans:
            block = branch.optionals[block_index]
            block_var_sets = [
                {variable for pattern in group for variable in pattern.variables()}
                for group in groups
            ]
            block_pushed, block_residue = partition_filters(block.filters, block_var_sets)
            if block_residue:
                optional_residue[block_index] = tuple(block_residue)
            for group, filters in zip(groups, block_pushed):
                subqueries.append(
                    Subquery(
                        id=next_id,
                        patterns=tuple(group),
                        sources=_group_sources(group, selection),
                        filters=tuple(filters),
                        optional_group=block_index,
                    )
                )
                next_id += 1

        disjoint = (
            len(subqueries) == 1
            and subqueries[0].optional_group is None
            and not residue
        )
        plan = DecompositionPlan(
            subqueries=subqueries,
            global_join_variables=dict(gjvs.variables),
            residue_filters=tuple(residue),
            optional_residue=optional_residue,
            disjoint=disjoint,
            check_query_count=check_count,
        )
        return plan, now

    def _choose_decomposition(
        self,
        client: FederationClient,
        patterns: list[TriplePattern],
        gjvs,
        selection: SourceSelection,
        now: float,
    ) -> tuple[list[list[TriplePattern]], float]:
        """Pick the decomposition with the smallest estimated
        intermediate results (the paper's Sec IV-C future work).

        Candidates come from permuting the GJV traversal order; each is
        scored with the SAPE cardinality rule over per-pattern COUNT
        statistics (collected once, cached).
        """
        candidates = enumerate_decompositions(patterns, gjvs, selection)
        if len(candidates) == 1:
            return candidates[0], now
        probes = [
            Subquery(id=index, patterns=(pattern,), sources=selection.relevant(pattern))
            for index, pattern in enumerate(patterns)
        ]
        estimates, now = collect_statistics(client, probes, now)

        def score(groups: list[list[TriplePattern]]) -> tuple[float, int]:
            total = 0.0
            for index, group in enumerate(groups):
                subquery = Subquery(
                    id=index,
                    patterns=tuple(group),
                    sources=_group_sources(group, selection),
                )
                total += estimates.subquery_cardinality(subquery, set())
            return (total, len(groups))

        best = min(candidates, key=score)
        return best, now

    # ------------------------------------------------------------- helpers

    def _needed_variables(
        self, plan: DecompositionPlan, normalized: NormalizedQuery
    ) -> set[Variable]:
        """Variables subqueries must project: final projection, join
        variables shared across subqueries, residue-filter and ORDER BY
        variables."""
        needed: set[Variable] = set(normalized.projected_variables())
        for expression in plan.residue_filters:
            needed |= expression.variables()
        for filters in plan.optional_residue.values():
            for expression in filters:
                needed |= expression.variables()
        for condition in normalized.order_by:
            if isinstance(condition.expression, VarExpr):
                needed.add(condition.expression.variable)
        seen: dict[Variable, int] = {}
        for subquery in plan.subqueries:
            for variable in subquery.variables():
                seen[variable] = seen.get(variable, 0) + 1
        needed |= {variable for variable, count in seen.items() if count >= 2}
        return needed

    def _explain_block_size(self, subquery, plan, decision) -> str:
        """Planned bound-join block size line for one delayed subquery.

        At compile time the binding count is unknown; it is approximated
        by the smallest estimated cardinality among the eager subqueries
        sharing a variable — the component the bindings will come from.
        """
        cardinality = decision.cardinalities.get(
            subquery.id, subquery.estimated_cardinality
        )
        shared_cards = [
            decision.cardinalities.get(other.id, other.estimated_cardinality)
            for other in plan.subqueries
            if not other.delayed
            and other.optional_group is None
            and other.variables() & subquery.variables()
        ]
        if not shared_cards:
            return (
                f"bound-join block size: {self.config.block_size} "
                "(adaptive, no connected eager bindings estimate)"
            )
        bindings = max(1, int(min(shared_cards)))
        planned = adaptive_block_size(
            self.config.block_size, MIN_BLOCK, cardinality, bindings
        )
        return (
            f"bound-join block size: {planned} "
            f"(adaptive, est. {cardinality / bindings:.1f} rows/binding, "
            f"clamp [{min(MIN_BLOCK, self.config.block_size)}, "
            f"{self.config.block_size}])"
        )

    def explain(self, query) -> str:
        """Compile-time plan report: sources, GJVs, subqueries, delays.

        Runs source selection and the full LADE/SAPE analysis (issuing
        the same probe requests an execution would, and warming the same
        caches) but stops before any subquery is evaluated.
        """
        from repro.planning.normalize import normalize
        from repro.sparql.parser import parse_query as _parse

        if isinstance(query, str):
            query = _parse(query)
        normalized = normalize(query)
        client = self.build_client()
        lines: list[str] = []
        for branch_index, branch in enumerate(normalized.branches):
            lines.append(f"branch {branch_index}:")
            selection, now = select_sources(client, list(branch.all_patterns()), 0.0)
            plan, now = self._decompose_branch(client, branch, selection, now)
            needed = self._needed_variables(plan, normalized)
            estimates, now = collect_statistics(client, plan.subqueries, now)
            decision = decide_delays(
                plan.subqueries,
                estimates,
                projected=needed,
                policy=self.config.delay_policy,
                use_chauvenet=self.config.use_chauvenet,
            )
            lines.append(f"  global join variables: {plan.gjv_names() or '(none)'}")
            lines.append(f"  check queries run: {plan.check_query_count}")
            __, strategy_decision = self._resolve_strategy(
                plan, needed, estimates, client
            )
            lines.append(
                f"  strategy [{self.config.strategy}]: "
                f"{strategy_decision.strategy} ({strategy_decision.reason}; "
                f"est. crossing selectivity "
                f"{strategy_decision.estimated_crossing_selectivity:.2f})"
            )
            lines.append(
                f"  delay decision [{self.config.delay_policy.value}]: "
                f"cardinality threshold={decision.cardinality_threshold:.1f}, "
                f"endpoint threshold={decision.endpoint_threshold:.1f}"
            )
            rejected = sorted(
                decision.cardinality_rejected_ids | decision.endpoint_rejected_ids
            )
            lines.append(
                "  chauvenet rejected: "
                + (f"subqueries {rejected}" if rejected else "(none)")
            )
            if plan.disjoint:
                lines.append("  disjoint: whole branch evaluated per endpoint")
            for subquery in plan.subqueries:
                tag = "OPTIONAL " if subquery.optional_group is not None else ""
                delay = "delayed" if subquery.delayed else "eager"
                cardinality = decision.cardinalities.get(
                    subquery.id, subquery.estimated_cardinality
                )
                comparison = ">=" if cardinality >= decision.cardinality_threshold else "<"
                lines.append(
                    f"  {tag}subquery {subquery.id} [{delay}, "
                    f"est.card={cardinality:.0f} {comparison} "
                    f"threshold {decision.cardinality_threshold:.1f}, "
                    f"endpoints={decision.endpoint_counts.get(subquery.id, len(subquery.sources))}"
                    f"{', chauvenet-rejected' if subquery.id in rejected else ''}] "
                    f"sources={list(subquery.sources)}"
                )
                if subquery.delayed:
                    lines.append(
                        "    " + self._explain_block_size(subquery, plan, decision)
                    )
                for pattern in subquery.patterns:
                    lines.append(f"    {pattern.n3()}")
                for expression in subquery.filters:
                    from repro.sparql.serializer import serialize_expression

                    lines.append(f"    FILTER {serialize_expression(expression)}")
            if plan.residue_filters:
                from repro.sparql.serializer import serialize_expression

                for expression in plan.residue_filters:
                    lines.append(f"  mediator FILTER {serialize_expression(expression)}")
                for __, conjunct in plan_filter_joins(plan):
                    lines.append(
                        f"  mediator FILTER join: {serialize_expression(conjunct.expression)} "
                        f"(value-keyed hash join on {conjunct.left.n3()} = "
                        f"{conjunct.right.n3()}, no cross product)"
                    )
        return "\n".join(lines)

    def with_config(self, **overrides) -> "LusailEngine":
        """A copy of this engine with config overrides (fresh caches)."""
        return LusailEngine(
            federation=self.federation,
            config=replace(self.config, **overrides),
            network_config=self.network_config,
            timeout_ms=self.timeout_ms,
            mediator=self.mediator,
        )


def _group_sources(group: list[TriplePattern], selection: SourceSelection) -> tuple[str, ...]:
    """Relevant endpoints for a subquery.

    LADE groups guarantee identical per-pattern source lists; for the
    disjoint whole-branch case the intersection is the set of endpoints
    able to answer every pattern.
    """
    sources = set(selection.relevant(group[0]))
    for pattern in group[1:]:
        sources &= set(selection.relevant(pattern))
    # Preserve the deterministic order of the first pattern's list.
    return tuple(name for name in selection.relevant(group[0]) if name in sources)


def _exclusive_groups(
    patterns: list[TriplePattern], selection: SourceSelection
) -> list[list[TriplePattern]]:
    """FedX-style schema-only grouping (used for the LADE ablation).

    Patterns answerable by exactly one and the same endpoint form an
    exclusive group; every other pattern is its own subquery.
    """
    groups: dict[tuple[str, ...], list[TriplePattern]] = {}
    singletons: list[list[TriplePattern]] = []
    for pattern in patterns:
        sources = selection.relevant(pattern)
        if len(sources) == 1:
            groups.setdefault(sources, []).append(pattern)
        else:
            singletons.append([pattern])
    return list(groups.values()) + singletons
