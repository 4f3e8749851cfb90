"""FedX re-implementation (Schwarte et al., ISWC 2011).

The index-free baseline the paper compares against most.  Pipeline:

1. cached ASK source selection, one probe per triple pattern per endpoint;
2. exclusive groups for patterns with a single (shared) relevant source;
3. variable-counting join order;
4. left-deep execution: first operand evaluated unbound, every further
   operand via serial block bound joins (block size 15);
5. OPTIONAL blocks as left bound joins at the end; residual filters and
   solution modifiers at the mediator.

FedX cannot group patterns whose (identical) schema answers live at
several endpoints — the situation of the paper's Sec II experiment —
so such queries degrade to one-pattern-at-a-time bound joins.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.bound_join import DEFAULT_BLOCK_SIZE, bound_join, evaluate_operand
from repro.baselines.operands import Operand, build_operands, order_operands
from repro.endpoint.client import FederationClient
from repro.exceptions import MemoryLimitError
from repro.planning.base_engine import FederatedEngine
from repro.planning.normalize import Branch, NormalizedQuery
from repro.planning.source_selection import SourceSelection, select_sources
from repro.rdf.terms import Variable
from repro.relational.filters import make_filter_predicate
from repro.relational.relation import Relation
from repro.sparql.ast import Expression


@dataclass
class FedXConfig:
    block_size: int = DEFAULT_BLOCK_SIZE
    max_mediator_rows: int | None = 2_000_000


class FedXEngine(FederatedEngine):
    """Index-free federation with exclusive groups and bound joins."""

    name = "FedX"

    def __init__(self, federation, network_config=None, caches=None,
                 timeout_ms=None, config: FedXConfig | None = None):
        from repro.planning.base_engine import DEFAULT_TIMEOUT_MS

        super().__init__(
            federation,
            network_config,
            caches,
            timeout_ms if timeout_ms is not None else DEFAULT_TIMEOUT_MS,
        )
        self.config = config or FedXConfig()

    # ----------------------------------------------------------- hooks

    def _prune_sources(self, client: FederationClient, branch: Branch,
                       selection: SourceSelection, at_ms: float) -> float:
        """Source-selection refinement hook (overridden by HiBISCuS)."""
        return at_ms

    # --------------------------------------------------------- pipeline

    def _execute_normalized(
        self, client: FederationClient, normalized: NormalizedQuery
    ) -> tuple[Relation, float]:
        union_relation: Relation | None = None
        end_ms = 0.0
        with self._mediator_runtime(client, self.config.max_mediator_rows):
            for branch in normalized.branches:
                relation, branch_end = self._execute_branch(client, branch, normalized)
                end_ms = max(end_ms, branch_end)
                union_relation = relation if union_relation is None else union_relation.union(relation)
        assert union_relation is not None
        return union_relation, end_ms

    def _execute_branch(
        self,
        client: FederationClient,
        branch: Branch,
        normalized: NormalizedQuery,
    ) -> tuple[Relation, float]:
        now = 0.0
        all_patterns = list(branch.all_patterns())
        mark = client.metrics.mark()
        with client.tracer.span("source_selection", t0=0.0) as span:
            selection, now = select_sources(client, all_patterns, now)
            now = self._prune_sources(client, branch, selection, now)
            span.set(
                patterns=len(all_patterns),
                requests=client.metrics.requests_since(mark),
            ).end(now)
        client.metrics.add_phase("source_selection", now)

        if any(not selection.relevant(pattern) for pattern in branch.patterns):
            return Relation(tuple(normalized.projected_variables())), now

        operands, residue = build_operands(
            list(branch.patterns), selection, branch.filters
        )
        ordered = order_operands(operands)
        projection = self._projection(branch, normalized, residue)

        execution_start = now
        # FedX cuts query execution short once the first LIMIT results
        # are obtained (the paper credits exactly this for FedX winning
        # C4).  Safe only for plain LIMIT: no ORDER BY, no DISTINCT, no
        # OPTIONAL blocks, and a single branch.
        stop_after: int | None = None
        if (
            normalized.limit is not None
            and not normalized.order_by
            and not normalized.distinct
            and not branch.optionals
            and len(normalized.branches) == 1
        ):
            stop_after = normalized.limit + normalized.offset

        relation: Relation | None = None
        if stop_after is not None and len(ordered) > 1:
            relation, now = self._pipelined_limit(
                client, ordered, projection, now, stop_after
            )
        else:
            for index, operand in enumerate(ordered):
                operand_projection = tuple(
                    sorted(operand.variables() & projection, key=lambda v: v.name)
                )
                is_last = index == len(ordered) - 1
                if relation is None:
                    relation, now = evaluate_operand(client, operand, operand_projection, now)
                else:
                    relation, now = bound_join(
                        client, relation, operand, operand_projection, now,
                        block_size=self.config.block_size,
                        stop_after_rows=stop_after if is_last else None,
                    )
                self._guard_rows(client, relation)
                if not relation.rows:
                    break

        assert relation is not None  # normalize() guarantees >= 1 pattern
        # OPTIONAL blocks: left bound joins, one block at a time.
        if relation.rows:
            for index, block in enumerate(branch.optionals):
                if any(not selection.relevant(pattern) for pattern in block.patterns):
                    continue
                block_operands, block_residue = build_operands(
                    list(block.patterns), selection, block.filters, optional_group=index
                )
                optional_relation: Relation | None = None
                for operand in order_operands(block_operands):
                    operand_projection = tuple(
                        sorted(
                            operand.variables() & (projection | set(relation.vars)),
                            key=lambda v: v.name,
                        )
                    )
                    if optional_relation is None:
                        seed = relation
                        optional_relation, now = self._fetch_optional_seed(
                            client, seed, operand, operand_projection, now
                        )
                    else:
                        optional_relation, now = bound_join(
                            client, optional_relation, operand, operand_projection, now,
                            block_size=self.config.block_size,
                        )
                    self._guard_rows(client, optional_relation)
                if optional_relation is not None:
                    for expression in block_residue:
                        optional_relation = optional_relation.filter(
                            make_filter_predicate(expression)
                        )
                    relation = relation.left_join(optional_relation)
                    self._guard_rows(client, relation)

        for expression in residue:
            relation = relation.filter(make_filter_predicate(expression))
        client.metrics.add_phase("execution", now - execution_start)
        client.metrics.mediator_rows = max(client.metrics.mediator_rows, len(relation))
        return relation, now

    def _pipelined_limit(
        self,
        client: FederationClient,
        ordered: list[Operand],
        projection: set[Variable],
        now: float,
        stop_after: int,
    ) -> tuple[Relation, float]:
        """FedX's first-results cut-off: push chunks of the first
        operand's result through the whole bound-join pipeline and stop
        as soon as ``stop_after`` final rows exist."""
        first = ordered[0]
        first_projection = tuple(
            sorted(first.variables() & projection, key=lambda v: v.name)
        )
        seed, now = evaluate_operand(client, first, first_projection, now)
        self._guard_rows(client, seed)

        final: Relation | None = None
        chunk_size = max(self.config.block_size, 1)
        for start in range(0, len(seed.rows), chunk_size):
            # Columnar slice: no decode/re-encode of the chunk's rows.
            piped = seed.limit(chunk_size, offset=start)
            for operand in ordered[1:]:
                operand_projection = tuple(
                    sorted(operand.variables() & projection, key=lambda v: v.name)
                )
                piped, now = bound_join(
                    client, piped, operand, operand_projection, now,
                    block_size=self.config.block_size,
                )
                if not piped.rows:
                    break
            if piped.rows:
                final = piped if final is None else final.union(piped)
                self._guard_rows(client, final)
                if len(final) >= stop_after:
                    break
        if final is None:
            out_vars = tuple(sorted(projection, key=lambda v: v.name))
            final = Relation(out_vars)
        return final, now

    def _fetch_optional_seed(
        self,
        client: FederationClient,
        base: Relation,
        operand: Operand,
        projection: tuple[Variable, ...],
        now: float,
    ) -> tuple[Relation, float]:
        """First operand of an OPTIONAL block: bound by the base relation."""
        shared = tuple(
            sorted(set(base.vars) & operand.variables(), key=lambda v: v.name)
        )
        if not shared:
            return evaluate_operand(client, operand, projection, now)
        # Bind against the base but return only the block's own relation,
        # so subsequent block operands chain off it.
        joined, end = bound_join(
            client,
            base.project(shared).distinct(),
            operand,
            projection,
            now,
            block_size=self.config.block_size,
        )
        return joined, end

    def _projection(
        self,
        branch: Branch,
        normalized: NormalizedQuery,
        residue: list[Expression],
    ) -> set[Variable]:
        needed = set(normalized.projected_variables())
        for expression in residue:
            needed |= expression.variables()
        for condition in normalized.order_by:
            needed |= condition.expression.variables()
        # Join variables must be carried through the pipeline.
        counts: dict[Variable, int] = {}
        for pattern in branch.all_patterns():
            for variable in pattern.variables():
                counts[variable] = counts.get(variable, 0) + 1
        needed |= {variable for variable, count in counts.items() if count >= 2}
        for block in branch.optionals:
            for expression in block.filters:
                needed |= expression.variables()
        return needed

    def _guard_rows(self, client: FederationClient, relation: Relation) -> None:
        limit = self.config.max_mediator_rows
        if limit is not None and len(relation) > limit:
            client.metrics.status = "oom"
            raise MemoryLimitError(
                f"mediator intermediate results exceeded {limit} rows", rows=len(relation)
            )
