"""ANAPSID-style adaptive engine (Acosta et al., ISWC 2011).

The paper's related work contrasts Lusail with ANAPSID, an *adaptive*
index-based federation engine: it keeps a catalog of endpoint
capabilities (predicate lists), dispatches subqueries to all relevant
endpoints at once, and routes tuples through non-blocking join
operators as they arrive, adapting the join order to endpoint delivery
rates rather than fixing it at compile time.

This reproduction keeps the defining traits in the virtual-time model:

* **catalog-based source selection** — predicate lookups from the same
  VoID-style index SPLENDID builds (preprocessing cost applies);
* **fully parallel dispatch** — every operand is evaluated unbound at
  all its endpoints simultaneously (no bound joins at all);
* **adaptive join routing** — operand results are joined in the order
  their (virtual) transfers complete, so fast endpoints are consumed
  first; connected operands join as soon as both sides have arrived.

The trade-off this reproduces: excellent parallelism and few requests,
but *every* operand's full extent crosses the network — on unselective
patterns ANAPSID ships far more data than Lusail's delayed bound joins,
which is why the survey the paper cites ranks FedX/Lusail-style systems
ahead on most workloads.

ANAPSID is not part of the paper's evaluation figures; it is included
here as an extra baseline (see ``benchmarks/bench_extra_baseline.py``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.baselines.operands import Operand, build_operands
from repro.baselines.void_index import VoidIndex, build_void_index
from repro.endpoint.client import FederationClient
from repro.exceptions import MemoryLimitError
from repro.planning.base_engine import DEFAULT_TIMEOUT_MS, FederatedEngine
from repro.planning.normalize import Branch, NormalizedQuery
from repro.planning.source_selection import SourceSelection
from repro.rdf.terms import Variable
from repro.relational.filters import make_filter_predicate
from repro.relational.relation import Relation
from repro.sparql.ast import Expression


@dataclass
class AnapsidConfig:
    max_mediator_rows: int | None = 2_000_000


class AnapsidEngine(FederatedEngine):
    """Adaptive, catalog-based federation with fully parallel dispatch."""

    name = "ANAPSID"
    requires_preprocessing = True

    def __init__(self, federation, network_config=None, caches=None,
                 timeout_ms=None, config: AnapsidConfig | None = None):
        super().__init__(
            federation,
            network_config,
            caches,
            timeout_ms if timeout_ms is not None else DEFAULT_TIMEOUT_MS,
        )
        self.config = config or AnapsidConfig()
        start = time.perf_counter()
        self.index: VoidIndex = build_void_index(federation)
        self.stats.preprocessing_ms = (time.perf_counter() - start) * 1000.0

    # ------------------------------------------------------ source selection

    def _select_sources(
        self, client: FederationClient, patterns, at_ms: float
    ) -> tuple[SourceSelection, float]:
        """Catalog lookups only — ANAPSID keeps the capability list local."""
        selection = SourceSelection()
        names = client.federation.names()
        for pattern in patterns:
            if pattern not in selection.sources:
                selection.sources[pattern] = tuple(
                    self.index.candidate_sources(pattern, names)
                )
        return selection, at_ms

    # --------------------------------------------------------------- engine

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
        with client.tracer.span("source_selection", t0=0.0, index="catalog") as span:
            selection, now = self._select_sources(client, list(branch.all_patterns()), 0.0)
            span.set(requests=0).end(now)
        client.metrics.add_phase("source_selection", now)

        if any(not selection.relevant(pattern) for pattern in branch.patterns):
            return Relation(tuple(normalized.projected_variables())), now

        operands, residue = build_operands(list(branch.patterns), selection, branch.filters)
        projection = self._projection(branch, normalized, residue)

        # Fully parallel dispatch: every operand to every endpoint, now.
        arrivals: list[tuple[float, Relation]] = []
        dispatch_at = now
        mark = client.metrics.mark()
        with client.tracer.span(
            "parallel_dispatch", t0=dispatch_at, operands=len(operands)
        ) as dispatch_span:
            dispatch_end = dispatch_at
            for operand in operands:
                operand_projection = tuple(
                    sorted(operand.variables() & projection, key=lambda v: v.name)
                )
                query = operand.to_select(operand_projection)
                relation = Relation(operand_projection, partitions=max(1, len(operand.sources)))
                completed = dispatch_at
                with client.tracer.span(
                    "operand", t0=dispatch_at, endpoints=list(operand.sources)
                ) as span:
                    for endpoint in operand.sources:
                        result, end = client.select(endpoint, query, dispatch_at)
                        completed = max(completed, end)
                        relation.rows.extend(result.rows)
                    span.set(rows=len(relation)).end(completed)
                dispatch_end = max(dispatch_end, completed)
                self._guard_rows(client, relation)
                arrivals.append((completed, relation))
            dispatch_span.set(
                rows=sum(len(relation) for __, relation in arrivals),
                requests=client.metrics.requests_since(mark),
            ).end(dispatch_end)

        # Adaptive routing: join in arrival order, preferring connected
        # inputs; a relation only joins once both sides have arrived, so
        # virtual time advances to the later arrival.
        arrivals.sort(key=lambda item: item[0])
        current: Relation | None = None
        current_ready = now
        pending = list(arrivals)
        while pending:
            index = next(
                (
                    i
                    for i, (__, relation) in enumerate(pending)
                    if current is None or set(relation.vars) & set(current.vars)
                ),
                0,
            )
            arrived_at, relation = pending.pop(index)
            if current is None:
                current, current_ready = relation, arrived_at
            else:
                current = current.join(relation)
                current_ready = max(current_ready, arrived_at)
                self._guard_rows(client, current)
            if current is not None and not current.rows:
                break
        now = max(now, current_ready)

        assert current is not None
        # OPTIONAL blocks: dispatched in parallel too, left-joined last.
        for block in branch.optionals:
            if any(not selection.relevant(pattern) for pattern in block.patterns):
                continue
            block_operands, block_residue = build_operands(
                list(block.patterns), selection, block.filters
            )
            optional_relation: Relation | None = None
            for operand in block_operands:
                operand_projection = tuple(
                    sorted(
                        operand.variables() & (projection | set(current.vars)),
                        key=lambda v: v.name,
                    )
                )
                query = operand.to_select(operand_projection)
                fetched = Relation(operand_projection, partitions=max(1, len(operand.sources)))
                for endpoint in operand.sources:
                    result, end = client.select(endpoint, query, now)
                    now = max(now, end)
                    fetched.rows.extend(result.rows)
                optional_relation = (
                    fetched if optional_relation is None else optional_relation.join(fetched)
                )
                self._guard_rows(client, optional_relation)
            if optional_relation is not None:
                for expression in block_residue:
                    optional_relation = optional_relation.filter(
                        make_filter_predicate(expression)
                    )
                current = current.left_join(optional_relation)
                self._guard_rows(client, current)

        for expression in residue:
            current = current.filter(make_filter_predicate(expression))
        client.metrics.add_phase("execution", now)
        client.metrics.mediator_rows = max(client.metrics.mediator_rows, len(current))
        return current, now

    def _projection(self, branch: Branch, normalized: NormalizedQuery,
                    residue: list[Expression]) -> set[Variable]:
        needed = set(normalized.projected_variables())
        for expression in residue:
            needed |= expression.variables()
        for condition in normalized.order_by:
            needed |= condition.expression.variables()
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
