"""SPLENDID re-implementation (Görlitz & Staab, COLD 2011).

Index-based baseline:

* **Source selection** reads the VoID index (free — no remote probes)
  for predicate-bound patterns and falls back to ASK probes when a
  pattern has a concrete subject or object (SPLENDID refines candidate
  sources for constants with ASKs).
* **Planning** orders operands by estimated cardinality and, at every
  join step, chooses between a **hash join** (fetch the operand fully,
  in parallel, and join at the mediator) and a **bind join** (ship each
  left binding individually — SPLENDID's bind join predates FedX's
  block trick, hence one request per binding).  The choice compares
  estimated shipped rows against estimated request overhead.
* Exclusive single-source groups are kept together, as SPLENDID's
  access plans do.

The per-binding bind join and index-driven estimates give SPLENDID its
paper-visible profile: competitive on selective queries, frequent
timeouts on large intermediate results.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.baselines.bound_join import bound_join, evaluate_operand
from repro.baselines.operands import Operand, build_operands
from repro.baselines.void_index import VoidIndex, build_void_index
from repro.endpoint.client import FederationClient
from repro.exceptions import MemoryLimitError
from repro.planning.base_engine import DEFAULT_TIMEOUT_MS, FederatedEngine
from repro.planning.normalize import Branch, NormalizedQuery
from repro.planning.source_selection import SourceSelection
from repro.rdf.terms import Variable
from repro.rdf.triple import TriplePattern
from repro.relational.filters import make_filter_predicate
from repro.relational.relation import Relation
from repro.sparql.ast import Expression


@dataclass
class SplendidConfig:
    #: SPLENDID ships bindings one at a time (no block trick).
    bind_join_block_size: int = 1
    #: Estimated virtual cost units of one remote request, used by the
    #: hash-vs-bind decision.
    request_cost_units: float = 40.0
    max_mediator_rows: int | None = 2_000_000


class SplendidEngine(FederatedEngine):
    """Index-based federation with hash-join / bind-join planning."""

    name = "SPLENDID"
    requires_preprocessing = True

    def __init__(self, federation, network_config=None, caches=None,
                 timeout_ms=None, config: SplendidConfig | None = None):
        super().__init__(
            federation,
            network_config,
            caches,
            timeout_ms if timeout_ms is not None else DEFAULT_TIMEOUT_MS,
        )
        self.config = config or SplendidConfig()
        start = time.perf_counter()
        self.index: VoidIndex = build_void_index(federation)
        self.stats.preprocessing_ms = (time.perf_counter() - start) * 1000.0

    # ------------------------------------------------------ source selection

    def _select_sources(
        self, client: FederationClient, patterns: list[TriplePattern], at_ms: float
    ) -> tuple[SourceSelection, float]:
        selection = SourceSelection()
        names = client.federation.names()
        finish = at_ms
        for pattern in patterns:
            if pattern in selection.sources:
                continue
            candidates = self.index.candidate_sources(pattern, names)
            has_constant = not isinstance(pattern.subject, Variable) or not isinstance(
                pattern.object, Variable
            )
            if has_constant and len(candidates) > 1:
                refined = []
                for name in candidates:
                    answer, end = client.ask(name, pattern, at_ms)
                    finish = max(finish, end)
                    if answer:
                        refined.append(name)
                candidates = refined
            selection.sources[pattern] = tuple(candidates)
        return selection, finish

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
        now = 0.0
        all_patterns = list(branch.all_patterns())
        mark = client.metrics.mark()
        with client.tracer.span("source_selection", t0=0.0, index="void") as span:
            selection, now = self._select_sources(client, all_patterns, now)
            span.set(
                patterns=len(all_patterns),
                requests=client.metrics.requests_since(mark),
            ).end(now)
        client.metrics.add_phase("source_selection", now)

        if any(not selection.relevant(pattern) for pattern in branch.patterns):
            return Relation(tuple(normalized.projected_variables())), now

        operands, residue = build_operands(list(branch.patterns), selection, branch.filters)
        ordered = self._order_by_estimate(operands, selection)
        projection = self._projection(branch, normalized, residue)

        execution_start = now
        relation: Relation | None = None
        for operand in ordered:
            operand_projection = tuple(
                sorted(operand.variables() & projection, key=lambda v: v.name)
            )
            estimate = self._estimate_operand(operand)
            if relation is None:
                relation, now = evaluate_operand(
                    client, operand, operand_projection, now, estimated_rows=estimate
                )
            else:
                use_bind = self._prefer_bind_join(relation, operand, estimate)
                if use_bind:
                    relation, now = bound_join(
                        client, relation, operand, operand_projection, now,
                        block_size=self.config.bind_join_block_size,
                        estimated_rows=estimate,
                    )
                else:
                    fetched, now = evaluate_operand(
                        client, operand, operand_projection, now, estimated_rows=estimate
                    )
                    relation = relation.join(fetched)
            self._guard_rows(client, relation)
            if not relation.rows:
                break

        assert relation is not None
        if relation.rows:
            # OPTIONAL blocks: the whole block must match as a unit —
            # build its relation first, then a single left join.
            for block in branch.optionals:
                if any(not selection.relevant(pattern) for pattern in block.patterns):
                    continue
                block_operands, block_residue = build_operands(
                    list(block.patterns), selection, block.filters
                )
                optional_relation: Relation | None = None
                for operand in self._order_by_estimate(block_operands, selection):
                    operand_projection = tuple(
                        sorted(
                            operand.variables() & (projection | set(relation.vars)),
                            key=lambda v: v.name,
                        )
                    )
                    if optional_relation is None:
                        seed = relation.project(
                            tuple(
                                sorted(
                                    set(relation.vars) & operand.variables(),
                                    key=lambda v: v.name,
                                )
                            )
                        ).distinct()
                        if seed.vars:
                            optional_relation, now = bound_join(
                                client, seed, operand, operand_projection, now,
                                block_size=self.config.bind_join_block_size,
                            )
                        else:
                            optional_relation, now = evaluate_operand(
                                client, operand, operand_projection, now
                            )
                    else:
                        optional_relation, now = bound_join(
                            client, optional_relation, operand, operand_projection, now,
                            block_size=self.config.bind_join_block_size,
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

    # -------------------------------------------------------------- helpers

    def _estimate_operand(self, operand: Operand) -> float:
        return min(
            self.index.estimate(pattern, operand.sources) for pattern in operand.patterns
        )

    def _order_by_estimate(
        self, operands: list[Operand], selection: SourceSelection
    ) -> list[Operand]:
        """Cardinality-ordered, connectivity-aware greedy order."""
        remaining = list(operands)
        ordered: list[Operand] = []
        bound: set[Variable] = set()
        while remaining:
            def rank(operand: Operand):
                connected = bool(operand.variables() & bound) or not bound
                return (0 if connected else 1, self._estimate_operand(operand))

            best = min(remaining, key=rank)
            remaining.remove(best)
            ordered.append(best)
            bound |= best.variables()
        return ordered

    def _prefer_bind_join(
        self, relation: Relation, operand: Operand, estimate: float
    ) -> bool:
        """Hash-vs-bind decision from estimated shipped work."""
        bind_cost = (
            len(relation)
            / max(1, self.config.bind_join_block_size)
            * self.config.request_cost_units
            * max(1, len(operand.sources))
        )
        hash_cost = estimate + self.config.request_cost_units * max(1, len(operand.sources))
        return bind_cost < hash_cost

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
