"""Common machinery for federated query engines.

Lusail and the three baselines share: query parsing/normalization, the
per-query :class:`FederationClient` setup, result finalization (project /
DISTINCT / ORDER BY / LIMIT), and uniform failure handling (virtual
timeouts and mediator memory limits become ``ExecutionOutcome`` statuses,
mirroring the TIMEOUT / OOM / runtime-error annotations in the paper's
plots).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.endpoint.cache import EngineCaches
from repro.endpoint.client import FederationClient
from repro.endpoint.federation import Federation
from repro.exceptions import (
    FederationError,
    MemoryLimitError,
    NetworkError,
    QueryTimeoutError,
    UnsupportedQueryError,
)
from repro.net.metrics import QueryMetrics
from repro.net.simulator import NetworkConfig, local_cluster_config
from repro.obs.registry import MetricsRegistry, get_default_registry
from repro.obs.trace import Tracer, get_default_tracer
from repro.planning.normalize import NormalizedQuery, normalize
from repro.relational.filters import _EVALUATOR
from repro.relational.kernels import KernelCounters, kernel_runtime
from repro.relational.relation import Relation
from repro.sparql.ast import SelectQuery
from repro.sparql.evaluator import SelectResult, order_key
from repro.sparql.parser import parse_query

#: The paper's per-query timeout (one hour) in virtual milliseconds.
DEFAULT_TIMEOUT_MS = 3_600_000.0


@dataclass
class ExecutionOutcome:
    """Everything a single federated query execution produced."""

    result: SelectResult
    metrics: QueryMetrics
    status: str = "ok"  # ok | timeout | oom | error | unsupported
    error: str | None = None
    plan: object | None = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def complete(self) -> bool:
        """False when partial-results mode dropped any endpoint."""
        return self.metrics.complete

    def __repr__(self) -> str:
        return (
            f"ExecutionOutcome(status={self.status!r}, rows={len(self.result)}, "
            f"virtual_ms={self.metrics.virtual_ms:.1f}, requests={self.metrics.request_count()})"
        )


@dataclass
class EngineStats:
    """Cross-query bookkeeping (preprocessing, cache sizes)."""

    preprocessing_ms: float = 0.0
    queries_executed: int = 0


class FederatedEngine:
    """Base class: subclasses implement :meth:`_execute_normalized`."""

    name = "abstract"
    #: Index-based engines (SPLENDID, HiBISCuS) pay a preprocessing pass.
    requires_preprocessing = False

    def __init__(
        self,
        federation: Federation,
        network_config: NetworkConfig | None = None,
        caches: EngineCaches | None = None,
        timeout_ms: float | None = DEFAULT_TIMEOUT_MS,
        tracer: Tracer | None = None,
        registry: MetricsRegistry | None = None,
        statistics: str = "charsets",
    ):
        self.federation = federation
        self.network_config = network_config or local_cluster_config()
        self.caches = caches if caches is not None else EngineCaches()
        self.timeout_ms = timeout_ms
        self.stats = EngineStats()
        #: Planner statistics source: "charsets" installs a
        #: characteristic-set :class:`StatisticsProvider` on every built
        #: client (ASK / COUNT / check questions answered from local
        #: summaries when provable, remote probes as fallback); "probe"
        #: keeps the pure probe path.
        self.statistics = statistics
        #: Observability sinks.  Default to the process-wide tracer
        #: (disabled unless a profiling run enables it) and registry;
        #: assignable after construction for per-run isolation.
        self.tracer = tracer if tracer is not None else get_default_tracer()
        self.registry = registry if registry is not None else get_default_registry()
        #: Fault injection / resilience (see repro.faults).  Both are
        #: assignable after construction, like the observability sinks,
        #: and None by default: the engine then behaves bit-identically
        #: to the fault-free simulator.
        self.fault_plan = None
        self.resilience = None
        #: The estimate audit of the most recent :meth:`execute` call
        #: (``NULL_AUDIT`` when tracing is off); profiling harnesses read
        #: it post-hoc to embed raw estimate records in ProfileReports.
        self.last_audit = None
        #: Client construction seam.  ``None`` builds a plain
        #: :class:`FederationClient`; the serving layer installs a
        #: factory that returns a lane-sharing client instead.  The
        #: factory receives the same keyword arguments the default
        #: construction uses.
        self.client_factory = None

    # ------------------------------------------------------------- public

    def build_client(self, metrics: QueryMetrics | None = None) -> FederationClient:
        """The per-execution :class:`FederationClient` for this engine.

        Goes through :attr:`client_factory` when one is installed so the
        serving layer can substitute a client whose virtual network
        shares lanes with other in-flight queries.
        """
        factory = self.client_factory or FederationClient
        client = factory(
            federation=self.federation,
            config=self.network_config,
            caches=self.caches,
            timeout_ms=self.timeout_ms,
            metrics=metrics if metrics is not None else QueryMetrics(),
            tracer=self.tracer,
            registry=self.registry,
            engine=self.name,
            fault_plan=self.fault_plan,
            resilience=self.resilience,
        )
        if self.statistics == "charsets":
            # Installed after construction so serving-layer client
            # factories need not know about the statistics seam.
            from repro.planning.stats import CharsetStatisticsProvider

            client.stats = CharsetStatisticsProvider(client)
        return client

    def execute(self, query: SelectQuery | str, raise_on_failure: bool = False) -> ExecutionOutcome:
        """Run one federated query; failures become outcome statuses."""
        if isinstance(query, str):
            parsed = parse_query(query)
            if not isinstance(parsed, SelectQuery):
                raise UnsupportedQueryError("federated engines execute SELECT queries")
            query = parsed

        metrics = QueryMetrics()
        client = self.build_client(metrics)
        self.last_audit = client.audit
        wall_start = time.perf_counter()
        with self.tracer.span("query", t0=0.0, engine=self.name) as root:
            try:
                normalized = normalize(query)
                relation, end_ms = self._execute_normalized(client, normalized)
                result = self._finalize(relation, normalized)
                metrics.virtual_ms = end_ms
                metrics.result_rows = len(result)
                outcome = ExecutionOutcome(result=result, metrics=metrics)
            except QueryTimeoutError as exc:
                metrics.virtual_ms = exc.elapsed_ms
                outcome = ExecutionOutcome(
                    result=SelectResult((), []), metrics=metrics, status="timeout", error=str(exc)
                )
            except MemoryLimitError as exc:
                outcome = ExecutionOutcome(
                    result=SelectResult((), []), metrics=metrics, status="oom", error=str(exc)
                )
            except UnsupportedQueryError as exc:
                outcome = ExecutionOutcome(
                    result=SelectResult((), []),
                    metrics=metrics,
                    status="unsupported",
                    error=str(exc),
                )
            except (FederationError, NetworkError) as exc:
                outcome = ExecutionOutcome(
                    result=SelectResult((), []), metrics=metrics, status="error", error=str(exc)
                )
            root.set(
                status=outcome.status,
                result_rows=len(outcome.result),
                requests=metrics.request_count(),
                rows=metrics.rows_shipped(),
            ).end(metrics.virtual_ms)
        metrics.wall_ms = (time.perf_counter() - wall_start) * 1000.0
        self.registry.inc("queries_total", engine=self.name, status=outcome.status)
        self.stats.queries_executed += 1
        if raise_on_failure and not outcome.ok:
            raise FederationError(f"{self.name} failed ({outcome.status}): {outcome.error}")
        return outcome

    # ----------------------------------------------------------- template

    @contextmanager
    def _mediator_runtime(self, client: FederationClient, max_rows: int | None):
        """Install the columnar kernel runtime for one query execution.

        Joins/unions stream ``max_rows`` inside the kernels (aborting
        mid-join with :class:`MemoryLimitError`, status ``oom``) and the
        kernel work counters are flushed to the metrics registry under
        this engine's label when the execution ends.
        """
        counters = KernelCounters()
        try:
            with kernel_runtime(
                max_rows=max_rows, counters=counters, metrics=client.metrics
            ):
                yield counters
        finally:
            for name, value in counters.items():
                if value:
                    self.registry.inc(name, value, engine=self.name)

    def _execute_normalized(
        self, client: FederationClient, normalized: NormalizedQuery
    ) -> tuple[Relation, float]:
        """Produce the (pre-modifier) relation and the virtual end time."""
        raise NotImplementedError

    # --------------------------------------------------------- finalizing

    def _finalize(self, relation: Relation, normalized: NormalizedQuery) -> SelectResult:
        projected = normalized.projected_variables()
        relation = relation.project(projected)
        if normalized.distinct:
            relation = relation.distinct()
        rows = relation.rows
        if normalized.order_by:
            order_by = normalized.order_by
            rows = sorted(
                rows,
                key=lambda row: order_key(
                    _EVALUATOR,
                    {var: term for var, term in zip(projected, row) if term is not None},
                    order_by,
                ),
            )
        rows = rows[normalized.offset:]
        if normalized.limit is not None:
            rows = rows[: normalized.limit]
        return SelectResult(projected, rows)
