"""Estimate-vs-actual auditing: the measurement half of EXPLAIN ANALYZE.

Every place an estimate drives a runtime decision — SAPE's COUNT-based
``estimated_cardinality`` and the delay decision built on it, DP/greedy
join ordering's ``join_cost_units``, adaptive bound-join block sizing,
compiled-plan probe ordering inside endpoints, and the baselines'
VoID-index operand estimates — reports the ``(estimated, actual)`` pair
here.  The audit converts each pair into a **q-error**
(``max(est/act, act/est)``, both clamped to >= 1 so zero rows do not
divide), feeds a per-site histogram labeled by engine / decision /
endpoint into the metrics registry, and annotates the active span so
the ``explain-analyze`` renderer can print ``rows est->act (qN.N)``
inline in the plan tree.

Auditing rides on tracing: a :class:`~repro.endpoint.client.FederationClient`
owns a real :class:`EstimateAudit` only when its tracer is enabled and
the shared :data:`NULL_AUDIT` otherwise, so the audit — like spans — is
exactly free when observability is off.  Hook sites that must *compute*
an estimate or actual solely for auditing guard on :attr:`enabled`
first.  Nothing the audit does may touch virtual time, request counts,
or results: the traced-vs-untraced invariance test enforces that.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

#: Histogram of q-errors, labeled engine/decision/endpoint.
Q_ERROR_METRIC = "estimate_q_error"
#: Companion counter: number of audited decisions per site.
AUDIT_COUNTER = "estimate_audit_total"


def q_error(estimated: float, actual: float) -> float:
    """Multiplicative estimation error: ``max(est/act, act/est)``.

    Both sides are clamped to >= 1 first — the standard guard so empty
    results (0 rows) or sub-row estimates do not blow the ratio up to
    infinity.  1.0 means the estimate was exact (or both sides empty).
    """
    est = max(float(estimated), 1.0)
    act = max(float(actual), 1.0)
    return est / act if est >= act else act / est


@dataclass
class AuditRecord:
    """One audited decision: what was predicted, what happened."""

    decision: str
    estimated: float
    actual: float
    q_error: float
    endpoint: str = "*"
    detail: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        entry: dict[str, Any] = {
            "decision": self.decision,
            "endpoint": self.endpoint,
            "estimated": round(self.estimated, 3),
            "actual": round(self.actual, 3),
            "q_error": round(self.q_error, 3),
        }
        if self.detail:
            entry.update(self.detail)
        return entry


class EstimateAudit:
    """Collects (estimated, actual) pairs for one engine's query run.

    ``record`` is the single entry point; it feeds the registry, keeps
    the raw record (for the :class:`~repro.obs.profile.ProfileReport`),
    and — when given a span — appends a compact dict to the span's
    ``audit`` attribute and tracks the worst q-error seen on that span
    in its ``q_error`` attribute.
    """

    enabled = True

    def __init__(self, registry, engine: str) -> None:
        self.registry = registry
        self.engine = engine
        self.records: list[AuditRecord] = []

    def record(
        self,
        decision: str,
        estimated: float,
        actual: float,
        endpoint: str = "*",
        span=None,
        **detail: Any,
    ) -> AuditRecord:
        error = q_error(estimated, actual)
        entry = AuditRecord(
            decision=decision,
            estimated=float(estimated),
            actual=float(actual),
            q_error=error,
            endpoint=endpoint,
            detail=dict(detail),
        )
        self.records.append(entry)
        if self.registry is not None:
            labels: dict[str, Any] = {
                "engine": self.engine,
                "decision": decision,
                "endpoint": endpoint,
            }
            self.registry.observe(Q_ERROR_METRIC, error, **labels)
            self.registry.inc(AUDIT_COUNTER, **labels)
        if span is not None:
            span.attrs.setdefault("audit", []).append(entry.to_dict())
            worst = span.attrs.get("q_error")
            if worst is None or error > worst:
                span.attrs["q_error"] = round(error, 3)
        return entry

    def worst(self) -> AuditRecord | None:
        """The record with the largest q-error, or None when empty."""
        return max(self.records, key=lambda r: r.q_error, default=None)


class _NullAudit:
    """Shared no-op audit used while tracing is disabled."""

    __slots__ = ()

    enabled = False
    engine = "<disabled>"
    records: tuple = ()

    def record(
        self, decision, estimated, actual, endpoint="*", span=None, **detail
    ):
        return None

    def worst(self):
        return None


NULL_AUDIT = _NullAudit()


def make_audit(registry, engine: str, enabled: bool) -> "EstimateAudit | _NullAudit":
    """A real audit when observability is on, the shared no-op otherwise."""
    return EstimateAudit(registry, engine) if enabled else NULL_AUDIT
