"""Which ``repro`` entry points the traced run wraps, and the per-layer
metrics computed from the spans and counters they record.

A function a caller imported by name (``select_sources``,
``normalize``, ``parse_query`` ...) is wrapped where that caller looks
it up, since patching its home module would not reach the caller's
own reference.
"""

from __future__ import annotations

import re
import threading
from collections import defaultdict

from repro.net.metrics import REQUEST_KINDS
from tracing import Target, Tracer, covered_length, self_times

#: Span name -> per-layer metric reporting its self time.
SELF_MS = {
    "sparql.parse": "sparql.parse.self_ms",
    "planning.normalize": "planning.normalize.self_ms",
    "planning.source_selection": "planning.source_selection.self_ms",
    "decomposition.gjv": "decomposition.gjv.self_ms",
    "decomposition.decompose": "decomposition.decompose.self_ms",
    "execution.cost_model": "execution.cost_model.self_ms",
    "execution.strategy": "execution.strategy.self_ms",
    "execution.scheduler": "execution.scheduler.self_ms",
    "execution.partial": "execution.partial.self_ms",
    "endpoint.select": "endpoint.select.self_ms",
    "endpoint.partial": "endpoint.partial.self_ms",
    "endpoint.ask": "endpoint.ask.self_ms",
    "endpoint.join_digest": "endpoint.join_digest.self_ms",
    "store.write": "store.write.self_ms",
    "relational.join": "relational.join.self_ms",
    "relational.filter": "relational.filter.self_ms",
    "relational.other": "relational.other.self_ms",
    "net.request": "net.request.self_ms",
    "serve.invalidate": "serve.invalidate.self_ms",
}

#: Every per-layer metric with its unit, in report order.
METRICS = {
    "sparql.parse.self_ms": "ms",
    "sparql.parse.calls": "count",
    "planning.normalize.self_ms": "ms",
    "planning.source_selection.self_ms": "ms",
    "decomposition.gjv.self_ms": "ms",
    "decomposition.decompose.self_ms": "ms",
    "execution.cost_model.self_ms": "ms",
    "execution.strategy.self_ms": "ms",
    "execution.strategy.partial_share": "fraction",
    "execution.scheduler.self_ms": "ms",
    "execution.partial.self_ms": "ms",
    "endpoint.select.self_ms": "ms",
    "endpoint.select.calls": "count",
    "endpoint.partial.self_ms": "ms",
    "endpoint.partial.calls": "count",
    "endpoint.ask.self_ms": "ms",
    "endpoint.join_digest.self_ms": "ms",
    "endpoint.plan_cache.hit_rate": "fraction",
    "endpoint.compile_ms": "ms",
    "endpoint.execute_ms": "ms",
    "store.charsets.build_ms": "ms",
    "store.charsets.rebuilds": "count",
    "store.write.self_ms": "ms",
    "relational.join.self_ms": "ms",
    "relational.join.rows_out": "rows",
    "relational.filter.self_ms": "ms",
    "relational.filter.pass_rate": "fraction",
    "relational.other.self_ms": "ms",
    "net.request.self_ms": "ms",
    "net.requests.ask": "count",
    "net.requests.check": "count",
    "net.requests.count": "count",
    "net.requests.select": "count",
    "net.requests.bound": "count",
    "net.requests.stats": "count",
    "net.requests.partial": "count",
    "net.rows_shipped": "rows",
    "net.cached_share": "fraction",
    "serve.scheduler.self_ms": "ms",
    "serve.path.cache_share": "fraction",
    "serve.path.attach_share": "fraction",
    "serve.path.executed_share": "fraction",
    "serve.mqo.subquery_hits": "count",
    "serve.invalidate.self_ms": "ms",
    "serve.invalidated_entries": "count",
    "serve.queue_wait_p50_ms": "ms",
    "serve.latency_p50_ms": "ms",
    "serve.latency_p99_ms": "ms",
    "query.unattributed_ms": "ms",
    "trace.overhead_pct": "%",
}

def _arg(args, kwargs, index: int, name: str, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _after_request(tracer: Tracer, args, kwargs, result) -> None:
    # VirtualNetwork.request(self, endpoint_name, endpoint_region, kind,
    #                        ready_at_ms, result_rows, ..., cached=False)
    if _arg(args, kwargs, 8, "cached", False):
        tracer.count("net.cached")
        return
    tracer.count("net.uncached")
    tracer.count(f"net.requests.{_arg(args, kwargs, 3, 'kind')}")
    tracer.count("net.rows_shipped", _arg(args, kwargs, 5, "result_rows", 0))


def _after_join(tracer: Tracer, args, kwargs, relation) -> None:
    tracer.count("join.rows_out", len(relation))


def _after_filter(tracer: Tracer, args, kwargs, relation) -> None:
    tracer.count("filter.rows_in", len(args[0]))
    tracer.count("filter.rows_out", len(relation))


def _after_invalidate(tracer: Tracer, args, kwargs, dropped) -> None:
    tracer.count("serve.writes")
    tracer.count("serve.invalidated_entries", dropped)


def _after_query(tracer: Tracer, args, kwargs, outcome) -> None:
    # Serving worker threads are named after the request's sequence
    # number; the tag maps a query span back to its served request.
    tracer.tag_last("query", threading.current_thread().name)


def targets() -> list[Target]:
    import repro.core.engine as core_engine
    import repro.planning.base_engine as base_engine
    import repro.serve.server as serve_server
    import repro.sparql.parser as sparql_parser
    import repro.store.charsets as charsets
    from repro.core.execution.partial import PartialBranchScheduler
    from repro.core.execution.scheduler import BranchScheduler
    from repro.endpoint.endpoint import Endpoint
    from repro.net.simulator import VirtualNetwork
    from repro.relational.relation import Relation

    def scheduler_name(args) -> str:
        if isinstance(args[0], PartialBranchScheduler):
            return "execution.partial"
        return "execution.scheduler"

    return [
        Target(base_engine.FederatedEngine, "execute", "query", _after_query),
        # sparql
        Target(sparql_parser, "parse_query", "sparql.parse"),
        Target(base_engine, "parse_query", "sparql.parse"),
        Target(serve_server, "parse_query", "sparql.parse"),
        # planning
        Target(base_engine, "normalize", "planning.normalize"),
        Target(core_engine, "select_sources", "planning.source_selection"),
        # core.decomposition
        Target(core_engine, "detect_gjvs", "decomposition.gjv"),
        Target(core_engine, "decompose", "decomposition.decompose"),
        Target(core_engine, "enumerate_decompositions", "decomposition.decompose"),
        # core.execution
        Target(core_engine, "collect_statistics", "execution.cost_model"),
        Target(core_engine, "decide_delays", "execution.cost_model"),
        Target(core_engine, "choose_strategy", "execution.strategy"),
        Target(BranchScheduler, "run", scheduler_name),
        # endpoint
        Target(Endpoint, "select", "endpoint.select"),
        Target(Endpoint, "partial_evaluate", "endpoint.partial"),
        Target(Endpoint, "ask", "endpoint.ask"),
        Target(Endpoint, "join_digest", "endpoint.join_digest"),
        # store
        Target(Endpoint, "charset_summary", "store.charsets"),
        Target(charsets, "build_charsets", "store.charsets.rebuild"),
        Target(Endpoint, "add", "store.write"),
        Target(Endpoint, "remove", "store.write"),
        # relational
        Target(Relation, "join", "relational.join", _after_join),
        Target(Relation, "left_join", "relational.join", _after_join),
        Target(Relation, "filter", "relational.filter", _after_filter),
        Target(Relation, "union", "relational.other"),
        Target(Relation, "project", "relational.other"),
        Target(Relation, "distinct", "relational.other"),
        Target(Relation, "sorted_by", "relational.other"),
        Target(Relation, "limit", "relational.other"),
        # net
        Target(VirtualNetwork, "request", "net.request", _after_request),
        # serve
        Target(serve_server.QueryServer, "run", "serve.run"),
        Target(serve_server.QueryServer, "invalidate", "serve.invalidate", _after_invalidate),
        Target(serve_server.QueryServer, "gate", "serve.gate", wait=True),
    ]


def plan_totals(federation) -> tuple[int, int, float, float]:
    """(hits, misses, compile_s, execute_s) summed over the endpoints."""
    hits = misses = 0
    compile_s = execute_s = 0.0
    for endpoint in federation:
        h, m, __evictions, c, e = endpoint.plan_stats()
        hits, misses = hits + h, misses + m
        compile_s, execute_s = compile_s + c, execute_s + e
    return hits, misses, compile_s, execute_s


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


_WORKER = re.compile(r"serve-q(\d+)$")


def worker_active_s(tracer: Tracer, phase: str) -> dict[int, float]:
    """Serving-seq -> wall seconds its engine execution actually ran
    (the query span minus the time its worker sat parked at the gate),
    for the query spans of one ``phase``."""
    waits: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in tracer.spans:
        if span.wait:
            waits[span.thread].append((span.start, span.end))
    active: dict[int, float] = {}
    for span in tracer.spans:
        if span.name != "query" or span.phase != phase:
            continue
        match = _WORKER.match(tracer.tags.get(span.sid, ""))
        if match is None:
            continue
        parked = covered_length(waits.get(span.thread, []), span.start, span.end)
        active[int(match.group(1))] = span.duration - parked
    return active


def layer_metrics(
    tracer: Tracer,
    queries: int,
    plan_delta: tuple[int, int, float, float],
    overhead_pct: float,
    serve: dict | None = None,
) -> dict[str, float]:
    """Every per-layer metric from one traced phase.

    Additive metrics are per query (per served request on ``serve-rw``)
    of the traced timed phase, whose counters start from zero;
    ``store.charsets.*`` also cover the traced set-up, where the lazy
    charset build happens.
    """
    timed = [span for span in tracer.spans if span.phase == "timed"]
    own = self_times(tracer.spans)
    self_s: dict[str, float] = defaultdict(float)
    for span in timed:
        if not span.wait:
            self_s[span.name] += own[span.sid]
    charset_s = sum(
        own[span.sid]
        for span in tracer.spans
        if span.name in ("store.charsets", "store.charsets.rebuild")
    )
    rebuilds = sum(1 for span in tracer.spans if span.name == "store.charsets.rebuild")
    calls: dict[str, int] = defaultdict(int)
    for span in timed:
        calls[span.name] += 1
    counters = tracer.counters
    n = max(1, queries)

    def per_query_ms(seconds: float) -> float:
        return seconds * 1000.0 / n

    out = {metric: per_query_ms(self_s.get(name, 0.0)) for name, metric in SELF_MS.items()}
    hits, misses, compile_s, execute_s = plan_delta
    requests = counters["net.cached"] + counters["net.uncached"]
    out.update(
        {
            "sparql.parse.calls": calls["sparql.parse"] / n,
            # Branches the partial-evaluation scheduler ran: the strategy
            # taken, after configuration overrides the picker's verdict.
            "execution.strategy.partial_share": _share(
                calls["execution.partial"],
                calls["execution.partial"] + calls["execution.scheduler"],
            ),
            "endpoint.select.calls": calls["endpoint.select"] / n,
            "endpoint.partial.calls": calls["endpoint.partial"] / n,
            "endpoint.plan_cache.hit_rate": _share(hits, hits + misses),
            "endpoint.compile_ms": per_query_ms(compile_s),
            "endpoint.execute_ms": per_query_ms(execute_s),
            "store.charsets.build_ms": charset_s * 1000.0,
            "store.charsets.rebuilds": rebuilds,
            "relational.join.rows_out": counters["join.rows_out"] / n,
            "relational.filter.pass_rate": _share(
                counters["filter.rows_out"], counters["filter.rows_in"]
            ),
            "net.rows_shipped": counters["net.rows_shipped"] / n,
            "net.cached_share": _share(counters["net.cached"], requests),
            "serve.invalidated_entries": _share(
                counters["serve.invalidated_entries"], counters["serve.writes"]
            ),
            "query.unattributed_ms": per_query_ms(self_s.get("query", 0.0)),
            "trace.overhead_pct": overhead_pct,
        }
    )
    for kind in REQUEST_KINDS:
        out[f"net.requests.{kind}"] = counters[f"net.requests.{kind}"] / n
    serve = serve or {}
    scheduler_s = self_s.get("serve.run", 0.0) - serve.get("worker_active_s", 0.0)
    out.update(
        {
            "serve.scheduler.self_ms": per_query_ms(scheduler_s) if serve else 0.0,
            "serve.path.cache_share": serve.get("cache_share", 0.0),
            "serve.path.attach_share": serve.get("attach_share", 0.0),
            "serve.path.executed_share": serve.get("executed_share", 0.0),
            "serve.mqo.subquery_hits": serve.get("subquery_hits", 0),
            "serve.queue_wait_p50_ms": serve.get("queue_wait_p50_ms", 0.0),
            "serve.latency_p50_ms": serve.get("latency_p50_ms", 0.0),
            "serve.latency_p99_ms": serve.get("latency_p99_ms", 0.0),
        }
    )
    return {name: out[name] for name in METRICS}

