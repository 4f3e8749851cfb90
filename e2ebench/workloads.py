"""The three workloads: data, query streams, set-up and timed phases.

Everything reaches the program through its public API only:
``LusailEngine.execute``, ``QueryServer.run`` / ``invalidate`` and
``Endpoint.add`` / ``remove``.  The workload seed seeds the data
generators and the query streams; the program receives the generated
federation and query texts.

* ``lubm-geo-auto`` and ``largerdf-local`` are closed loops with one
  client: the next query is sent when the previous one returned.  One
  *pass* is a seeded shuffle of the workload's query texts.
* ``serve-rw`` is an open loop in virtual time: Poisson arrivals over a
  Zipf-skewed pool of query instances, with a write batch (plus
  ``invalidate()``) before every segment of arrivals.  One *round* is a
  fixed list of segments; a run replays it, so each segment, like each
  closed-loop query, is timed several times.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from time import perf_counter

import instances
from oracle import digest
from repro.core.engine import LusailConfig, LusailEngine
from repro.datasets import largerdf, lubm, queries_largerdf, queries_lubm
from repro.net.simulator import geo_distributed_config, local_cluster_config
from repro.serve import QueryRequest, QueryServer

WORKLOADS = ("lubm-geo-auto", "largerdf-local", "serve-rw")


def build_federation(workload: str, seed: int):
    if workload == "lubm-geo-auto":
        return lubm.build_federation(
            4, profile=lubm.scaled_profile(2.0), seed=seed, geo=True
        )
    if workload == "largerdf-local":
        return largerdf.build_federation(scale=0.5, seed=seed)
    if workload == "serve-rw":
        return lubm.build_federation(
            instances.UNIVERSITIES, profile=instances.PROFILE, seed=seed
        )
    raise ValueError(f"unknown workload {workload!r}")


def query_texts(workload: str) -> list[tuple[str, str]]:
    """(name, text) of every query in one closed-loop pass."""
    if workload == "lubm-geo-auto":
        paper = [
            ("Q1", lubm.query_q1()),
            ("Q2", lubm.query_q2()),
            ("Q3", lubm.query_q3()),
            ("Q4", lubm.query_q4()),
            ("Q5", lubm.query_q5()),
            ("Q6", lubm.query_q6()),
        ]
        suite = [
            (f"{name}@u{u}", text)
            for u in range(4)
            for name, text in queries_lubm.queries(u).items()
        ]
        return paper + suite
    if workload == "largerdf-local":
        return list(queries_largerdf.all_queries().items())
    raise ValueError(f"{workload!r} is not a closed-loop workload")


@dataclass
class Observation:
    """One answered query (closed loop) or served request (open loop)."""

    name: str
    #: What repeats from pass to pass: the query name (closed loop) or
    #: the segment index within the round (open loop).
    key: str
    state: str
    text: str
    ok: bool
    digest: list | None
    wall_s: float = 0.0
    virtual_ms: float = 0.0
    requests: int = 0
    rows_shipped: int = 0
    path: str = ""
    queue_wait_ms: float = 0.0
    seq: int = -1
    #: Set by the oracle check: ``ok`` and the rows equal the oracle's.
    correct: bool = False


@dataclass
class Chunk:
    """One unit of timed work: a pass (closed) or a segment (open)."""

    wall_s: float
    #: Segment index within the round (open loop).
    key: str = ""
    #: The host speed probe taken right before the chunk, in ms.
    probe_ms: float = 0.0
    observations: list[Observation] = field(default_factory=list)
    #: Rows endpoints shipped during the chunk (open loop; per
    #: observation in the closed loop).
    rows_shipped: int = 0


# ------------------------------------------------------------- closed loop


class ClosedLoop:
    """``lubm-geo-auto`` / ``largerdf-local``: one engine, one client.

    Construction is the set-up: data generation and endpoint load, the
    engine, and one warm-up pass (lazy charset builds, plan and probe
    caches).
    """

    #: Fewest queries a timed phase answers: every query of the mix runs
    #: at least twice, so the wall percentiles rest on per-query medians.
    MIN_QUERIES = 100

    def __init__(self, workload: str, seed: int):
        self.federation = build_federation(workload, seed)
        if workload == "lubm-geo-auto":
            self.engine = LusailEngine(
                self.federation,
                config=LusailConfig(strategy="auto"),
                network_config=geo_distributed_config(),
            )
        else:
            self.engine = LusailEngine(
                self.federation, network_config=local_cluster_config()
            )
        self.texts = query_texts(workload)
        for __, text in self.texts:
            self.engine.execute(text)
        self._rng = random.Random(f"{workload}:order:{seed}")

    def run_chunk(self) -> Chunk:
        order = list(self.texts)
        self._rng.shuffle(order)
        chunk = Chunk(0.0)
        execute = self.engine.execute
        for name, text in order:
            started = perf_counter()
            outcome = execute(text)
            wall = perf_counter() - started
            chunk.wall_s += wall
            metrics = outcome.metrics
            ok = outcome.ok and outcome.complete
            chunk.observations.append(
                Observation(
                    name=name,
                    key=name,
                    state="base",
                    text=text,
                    ok=ok,
                    digest=digest(outcome.result.vars, outcome.result.rows) if ok else None,
                    wall_s=wall,
                    virtual_ms=metrics.virtual_ms,
                    requests=metrics.request_count(),
                    rows_shipped=metrics.rows_shipped(),
                )
            )
        return chunk


# --------------------------------------------------------------- open loop


class ServeSession:
    """``serve-rw``: a default ``QueryServer`` under reads and writes.

    Construction is the set-up: data generation and endpoint load, the
    server, and one warm-up replay of one instance per template (plans
    are cached per query skeleton, so that fills the plan caches and
    triggers the lazy charset builds).
    """

    MIN_QUERIES = instances.ROUND * instances.SEGMENT

    def __init__(self, seed: int):
        self.seed = seed
        self.federation = build_federation("serve-rw", seed)
        self.server = QueryServer(self.federation)
        self.pool = instances.query_pool(seed)
        first = {}
        for inst in self.pool:
            first.setdefault(inst.template, inst)
        gap = instances.MEAN_GAP_MS
        self.server.run(
            [
                QueryRequest(i * gap, f"tenant{i % instances.TENANTS}", inst.template, inst.text)
                for i, inst in enumerate(first.values())
            ]
        )
        # The round: per segment, arrivals as virtual offsets from the
        # segment's start, so a replay issues the same work.
        stream = instances.ArrivalStream(self.pool, seed)
        self.round = []
        for __ in range(instances.ROUND):
            start = stream.now
            self.round.append(
                [(a.at_ms - start, a.tenant, a.instance) for a in stream.take(instances.SEGMENT)]
            )
        self.next_segment = 0
        self.write_failures = 0
        self._applied: list | None = None

    def _write(self, segment: int) -> str:
        """Apply the segment's write (batch ``segment // 2`` on even
        segments, its undo on odd ones) and invalidate; returns the data
        state it leaves."""
        endpoint_name, batch = instances.write_batch(self.seed, segment // 2)
        if segment % 2 == 0:
            ops = self._applied = batch
            state = f"batch:{segment // 2}"
        else:
            ops = instances.undo(self._applied)
            self._applied = None
            state = "base"
        endpoint = self.federation.get(endpoint_name)
        for op, triple in ops:
            changed = endpoint.add(triple) if op == "add" else endpoint.remove(triple)
            if not changed:
                self.write_failures += 1
        self.server.invalidate()
        return state

    def run_chunk(self) -> Chunk:
        """One write, then the next segment of the round."""
        segment = self.next_segment
        self.next_segment = (segment + 1) % instances.ROUND
        rows_before = self.server.registry.counter_value("rows_shipped_total")
        started = perf_counter()
        state = self._write(segment)
        base = self.server.clock
        requests = [
            QueryRequest(base + offset, tenant, inst.template, inst.text)
            for offset, tenant, inst in self.round[segment]
        ]
        records = self.server.run(requests)
        chunk = Chunk(perf_counter() - started, key=str(segment))
        chunk.rows_shipped = int(
            self.server.registry.counter_value("rows_shipped_total") - rows_before
        )
        digests: dict[int, list] = {}
        for request, record in zip(requests, records):
            ok = record.ok and record.result is not None
            result_digest = None
            if ok:
                key = id(record.result.rows)
                result_digest = digests.get(key)
                if result_digest is None:
                    result = record.result
                    result_digest = digests[key] = digest(result.vars, result.rows)
            chunk.observations.append(
                Observation(
                    name=record.name,
                    key=chunk.key,
                    state=state,
                    text=request.text,
                    ok=ok,
                    digest=result_digest,
                    virtual_ms=record.latency_ms,
                    requests=record.requests,
                    path=record.path,
                    queue_wait_ms=record.start_ms - record.arrival_ms,
                    seq=record.seq,
                )
            )
        return chunk

    @property
    def at_round_end(self) -> bool:
        """True between rounds, when every applied batch is undone."""
        return self.next_segment == 0


def new_session(workload: str, seed: int):
    if workload == "serve-rw":
        return ServeSession(seed)
    return ClosedLoop(workload, seed)


def run_timed(session, seconds: float, probe=None) -> list[Chunk]:
    """Whole chunks until ``seconds`` of measured wall time and the
    workload's minimum query count are reached (``serve-rw`` also ends
    on a whole round, so writes net to zero and every segment is timed
    equally often).  ``probe()``, when given, runs before each chunk and
    its reading is kept as the chunk's ``probe_ms``."""
    chunks: list[Chunk] = []
    wall = 0.0
    answered = 0
    while (
        wall < seconds
        or answered < session.MIN_QUERIES
        or not getattr(session, "at_round_end", True)
    ):
        probe_ms = probe() if probe is not None else 0.0
        chunk = session.run_chunk()
        chunk.probe_ms = probe_ms
        chunks.append(chunk)
        wall += chunk.wall_s
        answered += len(chunk.observations)
    return chunks
