#!/usr/bin/env python3
"""End-to-end benchmark of the Lusail reproduction, on both clocks.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload lubm-geo-auto --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with the program
unmodified; ``--trace 1`` wraps the public entry points of each
``repro`` layer and reports the per-layer metrics instead (see
README.md).  Every answer is checked against the union-graph oracle,
evaluated in a child process.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
Details (host-noise probe, both-clocks table, spans) go to
``.e2ebench_out/`` in the repository root.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from tracing import median, percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".e2ebench_out"

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPS = 3
#: ``serve-rw`` segments run unpinned after the timed phase (not gated).
UNPINNED_SEGMENTS = 2
#: Gated wall times are scaled to a host on which :func:`speed_probe_ms`
#: reads this (about its typical reading on the development host).
REFERENCE_PROBE_MS = 2.0


def pin_to_one_cpu() -> set[int] | None:
    """Run this process (and the oracle child) on one CPU.

    Every workload issues its work from one thread at a time; the
    serving layer hands a baton between its worker threads.  Spread over
    two CPUs, each hand-off waits for the other CPU to wake up, which on
    a shared virtual machine takes from microseconds to milliseconds:
    unpinned, ``serve-rw`` segments took 2-5x longer in wall time, mostly
    idle, and varied from run to run with the host.  Returns the CPUs
    the process could use before.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})
    return allowed


def speed_probe_ms() -> float:
    """The host's speed right now: the best of three timings of a fixed
    pure-Python loop of about 2 ms.  Taken before each set-up and each
    timed chunk (see :func:`unit_times`)."""
    best = float("inf")
    for __ in range(3):
        started = perf_counter()
        total = 0
        for i in range(20_000):
            total += i * i % 7
        best = min(best, perf_counter() - started)
    return best * 1000.0


def host_noise_ms() -> float:
    """Wall time of a fixed pure-Python loop (a host-speed probe)."""
    started = perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i * i % 7
    return (perf_counter() - started) * 1000.0


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; only this process, not the oracle child.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_oracle(workload: str, seed: int, needed: dict[str, set[str]]) -> dict:
    request = {
        "workload": workload,
        "seed": seed,
        "states": {state: sorted(texts) for state, texts in needed.items()},
    }
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    done = subprocess.run(
        [sys.executable, str(HERE / "oracle.py")],
        input=json.dumps(request),
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=env,
        timeout=150,
        check=False,
    )
    if done.returncode != 0:
        raise RuntimeError(f"oracle failed: {done.stderr.strip()[-2000:]}")
    return json.loads(done.stdout)


def verify(workload: str, seed: int, chunks) -> tuple[int, int, list[str]]:
    """(attempted, failed, defects): status, completeness and bag equality
    against the oracle, for every observation of every chunk."""
    needed: dict[str, set[str]] = defaultdict(set)
    for chunk in chunks:
        for obs in chunk.observations:
            needed[obs.state].add(obs.text)
    expected = run_oracle(workload, seed, needed)
    attempted = failed = 0
    defects: list[str] = []
    for chunk in chunks:
        for obs in chunk.observations:
            attempted += 1
            want = expected[obs.state][obs.text]
            obs.correct = obs.ok and obs.digest == want
            if not obs.correct:
                failed += 1
                if len(defects) < 20:
                    defects.append(
                        f"{obs.name} [{obs.state}]: ok={obs.ok} "
                        f"got={obs.digest and obs.digest[1:]} want={want[1:]}"
                    )
    return attempted, failed, defects


def virtual_percentiles(chunks) -> dict:
    """Virtual latency percentiles: reported, not gated (see README.md)."""
    virtual = [obs.virtual_ms for chunk in chunks for obs in chunk.observations]
    return {
        "virtual_p50_ms": (percentile(virtual, 0.50), "ms"),
        "virtual_p99_ms": (percentile(virtual, 0.99), "ms"),
    }


def unit_times(workload: str, chunks, adjusted: bool) -> dict[str, tuple[int, float]]:
    """Per unit that repeats from pass to pass: (items, median wall
    seconds per item over the passes).  Units are the queries of a
    closed loop and the segments of the ``serve-rw`` round (the server
    runs a segment as one batch, so a request has no wall time of its
    own).

    ``adjusted`` scales each sample by ``REFERENCE_PROBE_MS`` over the
    speed probe taken right before its chunk.  The host's CPU speed
    changes by up to 1.5x, for anything from tenths of a second to
    minutes; unadjusted medians follow the share of slow time in a run.
    """
    samples: dict[str, list[float]] = defaultdict(list)
    items: dict[str, int] = {}
    for chunk in chunks:
        scale = REFERENCE_PROBE_MS / chunk.probe_ms if adjusted else 1.0
        if workload == "serve-rw":
            items[chunk.key] = len(chunk.observations)
            samples[chunk.key].append(chunk.wall_s * scale / len(chunk.observations))
        else:
            for obs in chunk.observations:
                items[obs.key] = 1
                samples[obs.key].append(obs.wall_s * scale)
    return {key: (items[key], median(walls)) for key, walls in samples.items()}


def wall_metrics(workload: str, chunks, adjusted: bool, suffix: str = "") -> dict:
    """``queries_per_s``, ``wall_p50_ms`` and ``wall_p90_ms``."""
    observations = [obs for chunk in chunks for obs in chunk.observations]
    correct_share = sum(obs.correct for obs in observations) / len(observations)
    units = unit_times(workload, chunks, adjusted)
    pass_s = sum(items * wall for items, wall in units.values())
    walls_ms = [wall * 1000.0 for __, wall in units.values()]
    return {
        "queries_per_s" + suffix: (
            correct_share * sum(items for items, __ in units.values()) / pass_s,
            "1/s",
        ),
        "wall_p50_ms" + suffix: (percentile(walls_ms, 0.50), "ms"),
        "wall_p90_ms" + suffix: (percentile(walls_ms, 0.90), "ms"),
    }


def end_to_end(workload: str, setups, chunks, rss_mb: float) -> dict:
    """Every gated end-to-end metric, for any workload (see README.md).
    ``setups`` are (set-up seconds, speed probe ms) pairs."""
    observations = [obs for chunk in chunks for obs in chunk.observations]
    n = len(observations)
    if workload == "serve-rw":
        rows_shipped = sum(chunk.rows_shipped for chunk in chunks)
    else:
        rows_shipped = sum(obs.rows_shipped for obs in observations)
    virtual = [obs.virtual_ms for obs in observations]
    return {
        "setup_s": (median([t * REFERENCE_PROBE_MS / probe for t, probe in setups]), "s"),
        **wall_metrics(workload, chunks, adjusted=True),
        "virtual_ms_per_query": (sum(virtual) / n, "ms"),
        "requests_per_query": (sum(obs.requests for obs in observations) / n, "count"),
        "rows_shipped_per_query": (rows_shipped / n, "rows"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def unadjusted(workload: str, setups, chunks) -> dict:
    """The wall metrics as measured, without the speed adjustment (not
    gated)."""
    return {
        "setup_s_unadjusted": (median([t for t, __ in setups]), "s"),
        **wall_metrics(workload, chunks, adjusted=False, suffix="_unadjusted"),
    }


def unpinned(workload: str, session, allowed, chunks) -> tuple[list, dict]:
    """``serve-rw`` only: the first segments of the round once more, on
    every CPU the process may use, beside the same segments' median
    pinned times.  Not gated: it keeps the cost of the server's cross-CPU
    hand-offs in view (see README.md)."""
    if workload != "serve-rw" or allowed is None or len(allowed) < 2:
        return [], {}
    os.sched_setaffinity(0, allowed)
    extra = [session.run_chunk() for __ in range(UNPINNED_SEGMENTS)]
    pinned = unit_times("serve-rw", chunks, adjusted=False)
    requests = sum(len(chunk.observations) for chunk in extra)
    pinned_s = sum(pinned[c.key][0] * pinned[c.key][1] for c in extra)
    return extra, {
        "unpinned_queries_per_s": (requests / sum(c.wall_s for c in extra), "1/s"),
        "pinned_queries_per_s_same_segments": (requests / pinned_s, "1/s"),
    }


def both_clocks(workload: str, chunks, active_s: dict[int, float]) -> list[dict]:
    """Per query name (per template on ``serve-rw``): wall ms, virtual ms
    and requests, from the traced phase."""
    groups = defaultdict(list)
    for chunk in chunks:
        for obs in chunk.observations:
            groups[obs.name].append(obs)
    rows = []
    for name, group in sorted(groups.items()):
        if workload == "serve-rw":
            walls = [active_s[obs.seq] * 1000.0 for obs in group if obs.seq in active_s]
        else:
            walls = [obs.wall_s * 1000.0 for obs in group]
        rows.append(
            {
                "name": name,
                "n": len(group),
                "wall_ms_p50": median(walls) if walls else 0.0,
                "virtual_ms_mean": sum(obs.virtual_ms for obs in group) / len(group),
                "requests_mean": sum(obs.requests for obs in group) / len(group),
            }
        )
    rows.sort(key=lambda row: -row["wall_ms_p50"])
    return rows


def format_table(rows: list[dict]) -> str:
    lines = [f"{'query':<22}{'n':>6}{'wall p50 ms':>14}{'virtual ms':>13}{'requests':>10}"]
    for row in rows:
        lines.append(
            f"{row['name']:<22}{row['n']:>6}{row['wall_ms_p50']:>14.2f}"
            f"{row['virtual_ms_mean']:>13.2f}{row['requests_mean']:>10.2f}"
        )
    return "\n".join(lines)


# ------------------------------------------------------------------ modes


def untraced(workload: str, seed: int, seconds: float):
    """((set-up seconds, speed probe ms) pairs, timed chunks, session,
    peak RSS) of a plain run."""
    from workloads import new_session, run_timed

    setups = []
    session = None
    for __ in range(SETUP_REPS):
        session = None
        gc.collect()
        probe = speed_probe_ms()
        started = perf_counter()
        session = new_session(workload, seed)
        setups.append((perf_counter() - started, probe))
    chunks = run_timed(session, seconds, speed_probe_ms)
    return setups, chunks, session, peak_rss_mb()


def traced(workload: str, seed: int, seconds: float):
    """(per-layer metrics, all chunks, session, both-clocks table).

    One set-up with the wrappers installed, then untraced and traced
    chunks in turn (two at a time on ``serve-rw``, so that each side
    sees applied and undone writes) until the untraced side has run for
    half of ``seconds``.  Taking turns lets host drift hit both sides
    alike, so their difference is the tracing overhead.
    """
    import layers
    from tracing import Tracer, install
    from workloads import new_session

    tracer = Tracer()
    targets = layers.targets()
    tracer.phase = "setup"
    with install(tracer, targets):
        session = new_session(workload, seed)
    server = getattr(session, "server", None)
    step = 2 if server is not None else 1
    tracer.phase = "timed"
    tracer.counters.clear()
    reference, chunks = [], []
    delta = (0, 0, 0.0, 0.0)
    subquery_hits = 0
    while (
        sum(chunk.wall_s for chunk in reference) < seconds / 2.0
        or sum(len(chunk.observations) for chunk in reference) < session.MIN_QUERIES
    ):
        reference.extend(session.run_chunk() for __ in range(step))
        before = layers.plan_totals(session.federation)
        hits_before = server.mqo_subquery_hits if server else 0
        with install(tracer, targets):
            chunks.extend(session.run_chunk() for __ in range(step))
        after = layers.plan_totals(session.federation)
        delta = tuple(d + b - a for d, a, b in zip(delta, before, after))
        subquery_hits += (server.mqo_subquery_hits if server else 0) - hits_before

    def per_query_s(run) -> float:
        return sum(c.wall_s for c in run) / sum(len(c.observations) for c in run)

    overhead_pct = (per_query_s(chunks) / per_query_s(reference) - 1.0) * 100.0
    observations = [obs for chunk in chunks for obs in chunk.observations]
    queries = len(observations)
    serve = None
    active = {}
    if server is not None:
        active = layers.worker_active_s(tracer, phase="timed")
        executed = [obs for obs in observations if obs.path == "executed"]
        latencies = [obs.virtual_ms for obs in observations]
        serve = {
            "worker_active_s": sum(active.values()),
            "cache_share": sum(o.path == "cache" for o in observations) / queries,
            "attach_share": sum(o.path == "attach" for o in observations) / queries,
            "executed_share": len(executed) / queries,
            "subquery_hits": subquery_hits / queries,
            "queue_wait_p50_ms": (
                median([obs.queue_wait_ms for obs in executed]) if executed else 0.0
            ),
            "latency_p50_ms": percentile(latencies, 0.50),
            "latency_p99_ms": percentile(latencies, 0.99),
        }
    values = layers.layer_metrics(tracer, queries, delta, overhead_pct, serve)
    metrics = {name: (value, layers.METRICS[name]) for name, value in values.items()}
    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"{workload}-seed{seed}-spans.jsonl")
    return metrics, reference + chunks, session, both_clocks(workload, chunks, active)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources ({SRC}) are missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {WORKLOADS}", file=sys.stderr)
        return 2

    allowed = pin_to_one_cpu()
    noise = host_noise_ms()
    print(f"host_noise_ms {noise:.1f}")
    details: dict = {
        "workload": args.workload,
        "seed": args.seed,
        "cpu": max(allowed) if allowed else None,
        "host_noise_ms": noise,
    }
    extra, not_gated = [], {}
    if args.trace:
        metrics, chunks, session, table = traced(args.workload, args.seed, args.seconds)
        details["both_clocks"] = table
        print(format_table(table))
    else:
        setups, chunks, session, rss = untraced(args.workload, args.seed, args.seconds)
        extra, not_gated = unpinned(args.workload, session, allowed, chunks)
        details["setups"] = setups
        details["chunks"] = [
            {
                "probe_ms": chunk.probe_ms,
                "wall_s": chunk.wall_s,
                "walls_s": {obs.key: obs.wall_s for obs in chunk.observations if obs.wall_s},
            }
            for chunk in chunks
        ]
    attempted, failed, defects = verify(args.workload, args.seed, chunks + extra)
    write_failures = getattr(session, "write_failures", 0)
    if write_failures:
        failed += 1
        defects.append(f"{write_failures} write(s) changed nothing")
    if not args.trace:
        metrics = end_to_end(args.workload, setups, chunks, rss)
        not_gated.update(unadjusted(args.workload, setups, chunks))
    error_rate = failed / attempted
    not_gated.update(virtual_percentiles(chunks))
    details.update({"error_rate": error_rate, "defects": defects, "not_gated": not_gated})
    print(f"error_rate {error_rate:.6f} fraction ({failed} of {attempted})")
    for defect in defects:
        print(f"DEFECT {defect}")
    for name, (value, unit) in not_gated.items():
        print(f"{name} {value:.6g} {unit} (not gated)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    details["result"] = result
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(details, indent=1)
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
