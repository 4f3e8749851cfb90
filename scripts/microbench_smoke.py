"""Smoke checks for the encoded data plane, run by scripts/check.sh.

1. Dictionary round-trip: every term in a generated LUBM endpoint
   encodes to a unique dense id and decodes back to an equal term.
2. Micro-benchmark plumbing: ``benchmarks/bench_microperf.py --smoke``
   runs at tiny scale and emits a well-formed BENCH_micro.json (each
   bench internally asserts encoded results equal the term-space
   reference results, so this also cross-checks correctness).
3. Columnar join regression gate: ``bench_microperf.py --gate`` re-runs
   the columnar join suite at the committed BENCH_join.json's scale and
   fails if any bench's columnar-vs-row speedup falls below an absolute
   floor or drops far below the checked-in baseline.  Speedups are
   in-run ratios on identical data, so the gate is machine-tolerant.
   ``mediator_filter_join`` compares cross product + filter against the
   value-keyed FILTER join instead of row vs columnar runtimes;
   ``fragment_prune`` compares decode-then-hash fragment pruning against
   id-space pruning that decodes only the surviving rows; and
   ``wire_ingest`` compares decode + term-walk payload sizing + re-encode
   of a shipped endpoint result against id rows with memoized byte sizes
   and memoized id translation.
4. Compiled-plan regression gate: same mechanism over the compiled plan
   suite (BENCH_plan.json) — cached-plan bound-join execution must stay
   at least twice as fast as per-request interpretive planning.
5. Array-substrate regression gate: same mechanism over the store suite
   (BENCH_store.json) — the merge kernel must beat the hash kernel on
   sorted inputs, both store backends must agree on every probe, and the
   ≥10⁵-triple scale gate must complete with the sorted backend building
   faster than the dict backend.
6. Metadata-workload gate: the committed BENCH_plan.json workload
   section must show the charset statistics cutting planner metadata
   requests ≥5x with row-identical answers and summary estimates within
   2x q-error of exact local counts, and COUNT-probe skeleton collapse
   holding the ``count`` plan-cache hit rate ≥0.75.
7. Partial-evaluation gate: the committed BENCH_partial.json workload
   must show the digest-pruned partial round shipping ≥2x fewer
   intermediate rows than the bound-join ladder on the crossing-heavy
   LUBM queries, exactly one ``partial`` round per participating
   endpoint, row-identical answers across strategies, the auto picker
   within 10% of the better fixed strategy in warm virtual time, and
   fragment canonicalization holding the ``partial``-kind plan-cache
   hit rate ≥0.7 over constant-varied fragments.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def check_dictionary_round_trip() -> None:
    from repro.datasets import lubm
    from repro.store import TripleStore

    store = TripleStore()
    store.add_all(lubm.generate_university(0, 1))
    dictionary = store.dictionary
    assert len(dictionary) > 0, "dictionary is empty after load"
    seen_ids = set()
    for term in dictionary:
        term_id = dictionary.lookup(term)
        assert term_id is not None, f"interned term has no id: {term!r}"
        assert term_id not in seen_ids, f"duplicate id {term_id}"
        seen_ids.add(term_id)
        assert dictionary.decode(term_id) == term, f"round-trip failed: {term!r}"
    assert seen_ids == set(range(len(dictionary))), "ids are not dense"
    print(f"dictionary round-trip ok ({len(dictionary)} terms)")


def check_microbench_smoke() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "BENCH_micro.json"
        join_out = Path(tmp) / "BENCH_join.json"
        plan_out = Path(tmp) / "BENCH_plan.json"
        store_out = Path(tmp) / "BENCH_store.json"
        partial_out = Path(tmp) / "BENCH_partial.json"
        subprocess.run(
            [
                sys.executable, "benchmarks/bench_microperf.py", "--smoke",
                "--out", str(out), "--join-out", str(join_out),
                "--plan-out", str(plan_out), "--store-out", str(store_out),
                "--partial-out", str(partial_out),
            ],
            cwd=REPO,
            check=True,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
        )
        report = json.loads(out.read_text())
        join_report = json.loads(join_out.read_text())
        plan_report = json.loads(plan_out.read_text())
        store_report = json.loads(store_out.read_text())
        partial_report = json.loads(partial_out.read_text())
    assert set(report) == {"meta", "benches"}, f"unexpected keys: {set(report)}"
    expected = {"bgp_join", "mediator_join", "values_subquery"}
    assert set(report["benches"]) == expected, f"missing benches: {report['benches']}"
    join_expected = {
        "mediator_join",
        "mediator_join_big",
        "bound_join_blocks",
        "mediator_filter_join",
        "fragment_prune",
        "wire_ingest",
    }
    assert set(join_report["benches"]) == join_expected, (
        f"missing join benches: {join_report['benches']}"
    )
    assert set(plan_report) == {"meta", "benches", "workload"}, (
        f"unexpected plan keys: {set(plan_report)}"
    )
    plan_expected = {"bound_join_reuse", "cached_execute"}
    assert set(plan_report["benches"]) == plan_expected, (
        f"missing plan benches: {plan_report['benches']}"
    )
    assert set(store_report) == {"meta", "benches", "scale_gate"}, (
        f"unexpected store keys: {set(store_report)}"
    )
    store_expected = {"store_build", "store_probe", "merge_join_sorted"}
    assert set(store_report["benches"]) == store_expected, (
        f"missing store benches: {store_report['benches']}"
    )
    for benches in (
        report["benches"],
        join_report["benches"],
        plan_report["benches"],
        store_report["benches"],
    ):
        for name, bench in benches.items():
            for field in ("before_s", "after_s", "speedup"):
                value = bench.get(field)
                assert isinstance(value, (int, float)) and value > 0, (
                    f"{name}.{field} malformed: {value!r}"
                )
    build = store_report["benches"]["store_build"]
    for field in ("peak_bytes_dict", "peak_bytes_sorted", "bytes_per_triple_sorted"):
        value = build.get(field)
        assert isinstance(value, (int, float)) and value > 0, (
            f"store_build.{field} malformed: {value!r}"
        )
    scale_gate = store_report["scale_gate"]
    for field in ("triples", "build_s", "query_s", "bytes_per_triple"):
        assert field in scale_gate, f"store scale_gate missing {field}"
    workload = plan_report["workload"]
    for field in ("plan_cache_hits", "plan_cache_misses", "hit_rate"):
        assert field in workload, f"plan workload missing {field}"
    metadata = workload.get("metadata")
    assert metadata, "plan workload missing metadata section"
    for field in ("requests_per_query", "reduction", "stats_q_error_max", "rows_identical"):
        assert field in metadata, f"metadata workload missing {field}"
    assert metadata["rows_identical"] is True, "statistics changed smoke answers"
    partial = partial_report["workload"]
    assert partial.get("queries"), "partial workload missing per-query section"
    for query_name, entry in partial["queries"].items():
        for field in (
            "bound_intermediate_rows", "partial_intermediate_rows", "reduction",
            "virtual_ms", "rounds_per_endpoint", "rows_identical", "crossing_heavy",
            "auto_vs_best",
        ):
            assert field in entry, f"partial workload {query_name} missing {field}"
        assert entry["rows_identical"] is True, (
            f"partial workload {query_name}: strategies disagreed in smoke run"
        )
        assert entry["rounds_per_endpoint"] == 1, (
            f"partial workload {query_name}: multiple partial rounds per endpoint"
        )
    sharing = partial.get("fragment_plan_cache")
    assert sharing and "hit_rate" in sharing, (
        "partial workload missing fragment_plan_cache section"
    )
    print(
        "microbench smoke ok (BENCH_micro.json / BENCH_join.json / "
        "BENCH_plan.json / BENCH_store.json / BENCH_partial.json well-formed)"
    )


#: Absolute speedup floors for the columnar join suite.  mediator_join's
#: 2.0 is the PR acceptance criterion: the columnar kernels must stay at
#: least twice as fast as the preserved row runtime on that workload.
#: mediator_filter_join's 10.0: the value-keyed FILTER join must stay an
#: order of magnitude ahead of cross product + filter on a B5-shaped
#: 600 x 480 input (it replaces O(n*m) work with O(n+m)).
#: fragment_prune's 3.0: at a ~95% prune rate, pruning fragment id rows
#: against the fingerprint memo and decoding only the survivors must
#: stay at least three times faster than decoding and hashing every row.
#: wire_ingest's 2.0: shipping a few thousand endpoint id rows into a
#: mediator relation through the warm byte and translation memos must
#: stay at least twice as fast as decoding, term-walking and re-encoding
#: them.
_GATE_FLOORS = {
    "mediator_join": 2.0,
    "mediator_join_big": 2.0,
    "bound_join_blocks": 1.5,
    "mediator_filter_join": 10.0,
    "fragment_prune": 3.0,
    "wire_ingest": 2.0,
}
#: A gate run may be this much slower (relative) than the committed
#: baseline before it counts as a regression; in-run speedup ratios are
#: stable, so most genuine regressions blow straight through this.
_GATE_TOLERANCE = 0.35


def check_join_regression() -> None:
    baseline_path = REPO / "BENCH_join.json"
    assert baseline_path.exists(), "BENCH_join.json baseline missing from repo root"
    baseline = json.loads(baseline_path.read_text())["benches"]
    with tempfile.TemporaryDirectory() as tmp:
        join_out = Path(tmp) / "BENCH_join.json"
        subprocess.run(
            [
                sys.executable, "benchmarks/bench_microperf.py", "--gate",
                "--join-out", str(join_out),
                "--plan-out", str(Path(tmp) / "BENCH_plan.json"),
                "--store-out", str(Path(tmp) / "BENCH_store.json"),
            ],
            cwd=REPO,
            check=True,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
        )
        gate = json.loads(join_out.read_text())["benches"]
    assert set(gate) == set(_GATE_FLOORS), f"gate benches changed: {set(gate)}"
    for name, floor in _GATE_FLOORS.items():
        speedup = gate[name]["speedup"]
        required = floor
        base = baseline.get(name, {}).get("speedup")
        if base:
            required = max(required, base * _GATE_TOLERANCE)
        assert speedup >= required, (
            f"join perf regression: {name} speedup {speedup:.2f}x fell below "
            f"{required:.2f}x (baseline {base and f'{base:.2f}x'}, floor {floor}x)"
        )
        print(f"join gate: {name} {speedup:.2f}x >= {required:.2f}x ok")


#: Absolute speedup floors for the compiled plan suite.
#: bound_join_reuse's 2.0 is the PR acceptance criterion: re-executing a
#: cached plan on new VALUES blocks must stay at least twice as fast as
#: per-request interpretive planning.  cached_execute's floor only
#: asserts that compilation is not free (cold > cached).
_PLAN_GATE_FLOORS = {
    "bound_join_reuse": 2.0,
    "cached_execute": 1.2,
}


def check_plan_regression() -> None:
    baseline_path = REPO / "BENCH_plan.json"
    assert baseline_path.exists(), "BENCH_plan.json baseline missing from repo root"
    baseline = json.loads(baseline_path.read_text())["benches"]
    with tempfile.TemporaryDirectory() as tmp:
        plan_out = Path(tmp) / "BENCH_plan.json"
        subprocess.run(
            [
                sys.executable, "benchmarks/bench_microperf.py", "--gate",
                "--join-out", str(Path(tmp) / "BENCH_join.json"),
                "--plan-out", str(plan_out),
                "--store-out", str(Path(tmp) / "BENCH_store.json"),
            ],
            cwd=REPO,
            check=True,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
        )
        gate = json.loads(plan_out.read_text())["benches"]
    assert set(gate) == set(_PLAN_GATE_FLOORS), f"plan gate benches changed: {set(gate)}"
    for name, floor in _PLAN_GATE_FLOORS.items():
        speedup = gate[name]["speedup"]
        required = floor
        base = baseline.get(name, {}).get("speedup")
        if base:
            required = max(required, base * _GATE_TOLERANCE)
        assert speedup >= required, (
            f"plan perf regression: {name} speedup {speedup:.2f}x fell below "
            f"{required:.2f}x (baseline {base and f'{base:.2f}x'}, floor {floor}x)"
        )
        print(f"plan gate: {name} {speedup:.2f}x >= {required:.2f}x ok")


#: Absolute speedup floors for the array-substrate store suite.
#: merge_join_sorted's 1.0 is the PR acceptance criterion: the merge
#: kernel must beat the hash kernel on already-sorted inputs.  The build
#: and probe benches run at micro scale where the backends sit near
#: parity (the sorted backend's bulk-load advantage shows at the ≥10⁵
#: scale gate), so their floors only catch real regressions.
_STORE_GATE_FLOORS = {
    "store_build": 0.4,
    "store_probe": 0.6,
    "merge_join_sorted": 1.0,
}


def check_store_regression() -> None:
    baseline_path = REPO / "BENCH_store.json"
    assert baseline_path.exists(), "BENCH_store.json baseline missing from repo root"
    baseline = json.loads(baseline_path.read_text())["benches"]
    with tempfile.TemporaryDirectory() as tmp:
        store_out = Path(tmp) / "BENCH_store.json"
        subprocess.run(
            [
                sys.executable, "benchmarks/bench_microperf.py", "--gate",
                "--join-out", str(Path(tmp) / "BENCH_join.json"),
                "--plan-out", str(Path(tmp) / "BENCH_plan.json"),
                "--store-out", str(store_out),
            ],
            cwd=REPO,
            check=True,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
        )
        report = json.loads(store_out.read_text())
    gate = report["benches"]
    assert set(gate) == set(_STORE_GATE_FLOORS), f"store gate benches changed: {set(gate)}"
    for name, floor in _STORE_GATE_FLOORS.items():
        speedup = gate[name]["speedup"]
        required = floor
        base = baseline.get(name, {}).get("speedup")
        if base:
            required = max(required, base * _GATE_TOLERANCE)
        assert speedup >= required, (
            f"store perf regression: {name} speedup {speedup:.2f}x fell below "
            f"{required:.2f}x (baseline {base and f'{base:.2f}x'}, floor {floor}x)"
        )
        print(f"store gate: {name} {speedup:.2f}x >= {required:.2f}x ok")
    scale_gate = report["scale_gate"]
    assert scale_gate["met_100k"], (
        f"scale gate below 1e5 triples: {scale_gate['triples']}"
    )
    assert scale_gate["query_rows"] > 0, "scale-gate compiled query returned no rows"
    # Floor 1.05: at 1e5+ triples the columnar bulk load must at least
    # hold its small edge over dict-of-sets insertion (typically
    # 1.2-1.35x with the cyclic GC on; the margin narrows under load,
    # so the floor only guards against losing outright).  Both sides
    # are best-of-5 interleaved builds, alternating which goes first;
    # the bench prints the per-round ratios.
    assert scale_gate["build_speedup"] >= 1.05, (
        f"sorted bulk load lost its large-scale advantage: "
        f"{scale_gate['build_speedup']:.2f}x vs dict"
    )
    print(
        f"store gate: scale {scale_gate['triples']} triples, "
        f"bulk load {scale_gate['build_speedup']:.2f}x vs dict ok"
    )


#: Acceptance bars for the committed BENCH_plan.json workload section.
#: The workload only runs in full (non-gate) benchmark mode, so this
#: gate audits the checked-in baseline rather than re-running it: a full
#: ``bench_microperf.py`` run must have produced numbers clearing the
#: issue's acceptance criteria before the baseline was committed.
_METADATA_REDUCTION_FLOOR = 5.0
_STATS_Q_ERROR_CEILING = 2.0
_COUNT_HIT_RATE_FLOOR = 0.75


def check_metadata_workload_baseline() -> None:
    baseline_path = REPO / "BENCH_plan.json"
    assert baseline_path.exists(), "BENCH_plan.json baseline missing from repo root"
    workload = json.loads(baseline_path.read_text())["workload"]
    count_rate = workload["by_kind"]["count"]["hit_rate"]
    assert count_rate >= _COUNT_HIT_RATE_FLOOR, (
        f"COUNT-probe skeleton collapse regressed: count plan-cache hit rate "
        f"{count_rate:.3f} < {_COUNT_HIT_RATE_FLOOR}"
    )
    metadata = workload["metadata"]
    assert metadata["rows_identical"] is True, (
        "baseline recorded answer divergence between stats and probe paths"
    )
    reduction = metadata["reduction"]
    assert reduction >= _METADATA_REDUCTION_FLOOR, (
        f"charset statistics no longer cut metadata traffic: "
        f"{reduction:.1f}x < {_METADATA_REDUCTION_FLOOR}x"
    )
    q_error = metadata["stats_q_error_max"]
    assert q_error <= _STATS_Q_ERROR_CEILING, (
        f"summary estimates drifted: stats q-error {q_error:.2f} > "
        f"{_STATS_Q_ERROR_CEILING}"
    )
    print(
        f"metadata gate: {reduction:.1f}x fewer requests/query, "
        f"stats q-error {q_error:.2f}, count hit rate {count_rate:.3f} ok"
    )


#: Acceptance bars for the committed BENCH_partial.json workload.  Like
#: the metadata gate, the partial workload only runs in full benchmark
#: mode, so this audits the checked-in baseline: a full
#: ``bench_microperf.py`` run must have cleared the issue's acceptance
#: criteria before the baseline was committed.
_PARTIAL_REDUCTION_FLOOR = 2.0
_AUTO_OVERHEAD_CEILING = 1.1
_FRAGMENT_HIT_RATE_FLOOR = 0.7


def check_partial_baseline() -> None:
    baseline_path = REPO / "BENCH_partial.json"
    assert baseline_path.exists(), "BENCH_partial.json baseline missing from repo root"
    workload = json.loads(baseline_path.read_text())["workload"]
    heavy = []
    for query_name, entry in workload["queries"].items():
        assert entry["rows_identical"] is True, (
            f"partial baseline {query_name}: strategies disagreed on the answer"
        )
        assert entry["rounds_per_endpoint"] == 1, (
            f"partial baseline {query_name}: partial evaluation took "
            f"{entry['rounds_per_endpoint']} rounds per endpoint (expected 1)"
        )
        auto_ratio = entry["auto_vs_best"]
        assert auto_ratio <= _AUTO_OVERHEAD_CEILING, (
            f"partial baseline {query_name}: auto picker {auto_ratio:.2f}x slower "
            f"than the better fixed strategy (> {_AUTO_OVERHEAD_CEILING}x)"
        )
        if entry["crossing_heavy"]:
            heavy.append(query_name)
            reduction = entry["reduction"]
            assert reduction >= _PARTIAL_REDUCTION_FLOOR, (
                f"partial baseline {query_name}: intermediate-row reduction "
                f"{reduction:.2f}x < {_PARTIAL_REDUCTION_FLOOR}x"
            )
    assert heavy, "partial baseline has no crossing-heavy queries"
    hit_rate = workload["fragment_plan_cache"]["hit_rate"]
    assert hit_rate >= _FRAGMENT_HIT_RATE_FLOOR, (
        f"fragment canonicalization regressed: partial-kind plan-cache hit rate "
        f"{hit_rate:.3f} < {_FRAGMENT_HIT_RATE_FLOOR}"
    )
    reductions = ", ".join(
        f"{name} {workload['queries'][name]['reduction']:.2f}x" for name in heavy
    )
    print(
        f"partial gate: intermediate rows cut {reductions}, one round/endpoint, "
        f"fragment plan-cache hit rate {hit_rate:.3f} ok"
    )


def main() -> int:
    sys.path.insert(0, str(REPO / "src"))
    check_dictionary_round_trip()
    check_microbench_smoke()
    check_join_regression()
    check_plan_regression()
    check_store_regression()
    check_metadata_workload_baseline()
    check_partial_baseline()
    return 0


if __name__ == "__main__":
    sys.exit(main())
