#!/usr/bin/env bash
# Verify entrypoint: tier-1 test suite plus an observability smoke check.
#
#   ./scripts/check.sh
#
# 0. lints with ruff when it is installed (config in pyproject.toml);
#    without it, byte-compiles every file, imports every repro module and
#    resolves every name in each package's __all__;
# 1. runs the full pytest suite (the repo's tier-1 gate, see ROADMAP.md);
# 2. runs a LUBM query with tracing enabled and asserts the exported
#    JSONL trace parses and its span tree is well-formed
#    (scripts/trace_smoke.py);
# 3. smoke-runs the data-plane micro-benchmark at tiny scale and asserts
#    BENCH_micro.json / BENCH_join.json / BENCH_plan.json /
#    BENCH_store.json / BENCH_partial.json are produced and well-formed,
#    runs a dictionary round-trip check, re-runs the columnar join,
#    compiled-plan and array-substrate suites as perf-regression gates
#    against the checked-in BENCH_join.json / BENCH_plan.json /
#    BENCH_store.json — including the merge-beats-hash and
#    >=1e5-triple scale gates — and audits the committed
#    BENCH_plan.json metadata workload and BENCH_partial.json
#    partial-evaluation workload (>=2x intermediate-row reduction on
#    crossing-heavy queries, one partial round per endpoint,
#    row-identical answers, auto picker within 10% of the better fixed
#    strategy, fragment plan-cache sharing)
#    (scripts/microbench_smoke.py);
# 4. runs one LUBM query under the seeded transient-fault profile and
#    asserts the retry layer recovers deterministically
#    (scripts/chaos_smoke.py);
# 5. profiles one LUBM query per engine with the estimate audit on and
#    gates the resulting ProfileReports (status, request counts, rows
#    shipped, worst q-error) against the committed BENCH_profile.json
#    (scripts/profile_smoke.py);
# 6. replays a seeded 10^5-request Zipfian traffic mix through the
#    concurrent serving layer twice, asserts the two reports are
#    byte-identical, every result matches serial execution, throughput
#    is >=2x the one-at-a-time baseline, and gates the counters and
#    timings against the committed BENCH_serve.json
#    (scripts/serve_smoke.py).
set -euo pipefail

cd "$(dirname "$0")/.."

export PYTHONPATH=src

if command -v ruff >/dev/null 2>&1; then
  echo "== lint: ruff =="
  ruff check src tests benchmarks scripts
  ruff format --check src tests benchmarks scripts
else
  # Without ruff, still catch syntax errors and dangling imports: every
  # file must compile, every repro module import, and every name in a
  # package's __all__ resolve.
  echo "== lint: ruff not installed; compileall + import check =="
  python -m compileall -q src tests benchmarks scripts
  python - <<'PY'
import importlib
import pkgutil

import repro

count = 0
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    if info.name.rsplit(".", 1)[-1] == "__main__":
        continue
    module = importlib.import_module(info.name)
    count += 1
    for name in getattr(module, "__all__", ()):
        if not hasattr(module, name):
            raise SystemExit(f"{info.name}.__all__ names missing {name!r}")
print(f"imported {count} repro modules, every __all__ name resolves")
PY
fi

echo "== tier-1: pytest =="
python -m pytest -x -q

echo "== trace round-trip smoke =="
python scripts/trace_smoke.py

echo "== microbench + dictionary smoke =="
python scripts/microbench_smoke.py

echo "== seeded chaos smoke =="
python scripts/chaos_smoke.py

echo "== explain-analyze profile gate =="
python scripts/profile_smoke.py

echo "== concurrent serving gate =="
python scripts/serve_smoke.py

echo "check.sh: all green"
