"""Union-graph oracle, run as a child process.

The benchmark process never builds the union store: this child rebuilds
the workload's federation from the seed, materializes
``federation.union_store()`` and evaluates each requested query text
once per data state with ``evaluate_select``.  Running it in a child
keeps oracle time out of ``setup_s`` and oracle memory out of the
benchmark process's peak RSS.

Protocol: one JSON object on stdin,
``{"workload": str, "seed": int, "states": {state: [text, ...]}}``
where a state is ``"base"`` or ``"batch:<k>"`` (``serve-rw`` write batch
``k`` applied to the base data); one JSON object on stdout mapping each
state to ``{text: digest}``.

Run: ``python3 e2ebench/oracle.py < request.json`` from the repository
root (``src/`` must be importable; ``run.py`` arranges that).
"""

from __future__ import annotations

import hashlib
import json
import sys


def digest(variables, rows) -> list:
    """Order-insensitive fingerprint of a result as a bag of rows."""
    lines = sorted(map(repr, rows))
    sha = hashlib.sha1("\n".join(lines).encode()).hexdigest()
    return [[variable.name for variable in variables], len(lines), sha]


def answer(request: dict) -> dict:
    from repro.sparql.evaluator import evaluate_select
    from repro.sparql.parser import parse_query

    import instances
    from workloads import build_federation

    federation = build_federation(request["workload"], request["seed"])
    union = federation.union_store()
    out: dict[str, dict] = {}
    for state, texts in request["states"].items():
        ops = []
        if state != "base":
            __, ops = instances.write_batch(request["seed"], int(state.split(":")[1]))
        for op, triple in ops:
            changed = union.add(triple) if op == "add" else union.remove(triple)
            if not changed:
                raise RuntimeError(f"{state}: {op} of {triple} changed nothing")
        results = {}
        for text in texts:
            result = evaluate_select(union, parse_query(text))
            results[text] = digest(result.vars, result.rows)
        out[state] = results
        for op, triple in instances.undo(ops):
            union.add(triple) if op == "add" else union.remove(triple)
    return out


def main() -> int:
    request = json.load(sys.stdin)
    json.dump(answer(request), sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
