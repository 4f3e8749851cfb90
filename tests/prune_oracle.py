"""Term-space oracle for partial-evaluation fragment pruning.

The endpoint prunes fragment rows in its own id space
(:func:`repro.sparql.partial.prune_id_rows` over per-id fingerprints)
and decodes only the survivors.  This is the independent reference it is
checked against: the same digest test on *decoded* rows, hashing each
crossing term afresh.
"""

from __future__ import annotations

from repro.sparql.evaluator import SelectResult
from repro.store.digests import stable_term_hash


def prune_rows(result: SelectResult, digests) -> tuple[list, int]:
    """Apply fragment digests to a decoded result's rows.

    Returns ``(surviving rows, pruned count)``.  A row survives when,
    for every digest whose variable the result projects, its value is
    unbound or hashes into the digest.
    """
    checks = []
    for variable, digest in digests:
        try:
            index = result.vars.index(variable)
        except ValueError:
            continue
        checks.append((index, digest))
    if not checks:
        return result.rows, 0
    kept = []
    for row in result.rows:
        for index, digest in checks:
            value = row[index]
            if value is not None and stable_term_hash(value) not in digest:
                break
        else:
            kept.append(row)
    return kept, len(result.rows) - len(kept)
