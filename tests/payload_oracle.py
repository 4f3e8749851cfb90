"""Term-walk oracle for the virtual-time payload size of a SELECT result.

The federation client sums response sizes from a per-id byte memo over
the endpoint's id rows (:func:`repro.endpoint.client._payload_bytes`).
This is the independent reference it is checked against: walk every
decoded term of every row and size it afresh.
"""

from __future__ import annotations

from repro.endpoint.client import _TERM_OVERHEAD_BYTES
from repro.sparql.evaluator import SelectResult


def payload_bytes(result: SelectResult) -> int:
    """Approximate serialized size of a SELECT result.

    Counts the value text of every bound term (a blank node's label)
    plus a fixed framing overhead per bound term.
    """
    total = 0
    for row in result.rows:
        for term in row:
            if term is None:
                continue
            value = getattr(term, "value", None)
            if value is None:
                value = getattr(term, "label", "")
            total += len(value) + _TERM_OVERHEAD_BYTES
    return total
