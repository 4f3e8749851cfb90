"""Join-value digests: per-predicate value fingerprints for partial eval.

Partial evaluation (Peng/Zou) ships the whole branch plan to every
endpoint and assembles the returned partial matches centrally.  Shipped
naively, a fragment's extent at one endpoint can dwarf the bound-join
ladder it replaces: most local rows never join with *any* row from the
other endpoints.  The digest index gives each endpoint a cheap, sound
way to drop those rows before they cross the wire.

A digest is the set of 32-bit fingerprints (:func:`stable_term_hash`,
CRC-32 over the term's N3 form) of every distinct subject or object
value a predicate carries in one store.  The mediator unions the
digests of the endpoints on the *other* side of a crossing edge and
embeds that set in the partial request; the evaluating endpoint keeps a
fragment row only if its crossing-variable value hashes into the set.
CRC collisions can only keep extra rows, never drop one, so pruning is
sound — the mediator join discards survivors that do not actually match.

Fingerprints live in id space: :class:`TermFingerprints` memoizes the
CRC-32 of every dictionary id once, so digest builds and fragment
pruning (:func:`repro.sparql.partial.prune_id_rows`) index an array
instead of rendering and hashing terms.  Digests are built lazily per
``(predicate, position)`` from the store's id index and cached under
``store.version``, the same invalidation discipline as the plan cache
and the characteristic-set summaries.
"""

from __future__ import annotations

import zlib
from array import array
from itertools import islice
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.rdf.terms import Term
    from repro.store.dictionary import TermDictionary
    from repro.store.triple_store import TripleStore

#: Digest positions: which end of the predicate's triples is hashed.
SUBJECT = "subject"
OBJECT = "object"
POSITIONS = (SUBJECT, OBJECT)

#: Wire-size accounting: one fingerprint is a packed 32-bit word.
BYTES_PER_HASH = 4


def stable_term_hash(term: "Term") -> int:
    """A deterministic 32-bit fingerprint of an RDF term.

    Hashes the N3 serialization so IRIs, literals (with datatype and
    language tags) and blank nodes that render identically fingerprint
    identically across endpoints, independent of dictionary ids.
    """
    return zlib.crc32(term.n3().encode("utf-8"))


class TermFingerprints:
    """:func:`stable_term_hash` of every id of one term dictionary.

    An ``array('I')`` aligned with the dictionary's ids.  The dictionary
    is append-only, so an entry never goes stale: :meth:`table` only
    hashes the ids minted since the last call (data loads, and query
    constants interned by ``encode``).
    """

    __slots__ = ("_terms", "_table")

    def __init__(self, dictionary: "TermDictionary"):
        self._terms = dictionary.terms
        self._table = array("I")

    def table(self) -> array:
        """The fingerprint table, extended to the dictionary's size."""
        table = self._table
        terms = self._terms
        if len(table) < len(terms):
            table.extend(
                stable_term_hash(term) for term in islice(terms, len(table), None)
            )
        return table


class JoinDigestIndex:
    """Lazy per-store cache of join-value digests.

    One instance lives on each endpoint.  Digests are computed on first
    request for a ``(predicate, position)`` pair and reused until the
    store mutates (``store.version`` changes), when the whole cache is
    dropped — the store has no per-predicate dirty tracking, and a full
    rebuild of one digest is a single index scan.
    """

    def __init__(self, store: "TripleStore"):
        self._store = store
        self._version = store.version
        self._digests: dict[tuple["Term", str], frozenset[int]] = {}
        #: Per-id fingerprints of the store's dictionary, shared with
        #: the endpoint's fragment pruning.
        self.fingerprints = TermFingerprints(store.dictionary)
        #: Full scans performed (observability; cache hits don't count).
        self.builds = 0

    def digest(self, predicate: "Term", position: str) -> frozenset[int]:
        """Fingerprints of the predicate's distinct values at ``position``."""
        if position not in POSITIONS:
            raise ValueError(f"unknown digest position: {position!r}")
        store = self._store
        if store.version != self._version:
            self._digests.clear()
            self._version = store.version
        key = (predicate, position)
        cached = self._digests.get(key)
        if cached is not None:
            return cached
        p = store.dictionary.lookup(predicate)
        if p is None:
            digest: frozenset[int] = frozenset()
        else:
            table = self.fingerprints.table()
            column = 0 if position == SUBJECT else 2
            digest = frozenset(
                {table[triple[column]] for triple in store.match_ids(None, p, None)}
            )
        self._digests[key] = digest
        self.builds += 1
        return digest

    @property
    def version(self) -> int:
        """Store version the cached digests are valid for."""
        return self._version


def digest_bytes(digest: frozenset[int]) -> int:
    """Wire size of one digest (packed 32-bit fingerprints)."""
    return len(digest) * BYTES_PER_HASH
