"""Term dictionary: dense integer ids for RDF terms.

Distributed RDF engines (RDF-3X, the partitioned-graph systems of Peng et
al., Lothbrok's fragment statistics) do not join on IRI strings — they
dictionary-encode every term once at load time and run the whole data
plane in integer space.  :class:`TermDictionary` is that mapping: each
distinct term gets a dense ``int`` id in first-encounter order, with a
decode table for the reverse direction.

Two instances play distinct roles in this codebase:

* every :class:`~repro.store.TripleStore` owns one — its permutation
  indexes, the SPARQL evaluator's solution bindings, and all per-predicate
  statistics are keyed on that store's ids;
* the mediator's relational layer shares one process-wide codec
  (:func:`repro.relational.relation.mediator_codec`) so hash joins,
  DISTINCT, and VALUES extraction over results from *different* endpoints
  still compare plain ints.

Encoding is interning: ``encode`` assigns a fresh id to an unseen term, so
query-only constants (VALUES rows, FILTER constants) can be pulled into id
space too.  ``lookup`` never interns — a miss means "this term cannot
occur in the data", which the evaluator exploits to prune dead patterns
without touching an index.

Ids are append-only and never reused, so anything derived per id (an
:class:`IdMemo`) never goes stale.  :class:`EncodedRows` is
what crosses the endpoint boundary: one dictionary plus id rows, decoded
only if somebody reads them as terms.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Callable, Iterable, Iterator

from repro.rdf.terms import Term

#: An encoded solution row: ids aligned with a variable schema, ``None``
#: marking an unbound position (e.g. from OPTIONAL).
IdRow = tuple


class TermDictionary:
    """A bijective term <-> dense-int mapping (ids start at 0)."""

    __slots__ = ("_ids", "_terms", "_memos")

    def __init__(self):
        self._ids: dict[Term, int] = {}
        self._terms: list[Term] = []
        self._memos: dict = {}

    def __len__(self) -> int:
        return len(self._terms)

    def __contains__(self, term: Term) -> bool:
        return term in self._ids

    def __repr__(self) -> str:
        return f"TermDictionary(terms={len(self._terms)})"

    def __iter__(self) -> Iterator[Term]:
        return iter(self._terms)

    # ------------------------------------------------------------- encode

    def encode(self, term: Term) -> int:
        """The id of ``term``, interning it if unseen."""
        ids = self._ids
        found = ids.get(term)
        if found is not None:
            return found
        fresh = len(self._terms)
        ids[term] = fresh
        self._terms.append(term)
        return fresh

    def lookup(self, term: Term) -> int | None:
        """The id of ``term`` if already interned, else ``None``."""
        return self._ids.get(term)

    def encode_row(self, row: Iterable[Term | None]) -> IdRow:
        """Encode one solution row; ``None`` (unbound) passes through."""
        encode = self.encode
        return tuple(None if term is None else encode(term) for term in row)

    # ------------------------------------------------------------- decode

    def decode(self, term_id: int) -> Term:
        """The term for an id minted by this dictionary."""
        return self._terms[term_id]

    def decode_row(self, row: IdRow) -> tuple[Term | None, ...]:
        """Decode one solution row; ``None`` (unbound) passes through."""
        terms = self._terms
        return tuple(None if term_id is None else terms[term_id] for term_id in row)

    @property
    def terms(self) -> list[Term]:
        """The decode table (do not mutate)."""
        return self._terms

    # -------------------------------------------------------------- memos

    def memo(self, key, derive: Callable[[Term], object], unbound=None) -> "IdMemo":
        """The :class:`IdMemo` of ``derive`` over this dictionary's ids,
        created on first request under ``key`` and kept for reuse."""
        memos = self._memos
        found = memos.get(key)
        if found is None:
            found = memos[key] = IdMemo(self, derive, unbound)
        return found


class IdMemo(dict):
    """``derive(term)`` per id of one dictionary, filled on first sight.

    ``__missing__`` derives from the decode table, so the memo only ever
    holds ids somebody asked about; ``None`` (unbound) maps to
    ``unbound``.  Dictionaries are append-only and never reuse an id, so
    an entry never goes stale.
    """

    __slots__ = ("_terms", "_derive")

    def __init__(self, dictionary: TermDictionary, derive: Callable[[Term], object], unbound=None):
        super().__init__()
        self._terms = dictionary.terms
        self._derive = derive
        self[None] = unbound

    def __missing__(self, term_id: int):
        value = self[term_id] = self._derive(self._terms[term_id])
        return value


def decode_columns(terms: list[Term], columns: Iterable[Sequence]) -> list[list]:
    """Decode id columns through a decode table, one column at a time.

    A fully bound column is one C-level ``map`` over the table; only a
    column holding ``None`` (unbound) pays a per-cell test.
    """
    lookup = terms.__getitem__
    return [
        list(map(lookup, column))
        if None not in column
        else [None if term_id is None else terms[term_id] for term_id in column]
        for column in columns
    ]


class EncodedRows(Sequence):
    """Id rows of one dictionary that read as term rows on demand.

    This is what an endpoint ships: its own dictionary plus the id rows
    of a result.  Id-space consumers (the mediator's ingest, the
    wire-size estimate) read :attr:`dictionary` and :attr:`ids` and
    never decode.  Everything else — iteration, indexing, equality —
    sees term tuples, decoded lazily and at most once.
    """

    __slots__ = ("dictionary", "ids", "_decoded")

    def __init__(self, dictionary: TermDictionary, ids: list[IdRow]):
        self.dictionary = dictionary
        self.ids = ids
        self._decoded: list | None = None

    def decoded(self) -> list[tuple[Term | None, ...]]:
        """The rows as term tuples (decoded on first call)."""
        rows = self._decoded
        if rows is None:
            ids = self.ids
            if ids and ids[0]:
                rows = list(zip(*decode_columns(self.dictionary.terms, zip(*ids))))
            else:
                rows = [()] * len(ids)
            self._decoded = rows
        return rows

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[tuple[Term | None, ...]]:
        return iter(self.decoded())

    def __getitem__(self, index):
        return self.decoded()[index]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, EncodedRows):
            return self.decoded() == other.decoded()
        if isinstance(other, (list, tuple)):
            return self.decoded() == [tuple(row) for row in other]
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"EncodedRows(rows={len(self.ids)})"
