"""Span tracing from outside the program: removable wrappers, thread-local
span stacks, self time, percentiles.

The benchmark attributes wall time to ``repro`` layers without touching
``repro`` itself.  :func:`install` replaces chosen functions and methods
(module attributes or class attributes) with thin wrappers that open a
span around each call; :meth:`Installation.remove` puts the originals
back, so an untraced run executes exactly the program's own code.

Spans live in memory (one tuple each) and are written out once, at the
end of the run (:meth:`Tracer.dump`).  Each thread has its own span
stack, because the serving layer runs every in-flight query on a worker
thread of its own; a span's parent is always on the same thread.

A span's *self time* is its duration minus the part of its interval its
child spans cover (:func:`self_times`).  Spans marked as waits (a worker
parked for its scheduling turn) count as coverage for their parent but
are not work of any layer.
"""

from __future__ import annotations

import json
import math
import threading
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

__all__ = [
    "Installation",
    "Span",
    "Target",
    "Tracer",
    "covered_length",
    "install",
    "median",
    "percentile",
    "self_times",
]


@dataclass(frozen=True, slots=True)
class Span:
    """One closed span: ``start``/``end`` are ``perf_counter`` seconds."""

    sid: int
    parent: int  # -1 for a root span
    name: str
    thread: int
    start: float
    end: float
    wait: bool = False
    phase: str = ""

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans and counters in memory; thread-safe appends."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        #: Label stamped on every span closed from now on (for example
        #: ``setup`` or ``timed``), so one trace can be split afterwards.
        self.phase = ""
        #: Span id -> a label an ``after`` hook attached (see tag_last).
        self.tags: dict[int, str] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _new_id(self) -> int:
        with self._lock:
            sid = self._next_id
            self._next_id += 1
        return sid

    def count(self, key: str, value: float = 1) -> None:
        with self._lock:
            self.counters[key] += value

    def call(self, name: str, fn: Callable, args, kwargs, wait: bool = False):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        stack = self._stack()
        sid = self._new_id()
        parent = stack[-1] if stack else -1
        stack.append(sid)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            span = Span(
                sid, parent, name, threading.get_ident(), start, end, wait, self.phase
            )
            self._local.last = span
            with self._lock:
                self.spans.append(span)

    def tag_last(self, name: str, tag: str) -> None:
        """Label the span this thread closed last, if it is ``name``."""
        span = getattr(self._local, "last", None)
        if span is not None and span.name == name:
            self.tags[span.sid] = tag

    def dump(self, path) -> None:
        """Write every span as one JSON line (called once, at the end)."""
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(
                    json.dumps(
                        [
                            span.sid,
                            span.parent,
                            span.name,
                            span.thread,
                            round(span.start, 7),
                            round(span.end, 7),
                            span.wait,
                            span.phase,
                        ],
                        separators=(",", ":"),
                    )
                )
                handle.write("\n")


# ------------------------------------------------------------------ wrappers


@dataclass(frozen=True)
class Target:
    """One function to wrap: ``owner.attr`` (a module or a class).

    ``name`` is the span name, or a callable taking the call's
    positional arguments and returning one (a method wrapper can name
    its span after ``type(self)``).  ``after(tracer, args, kwargs,
    result)`` records counts at the same boundary; ``wait`` marks the
    span as waiting rather than working.
    """

    owner: object
    attr: str
    name: str | Callable
    after: Callable | None = None
    wait: bool = False


def _make_wrapper(tracer: Tracer, original: Callable, target: Target) -> Callable:
    name, after, wait = target.name, target.after, target.wait
    call = tracer.call

    def wrapper(*args, **kwargs):
        span_name = name(args) if callable(name) else name
        result = call(span_name, original, args, kwargs, wait)
        if after is not None:
            after(tracer, args, kwargs, result)
        return result

    wrapper.__wrapped__ = original
    wrapper.__name__ = getattr(original, "__name__", target.attr)
    wrapper.__doc__ = getattr(original, "__doc__", None)
    return wrapper


_ABSENT = object()


class Installation:
    """The wrappers one :func:`install` put in place; removable."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def _patch(self, owner, attr: str, value) -> None:
        # Remember the owner's own entry (not an inherited one), so that
        # removal restores the exact previous state.
        own = vars(owner).get(attr, _ABSENT) if isinstance(owner, type) else getattr(owner, attr)
        self._undo.append((owner, attr, own))
        setattr(owner, attr, value)

    def remove(self) -> None:
        while self._undo:
            owner, attr, own = self._undo.pop()
            if own is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)

    def __enter__(self) -> "Installation":
        return self

    def __exit__(self, *exc) -> None:
        self.remove()


def install(tracer: Tracer, targets: list[Target]) -> Installation:
    """Wrap every target; returns the handle that removes the wrappers."""
    installation = Installation()
    try:
        for target in targets:
            original = getattr(target.owner, target.attr)
            installation._patch(
                target.owner, target.attr, _make_wrapper(tracer, original, target)
            )
    except BaseException:
        installation.remove()
        raise
    return installation


# ---------------------------------------------------------------- self time


def covered_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        elif b > cur_b:
            cur_b = b
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time (seconds) of every span: duration minus child coverage."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    result: dict[int, float] = {}
    for span in spans:
        kids = children.get(span.sid)
        covered = covered_length(kids, span.start, span.end) if kids else 0.0
        result[span.sid] = max(0.0, span.duration - covered)
    return result


# -------------------------------------------------------------- percentiles


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of unsorted ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    index = max(0, math.ceil(q * len(ordered)) - 1)
    return ordered[min(index, len(ordered) - 1)]


def median(values) -> float:
    """The middle value (mean of the two middle ones for even counts)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no values")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0
