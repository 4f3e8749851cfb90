"""Unit tests of the traced-run machinery (``tracing.py``)."""

from __future__ import annotations

import threading
import types

import pytest

from tracing import (
    Span,
    Target,
    Tracer,
    covered_length,
    install,
    median,
    percentile,
    self_times,
)


def _span(sid, parent, start, end, wait=False):
    return Span(sid, parent, f"s{sid}", 1, start, end, wait)


# ------------------------------------------------------------------ wrappers


class Widget:
    def double(self, x):
        return 2 * x


class Gadget(Widget):
    pass


def test_module_function_wrapped_and_removed():
    module = types.SimpleNamespace(square=lambda x: x * x)
    original = module.square
    tracer = Tracer()
    with install(tracer, [Target(module, "square", "math.square")]):
        assert module.square is not original
        assert module.square(3) == 9
    assert module.square is original
    assert [span.name for span in tracer.spans] == ["math.square"]


def test_method_wrapped_and_restored_exactly():
    tracer = Tracer()
    original = Widget.__dict__["double"]
    installation = install(tracer, [Target(Widget, "double", "widget.double")])
    assert Widget().double(4) == 8
    installation.remove()
    assert Widget.__dict__["double"] is original
    assert len(tracer.spans) == 1


def test_inherited_method_patched_on_subclass_is_deleted_on_removal():
    tracer = Tracer()
    with install(tracer, [Target(Gadget, "double", "gadget.double")]):
        assert "double" in Gadget.__dict__
        assert Gadget().double(1) == 2
        assert Widget().double(1) == 2
    assert "double" not in Gadget.__dict__
    assert [span.name for span in tracer.spans] == ["gadget.double"]


def test_untraced_calls_record_nothing():
    tracer = Tracer()
    install(tracer, [Target(Widget, "double", "widget.double")]).remove()
    Widget().double(1)
    assert tracer.spans == []


def test_span_name_callable_and_after_hook():
    tracer = Tracer()
    seen = []

    def after(tr, args, kwargs, result):
        tr.count("results", result)
        seen.append((args[1:], kwargs))

    target = Target(Widget, "double", lambda args: type(args[0]).__name__, after)
    with install(tracer, [target]):
        Gadget().double(5)
    assert tracer.spans[0].name == "Gadget"
    assert tracer.counters["results"] == 10
    assert seen == [((5,), {})]


def test_exception_still_closes_span_and_pops_stack():
    def boom():
        raise ValueError("x")

    module = types.SimpleNamespace(boom=boom, ok=lambda: 1)
    tracer = Tracer()
    with install(tracer, [Target(module, "boom", "boom"), Target(module, "ok", "ok")]):
        with pytest.raises(ValueError):
            module.boom()
        module.ok()
    by_name = {span.name: span for span in tracer.spans}
    assert by_name["ok"].parent == -1


def test_failed_install_leaves_nothing_patched():
    module = types.SimpleNamespace(f=lambda: 1)
    original = module.f
    with pytest.raises(AttributeError):
        install(Tracer(), [Target(module, "f", "f"), Target(module, "missing", "m")])
    assert module.f is original


# ------------------------------------------------------------- span stacks


def test_nesting_sets_parents():
    module = types.SimpleNamespace()
    module.inner = lambda: 1
    module.outer = lambda: module.inner() + 1
    tracer = Tracer()
    with install(tracer, [Target(module, "outer", "outer"), Target(module, "inner", "inner")]):
        module.outer()
    by_name = {span.name: span for span in tracer.spans}
    assert by_name["outer"].parent == -1
    assert by_name["inner"].parent == by_name["outer"].sid


def test_span_stacks_are_thread_local():
    module = types.SimpleNamespace()
    entered = threading.Event()
    release = threading.Event()

    def hold():
        entered.set()
        release.wait(5)

    module.hold = hold
    module.leaf = lambda: None
    tracer = Tracer()
    with install(tracer, [Target(module, "hold", "hold"), Target(module, "leaf", "leaf")]):
        worker = threading.Thread(target=module.hold)
        worker.start()
        entered.wait(5)
        # The worker's open "hold" span must not become this thread's parent.
        module.leaf()
        release.set()
        worker.join(5)
    by_name = {span.name: span for span in tracer.spans}
    assert by_name["leaf"].parent == -1
    assert by_name["leaf"].thread != by_name["hold"].thread


def test_tag_last_labels_only_matching_span():
    module = types.SimpleNamespace(f=lambda: None)
    tracer = Tracer()
    with install(tracer, [Target(module, "f", "f")]):
        module.f()
    tracer.tag_last("f", "first")
    tracer.tag_last("g", "ignored")
    assert list(tracer.tags.values()) == ["first"]


def test_phase_stamped_on_spans(tmp_path):
    module = types.SimpleNamespace(f=lambda: None)
    tracer = Tracer()
    with install(tracer, [Target(module, "f", "f")]):
        tracer.phase = "setup"
        module.f()
        tracer.phase = "timed"
        module.f()
    assert [span.phase for span in tracer.spans] == ["setup", "timed"]
    path = tmp_path / "spans.jsonl"
    tracer.dump(path)
    assert len(path.read_text().splitlines()) == 2


# --------------------------------------------------------------- self time


def test_covered_length_merges_and_clips():
    assert covered_length([], 0.0, 10.0) == 0.0
    assert covered_length([(1, 3), (2, 5), (7, 8)], 0.0, 10.0) == 5.0
    assert covered_length([(-5, 2), (9, 20)], 0.0, 10.0) == 3.0
    assert covered_length([(11, 12)], 0.0, 10.0) == 0.0


def test_self_time_is_duration_minus_child_coverage():
    spans = [
        _span(0, -1, 0.0, 10.0),
        _span(1, 0, 1.0, 4.0),
        _span(2, 0, 6.0, 7.0),
        _span(3, 1, 2.0, 3.0),
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 3.0 - 1.0)
    assert own[1] == pytest.approx(3.0 - 1.0)
    assert own[2] == pytest.approx(1.0)
    assert own[3] == pytest.approx(1.0)
    # Self times of a tree add up to the root's duration.
    assert sum(own.values()) == pytest.approx(10.0)


def test_wait_child_counts_as_coverage():
    spans = [_span(0, -1, 0.0, 10.0), _span(1, 0, 2.0, 8.0, wait=True)]
    assert self_times(spans)[0] == pytest.approx(4.0)


def test_measured_self_time_excludes_child():
    import time

    module = types.SimpleNamespace()
    module.child = lambda: time.sleep(0.02)
    module.parent = lambda: module.child()
    tracer = Tracer()
    with install(tracer, [Target(module, "parent", "p"), Target(module, "child", "c")]):
        module.parent()
    own = self_times(tracer.spans)
    by_name = {span.name: span for span in tracer.spans}
    assert own[by_name["c"].sid] >= 0.015
    assert own[by_name["p"].sid] < 0.01


# -------------------------------------------------------------- percentiles


def test_percentile_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 0.50) == 50
    assert percentile(values, 0.90) == 90
    assert percentile(values, 0.99) == 99
    assert percentile(values, 1.0) == 100
    assert percentile([7], 0.99) == 7
    assert percentile([3, 1, 2], 0.5) == 2


def test_median():
    assert median([3, 1, 2]) == 2
    assert median([4, 1, 3, 2]) == 2.5
    with pytest.raises(ValueError):
        median([])
    with pytest.raises(ValueError):
        percentile([], 0.5)


def test_concurrent_spans_are_all_kept_with_same_thread_parents():
    import sys

    module = types.SimpleNamespace()
    module.leaf = lambda: None

    def outer():
        for __ in range(50):
            module.leaf()

    module.outer = outer
    tracer = Tracer()
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with install(tracer, [Target(module, "outer", "outer"), Target(module, "leaf", "leaf")]):
            workers = [threading.Thread(target=module.outer) for __ in range(8)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(10)
    finally:
        sys.setswitchinterval(previous)
    assert not any(worker.is_alive() for worker in workers)
    assert len(tracer.spans) == 8 * 51
    assert len({span.sid for span in tracer.spans}) == len(tracer.spans)
    by_id = {span.sid: span for span in tracer.spans}
    for span in tracer.spans:
        if span.name == "leaf":
            parent = by_id[span.parent]
            assert parent.name == "outer" and parent.thread == span.thread
