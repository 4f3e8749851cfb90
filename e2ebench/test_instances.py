"""Tests of the ``serve-rw`` input generator (``instances.py``)."""

from __future__ import annotations

import pytest

import instances
from repro.datasets import lubm
from repro.sparql.ast import SelectQuery
from repro.sparql.evaluator import evaluate_select
from repro.sparql.parser import parse_query


@pytest.fixture(scope="module")
def union():
    federation = lubm.build_federation(
        instances.UNIVERSITIES, profile=instances.PROFILE, seed=3
    )
    return federation.union_store()


def test_pool_size_is_as_recorded_and_distinct():
    pool = instances.query_pool(seed=3)
    assert len(pool) == instances.POOL_SIZE == 800
    assert len({inst.text for inst in pool}) == len(pool)
    assert {inst.template for inst in pool} == set(instances.TEMPLATES)


def test_pool_is_seeded_with_a_fixed_template_mix():
    one, two = instances.query_pool(1), instances.query_pool(2)
    assert one == instances.query_pool(1)
    assert one != two
    assert [inst.template for inst in one] == [inst.template for inst in two]


def test_every_instance_parses():
    for inst in instances.query_pool(seed=3):
        assert isinstance(parse_query(inst.text), SelectQuery), inst.text


def test_empty_answer_share_is_small(union):
    pool = instances.query_pool(seed=3)
    empty = [
        inst for inst in pool if not evaluate_select(union, parse_query(inst.text)).rows
    ]
    share = len(empty) / len(pool)
    print(f"empty-answer share {share:.3f} ({len(empty)} of {len(pool)})")
    assert share < 0.25


def test_arrival_stream_is_seeded_and_increasing():
    pool = instances.query_pool(seed=3)
    first = instances.ArrivalStream(pool, seed=5).take(500)
    again = instances.ArrivalStream(pool, seed=5).take(500)
    assert first == again
    times = [arrival.at_ms for arrival in first]
    assert all(b > a for a, b in zip(times, times[1:]))
    mean_gap = times[-1] / len(times)
    assert 0.7 * instances.MEAN_GAP_MS < mean_gap < 1.3 * instances.MEAN_GAP_MS


def test_arrival_stream_is_zipf_skewed():
    pool = instances.query_pool(seed=3)
    arrivals = instances.ArrivalStream(pool, seed=5).take(5000)
    hottest = sum(arrival.instance is pool[0] for arrival in arrivals)
    coldest = sum(arrival.instance is pool[-1] for arrival in arrivals)
    assert hottest > 50 * max(1, coldest)


def test_write_batches_apply_and_undo_to_the_same_data(union):
    before = set(union)
    for k in range(8):
        endpoint, ops = instances.write_batch(seed=3, k=k)
        assert endpoint == f"university{k % instances.UNIVERSITIES}"
        for op, triple in ops:
            changed = union.add(triple) if op == "add" else union.remove(triple)
            assert changed, (k, op, triple)
        assert set(union) != before
        for op, triple in instances.undo(ops):
            changed = union.add(triple) if op == "add" else union.remove(triple)
            assert changed, (k, op, triple)
        assert set(union) == before


def test_writes_change_some_answers(union):
    pool = instances.query_pool(seed=3)
    __, ops = instances.write_batch(seed=3, k=0)
    before = {inst.text: evaluate_select(union, parse_query(inst.text)).rows for inst in pool}
    for op, triple in ops:
        union.add(triple) if op == "add" else union.remove(triple)
    try:
        changed = sum(
            sorted(map(repr, evaluate_select(union, parse_query(text)).rows))
            != sorted(map(repr, rows))
            for text, rows in before.items()
        )
    finally:
        for op, triple in instances.undo(ops):
            union.add(triple) if op == "add" else union.remove(triple)
    assert changed > 0
