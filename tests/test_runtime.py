"""The thread cap and the ordered map the coordinate kernel runs its blocks on."""

import sys
import threading
import time

import numpy as np
import pytest

from cagewarp import runtime


def test_each_item_runs_once_and_results_keep_order():
    # more threads than cores, switching as often as the interpreter allows
    ran = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with runtime.thread_cap(8):
            got = runtime.map_ordered(lambda x: ran.append(x) or x * x,
                                      range(500))
    finally:
        sys.setswitchinterval(interval)
    assert got == [x * x for x in range(500)]
    assert sorted(ran) == list(range(500))


@pytest.mark.parametrize("cap, n_items", [(1, 5), (8, 1)])
def test_one_thread_or_one_item_runs_inline(cap, n_items):
    caller = threading.get_ident()
    with runtime.thread_cap(cap):
        got = runtime.map_ordered(lambda _: threading.get_ident(),
                                  range(n_items))
    assert got == [caller] * n_items


def test_error_is_raised_after_every_thread_stops():
    done = []

    def work(x):
        if x == 3:
            raise ValueError("item 3")
        time.sleep(0.001)
        done.append(x)

    with runtime.thread_cap(4), pytest.raises(ValueError, match="item 3"):
        runtime.map_ordered(work, range(40))
    finished = len(done)
    time.sleep(0.05)
    assert len(done) == finished == 39


def test_thread_cap_none_keeps_the_callers_cap():
    with runtime.thread_cap(1):
        with runtime.thread_cap(None):
            assert runtime.thread_count() == 1
        with runtime.thread_cap(3):
            assert runtime.thread_count() == 3
        assert runtime.thread_count() == 1


@pytest.mark.parametrize("n", [-1, -2])
def test_negative_thread_count_rejected(n):
    with runtime.thread_cap(3):
        with pytest.raises(ValueError, match=f"got {n}$"):
            with runtime.thread_cap(n):
                pass
        assert runtime.thread_count() == 3
        with runtime.thread_cap(0):
            assert runtime.kdtree_workers() == -1
    with runtime.thread_cap(None):
        assert runtime.kdtree_workers() == -1


def test_small_kdtree_queries_run_serially():
    n = runtime.KDTREE_SERIAL_BELOW
    assert runtime.kdtree_workers() == -1
    assert runtime.kdtree_workers(n - 1) == 1
    assert runtime.kdtree_workers(n) == -1
    with runtime.thread_cap(3):
        assert runtime.kdtree_workers() == runtime.kdtree_workers(n) == 3
        assert runtime.kdtree_workers(1) == 1


def test_kdtree_results_do_not_depend_on_workers():
    from cagewarp.geometry import SpatialIndex, knn_neighborhoods

    rng = np.random.default_rng(4)
    pts = rng.normal(size=(900, 3))
    # one query below the serial threshold, one above it
    queries = [rng.normal(size=(50, 3)), rng.normal(size=(2000, 3))]
    index = SpatialIndex(pts)
    results = []
    for cap in (1, 2, 0):
        with runtime.thread_cap(cap):
            found = [a for q in queries for a in index.query(q)]
            results.append(found + list(knn_neighborhoods(pts, k=8)))
    for got in results[1:]:
        assert len(got) == len(results[0])
        assert all(np.array_equal(a, b) for a, b in zip(got, results[0]))
