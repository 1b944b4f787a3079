"""The thread cap and the ordered map the coordinate kernel and the k-d tree
run their blocks on."""

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


class _SpyTree:
    """A k-d tree that records the thread, row count and keywords of each
    query it answers."""

    def __init__(self, tree):
        self._tree = tree
        self.calls = []

    def query(self, q, **kwargs):
        self.calls.append((threading.current_thread(), len(q), kwargs))
        return self._tree.query(q, **kwargs)


def test_kdtree_queries_run_as_serial_blocks_on_the_pool():
    from cagewarp.geometry import SpatialIndex

    rng = np.random.default_rng(3)
    index = SpatialIndex(rng.normal(size=(900, 3)))
    spy = index._tree = _SpyTree(index._tree)
    q = rng.normal(size=(5000, 3))
    caller = threading.current_thread()
    for cap in (1, 2):
        spy.calls.clear()
        with runtime.thread_cap(cap):
            index.query(q, k=3)
        assert sum(n for _, n, _ in spy.calls) == 5000
        assert all(n <= 1024 and kw == {"k": 3, "workers": 1}
                   for _, n, kw in spy.calls)
        threads = {t for t, _, _ in spy.calls}
        if cap == 1:
            assert threads == {caller}
        else:
            assert all(t is caller or t.name.startswith("cagewarp_")
                       for t in threads)


@pytest.mark.parametrize("n", [0, 50, 1023, 1024, 1025, 5000])
@pytest.mark.parametrize("k", [1, 9])
def test_blocked_query_equals_one_serial_query(n, k):
    from scipy.spatial import cKDTree

    from cagewarp.geometry import SpatialIndex

    rng = np.random.default_rng(n)
    pts = rng.normal(size=(900, 3))
    q = rng.normal(size=(n, 3))
    want = cKDTree(pts).query(q, k=k, workers=1)
    index = SpatialIndex(pts)
    for cap in (1, 2, 0):
        with runtime.thread_cap(cap):
            got = index.query(q, k=k)
        for a, b in zip(got, want):
            assert a.shape == b.shape and a.dtype == b.dtype
            assert np.array_equal(a, b)


def test_kdtree_results_do_not_depend_on_workers():
    from cagewarp.geometry import SpatialIndex, knn_neighborhoods

    rng = np.random.default_rng(4)
    pts = rng.normal(size=(900, 3))
    # one query of a single block, one of two
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
