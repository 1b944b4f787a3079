"""The thread cap and the ordered map the coordinate kernel and the k-d tree
run their blocks on, and the cap's hold on numpy's OpenBLAS."""

import contextlib
import sys
import threading
import time

import numpy as np
import pytest

from cagewarp import autodiff as ad
from cagewarp import optim, runtime, toy
from cagewarp.geometry import (
    make_box_mesh,
    make_template_cage,
    normalize_to_unit_box,
    sample_surface,
)
from cagewarp.mvc import compute_mvc, deform
from conftest import NUMPY_BLAS, needs_openblas


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


# numpy's OpenBLAS: every cap holds it to the calling thread


def test_scipy_openblas_setter_found():
    if NUMPY_BLAS != "scipy-openblas":
        pytest.skip(f"numpy's BLAS is {NUMPY_BLAS}, not scipy-openblas")
    assert runtime._openblas is not None
    assert runtime.blas_threads() >= 1


@needs_openblas
@pytest.mark.parametrize("cap", [None, 0, 1, 2])
def test_cap_holds_openblas_to_one_thread(set_blas_threads, cap):
    set_blas_threads(3)
    with runtime.thread_cap(cap):
        assert runtime.blas_threads() == 1
        with runtime.thread_cap(2):
            assert runtime.blas_threads() == 1
        with runtime.thread_cap(None):
            assert runtime.blas_threads() == 1
        assert runtime.blas_threads() == 1
    assert runtime.blas_threads() == 3


@needs_openblas
def test_callers_openblas_count_returns_after_a_raise(set_blas_threads):
    set_blas_threads(3)
    with pytest.raises(RuntimeError, match="^outer$"):
        with runtime.thread_cap(1):
            with pytest.raises(RuntimeError, match="^inner$"):
                with runtime.thread_cap(2):
                    raise RuntimeError("inner")
            assert runtime.blas_threads() == 1
            raise RuntimeError("outer")
    assert runtime.blas_threads() == 3
    # a rejected count enters no cap and leaves the count alone
    with pytest.raises(ValueError, match="got -1$"):
        with runtime.thread_cap(-1):
            pass
    assert runtime.blas_threads() == 3


def _small_pipeline_runs():
    box, _ = normalize_to_unit_box(make_box_mesh(3, scale=(0.5, 0.35, 0.25)))
    shape = make_template_cage("sphere162", scale=(0.30, 0.22, 0.25))
    pts = sample_surface(shape, 40, seed=3)
    cage = make_template_cage("sphere42", scale=(0.35, 0.27, 0.30))
    lm = np.stack([np.arange(20), np.arange(20)], axis=1)
    fam = toy.SyntheticFamily()
    return {
        "deform_pair": lambda: optim.deform_pair(
            box, box, optim.PipelineConfig(seed=0, max_iters=1,
                                           n_eval_samples=50)),
        "fit_cage": lambda: optim.fit_cage(
            cage, pts, pts, lm, optim.PipelineConfig(max_iters=1)),
        "transfer": lambda: optim.transfer(cage, np.zeros((42, 3)), pts),
        "train_toy": lambda: toy.train_toy(fam, fam.default_cage(), epochs=1,
                                           n_train=2),
    }


@pytest.mark.parametrize("pipeline", ["deform_pair", "fit_cage", "transfer",
                                      "train_toy"])
def test_every_pipeline_enters_the_cap(monkeypatch, pipeline):
    real = runtime.thread_cap
    entered = []

    @contextlib.contextmanager
    def spy(n):
        with real(n):
            entered.append(runtime.blas_threads())
            yield

    run = _small_pipeline_runs()[pipeline]
    monkeypatch.setattr(runtime, "thread_cap", spy)
    run()
    assert entered
    if runtime._openblas is not None:
        assert set(entered) == {1}


@needs_openblas
def test_products_have_the_same_bits_on_one_and_two_openblas_threads(
        set_blas_threads):
    # OpenBLAS does not split a product's inner sum across threads
    rng = np.random.default_rng(35)
    cage = make_template_cage("sphere162", scale=(0.8, 0.8, 0.8))
    w = compute_mvc(cage, 0.4 * make_box_mesh(24).vertices,
                    with_flags=False).weights
    assert w.shape == (3458, 162)
    moved = cage.vertices + rng.normal(scale=0.05, size=(162, 3))
    phi = w[::3][:866]
    v = rng.normal(size=(162, 3))
    g = rng.normal(size=(866, 3))
    got = []
    for n in (1, 2):
        set_blas_threads(n)
        pv, vv = ad.Var(phi), ad.Var(v)
        ad.sum_(ad.matmul(pv, vv) * g).backward()
        got.append([deform(w, moved).tobytes(), pv.grad.tobytes(),
                    vv.grad.tobytes()])
    assert got[0] == got[1]


@needs_openblas
def test_no_openblas_worker_spins_after_a_transfer():
    # OpenBLAS workers spin for ~0.1 s after a product they shared; a
    # held transfer shares none, so a sleep right after it costs no CPU
    shape = make_box_mesh(24).vertices * 0.4
    cage = make_template_cage("sphere162", scale=(0.8, 0.8, 0.8))
    offsets = np.full((162, 3), 0.01)
    optim.transfer(cage, offsets, shape)
    time.sleep(0.3)     # lets a spin begun before this test time out
    optim.transfer(cage, offsets, shape)
    t0 = time.process_time()
    time.sleep(0.05)
    assert time.process_time() - t0 < 0.02
