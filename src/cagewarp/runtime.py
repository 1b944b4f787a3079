"""Process-wide runtime knobs: the thread cap for internal parallelism.

``map_ordered`` is the one place package work runs on threads: the MVC
kernel's blocks of query rows and the k-d tree's blocks of query rows are
its items, taken by the calling thread and a shared pool.  No result bit
depends on the thread count: each row is computed by itself, block sizes
depend only on the data, and whatever is summed across rows is summed on
the calling thread in a fixed order.

numpy's OpenBLAS keeps a pool of its own, whose workers spin on a core for
a while after each product they share.  ``thread_cap`` holds that OpenBLAS
to one thread, the calling one, for its body and gives the caller's count
back on exit (a nested cap sets 1 again and gives back 1).  The library is found once, at import, among
the objects ``/proc/self/maps`` lists; where none is found (another BLAS,
or no ``/proc``) the hold does nothing.  No bit changes with the count:
OpenBLAS does not split a product's inner sum across threads.
"""

from __future__ import annotations

import contextlib
import ctypes
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np

_threads: int | None = None
_pool: ThreadPoolExecutor | None = None
_pool_size = 0
_pool_lock = threading.Lock()

# OpenBLAS's thread-count functions: numpy's wheels rename them, and a
# build with 64-bit integers suffixes them
_BLAS_NAMES = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def _find_openblas():
    """(get, set) of the thread count of the OpenBLAS numpy is linked to,
    or None where this process has mapped none."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split(None, 5)[-1].strip() for line in fh
                            if "openblas" in
                            os.path.basename(line.rstrip()).lower()})
    except OSError:
        return None
    libs = []
    for path in paths:
        try:    # RTLD_NOLOAD: a library not loaded already fails
            libs.append(ctypes.CDLL(path, mode=os.RTLD_NOLOAD))
        except OSError:
            pass
    for get_name, set_name in _BLAS_NAMES:
        for lib in libs:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, put = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = (), ctypes.c_int
                put.argtypes, put.restype = (ctypes.c_int,), None
                return get, put
    return None


_openblas = _find_openblas()


def blas_threads() -> int | None:
    """The threads numpy's OpenBLAS may use now, or None where no OpenBLAS
    was found."""
    return _openblas[0]() if _openblas else None


@contextlib.contextmanager
def thread_cap(n: int | None):
    """Cap internal parallelism for the body of a ``with``: 0 means all
    available cores, None keeps the caller's cap, a negative count raises
    ``ValueError``.  Whatever the cap, numpy's OpenBLAS runs on the calling
    thread alone for the body.  The caller's cap and OpenBLAS count are
    restored when it exits, also by an exception."""
    global _threads
    saved = _threads
    if n is not None:
        n = int(n)
        if n < 0:
            raise ValueError(f"thread count must be 0 or more, got {n}")
        _threads = n or None
    blas_saved = blas_threads()
    if blas_saved is not None:
        _openblas[1](1)
    try:
        yield
    finally:
        _threads = saved
        if blas_saved is not None:
            _openblas[1](blas_saved)


def kdtree_workers() -> int:
    """The cap in cKDTree's terms (-1 = all cores).  No query uses it; it
    stays only because the benchmark records it in each run's provenance."""
    return _threads if _threads is not None else -1


def thread_count() -> int:
    """Threads internal work may use: the cap, or the cores this process
    may run on."""
    if _threads is not None:
        return _threads
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def map_ordered(fn, items) -> list:
    """``[fn(x) for x in items]``, run on up to ``thread_count()`` threads.

    The calling thread and up to ``thread_count() - 1`` pool threads take
    the items one at a time, in order; with one thread or one item every
    call runs inline.  Results come back in item order, and an exception a
    call raised is raised here once every thread has stopped.  ``fn`` must
    not call ``map_ordered`` itself: from a busy pool thread it would wait
    on itself.
    """
    items = list(items)
    workers = min(thread_count(), len(items))
    if workers <= 1:
        return [fn(x) for x in items]
    results = [None] * len(items)
    unclaimed = iter(range(len(items)))
    lock = threading.Lock()

    def drain():
        while True:
            with lock:
                i = next(unclaimed, None)
            if i is None:
                return
            results[i] = fn(items[i])

    pool = _executor()
    helpers = [pool.submit(drain) for _ in range(workers - 1)]
    try:
        drain()
    finally:
        wait(helpers)
    for helper in helpers:
        helper.result()
    return results


def _executor() -> ThreadPoolExecutor:
    """The shared pool of helper threads, rebuilt when the thread count
    changes.  Its threads live as long as the pool, so per-thread buffers
    outlast calls."""
    global _pool, _pool_size
    size = thread_count() - 1
    with _pool_lock:
        if _pool is None or _pool_size != size:
            if _pool is not None:
                _pool.shutdown(wait=False)
            _pool = ThreadPoolExecutor(size, thread_name_prefix="cagewarp")
            _pool_size = size
        return _pool


class Workspace(threading.local):
    """One thread's scratch buffers for block temporaries.

    A named slot is allocated once and handed out again, as a view of its
    first entries, to every later block on this thread, so a block's
    temporaries are written with ``out=`` instead of being allocated and
    freed per operation.  ``views(build, *shape)`` returns the views that
    ``build(workspace, *shape)`` takes, made on the first call for that
    shape and reused after; replacing a slot by a larger one drops every
    cached view, so no view outlives its slot (a new slot drops none).  A
    build takes each slot's largest view first, so that a slot grows at
    most once in it and its views all share one buffer.  The slots serve
    one ``use(key)`` at a time (for the MVC kernel, one cage size); another
    key drops them, so a thread holds at most one block's worth of scratch.
    """

    _MAX_VIEWS = 64

    def __init__(self):
        self.key, self.slots, self.cache = None, {}, {}

    def use(self, key):
        if key != self.key:
            self.key, self.slots, self.cache = key, {}, {}
        return self

    def take(self, name, shape, dtype=np.float64):
        size = math.prod(shape)
        buf = self.slots.get(name)
        if buf is None or buf.size < size:
            if buf is not None:
                self.cache.clear()      # views of the replaced buffer
            buf = self.slots[name] = np.empty(size, dtype)
        return buf[:size].reshape(shape)

    def views(self, build, *shape):
        key = (build, shape)
        got = self.cache.get(key)
        if got is None:
            got = build(self, *shape)
            if len(self.cache) >= self._MAX_VIEWS:
                self.cache.clear()
            self.cache[key] = got
        return got
