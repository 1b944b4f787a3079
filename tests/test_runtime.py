"""The thread cap and the ordered map the coordinate kernel runs its blocks on."""

import sys
import threading
import time

import pytest

from cagewarp import runtime


@pytest.fixture
def threads():
    yield runtime.set_threads
    runtime.set_threads(None)


def test_each_item_runs_once_and_results_keep_order(threads):
    # more threads than cores, switching as often as the interpreter allows
    ran = []
    threads(8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = runtime.map_ordered(lambda x: ran.append(x) or x * x, range(500))
    finally:
        sys.setswitchinterval(interval)
    assert got == [x * x for x in range(500)]
    assert sorted(ran) == list(range(500))


@pytest.mark.parametrize("cap, n_items", [(1, 5), (8, 1)])
def test_one_thread_or_one_item_runs_inline(threads, cap, n_items):
    threads(cap)
    caller = threading.get_ident()
    got = runtime.map_ordered(lambda _: threading.get_ident(), range(n_items))
    assert got == [caller] * n_items


def test_error_is_raised_after_every_thread_stops(threads):
    done = []

    def work(x):
        if x == 3:
            raise ValueError("item 3")
        time.sleep(0.001)
        done.append(x)

    threads(4)
    with pytest.raises(ValueError, match="item 3"):
        runtime.map_ordered(work, range(40))
    finished = len(done)
    time.sleep(0.05)
    assert len(done) == finished == 39
