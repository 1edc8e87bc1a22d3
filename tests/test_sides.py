import multiprocessing
import threading
import time

import pytest

from foldedmaps import _sides


def run_in_thread(fn, timeout=30.0):
    """fn() on a fresh thread; returns its result or raises its error."""
    box = {}

    def target():
        try:
            box["result"] = fn()
        except BaseException as exc:   # handed back to the test below
            box["error"] = exc

    t = threading.Thread(target=target)
    t.start()
    t.join(timeout=timeout)
    assert not t.is_alive(), "call did not finish"
    if "error" in box:
        raise box["error"]
    return box["result"]


def test_both_returns_plus_then_minus_and_pools_the_minus_side():
    names = {}

    def f(side):
        names[side] = threading.current_thread().name
        return side * 10

    assert run_in_thread(lambda: _sides.both(f, 1, 2)) == (10, 20)
    assert not names[1].startswith("foldedmaps-side")
    assert names[2].startswith("foldedmaps-side")


def test_nested_call_on_the_pooled_thread_runs_inline():
    names = []

    def inner(side):
        names.append(threading.current_thread().name)
        return side + 1

    def outer(side):
        return _sides.both(inner, side, side + 10)

    assert run_in_thread(lambda: _sides.both(outer, 0, 100),
                         timeout=10.0) == ((1, 11), (101, 111))
    # the pooled outer half ran both of its inner halves on its own thread
    assert sum(n.startswith("foldedmaps-side") for n in names) == 3


def test_calls_reuse_one_side_thread():
    # a thread started per call could get a malloc arena of its own, and
    # every arena keeps its own freed memory
    minus_threads = set()

    def f(side):
        if side == "minus":
            minus_threads.add(threading.current_thread())
        return side

    _sides.both(f, "plus", "minus")
    count = threading.active_count()
    for _ in range(5):
        assert _sides.both(f, "plus", "minus") == ("plus", "minus")
        assert threading.active_count() == count
    assert len(minus_threads) == 1


def test_error_of_plus_side_waits_for_the_minus_side():
    finished = threading.Event()

    def f(side):
        if side == "plus":
            raise ValueError("plus failed")
        time.sleep(0.3)
        finished.set()
        return side

    with pytest.raises(ValueError, match="plus failed"):
        run_in_thread(lambda: _sides.both(f, "plus", "minus"))
    assert finished.is_set()


def test_error_of_minus_side_is_raised_after_the_plus_side():
    finished = threading.Event()

    def f(side):
        if side == "minus":
            raise KeyError("minus failed")
        time.sleep(0.3)
        finished.set()
        return side

    with pytest.raises(KeyError, match="minus failed"):
        run_in_thread(lambda: _sides.both(f, "plus", "minus"))
    assert finished.is_set()


def test_plus_error_wins_when_both_sides_fail():
    def f(side):
        raise RuntimeError(side)

    with pytest.raises(RuntimeError, match="plus"):
        run_in_thread(lambda: _sides.both(f, "plus", "minus"))


def _double_both(queue):
    queue.put(_sides.both(lambda s: 2 * s, 1, 2))


def test_forked_child_gets_a_fresh_pool():
    # the parent's pool thread does not survive fork; the child makes its own
    _sides.both(abs, -1, -2)
    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()
    child = ctx.Process(target=_double_both, args=(queue,), daemon=True)
    child.start()
    try:
        result = queue.get(timeout=30)
        child.join(timeout=30)
        assert not child.is_alive()
    finally:
        if child.is_alive():
            child.kill()
    assert child.exitcode == 0
    assert result == (2, 4)
