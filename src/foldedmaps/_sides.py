"""The two sides of a folded map, computed on two threads.

The plus and minus sides (u_+/u_- and v_+/v_-) are independent until the
conjugacy step couples them on the fold.  Each phase of a run is one
`both` call: the caller runs the first task while a pooled thread runs
the second, and numpy's ufuncs and FFTs release the GIL, so the two
overlap.  A degree-1 build gives each side its chart and tunneling map
with their energies.  A degree-d build has two phases, so its run has
four: v_+ beside the upper chart, then, with the multiplier solved from
v_+, the lower chart beside v_-; v_+ errors come before any chart's, and
the lower-ball error before any of v_-.  `verify_folded_holomorphic`
checks each side's chart, and `check_conjugate` returns each side's
derived fields and Hopf ratio.  The pool has exactly one thread because
a folded map has exactly two sides; it is created on first use, never at
import.  It is kept rather than started per call because `Thread.join`
returns before the OS thread has handed back its malloc arena: with
glibc, a thread started per call then often gets an arena of its own,
and every arena keeps its own freed memory.  Both halves read the one
process-wide `config.CONFIG`, which must not change while a call runs.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Optional, TypeVar

S = TypeVar("S")
R = TypeVar("R")

_lock = threading.Lock()
_pool: Optional[ThreadPoolExecutor] = None
_local = threading.local()        # .pooled is True on the pool's thread


def _mark_pooled() -> None:
    _local.pooled = True


def _forget_pool() -> None:
    # a forked child inherits the executor but not its thread
    global _lock, _pool
    _lock = threading.Lock()
    _pool = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _executor() -> ThreadPoolExecutor:
    global _pool
    with _lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max_workers=1,
                                       thread_name_prefix="foldedmaps-side",
                                       initializer=_mark_pooled)
        return _pool


def both(f: Callable[[S], R], plus: S, minus: S) -> tuple[R, R]:
    """(f(plus), f(minus)), with f(minus) on the pooled thread.

    Returns or raises only after both halves have finished.  When both
    raise, the error of f(plus) wins, as it would in a sequential run.  A
    call made on the pooled thread itself runs both halves inline, so
    nested calls cannot deadlock.
    """
    if getattr(_local, "pooled", False):
        return f(plus), f(minus)
    future = _executor().submit(f, minus)
    try:
        first = f(plus)
    except BaseException:
        future.exception()           # wait for the other half, then drop it
        raise
    return first, future.result()
