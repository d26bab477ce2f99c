"""One process-wide set of helper threads, shared by every row split.

There are _cpu_count() - 1 active helpers, so that with the calling
thread there is one thread per CPU this process may run on; the count is
read again at each split.  map_rows(fn, n_rows) calls fn(lo, hi) on
consecutive row chunks, which the calling thread and each helper that is
idle now (with no chunk task running or queued for it) take in turn.
Under a full load it is the single call fn(0, n_rows).  Decode's
Griffin-Lim splits its frame rows, and eval its (file, q) cells, whose
Griffin-Lim splits again over whatever helpers are idle then.

A split waits only on chunk tasks that a helper has started; it takes
back the ones no helper has started.  A thread therefore waits only on a
task running on another thread, one queued after its own task started,
so waits never form a cycle and a chunk may split rows of its own.  Tasks
run in a copy of the caller's context, so numpy's error state applies to
them as to the caller.
"""

from __future__ import annotations

import collections
import contextvars
import os
import threading
from concurrent.futures import Future, wait

_cond = threading.Condition()
_queue = collections.deque()  # (future, context, fn), oldest first
_helpers = []  # started threads; the first _active of them take tasks
_active = 0
_pending = 0  # tasks queued and neither finished nor cancelled
# Chunks per thread of a split: a few, so that a thread that loses its CPU
# delays a split by at most about a chunk, and not so many that per-chunk
# call overhead shows on short inputs.
_CHUNKS_PER_THREAD = 4


def _cpu_count() -> int:
    """Number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _serve(index: int) -> None:
    while True:
        with _cond:
            while not (_queue and index < _active):
                _cond.wait()
            task = _queue.popleft()
        _run(*task)
        del task  # an idle helper must not keep a finished task's buffers alive


def _run(future, context, fn) -> None:
    global _pending
    if not future.set_running_or_notify_cancel():
        return  # cancelled, and no longer pending
    try:
        context.run(fn)
        error = None
    except BaseException as exc:  # handed to the waiter, whose result() raises it
        error = exc
    # Free before the waiter wakes, so that its next map_rows counts this helper idle.
    with _cond:
        _pending -= 1
    if error is None:
        future.set_result(None)
    else:
        future.set_exception(error)


def _forget_if_cancelled(future) -> None:
    global _pending
    if future.cancelled():
        with _cond:
            _pending -= 1


def _idle_helpers() -> int:
    """Helpers free for one more task each, starting any that are missing; _cond held."""
    global _active
    _active = _cpu_count() - 1
    while len(_helpers) < _active:
        thread = threading.Thread(target=_serve, args=(len(_helpers),), daemon=True,
                                  name=f"rvqlab-helper-{len(_helpers)}")
        thread.start()
        _helpers.append(thread)
    return max(_active - _pending, 0)


def _enqueue(fn) -> Future:
    """Queue fn() for the helpers; _cond held."""
    global _pending
    future = Future()
    _pending += 1
    future.add_done_callback(_forget_if_cancelled)
    _queue.append((future, contextvars.copy_context(), fn))
    _cond.notify_all()
    return future


def map_rows(fn, n_rows: int) -> None:
    """Call fn(lo, hi) once on each of consecutive row chunks that cover range(n_rows).

    The calling thread and each helper that is idle now take the chunks in
    turn until none is left.  k threads share up to _CHUNKS_PER_THREAD * k
    chunks, so a thread that starts late or loses its CPU leaves its share
    to the others; with no idle helper it is the single call fn(0, n_rows).
    fn must write only its own rows.
    """
    lock = threading.Lock()

    def drain():  # take the next chunk until none is left
        while True:
            with lock:
                chunk = next(chunks, None)
            if chunk is None:
                return
            fn(*chunk)

    with _cond:
        n_threads = max(min(n_rows, 1 + _idle_helpers()), 1)
        n_chunks = min(n_rows, _CHUNKS_PER_THREAD * n_threads) if n_threads > 1 else 1
        bounds = [n_rows * k // n_chunks for k in range(n_chunks + 1)]
        chunks = iter(list(zip(bounds, bounds[1:])))
        helpers = [_enqueue(drain) for _ in range(n_threads - 1)]
    try:
        drain()
    finally:  # after an error, leave the others no chunk; then wait for those running
        with lock:
            collections.deque(chunks, maxlen=0)
        for future in helpers:
            future.cancel()  # it has not started: there is nothing left for it
        wait(helpers)
    for future in helpers:
        if not future.cancelled():
            future.result()
