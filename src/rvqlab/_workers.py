"""One process-wide set of helper threads, shared by every row split.

There are _cpu_count() - 1 active helpers, so that with the calling
thread there is one thread per CPU this process may run on; the count is
read again at each split.  map_rows(fn, n_rows) calls fn(lo, hi) on
consecutive row chunks, which the calling thread and each active helper
that is idle now take in turn.  Under a full load it is the single call
fn(0, n_rows).  Decode's Griffin-Lim splits its frame rows, and eval its
(file, q) cells, whose Griffin-Lim splits again over whatever helpers are
idle then.

Each helper has one task slot, and a split puts a task only in the slot
of an idle helper; the slot stays taken until that task has finished.  A
split waits for every task it handed out, and no other split can hand
that helper work before then, so each task it waits on is free to run at
once: waits never form a cycle, and a chunk may split rows of its own.
A helper that starts its task late finds no chunk left and returns.
Tasks run in a copy of the caller's context, so numpy's error state
applies to them as to the caller.  A forked child has none of its
parent's helper threads, so it starts with a fresh lock and no helpers,
and its first split starts its own.
"""

from __future__ import annotations

import collections
import contextvars
import os
import threading
from dataclasses import dataclass, field

_cond = threading.Condition()
_helpers = []  # started threads; the first _cpu_count() - 1 of them take tasks
_tasks = []  # per started helper: its task, or None while it is idle
# Chunks per thread of a split: a few, so that a thread that loses its CPU
# delays a split by at most about a chunk, and not so many that per-chunk
# call overhead shows on short inputs.
_CHUNKS_PER_THREAD = 4


@dataclass
class _Task:
    """fn() for one helper, run in a copy of the caller's context."""

    fn: object
    context: contextvars.Context = field(default_factory=contextvars.copy_context)
    done: bool = False
    error: BaseException | None = None  # what fn raised


def _cpu_count() -> int:
    """Number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _serve(index: int) -> None:
    while True:
        with _cond:
            _cond.wait_for(lambda: _tasks[index] is not None)
            task = _tasks[index]
        try:
            task.context.run(task.fn)
        except BaseException as exc:  # the split's caller raises it
            task.error = exc
        # Free the slot before the waiter wakes, so that its next map_rows counts this helper idle.
        with _cond:
            _tasks[index] = None
            task.done = True
            _cond.notify_all()
        del task  # an idle helper must not keep a finished task's buffers alive


def _idle_helpers() -> list:
    """Indices of the idle active helpers, starting any that are missing; _cond held."""
    active = _cpu_count() - 1
    while len(_helpers) < active:
        thread = threading.Thread(target=_serve, args=(len(_helpers),), daemon=True,
                                  name=f"rvqlab-helper-{len(_helpers)}")
        _tasks.append(None)
        thread.start()
        _helpers.append(thread)
    return [i for i in range(active) if _tasks[i] is None]


def _forget_helpers() -> None:
    """In a forked child: drop the parent's helpers, whose threads did not
    survive the fork, and the lock, which one of them may have held."""
    global _cond, _helpers, _tasks
    _cond, _helpers, _tasks = threading.Condition(), [], []


os.register_at_fork(after_in_child=_forget_helpers)


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
        idle = _idle_helpers()
        n_threads = max(min(n_rows, 1 + len(idle)), 1)
        n_chunks = min(n_rows, _CHUNKS_PER_THREAD * n_threads) if n_threads > 1 else 1
        bounds = [n_rows * k // n_chunks for k in range(n_chunks + 1)]
        chunks = iter(list(zip(bounds, bounds[1:])))
        tasks = [_Task(drain) for _ in range(n_threads - 1)]
        for index, task in zip(idle, tasks):
            _tasks[index] = task
        _cond.notify_all()
    try:
        drain()
    finally:  # after an error, leave the others no chunk; then wait for every task handed out
        with lock:
            collections.deque(chunks, maxlen=0)
        with _cond:
            _cond.wait_for(lambda: all(task.done for task in tasks))
    for task in tasks:
        if task.error is not None:
            raise task.error
