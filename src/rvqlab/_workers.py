"""One process-wide set of helper threads, shared by every row split.

There are _cpu_count() - 1 active helpers, so that with the calling
thread there is one thread per CPU this process may run on; the count is
read again at each split.  map_rows(fn, n_rows) calls fn(lo, hi) on
consecutive row chunks, which the calling thread and each active helper
that is idle now take in turn.  Under a full load it is the single call
fn(0, n_rows).  Decode's Griffin-Lim splits its frame rows, and eval its
(file, q) cells, whose Griffin-Lim splits again over whatever helpers are
idle then.  Encode's STFT, log-mel and quantizer split their frame rows
through map_frames, which runs inputs shorter than _MIN_SPLIT_FRAMES
frames as one call.

Each helper has one task slot, and a split puts a task only in the slot
of an idle helper; the slot stays taken until that task has finished.  A
split waits for every task it handed out, and no other split can hand
that helper work before then, so each task it waits on is free to run at
once: waits never form a cycle, and a chunk may split rows of its own.
A helper that starts its task late finds no chunk left and returns.
Tasks run in a copy of the caller's context, so numpy's error state
applies to them as to the caller.

blas_on_caller() holds the OpenBLAS that numpy's matmul calls to one
thread, the one that calls it, while encode runs: its own worker threads
would otherwise spin on the CPUs the helpers need.  Holds are counted;
the first sets the thread count to 1 and the last restores the count it
found.  Without OpenBLAS the hold does nothing.

A forked child has none of its parent's helper threads, so it starts
with a fresh lock and no helpers, and its first split starts its own.
No thread of the child releases a hold it inherited, so the child drops
it and restores the BLAS thread count.
"""

from __future__ import annotations

import collections
import contextlib
import contextvars
import ctypes
import functools
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
# map_frames runs fewer frames than this as one call: a split of a short
# input waits on a helper's wake-up for less work than the wake-up costs.
# On a 2-CPU VM a split made CLI encodes of 64-frame clips 14% slower and of
# 80-frame ones 4% faster.  Training's 29-frame excerpts fall below it.
_MIN_SPLIT_FRAMES = 96
_holds = 0  # threads inside blas_on_caller(); _cond guards it
_saved_blas_threads = 1  # the OpenBLAS thread count the first hold found


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
    survive the fork, and the lock, which one of them may have held; and
    drop an inherited BLAS hold, which no thread of the child releases."""
    global _cond, _helpers, _tasks, _holds
    _cond, _helpers, _tasks = threading.Condition(), [], []
    if _holds:
        _blas_thread_calls()[1](_saved_blas_threads)
        _holds = 0


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


def map_frames(fn, n_frames: int) -> None:
    """map_rows(fn, n_frames) for encode's per-frame work, or the single call
    fn(0, n_frames) below _MIN_SPLIT_FRAMES frames.

    No chunk holds a single frame: numpy multiplies a one-row matrix with
    BLAS's matrix-vector kernel, whose sums need not match the bits of the
    matrix-matrix kernel that every longer chunk uses.
    """
    if n_frames < _MIN_SPLIT_FRAMES:
        fn(0, n_frames)
        return
    pairs = n_frames // 2  # the last pair also takes an odd frame
    map_rows(lambda lo, hi: fn(2 * lo, n_frames if hi == pairs else 2 * hi), pairs)


@functools.cache
def _blas_thread_calls():
    """(get, set) of the thread count of the OpenBLAS that numpy's matmul
    calls, or None where no loaded OpenBLAS exports them.  numpy's wheels
    bundle a 64-bit-integer build with suffixed names; scipy's own 32-bit
    build exports other names and is left alone."""
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:  # no /proc: not Linux
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


@contextlib.contextmanager
def blas_on_caller():
    """Run the body with numpy's OpenBLAS at one thread, so that each BLAS
    call runs in the thread that makes it; every other thread's BLAS calls
    in the meantime run single-threaded too.  The last hold to end
    restores the count the first one found, on error too."""
    global _holds, _saved_blas_threads
    calls = _blas_thread_calls()
    if calls is None:
        yield
        return
    get, put = calls
    pid = os.getpid()
    with _cond:
        if not _holds:
            _saved_blas_threads = get()
            put(1)
        _holds += 1
    try:
        yield
    finally:
        with _cond:
            if os.getpid() == pid:  # else a forked child, which dropped the hold it inherited
                _holds -= 1
                if not _holds:
                    put(_saved_blas_threads)
