import os
import sys
import threading
import time
import weakref

import pytest

from rvqlab import _workers

TIMEOUT = 30  # seconds; a deadlock fails the test instead of hanging it


@pytest.fixture
def set_cpus(monkeypatch):
    def set_cpus(n):
        monkeypatch.setattr(_workers, "_cpu_count", lambda: n)

    return set_cpus


@pytest.fixture
def blocker(set_cpus):
    """blocker(cpus) occupies every one of the cpus - 1 helpers until the
    test ends: a plain thread splits cpus rows whose chunks block."""
    release, threads = threading.Event(), []

    def blocker(cpus):
        set_cpus(cpus)
        started = threading.Semaphore(0)

        def block(lo, hi):
            started.release()
            release.wait(TIMEOUT)

        thread = threading.Thread(target=_workers.map_rows, args=(block, cpus))
        thread.start()
        threads.append(thread)
        for _ in range(cpus):  # one chunk each on the thread and on every helper
            assert started.acquire(timeout=TIMEOUT)

    yield blocker
    release.set()
    for thread in threads:
        thread.join(TIMEOUT)
        assert not thread.is_alive()


class TestMapRows:
    @pytest.mark.parametrize(
        "cpus, n_rows, n_chunks",
        [(1, 10, 1), (2, 10, 8), (4, 10, 10), (4, 3, 3), (4, 1, 1), (4, 0, 1)],
        ids=["no-helper", "one-helper", "three-helpers", "fewer-rows-than-threads", "one-row", "no-rows"],
    )
    def test_chunks_cover_every_row_once(self, set_cpus, cpus, n_rows, n_chunks):
        # Up to four chunks per thread, never more chunks than rows, at least one.
        set_cpus(cpus)
        chunks = []
        _workers.map_rows(lambda lo, hi: chunks.append((lo, hi)), n_rows)
        bounds = [n_rows * k // n_chunks for k in range(n_chunks + 1)]
        assert sorted(chunks) == list(zip(bounds, bounds[1:]))

    def test_a_stalled_helper_leaves_its_share_to_the_caller(self, set_cpus):
        set_cpus(2)
        caller = threading.current_thread()
        ran, helper_started, caller_done = [], threading.Event(), threading.Event()

        def chunk(lo, hi):
            ran.append(threading.current_thread())
            if threading.current_thread() is not caller:
                helper_started.set()
                caller_done.wait(TIMEOUT)  # the helper stalls on its first chunk
            else:
                helper_started.wait(TIMEOUT)
                if ran.count(caller) == 7:
                    caller_done.set()

        _workers.map_rows(chunk, 10)
        assert len(ran) == 8 and ran.count(caller) == 7

    def test_busy_helpers_take_no_chunk(self, blocker):
        blocker(3)
        threads = []
        _workers.map_rows(lambda lo, hi: threads.append((lo, hi, threading.current_thread())), 10)
        assert threads == [(0, 10, threading.current_thread())]

    def test_chunk_error_reaches_the_caller(self, set_cpus):
        set_cpus(2)

        def fail_after_the_first_rows(lo, hi):
            if lo > 0:
                raise ValueError(f"rows {lo}:{hi}")

        with pytest.raises(ValueError, match=r"rows \d+:\d+"):
            _workers.map_rows(fail_after_the_first_rows, 10)
        # The failed chunks left the helper free: the next split has 2 threads.
        chunks = []
        _workers.map_rows(lambda lo, hi: chunks.append(lo), 10)
        assert len(chunks) == 8


def _one_chunk_each(on_helper):
    """A chunk function for a split of two rows between the calling thread
    and one helper.  The caller's chunk waits for the helper's, which calls
    on_helper() once the caller holds its chunk, so each takes exactly one."""
    caller = threading.current_thread()
    caller_in, helper_done = threading.Event(), threading.Event()

    def chunk(lo, hi):
        if threading.current_thread() is caller:
            caller_in.set()
            assert helper_done.wait(TIMEOUT)
        else:
            assert caller_in.wait(TIMEOUT)
            on_helper()
            helper_done.set()

    return chunk


class TestNesting:
    def test_rows_split_in_a_chunk_while_every_helper_is_busy_run_in_that_chunk(self, set_cpus, blocker):
        blocker(2)  # helper 0 of 2 blocks until the test ends
        set_cpus(3)
        chunks = []

        def outer():  # both helpers are busy now: helper 0 blocks, helper 1 runs this
            _workers.map_rows(lambda lo, hi: chunks.append((lo, hi, threading.current_thread())), 10)

        _workers.map_rows(_one_chunk_each(outer), 2)
        assert chunks == [(0, 10, _workers._helpers[1])]

    def test_rows_split_from_a_helper_use_the_idle_ones(self, set_cpus):
        set_cpus(3)
        chunks = []

        def outer():  # one helper runs this and splits with the other, the idle one
            _workers.map_rows(lambda lo, hi: chunks.append((lo, hi)), 10)

        _workers.map_rows(_one_chunk_each(outer), 2)
        assert sorted(chunks) == [(0, 1), (1, 2), (2, 3), (3, 5), (5, 6), (6, 7), (7, 8), (8, 10)]


class TestHelpers:
    def test_active_helpers_follow_the_cpu_count(self, set_cpus):
        caller = threading.current_thread()
        for cpus in (3, 2, 1):
            set_cpus(cpus)
            threads = set()
            release = threading.Barrier(cpus, timeout=TIMEOUT)  # every active helper at once

            def chunk(lo, hi):
                threads.add(threading.current_thread())
                release.wait()

            _workers.map_rows(chunk, cpus)
            assert threads - {caller} == set(_workers._helpers[: cpus - 1])

    def test_cpu_count_is_the_affinity(self):
        expected = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        assert _workers._cpu_count() == expected


def test_nested_splits_under_load_cover_every_row_and_free_every_helper(set_cpus):
    # More threads than cores, switching often: outer chunks on the helpers
    # and the caller split rows at once.  Each call must see every row once,
    # and a lost update of the pending count would leave helpers marked busy.
    set_cpus(4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:

        def outer(n_rows):
            counts = [0] * n_rows

            def bump(lo, hi):
                for row in range(lo, hi):
                    counts[row] += 1

            for _ in range(20):
                _workers.map_rows(bump, n_rows)
            return counts

        sizes = (1, 7, 64, 300, 50)
        counts = [None] * len(sizes)

        def run_outer(lo, hi):
            for k in range(lo, hi):
                counts[k] = outer(sizes[k])

        _workers.map_rows(run_outer, len(sizes))
        assert counts == [[20] * n for n in sizes]
    finally:
        sys.setswitchinterval(interval)
    assert _workers._pending == 0


def test_an_idle_helper_keeps_no_finished_task_alive(set_cpus):
    # A Griffin-Lim chunk's closure holds that call's buffers: a helper that
    # kept it until its next task would hold them across calls.
    set_cpus(2)

    class Buffers:
        pass

    buffers = Buffers()
    ref = weakref.ref(buffers)
    chunk = _one_chunk_each(lambda: None)
    _workers.map_rows(lambda lo, hi, buffers=buffers: chunk(lo, hi), 2)
    del buffers
    deadline = time.monotonic() + TIMEOUT
    while ref() is not None and time.monotonic() < deadline:
        time.sleep(0.001)
    assert ref() is None
