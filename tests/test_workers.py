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


def _blocker(set_cpus, cpus):
    """Occupy every one of the cpus - 1 helpers until the returned event is set."""
    set_cpus(cpus)
    release, started = threading.Event(), threading.Semaphore(0)

    def block():
        started.release()
        release.wait(TIMEOUT)

    futures = [_workers.submit(block) for _ in range(cpus - 1)]
    for _ in futures:
        assert started.acquire(timeout=TIMEOUT)
    return release, futures


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

    def test_busy_helpers_take_no_chunk(self, set_cpus):
        release, futures = _blocker(set_cpus, 3)
        try:
            threads = []
            _workers.map_rows(lambda lo, hi: threads.append((lo, hi, threading.current_thread())), 10)
            assert threads == [(0, 10, threading.current_thread())]
        finally:
            release.set()
        for future in futures:
            future.result(TIMEOUT)

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


class TestNesting:
    def test_work_submitted_from_a_helper_while_every_helper_is_busy_runs_in_that_helper(self, set_cpus):
        release, blocked = _blocker(set_cpus, 2)  # helper 0 of 2 blocks until release
        set_cpus(3)
        ran = {}

        def outer():
            ran["outer"] = threading.current_thread()
            # Both helpers are busy now: helper 0 blocks, helper 1 runs outer.
            _workers.map_rows(lambda lo, hi: ran.setdefault("chunks", []).append(threading.current_thread()), 10)
            inner = _workers.submit(lambda: "inner on a helper")
            if inner.cancel():  # no helper started it: run it here, as run_evaluation does
                return "inner here"
            return inner.result()

        try:
            assert _workers.submit(outer).result(TIMEOUT) == "inner here"
        finally:
            release.set()
        for future in blocked:
            future.result(TIMEOUT)
        assert ran["outer"] in _workers._helpers[:2]
        assert ran["chunks"] == [ran["outer"]]

    def test_rows_split_from_a_helper_use_the_idle_ones(self, set_cpus):
        set_cpus(3)
        chunks = []

        def outer():
            _workers.map_rows(lambda lo, hi: chunks.append((lo, hi)), 10)
            return threading.current_thread()

        assert _workers.submit(outer).result(TIMEOUT) in _workers._helpers[:2]
        assert sorted(chunks) == [(0, 1), (1, 2), (2, 3), (3, 5), (5, 6), (6, 7), (7, 8), (8, 10)]


class TestHelpers:
    def test_active_helpers_follow_the_cpu_count(self, set_cpus):
        for cpus in (3, 2, 1):
            set_cpus(cpus)
            threads = set()
            release = threading.Barrier(cpus, timeout=TIMEOUT)  # every active helper at once

            def task():
                threads.add(threading.current_thread())
                release.wait()

            futures = [_workers.submit(task) for _ in range(cpus - 1)]
            if futures:
                release.wait()
            for future in futures:
                future.result(TIMEOUT)
            assert threads == set(_workers._helpers[: cpus - 1])

    def test_cpu_count_is_the_affinity(self):
        expected = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        assert _workers._cpu_count() == expected


def test_nested_splits_under_load_cover_every_row_and_free_every_helper(set_cpus):
    # More threads than cores, switching often: outer tasks on the helpers
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

        futures = [_workers.submit(outer, n) for n in (1, 7, 64, 300)]
        assert outer(50) == [20] * 50
        for future, n in zip(futures, (1, 7, 64, 300)):
            assert future.result(TIMEOUT) == [20] * n
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
    assert _workers.submit(len, [buffers]).result(TIMEOUT) == 1
    del buffers
    deadline = time.monotonic() + TIMEOUT
    while ref() is not None and time.monotonic() < deadline:
        time.sleep(0.001)
    assert ref() is None
