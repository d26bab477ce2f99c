import os
import signal
import sys
import threading
import time
import traceback
import weakref

import numpy as np
import pytest

import golden
from rvqlab import _workers, codec, container
from rvqlab.dsp import AudioBuffer
from rvqlab.errors import InvalidInput
from rvqlab.wavio import write_wav

from signals import speech_like

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

    def test_a_handed_out_task_is_waited_on_never_taken_back(self, set_cpus, monkeypatch):
        # The helper's task starts only once the caller has run every chunk:
        # it finds none left, and the split still waits for it to finish.
        set_cpus(2)
        caller = threading.current_thread()
        ran, events, caller_done = [], [], threading.Event()
        real_task = _workers._Task

        def late_task(fn):
            def late():
                assert caller_done.wait(TIMEOUT)
                time.sleep(0.05)  # long enough for the caller to be waiting
                fn()
                events.append("helper task finished")

            return real_task(late)

        monkeypatch.setattr(_workers, "_Task", late_task)

        def chunk(lo, hi):
            ran.append(threading.current_thread())
            if len(ran) == 8:
                caller_done.set()

        _workers.map_rows(chunk, 8)
        events.append("map_rows returned")
        assert ran == [caller] * 8
        assert events == ["helper task finished", "map_rows returned"]
        assert all(task is None for task in _workers._tasks)

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

    def test_an_error_in_the_helper_alone_reaches_the_caller(self, set_cpus):
        set_cpus(2)
        caller, helper_failed = threading.current_thread(), threading.Event()

        def chunk(lo, hi):  # the caller's chunks all succeed, after the helper's first one failed
            if threading.current_thread() is caller:
                assert helper_failed.wait(TIMEOUT)
            else:
                helper_failed.set()
                raise ValueError("helper chunk")

        with pytest.raises(ValueError, match="helper chunk"):
            _workers.map_rows(chunk, 10)
        assert all(task is None for task in _workers._tasks)


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


class TestMapFrames:
    def test_below_the_floor_is_one_call_with_idle_helpers(self, set_cpus):
        set_cpus(4)
        n = _workers._MIN_SPLIT_FRAMES - 1
        chunks = []
        _workers.map_frames(lambda lo, hi: chunks.append((lo, hi, threading.current_thread())), n)
        assert chunks == [(0, n, threading.current_thread())]

    @pytest.mark.parametrize("extra", [0, 1, 2, 3])
    def test_no_chunk_holds_a_single_frame(self, monkeypatch, extra):
        # However finely map_rows cuts, each chunk has two frames or more:
        # a one-row product would take BLAS's matrix-vector path.
        monkeypatch.setattr(_workers, "map_rows", lambda fn, n_rows: [fn(k, k + 1) for k in range(n_rows)])
        n = _workers._MIN_SPLIT_FRAMES + extra
        chunks = []
        _workers.map_frames(lambda lo, hi: chunks.append((lo, hi)), n)
        assert [row for lo, hi in chunks for row in range(lo, hi)] == list(range(n))
        assert min(hi - lo for lo, hi in chunks) == 2

    def test_at_the_floor_the_helpers_take_chunks(self, set_cpus):
        set_cpus(2)
        n = _workers._MIN_SPLIT_FRAMES
        chunks = []
        _workers.map_frames(lambda lo, hi: chunks.append((lo, hi)), n)
        bounds = [2 * (n // 2 * k // 8) for k in range(9)]
        assert sorted(chunks) == list(zip(bounds, bounds[1:]))


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
    # and a lost update of a task slot would leave its helper marked busy.
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
    assert all(task is None for task in _workers._tasks)


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


@pytest.fixture
def toy_stream(toy_model, tmp_path):
    """(model path, .rvqs path) of the golden clip encoded with the toy
    model, decoded in this process into tmp_path / "parent"."""
    model_path = toy_model[0]
    wav, stream = tmp_path / "clip.wav", tmp_path / "clip.rvqs"
    write_wav(wav, AudioBuffer(speech_like(golden.CLIP_SECONDS, 24000, golden.CLIP_SEED), 24000))
    golden._cli(["encode", "--model", str(model_path), str(wav), "-q", str(golden.FULL_Q), str(stream)])
    (tmp_path / "parent").mkdir()
    golden.decode_outputs(model_path, stream, tmp_path / "parent")
    return model_path, stream


def _wait_for_child(pid, what) -> None:
    """Wait for a forked child to exit 0; kill it if it has not exited by the deadline."""
    deadline = time.monotonic() + TIMEOUT
    while (waited := os.waitpid(pid, os.WNOHANG))[0] == 0:
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail(f"the forked child's {what} had not finished after {TIMEOUT} s")
        time.sleep(0.01)
    assert os.waitstatus_to_exitcode(waited[1]) == 0


def _decode_in_a_child(model_path, stream, out_dir) -> None:
    """Fork; the child decodes stream into out_dir and exits, and the parent
    kills it if it has not exited by the deadline."""
    out_dir.mkdir()
    pid = os.fork()
    if pid == 0:  # the child never returns into the test run
        code = 1
        try:
            golden.decode_outputs(model_path, stream, out_dir)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    _wait_for_child(pid, "decode")


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")
class TestFork:
    """A forked child has none of its parent's helper threads; its splits
    must still run, and decode the bytes the parent does."""

    def _check_child_decode(self, toy_stream, tmp_path):
        model_path, stream = toy_stream
        _decode_in_a_child(model_path, stream, tmp_path / "child")
        for q in (golden.FULL_Q, golden.PREFIX_Q):
            wav = f"decoded_q{q}.wav"
            assert (tmp_path / "child" / wav).read_bytes() == (tmp_path / "parent" / wav).read_bytes()

    def test_child_decodes_after_a_split(self, set_cpus, toy_stream, tmp_path):
        set_cpus(2)
        _workers.map_rows(lambda lo, hi: None, 8)  # the helper is started, and idle at the fork
        self._check_child_decode(toy_stream, tmp_path)

    def test_child_decodes_while_a_helper_is_blocked_in_a_task(self, set_cpus, blocker, toy_stream, tmp_path):
        blocker(2)  # helper 0 is inside a task until the test ends
        set_cpus(3)
        _workers.map_rows(lambda lo, hi: None, 8)  # helper 1 starts, and is idle at the fork
        self._check_child_decode(toy_stream, tmp_path)


def _blas_calls():
    calls = _workers._blas_thread_calls()
    if calls is None:
        pytest.skip("no OpenBLAS found in this process")
    return calls


@pytest.fixture
def toy_encode(toy_model):
    """encode(samples) -> tokens of the toy model at full q, through codec.encode."""
    model = container.load(toy_model[0])

    def encode(samples):
        return codec.encode(model, AudioBuffer(samples, 24000), golden.FULL_Q)[2].frames

    return encode


class TestBlasHold:
    """codec.encode holds numpy's OpenBLAS to one thread, the calling one,
    and the last hold to end restores the count the first one found."""

    def test_holds_nest_and_restore_the_count(self):
        get, _ = _blas_calls()
        before = get()
        with _workers.blas_on_caller():
            assert get() == 1
            with _workers.blas_on_caller():
                assert get() == 1
            assert get() == 1
        assert get() == before and _workers._holds == 0

    def test_encode_runs_in_the_hold_and_restores_the_count(self, set_cpus, toy_encode, monkeypatch):
        get, _ = _blas_calls()
        set_cpus(2)
        before, seen = get(), []
        quantize = codec.quantize
        monkeypatch.setattr(codec, "quantize", lambda *args: seen.append(get()) or quantize(*args))
        toy_encode(speech_like(2.0, 24000, 3))
        assert seen == [1]
        assert get() == before and _workers._holds == 0

    @pytest.mark.parametrize("errors, raised", [("raise", FloatingPointError), ("ignore", InvalidInput)])
    def test_an_encode_that_raises_restores_the_count(self, set_cpus, toy_encode, errors, raised):
        # Samples near the float limit overflow the STFT: raised by numpy in
        # a chunk, or by the spectrogram's finiteness check after the split.
        get, _ = _blas_calls()
        set_cpus(2)
        before = get()
        samples = np.full(48000, 1e308)
        samples[::2] *= -1
        with np.errstate(over=errors, invalid=errors), pytest.raises(raised) as info:
            toy_encode(samples)
        if raised is InvalidInput:
            assert str(info.value) == "non-finite values in spectrogram"
        assert get() == before and _workers._holds == 0

    def test_two_threads_encoding_at_once_restore_the_count(self, set_cpus, toy_encode):
        get, _ = _blas_calls()
        set_cpus(3)
        before = get()
        samples = speech_like(2.0, 24000, 4)
        expected = toy_encode(samples)
        start = threading.Barrier(2, timeout=TIMEOUT)
        results = []

        def encode_a_few():
            start.wait()
            results.extend(toy_encode(samples) for _ in range(5))

        threads = [threading.Thread(target=encode_a_few) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(TIMEOUT)
            assert not thread.is_alive()
        assert len(results) == 10 and all(np.array_equal(r, expected) for r in results)
        assert get() == before and _workers._holds == 0

    def test_encode_works_without_openblas(self, set_cpus, toy_encode, monkeypatch):
        set_cpus(2)
        samples = speech_like(2.0, 24000, 5)
        expected = toy_encode(samples)
        monkeypatch.setattr(_workers, "_blas_thread_calls", lambda: None)
        assert np.array_equal(toy_encode(samples), expected)
        assert _workers._holds == 0

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")
    def test_a_child_forked_in_the_hold_drops_it(self):
        # No thread of the child ends the parent's hold for it: the child
        # restores the count at once, and leaving the hold changes nothing.
        get, _ = _blas_calls()
        before = get()
        read_end, write_end = os.pipe()
        with _workers.blas_on_caller():
            pid = os.fork()
            if pid == 0:
                seen = [get(), _workers._holds]
        if pid == 0:  # the child never returns into the test run
            try:
                os.write(write_end, f"{seen} {[get(), _workers._holds]}".encode())
            finally:
                os._exit(0)
        os.close(write_end)
        try:
            _wait_for_child(pid, "report")
            report = os.read(read_end, 1024).decode()
        finally:
            os.close(read_end)
        assert report == f"{[before, 0]} {[before, 0]}"
        assert get() == before and _workers._holds == 0
