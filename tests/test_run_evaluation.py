import stat
import sys
import threading
import weakref

import numpy as np
import pytest

from rvqlab import _workers, codec, dsp, evalstats
from rvqlab.datapipe import ManifestEntry, QualityCategory, load_manifest
from rvqlab.dsp import AudioBuffer
from rvqlab.errors import InvalidInput
from rvqlab.evalstats import render_report, run_evaluation
from rvqlab.frontend import GL_INIT, GL_MOMENTUM
from rvqlab.metrics import LOSS_SCALES
from rvqlab.wavio import write_wav

from conftest import make_corpus
from signals import speech_like


@pytest.fixture(scope="module")
def test_sets(tmp_path_factory):
    seta = make_corpus(tmp_path_factory.mktemp("eval_a"), per_category=1, duration=1.0, base_seed=400)
    setb = make_corpus(tmp_path_factory.mktemp("eval_b"), per_category=1, duration=1.0, base_seed=500)
    return {"seta": load_manifest(seta), "setb": load_manifest(setb)}


@pytest.fixture(scope="module")
def mixed_set(tmp_path_factory, test_sets):
    """seta with three more files: a clip too short for STOI (it fails at
    every q), one whose 0.9 s (68 frames) no other file has, and one whose
    manifest rate is not its file's (it fails to read)."""
    root = tmp_path_factory.mktemp("eval_mixed")
    write_wav(root / "short.wav", AudioBuffer(speech_like(0.2, 24000, 41), 24000))
    write_wav(root / "cut.wav", AudioBuffer(speech_like(0.9, 24000, 42), 24000))
    seta = list(test_sets["seta"])
    return seta[:2] + [
        ManifestEntry(root / "short.wav", QualityCategory.MQ1, 0.2, 24000),
        ManifestEntry(root / "cut.wav", QualityCategory.MQ2, 0.9, 24000),
        seta[2],
        ManifestEntry(seta[3].path, QualityCategory.UQ, 1.0, 16000),
    ] + seta[4:]


class TestConcurrentCells:
    """The cells of the grid run on a thread pool; the report must not show it."""

    def test_one_worker_and_four_give_the_same_report(self, toy_model, mixed_set, monkeypatch):
        _, model, _ = toy_model
        monkeypatch.setattr(evalstats, "_MAX_FAILURE_RATE", 0.5)
        # A decode fault at q=2 and q=1 of the 68-frame file: the report must
        # name the q=2 error, first in q order, whichever cell fails first.
        real = codec.decode

        def decode(model, tokens, n_stages, gl_iterations, callback=None):
            if tokens.n_frames == 68 and n_stages < 4:
                raise InvalidInput(f"injected fault at q={n_stages}")
            return real(model, tokens, n_stages, gl_iterations, callback)

        monkeypatch.setattr(codec, "decode", decode)
        reports = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, to shake out shared state
        try:
            for workers in (1, 4):
                monkeypatch.setattr(_workers, "_cpu_count", lambda: workers)
                reports.append(run_evaluation(model, {"mixed": mixed_set, "seta": mixed_set[:2]},
                                              q_list=[1, 2, 4], gl_iterations=2))
        finally:
            sys.setswitchinterval(interval)
        one, four = reports
        assert list(one.rows.items()) == list(four.rows.items())
        assert one.config == four.config
        assert one.failures == four.failures
        assert [(f[1], f[2].split(":")[0]) for f in four.failures] == [
            (str(mixed_set[2].path), "InsufficientDuration"),
            (str(mixed_set[3].path), "InvalidInput"),
            (str(mixed_set[5].path), "SchemaError"),
        ]
        assert four.failures[1][2].endswith("injected fault at q=2")
        assert "16000 Hz" in four.failures[2][2] and "24000 Hz" in four.failures[2][2]
        assert render_report(one, "csv") == render_report(four, "csv")

    def test_decode_fault_before_a_reference_only_error_is_the_one_reported(self, toy_model, mixed_set,
                                                                            monkeypatch):
        # short.wav (15 frames) is too short for STOI, which only its
        # reference shows.  Scoring raises that at each q after the decode,
        # so a decode fault at the top q is its file's first error.
        _, model, _ = toy_model
        monkeypatch.setattr(evalstats, "_MAX_FAILURE_RATE", 0.5)
        monkeypatch.setattr(_workers, "_cpu_count", lambda: 2)
        real = codec.decode

        def decode(model, tokens, n_stages, gl_iterations, callback=None):
            if tokens.n_frames == 15 and n_stages == 4:
                raise InvalidInput(f"injected fault at q={n_stages}")
            return real(model, tokens, n_stages, gl_iterations, callback)

        monkeypatch.setattr(codec, "decode", decode)
        report = run_evaluation(model, {"mixed": mixed_set}, q_list=[1, 2, 4], gl_iterations=1)
        assert [(f[1], f[2].split(":")[0]) for f in report.failures] == [
            (str(mixed_set[2].path), "InvalidInput"),
            (str(mixed_set[5].path), "SchemaError"),
        ]
        assert report.failures[0][2] == "InvalidInput: injected fault at q=4"

    def test_cells_run_on_the_caller_and_the_active_helpers(self, toy_model, test_sets, monkeypatch):
        _, model, _ = toy_model
        threads = []
        real = evalstats._score_cell

        def spy(*args, **kwargs):
            threads.append(threading.current_thread())
            return real(*args, **kwargs)

        monkeypatch.setattr(evalstats, "_score_cell", spy)
        for cpus in (3, 1):
            monkeypatch.setattr(_workers, "_cpu_count", lambda: cpus)
            threads.clear()
            run_evaluation(model, {"pair": test_sets["seta"][:2]}, q_list=[2, 1], gl_iterations=1)
            # 2 files x 2 q = 4 cells, on the calling thread or the cpus - 1 active helpers.
            assert len(threads) == 4
            assert set(threads) <= {threading.current_thread(), *_workers._helpers[: cpus - 1]}

    def test_at_most_eight_files_are_in_flight_at_any_cpu_count(self, toy_model, test_sets, monkeypatch):
        # A file is in flight from its encode until its scores are gathered,
        # and its encoded tokens live exactly that long.
        _, model, _ = toy_model
        tokens, in_flight = [], []
        real = codec.encode

        def encode(*args):
            audio, latents, stream = real(*args)
            tokens.append(weakref.ref(stream))
            in_flight.append(sum(ref() is not None for ref in tokens))
            return audio, latents, stream

        monkeypatch.setattr(codec, "encode", encode)
        for cpus in (1, 4):
            monkeypatch.setattr(_workers, "_cpu_count", lambda: cpus)
            tokens.clear()
            in_flight.clear()
            report = run_evaluation(model, test_sets, q_list=[1], gl_iterations=1)
            assert not report.failures
            assert len(in_flight) == 12
            assert max(in_flight) == 8  # a group of 8 files, then one of 4

    def test_files_are_read_encoded_and_analysed_concurrently(self, toy_model, test_sets, monkeypatch):
        # The first two encodes meet at a barrier: it breaks unless two files
        # of the group are encoded at once.
        _, model, _ = toy_model
        monkeypatch.setattr(_workers, "_cpu_count", lambda: 2)
        barrier, lock, calls = threading.Barrier(2, timeout=10), threading.Lock(), []
        real = codec.encode

        def encode(*args):
            with lock:
                calls.append(args)
                first_two = len(calls) <= 2
            if first_two:
                barrier.wait()
            return real(*args)

        monkeypatch.setattr(codec, "encode", encode)
        report = run_evaluation(model, {"four": test_sets["seta"][:4]}, q_list=[1], gl_iterations=1)
        assert not report.failures and len(calls) == 4

    def test_error_outside_the_contract_propagates_and_frees_the_helpers(self, toy_model, test_sets,
                                                                         monkeypatch):
        _, model, _ = toy_model
        monkeypatch.setattr(_workers, "_cpu_count", lambda: 4)
        real = evalstats._score_cell

        def score(container, audio, latents, tokens, q, *args):
            if q == 1:
                raise RuntimeError("not an RvqLabError")
            return real(container, audio, latents, tokens, q, *args)

        monkeypatch.setattr(evalstats, "_score_cell", score)
        with pytest.raises(RuntimeError, match="not an RvqLabError"):
            run_evaluation(model, {"pair": test_sets["seta"][:2]}, q_list=[2, 1], gl_iterations=1)
        assert all(task is None for task in _workers._tasks)


class TestRunEvaluation:
    def test_grid_complete_and_ordered(self, toy_model, test_sets):
        _, model, _ = toy_model
        report = run_evaluation(model, test_sets, q_list=[1, 2, 4], gl_iterations=8)
        assert report.q_list == (4, 2, 1)  # descending, mirroring the table layout
        for set_name in ("seta", "setb"):
            for metric in ("mel", "stft", "stoi", "pesq", "latent_mse"):
                row = report.rows[(set_name, metric, "rvq")]
                assert set(row) == {4, 2, 1}
                for q in (4, 2, 1):
                    if metric == "pesq":
                        assert row[q] is None  # unconfigured adapter: absent, not error
                    else:
                        assert row[q] is not None

    def test_quality_improves_with_stages(self, toy_model, test_sets):
        _, model, _ = toy_model
        report = run_evaluation(model, test_sets, q_list=[1, 2, 4], gl_iterations=8)
        for set_name in ("seta", "setb"):
            mse = [report.cell(set_name, "latent_mse", "rvq", q) for q in (4, 2, 1)]
            assert mse[0] < mse[1] < mse[2]
            mel = [report.cell(set_name, "mel", "rvq", q) for q in (4, 2, 1)]
            assert mel[0] <= mel[1] <= mel[2]

    def test_deterministic_report_bytes(self, toy_model, test_sets):
        _, model, _ = toy_model
        report = run_evaluation(model, test_sets, q_list=[1, 4], gl_iterations=4)
        a = render_report(report, "csv")
        b = render_report(run_evaluation(model, test_sets, q_list=[1, 4], gl_iterations=4), "csv")
        assert a == b
        assert (report.config["gl_iterations"], report.config["gl_momentum"]) == (4, GL_MOMENTUM)
        assert report.config["gl_init"] == GL_INIT == "phase_gradient"
        assert report.config["metric"] == {
            "scales": [[256, 64, 40], [512, 128, 80], [1024, 256, 160], [2048, 512, 320]],
            "floor": 1e-05,
        }

    def test_one_loss_pass_per_decoded_file(self, toy_model, test_sets, monkeypatch):
        # Each file takes one analysis STFT to encode and one reference STFT
        # per loss scale; each decoded (file, q) pair then takes one STFT per
        # loss scale, shared by the mel and STFT losses.  STOI resamples each
        # reference to 10 kHz once and each decoded pair once.
        _, model, _ = toy_model
        stfts, resamples = [], []
        real_stft, real_resample = dsp.stft, dsp.resample

        def stft_spy(audio, config):
            stfts.append(config.fft_size)
            return real_stft(audio, config)

        def resample_spy(audio, target_rate):
            resamples.append(target_rate)
            return real_resample(audio, target_rate)

        spies = (("stft", real_stft, stft_spy), ("resample", real_resample, resample_spy))
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "rvqlab":
                for attr, real, spy in spies:
                    if getattr(module, attr, None) is real:
                        monkeypatch.setattr(module, attr, spy)
        files = test_sets["seta"][:3]
        q_list = [4, 2, 1]
        report = run_evaluation(model, {"seta": files}, q_list=q_list, gl_iterations=2)
        assert not report.failures
        assert len(stfts) == len(files) * (1 + len(LOSS_SCALES) + len(q_list) * len(LOSS_SCALES))
        assert resamples.count(10000) == len(files) * (1 + len(q_list))

    def test_q_exceeding_model_rejected(self, toy_model, test_sets):
        _, model, _ = toy_model
        with pytest.raises(InvalidInput):
            run_evaluation(model, test_sets, q_list=[8])

    @pytest.mark.parametrize(
        "manifests, q_list, match",
        [(None, [], "q_list"), ({}, [1], "test manifest"), ({"none": []}, [1], "no files")],
        ids=["empty-q-list", "no-manifests", "no-files"],
    )
    def test_nothing_to_evaluate_rejected(self, toy_model, test_sets, manifests, q_list, match):
        _, model, _ = toy_model
        with pytest.raises(InvalidInput, match=match):
            run_evaluation(model, test_sets if manifests is None else manifests, q_list=q_list)

    @pytest.mark.parametrize("name", ["", "a,b", "x|y", "a\nb", "a\rb", 7, None],
                             ids=["empty", "comma", "bar", "newline", "return", "int", "none"])
    def test_set_name_that_would_corrupt_the_report_rejected(self, toy_model, test_sets, name):
        _, model, _ = toy_model
        with pytest.raises(InvalidInput, match="test-set name"):
            run_evaluation(model, {name: test_sets["seta"]}, q_list=[1])

    def test_q_below_one_rejected_before_any_file(self, toy_model, test_sets):
        _, model, _ = toy_model
        with pytest.raises(InvalidInput):
            run_evaluation(model, test_sets, q_list=[2, 0])

    def test_gl_iterations_below_one_rejected_before_any_file(self, toy_model, test_sets):
        _, model, _ = toy_model
        with pytest.raises(InvalidInput):
            run_evaluation(model, test_sets, q_list=[1], gl_iterations=0)

    def test_pesq_tool_from_environment_recorded(self, toy_model, test_sets, tmp_path, monkeypatch):
        _, model, _ = toy_model
        tool = tmp_path / "fake_pesq.sh"
        tool.write_text('#!/bin/sh\necho "MOS-LQO = 4.1"\n')
        tool.chmod(tool.stat().st_mode | stat.S_IEXEC)
        monkeypatch.setenv("RVQLAB_PESQ_TOOL", str(tool))
        report = run_evaluation(model, test_sets, q_list=[1], gl_iterations=2)
        assert report.cell("seta", "pesq", "rvq", 1) == pytest.approx(4.1)
        assert report.config["pesq_tool"] == str(tool)

    def test_file_failing_at_later_q_counts_at_no_q(self, toy_model, test_sets, tmp_path, monkeypatch):
        _, model, _ = toy_model
        # The fake tool prints its call count as the score and fails on its
        # 2nd call: file 0 scores 1 at q=2, then fails at q=1; file 1 scores
        # 3 at q=2 and 4 at q=1.  File 0 must be left out of both columns.
        # The count is the order of the calls, so the cells run one at a time.
        monkeypatch.setattr(_workers, "_cpu_count", lambda: 1)
        tool = tmp_path / "fake_pesq.sh"
        tool.write_text(
            "#!/bin/sh\n"
            'n=$(( $(cat "$0.count" 2>/dev/null || echo 0) + 1 ))\n'
            'echo "$n" > "$0.count"\n'
            '[ "$n" -eq 2 ] && exit 1\n'
            'echo "$n"\n'
        )
        tool.chmod(tool.stat().st_mode | stat.S_IEXEC)
        files = test_sets["seta"][:2]
        monkeypatch.setenv("RVQLAB_PESQ_TOOL", str(tool))
        monkeypatch.setattr(evalstats, "_MAX_FAILURE_RATE", 0.5)
        report = run_evaluation(model, {"pair": files}, q_list=[2, 1], gl_iterations=2)
        assert [f[1] for f in report.failures] == [str(files[0].path)]
        assert report.cell("pair", "pesq", "rvq", 2) == 3.0
        assert report.cell("pair", "pesq", "rvq", 1) == 4.0
        monkeypatch.delenv("RVQLAB_PESQ_TOOL")
        alone = run_evaluation(model, {"pair": files[1:]}, q_list=[2, 1], gl_iterations=2)
        for metric in ("mel", "stft", "stoi", "latent_mse"):
            for q in (2, 1):
                assert report.cell("pair", metric, "rvq", q) == alone.cell("pair", metric, "rvq", q)

    def test_failures_recorded_and_tolerated(self, toy_model, test_sets, tmp_path, monkeypatch):
        _, model, _ = toy_model
        # Corrupt one file out of many: failure rate 1/12 exceeds the 1%
        # default threshold, so the run must fail loudly.
        import shutil

        broken_root = tmp_path / "broken"
        shutil.copytree(test_sets["seta"][0].path.parent, broken_root)
        manifest = load_manifest(broken_root / "manifest.jsonl")
        manifest[0].path.write_bytes(b"not audio")
        from rvqlab.errors import EvaluationFailed

        with pytest.raises(EvaluationFailed):
            run_evaluation(model, {"broken": manifest}, q_list=[1], gl_iterations=4)
        # With a permissive threshold the run completes and records it.
        monkeypatch.setattr(evalstats, "_MAX_FAILURE_RATE", 0.5)
        report = run_evaluation(model, {"broken": manifest}, q_list=[1], gl_iterations=4)
        assert len(report.failures) == 1
        assert "WavError" in report.failures[0][2]

    @pytest.mark.parametrize("as_directory, error", [(False, "MissingFile: missing file: "),
                                                     (True, "WavError: {path}: cannot read: ")],
                             ids=["removed", "directory"])
    def test_file_gone_or_unreadable_after_loading_recorded(self, toy_model, test_sets, tmp_path, monkeypatch,
                                                            as_directory, error):
        _, model, _ = toy_model
        import shutil

        shutil.copytree(test_sets["seta"][0].path.parent, tmp_path / "copy")
        manifest = load_manifest(tmp_path / "copy" / "manifest.jsonl")[:2]
        manifest[0].path.unlink()
        if as_directory:
            manifest[0].path.mkdir()
        monkeypatch.setattr(evalstats, "_MAX_FAILURE_RATE", 0.5)
        report = run_evaluation(model, {"gone": manifest}, q_list=[1], gl_iterations=1)
        assert [f[1] for f in report.failures] == [str(manifest[0].path)]
        assert report.failures[0][2].startswith(error.format(path=manifest[0].path))
