import argparse
import json
import os
import struct
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import rvqlab
from rvqlab import bitstream, cli, codec, container, datapipe
from rvqlab.cli import main
from rvqlab.container import ModelContainer
from rvqlab.datapipe import load_manifest
from rvqlab.dsp import AudioBuffer
from rvqlab.evalstats import run_evaluation
from rvqlab.frontend import GL_INIT, GL_MOMENTUM, MIN_SOURCE_RATE, N_MELS, FrontendModel
from rvqlab.metrics import mel_loss, stft_loss, stoi
from rvqlab.rvq import Codebook, RvqConfig, RvqModel, TokenStream
from rvqlab.wavio import read_wav, write_wav

from conftest import make_corpus
from signals import speech_like


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_summary(self, toy_corpus, capsys):
        code, out, err = _run(capsys, ["validate", str(toy_corpus)])
        assert code == 0
        assert "12 files" in out
        assert "HQ1" in out

    def test_missing_manifest_exit_2_names_path(self, capsys):
        code, out, err = _run(capsys, ["validate", "/no/such/manifest.jsonl"])
        assert code == 2
        assert "/no/such/manifest.jsonl" in err

    def test_non_utf8_manifest_exit_2(self, tmp_path, capsys):
        path = tmp_path / "binary.jsonl"
        path.write_bytes(b"\xff\xfe\x00not text\n")
        code, _, err = _run(capsys, ["validate", str(path)])
        assert code == 2
        assert err.startswith("error: SchemaError")

    def test_json_matches_text_numbers(self, toy_corpus, capsys):
        _, out_text, _ = _run(capsys, ["validate", str(toy_corpus)])
        code, out_json, _ = _run(capsys, ["validate", str(toy_corpus), "--json"])
        assert code == 0
        payload = json.loads(out_json)
        assert payload["total_files"] == 12
        assert "12 files" in out_text


    @pytest.mark.parametrize("field,value", [("path", 5), ("duration", "nan"), ("sample_rate", 0),
                                             ("sample_rate", 7999)])
    def test_hostile_field_exit_2(self, tmp_path, capsys, field, value):
        write_wav(tmp_path / "a.wav", AudioBuffer(np.zeros(100), 24000))
        record = {"path": "a.wav", "category": "HQ1", "duration": 1.0, "sample_rate": 24000}
        record[field] = value
        path = tmp_path / "hostile.jsonl"
        path.write_text(json.dumps(record))
        code, out, err = _run(capsys, ["validate", str(path), "--json"])
        assert code == 2
        assert out == ""
        assert "SchemaError" in err and "Traceback" not in err


class TestTrain:
    def test_same_seed_byte_identical(self, toy_corpus, tmp_path, capsys):
        args = [
            "train", "--manifest", str(toy_corpus),
            "-Q", "2", "-K", "16", "-D", "8", "--code-dim", "4",
            "--seed", "3", "--batches", "3", "--batch-size", "12",
        ]
        code_a, out_a, _ = _run(capsys, args + ["--out", str(tmp_path / "a.rvqm")])
        code_b, out_b, _ = _run(capsys, args + ["--out", str(tmp_path / "b.rvqm")])
        assert code_a == code_b == 0
        assert (tmp_path / "a.rvqm").read_bytes() == (tmp_path / "b.rvqm").read_bytes()
        assert "stage MSE" in out_a
        assert "balance" in out_a

    def test_passes_train_codec_only_the_settings_given(self, toy_corpus, tmp_path, monkeypatch, capsys):
        seen = []
        real = cli.train_codec

        def spy(manifest, **settings):
            seen.append(settings)
            return real(manifest, **settings)

        monkeypatch.setattr(cli, "train_codec", spy)
        code, out, _ = _run(capsys, ["train", "--manifest", str(toy_corpus), "--out", str(tmp_path / "m.rvqm"),
                                     "-K", "16", "--batches", "2"])
        assert code == 0
        assert seen == [{"codebook_size": 16, "n_batches": 2}]
        # D comes from the trained model, here train_codec's default.
        assert "top-64 explained variance" in out

    def test_missing_manifest(self, tmp_path, capsys):
        code, _, err = _run(
            capsys,
            ["train", "--manifest", "/no/file.jsonl", "--out", str(tmp_path / "m.rvqm")],
        )
        assert code == 2
        assert "/no/file.jsonl" in err

    def test_negative_max_rvq_frames_exit_2(self, toy_corpus, tmp_path, capsys):
        out = tmp_path / "m.rvqm"
        code, stdout, err = _run(
            capsys,
            ["train", "--manifest", str(toy_corpus), "--out", str(out), "--max-rvq-frames", "-1"],
        )
        assert code == 2
        assert stdout == "" and not out.exists()
        assert err.startswith("error: InvalidInput:") and "max_rvq_frames" in err


    def test_empty_wav_exit_2(self, tmp_path, capsys):
        write_wav(tmp_path / "empty.wav", AudioBuffer(np.zeros(0), 24000))
        manifest = tmp_path / "manifest.jsonl"
        manifest.write_text(
            json.dumps({"path": "empty.wav", "category": "HQ1", "duration": 1.0, "sample_rate": 24000})
        )
        out = tmp_path / "m.rvqm"
        code, stdout, err = _run(
            capsys,
            # 360 excerpts of 29 frames are enough for K = 1024: the first read fails.
            ["train", "--manifest", str(manifest), "--out", str(out), "--batches", "1",
             "--batch-size", "360"],
        )
        assert code == 2
        assert stdout == "" and not out.exists()
        assert err.startswith("error: EmptyInput:")
        assert "Traceback" not in err

    def test_manifest_rate_that_is_not_the_files_exit_2(self, tmp_path, capsys):
        write_wav(tmp_path / "a.wav", AudioBuffer(speech_like(0.5, 24000, 3), 24000))
        manifest = tmp_path / "manifest.jsonl"
        manifest.write_text(
            json.dumps({"path": "a.wav", "category": "HQ1", "duration": 0.5, "sample_rate": 8000})
        )
        out = tmp_path / "m.rvqm"
        code, stdout, err = _run(
            capsys,
            # 360 excerpts of 29 frames are enough for K = 1024: the first read fails.
            ["train", "--manifest", str(manifest), "--out", str(out), "--batches", "1",
             "--batch-size", "360"],
        )
        assert code == 2
        assert stdout == "" and not out.exists()
        assert err.startswith("error: SchemaError:") and "8000 Hz" in err and "24000 Hz" in err

    def test_out_of_memory_exit_2(self, toy_corpus, tmp_path, monkeypatch, capsys):
        # numpy raises a private MemoryError subclass; no real allocation is tried.
        class _ArrayMemoryError(MemoryError):
            pass

        cuts = []

        def no_memory(audio, length, offset):  # each 2 s file is shorter than the excerpt
            cuts.append(length)
            raise _ArrayMemoryError(f"Unable to allocate 2.33 TiB for an array with shape ({length},)")

        monkeypatch.setattr(datapipe, "_cut", no_memory)
        out = tmp_path / "m.rvqm"
        code, stdout, err = _run(
            capsys,
            ["train", "--manifest", str(toy_corpus), "--out", str(out),
             "--excerpt-samples", "320000000000"],
        )
        assert code == 2
        assert stdout == "" and not out.exists()
        assert err.startswith("error: MemoryError: Unable to allocate 2.33 TiB")
        assert cuts == [320000000000]


@pytest.fixture(scope="module")
def one_second_wav(tmp_path_factory):
    path = tmp_path_factory.mktemp("wavs") / "one_second.wav"
    write_wav(path, AudioBuffer(speech_like(1.0, 24000, 321), 24000))
    return path


class TestEncodeDecode:
    def test_encode_size(self, toy_model, one_second_wav, tmp_path, capsys):
        model_path, _, _ = toy_model
        out = tmp_path / "x.rvqs"
        code, stdout, _ = _run(
            capsys,
            ["encode", "--model", str(model_path), str(one_second_wav), "-q", "4", str(out)],
        )
        assert code == 0
        data = out.read_bytes()
        # 75 frames x 4 stages x 4 bits (K=16) payload for this toy model.
        assert len(data) == bitstream.HEADER_SIZE + (75 * 4 * 4 + 7) // 8

    def test_ten_bit_payload_size(self, toy_corpus, one_second_wav, tmp_path, capsys):
        # With 10-bit codebooks, 1 s at q=4 is 375 payload bytes = 3000 bps.
        manifest = load_manifest(toy_corpus)
        from rvqlab.training import train_codec

        model, _ = train_codec(
            manifest, n_stages=4, codebook_size=1024, latent_dim=16, code_dim=8,
            seed=9, n_batches=40, batch_size=12, max_rvq_frames=12000,
        )
        model_path = tmp_path / "tenbit.rvqm"
        container.save(model, model_path)
        out = tmp_path / "y.rvqs"
        code, _, _ = _run(
            capsys,
            ["encode", "--model", str(model_path), str(one_second_wav), "-q", "4", str(out)],
        )
        assert code == 0
        assert len(out.read_bytes()) == bitstream.HEADER_SIZE + 375

    def test_decode_prefix(self, toy_model, one_second_wav, tmp_path, capsys):
        model_path, _, _ = toy_model
        stream = tmp_path / "s.rvqs"
        _run(capsys, ["encode", "--model", str(model_path), str(one_second_wav), "-q", "4", str(stream)])
        wav_out = tmp_path / "out2.wav"
        code, _, _ = _run(
            capsys,
            ["decode", "--model", str(model_path), str(stream), "-q", "2", str(wav_out),
             "--gl-iterations", "4"],
        )
        assert code == 0
        decoded = read_wav(wav_out)
        assert len(decoded) == 24000
        assert decoded.sample_rate == 24000

    def test_decode_json_reports_the_griffin_lim_trace(self, toy_model, one_second_wav, tmp_path, capsys):
        model_path, model, _ = toy_model
        stream = tmp_path / "s.rvqs"
        _run(capsys, ["encode", "--model", str(model_path), str(one_second_wav), "-q", "4", str(stream)])
        code, out, _ = _run(
            capsys,
            ["decode", "--model", str(model_path), str(stream), str(tmp_path / "o.wav"),
             "--gl-iterations", "5", "--json"],
        )
        assert code == 0
        payload = json.loads(out)
        expected = []
        codec.decode(model, bitstream.unpack(stream.read_bytes()), 4, 5, lambda i, sc: expected.append(sc))
        assert payload["gl_iterations"] == 5
        assert (payload["gl_momentum"], payload["gl_init"]) == (GL_MOMENTUM, GL_INIT) == (0.99, "phase_gradient")
        assert payload["gl_sc"] == expected and len(expected) == 5

    def test_corrupt_stream_typed_error(self, toy_model, tmp_path, capsys):
        model_path, _, _ = toy_model
        bad = tmp_path / "bad.rvqs"
        bad.write_bytes(b"garbage that is not a stream")
        code, _, err = _run(
            capsys, ["decode", "--model", str(model_path), str(bad), str(tmp_path / "o.wav")]
        )
        assert code == 2
        assert "NotABitstream" in err

    def test_mismatched_codebook_stream(self, toy_model, tmp_path, capsys):
        model_path, _, _ = toy_model
        rng = np.random.default_rng(0)
        alien = TokenStream(rng.integers(0, 1024, (10, 2)), codebook_size=1024)
        path = tmp_path / "alien.rvqs"
        path.write_bytes(bitstream.pack(alien))
        code, _, err = _run(
            capsys, ["decode", "--model", str(model_path), str(path), str(tmp_path / "o.wav")]
        )
        assert code == 2
        assert "CorruptTokens" in err

    def test_directory_as_model_exit_2(self, one_second_wav, tmp_path, capsys):
        code, _, err = _run(
            capsys,
            ["encode", "--model", str(tmp_path), str(one_second_wav), "-q", "1",
             str(tmp_path / "x.rvqs")],
        )
        assert code == 2
        assert err.startswith("error: IsADirectoryError")
        assert "Traceback" not in err

    def test_missing_model_exit_2(self, one_second_wav, tmp_path, capsys):
        code, _, err = _run(
            capsys,
            ["encode", "--model", str(tmp_path / "none.rvqm"), str(one_second_wav), "-q", "1",
             str(tmp_path / "x.rvqs")],
        )
        assert code == 2
        assert err.startswith("error: MissingFile:") and "none.rvqm" in err
        assert "Traceback" not in err

    def test_non_integer_q_list_exit_2(self, toy_model, toy_corpus, capsys):
        model_path, _, _ = toy_model
        code, _, err = _run(
            capsys,
            ["eval", "--model", str(model_path), "--test", f"toy={toy_corpus}",
             "--q-list", "4,x"],
        )
        assert code == 2
        assert err.startswith("error: InvalidInput")
        assert "--q-list" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("rate", [1, 7999])
    def test_source_rate_below_the_floor_exit_2_before_resampling(
        self, toy_model, tmp_path, monkeypatch, capsys, rate
    ):
        model_path, _, _ = toy_model
        wav = tmp_path / "low.wav"
        write_wav(wav, AudioBuffer(np.full(5, 0.1), rate))
        resamples = []
        monkeypatch.setattr(codec, "resample", lambda *args: resamples.append(args))
        out = tmp_path / "x.rvqs"
        code, stdout, err = _run(capsys, ["encode", "--model", str(model_path), str(wav), "-q", "1", str(out)])
        assert code == 2
        assert stdout == "" and not out.exists() and resamples == []
        assert err == f"error: SampleRateMismatch: audio at {rate} Hz, below the {MIN_SOURCE_RATE} Hz floor\n"

    def test_source_rate_at_the_floor_encodes(self, toy_model, tmp_path, monkeypatch, capsys):
        model_path, _, _ = toy_model
        wav = tmp_path / "narrow.wav"
        write_wav(wav, AudioBuffer(speech_like(0.5, MIN_SOURCE_RATE, 5), MIN_SOURCE_RATE))
        resamples = []
        real = codec.resample
        monkeypatch.setattr(codec, "resample", lambda audio, rate: resamples.append(rate) or real(audio, rate))
        out = tmp_path / "x.rvqs"
        code, _, _ = _run(capsys, ["encode", "--model", str(model_path), str(wav), "-q", "1", str(out)])
        assert code == 0 and resamples == [24000]
        assert bitstream.unpack(out.read_bytes()).n_stages == 1

    def test_a_4_kb_wav_at_a_large_rate_encodes_in_a_few_mib(self, toy_model, tmp_path, capsys):
        # down = 48000001 reduced against 24 kHz: a pad to a multiple of it
        # would hold 367 MiB for the one output sample.
        model_path, _, _ = toy_model
        rate = 48_000_001
        wav = tmp_path / "fast.wav"
        write_wav(wav, AudioBuffer(speech_like(2000 / rate, rate, 5), rate), encoding="pcm16")
        assert wav.stat().st_size < 4096
        out = tmp_path / "x.rvqs"
        tracemalloc.start()
        try:
            code, _, err = _run(capsys, ["encode", "--model", str(model_path), str(wav), "-q", "1", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0, err
        assert bitstream.unpack(out.read_bytes()).n_frames == 1
        assert peak < 4 << 20, peak

    @pytest.mark.parametrize("sample_rate, frame_rate", [(16000, 50), (16000, 75), (24000, 50)])
    def test_stream_rates_must_match_model(
        self, toy_model, one_second_wav, tmp_path, capsys, sample_rate, frame_rate
    ):
        model_path, _, _ = toy_model
        stream = tmp_path / "s.rvqs"
        _run(capsys, ["encode", "--model", str(model_path), str(one_second_wav), "-q", "2", str(stream)])
        forged = bytearray(stream.read_bytes())
        struct.pack_into("<IH", forged, 6, sample_rate, frame_rate)  # the header's rate fields
        stream.write_bytes(forged)
        wav_out = tmp_path / "o.wav"
        code, _, err = _run(
            capsys, ["decode", "--model", str(model_path), str(stream), str(wav_out)]
        )
        assert code == 2
        assert err.startswith("error: SampleRateMismatch")
        assert not wav_out.exists()

    def test_cli_metrics_match_run_evaluation_exactly(self, toy_model, tmp_path, capsys):
        model_path, model, _ = toy_model
        wav_path = tmp_path / "probe.wav"
        write_wav(wav_path, AudioBuffer(speech_like(1.0, 24000, 777), 24000))
        manifest_path = tmp_path / "probe.jsonl"
        manifest_path.write_text(
            json.dumps(
                {"path": "probe.wav", "category": "HQ1", "duration": 1.0, "sample_rate": 24000}
            )
        )

        stream = tmp_path / "probe.rvqs"
        wav_out = tmp_path / "probe_out.wav"
        _run(capsys, ["encode", "--model", str(model_path), str(wav_path), "-q", "4", str(stream)])
        _run(capsys, ["decode", "--model", str(model_path), str(stream), str(wav_out),
                      "--gl-iterations", "8"])

        ref = read_wav(wav_path)
        test = read_wav(wav_out)
        n = min(len(ref), len(test))
        ref = AudioBuffer(ref.samples[:n], 24000)
        test = AudioBuffer(test.samples[:n], 24000)

        report = run_evaluation(
            model, {"probe": load_manifest(manifest_path)}, q_list=[4], gl_iterations=8
        )
        assert mel_loss(ref, test).value == report.cell("probe", "mel", "rvq", 4)
        assert stft_loss(ref, test).value == report.cell("probe", "stft", "rvq", 4)
        assert stoi(ref, test).value == report.cell("probe", "stoi", "rvq", 4)


class TestEval:
    def test_grid_shape_and_json(self, toy_model, tmp_path_factory, capsys):
        model_path, _, _ = toy_model
        seta = make_corpus(tmp_path_factory.mktemp("cli_eval_a"), per_category=1, duration=1.0, base_seed=600)
        setb = make_corpus(tmp_path_factory.mktemp("cli_eval_b"), per_category=1, duration=1.0, base_seed=700)
        args = [
            "eval", "--model", str(model_path),
            "--test", f"seta={seta}", "--test", f"setb={setb}",
            "--q-list", "1,2,4", "--gl-iterations", "4",
        ]
        code, text, _ = _run(capsys, args)
        assert code == 0
        assert "q=4" in text and "q=2" in text and "q=1" in text
        assert "seta" in text and "setb" in text

        code, out_json, _ = _run(capsys, args + ["--json"])
        payload = json.loads(out_json)
        assert payload["q_list"] == [4, 2, 1]
        # JSON numbers equal the text-mode numbers (6 significant digits).
        mel_row = payload["rows"]["seta|mel|rvq"]
        assert f"{mel_row['4']:.6g}" in text


    def test_default_grid_is_the_models_q_and_each_power_of_two_below(self, toy_model, toy_corpus, capsys):
        model_path, _, _ = toy_model
        args = ["eval", "--model", str(model_path), "--test", f"toy={toy_corpus}", "--gl-iterations", "1"]
        code, default_json, _ = _run(capsys, args + ["--json"])
        assert code == 0
        assert json.loads(default_json)["q_list"] == [4, 2, 1]
        assert default_json == _run(capsys, args + ["--q-list", "4,2,1", "--json"])[1]
        assert _run(capsys, args)[1] == _run(capsys, args + ["--q-list", "4,2,1"])[1]

    @pytest.mark.parametrize("n_stages, grid", [(1, [1]), (5, [5, 4, 2, 1]), (32, [32, 16, 8, 4, 2, 1])])
    def test_default_grid_of_any_stage_count(self, one_second_wav, tmp_path, capsys, n_stages, grid):
        # A hand-built D = 2, K = 2 model with n_stages one-entry-pair stages.
        basis = np.zeros((2, N_MELS))
        basis[0, 0] = basis[1, 1] = 1.0
        frontend = FrontendModel(np.zeros(N_MELS), basis, np.full(N_MELS, 1.0 / N_MELS), 3)
        stage = Codebook(np.array([[1.0], [-1.0]]), np.array([[1.0, 0.0]]), np.array([[0.5], [0.0]]))
        config = RvqConfig(n_stages=n_stages, codebook_size=2, code_dim=1, latent_dim=2, seed=3)
        rvq = RvqModel(config, (stage,) * n_stages, training_stats=np.full(n_stages, 0.25))
        container.save(ModelContainer(frontend, rvq, {}), tmp_path / "m.rvqm")
        manifest = tmp_path / "one.jsonl"
        manifest.write_text(json.dumps({"path": str(one_second_wav), "category": "HQ1", "duration": 1.0,
                                        "sample_rate": 24000}))
        code, out, err = _run(capsys, ["eval", "--model", str(tmp_path / "m.rvqm"), "--test", f"one={manifest}",
                                       "--gl-iterations", "1", "--json"])
        assert code == 0, err
        assert json.loads(out)["q_list"] == grid

    def test_test_without_name_exit_2(self, toy_model, toy_corpus, capsys):
        model_path, _, _ = toy_model
        code, _, err = _run(capsys, ["eval", "--model", str(model_path), "--test", str(toy_corpus)])
        assert code == 2
        assert err.startswith("error: InvalidInput:") and "NAME=MANIFEST" in err
        assert "Traceback" not in err

    def test_json_with_out_prints_only_json(self, toy_model, toy_corpus, tmp_path, capsys):
        model_path, _, _ = toy_model
        report_path = tmp_path / "report.csv"
        args = ["eval", "--model", str(model_path), "--test", f"toy={toy_corpus}", "--q-list", "1",
                "--gl-iterations", "1", "--format", "csv", "--out", str(report_path)]
        code, out, _ = _run(capsys, args + ["--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["q_list"] == [1]
        report = report_path.read_text(encoding="utf-8")
        assert report.startswith("test_set,metric,system,q=1\n")
        assert f"toy,mel,rvq,{payload['rows']['toy|mel|rvq']['1']:.6g}\n" in report

        code, out, _ = _run(capsys, args)
        assert code == 0
        assert out == f"wrote {report_path}\n"

    def test_repeated_test_name_exit_2(self, toy_model, toy_corpus, capsys):
        model_path, _, _ = toy_model
        code, out, err = _run(capsys, ["eval", "--model", str(model_path), "--test", f"toy={toy_corpus}",
                                       "--test", f"toy={toy_corpus}", "--q-list", "1"])
        assert code == 2
        assert out == ""
        assert err.startswith("error: InvalidInput:") and "'toy'" in err


class TestMushra:
    def test_summary_and_significance(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        lines = ["subject,stimulus,system,score"]
        for subj in range(8):
            for stim in range(4):
                lines.append(f"s{subj},st{stim},reference,{int(rng.integers(95, 101))}")
                lines.append(f"s{subj},st{stim},codec_hi,{int(rng.integers(88, 101))}")
                lines.append(f"s{subj},st{stim},codec_lo,{int(rng.integers(30, 61))}")
        path = tmp_path / "scores.csv"
        path.write_text("\n".join(lines))

        code, text, _ = _run(capsys, ["mushra", str(path), "--alpha", "0.05"])
        assert code == 0
        assert "codec_hi" in text and "codec_lo" in text and "reference" in text

        code, out_json, _ = _run(capsys, ["mushra", str(path), "--json"])
        payload = json.loads(out_json)
        sig = {r["system"]: r for r in payload["significance"]}
        assert set(sig) == {"codec_hi", "codec_lo"}
        assert sig["codec_lo"]["significant"] is True
        assert sig["codec_lo"]["p_value"] < 1e-5
        assert all(r["alpha"] == 0.05 for r in sig.values())
        assert all(
            set(s) == {"system", "mean", "ci_low", "ci_high", "n"} for s in payload["summaries"]
        )
        assert all(
            set(r) == {"system", "p_value", "significant", "alpha", "method"} for r in sig.values()
        )

    def test_missing_reference_label(self, tmp_path, capsys):
        path = tmp_path / "scores.csv"
        path.write_text("s1,st1,codec,80\ns2,st1,codec,82\n")
        code, _, err = _run(capsys, ["mushra", str(path), "--reference", "reference"])
        assert code == 2
        assert err.startswith("error: InvalidInput:") and "reference" in err

    def test_alpha_flag_on_borderline_p(self, tmp_path, capsys):
        # Construct groups whose exact p lands above 0.05: not significant.
        lines = ["subject,stimulus,system,score"]
        for i, v in enumerate((60, 70, 80)):
            lines.append(f"s{i},st,codec,{v}")
        for i, v in enumerate((75, 85, 95)):
            lines.append(f"s{i},st,reference,{v}")
        path = tmp_path / "borderline.csv"
        path.write_text("\n".join(lines))
        code, out_json, _ = _run(capsys, ["mushra", str(path), "--json"])
        payload = json.loads(out_json)
        (result,) = payload["significance"]
        assert result["p_value"] > 0.05
        assert result["significant"] is False

    def test_non_utf8_scores_exit_2(self, tmp_path, capsys):
        path = tmp_path / "scores.csv"
        path.write_bytes(b"\xff\xfe\x00")
        code, out, err = _run(capsys, ["mushra", str(path)])
        assert code == 2
        assert out == ""
        assert err.startswith("error: InvalidInput:")

    @pytest.mark.parametrize("scores", [
        "s1,st,reference,90\ns2,st,reference,95\ns1,st,codec,80\ns2,st,codec,60\n",
        "s1,st,reference,90\ns2,st,reference,95\n",
    ], ids=["with-codec", "reference-only"])
    @pytest.mark.parametrize("alpha", ["2", "0", "1", "-1", "nan"])
    def test_alpha_outside_open_unit_interval_exit_2(self, tmp_path, capsys, alpha, scores):
        path = tmp_path / "scores.csv"
        path.write_text(scores)
        code, out, err = _run(capsys, ["mushra", str(path), "--alpha", alpha])
        assert code == 2
        assert out == ""
        assert err.startswith("error: InvalidInput: alpha must be ")

    @pytest.mark.parametrize("alpha", [[], ["--alpha", "2"]], ids=["default-alpha", "alpha-2"])
    def test_missing_scores_reported_before_alpha(self, tmp_path, capsys, alpha):
        path = tmp_path / "none.csv"
        assert _run(capsys, ["mushra", str(path), *alpha]) == (2, "", f"error: MissingFile: missing file: {path}\n")


class TestMushraBytes:
    """rvqlab mushra's output, byte for byte, on one five-system score file.
    anchor's 6 scores take the exact rank-sum path, the 12-score systems the
    normal approximation."""

    SCORES = {
        "reference": [100, 98, 100, 95, 99, 100, 97, 100, 96, 100, 99, 98],
        "codec_q8": [97, 99, 92, 100, 94, 96, 98, 91, 100, 95, 97, 93],
        "codec_q2": [71, 64, 80, 77, 69, 73, 80, 66, 75, 70, 62, 78],
        "codec_q1": [45, 52, 38, 60, 41, 49, 55, 43, 47, 58, 36, 50],
        "anchor": [20, 25, 18, 30, 22, 27],
    }
    MARKDOWN = (
        "| system    | mean    | ci_low  | ci_high | n  | p_vs_reference | significant | method        |\n"
        "|-----------|---------|---------|---------|----|----------------|-------------|---------------|\n"
        "| anchor    | 23.6667 | 18.9423 | 28.3911 | 6  | 0.000107735    | yes         | exact         |\n"
        "| codec_q1  | 47.8333 | 42.9806 | 52.686  | 12 | 3.3548e-05     | yes         | normal-approx |\n"
        "| codec_q2  | 72.0833 | 68.1905 | 75.9761 | 12 | 3.34148e-05    | yes         | normal-approx |\n"
        "| codec_q8  | 96      | 94.0652 | 97.9348 | 12 | 0.0373869      | yes         | normal-approx |\n"
        "| reference | 98.5    | 97.3995 | 99.6005 | 12 | —              | —           | —             |\n"
    )
    CSV = (
        "system,mean,ci_low,ci_high,n,p_vs_reference,significant,method\n"
        "anchor,23.6667,18.9423,28.3911,6,0.000107735,yes,exact\n"
        "codec_q1,47.8333,42.9806,52.686,12,3.3548e-05,yes,normal-approx\n"
        "codec_q2,72.0833,68.1905,75.9761,12,3.34148e-05,yes,normal-approx\n"
        "codec_q8,96,94.0652,97.9348,12,0.0373869,yes,normal-approx\n"
        "reference,98.5,97.3995,99.6005,12,—,—,—\n"
    )
    P_VALUES = {"anchor": ("exact", 0.00010773540185304891), "codec_q1": ("normal-approx", 3.354801910093741e-05),
                "codec_q2": ("normal-approx", 3.341484949759277e-05),
                "codec_q8": ("normal-approx", 0.03738693837724383)}
    SUMMARIES = [
        {"ci_high": 28.391070045819806, "ci_low": 18.94226328751353, "mean": 23.666666666666668, "n": 6,
         "system": "anchor"},
        {"ci_high": 52.686049477455136, "ci_low": 42.980617189211536, "mean": 47.833333333333336, "n": 12,
         "system": "codec_q1"},
        {"ci_high": 75.97612673240027, "ci_low": 68.19053993426638, "mean": 72.08333333333333, "n": 12,
         "system": "codec_q2"},
        {"ci_high": 97.93477396464668, "ci_low": 94.06522603535332, "mean": 96.0, "n": 12, "system": "codec_q8"},
        {"ci_high": 99.60049258004582, "ci_low": 97.39950741995418, "mean": 98.5, "n": 12, "system": "reference"},
    ]

    @pytest.fixture
    def scores(self, tmp_path):
        lines = ["subject,stimulus,system,score"]
        for system, values in self.SCORES.items():
            lines += [f"s{i // 2 + 1},st{i % 2 + 1},{system},{v}" for i, v in enumerate(values)]
        path = tmp_path / "scores.csv"
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    @pytest.mark.parametrize("flags, expected", [([], MARKDOWN), (["--format", "csv"], CSV)], ids=["markdown", "csv"])
    def test_table_bytes(self, capsys, scores, flags, expected):
        assert _run(capsys, ["mushra", scores, *flags]) == (0, expected, "")

    @pytest.mark.parametrize("flags, alpha", [([], 0.05), (["--alpha", "0.01"], 0.01)], ids=["default", "alpha-0.01"])
    def test_json_bytes(self, capsys, scores, flags, alpha):
        significance = [{"alpha": alpha, "method": method, "p_value": p, "significant": p < alpha, "system": system}
                        for system, (method, p) in self.P_VALUES.items()]
        expected = json.dumps({"significance": significance, "summaries": self.SUMMARIES}, sort_keys=True) + "\n"
        assert _run(capsys, ["mushra", scores, "--json", *flags]) == (0, expected, "")

    @pytest.mark.parametrize("flags, err", [
        (["--reference", "nope"], "error: InvalidInput: reference system 'nope' not present in "
                                  "['anchor', 'codec_q1', 'codec_q2', 'codec_q8', 'reference']\n"),
        (["--alpha", "2"], "error: InvalidInput: alpha must be in the open interval (0, 1), got 2.0\n"),
    ], ids=["absent-reference", "alpha-2"])
    def test_error_bytes(self, capsys, scores, flags, err):
        assert _run(capsys, ["mushra", scores, *flags]) == (2, "", err)


def test_main_builds_its_parser_once(toy_corpus, monkeypatch, capsys):
    parsers = []
    parse_args = argparse.ArgumentParser.parse_args

    def spy(self, *args, **kwargs):
        parsers.append(self)
        return parse_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", spy)
    assert _run(capsys, ["validate", str(toy_corpus)])[0] == 0
    assert _run(capsys, ["validate", str(toy_corpus), "--json"])[0] == 0
    assert len(parsers) == 2 and parsers[0] is parsers[1]


def test_module_entrypoint_smoke(toy_corpus):
    # The child imports the rvqlab package this process imported, also when
    # only pytest's own pythonpath setting put src/ on sys.path.
    package_root = os.path.dirname(os.path.dirname(rvqlab.__file__))
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "rvqlab.cli", "validate", str(toy_corpus)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "12 files" in proc.stdout
