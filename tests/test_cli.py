import json
import subprocess
import sys

import numpy as np
import pytest

from rvqlab import bitstream, container
from rvqlab.cli import main
from rvqlab.datapipe import load_manifest
from rvqlab.dsp import AudioBuffer
from rvqlab.evalstats import run_evaluation
from rvqlab.metrics import mel_loss, stft_loss, stoi
from rvqlab.rvq import TokenStream
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

    def test_json_matches_text_numbers(self, toy_corpus, capsys):
        _, out_text, _ = _run(capsys, ["validate", str(toy_corpus)])
        code, out_json, _ = _run(capsys, ["validate", str(toy_corpus), "--json"])
        assert code == 0
        payload = json.loads(out_json)
        assert payload["total_files"] == 12
        assert "12 files" in out_text


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

    def test_missing_manifest(self, tmp_path, capsys):
        code, _, err = _run(
            capsys,
            ["train", "--manifest", "/no/file.jsonl", "--out", str(tmp_path / "m.rvqm")],
        )
        assert code == 2
        assert "/no/file.jsonl" in err


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
        path.write_bytes(bitstream.pack(alien, 24000))
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

    @pytest.mark.parametrize("sample_rate, frame_rate", [(16000, 50), (16000, 75), (24000, 50)])
    def test_stream_rates_must_match_model(
        self, toy_model, one_second_wav, tmp_path, capsys, sample_rate, frame_rate
    ):
        model_path, _, _ = toy_model
        stream = tmp_path / "s.rvqs"
        _run(capsys, ["encode", "--model", str(model_path), str(one_second_wav), "-q", "2", str(stream)])
        _, tokens = bitstream.unpack(stream.read_bytes())
        forged = TokenStream(tokens.frames, tokens.codebook_size, frame_rate=frame_rate)
        stream.write_bytes(bitstream.pack(forged, sample_rate))
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
        assert "reference" in err

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


def test_module_entrypoint_smoke(toy_corpus):
    proc = subprocess.run(
        [sys.executable, "-m", "rvqlab.cli", "validate", str(toy_corpus)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "12 files" in proc.stdout
