import os
import stat

import numpy as np
import pytest

from rvqlab.dsp import AudioBuffer
from rvqlab.errors import (
    ExternalToolError,
    InsufficientDuration,
    InvalidConfig,
    InvalidInput,
    SampleRateMismatch,
)
from rvqlab.metrics import (
    LOSS_FLOOR,
    LOSS_SCALES,
    _loss_reference,
    _losses_against,
    _stoi_against,
    _stoi_reference,
    mel_loss,
    pesq_adapter,
    stft_loss,
    stoi,
)

from signals import degraded_pair, speech_like
from stoi_reference import reference_stoi


def _buf(x, sr=24000):
    return AudioBuffer(np.asarray(x, dtype=np.float64), sr)


def _band_sums(bank, mags):
    """(T, bands): per frame, each band's products over its nonzero bins,
    added in ascending bin order from zero."""
    out = np.zeros((len(mags), len(bank)))
    for m, weights in enumerate(bank):
        for j in np.flatnonzero(weights):
            out[:, m] += weights[j] * mags[:, j]
    return out


class TestMelLoss:
    def test_identity_is_zero(self):
        x = _buf(speech_like(0.7, 24000, 1))
        assert mel_loss(x, x).value == 0.0

    def test_double_amplitude_analytic(self):
        # Loud broadband noise keeps every mel band above the floor for both
        # signals, so doubling shifts each log-mel cell by exactly ln 2 and
        # the loss is S * ln 2 for S scales.
        rng = np.random.default_rng(2)
        x = 0.4 * rng.standard_normal(24000)
        loss = mel_loss(_buf(x), _buf(2.0 * x)).value
        assert loss == pytest.approx(len(LOSS_SCALES) * np.log(2.0), abs=1e-6)

    def test_compositional_oracle(self):
        # Recompute from the dsp primitives, scale by scale, including the
        # declared window-gain normalization of the magnitudes.  The oracle
        # does the loss's own arithmetic in its order, so the bits match:
        # each mel band sums its nonzero bins in ascending order.
        from rvqlab.dsp import StftConfig, mel_filterbank, stft

        rng = np.random.default_rng(3)
        x = 0.3 * rng.standard_normal(12000)
        for sr in (16000, 24000):
            ref, test = _buf(x, sr), _buf(np.zeros(12000), sr)
            expected = 0.0
            for fft_size, hop, n_mels in LOSS_SCALES:
                fb = mel_filterbank(sr, fft_size, n_mels)
                a = np.abs(stft(ref, StftConfig(fft_size, hop)).frames) / (fft_size / 2)
                b = np.abs(stft(test, StftConfig(fft_size, hop)).frames) / (fft_size / 2)
                la = np.log(np.maximum(_band_sums(fb, a), LOSS_FLOOR))
                lb = np.log(np.maximum(_band_sums(fb, b), LOSS_FLOOR))
                expected += float(np.mean(np.abs(la - lb)))
            got = mel_loss(ref, test).value
            assert got == expected, sr
            assert got > 1.0

    @pytest.mark.parametrize("sr", [44100, 48000])
    def test_high_rate_raises_while_stft_loss_scores(self, sr):
        # From 27204 Hz up a loss-scale filterbank has an empty row: mel_loss
        # refuses such signals, and stft_loss, which needs no bank, scores them.
        a = _buf(speech_like(0.5, sr, 8), sr)
        b = _buf(speech_like(0.5, sr, 9), sr)
        with pytest.raises(InvalidConfig, match="empty rows"):
            mel_loss(a, b)
        assert 0 < stft_loss(a, b).value < np.inf

    def test_symmetric_and_nonnegative(self):
        a = _buf(speech_like(0.5, 24000, 4))
        b = _buf(speech_like(0.5, 24000, 5))
        assert mel_loss(a, b).value == pytest.approx(mel_loss(b, a).value, abs=1e-12)
        assert mel_loss(a, b).value > 0

    def test_empty_signals(self):
        with pytest.raises(InvalidInput, match="empty"):
            mel_loss(_buf(np.zeros(0)), _buf(np.zeros(100)))

    def test_rate_mismatch(self):
        with pytest.raises(SampleRateMismatch):
            mel_loss(_buf(np.zeros(100), 24000), _buf(np.zeros(100), 16000))


class TestStftLoss:
    def test_identity_is_zero(self):
        x = _buf(speech_like(0.5, 24000, 6))
        assert stft_loss(x, x).value == 0.0

    def test_phase_blind(self):
        # 90-degree phase shift leaves magnitudes nearly unchanged.  A short
        # fade at both ends keeps the reflect-padding boundary frames from
        # seeing the (phase-dependent) edge discontinuity.
        t = np.arange(24000) / 24000
        fade = np.ones(24000)
        ramp = np.linspace(0.0, 1.0, 2048)
        fade[:2048] = ramp
        fade[-2048:] = ramp[::-1]
        a = _buf(0.5 * np.sin(2 * np.pi * 750.0 * t) * fade)
        b = _buf(0.5 * np.cos(2 * np.pi * 750.0 * t) * fade)
        assert stft_loss(a, b).value < 1e-3

    def test_compositional_oracle(self):
        # Gain-normalize, then take the mean L1 distance, scale by scale in
        # LOSS_SCALES order: the loss's own arithmetic, so the bits match.
        # Above 27204 Hz, where mel_loss refuses, stft_loss still scores.
        from rvqlab.dsp import StftConfig, stft

        rng = np.random.default_rng(7)
        x, y = 0.2 * rng.standard_normal((2, 9600))
        for sr in (16000, 24000, 44100, 48000):
            ref, test = _buf(x, sr), _buf(y, sr)
            expected = 0.0
            for f, h, _ in LOSS_SCALES:
                a = np.abs(stft(ref, StftConfig(f, h)).frames) / (f / 2)
                b = np.abs(stft(test, StftConfig(f, h)).frames) / (f / 2)
                expected += float(np.mean(np.abs(a - b)))
            assert stft_loss(ref, test).value == expected, sr


class TestStoi:
    def test_identity_near_one(self):
        for seed in range(5):
            x = _buf(speech_like(1.0, 24000, seed))
            assert stoi(x, x).value >= 0.999

    def test_noise_vs_speech_low(self):
        rng = np.random.default_rng(11)
        ref = speech_like(1.5, 10000, 12)
        noise = 0.25 * rng.standard_normal(len(ref))
        score = stoi(_buf(ref, 10000), _buf(noise, 10000)).value
        assert score < 0.2

    def test_matches_reference_oracle_at_10k(self):
        # Same-rate pairs bypass both resamplers: agreement should be tight.
        for seed, kind in enumerate(["noise_low", "noise_high", "lowpass", "clip"]):
            ref, test = degraded_pair(1.2, 10000, 40 + seed, kind)
            mine = stoi(_buf(ref, 10000), _buf(test, 10000)).value
            oracle = reference_stoi(ref, test, 10000)
            assert mine == pytest.approx(oracle, abs=1e-6)

    def test_matches_reference_oracle_20_degraded_pairs(self):
        kinds = ["noise_high", "noise_low", "lowpass", "clip", "coarse"]
        rates = [10000, 16000, 24000, 24000]
        count = 0
        for i in range(20):
            kind = kinds[i % len(kinds)]
            sr = rates[i % len(rates)]
            ref, test = degraded_pair(1.0, sr, 1000 + i, kind)
            mine = stoi(_buf(ref, sr), _buf(test, sr)).value
            oracle = reference_stoi(ref, test, sr)
            assert abs(mine - oracle) <= 0.02, (i, kind, sr, mine, oracle)
            count += 1
        assert count == 20

    def test_gain_invariance(self):
        ref, test = degraded_pair(1.0, 24000, 77, "noise_low")
        base = stoi(_buf(ref), _buf(test)).value
        for g in (0.5, 2.0):
            assert abs(stoi(_buf(ref), _buf(g * test)).value - base) < 0.01

    def test_too_short(self):
        with pytest.raises(InsufficientDuration):
            stoi(_buf(np.ones(2000) * 0.1), _buf(np.ones(2000) * 0.1))

    def test_shorter_than_one_frame(self):
        # 500 samples at 24 kHz resample to 208 at 10 kHz, under one 256-sample frame.
        x = _buf(speech_like(500 / 24000, 24000, 9))
        with pytest.raises(InsufficientDuration):
            stoi(x, x)


class TestReferenceHalves:
    """Eval builds each reference half once per file, from the reference cut
    to its decodes' length, and scores every decode against it: the public
    metrics must read the same, bit for bit."""

    @pytest.mark.parametrize(
        "test_len", [36700, 35300, 36000], ids=["test-longer", "test-shorter", "same-length"]
    )
    def test_public_metrics_equal_one_reference_scored_twice(self, test_len):
        ref = speech_like(1.5, 24000, 5)  # 36000 samples
        reference = _buf(ref[: min(len(ref), test_len)])
        losses, stoi_half = _loss_reference(reference), _stoi_reference(reference)
        rng = np.random.default_rng(6)
        for noise in (0.05, 0.2):
            test = _buf(np.resize(ref, test_len) + noise * rng.standard_normal(test_len))
            mel, lin = _losses_against(losses, test)
            assert mel == mel_loss(_buf(ref), test).value
            assert lin == stft_loss(_buf(ref), test).value
            assert _stoi_against(stoi_half, test).value == stoi(_buf(ref), test).value


class TestPesqAdapter:
    def test_unconfigured_returns_none(self, monkeypatch):
        monkeypatch.delenv("RVQLAB_PESQ_TOOL", raising=False)
        x = _buf(speech_like(0.5, 24000, 1))
        assert pesq_adapter(x, x) is None

    def _fake_tool(self, tmp_path, body):
        tool = tmp_path / "fake_pesq.sh"
        tool.write_text("#!/bin/sh\n" + body + "\n")
        tool.chmod(tool.stat().st_mode | stat.S_IEXEC)
        return str(tool)

    def test_conformant_tool_parsed(self, tmp_path):
        tool = self._fake_tool(tmp_path, 'echo "MOS-LQO = 4.37"')
        x = _buf(speech_like(0.5, 24000, 2))
        value = pesq_adapter(x, x, tool_path=tool)
        assert value.value == pytest.approx(4.37)
        assert value.higher_is_better

    def test_garbage_output(self, tmp_path):
        tool = self._fake_tool(tmp_path, 'echo "no score here"')
        x = _buf(speech_like(0.5, 24000, 3))
        with pytest.raises(ExternalToolError):
            pesq_adapter(x, x, tool_path=tool)

    def test_nonzero_exit(self, tmp_path):
        tool = self._fake_tool(tmp_path, "exit 3")
        x = _buf(speech_like(0.5, 24000, 4))
        with pytest.raises(ExternalToolError):
            pesq_adapter(x, x, tool_path=tool)

    def test_missing_tool(self, tmp_path):
        x = _buf(speech_like(0.5, 24000, 6))
        with pytest.raises(ExternalToolError, match="failed to run"):
            pesq_adapter(x, x, tool_path=str(tmp_path / "no_such_pesq"))

    def test_out_of_range_score(self, tmp_path):
        tool = self._fake_tool(tmp_path, 'echo "9.99"')
        x = _buf(speech_like(0.5, 24000, 5))
        with pytest.raises(ExternalToolError):
            pesq_adapter(x, x, tool_path=tool)

