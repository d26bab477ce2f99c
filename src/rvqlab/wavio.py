"""Minimal mono WAV reader/writer: PCM 16-bit and IEEE float-32.

Multichannel files are rejected rather than silently downmixed.
"""

from __future__ import annotations

import struct

import numpy as np

from .dsp import AudioBuffer
from .errors import WavError, check_int

_FMT_PCM = 1
_FMT_FLOAT = 3


def read_wav(path) -> AudioBuffer:
    """Read a mono PCM16 or float32 WAV file into an AudioBuffer."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 12 or data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise WavError(f"{path}: not a RIFF/WAVE file")

    fmt = None
    payload = None
    pos = 12
    while pos + 8 <= len(data):
        chunk_id = data[pos : pos + 4]
        (chunk_len,) = struct.unpack_from("<I", data, pos + 4)
        if pos + 8 + chunk_len > len(data):
            raise WavError(
                f"{path}: {chunk_id!r} chunk declares {chunk_len} bytes, "
                f"only {len(data) - pos - 8} remain"
            )
        body = data[pos + 8 : pos + 8 + chunk_len]
        if chunk_id == b"fmt " and len(body) >= 16:
            fmt = struct.unpack_from("<HHIIHH", body, 0)
        elif chunk_id == b"data":
            payload = body
        pos += 8 + chunk_len + (chunk_len & 1)
    if fmt is None or payload is None:
        raise WavError(f"{path}: missing fmt or data chunk")

    audio_format, channels, sample_rate, _, _, bits = fmt
    if channels != 1:
        raise WavError(
            f"{path}: {channels}-channel audio is not supported, expected mono"
        )
    if audio_format == _FMT_PCM and bits == 16:
        dtype, scale = "<i2", 1.0 / 32768.0
    elif audio_format == _FMT_FLOAT and bits == 32:
        dtype, scale = "<f4", 1.0
    else:
        raise WavError(
            f"{path}: unsupported format (code {audio_format}, {bits}-bit); "
            "only PCM16 and float32 are handled"
        )
    if len(payload) % (bits // 8):
        raise WavError(
            f"{path}: data chunk of {len(payload)} bytes is not a whole number "
            f"of {bits}-bit samples"
        )
    samples = np.frombuffer(payload, dtype=dtype).astype(np.float64) * scale
    return AudioBuffer(samples, sample_rate)


def write_wav(path, audio: AudioBuffer, encoding: str = "float32") -> None:
    """Write an AudioBuffer as a mono WAV file.

    encoding: "float32" (IEEE float, lossless for our pipelines) or
    "pcm16" (clipped to [-1, 1] and rounded).
    """
    if encoding == "float32":
        payload = audio.samples.astype("<f4").tobytes()
        audio_format, bits = _FMT_FLOAT, 32
    elif encoding == "pcm16":
        clipped = np.clip(audio.samples, -1.0, 1.0)
        payload = (np.round(clipped * 32767.0)).astype("<i2").tobytes()
        audio_format, bits = _FMT_PCM, 16
    else:
        raise WavError(f"unknown encoding {encoding!r}")

    block_align = bits // 8
    # the rate and the byte rate (rate * block_align) are u32 header fields
    rate = check_int("sample_rate", audio.sample_rate, 1, 0xFFFFFFFF // block_align, WavError)
    fmt_chunk = struct.pack("<HHIIHH", audio_format, 1, rate, rate * block_align, block_align, bits)
    riff_len = 4 + (8 + len(fmt_chunk)) + (8 + len(payload))
    with open(path, "wb") as fh:
        fh.write(b"RIFF" + struct.pack("<I", riff_len) + b"WAVE")
        fh.write(b"fmt " + struct.pack("<I", len(fmt_chunk)) + fmt_chunk)
        fh.write(b"data" + struct.pack("<I", len(payload)) + payload)
