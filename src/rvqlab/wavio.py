"""Minimal mono WAV reader/writer: PCM 16-bit and IEEE float-32.

Multichannel files are rejected rather than silently downmixed.
"""

from __future__ import annotations

import os
import struct
from typing import NamedTuple

import numpy as np

from .dsp import AudioBuffer
from .errors import WavError, check_int, check_path

_FMT_PCM = 1
_FMT_FLOAT = 3


class _Layout(NamedTuple):  # where a WAV file's samples are, from its chunk headers
    sample_rate: int
    dtype: str  # "<i2" (PCM16) or "<f4" (float32)
    offset: int  # file position of the first sample
    n_samples: int


def _layout(fh, path) -> _Layout:
    """Walk the chunk headers of an open WAV file, seeking over each body."""
    size = os.fstat(fh.fileno()).st_size
    riff = fh.read(12)
    if len(riff) < 12 or riff[:4] != b"RIFF" or riff[8:12] != b"WAVE":
        raise WavError(f"{path}: not a RIFF/WAVE file")

    fmt = payload = None  # payload: (offset, length) of the data chunk
    pos = 12
    while pos + 8 <= size:
        fh.seek(pos)
        chunk_id, chunk_len = struct.unpack("<4sI", fh.read(8))
        if pos + 8 + chunk_len > size:
            raise WavError(f"{path}: {chunk_id!r} chunk declares {chunk_len} bytes, only {size - pos - 8} remain")
        if chunk_id == b"fmt " and chunk_len >= 16:
            fmt = struct.unpack("<HHIIHH", fh.read(16))
        elif chunk_id == b"data":
            payload = pos + 8, chunk_len
        pos += 8 + chunk_len + (chunk_len & 1)
    if fmt is None or payload is None:
        raise WavError(f"{path}: missing fmt or data chunk")

    audio_format, channels, sample_rate, _, _, bits = fmt
    if channels != 1:
        raise WavError(f"{path}: {channels}-channel audio is not supported, expected mono")
    dtype = {(_FMT_PCM, 16): "<i2", (_FMT_FLOAT, 32): "<f4"}.get((audio_format, bits))
    if dtype is None:
        raise WavError(f"{path}: unsupported format (code {audio_format}, {bits}-bit); "
                       "only PCM16 and float32 are handled")
    offset, length = payload
    if length % (bits // 8):
        raise WavError(f"{path}: data chunk of {length} bytes is not a whole number of {bits}-bit samples")
    return _Layout(sample_rate, dtype, offset, length // (bits // 8))


def _read_layout(path) -> _Layout:
    """The _Layout of the WAV file at path; reads only its chunk headers."""
    with open(check_path(path), "rb") as fh:
        return _layout(fh, path)


def _read_window(path, start: int = 0, count: int | None = None) -> AudioBuffer:
    """Samples start to start + count (default: to the end) of the WAV file
    at path; reads only its chunk headers and those samples."""
    with open(check_path(path), "rb") as fh:
        layout = _layout(fh, path)
        count = layout.n_samples - start if count is None else count
        if not 0 <= start <= start + count <= layout.n_samples:  # the file changed since its layout was read
            raise WavError(f"{path}: samples {start} to {start + count} lie outside its {layout.n_samples}")
        width = np.dtype(layout.dtype).itemsize
        fh.seek(layout.offset + start * width)
        samples = np.frombuffer(fh.read(count * width), dtype=layout.dtype).astype(np.float64)
    if layout.dtype == "<i2":
        samples *= 1.0 / 32768.0
    return AudioBuffer(samples, layout.sample_rate)


def read_wav(path) -> AudioBuffer:
    """Read a mono PCM16 or float32 WAV file (its chunk headers and samples) into an AudioBuffer."""
    return _read_window(path)


def write_wav(path, audio: AudioBuffer, encoding: str = "float32") -> None:
    """Write an AudioBuffer as a mono WAV file.

    encoding: "float32" (IEEE float, lossless for our pipelines) or
    "pcm16" (clipped to [-1, 1] and rounded).
    """
    if not isinstance(encoding, str) or encoding not in ("float32", "pcm16"):
        raise WavError(f"unknown encoding {encoding!r}")
    if encoding == "float32":
        payload = audio.samples.astype("<f4").tobytes()
        audio_format, bits = _FMT_FLOAT, 32
    else:
        clipped = np.clip(audio.samples, -1.0, 1.0)
        payload = (np.round(clipped * 32767.0)).astype("<i2").tobytes()
        audio_format, bits = _FMT_PCM, 16

    block_align = bits // 8
    # the rate and the byte rate (rate * block_align) are u32 header fields
    rate = check_int("sample_rate", audio.sample_rate, 1, 0xFFFFFFFF // block_align, WavError)
    fmt_chunk = struct.pack("<HHIIHH", audio_format, 1, rate, rate * block_align, block_align, bits)
    riff_len = 4 + (8 + len(fmt_chunk)) + (8 + len(payload))
    with open(check_path(path), "wb") as fh:
        fh.write(b"RIFF" + struct.pack("<I", riff_len) + b"WAVE")
        fh.write(b"fmt " + struct.pack("<I", len(fmt_chunk)) + fmt_chunk)
        fh.write(b"data" + struct.pack("<I", len(payload)) + payload)
