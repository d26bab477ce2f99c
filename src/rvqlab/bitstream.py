"""Bit-exact serialized token streams (`.rvqs`).

Header (little-endian, 19 bytes):

    magic[4] = "RVQS", version u16, sample_rate u32, frame_rate u16,
    K u16, q u8, T u32

The codec runs at one geometry, so sample_rate and frame_rate are always
24000 and 75: :func:`pack` writes them and :func:`unpack` rejects any other
pair as SampleRateMismatch.

Payload: one code per (frame, stage), frame-major then stage-major, each
log2(K) bits wide, LSB-first within the bit buffer, zero-padded to a byte
boundary.  A q' <= q prefix of every stream is itself a valid stream.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .errors import (
    CorruptPadding,
    InvalidInput,
    NotABitstream,
    SampleRateMismatch,
    Truncated,
)
from .frontend import FRAME_RATE, SAMPLE_RATE
from .rvq import TokenStream

MAGIC = b"RVQS"
VERSION = 1
_HEADER_FMT = "<4sHIHHBI"
HEADER_SIZE = struct.calcsize(_HEADER_FMT)  # 19 bytes


def _bits_per_code(k: int, q: int) -> int:
    """log2(K) of a stream with K entries per codebook and q stages."""
    if k < 2 or k & (k - 1):
        raise NotABitstream(f"header K={k} is not a power of two")
    if q < 1:
        raise NotABitstream(f"header q={q} must be >= 1")
    return int(math.log2(k))


def _pack_codes(codes: np.ndarray, bits: int) -> bytes:
    """Pack flat codes LSB-first into bytes, zero-padded to a boundary."""
    if codes.size == 0:
        return b""
    bit_matrix = (codes[:, None].astype(np.uint32) >> np.arange(bits)) & 1
    return np.packbits(bit_matrix.astype(np.uint8).ravel(), bitorder="little").tobytes()


def _unpack_codes(payload: bytes, bits: int, count: int) -> np.ndarray:
    bit_array = np.unpackbits(np.frombuffer(payload, dtype=np.uint8), bitorder="little")
    used = count * bits
    if np.any(bit_array[used:] != 0):
        raise CorruptPadding("padding bits after the payload are not zero")
    code_bits = bit_array[:used].reshape(count, bits).astype(np.uint32)
    return (code_bits << np.arange(bits, dtype=np.uint32)).sum(axis=1)


def pack(tokens: TokenStream) -> bytes:
    """Serialize a token stream; size = 19 + ceil(T*q*log2(K)/8) bytes.

    Raises InvalidInput for a K or q that the header's u16 K and u8 q fields
    cannot hold, or for a token index >= K.
    """
    k = tokens.codebook_size
    if k > 0xFFFF or tokens.n_stages > 0xFF:
        raise InvalidInput(f"the stream header holds K <= 65535 and q <= 255, got K={k}, q={tokens.n_stages}")
    if tokens.frames.size and int(tokens.frames.max()) >= k:
        raise InvalidInput(f"token index {int(tokens.frames.max())} overflows K={k}")
    bits = _bits_per_code(k, tokens.n_stages)
    head = struct.pack(
        _HEADER_FMT, MAGIC, VERSION, SAMPLE_RATE, FRAME_RATE, k, tokens.n_stages, tokens.n_frames
    )
    return head + _pack_codes(tokens.frames.ravel(), bits)


def unpack(data: bytes) -> TokenStream:
    """Parse a stream; inverse of :func:`pack`.

    Raises:
        NotABitstream: bad magic, version, K or q.
        SampleRateMismatch: rates other than 24000 Hz and 75 frames/s.
        Truncated: a length other than the header implies.
        CorruptPadding: nonzero padding bits.
    """
    if len(data) < HEADER_SIZE:
        if len(data) < 4 or data[:4] != MAGIC:
            raise NotABitstream("too short to hold a stream header")
        raise Truncated(HEADER_SIZE, len(data))
    magic, version, sample_rate, frame_rate, k, q, t = struct.unpack_from(_HEADER_FMT, data)
    if magic != MAGIC:
        raise NotABitstream(f"bad magic {magic!r}")
    if version != VERSION:
        raise NotABitstream(f"unsupported stream version {version}")
    bits = _bits_per_code(k, q)
    if (sample_rate, frame_rate) != (SAMPLE_RATE, FRAME_RATE):
        raise SampleRateMismatch(
            f"stream is {sample_rate} Hz at {frame_rate} frames/s, "
            f"the codec expects {SAMPLE_RATE} Hz at {FRAME_RATE} frames/s"
        )
    size = HEADER_SIZE + (t * q * bits + 7) // 8
    if len(data) != size:
        raise Truncated(size, len(data))
    codes = _unpack_codes(data[HEADER_SIZE:], bits, t * q)
    return TokenStream(codes.reshape(t, q), codebook_size=k)


def prefix(data: bytes, n_stages: int) -> bytes:
    """Re-pack a stream keeping only the first n_stages codes per frame."""
    tokens = unpack(data)
    if not 1 <= n_stages <= tokens.n_stages:
        raise InvalidInput(
            f"prefix stages must be in [1, {tokens.n_stages}], got {n_stages}"
        )
    return pack(TokenStream(tokens.frames[:, :n_stages], tokens.codebook_size))
