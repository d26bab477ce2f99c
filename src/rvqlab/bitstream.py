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

import struct

import numpy as np

from .errors import (
    CorruptPadding,
    InvalidInput,
    NotABitstream,
    SampleRateMismatch,
    Truncated,
    check_int,
)
from .frontend import FRAME_RATE, SAMPLE_RATE
from .rvq import TokenStream

MAGIC = b"RVQS"
VERSION = 1
_HEADER_FMT = "<4sHIHHBI"
HEADER_SIZE = struct.calcsize(_HEADER_FMT)  # 19 bytes


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

    Raises InvalidInput for a q that the header's u8 q field cannot hold.
    TokenStream bounds K to the u16 K field and every (read-only) index to K.
    """
    k = tokens.codebook_size
    if tokens.n_stages > 0xFF:
        raise InvalidInput(f"the stream header holds q <= 255, got q={tokens.n_stages}")
    bits = k.bit_length() - 1  # log2(K): TokenStream holds a power of two
    head = struct.pack(
        _HEADER_FMT, MAGIC, VERSION, SAMPLE_RATE, FRAME_RATE, k, tokens.n_stages, tokens.n_frames
    )
    return head + _pack_codes(tokens.frames.ravel(), bits)


def unpack(data: bytes) -> TokenStream:
    """Parse a stream; inverse of :func:`pack`.

    Raises:
        InvalidInput: data is not bytes.
        NotABitstream: bad magic, version, K or q.
        SampleRateMismatch: rates other than 24000 Hz and 75 frames/s.
        Truncated: a length other than the header implies.
        CorruptPadding: nonzero padding bits.
    """
    if not isinstance(data, (bytes, bytearray)):
        raise InvalidInput(f"a stream is bytes, got {type(data).__name__}")
    if len(data) < HEADER_SIZE:
        if len(data) < 4 or data[:4] != MAGIC:
            raise NotABitstream("too short to hold a stream header")
        raise Truncated(HEADER_SIZE, len(data))
    magic, version, sample_rate, frame_rate, k, q, t = struct.unpack_from(_HEADER_FMT, data)
    if magic != MAGIC:
        raise NotABitstream(f"bad magic {magic!r}")
    if version != VERSION:
        raise NotABitstream(f"unsupported stream version {version}")
    if k < 2 or k & (k - 1) or q < 1:
        raise NotABitstream(f"header K={k} must be a power of two >= 2 and q={q} >= 1")
    bits = k.bit_length() - 1
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
    n_stages = check_int("n_stages", n_stages, 1, tokens.n_stages)
    return pack(TokenStream(tokens.frames[:, :n_stages], tokens.codebook_size))
