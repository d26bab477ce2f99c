"""The codec pipeline over a ModelContainer, audio -> tokens -> audio.

CLI encode/decode and run_evaluation all run these functions, so the
evaluation grid scores exactly what `rvqlab encode`/`decode` emit.  The
`.rvqs` serialization, with its rate check, is left to rvqlab.bitstream.
"""

from __future__ import annotations

import numpy as np

from . import _workers
from .container import ModelContainer
from .dsp import AudioBuffer, resample
from .frontend import SAMPLE_RATE, decode_latent, encode_latent
from .rvq import TokenStream, dequantize, quantize


def encode(model: ModelContainer, audio: AudioBuffer, n_stages: int):
    """(24 kHz audio, latents, tokens); resamples only when the audio is at another rate.

    BLAS runs on the calling thread alone meanwhile (_workers.blas_on_caller),
    and the frame splits use the other CPUs."""
    with _workers.blas_on_caller():
        if audio.sample_rate != SAMPLE_RATE:
            audio = resample(audio, SAMPLE_RATE)
        latents = encode_latent(model.frontend, audio)
        return audio, latents, quantize(model.rvq, latents, n_stages)


def decode(model: ModelContainer, tokens: TokenStream, n_stages: int, gl_iterations: int, callback=None):
    """(latents, audio) from the first n_stages; the audio is rounded through
    float32, so it holds exactly the samples of the float32 WAV the CLI writes.
    callback(iteration, sc_error) sees each Griffin-Lim iteration."""
    latents = dequantize(model.rvq, tokens, n_stages)
    audio = decode_latent(model.frontend, latents, gl_iterations, callback)
    return latents, AudioBuffer(audio.samples.astype(np.float32).astype(np.float64), audio.sample_rate)

