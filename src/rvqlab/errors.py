"""Typed errors raised across the workbench, and the setting checks that raise them.

Every failure surfaced to callers derives from :class:`RvqLabError`, so the
CLI (and fuzz harnesses) can catch one base class and still report the
specific condition.
"""

import math
import numbers
import operator
import os

import numpy as np


class RvqLabError(Exception):
    """Base class for all errors raised by rvqlab."""


class EmptyInput(RvqLabError):
    """An operation received an empty signal or dataset."""


class InvalidInput(RvqLabError):
    """An argument violates an operation's precondition."""


class InvalidConfig(RvqLabError):
    """A configuration object is internally inconsistent or incompatible."""


class SampleRateMismatch(RvqLabError):
    """Two signals (or a signal and a model) disagree on sample rate."""


class InsufficientData(RvqLabError):
    """Not enough training frames / scores to fit or summarize."""


class InsufficientDuration(RvqLabError):
    """A signal is too short for the requested analysis."""


class CorruptModel(RvqLabError):
    """A model container failed structural validation."""


class NotABitstream(RvqLabError):
    """Bytes do not start with a recognized stream header."""


class Truncated(RvqLabError):
    """A stream payload is shorter than its header declares."""

    def __init__(self, expected, got):
        super().__init__(f"truncated payload: expected {expected} bytes, got {got}")
        self.expected = expected
        self.got = got


class CorruptPadding(RvqLabError):
    """Padding bits at the end of a packed payload are not zero."""


class CorruptTokens(RvqLabError):
    """A token stream contains an out-of-range codeword index."""


class SchemaError(RvqLabError):
    """A manifest or score file does not match its documented schema."""


class MissingFile(RvqLabError):
    """A file to be read does not exist."""

    def __init__(self, path):
        super().__init__(f"missing file: {path}")
        self.path = path


class EmptyCategory(RvqLabError):
    """A quality category required for balanced sampling has no entries."""

    def __init__(self, name):
        super().__init__(f"category {name} has no manifest entries")
        self.name = name


class NotDivisible(RvqLabError):
    """Batch size is not divisible by the number of active categories."""


class WavError(RvqLabError):
    """A WAV file is malformed or uses an unsupported layout."""


class ExternalToolError(RvqLabError):
    """An external metric tool failed or produced unparseable output."""


class EvaluationFailed(RvqLabError):
    """Too many per-file failures during an evaluation run."""


def check_int(name, value, low, high=None, error=InvalidInput) -> int:
    """value as an int if it is an integer in [low, high] (high None: no upper
    bound), else error.  Python and numpy integers pass; bool, float (even
    4.0), str and None do not."""
    try:
        number = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        number = None
    if number is None or number < low or (high is not None and number > high):
        span = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise error(f"{name} must be an integer {span}, got {value!r}")
    return number


def check_float(name, value, error=InvalidInput) -> float:
    """value as a float if it is a finite Python or numpy real, else error.
    bool, text, None, complex, nan and inf do not pass."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    try:
        number = float(value) if real else math.nan
    except OverflowError:  # an int beyond the float range
        number = math.nan
    if not math.isfinite(number):
        raise error(f"{name} must be a finite real number, got {value!r}")
    return number


def check_path(path):
    """path if it is a str or os.PathLike that the file system can encode, else
    InvalidInput: an int is never taken for an open file descriptor."""
    try:
        valid = isinstance(path, (str, os.PathLike)) and b"\0" not in os.fsencode(path)
    except UnicodeEncodeError:  # a lone surrogate that surrogateescape does not cover
        valid = False
    if not valid:
        raise InvalidInput(f"path must be a str or os.PathLike naming a file, got {path!r}")
    return path


def check_array(name, values, ndim, error=InvalidInput, complex_ok=False) -> np.ndarray:
    """values as a finite, C-contiguous ndim-D float64 array (complex128 if
    complex and complex_ok), else error.  Text, object, ragged and, unless
    complex_ok, complex input fail: a cast would raise numpy's own error or
    drop an imaginary part with only a warning.  One memory layout keeps the
    einsum reductions of decoding, whose order follows the strides, the same
    for a model trained in memory and the same model loaded from disk."""
    try:
        array = np.asarray(values)
    except ValueError as exc:
        raise error(f"{name} must be a numeric array: {exc}") from None
    if array.dtype.kind not in ("biufc" if complex_ok else "biuf") or array.ndim != ndim:
        raise error(f"{name} must be a {ndim}-D {'' if complex_ok else 'real '}numeric array, "
                    f"got {array.dtype} of shape {array.shape}")
    array = np.asarray(array, dtype=np.complex128 if array.dtype.kind == "c" else np.float64, order="C")
    if not np.isfinite(array).all():
        raise error(f"non-finite values in {name}")
    return array
