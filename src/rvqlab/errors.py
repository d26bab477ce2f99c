"""Typed errors raised across the workbench, and the setting checks that raise them.

Every failure surfaced to callers derives from :class:`RvqLabError`, so the
CLI (and fuzz harnesses) can catch one base class and still report the
specific condition.
"""

import operator

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
    """A file referenced by a manifest does not exist."""

    def __init__(self, path):
        super().__init__(f"missing audio file: {path}")
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


def check_real(name, values, error=InvalidInput) -> np.ndarray:
    """values as a numpy array of bool, integer or float dtype, else error: a
    cast would drop an imaginary part with only a warning, and text or ragged
    input would fail with numpy's own ValueError."""
    try:
        array = np.asarray(values)
    except ValueError as exc:
        raise error(f"{name} must be a real numeric array: {exc}") from None
    if array.dtype.kind not in "biuf":
        raise error(f"{name} must be a real numeric array, got dtype {array.dtype}")
    return array
