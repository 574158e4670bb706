"""Exception types shared across the library, and checked parsing of input."""
import operator

import numpy as np


class OrliczError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(OrliczError, ValueError):
    """Malformed, inconsistent, or out-of-domain input."""


def _parsed(key: str, convert, value):
    """convert(value), or a ValidationError naming key if convert refuses it."""
    try:
        return convert(value)
    except ValidationError:
        raise
    except (TypeError, ValueError, KeyError, OverflowError):
        raise ValidationError(f"bad value for {key}: {value!r:.80}") from None


def _known(obj: dict, keys, what: str, required=()) -> dict:
    """obj, refused by a ValidationError naming its keys outside keys or required ones it lacks."""
    unknown, missing = sorted(set(obj) - set(keys)), sorted(set(required) - set(obj))
    if unknown:
        raise ValidationError(f"unknown {what} keys: {unknown}")
    if missing:
        raise ValidationError(f"{what} is missing {missing}")
    return obj


def _frozen(arr: np.ndarray, given) -> np.ndarray:
    """arr made read-only, copied first if it may share memory with given, the caller's array."""
    if np.may_share_memory(arr, given):
        arr = arr.copy()
    arr.setflags(write=False)
    return arr


def _count(value) -> int:
    """A nonnegative integer; bools, floats, strings and negative numbers are refused."""
    if isinstance(value, bool):
        raise TypeError("a bool is not a count")
    n = operator.index(value)
    if n < 0:
        raise ValueError("negative count")
    return n


def _counts(values) -> list:
    """A nonempty list of counts, as ``_count`` takes each."""
    if not (counts := [_count(v) for v in values]):
        raise ValueError("empty list")
    return counts


class UnboundedConjugateError(OrliczError):
    """The convex conjugate diverges, or leaves the double range."""


class AbsoluteContinuityError(OrliczError):
    """A measure charges a point that its dominating measure does not."""


class BracketingError(OrliczError):
    """A gauge norm lies outside the range of normal doubles."""


class FitSolverError(OrliczError):
    """The least-squares normal equations could not be solved."""


class HypothesisViolation(OrliczError):
    """A mathematical hypothesis required by an experiment does not hold.

    The offending hypothesis is named so a caller can report exactly which
    assumption failed rather than a generic error.
    """

    def __init__(self, hypothesis: str, detail: str = ""):
        self.hypothesis = hypothesis
        self.detail = detail
        msg = f"hypothesis violated: {hypothesis}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)
