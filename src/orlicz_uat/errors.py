"""Exception types shared across the library, and checked parsing of input."""
import operator


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


def _count(value) -> int:
    """A nonnegative integer; floats, strings and negative numbers are refused."""
    n = operator.index(value)
    if n < 0:
        raise ValueError("negative count")
    return n


class UnboundedConjugateError(OrliczError):
    """The convex conjugate diverges (or overflows) within the search budget."""


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
