"""Exception hierarchy shared by all pmbnn modules.

Every domain failure raises a subclass of :class:`PmbnnError` so the CLI can
map any library error to exit code 1 with a module-qualified message.
"""

from contextlib import contextmanager


class PmbnnError(Exception):
    """Base class for all pmbnn domain errors."""


# --- signal ingestion / filtering ---------------------------------------

class MalformedHeader(PmbnnError):
    """CSV header does not match the required schema."""


class MalformedRow(PmbnnError):
    """CSV row cannot be parsed or has neither vo2 nor hr."""


class NonMonotonicTime(PmbnnError):
    """Sample times are not strictly increasing."""


class NonPositiveSignal(PmbnnError):
    """vo2 or hr value is zero or negative where present."""


class InsufficientSamples(PmbnnError):
    """Too few samples to resample or segment a signal."""


class WindowTooLarge(PmbnnError):
    """Filter window exceeds the segment length."""


class BadWindow(PmbnnError):
    """Filter window is even or too small, or the polynomial order is negative."""


# --- physiological model -------------------------------------------------

class NonPositiveVo2(PmbnnError):
    """Logarithmic hemodynamic relations require vo2 > 0."""


class Singularity(PmbnnError):
    """The heart-rate dynamics denominator 1 - l5*g(vo2) is (near) zero."""


class LengthMismatch(PmbnnError):
    """Paired series or parameter structures have different lengths."""


class SegmentTooShort(PmbnnError):
    """A segment is too short for the requested operation."""


# --- network / optimization ---------------------------------------------

class BadBounds(PmbnnError):
    """Lower bound not strictly below upper bound."""


class OutOfBounds(PmbnnError):
    """A parameter or config value falls outside its allowed range."""


class NonFiniteLoss(PmbnnError):
    """Loss evaluated to NaN or infinity."""


class NonFiniteGradient(PmbnnError):
    """A gradient entry is NaN or infinite."""


class InvalidStep(PmbnnError):
    """Finite-difference step size must be positive."""


# --- statistics ----------------------------------------------------------

class EmptySeries(PmbnnError):
    """Operation requires a non-empty (or longer) series."""


class EmptyInput(PmbnnError):
    """Summary statistics require at least one value."""


class ConstantReference(PmbnnError):
    """R^2 undefined: reference series has zero variance."""


class AllZeroDifferences(PmbnnError):
    """Wilcoxon test undefined: every paired difference is zero."""


class ZeroVariance(PmbnnError):
    """Effect size undefined: paired differences have zero variance."""


class IoFailure(PmbnnError):
    """An input file could not be read, or an output could not be written."""


@contextmanager
def malformed_fields(path):
    """Turn a missing or mis-shaped field of a parsed input into IoFailure.

    JSON integers are unbounded, so a number too large for a float
    (OverflowError) is a malformed field too."""
    try:
        yield
    except (KeyError, IndexError, TypeError, ValueError, AttributeError,
            OverflowError) as exc:
        raise IoFailure(f"{path}: missing or malformed field: {exc!r}") from exc
