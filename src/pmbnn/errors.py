"""Exception hierarchy shared by all pmbnn modules, and the one checker of
a JSON input's fields (:func:`check_json`).

Every domain failure raises a subclass of :class:`PmbnnError` so the CLI can
map any library error to exit code 1 with a module-qualified message.
"""

import math
import reprlib
from contextlib import suppress
from typing import NamedTuple


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


def _require(ok: bool, key: str, value, rule: str) -> None:
    """Reject a config value outside its range, naming its config key."""
    if not ok:
        raise OutOfBounds(f"{key} must be {rule}, got {value!r}")


# --- JSON inputs -----------------------------------------------------------

#: the kinds of a JSON scalar, as messages name them; a number is finite:
#: no bool, NaN, infinity or integer too large for a float
NUMBER, INTEGER, STRING, NUMBER_OR_NULL = (
    "a finite number", "a finite integer", "a string", "a finite number or null")


class ListOf(NamedTuple):
    """The kind of a JSON list of ``item`` fields, ``length`` of them if given."""
    item: object
    length: int | None = None


def check_json(value, kind, file: str, where: str = ""):
    """``value``, parsed from the JSON file ``file``, checked against ``kind``
    and returned with the numbers of NUMBER kinds as floats.

    ``kind`` is a scalar kind, a :class:`ListOf` or a dict that gives each
    key of an object its kind: a key spelled with a trailing ``?`` may be
    absent, and ``*`` stands for any key. A missing or unknown key or a
    value of another kind is IoFailure naming ``file``, the key path
    (``plan[0].tau_s``) and the value."""
    if isinstance(kind, dict) and type(value) is dict:
        prefix, keys = f"{where}." if where else "", {k.rstrip("?"): k for k in kind}
        unknown = [] if "*" in keys else [k for k in value if k not in keys]
        missing = [k for k, spelled in keys.items() if k not in value and spelled[-1] not in "?*"]
        for problem, names in (("unknown", unknown), ("missing", missing)):
            if names:
                raise IoFailure(f"{file}: {problem} key(s) "
                                f"{', '.join(prefix + k for k in names)}")
        return {k: check_json(v, kind[keys.get(k, "*")], file, prefix + k)
                for k, v in value.items()}
    if isinstance(kind, ListOf) and type(value) is list and kind.length in (None, len(value)):
        checked = _numeric(value, kind.item)   # one pass over a list of numbers
        return checked if checked is not None else [
            check_json(v, kind.item, file, f"{where}[{i}]") for i, v in enumerate(value)]
    if kind == STRING and type(value) is str or kind == NUMBER_OR_NULL and value is None:
        return value
    checked = _numeric([value], kind)
    if checked is None:
        name = ("an object" if isinstance(kind, dict) else kind if isinstance(kind, str)
                else f"a list of {kind.length}" if kind.length else "a list")
        raise IoFailure(f"{file}: {where or 'the top level'} must be {name}, "
                        f"got {reprlib.repr(value)}")
    return checked[0]


def _numeric(values: list, kind) -> list | None:
    """``values``, as floats but for INTEGER, if each is a number of ``kind``; else None."""
    if kind in (NUMBER, NUMBER_OR_NULL, INTEGER) and set(map(type, values)) <= (
            {int} if kind == INTEGER else {int, float}):
        with suppress(OverflowError):   # JSON integers are unbounded
            floats = list(map(float, values))
            if math.isfinite(sum(floats)):   # else a term is not, or the sum overflowed
                return values if kind == INTEGER else floats
    return None
