"""Shared exception types and the readers of input fields that raise them.

ValueError subclasses signal bad inputs (CLI exit code 1); NumericalCheckError
signals a failed runtime numerical safeguard such as a truncation-leak or
boundary-decay check (CLI exit code 2).
"""
from __future__ import annotations

from dataclasses import MISSING, fields
from numbers import Integral, Real

_REQUIRED = MISSING  # a field without a default is required, as in a dataclass


class ValidationError(ValueError):
    """Invalid user input: bad mode index, dimension mismatch, bad config."""


class NumericalCheckError(RuntimeError):
    """A numerical safeguard failed (truncation leak, boundary decay, ...)."""


def converted(kind, value, name: str):
    """kind(value) for the input field name; a value kind refuses is bad input.

    A ValidationError raised by kind itself (a nested loader) passes through
    with its own message.
    """
    try:
        return kind(value)
    except ValidationError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{name} = {value!r} is not usable: {exc}") from None


def integer(value) -> int:
    """An exact integer field: 2 and 2.0 are 2; 2.5, '2', True, NaN and inf
    are refused rather than truncated or coerced."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise TypeError(f"an integer is expected, not {type(value).__name__}")
    if not isinstance(value, Integral) and not float(value).is_integer():
        raise ValueError("an integer is expected")
    return int(value)


def at_least(least: int, most: int | None = None):
    """A converter of an exact integer >= least, and <= most if given (see
    integer)."""
    def convert(value) -> int:
        n = integer(value)
        if n < least:
            raise ValueError(f"an integer >= {least} is expected")
        if most is not None and n > most:
            raise ValueError(f"an integer <= {most} is expected")
        return n
    return convert


def dimension(value) -> int:
    """A spatial dimension: an exact integer 1, 2 or 3 (1.0 is 1, True is refused)."""
    n = integer(value)
    if n not in (1, 2, 3):
        raise ValueError("a spatial dimension is 1, 2 or 3")
    return n


def boolean(value) -> bool:
    """A boolean field: only true and false; "false", 0 and 1 are refused."""
    if not isinstance(value, bool):
        raise TypeError(f"true or false is expected, not {type(value).__name__}")
    return value


def listed(kind):
    """A converter of an input list whose entries kind converts."""
    def convert(values) -> list:
        if not isinstance(values, (list, tuple)):
            raise TypeError(f"a list is expected, not {type(values).__name__}")
        return [kind(v) for v in values]
    return convert


def read_field(doc, key: str, kind, where: str, default=_REQUIRED):
    """Field key of the input object named where, converted by kind (None
    keeps it as it is); without a default a missing field is bad input."""
    if not isinstance(doc, dict):
        raise ValidationError(f"{where} must be an object, got {doc!r}")
    if key not in doc and default is _REQUIRED:
        raise ValidationError(f"{where} is missing field {key!r}")
    value = doc.get(key, default)
    return value if kind is None else converted(kind, value, f"{where}.{key}")


def known_fields(doc, names, where: str) -> None:
    """Refuse the input object named where if it holds a field outside names;
    whether a field of names may be missing is read_field's to decide."""
    if not isinstance(doc, dict):
        raise ValidationError(f"{where} must be an object, got {doc!r}")
    unknown = ", ".join(repr(k) for k in doc if k not in names)
    if unknown:
        raise ValidationError(
            f"{where} has unknown field(s) {unknown}; it takes {', '.join(names) or 'none'}"
        )


def read_object(doc, cls, kinds: dict, where: str, also: tuple = ()):
    """The dataclass cls from the input object named where: each field name
    of kinds is converted by kinds[name] and defaults to cls's own default;
    a field outside kinds and also is refused."""
    known_fields(doc, (*also, *kinds), where)
    defaults = {f.name: f.default for f in fields(cls)}
    return cls(**{name: read_field(doc, name, kind, where, defaults[name])
                  for name, kind in kinds.items()})
