"""Shared exception types, the readers of input fields that raise them, and
the frozen record base of the layers' value classes.

Each field's rule is stated once, on its record: a class's _rules maps a
field to its converter, which the class's __init__ and every document reader
of the class (read_object, or a reader that takes the rule off the class)
apply alike.

ValueError subclasses signal bad inputs (CLI exit code 1); NumericalCheckError
signals a failed runtime numerical safeguard such as a truncation-leak or
boundary-decay check (CLI exit code 2).
"""
from __future__ import annotations

import math
from inspect import Parameter, Signature
from numbers import Complex, Integral, Real
from reprlib import repr as _short

import numpy as np

_REQUIRED = Parameter.empty  # a field without a default is required


class ValidationError(ValueError):
    """Invalid user input: bad mode index, dimension mismatch, bad config."""


class NumericalCheckError(RuntimeError):
    """A numerical safeguard failed (truncation leak, boundary decay, ...)."""


def converted(kind, value, name: str):
    """kind(value) for the input field name; a value kind refuses is bad input.

    A ValidationError raised by kind itself (a nested loader) passes through
    with its own message. The message shows value through reprlib, so a long
    list or string is cut to its first entries or characters.
    """
    try:
        return kind(value)
    except ValidationError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{name} = {_short(value)} is not usable: {exc}") from None


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


def real(value) -> float:
    """A real number as a float; true and false are refused rather than read
    as 1.0 and 0.0, a complex number rather than cut to its real part, a
    string such as '1.5' rather than parsed, and a list, an object or null by
    the same rule (a value float() takes has __float__)."""
    if type(value) is float:  # most values, such as each entry of a file's meta axes
        return value
    if isinstance(value, bool) or not hasattr(value, "__float__") or (
            isinstance(value, Complex) and not isinstance(value, Real)):
        raise TypeError(f"a real number is expected, not {type(value).__name__}")
    return float(value)


def real_array(value) -> np.ndarray:
    """An array of real numbers as float64 (see real): one holding a complex
    number is refused rather than cut to its real parts."""
    a = np.asarray(value)
    if a.dtype.kind == "c":
        raise TypeError(f"real numbers are expected, not {a.dtype}")
    return a.astype(float, copy=False)


def finite(value) -> float:
    """A finite real number as a float (see real): NaN and infinities are
    refused."""
    x = real(value)
    if not math.isfinite(x):
        raise ValueError("a finite number is expected")
    return x


def finite_complex(value) -> complex:
    """A complex number whose parts are each finite (see finite)."""
    z = complex(value)
    return complex(finite(z.real), finite(z.imag))


def positive(value) -> float:
    """A finite real number > 0, as a float (see real)."""
    x = real(value)
    if not 0 < x < math.inf:
        raise ValueError("a finite number > 0 is expected")
    return x


def nonnegative(value) -> float:
    """A finite real number >= 0, as a float (see real)."""
    x = real(value)
    if not 0 <= x < math.inf:
        raise ValueError("a finite number >= 0 is expected")
    return x


def boolean(value) -> bool:
    """A boolean field: only true and false; "false", 0 and 1 are refused."""
    if not isinstance(value, bool):
        raise TypeError(f"true or false is expected, not {type(value).__name__}")
    return value


def listed(kind):
    """A converter of an input list (a list, a tuple or an array of at least
    one dimension) to the tuple of its entries, each converted by kind."""
    def convert(values) -> tuple:
        if not isinstance(values, (list, tuple)) and not getattr(values, "ndim", 0):
            raise TypeError(f"a list is expected, not {type(values).__name__}")
        return tuple(kind(v) for v in values)
    return convert


def named(table: dict):
    """A converter of a name in table to its entry; a name outside table, or
    a value that is no string, is refused."""
    def convert(name):
        if not isinstance(name, str) or name not in table:
            raise ValueError(f"one of {', '.join(map(repr, table))} is expected")
        return table[name]
    return convert


def read_field(doc, key: str, kind, where: str, default=_REQUIRED):
    """Field key of the input object named where, converted by kind (None
    keeps it as it is); without a default a missing field is bad input."""
    if not isinstance(doc, dict):
        raise ValidationError(f"{where} must be an object, got {_short(doc)}")
    if key not in doc and default is _REQUIRED:
        raise ValidationError(f"{where} is missing field {key!r}")
    value = doc.get(key, default)
    return value if kind is None else converted(kind, value, f"{where}.{key}")


def known_fields(doc, names, where: str) -> None:
    """Refuse the input object named where if it holds a field outside names;
    whether a field of names may be missing is read_field's to decide."""
    if not isinstance(doc, dict):
        raise ValidationError(f"{where} must be an object, got {_short(doc)}")
    unknown = ", ".join(repr(k) for k in doc if k not in names)
    if unknown:
        raise ValidationError(
            f"{where} has unknown field(s) {unknown}; it takes {', '.join(names) or 'none'}"
        )


def read_object(doc, cls, where: str, also: tuple = ()):
    """The record cls from the input object named where: each field __init__
    takes is read by its rule in cls._rules (one without a rule as it is) and
    defaults to its default; a field outside them and also is refused."""
    known_fields(doc, (*also, *cls._args), where)
    return cls(**{name: read_field(doc, name, cls._rules.get(name), where,
                                   cls._fields[name].default) for name in cls._args})


class Pinned:
    """The default of a record field that a subclass pins: the field keeps
    value, is no argument of __init__ and is left out of repr."""

    def __init__(self, value) -> None:
        self.value = value


class Record:
    """A frozen value class whose fields are its annotated class attributes.

    A field's class attribute is its default. Fields are ordered as first
    annotated along the bases; a subclass redeclares a field in place. Each
    subclass gets an __init__ that takes its fields but the Pinned ones, in
    that order, stores each of them that _rules (a class attribute left
    unannotated, so no field) names as converted(rule, value, name), then
    calls __post_init__ if the class has one; a repr of the same fields;
    and, unless it is declared with eq=False, == and hash over all its
    fields, between instances of the same class. Assigning or deleting an
    attribute raises AttributeError; __post_init__ sets a field through
    object.__setattr__.
    """

    _fields: dict = {}  # field name -> Parameter: its default and annotation
    _args: tuple = ()  # the fields __init__ takes and repr shows, in order
    _rules: dict = {}  # field name -> the converter __init__ stores it through

    def __init_subclass__(cls, eq: bool = True) -> None:
        fields = dict(cls._fields)
        pinned = fields.keys() - cls._args
        for name, annotation in cls.__dict__.get("__annotations__", {}).items():
            default = getattr(cls, name, _REQUIRED)
            if isinstance(default, Pinned):
                default = default.value
                setattr(cls, name, default)
                pinned.add(name)
            else:
                pinned.discard(name)
            fields[name] = Parameter(name, Parameter.POSITIONAL_OR_KEYWORD,
                                     default=default, annotation=annotation)
        cls._fields = fields
        cls._args = tuple(name for name in fields if name not in pinned)
        cls.__init__ = _init(cls)
        if eq:
            cls.__eq__, cls.__hash__ = Record._eq, Record._hash

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def _eq(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def _hash(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._args)
        return f"{type(self).__qualname__}({args})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _init(cls):
    """cls's __init__: a complete positional or keyword call takes the fields
    as given, any other call is bound by the signature; each field with a
    rule is then converted, and all are set with one dict update."""
    names = cls._args
    count, keys = len(names), frozenset(names)
    sig = Signature([cls._fields[name] for name in names], return_annotation=None)
    rules = tuple((name, cls._rules[name]) for name in names if name in cls._rules)
    post_init = getattr(cls, "__post_init__", None)

    def __init__(self, *args, **kwargs) -> None:
        if kwargs or len(args) != count:
            if args or kwargs.keys() != keys:
                try:
                    bound = sig.bind(*args, **kwargs)
                except TypeError as exc:
                    raise TypeError(f"{cls.__qualname__}() {exc}") from None
                bound.apply_defaults()
                kwargs = bound.arguments
        else:
            kwargs = dict(zip(names, args))
        for name, rule in rules:
            kwargs[name] = converted(rule, kwargs[name], name)
        self.__dict__.update(kwargs)
        if post_init is not None:
            post_init(self)

    __init__.__qualname__ = f"{cls.__qualname__}.__init__"
    __init__.__signature__ = sig.replace(parameters=[
        Parameter("self", Parameter.POSITIONAL_OR_KEYWORD), *sig.parameters.values()])
    return __init__
