"""Exact scalar values: arbitrary-precision rationals and the two-branch
rational-or-square-root type used for Seshadri constants.

All comparisons are exact; square roots are never evaluated in floating
point on any decision path.  Floats appear only in clearly labeled
"approx" report columns, which are empty for a value beyond float range.

The module also holds what every layer's constructors share: the checks
of a single value, and `Record`, the immutable base of every record.
"""

from __future__ import annotations

import math
import re
from collections import abc
from itertools import starmap
from fractions import Fraction
from typing import Iterable, List, Mapping, Optional, Tuple, Union

# The exact rational substrate.  fractions.Fraction already guarantees
# reduced form with positive denominator, which is exactly the invariant
# we need.
Rational = Fraction

RationalLike = Union[Rational, int]

# the one syntax of a rational string, in documents and on the command
# line alike, matched in full: ASCII digits, no sign but a leading minus,
# and a denominator that is not zero
RATIONAL_SYNTAX = r"-?[0-9]+(/0*[1-9][0-9]*)?"

# decimal notation, such as 1.5, .5 or 1e3, for text outside RATIONAL_SYNTAX:
# what it matches without a point or an exponent is an integer, inside it
_DECIMAL_SYNTAX = r"-?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][-+]?[0-9]+)?"


def as_int(value, what: str, error: type) -> int:
    """`value` itself if it is exactly an int, as the document format
    requires of every integer: a bool, an int subclass, a float or a
    fraction raises `error` naming `what`, and nothing is converted."""
    if type(value) is not int:
        raise error(f"{what} must be an integer, got {shown(value)}")
    return value


def cut(value) -> str:
    """str(value) as an error message shows a value taken from a flag or
    a document: whole up to 40 characters, or its first 37 and "..."."""
    text = str(value)
    return text if len(text) <= 40 else text[:37] + "..."


def shown(value) -> str:
    """repr(value) for an error message, `cut`, naming the type of a
    subclass of int or str, whose repr would hide it."""
    text = cut(repr(value))
    kind = type(value)
    if kind not in (int, str, bool) and isinstance(value, (int, str)):
        return f"{text} of type {kind.__name__}"
    return text


def as_tuple(value, what: str, error: type) -> tuple:
    """`value` as a tuple: a tuple, a list, a range or an iterator, read
    once in order.  A value that is not iterable, such as None, a str or
    bytes (characters), a mapping (keys) or a set (no order) raises
    `error` naming `what`.  A tuple or a list skips the slower ABC tests."""
    if type(value) not in (tuple, list) and (
        isinstance(value, (str, bytes, bytearray, abc.Mapping, abc.Set))
        or not isinstance(value, abc.Iterable)
    ):
        raise error(f"{what} must be a sequence, got {shown(value)}")
    return tuple(value)


def as_rational(value, what: str, error: type) -> Rational:
    """`value` as an exact rational: a Fraction as it is and an exact int
    as a Fraction, so that a float or a bool raises `error` naming `what`
    and never enters a verdict."""
    if isinstance(value, Fraction):
        return value
    if type(value) is int:
        return Fraction(value)
    raise error(f"{what} must be an int or a Fraction, got {shown(value)}")


def require_label(value, owner: str, error: type, field: str = "label") -> None:
    """Raise `error`, naming `owner`'s `field`, unless `value` is a
    non-empty str: exactly a str, as the document format requires of
    every label and name."""
    if type(value) is not str:
        raise error(f"{field} of {owner} must be a string, got {shown(value)}")
    if not value:
        raise error(f"{owner} needs a non-empty {field}")


# sets a record's field past its __setattr__, which refuses assignment
set_field = object.__setattr__


class Record:
    """An immutable record of the fields named in `_fields`, compared,
    hashed and shown by value like a frozen dataclass, without importing
    dataclasses (and with it inspect) into every command.  A subclass
    lists its fields in order in `_fields` and in `__slots__`, with any
    slot for data it derives and does not compare.  A subclass that
    writes no __init__ gets the one it would write by hand: a parameter
    per field, trailing defaults from `_defaults`, each field stored
    through its slot's own setter, bound once per class, and Python's
    own TypeError naming `Class.__init__()` for a bad call.  A record
    that checks or converts its arguments does so in `__post_init__`,
    which that constructor calls last, as a frozen dataclass does: it
    reads the fields already set, and re-sets a converted one with
    set_field."""

    __slots__ = ()
    _fields: Tuple[str, ...] = ()
    _defaults: Mapping[str, object] = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "__init__" not in cls.__dict__:
            fields, defaults = cls._fields, cls._defaults
            params = ", ".join(f"{f}=_defaults[{f!r}]" if f in defaults else f for f in fields)
            body = "".join(f"\n    _set_{f}(self, {f})" for f in fields)
            if hasattr(cls, "__post_init__"):
                body += "\n    self.__post_init__()"
            namespace = {"_defaults": defaults, "__name__": cls.__module__}
            # a slot's __set__ skips the attribute lookup of set_field
            namespace.update((f"_set_{f}", getattr(cls, f).__set__) for f in fields)
            exec(f"def __init__(self, {params}):{body}", namespace)
            cls.__init__ = namespace["__init__"]
            cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def replace(record: Record, **changes) -> Record:
    """A copy of `record` with the fields named in `changes` replaced,
    built through its class's __init__, so that every check runs again."""
    fields = {name: getattr(record, name) for name in record._fields}
    return type(record)(**{**fields, **changes})


def parse_rational(text: str) -> Rational:
    """Parse "p/q" or "p", in `RATIONAL_SYNTAX` after stripping outer
    whitespace, into an exact rational.  Decimal notation is rejected on
    purpose, with its own message: no silent rounding at the boundary."""
    text = text.strip()
    if re.fullmatch(RATIONAL_SYNTAX, text) is None:
        if re.fullmatch(_DECIMAL_SYNTAX, text) is not None:
            raise ValueError(f"decimal notation not accepted, use p/q: {shown(text)}")
        raise ValueError(f"malformed rational {shown(text)}")
    return rational_of(text)


def rational_of(text: str) -> Rational:
    """The rational of `text`, which matches `RATIONAL_SYNTAX` in full, from
    its integer parts: int's ValueError past the digit limit, as Fraction's."""
    p, _, q = text.partition("/")
    return Fraction(int(p), int(q or 1))


def format_rational(q: RationalLike) -> str:
    """Serialize a rational as "p/q", or "p" when the denominator is 1."""
    return _format_pair(q.numerator, q.denominator)


def _format_pair(t: int, m: int) -> str:
    """A reduced pair (t, m), m >= 1, as format_rational writes t/m:
    "t/m", or "t" when m is 1.  No Fraction is built."""
    return str(t) if m == 1 else f"{t}/{m}"


def format_pairs(pairs: Iterable[Tuple[int, int]]) -> List[str]:
    """Reduced pairs (t, m), m >= 1, each as format_rational writes t/m."""
    return list(starmap(_format_pair, pairs))


class SeshadriValue:
    """Either an exact rational or sqrt(d) for a non-square positive d.

    Perfect squares normalize to the exact branch at construction, so a
    stored sqrt is always irrational and the total order below is well
    defined with equality only between identical representations.  The
    rational branch keeps its reduced numerator and denominator as ints,
    and compares by cross-multiplying them.
    """

    __slots__ = ("_q", "_n", "_m", "_d")

    def __init__(self, q: Rational | None, d: int | None):
        self._q = q
        self._d = d
        self._n, self._m = (None, None) if q is None else (q.numerator, q.denominator)

    @classmethod
    def exact(cls, q: RationalLike) -> "SeshadriValue":
        return cls(q if type(q) is Fraction else as_rational(q, "exact value", ValueError), None)

    @classmethod
    def sqrt(cls, d: int) -> "SeshadriValue":
        if d < 1:
            raise ValueError(f"sqrt branch requires a positive integer, got {cut(d)}")
        r = math.isqrt(d)
        if r * r == d:
            return cls(Fraction(r), None)
        return cls(None, d)

    @property
    def is_exact(self) -> bool:
        return self._q is not None

    @property
    def rational(self) -> Rational:
        if self._q is None:
            raise ValueError(f"{cut(self)} is irrational")
        return self._q

    def _cmp(self, other: "SeshadriValue") -> int:
        d, e = self._d, other._d
        if d is None and e is None:
            lhs, rhs = self._n * other._m, other._n * self._m
            return (lhs > rhs) - (lhs < rhs)
        if e is None:  # a root against a rational: by sign, then by _cmp_ratio
            return 1 if other._n <= 0 else self._cmp_ratio(other._n, other._m)
        if d is None:
            return -1 if self._n <= 0 else -other._cmp_ratio(self._n, self._m)
        return (d > e) - (d < e)

    def _cmp_ratio(self, n: int, m: int) -> int:
        """The sign of self - n/m, for ints n > 0 and m > 0, in integers:
        cross-multiplied, or against sqrt(d) squared, as _cmp orders a
        value built from n/m.  No Fraction is built.  Outside the
        quadratic of `degree.minimal_M`, this is the one place a ratio
        is squared against d."""
        d = self._d
        lhs, rhs = (self._n * m, n * self._m) if d is None else (d * m * m, n * n)
        return (lhs > rhs) - (lhs < rhs)

    def __eq__(self, other: object) -> bool:
        # representations are canonical: equal values have equal fields
        return (
            isinstance(other, SeshadriValue)
            and self._n == other._n
            and self._m == other._m
            and self._d == other._d
        )

    def __lt__(self, other: "SeshadriValue") -> bool:
        return self._cmp(other) < 0

    def __le__(self, other: "SeshadriValue") -> bool:
        return self._cmp(other) <= 0

    def __gt__(self, other: "SeshadriValue") -> bool:
        return self._cmp(other) > 0

    def __ge__(self, other: "SeshadriValue") -> bool:
        return self._cmp(other) >= 0

    def __hash__(self) -> int:
        return hash((self._q, self._d))

    def serialize(self) -> str:
        """The value as format_rational writes a rational, from its ints,
        or as "sqrt(d)"."""
        if self._d is None:
            return _format_pair(self._n, self._m)
        return f"sqrt({self._d})"

    def approx(self) -> Optional[float]:
        """Floating-point approximation, for human-readable report columns
        only; never used in comparisons.  None past float range."""
        try:
            if self._d is None:
                return self._n / self._m  # correctly rounded, as float(Fraction)
            try:
                return math.sqrt(self._d)
            except OverflowError:  # d is past float range, its root need not be
                return float(math.isqrt(self._d))
        except OverflowError:
            return None

    def __repr__(self) -> str:
        return f"SeshadriValue({self.serialize()})"
