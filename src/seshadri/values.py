"""Exact scalar values: arbitrary-precision rationals and the two-branch
rational-or-square-root type used for Seshadri constants.

All comparisons are exact; square roots are never evaluated in floating
point on any decision path.  Floats appear only in clearly labeled
"approx" report columns.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

# The exact rational substrate.  fractions.Fraction already guarantees
# reduced form with positive denominator, which is exactly the invariant
# we need.
Rational = Fraction

RationalLike = Union[Rational, int]


def parse_rational(text: str) -> Rational:
    """Parse "p/q" or "p" into an exact rational.  Decimal notation is
    rejected on purpose: no silent rounding at the boundary."""
    text = text.strip()
    if "." in text or "e" in text.lower():
        raise ValueError(f"decimal notation not accepted, use p/q: {text!r}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed rational {text!r}") from exc


def format_rational(q: RationalLike) -> str:
    """Serialize a rational as "p/q", or "p" when the denominator is 1."""
    return str(q if isinstance(q, Fraction) else Fraction(q))


class SeshadriValue:
    """Either an exact rational or sqrt(d) for a non-square positive d.

    Perfect squares normalize to the exact branch at construction, so a
    stored sqrt is always irrational and the total order below is well
    defined with equality only between identical representations.
    """

    __slots__ = ("_q", "_d")

    def __init__(self, q: Rational | None, d: int | None):
        self._q = q
        self._d = d

    @classmethod
    def exact(cls, q: RationalLike) -> "SeshadriValue":
        return cls(Fraction(q), None)

    @classmethod
    def sqrt(cls, d: int) -> "SeshadriValue":
        if d < 1:
            raise ValueError(f"sqrt branch requires a positive integer, got {d}")
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
            raise ValueError(f"{self} is irrational")
        return self._q

    @property
    def sqrt_of(self) -> int:
        if self._d is None:
            raise ValueError(f"{self} is not a square root")
        return self._d

    def _cmp(self, other: "SeshadriValue") -> int:
        if self._q is not None and other._q is not None:
            a, b = self._q, other._q
            return (a > b) - (a < b)
        if self._q is not None:
            # rational vs sqrt(d): compare by sign, then by squaring
            if self._q <= 0:
                return -1
            sq = self._q * self._q
            return (sq > other._d) - (sq < other._d)
        if other._q is not None:
            return -other._cmp(self)
        return (self._d > other._d) - (self._d < other._d)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SeshadriValue) and self._cmp(other) == 0

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
        if self._q is not None:
            return format_rational(self._q)
        return f"sqrt({self._d})"

    def approx(self) -> float:
        """Floating-point approximation, for human-readable report columns
        only; never used in comparisons."""
        if self._q is not None:
            return float(self._q)
        return math.sqrt(self._d)

    def __repr__(self) -> str:
        return f"SeshadriValue({self.serialize()})"
