"""Effective degree-bound machinery.

Given the degree d and the two lower Euler-characteristic coefficients
(c, c') of a polarization, a dimension count produces, for any rational
threshold a with a^2 < d, a multiplier M and a degree bound B = M*d such
that every curve whose degree/multiplicity ratio is at most a has degree
at most B.  That bound turns the possible (multiplicity, degree) pairs,
hence the possible ratios up to any alpha < sqrt(d), into a finite
explicitly enumerable set.

Both steps are exact and in closed form.  The least M solves the
dimension count's integer quadratic with math.isqrt, at O(1) cost and
with no search cap.  The candidate ratios t/m <= alpha with m <= t <= B
are the inverses of the Farey fractions of order B in [1/alpha, 1], so
a Farey next-term walk lists them in ascending order at one integer step
per ratio.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import starmap
from typing import Iterator, List, Sequence, Tuple

from .values import Rational, RationalLike, as_int, as_rational


class BoundError(ValueError):
    pass


# sets a record's field past its __setattr__, which refuses assignment
_set_field = object.__setattr__


class _Record:
    """An immutable record of the fields named in `__slots__`, compared,
    hashed and shown by value like a frozen dataclass, without importing
    dataclasses (and with it inspect) into every command that bounds
    degrees.  A subclass's __init__ sets every field with _set_field."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class RRData(_Record):
    """Degree and Euler-characteristic data of a polarized surface:
    chi(L^n) = n^2*d/2 + n*c/2 + c'.

    vanishing_multiplier is the integer l for which the model certifies
    h^0((L^l)^n) = chi for all n >= 1; bounds computed from this data
    apply to L^l and are reported with l attached.
    """

    __slots__ = ("d", "c", "c_prime", "vanishing_multiplier")

    def __init__(self, d: int, c: int, c_prime: int, vanishing_multiplier: int = 1):
        for name, value in zip(self.__slots__, (d, c, c_prime, vanishing_multiplier)):
            _set_field(self, name, as_int(value, name, BoundError))
        if self.d < 1:
            raise BoundError(f"degree must be positive, got {self.d}")
        if self.vanishing_multiplier < 1:
            raise BoundError("vanishing_multiplier must be a positive integer")


class DegreeBound(_Record):
    """Certified degree bound B = M*d for curves of ratio <= a.

    M is the least admissible multiplier (n with n*a integral) whose
    dimension count l(n) is positive; all smaller admissible n have
    l(n) <= 0 by construction.
    """

    __slots__ = ("a", "M", "B", "vanishing_multiplier")

    def __init__(self, a: Rational, M: int, B: int, vanishing_multiplier: int = 1):
        _set_field(self, "a", a)
        _set_field(self, "M", M)
        _set_field(self, "B", B)
        _set_field(self, "vanishing_multiplier", vanishing_multiplier)


def l_poly(rr: RRData, a: RationalLike, n: int) -> Rational:
    """The excess-dimension count l(n) = (d - a^2)n^2/2 + (c - 3a)n/2 + (c' - 1).

    Positive l(n) guarantees a member of |L^n| with multiplicity > n*a at
    any prescribed point.  n*a must be an integer for the count to make
    sense.
    """
    a, n = as_rational(a, "a", BoundError), as_int(n, "n", BoundError)
    if n < 1:
        raise BoundError(f"n must be positive, got {n}")
    if (n * a).denominator != 1:
        raise BoundError(f"n*a must be integral, got {n}*{a}")
    return (
        Fraction(rr.d - a * a) * n * n / 2
        + Fraction(rr.c - 3 * a) * n / 2
        + (rr.c_prime - 1)
    )


def minimal_M(rr: RRData, a: RationalLike) -> DegreeBound:
    """Smallest admissible multiplier M with l(M) > 0, and B = M*d, in
    closed form at O(1) cost.

    Admissible n are exactly the multiples n = q*j of the reduced
    denominator q of a = p/q.  Then 2*l(q*j) = f(j) = A*j^2 + b*j + C with
    the integers A = d*q^2 - p^2 > 0, b = c*q - 3p and C = 2(c' - 1).  If
    f(1) > 0 the answer is j = 1; this covers c' > 1, where l is positive
    left of the smaller root.  Otherwise 1 lies between the roots of the
    convex parabola f, and the answer is the least integer above the
    larger root, whose floor math.isqrt of the discriminant gives
    exactly.  Every step
    is exact integer arithmetic and no input meets a search cap.
    """
    a = as_rational(a, "threshold", BoundError)
    if a <= 0:
        raise BoundError(f"threshold must be positive, got {a}")
    if a * a >= rr.d:
        raise BoundError(
            f"threshold^2 must be strictly below the degree: {a}^2 >= {rr.d}"
        )
    p, q = a.numerator, a.denominator
    A = rr.d * q * q - p * p
    b = rr.c * q - 3 * p
    C = 2 * (rr.c_prime - 1)

    def f(j: int) -> int:
        return (A * j + b) * j + C

    j = 1
    if f(1) <= 0:
        # f has a real root, so D = b^2 - 4AC >= 0, and the answer is
        # floor(r) + 1 for the larger root r = (-b + sqrt(D)) / (2A).
        # For an integer k, 2Ak + b <= sqrt(D) iff 2Ak + b <= isqrt(D),
        # so the floor taken with isqrt is exact and needs no fix-up.
        j = (-b + math.isqrt(b * b - 4 * A * C)) // (2 * A) + 1
    M = q * j
    return DegreeBound(a=a, M=M, B=M * rr.d, vanishing_multiplier=rr.vanishing_multiplier)


def multiplicity_target(M: int, a: RationalLike) -> int:
    """The forced multiplicity M*a + 1 of the auxiliary divisor in the
    bound argument; exposed for report transparency."""
    M, a = as_int(M, "M", BoundError), as_rational(a, "a", BoundError)
    Ma = M * a
    if Ma.denominator != 1:
        raise BoundError(f"M*a must be integral, got {M}*{a}")
    return int(Ma) + 1


def _farey(B: int, a: int, b: int, c: int, d: int) -> Iterator[Tuple[int, int]]:
    """Terms c/d, then onward, of the fractions with denominator <= B in
    order, walking from the neighbour a/b through c/d (either direction).

    Three consecutive terms x < y < z satisfy x + z = k*y termwise, with
    k = (B + den(x)) // den(y) = (B + den(z)) // den(y); see Hardy and
    Wright, An Introduction to the Theory of Numbers, ch. III.  The walk
    never ends; the caller stops it.
    """
    while True:
        yield c, d
        k = (B + b) // d
        a, b, c, d = c, d, k * c - a, k * d - b


def candidate_walk(
    B: int, alpha: RationalLike, require_m_le_t: bool = True
) -> Iterator[Tuple[int, int]]:
    """The pairs behind candidate_ratios: reduced (t, m) with t, m <= B
    and t/m <= alpha in ascending order of t/m, restricted to m <= t
    when require_m_le_t.  Distinct pairs are distinct ratios."""
    B = as_int(B, "B", BoundError)
    if B < 1:
        raise BoundError(f"B must be positive, got {B}")
    alpha = as_rational(alpha, "alpha", BoundError)
    if alpha <= 0:
        raise BoundError(f"alpha must be positive, got {alpha}")
    p, q = alpha.numerator, alpha.denominator
    if not require_m_le_t:
        # t/m < 1: the Farey sequence F_B itself, upward from 1/B
        for t, m in _farey(B, 0, 1, 1, B):
            if t >= m or t * q > p * m:
                break
            yield t, m
    # t/m >= 1: the inverses m/t of F_B on [1/alpha, 1], downward from
    # 1/1, whose neighbour above is (B+1)/B
    for m, t in _farey(B, B + 1, B, 1, 1):
        if m * p < t * q:
            break
        yield t, m


def candidate_ratios(
    B: int, alpha: RationalLike, require_m_le_t: bool = True
) -> List[Rational]:
    """All ratios t/m <= alpha with 1 <= m <= t <= B, deduplicated and
    ascending.  This is a finite superset of every attainable local
    Seshadri value <= alpha for families whose curves obey the degree
    bound B (under the very-ampleness normalization m <= t).

    The ratios come straight out of a Farey walk in ascending order, one
    integer step per ratio; the walk needs no gcd, set or sort.

    With require_m_le_t=False the multiplicity ranges over 1..B
    independently; that exploratory mode is not a certified superset.
    """
    return list(starmap(Fraction, candidate_walk(B, alpha, require_m_le_t)))


def mediant_bounds(
    parts: Sequence[Tuple[RationalLike, RationalLike]]
) -> Tuple[Rational, Rational, Rational]:
    """min, mediant and max of a list of positive ratios a_i/b_i:
    min_i a_i/b_i <= (sum a_i)/(sum b_i) <= max_i a_i/b_i.

    This is the inequality that passes from a reducible limit curve to
    one of its irreducible components without increasing the ratio.

    The work is in integers: ratios compare by cross-multiplying, the
    two sums are kept as numerator/denominator pairs, and only the three
    results are built as Fractions.
    """
    if not parts:
        raise BoundError("mediant_bounds requires a nonempty list")
    lo = hi = None
    num_n, num_d = 0, 1  # sum of the a_i
    den_n, den_d = 0, 1  # sum of the b_i
    for a, b in parts:
        a, b = as_rational(a, "entry", BoundError), as_rational(b, "entry", BoundError)
        an, ad, bn, bd = a.numerator, a.denominator, b.numerator, b.denominator
        if an <= 0 or bn <= 0:
            raise BoundError(f"all entries must be positive, got ({a}, {b})")
        ratio = (an * bd, ad * bn)
        if lo is None:
            lo = hi = ratio
        elif ratio[0] * lo[1] < lo[0] * ratio[1]:
            lo = ratio
        elif ratio[0] * hi[1] > hi[0] * ratio[1]:
            hi = ratio
        num_n, num_d = num_n * ad + an * num_d, num_d * ad
        den_n, den_d = den_n * bd + bn * den_d, den_d * bd
    lo, mid, hi = Fraction(*lo), Fraction(num_n * den_d, num_d * den_n), Fraction(*hi)
    assert lo <= mid <= hi
    return lo, mid, hi
