"""The degree bound.  From the degree d and the two lower
Euler-characteristic coefficients (c, c') of a polarization (`RRData`),
a dimension count (`l_poly`) gives, for any rational threshold a with
a^2 < d, a multiplier M and a degree bound B = M*d such that every curve
whose degree/multiplicity ratio is at most a has degree at most B
(`minimal_M`, a `DegreeBound`), and the forced multiplicity M*a + 1
(`multiplicity_target`).  The least M solves the count's integer
quadratic with math.isqrt, at O(1) cost and with no search cap, in
integers only: a = p/q enters through p and q, and the one Fraction is
the reported a.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .values import Rational, RationalLike, Record, as_int, as_rational, cut


class BoundError(ValueError):
    pass


class RRData(Record):
    """Degree and Euler-characteristic data of a polarized surface:
    chi(L^n) = n^2*d/2 + n*c/2 + c'.

    vanishing_multiplier is the integer l for which the model certifies
    h^0((L^l)^n) = chi for all n >= 1; bounds computed from this data
    apply to L^l and are reported with l attached.
    """

    __slots__ = _fields = ("d", "c", "c_prime", "vanishing_multiplier")
    _defaults = {"vanishing_multiplier": 1}

    def __post_init__(self):
        for name in self._fields:
            as_int(getattr(self, name), name, BoundError)
        if self.d < 1:
            raise BoundError(f"degree must be positive, got {cut(self.d)}")
        if self.vanishing_multiplier < 1:
            raise BoundError("vanishing_multiplier must be a positive integer")


class DegreeBound(Record):
    """Certified degree bound B = M*d for curves of ratio <= a.

    M is the least admissible multiplier (n with n*a integral) whose
    dimension count l(n) is positive; all smaller admissible n have
    l(n) <= 0 by construction.
    """

    __slots__ = _fields = ("a", "M", "B", "vanishing_multiplier")
    _defaults = {"vanishing_multiplier": 1}


def l_poly(rr: RRData, a: RationalLike, n: int) -> Rational:
    """The excess-dimension count l(n) = (d - a^2)n^2/2 + (c - 3a)n/2 + (c' - 1).

    Positive l(n) guarantees a member of |L^n| with multiplicity > n*a at
    any prescribed point.  n*a must be an integer for the count to make
    sense.
    """
    a, n = as_rational(a, "a", BoundError), as_int(n, "n", BoundError)
    if n < 1:
        raise BoundError(f"n must be positive, got {cut(n)}")
    if (n * a).denominator != 1:
        raise BoundError(f"n*a must be integral, got {cut(n)}*{cut(a)}")
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
    exactly.  The range checks a > 0 and a^2 < d are the integer tests
    p > 0 and A > 0, so no Fraction is compared or multiplied; every step
    is exact integer arithmetic, and no input meets a search cap.
    """
    a = as_rational(a, "threshold", BoundError)
    p, q = a.numerator, a.denominator
    if p <= 0:
        raise BoundError(f"threshold must be positive, got {cut(a)}")
    d = rr.d
    A = d * q * q - p * p  # a^2 < d iff A > 0
    if A <= 0:
        raise BoundError(f"threshold^2 must be strictly below the degree: {cut(a)}^2 >= {cut(d)}")
    b = rr.c * q - 3 * p
    C = 2 * (rr.c_prime - 1)
    j = 1
    if A + b + C <= 0:
        # f(1) = A + b + C <= 0: f has a real root, so D = b^2 - 4AC >= 0,
        # and the answer is floor(r) + 1 for the larger root
        # r = (-b + sqrt(D)) / (2A).
        # For an integer k, 2Ak + b <= sqrt(D) iff 2Ak + b <= isqrt(D),
        # so the floor taken with isqrt is exact and needs no fix-up.
        j = (-b + math.isqrt(b * b - 4 * A * C)) // (2 * A) + 1
    M = q * j
    return DegreeBound(a, M, M * d, rr.vanishing_multiplier)


def multiplicity_target(M: int, a: RationalLike) -> int:
    """The forced multiplicity M*a + 1 of the auxiliary divisor in the
    bound argument; exposed for report transparency."""
    M, a = as_int(M, "M", BoundError), as_rational(a, "a", BoundError)
    Ma = M * a
    if Ma.denominator != 1:
        raise BoundError(f"M*a must be integral, got {cut(M)}*{cut(a)}")
    return int(Ma) + 1
