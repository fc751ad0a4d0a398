"""The candidate ratios that a degree bound makes finite: every t/m <=
alpha with m <= t <= B, for the bound B of `degree.minimal_M`.  They are
the inverses of the Farey fractions of order B in [1/alpha, 1], so a
Farey next-term walk lists them in ascending order at one integer step
per ratio (`candidate_ratios`, `candidate_walk`), down to a last term
that a Stern-Brocot descent finds beforehand in O(log B) steps, and a
Moebius sum of floor sums counts them without listing any, in
O(B^(2/3)) (`candidate_count`).  A listed ratio's Fraction is built
from its walk pair without Fraction's gcd, since each pair is reduced
with a positive denominator, and, when the list is long enough to pay
for it, from one table of the ints 0..B.  The count's Mertens table is
L + 1 bytes of mu plus 8(L + 1) bytes of prefix sums, with L about
B^(2/3).  A member's set and a family's union of them are held unlisted
(`CandidateSuperset`, `SupersetUnion`); `mediant_bounds` bounds a mediant.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate, compress
from typing import Callable, Iterator, List, Sequence, Tuple

from .degree import BoundError, RRData, minimal_M
from .values import Rational, RationalLike, Record, as_int, as_rational, cut, set_field
from .values import without_collection


def _farey_ceil(B: int, u: int, v: int) -> Tuple[int, int]:
    """The least term >= u/v of the fractions in [0, 1] with denominator
    <= B, as a reduced pair, for reduced u/v in [0, 1]: u/v itself when
    v <= B.

    Otherwise u/v lies strictly between two neighbours a/b < c/d of the
    Stern-Brocot tree, starting from 0/1 and 1/1, and each turn moves
    one of them as far toward u/v as it goes in one batch: a/b to
    (a + k*c)/(b + k*d) with the largest k that keeps it below u/v and
    its denominator <= B, then c/d likewise from above.  Each turn takes
    a partial quotient of u/v's continued fraction, so there are
    O(log B) of them.  Once b + d > B no fraction of denominator <= B
    lies strictly between the neighbours, so c/d is the answer (Graham,
    Knuth and Patashnik, Concrete Mathematics, sec. 4.5).
    """
    if v <= B:
        return u, v
    a, b, c, d = 0, 1, 1, 1
    while b + d <= B:
        # the step that would reach u/v itself exceeds the denominator
        # cap, since u/v has denominator v > B, so neither end meets it
        k = min((u * b - a * v) // (c * v - u * d), (B - b) // d)
        a, b = a + k * c, b + k * d
        k = min((c * v - u * d) // (u * b - a * v), (B - d) // b)
        c, d = c + k * a, d + k * b
    return c, d


def _walk_range(B: int, alpha: RationalLike) -> Tuple[int, int, int]:
    """B and the reduced numerator and denominator of alpha, checked
    positive."""
    B = as_int(B, "B", BoundError)
    if B < 1:
        raise BoundError(f"B must be positive, got {cut(B)}")
    alpha = as_rational(alpha, "alpha", BoundError)
    if alpha <= 0:
        raise BoundError(f"alpha must be positive, got {cut(alpha)}")
    return B, alpha.numerator, alpha.denominator


def _check_after_end(B: int, a: int, b: int, c: int, d: int, u: int, v: int) -> None:
    """Raise unless the term after the end term c/d, downward from the
    neighbour a/b, lies below u/v, so that no term >= u/v was left out."""
    k = (B + b) // d
    if (k * c - a) * v >= (k * d - b) * u:
        raise BoundError(f"the Farey walk ended at {c}/{d}, above its last term >= {u}/{v}")


def candidate_walk(
    B: int, alpha: RationalLike, require_m_le_t: bool = True
) -> Iterator[Tuple[int, int]]:
    """The pairs behind candidate_ratios: reduced (t, m) with t, m <= B
    and t/m <= alpha in ascending order of t/m, restricted to m <= t
    when require_m_le_t.  Distinct pairs are distinct ratios.

    Both branches run candidate_ratios' loop, a walk of the Farey
    sequence F_B downward to its least term >= u/v, found beforehand by
    _farey_ceil.  The pairs t/m >= 1 are the inverses m/t of F_B on
    [1/alpha, 1], from 1/1.  The pairs t/m < 1, listed first when m <= t
    is not required, are F_B itself upward from 1/B, walked as their
    mirror images 1 - t/m downward from (B - 1)/B: F_B is symmetric
    about 1/2, and the next-term recurrence is linear, so it maps the one
    walk onto the other.
    """
    B, p, q = _walk_range(B, alpha)
    walks = []
    if not require_m_le_t and B > 1 and p * B >= q:
        # 1 - t/m >= max(1 - alpha, 1/B): t/m <= alpha and t/m < 1
        walks.append((True, (1, 1, B - 1, B), (q - p, q) if p < q else (1, B)))
    if p >= q:
        # 1/1's neighbour above is (B+1)/B
        walks.append((False, (B + 1, B, 1, 1), (q, p)))
    for mirrored, (a, b, c, d), (u, v) in walks:
        end_c, end_d = _farey_ceil(B, u, v)
        while True:
            yield (d - c, d) if mirrored else (d, c)
            if d == end_d:
                if c * v < d * u:
                    raise BoundError(f"the Farey walk passed {u}/{v} before its end term")
                if c == end_c:
                    break
            k = (B + b) // d
            a, c = c, k * c - a
            b, d = d, k * d - b
        _check_after_end(B, a, b, c, d, u, v)


@without_collection
def candidate_ratios(B: int, alpha: RationalLike) -> List[Rational]:
    """All ratios t/m <= alpha with 1 <= m <= t <= B, deduplicated and
    ascending.  This is a finite superset of every attainable local
    Seshadri value <= alpha for families whose curves obey the degree
    bound B (under the very-ampleness normalization m <= t).

    The ratios are the inverses m/t of the Farey sequence F_B on
    [1/alpha, 1], walked downward from 1/1 by the next-term recurrence:
    three consecutive terms x > y > z satisfy x + z = k*y termwise, with
    k = (B + den(x)) // den(y) (Hardy and Wright, An Introduction to the
    Theory of Numbers, ch. III).  The walk's last term, the least term
    >= 1/alpha, comes from _farey_ceil in O(log B) steps before it
    starts, so the loop runs inline, with no generator, and compares
    only a denominator per step; it stops right after that term.  A
    walk that passes below 1/alpha at the end term's denominator, or
    whose next term would still be >= 1/alpha, raises BoundError, so a
    wrong end term can neither hang nor shorten the list.  There is no
    gcd, set or sort.  Each Fraction is built without Fraction's own gcd
    and argument dispatch: each walk pair is reduced with m >= 1, so
    setting the two slots is exact.

    The slots hold ints from one table of 0..B, shared by all ratios,
    in place of the walk's fresh ints, so the Fraction is the one new
    object per ratio, when alpha >= B/(B - 3), that is (p - q)*B >= 3p
    for alpha = p/q.  Then t/(t - 1) <= alpha for t >= B/3 and
    t/(t - 2) <= alpha for t >= 2B/3, so the list holds about 5B/6
    Fractions at 56 bytes each with its pointer, more than the table's
    at most 40 bytes per int.  Below that, range(B + 1) stands in: it
    allocates nothing and indexes to the same values.
    """
    B, p, q = _walk_range(B, alpha)
    if p < q:
        return []
    ints = list(range(B + 1)) if (p - q) * B >= 3 * p else range(B + 1)
    end_m, end_t = _farey_ceil(B, q, p)
    ratios: List[Rational] = []
    append, new = ratios.append, object.__new__
    # candidate_walk's loop for t/m >= 1: the terms m/t = c/d of F_B
    # downward from 1/1, whose neighbour above is (B+1)/B
    a, b, c, d = B + 1, B, 1, 1
    while True:
        # Fraction's two slots, set as Fraction(d, c) would set them: the
        # pair is already in lowest terms with a positive denominator
        r = new(Fraction)
        r._numerator, r._denominator = ints[d], ints[c]
        append(r)
        if d == end_t:
            if c * p < d * q:
                raise BoundError(f"the Farey walk passed {q}/{p} before its end term")
            if c == end_m:
                break
        k = (B + b) // d
        a, c = c, k * c - a
        b, d = d, k * d - b
    _check_after_end(B, a, b, c, d, q, p)
    return ratios


def floor_sum(n: int, m: int, a: int, b: int) -> int:
    """sum of (a*i + b) // m over 0 <= i < n, for n, a, b >= 0 and m >= 1,
    in O(log m) integer steps: the integer parts of a/m and b/m sum in
    closed form, and the rest is the count of lattice points under a
    line, which swaps the roles of a and m as Euclid's algorithm does
    (Graham, Knuth and Patashnik, Concrete Mathematics, sec. 3.5)."""
    total = 0
    while True:
        if a >= m:
            total += n * (n - 1) // 2 * (a // m)
            a %= m
        if b >= m:
            total += n * (b // m)
            b %= m
        top = a * n + b
        if top < m:
            return total
        n, b, m, a = top // m, top % m, a, m


def _mertens(limit: int) -> Callable[[int], int]:
    """M(x) = sum of the Moebius function mu(k) over 1 <= k <= x, for the
    x = limit // j: sieved up to L, about limit^(2/3), and above L by
    M(x) = 1 - sum over 2 <= k <= x of M(x // k), grouped over equal
    x // k and memoised.  Time and memory are O(limit^(2/3)): mu is a
    signed byte per k, negated along each prime's multiples by
    bytes.translate, and the sums M(k) for k <= L are an array('q'), not
    lists of pointers to int objects."""
    from array import array  # only counting needs it, not every import

    L = 1 << (2 * limit.bit_length() // 3)
    mu = bytearray([1]) * (L + 1)
    mu[0] = 0
    negate = bytes.maketrans(b"\x01\xff", b"\xff\x01")  # 1 <-> -1 as signed bytes
    prime = bytearray([0, 0]) + bytearray([1]) * (L - 1)
    # compress reads prime as the sieve clears it, so it yields primes only
    for p in compress(range(L + 1), prime):
        prime[p * p :: p] = bytes(len(range(p * p, L + 1, p)))
        mu[p::p] = mu[p::p].translate(negate)
        mu[p * p :: p * p] = bytes(len(range(p * p, L + 1, p * p)))
    small = array("q", accumulate(memoryview(mu).cast("b")))
    memo = {}

    def mertens(x: int) -> int:
        if x <= L:
            return small[x]
        if x not in memo:
            total, k = 1, 2
            while k <= x:
                v = x // k
                last = x // v
                total -= (last - k + 1) * (small[v] if v <= L else mertens(v))
                k = last + 1
            memo[x] = total
        return memo[x]

    return mertens


def candidate_count(B: int, alpha: RationalLike) -> int:
    """len(candidate_ratios(B, alpha)), without listing the ratios.

    With alpha = p/q >= 1, the pairs (t, m) with m <= t <= n and
    t/m <= alpha, reduced or not, number G(n) = sum over t <= n of
    t - ceil(t*q/p) + 1, one floor sum; a pair of gcd k is k times a
    reduced one with t <= n // k.  So the reduced pairs number
    sum over k of mu(k) * G(B // k), summed over runs of k with equal
    B // k through Mertens values: O(B^(1/2)) floor sums and
    O(B^(2/3)) for the Mertens values.  Below 1 there is no ratio."""
    B, p, q = _walk_range(B, alpha)
    if p < q:
        return 0
    mertens = _mertens(B)
    total, k = 0, 1
    while k <= B:
        n = B // k
        last = B // n
        pairs = n * (n + 1) // 2 + n - floor_sum(n, p, q, q + p - 1)
        total += (mertens(last) - mertens(k - 1)) * pairs
        k = last + 1
    return total


# a ratio t/m as its reduced integer pair (t, m), m >= 1
Pair = Tuple[int, int]


class CandidateSuperset(Record):
    """The candidate ratios of very-ampleness multiplier v at threshold
    alpha, never listed: the reduced t/(m*v) for the pairs (t, m) of
    candidate_walk(B, v*alpha), the ratios of the v-th power of the
    polarization under its degree bound B.

    `in` tests a reduced pair (a, b) in O(1): v*a/b reduces to (t, m) by
    g = gcd(v, b), and it is a walk pair iff 1 <= m <= t <= B and
    a/b <= alpha.  `size` is candidate_count(B, v*alpha); `len` is the
    same up to sys.maxsize, past which it raises.  Iterating runs the
    walk in ascending order, divided by v."""

    __slots__ = _fields = ("very_ample_multiplier", "B", "alpha")

    @classmethod
    def of(cls, rr: RRData, v: int, alpha: Rational) -> CandidateSuperset:
        """The set of a polarization L with Riemann-Roch data rr and
        very-ampleness multiplier v at threshold alpha.  The degree bound
        argument needs a very ample polarization, so B is the bound of
        L^v, whose chi(L^(vn)) has the coefficients (v^2*d, v*c, c'), at
        threshold v*alpha."""
        scaled = RRData(v * v * rr.d, v * rr.c, rr.c_prime, rr.vanishing_multiplier)
        return cls(v, minimal_M(scaled, v * alpha).B, alpha)

    def __contains__(self, pair: Pair) -> bool:
        a, b = pair
        if b < 1 or math.gcd(a, b) != 1:
            return False
        v = self.very_ample_multiplier
        g = math.gcd(v, b)
        t, m = v // g * a, b // g
        return 1 <= m <= t <= self.B and a * self.alpha.denominator <= self.alpha.numerator * b

    def __len__(self) -> int:
        return candidate_count(self.B, self.very_ample_multiplier * self.alpha)

    size = property(__len__)

    def __iter__(self) -> Iterator[Pair]:
        v = self.very_ample_multiplier
        pairs = candidate_walk(self.B, v * self.alpha)
        # t/(m*v) with gcd(t, m) = 1 reduces by g = gcd(t, v) alone
        return ((t // g, m * (v // g)) for t, m in pairs for g in (math.gcd(t, v),))


class SupersetUnion(Record):
    """The union of candidate supersets of distinct multipliers, never
    listed: a pair is in it iff one of them holds it.  `len` is exact:
    the one set's count, or with several, the first set's count plus the
    pairs of each later set that no earlier set holds, which walks every
    set after the first."""

    __slots__ = _fields = ("sets",)

    def __post_init__(self):
        set_field(self, "sets", tuple(self.sets))

    def __contains__(self, pair: Pair) -> bool:
        return any(pair in s for s in self.sets)

    def __len__(self) -> int:
        first, *rest = self.sets
        return len(first) + sum(
            1
            for i, s in enumerate(rest, 1)
            for pair in s
            if not any(pair in earlier for earlier in self.sets[:i])
        )


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
            raise BoundError(f"all entries must be positive, got ({cut(a)}, {cut(b)})")
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
