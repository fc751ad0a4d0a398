"""Reference computations the benchmark checks the program against.

Nothing here imports the package under test.  Every oracle works in
integer arithmetic from the mathematical definitions, by a different
method than the program uses:

- the least admissible multiplier from the exact quadratic (isqrt), not a
  linear search;
- the candidate ratios from a Farey next-term walk, with no gcd or sort;
- the nef threshold of a stratum from its blow-up generators, compared
  with sqrt(d) by squaring;
- the known local constants of the built-in surfaces.

A value is either ("q", p, q) for the reduced rational p/q or
("sqrt", d) for an irrational sqrt(d); perfect squares are rational.
"""

from __future__ import annotations

import math
import re

EXACT = "exact_certified"
LOWER = "lower_bound_only"
UPPER = "upper_bound_only"


def rational(p: int, q: int = 1) -> tuple:
    if q < 0:
        p, q = -p, -q
    g = math.gcd(p, q)
    return ("q", p // g, q // g)


def sqrt_value(d: int) -> tuple:
    r = math.isqrt(d)
    return ("q", r, 1) if r * r == d else ("sqrt", d)


def value_lt(u: tuple, v: tuple) -> bool:
    """Exact u < v for values as above, comparing with sqrt by squaring."""
    if u[0] == "q" and v[0] == "q":
        return u[1] * v[2] < v[1] * u[2]
    if u[0] == "q":  # p/q < sqrt(d)
        return u[1] <= 0 or u[1] * u[1] < v[1] * u[2] * u[2]
    if v[0] == "q":  # sqrt(d) < p/q
        return v[1] > 0 and u[1] * v[2] * v[2] < v[1] * v[1]
    return u[1] < v[1]


_VALUE_TEXT = re.compile(r"^(?:sqrt\((\d+)\)|(-?\d+)(?:/(\d+))?)$")


def parse_value(text: str) -> tuple:
    """Read a serialized value: "p", "p/q" or "sqrt(d)"."""
    match = _VALUE_TEXT.match(text.strip())
    if match is None:
        raise ValueError(f"not a value: {text!r}")
    if match.group(1) is not None:
        return sqrt_value(int(match.group(1)))
    return rational(int(match.group(2)), int(match.group(3) or 1))


def parse_ratio(text: str) -> tuple:
    """Read "p" or "p/q" as a reduced (p, q) pair."""
    value = parse_value(text)
    if value[0] != "q":
        raise ValueError(f"not a rational: {text!r}")
    return value[1], value[2]


# ---------------------------------------------------------------------------
# Degree bound


def least_multiplier(d: int, c: int, c_prime: int, p: int, q: int) -> int:
    """Least n, a multiple of q, with l(n) > 0 for the threshold a = p/q
    (reduced, 0 < a, a^2 < d), where
    l(n) = (d - a^2) n^2 / 2 + (c - 3a) n / 2 + (c' - 1).

    Writing n = q*j, 2*l(n) = f(j) = A j^2 + b j + C with A = d q^2 - p^2,
    b = c q - 3 p and C = 2 (c' - 1).  f is a convex parabola.  If
    f(1) > 0 (always possible when c' > 1, where l is positive left of
    the smaller root) the answer is j = 1.  Otherwise 1 lies between the
    roots, so the answer is the least integer above the larger root,
    found with isqrt and a fix-up of at most a few steps.
    """
    A = d * q * q - p * p
    if p <= 0 or q <= 0 or A <= 0:
        raise ValueError(f"threshold {p}/{q} must satisfy 0 < a^2 < {d}")
    b = c * q - 3 * p
    C = 2 * (c_prime - 1)

    def f(j: int) -> int:
        return (A * j + b) * j + C

    if f(1) > 0:
        return q
    j = max(1, (-b + math.isqrt(b * b - 4 * A * C)) // (2 * A))
    while j > 1 and f(j - 1) > 0:
        j -= 1
    while f(j) <= 0:
        j += 1
    return q * j


# ---------------------------------------------------------------------------
# Candidate ratios


def farey_ratios(B: int, p: int, q: int):
    """Yield (t, m) for the reduced ratios t/m with 1 <= m <= t <= B and
    t/m <= p/q, in ascending order of t/m.

    These are the inverses of the Farey fractions m/t of order B in
    [q/p, 1], walked downward from 1/1 with the next-term recurrence
    (Hardy & Wright, ch. III).
    """
    if B < 1 or p < q:
        return
    a, b = 1, 1  # current term a/b
    yield b, a
    if B == 1:
        return
    c, e = B - 1, B  # the term just below 1/1
    while c * p >= e * q:  # c/e >= q/p
        yield e, c
        k = (B + b) // e
        a, b, c, e = c, e, k * c - a, k * e - b


def in_superset(t: int, m: int, B: int, p: int, q: int) -> bool:
    """Membership of the reduced ratio t/m in the candidate set."""
    return 1 <= m <= t <= B and t * q <= p * m


# ---------------------------------------------------------------------------
# Strata of a model document


def _pair(gram, u, v) -> int:
    return sum(
        u[i] * gram[i][j] * v[j] for i in range(len(u)) if u[i] for j in range(len(v)) if v[j]
    )


def degree(doc: dict) -> int:
    L = doc["polarization"]
    return _pair(doc["gram"], L, L)


def nef_threshold(doc: dict, stratum: str) -> tuple:
    """Largest s with (L - s E) . C >= 0 for every blow-up generator C of
    the stratum, capped by (L - s E)^2 >= 0.  On the blow-up lattice
    (gram plus a -1 block) a generator with last coordinate -m meets E in
    m and the pulled-back polarization in L . C."""
    gram, L = doc["gram"], doc["polarization"]
    rank = len(L)
    d = _pair(gram, L, L)
    best = sqrt_value(d)
    for gen in doc["blowup_gens"][stratum]:
        cls = gen["class"]
        m = -cls[rank]
        if m <= 0:
            continue
        t = _pair(gram, L, cls[:rank])
        cand = rational(t, m)
        if value_lt(cand, best):
            best = cand
    return best


def curve_table(doc: dict, stratum: str) -> tuple:
    """(value, certification) of the stratum's curve table: the least
    listed ratio capped by sqrt(d), exact exactly when the table is
    declared complete below that value (or below sqrt(d) when the cap
    binds)."""
    d = degree(doc)
    ceiling = sqrt_value(d)
    sd = next(s for s in doc["strata"] if s["label"] == stratum)
    ocb = None if sd["oracle_complete_below"] is None else parse_value(sd["oracle_complete_below"])
    least = None
    for cand in sd["candidates"]:
        r = rational(cand["t"], cand["m"])
        if least is None or value_lt(r, least):
            least = r
    if least is None:
        if ocb is None:
            return ceiling, UPPER
        if not value_lt(ocb, ceiling):
            return ceiling, EXACT
        return ocb, LOWER
    if value_lt(least, ceiling):
        certified = ocb is not None and not value_lt(ocb, least)
        return least, EXACT if certified else UPPER
    certified = ocb is not None and not value_lt(ocb, ceiling)
    return ceiling, EXACT if certified else UPPER


def stratum_value(doc: dict, stratum: str) -> tuple:
    """(value, certification) of a stratum whose curve table and blow-up
    generators must agree; a disagreement is a fault in the input."""
    value, cert = curve_table(doc, stratum)
    if stratum in doc["blowup_gens"]:
        nef = nef_threshold(doc, stratum)
        if nef != value:
            raise ValueError(f"stratum {stratum!r}: curve table {value} != nef threshold {nef}")
    return value, cert


# ---------------------------------------------------------------------------
# Built-in surfaces


def known_value(builtin: str, params: dict, stratum: str) -> tuple:
    """Local constants of the built-in surfaces: e on the plane with
    O(e), min(a, b) on the quadric with O(a, b), and on the first
    Hirzebruch surface with -K, 2 at a general point and 1 on E."""
    if builtin == "projective_plane":
        return rational(params["e"])
    if builtin == "quadric":
        return rational(min(params["a"], params["b"]))
    if builtin == "f1_anticanonical":
        return rational({"generic": 2, "on_E": 1}[stratum])
    raise ValueError(f"no known value for {builtin!r}")
