"""Models that are consistent by construction, for the property tests:
`blown_up_plane` writes the document of a blown-up plane from explicit
strata, and `blown_up_plane_documents` draws such documents top down, so
that every draw builds with no filter.  The draw follows the classical
rules that a model's tables obey at a point x of a surface, Y its
blow-up at x with exceptional curve E:

- pi^*L - sE is nef exactly when s <= epsilon(L; x) (Lazarsfeld,
  Positivity I, 5.1), so a listed generator set lists Ex, and its least
  ratio t/m is the stratum's value, at most sqrt(d);
- the class that binds at that ratio has a negative square (the Hodge
  index theorem, Hartshorne V.1.9), or square 0 where t/m is an
  integral sqrt(d);
- no value rises on specializing: each special stratum's value is at
  most the dense stratum's and that of each stratum it specializes from.
"""

import bisect
import functools
import itertools
import math
from fractions import Fraction
from typing import NamedTuple, Optional

from hypothesis import strategies as st


class Stratum(NamedTuple):
    """One stratum of `blown_up_plane`.  `gens` lists its blow-up
    generators C - m*Ex besides Ex as (coordinates of C, m), or is None
    for a stratum with no set; `candidates` are the indices of the
    generators with m >= 1 that its curve table lists as (L.C, m), with
    C's coordinates as their class; `threshold` is its completeness
    threshold, a Fraction, or None; `specializes_from` lists the labels
    of its general strata, and the dense stratum's is not read."""

    gens: Optional[tuple] = None
    candidates: tuple = ()
    threshold: Optional[Fraction] = None
    specializes_from: tuple = ("generic",)


def _degree(k, j, coords):
    """L.C for L = kH - (j_1 E_1 + ... + j_n E_n) and C = aH + e_1 E_1 +
    ... + e_n E_n, coords = (a, e_1, ..., e_n): H^2 = 1, E_i^2 = -1."""
    return k * coords[0] + sum(x * e for x, e in zip(j, coords[1:]))


def blown_up_plane(k, j, strata):
    """The document of the plane blown up in n = len(j) points, on the
    diagonal gram <1, -1, ..., -1>, with L = kH - (j_1 E_1 + ... +
    j_n E_n) and d = k^2 - (j_1^2 + ... + j_n^2).  `strata` lists each
    stratum as a `Stratum`: the first is the dense stratum `generic`, and
    stratum s >= 1 is the point stratum `s<s>`.  A listed set starts with
    Ex, and the generators are labelled g0, g1, ..., each candidate as its
    generator.  The document declares the least very_ample_multiplier its
    rows allow, the ceiling of the largest m/(L.C).  Nothing is repaired:
    a document whose tables disagree fails to load."""
    rank = len(j) + 1
    gram = [[(1 if i == 0 else -1) if i == c else 0 for c in range(rank)] for i in range(rank)]
    strata_docs, blowup_gens, multiplier = [], {}, 1
    for s, stratum in enumerate(strata):
        label = "generic" if s == 0 else f"s{s}"
        gens = stratum.gens or ()
        if stratum.gens is not None:
            blowup_gens[label] = [{"label": "Ex", "class": [0] * rank + [1]}] + [
                {"label": f"g{g}", "class": list(coords) + [-m]}
                for g, (coords, m) in enumerate(gens)
            ]
        for coords, m in gens:
            if m >= 1:
                multiplier = max(multiplier, -(-m // _degree(k, j, coords)))
        strata_docs.append(
            {
                "label": label,
                "closure_dim": 2 if s == 0 else 0,
                "specializes_from": [] if s == 0 else list(stratum.specializes_from),
                "oracle_complete_below": (
                    None if stratum.threshold is None else str(stratum.threshold)
                ),
                "candidates": [
                    {"label": f"g{g}", "class": list(coords), "t": _degree(k, j, coords), "m": m}
                    for g in stratum.candidates
                    for coords, m in [gens[g]]
                ],
            }
        )
    return {
        "schema_version": 1,
        "name": "blown_up_plane",
        "rank": rank,
        "gram": gram,
        "basis_labels": ["H"] + [f"E{i}" for i in range(1, rank)],
        "polarization": [k] + [-x for x in j],
        "rr": {
            "d": k * k - sum(x * x for x in j),
            "c": 3 * k - sum(j),
            "c_prime": 1,
            "vanishing_multiplier": 1,
        },
        "very_ample_multiplier": multiplier,
        "strata": strata_docs,
        "blowup_gens": blowup_gens,
    }


# the plane blown up in one point, L = 2H - E1, d = 3: generic at sqrt(3)
# with no set, and s1 at 1/2 by E1 - 2Ex, m = 2 > L.E1 = 1, listed as a
# candidate too, so the document declares very_ample_multiplier 2
MULTIPLIER_TWO = blown_up_plane(
    2, (1,), [Stratum(), Stratum(gens=(((0, 1), 2),), candidates=(0,), threshold=Fraction(1, 2))]
)


@st.composite
def blown_up_plane_documents(draw, max_points=4, max_strata=4, dense_at_ceiling=True):
    """A `blown_up_plane` document drawn top down, which builds.

    L = kH - sum j_i E_i with n <= max_points, each j_i in 0..2, and k
    at least the least integer with d >= max(1, j_i^2): so E_i - Ex
    binds at ratio j_i <= sqrt(d), or, with every j_i = 0, H - Ex binds
    at k = sqrt(d), and a square d is reachable.  The classes C are
    aH + sum e_i E_i with a in 0..3, each e_i in -1..1 and L.C >= 1.

    The dense stratum comes first: at sqrt(d) with no set (when
    `dense_at_ceiling`), or at the ratio of a binding class of ratio at
    least 1, since epsilon(L; x) >= 1 at a very general point x of a
    surface (Ein and Lazarsfeld, Seshadri constants on smooth surfaces,
    1993).  Each of the other strata, up to `max_strata` in all,
    specializes from some of the strata before it, and its value is the
    ratio of a binding class at most each of their values and the dense
    one's.  A binding class C - m*Ex has m in 1..2, t = L.C with
    t^2 <= d*m^2, and (C - m*Ex)^2 < 0, or = 0 where t/m = sqrt(d).  A
    set lists Ex, then up to three classes of m in 0..3 and larger ratio
    with one or two binding classes at the stratum's value among them.
    The candidates are a subset of the set's rows with m >= 1, and the
    threshold is i/4 of the value (of isqrt(d) at the ceiling), i in
    1..4, or None.  Every value is then at least 1/2, since t >= 1 and
    m <= 2, so the document declares very_ample_multiplier 1 or 2;
    `MULTIPLIER_TWO` is a fixed document that declares 2."""
    j = tuple(draw(st.lists(st.integers(0, 2), min_size=1, max_size=max_points)))
    squares = sum(x * x for x in j)
    least_k = math.isqrt(squares + max(1, max(j) ** 2) - 1) + 1
    k = draw(st.integers(least_k, least_k + 5))
    d = k * k - squares
    classes, binding, ratios = _classes(k, j)

    values, strata = [], []  # each stratum's value, None for sqrt(d)
    for s in range(draw(st.integers(1, max_strata))):
        if s == 0:
            generals = ()
            if dense_at_ceiling and draw(st.booleans()):
                values.append(None)
                quarter = draw(st.integers(0, 4))
                threshold = Fraction(quarter * math.isqrt(d), 4) if quarter else None
                strata.append(Stratum(threshold=threshold))
                continue
            value = draw(st.sampled_from(ratios[bisect.bisect_left(ratios, 1):]))
        else:
            earlier = ["generic"] + [f"s{i}" for i in range(1, s)]
            generals = tuple(draw(st.lists(st.sampled_from(earlier), min_size=1, unique=True)))
            caps = [values[0]] + [values[earlier.index(g)] for g in generals]
            cap = min((v for v in caps if v is not None), default=ratios[-1])
            value = draw(st.sampled_from(ratios[: bisect.bisect_right(ratios, cap)]))
        values.append(value)
        larger = []
        for _ in range(draw(st.integers(0, 3))):
            c, t = draw(st.sampled_from(classes))
            # a larger ratio, m*value < t: m is below t/value
            most = min(3, (t * value.denominator - 1) // value.numerator)
            larger.append((c, draw(st.integers(0, most))))
        at = draw(st.integers(0, len(larger)))
        binds = [draw(st.sampled_from(binding[value])) for _ in range(draw(st.integers(1, 2)))]
        gens = tuple(larger[:at] + binds + larger[at:])
        listed = [g for g, (_, m) in enumerate(gens) if m >= 1]
        subset = draw(st.integers(0, 2 ** len(listed) - 1))  # a bit per listed row
        candidates = tuple(g for i, g in enumerate(listed) if subset >> i & 1)
        quarter = draw(st.integers(0, 4))
        threshold = value * Fraction(quarter, 4) if quarter else None
        strata.append(Stratum(gens, candidates, threshold, generals))
    return blown_up_plane(k, j, strata)


@functools.lru_cache(maxsize=None)  # at most 6 values of k for each of 120 tuples j
def _classes(k, j):
    """The classes C = aH + sum e_i E_i, a in 0..3 and each e_i in -1..1,
    with L.C >= 1, as (coordinates, L.C); the binding classes C - m*Ex
    among them, m in 1..2, as (coordinates, m) keyed by their ratio t/m;
    and those ratios in ascending order."""
    d = k * k - sum(x * x for x in j)
    classes, binding = [], {}
    for e in itertools.product((-1, 0, 1), repeat=len(j)):
        dot, norm = sum(x * y for x, y in zip(j, e)), sum(map(abs, e))  # norm = sum e_i^2
        for a in range(4):
            t = k * a + dot
            if t < 1:
                continue
            classes.append(((a,) + e, t))
            for m in (1, 2):
                square = a * a - norm - m * m
                if t * t <= d * m * m and (square < 0 or square == 0 and t * t == d * m * m):
                    binding.setdefault(Fraction(t, m), []).append(((a,) + e, m))
    binding = {ratio: tuple(rows) for ratio, rows in binding.items()}
    return tuple(classes), binding, tuple(sorted(binding))
