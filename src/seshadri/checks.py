"""Self-contained invariant suite over the built-in models.

Each invariant is one function of the models it checks (in the degree-bound
layer, of its seeded random source) that returns a one-line detail or raises
AssertionError naming the model and stratum that break it; a model checked
its stratum table as it was built.  The CLI `check` subcommand and the
acceptance tests call the same functions.  Everything is deterministic and
exact, so two runs produce identical output.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Callable, List, Sequence, Tuple

from .bounds import CandidateSuperset, candidate_count, candidate_ratios, candidate_walk
from .bounds import mediant_bounds
from .degree import RRData, l_poly, minimal_M
from .engine import (
    Certification,
    SeshadriValue,
    epsilon_via_curves,
    epsilon_via_nef,
    low_epsilon_strata,
    sigma_local,
    sublevel_set,
)
from .examples import builtin_suite
from .models import SurfaceModel, load_model
from .values import Record

ALPHA_GRID = [Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5, 2)]

Models = Sequence[SurfaceModel]


class CheckResult(Record):
    __slots__ = _fields = ("name", "passed", "detail")


def check_roundtrip(models: Models) -> str:
    for model in models:
        text = model.to_json()
        if load_model(text).to_json() != text:
            raise AssertionError(f"{model.name}: serialization does not round-trip")
    return f"{len(models)} models round-trip byte-for-byte"


def check_cross(models: Models) -> str:
    for model in models:
        for stratum in model.strata:
            curve = epsilon_via_curves(model, stratum).value
            nef = epsilon_via_nef(model, stratum).value
            if curve != nef:
                raise AssertionError(
                    f"{model.name}/{stratum.label}: curve path {curve.serialize()} "
                    f"!= nef path {nef.serialize()}"
                )
    return f"curve and nef paths agree on {sum(len(m.strata) for m in models)} strata"


def check_steffens_and_rationality(models: Models) -> str:
    for model in models:
        ceiling = model.ceiling
        for label, res in model.stratum_table.items():
            if res.value > ceiling:
                raise AssertionError(f"{model.name}/{label}: value exceeds sqrt(d)")
            if res.certification is Certification.EXACT_CERTIFIED and res.value < ceiling:
                if not res.value.is_exact:
                    raise AssertionError(
                        f"{model.name}/{label}: certified value below sqrt(d) is not rational"
                    )
                if res.witness is None or res.witness.ratio != res.value.rational:
                    raise AssertionError(
                        f"{model.name}/{label}: certified value lacks a reproducing witness"
                    )
    n = sum(len(m.strata) for m in models)
    return f"sqrt(d) ceiling and witness rationality hold on {n} strata"


def check_sublevel(models: Models) -> str:
    grid = [Fraction(k, 4) for k in range(1, 17)]
    for model in models:
        previous: set = set()
        for a in grid:
            current = set(sublevel_set(model, a))
            if not previous <= current:
                raise AssertionError(
                    f"{model.name}: sublevel set shrank between thresholds at {a}"
                )
            previous = current
    n = len(models) * len(grid)
    return f"sublevel sets closed and monotone over {n} (model, threshold) pairs"


def check_low_epsilon(models: Models) -> str:
    delta = Fraction(1, 100)
    found = 0
    for model in models:
        for label, value in low_epsilon_strata(model, delta):
            if model.stratum(label).closure_dim != 0:
                raise AssertionError(
                    f"{model.name}: positive-dimensional stratum {label!r} has "
                    f"value {value.serialize()} <= 1 - {delta}"
                )
            found += 1
    return f"all strata with value <= 99/100 are zero-dimensional ({found} found)"


def check_candidate_membership(models: Models) -> str:
    n = 0
    for model in models:
        for alpha in ALPHA_GRID:
            if alpha * alpha >= model.rr.d:
                continue
            superset = CandidateSuperset.of(model.rr, model.very_ample_multiplier, alpha)
            bound = SeshadriValue.exact(alpha)
            for label, res in model.stratum_table.items():
                if res.certification is Certification.EXACT_CERTIFIED and res.value <= bound:
                    q = res.value.rational
                    if (q.numerator, q.denominator) not in superset:
                        raise AssertionError(
                            f"{model.name}/{label}: certified value "
                            f"{res.value.serialize()} missing from candidate set "
                            f"at alpha={alpha}"
                        )
                    n += 1
    if n == 0:
        raise AssertionError("no certified value at or below the alpha grid to check")
    return f"{n} certified values found in their candidate supersets"


def linear_minimal_M(rr: RRData, a: Fraction) -> int:
    """M by its definition: the least admissible multiplier n (a multiple
    of a's denominator) with l(n) > 0, walked one at a time."""
    q = n = a.denominator
    while l_poly(rr, a, n) <= 0:
        n += q
    return n


def brute_force_pairs(B: int, alpha: Fraction, certified: bool = True) -> List[Tuple[int, int]]:
    """Every ratio t/m <= alpha with 1 <= t <= B and 1 <= m <= t (or, not
    certified, m <= B), as reduced pairs (t, m) ascending in t/m, by a
    double loop over (t, m) in integers.  Every m divides L = lcm(1..B),
    so t*L//m is an exact integer key that orders the ratios."""
    p, q = alpha.numerator, alpha.denominator
    pairs = set()
    for t in range(1, B + 1):
        for m in range(1, (t if certified else B) + 1):
            if t * q <= p * m:
                g = math.gcd(t, m)
                pairs.add((t // g, m // g))
    L = math.lcm(*range(1, B + 1))
    return sorted(pairs, key=lambda tm: tm[0] * L // tm[1])


def check_minimal_M_closed_form(rng: random.Random) -> str:
    cases = []
    for _ in range(25):
        d = rng.randint(2, 200)
        rr = RRData(d, rng.randint(-20, 20), rng.randint(-3, 5))
        den = rng.randint(1, 12)
        cases.append((rr, Fraction(rng.randint(1, math.isqrt(d * den * den - 1)), den)))
    # a random threshold rarely needs more than 2 steps of the walk; the
    # largest p/q below sqrt(d) with c' <= 1 walks far longer
    for _ in range(10):
        d = rng.randint(2, 1000)
        rr = RRData(d, rng.randint(-20, 20), rng.randint(-3, 1))
        den = rng.randint(1, 12)
        cases.append((rr, Fraction(math.isqrt(d * den * den - 1), den)))
    longest = 0
    for rr, a in cases:
        M = linear_minimal_M(rr, a)
        if minimal_M(rr, a).M != M:
            raise AssertionError(f"closed-form minimal_M differs at {rr}, a={a}")
        longest = max(longest, M // a.denominator)
    return (
        "closed-form minimal_M matches the linear l_poly scan on 25 random cases "
        f"and 10 thresholds just below sqrt(d), in walks of up to {longest} steps"
    )


def check_candidates_brute_force(rng: random.Random) -> str:
    for _ in range(25):
        B = rng.randint(1, 40)
        alpha = Fraction(rng.randint(1, 60), rng.randint(1, 12))
        for certified in (True, False):
            walked = list(candidate_walk(B, alpha, require_m_le_t=certified))
            brute = brute_force_pairs(B, alpha, certified)
            if walked != brute:
                raise AssertionError(
                    f"candidate enumeration differs at B={B}, alpha={alpha}, "
                    f"certified={certified}"
                )
            if not certified:
                continue
            if candidate_count(B, alpha) != len(brute):
                raise AssertionError(f"candidate count differs at B={B}, alpha={alpha}")
            # candidate_ratios sets Fraction's slots itself, so a Python that
            # lays Fraction out otherwise fails here, by value, hash or error
            ratios = candidate_ratios(B, alpha)
            want = [Fraction(t, m) for t, m in brute]
            if ratios != want or list(map(hash, ratios)) != list(map(hash, want)):
                raise AssertionError(f"candidate ratios differ at B={B}, alpha={alpha}")
    return (
        "candidate enumeration matches double-loop brute force on 25 random cases, "
        "certified and permissive"
    )


def check_mediant(rng: random.Random, max_parts: int) -> str:
    for _ in range(1000):
        parts = [
            (Fraction(rng.randint(1, 1000), rng.randint(1, 1000)),
             Fraction(rng.randint(1, 1000), rng.randint(1, 1000)))
            for _ in range(rng.randint(1, max_parts))
        ]
        lo, mid, hi = mediant_bounds(parts)
        if not (lo <= mid <= hi):
            raise AssertionError(f"mediant inequality fails on {parts}")
    return "mediant inequality holds on 1000 random lists"


def check_sigma_attainment(models: Models) -> str:
    out = []
    for model in models:
        sig = sigma_local(model)
        out.append(f"{model.name}={sig.value.serialize()}")
    return "supremum attained on the dense stratum: " + ", ".join(out)


def _section_count(model: SurfaceModel, n: int) -> int:
    """h^0(nL), n >= 1, counted classically on the surfaces the built-ins
    present: plane curves of degree ne for L = eH on the plane, forms of
    bidegree (na, nb) on the quadric, and plane curves of degree na with a
    point of multiplicity nb for L = aH - bE on F1."""
    gram, L = model.lattice.gram, model.polarization
    if gram == ((1,),):
        (e,) = L
        return (n * e + 1) * (n * e + 2) // 2
    if gram == ((0, 1), (1, 0)):
        a, b = L
        return (n * a + 1) * (n * b + 1)
    if gram == ((1, 0), (0, -1)):
        a, b = n * L[0], -n * L[1]
        return (a + 1) * (a + 2) // 2 - b * (b + 1) // 2
    raise AssertionError(f"{model.name}: no known section count")


def check_rr_sanity(models: Models) -> str:
    for model in models:
        rr = model.rr
        for n in range(1, 11):
            chi = Fraction(n * n * rr.d, 2) + Fraction(n * rr.c, 2) + rr.c_prime
            sections = _section_count(model, n)
            if chi != sections:
                raise AssertionError(f"{model.name}: chi({n}L) = {chi} but h^0 = {sections}")
    return f"chi(nL) matches the known section counts for n = 1..10 on {len(models)} models"


# the degree-bound checks need no model, only their seeded draw
ALL_CHECKS: List[Tuple[str, Callable[[Models], str]]] = [
    ("roundtrip", check_roundtrip),
    ("cross_check", check_cross),
    ("steffens_rationality", check_steffens_and_rationality),
    ("sublevel_closedness", check_sublevel),
    ("low_epsilon_finiteness", check_low_epsilon),
    ("candidate_membership", check_candidate_membership),
    ("minimal_M_closed_form", lambda _: check_minimal_M_closed_form(random.Random(20251018))),
    ("candidate_brute_force", lambda _: check_candidates_brute_force(random.Random(20240817))),
    ("mediant_inequality", lambda _: check_mediant(random.Random(991), max_parts=8)),
    ("sigma_attainment", check_sigma_attainment),
    ("rr_sanity", check_rr_sanity),
]


def run_all_checks() -> List[CheckResult]:
    models = builtin_suite()
    results = []
    for name, fn in ALL_CHECKS:
        try:
            results.append(CheckResult(name, True, fn(models)))
        except Exception as exc:  # a failed invariant, whatever its shape
            results.append(CheckResult(name, False, f"{type(exc).__name__}: {exc}"))
    return results
