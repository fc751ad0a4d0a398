"""Self-contained invariant suite over the built-in models.

Everything here is deterministic (seeded randomness only) and exact, so
two runs produce identical output; the CLI `check` subcommand prints one
line per check and fails on any violation.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List

from .bounds import RRData, candidate_ratios, l_poly, mediant_bounds, minimal_M
from .engine import (
    Certification,
    SeshadriValue,
    epsilon,
    epsilon_via_curves,
    epsilon_via_nef,
    low_epsilon_strata,
    sigma_local,
    sublevel_set,
)
from .family import member_candidate_superset
from .models import builtin_suite, load_model
from .values import cmp_value

ALPHA_GRID = [Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5, 2)]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _check(name: str, fn: Callable[[], str]) -> CheckResult:
    try:
        return CheckResult(name, True, fn())
    except Exception as exc:  # a failed invariant, whatever its shape
        return CheckResult(name, False, f"{type(exc).__name__}: {exc}")


def check_roundtrip() -> str:
    n = 0
    for model in builtin_suite():
        text = model.to_json()
        if load_model(text).to_json() != text:
            raise AssertionError(f"{model.name}: serialization does not round-trip")
        n += 1
    return f"{n} models round-trip byte-for-byte"


def check_cross() -> str:
    n = 0
    for model in builtin_suite():
        for stratum in model.strata:
            curve = epsilon_via_curves(model, stratum).value
            nef = epsilon_via_nef(model, stratum).value
            if curve != nef:
                raise AssertionError(
                    f"{model.name}/{stratum.label}: curve path {curve.serialize()} "
                    f"!= nef path {nef.serialize()}"
                )
            n += 1
    return f"curve and nef paths agree on {n} strata"


def check_steffens_and_rationality() -> str:
    n = 0
    for model in builtin_suite():
        ceiling = SeshadriValue.sqrt(model.rr.d)
        for stratum in model.strata:
            res = epsilon(model, stratum)
            if cmp_value(res.value, ceiling) > 0:
                raise AssertionError(
                    f"{model.name}/{stratum.label}: value exceeds sqrt(d)"
                )
            if (
                res.certification is Certification.EXACT_CERTIFIED
                and cmp_value(res.value, ceiling) < 0
            ):
                if not res.value.is_exact:
                    raise AssertionError(
                        f"{model.name}/{stratum.label}: certified value below sqrt(d) "
                        "is not rational"
                    )
                if res.witness is None or res.witness.ratio != res.value.rational:
                    raise AssertionError(
                        f"{model.name}/{stratum.label}: certified value lacks a "
                        "reproducing witness"
                    )
            n += 1
    return f"sqrt(d) ceiling and witness rationality hold on {n} strata"


def check_sublevel() -> str:
    grid = [Fraction(k, 4) for k in range(1, 17)]
    n = 0
    for model in builtin_suite():
        previous: set = set()
        for a in grid:
            current = set(sublevel_set(model, a))  # raises if not closed
            if not previous <= current:
                raise AssertionError(
                    f"{model.name}: sublevel set shrank between thresholds at {a}"
                )
            previous = current
            n += 1
    return f"sublevel sets closed and monotone over {n} (model, threshold) pairs"


def check_low_epsilon() -> str:
    delta = Fraction(1, 100)
    for model in builtin_suite():
        for label, value in low_epsilon_strata(model, delta):
            if model.stratum(label).closure_dim != 0:
                raise AssertionError(
                    f"{model.name}: positive-dimensional stratum {label!r} has "
                    f"value {value.serialize()} <= 1 - {delta}"
                )
    return "all strata with value <= 99/100 are zero-dimensional (none shipped)"


def check_candidate_membership() -> str:
    n = 0
    for model in builtin_suite():
        for alpha in ALPHA_GRID:
            if alpha * alpha >= model.rr.d:
                continue
            superset, _ = member_candidate_superset(model, alpha)
            superset = set(superset)
            bound = SeshadriValue.exact(alpha)
            for stratum in model.strata:
                res = epsilon_via_curves(model, stratum, alpha)
                if (
                    res.certification is Certification.EXACT_CERTIFIED
                    and cmp_value(res.value, bound) <= 0
                ):
                    if res.value.rational not in superset:
                        raise AssertionError(
                            f"{model.name}/{stratum.label}: certified value "
                            f"{res.value.serialize()} missing from candidate set "
                            f"at alpha={alpha}"
                        )
                    n += 1
    return f"{n} certified values found in their candidate supersets"


def check_minimal_M_closed_form() -> str:
    rng = random.Random(20251018)
    cases = 0
    while cases < 25:
        d = rng.randint(2, 200)
        rr = RRData(d, rng.randint(-20, 20), rng.randint(-3, 5))
        den = rng.randint(1, 12)
        a = Fraction(rng.randint(1, math.isqrt(d * den * den - 1)), den)
        # the definition, one admissible multiplier at a time; draws that
        # need more than 100 steps are skipped to keep the check cheap
        q = n = a.denominator
        while l_poly(rr, a, n) <= 0 and n < 100 * q:
            n += q
        if l_poly(rr, a, n) <= 0:
            continue
        if minimal_M(rr, a).M != n:
            raise AssertionError(f"closed-form minimal_M differs at {rr}, a={a}")
        cases += 1
    return "closed-form minimal_M matches the linear l_poly scan on 25 random cases"


def check_candidates_brute_force() -> str:
    rng = random.Random(20240817)
    for _ in range(25):
        B = rng.randint(1, 40)
        alpha = Fraction(rng.randint(1, 60), rng.randint(1, 12))
        for certified in (True, False):
            expected = sorted(
                {
                    Fraction(t, m)
                    for t in range(1, B + 1)
                    for m in range(1, (t if certified else B) + 1)
                    if Fraction(t, m) <= alpha
                }
            )
            if candidate_ratios(B, alpha, require_m_le_t=certified) != expected:
                raise AssertionError(
                    f"candidate enumeration differs at B={B}, alpha={alpha}, "
                    f"certified={certified}"
                )
    return (
        "candidate enumeration matches double-loop brute force on 25 random cases, "
        "certified and permissive"
    )


def check_mediant() -> str:
    rng = random.Random(991)
    for _ in range(1000):
        parts = [
            (Fraction(rng.randint(1, 1000), rng.randint(1, 1000)),
             Fraction(rng.randint(1, 1000), rng.randint(1, 1000)))
            for _ in range(rng.randint(1, 8))
        ]
        lo, mid, hi = mediant_bounds(parts)
        if not (lo <= mid <= hi):
            raise AssertionError(f"mediant inequality fails on {parts}")
    return "mediant inequality holds on 1000 random lists"


def check_sigma_attainment() -> str:
    out = []
    for model in builtin_suite():
        sig = sigma_local(model)  # raises if the dense stratum does not attain
        out.append(f"{model.name}={sig.value.serialize()}")
    return "supremum attained on the dense stratum: " + ", ".join(out)


def check_rr_sanity() -> str:
    for e in (1, 2, 3):
        for n in range(1, 11):
            chi = Fraction(n * n * e * e, 2) + Fraction(3 * e * n, 2) + 1
            sections = Fraction((n * e + 1) * (n * e + 2), 2)
            if chi != sections:
                raise AssertionError(
                    f"plane chi coefficients wrong at e={e}, n={n}: {chi} != {sections}"
                )
    return "plane Euler characteristic matches the binomial section count"


ALL_CHECKS = [
    ("roundtrip", check_roundtrip),
    ("cross_check", check_cross),
    ("steffens_rationality", check_steffens_and_rationality),
    ("sublevel_closedness", check_sublevel),
    ("low_epsilon_finiteness", check_low_epsilon),
    ("candidate_membership", check_candidate_membership),
    ("minimal_M_closed_form", check_minimal_M_closed_form),
    ("candidate_brute_force", check_candidates_brute_force),
    ("mediant_inequality", check_mediant),
    ("sigma_attainment", check_sigma_attainment),
    ("rr_sanity", check_rr_sanity),
]


def run_all_checks() -> List[CheckResult]:
    return [_check(name, fn) for name, fn in ALL_CHECKS]
