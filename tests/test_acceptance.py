"""Acceptance suite: one test per criterion, each printing a PASS line
with the measured facts when it succeeds.  Run with `pytest -s
tests/test_acceptance.py` to see the per-criterion lines.

Criteria 2 (membership), 3, 4, 5, 8 and 9 call the invariant functions
of `seshadri.checks`, the ones `seshadri check` runs; each test adds
only its own timing gate, oracle or example.
"""

import random
import time
from fractions import Fraction

import pytest

from seshadri.bounds import candidate_ratios, candidate_walk
from seshadri.checks import (
    check_candidate_membership,
    check_cross,
    check_low_epsilon,
    check_mediant,
    check_steffens_and_rationality,
    check_sublevel,
)
from seshadri.degree import RRData, l_poly, minimal_M, multiplicity_target
from seshadri.engine import epsilon, sublevel_set
from seshadri.examples import builtin_suite, f1_anticanonical, quadric
from seshadri.family import Family, scan, semicontinuity_check
from seshadri.models import ModelError, model_from_document
from seshadri.values import SeshadriValue


def _report(name, detail):
    print(f"PASS {name}: {detail}")


def test_criterion_1_bound_correctness():
    rr = RRData(d=4, c=0, c_prime=2)
    a = Fraction(3, 2)

    # independent brute-force evaluator for the dimension count
    def count(n):
        chi = Fraction(n * n * rr.d, 2) + Fraction(n * rr.c, 2) + rr.c_prime
        na = n * a
        return chi - Fraction((na + 2) * (na + 1), 2)

    assert count(2) == l_poly(rr, a, 2) == 0
    assert count(4) == l_poly(rr, a, 4) == 6

    minimal_M(rr, a)  # warm up
    start = time.perf_counter()
    iterations = 100
    for _ in range(iterations):
        bound = minimal_M(rr, a)
    per_call = (time.perf_counter() - start) / iterations
    assert (bound.M, bound.B) == (4, 16)
    assert multiplicity_target(bound.M, a) == 7
    assert per_call < 0.001, f"bound took {per_call * 1e3:.3f} ms"

    # a just below sqrt(d), where M = 3*10^6: still one closed-form call
    big, big_a = RRData(d=10**12 + 1, c=0, c_prime=1), Fraction(10**6)
    start = time.perf_counter()
    for _ in range(iterations):
        big_bound = minimal_M(big, big_a)
    big_per_call = (time.perf_counter() - start) / iterations
    assert l_poly(big, big_a, big_bound.M) > 0 >= l_poly(big, big_a, big_bound.M - 1)
    assert big_per_call < 0.001, f"bound took {big_per_call * 1e3:.3f} ms"
    _report(
        "criterion 1 (bound correctness)",
        f"M=4 B=16 target=7, re-derived independently, {per_call * 1e6:.1f} us/call; "
        f"M={big_bound.M} at d=10^12+1 in {big_per_call * 1e6:.1f} us/call",
    )


def test_criterion_2_candidate_finiteness():
    def run():
        start = time.perf_counter()
        # every certified value <= alpha sits in the enumerated candidate
        # set, and there is at least one such value
        membership = check_candidate_membership(builtin_suite())

        # exact equality with an independent double loop for every B up to
        # 200; the oracle reduces pairs through Fraction, a different route
        # than the enumeration's gcd arithmetic
        alpha = Fraction(5, 2)
        oracle_pairs = set()
        for B in range(1, 201):
            t = B
            for m in range(1, t + 1):
                q = Fraction(t, m)
                if q <= alpha:
                    oracle_pairs.add((q.numerator, q.denominator))
            assert set(candidate_walk(B, alpha)) == oracle_pairs, f"mismatch at B={B}"
        # the sorted rational view agrees with the pair set where it matters
        for B in (1, 7, 60, 200):
            assert candidate_ratios(B, alpha) == sorted(
                Fraction(t, m) for t, m in set(candidate_walk(B, alpha))
            )
            assert set(candidate_ratios(B, alpha)) == {
                Fraction(t, m) for t, m in set(candidate_walk(B, alpha))
            }
        return membership, time.perf_counter() - start

    # best of three shields the runtime assertion from scheduler noise;
    # correctness asserts run (and must hold) on every attempt
    elapsed = None
    for _ in range(3):
        membership, attempt = run()
        elapsed = attempt if elapsed is None else min(elapsed, attempt)
        if elapsed < 1.0:
            break
    assert elapsed < 1.0, f"took {elapsed:.2f} s"
    _report(
        "criterion 2 (candidate finiteness)",
        f"{membership}; enumeration equals brute force for "
        f"B<=200 in {elapsed * 1e3:.0f} ms",
    )


def test_criterion_3_steffens_and_rationality():
    _report(
        "criterion 3 (Steffens bound and rationality)",
        check_steffens_and_rationality(builtin_suite()) + ", at zero tolerance",
    )


def test_criterion_4_oracle_equivalence():
    start = time.perf_counter()
    agreement = check_cross(builtin_suite())
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report("criterion 4 (oracle equivalence)", f"{agreement} in {elapsed * 1e3:.0f} ms")


def test_criterion_5_sublevel_closedness():
    model = f1_anticanonical()
    assert sublevel_set(model, Fraction(1)) == ["on_E"]
    _report("criterion 5 (sublevel closedness)", check_sublevel(builtin_suite()))


def test_criterion_6_semicontinuity(violating_model, chain_document):
    family = Family(members=(("t", f1_anticanonical()),), degree=8)
    verdicts = semicontinuity_check(family)
    assert len(verdicts) == 1 and verdicts[0].passed
    assert verdicts[0].general_value == SeshadriValue.exact(2)
    assert verdicts[0].special_value == SeshadriValue.exact(1)

    # two upper bounds decide nothing: the verdict is not proven
    family = Family(members=(("t", violating_model(None, None)),), degree=4)
    failures = [v for v in semicontinuity_check(family) if not v.passed]
    assert len(failures) == 1
    assert (failures[0].general, failures[0].special) == ("generic", "special")
    assert failures[0].status == "undetermined"
    # two exact global values, the special member's 2 above the general
    # member's 1: a proven failure
    family = Family(
        members=(("general", f1_anticanonical()), ("special", quadric(2, 2))),
        degree=8,
        member_specialization=(("general", "special"),),
    )
    (certified,) = [v for v in semicontinuity_check(family) if not v.passed]
    assert (certified.kind, certified.status) == ("member", "fail")
    assert (certified.general, certified.special) == ("general", "special")
    assert (certified.general_value, certified.special_value) == (
        SeshadriValue.exact(1), SeshadriValue.exact(2)
    )
    # within one model, an exact special stratum above the exact dense one,
    # or above any it specializes from, fails the model itself as it is built
    for build, message in (
        (lambda: violating_model("1", "2"),
         "stratum 'special' has a value of at least 2, above the dense stratum 'generic' "
         "at most 1"),
        (lambda: model_from_document(chain_document),
         "stratum 'special' has a value of at least 3/2, above the stratum 'mid' at most 1"),
    ):
        with pytest.raises(ModelError, match=f"^{message};"):
            semicontinuity_check(Family(members=(("t", build()),), degree=4))
    _report(
        "criterion 6 (semicontinuity)",
        "1 <= 2 across the f1 strata; negative controls name their pair, "
        "undetermined on upper bounds and failed on exact member values; "
        "a stratum above one it specializes from fails its model",
    )


def test_criterion_7_supremum_attainment(check_superset):
    family = Family(members=(("t0", f1_anticanonical()), ("t1", quadric(2, 2))), degree=8)
    report = scan(family, Fraction(5, 2))
    assert report.sigma_family == SeshadriValue.exact(2)
    member, stratum = report.sigma_attained_at
    attained = epsilon(family.member(member), family.member(member).stratum(stratum))
    assert attained.value == report.sigma_family
    assert report.sigma_cap == (Fraction(1), Fraction(2))
    # the superset holds the ratios t/m <= 5/2 with 1 <= m <= t <= B = 16
    # as reduced (t, m) pairs, and no other
    assert [(s.very_ample_multiplier, s.B) for s in report.candidate_superset.sets] == [(1, 16)]
    ratios = {Fraction(t, m) for t in range(1, 17) for m in range(1, t + 1)}
    reference = sorted(q for q in ratios if q <= Fraction(5, 2))
    outside = check_superset(report.candidate_superset, reference, [(1, 16, Fraction(5, 2))])
    assert outside == [Fraction(13, 5), Fraction(17, 16)]
    assert all((q.numerator, q.denominator) in report.candidate_superset for q in report.sigma_cap)
    _report(
        "criterion 7 (supremum attainment)",
        f"sigma=2 attained at {member}/{stratum}; observed set {{1, 2}} inside the "
        f"{len(report.candidate_superset)}-element candidate superset",
    )


def test_criterion_8_mediant_inequality():
    rng = random.Random(7)
    start = time.perf_counter()
    holds = check_mediant(rng, max_parts=12)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report("criterion 8 (mediant inequality)", f"{holds} in {elapsed * 1e3:.0f} ms")


def test_criterion_9_low_epsilon_finiteness():
    finiteness = check_low_epsilon(builtin_suite())
    assert finiteness.endswith("(0 found)")  # shipped models have no values below 1
    _report("criterion 9 (low-value finiteness)", finiteness)
