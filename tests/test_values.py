import json
import math
import re
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from seshadri.bounds import candidate_ratios, candidate_walk, mediant_bounds
from seshadri.degree import BoundError, RRData, l_poly, minimal_M, multiplicity_target
from seshadri.engine import (
    CurveCandidate,
    EngineError,
    PointStratum,
    low_epsilon_strata,
    sublevel_set,
)
from seshadri.examples import f1_anticanonical, projective_plane, quadric
from seshadri.family import FamilyError, load_family, member_candidate_superset, scan
from seshadri.values import SeshadriValue, format_pairs, format_rational, parse_rational


def _candidate(t, m):
    return CurveCandidate(label="c", degree_t=t, mult_m=m)


def test_perfect_square_normalizes_to_exact():
    v = SeshadriValue.sqrt(4)
    assert v.is_exact
    assert v.rational == 2
    assert SeshadriValue.exact(2) == v


def test_cmp_exact_vs_sqrt5():
    # 2^2 = 4 < 5
    assert SeshadriValue.exact(2) < SeshadriValue.sqrt(5)
    # (7/3)^2 = 49/9 > 45/9
    assert SeshadriValue.exact(Fraction(7, 3)) > SeshadriValue.sqrt(5)


def test_cmp_negative_rational_below_any_sqrt():
    assert SeshadriValue.exact(-3) < SeshadriValue.sqrt(2)
    assert SeshadriValue.exact(0) < SeshadriValue.sqrt(2)


def test_cmp_sqrt_vs_sqrt():
    assert SeshadriValue.sqrt(2) < SeshadriValue.sqrt(3)
    assert SeshadriValue.sqrt(5) == SeshadriValue.sqrt(5)


def test_cmp_grid_against_reals():
    # exhaustive small grid: ordering must agree with the real numbers
    for d in (2, 3, 5, 6, 7, 8, 10):
        for p in range(1, 30):
            for q in range(1, 10):
                frac = Fraction(p, q)
                u, v = SeshadriValue.exact(frac), SeshadriValue.sqrt(d)
                assert (u < v, u == v, u > v) == (frac * frac < d, frac * frac == d, frac * frac > d)


def test_sqrt_requires_positive():
    with pytest.raises(ValueError):
        SeshadriValue.sqrt(0)


def test_ratio_examples():
    # a candidate's ratio t/m is reduced
    assert _candidate(4, 2).ratio == Fraction(2, 1)
    assert _candidate(7, 3).ratio == Fraction(7, 3)
    assert _candidate(6, 4).ratio == Fraction(3, 2)


@pytest.mark.parametrize("t,m", [(0, 1), (1, 0), (-2, 3), (3, -1)])
def test_ratio_rejects_nonpositive(t, m):
    with pytest.raises(ValueError):  # EngineError is a ValueError
        _candidate(t, m)


@given(st.integers(1, 10**4), st.integers(1, 10**4))
def test_ratio_times_m_recovers_t(t, m):
    assert _candidate(t, m).ratio * m == t


def test_serialize():
    assert SeshadriValue.exact(Fraction(3, 2)).serialize() == "3/2"
    assert SeshadriValue.exact(2).serialize() == "2"
    assert SeshadriValue.sqrt(5).serialize() == "sqrt(5)"
    assert SeshadriValue.sqrt(9).serialize() == "3"


def test_approx_labels_only():
    assert SeshadriValue.sqrt(2).approx() == pytest.approx(math.sqrt(2))
    assert SeshadriValue.exact(Fraction(1, 2)).approx() == 0.5


def test_approx_beyond_float_range():
    # a root that fits a float is given though d does not; a value that
    # does not fit gives none
    assert SeshadriValue.sqrt(2 * 10**400).approx() == pytest.approx(math.sqrt(2) * 1e200)
    assert SeshadriValue.sqrt(2 * 10**700).approx() is None
    assert SeshadriValue.exact(Fraction(10**400, 3)).approx() is None
    assert SeshadriValue.exact(Fraction(1, 10**400)).approx() == 0.0


def test_parse_rational():
    assert parse_rational("3/2") == Fraction(3, 2)
    assert parse_rational("-7") == Fraction(-7)
    assert parse_rational(" 5/10 ") == Fraction(1, 2)


# a sign other than a leading minus, digit separators and non-ASCII
# digits are outside the syntax that documents accept too
@pytest.mark.parametrize("bad", ["1.5", "2e3", "three", "1/0", "", "+3/2", "1_0/4", "３/２"])
def test_parse_rational_rejects(bad):
    with pytest.raises(ValueError, match="^(decimal notation not accepted|malformed rational)"):
        parse_rational(bad)


@pytest.mark.parametrize(
    "text, message",
    [("1.5", "decimal"), (".5", "decimal"), ("1.", "decimal"), ("1e3", "decimal"),
     ("2E3", "decimal"), ("three", "malformed"), ("e", "malformed"), ("free", "malformed"),
     ("1/0", "malformed"), ("1/00", "malformed")],
)
def test_parse_rational_calls_only_decimal_notation_decimal(text, message):
    # digits with a point or an exponent are decimal notation; any other
    # text outside the syntax, such as a word with an "e", is malformed
    expected = {
        "decimal": f"decimal notation not accepted, use p/q: {text!r}",
        "malformed": f"malformed rational {text!r}",
    }[message]
    with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
        parse_rational(text)


def test_parse_rational_reads_a_denominator_with_leading_zeros():
    assert parse_rational("3/02") == Fraction(3, 2)


def test_sqrt_branch_has_no_rational():
    with pytest.raises(ValueError, match=r"^SeshadriValue\(sqrt\(2\)\) is irrational$"):
        SeshadriValue.sqrt(2).rational


def test_l_poly_needs_a_positive_n():
    with pytest.raises(BoundError, match="^n must be positive, got 0$"):
        l_poly(RRData(8, 8, 1), 1, 0)


@pytest.mark.parametrize("delta", [Fraction(0), Fraction(-1, 2)], ids=["zero", "negative"])
def test_low_epsilon_strata_needs_a_positive_delta(delta):
    with pytest.raises(EngineError, match=f"^delta must be positive, got {delta}$"):
        low_epsilon_strata(f1_anticanonical(), delta)


def test_format_rational():
    assert format_rational(Fraction(3, 2)) == "3/2"
    assert format_rational(Fraction(4, 2)) == "2"
    assert format_rational(7) == "7"


@given(
    st.fractions(max_denominator=50),
    st.fractions(max_denominator=50),
    st.integers(2, 50),
)
def test_total_order_transitive_with_sqrt(a, b, d):
    u, v, w = SeshadriValue.exact(a), SeshadriValue.sqrt(d), SeshadriValue.exact(b)
    # orderings must chain: if a < sqrt(d) < b then a < b
    if u < v < w:
        assert u < w


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _reference_cmp(x, y) -> int:
    """Sign of x - y for ("q", Fraction) or ("sqrt", d) items: Fraction
    comparison, and a rational against sqrt(d) by its sign, then by
    squaring."""
    (kx, vx), (ky, vy) = x, y
    if kx == ky:
        return _sign(vx - vy)  # sqrt is increasing
    if kx == "sqrt":
        return -_reference_cmp(y, x)
    return -1 if vx < 0 else _sign(vx * vx - vy)


_VALUES = st.one_of(
    st.fractions(max_denominator=30).map(lambda q: (SeshadriValue.exact(q), ("q", q))),
    st.integers(-5, 5).map(lambda k: (SeshadriValue.exact(k), ("q", Fraction(k)))),
    st.integers(1, 400).map(lambda d: (SeshadriValue.sqrt(d), ("sqrt", d))),
    st.integers(1, 20).map(lambda r: (SeshadriValue.sqrt(r * r), ("sqrt", r * r))),
)


@given(_VALUES, _VALUES)
def test_order_and_hash_agree_with_fraction_reference(x, y):
    (u, ref_u), (w, ref_w) = x, y
    want = _reference_cmp(ref_u, ref_w)
    assert (u < w, u <= w, u == w, u >= w, u > w) == (
        want < 0, want <= 0, want == 0, want >= 0, want > 0
    )
    if u == w:
        assert hash(u) == hash(w)


@given(_VALUES, st.integers(1, 60), st.integers(1, 60))
def test_cmp_ratio_agrees_with_the_order(x, n, m):
    # the integer comparison with n/m that epsilon's nef-point check uses
    u, ref = x
    assert u._cmp_ratio(n, m) == _reference_cmp(ref, ("q", Fraction(n, m)))


def _float_or_none(q):
    try:
        return float(q)
    except OverflowError:
        return None


@given(
    st.one_of(
        st.fractions(),
        st.builds(Fraction, st.integers(-(10**400), 10**400), st.integers(1, 10**400)),
    )
)
@example(Fraction(10**400, 3))
@example(Fraction(-(10**400)))
def test_rational_value_formats_from_its_ints_as_fraction_does(q):
    # serialize() and approx() read the value's own ints; they agree with
    # format_rational and float(Fraction), and give None past float range
    value = SeshadriValue.exact(q)
    assert value.serialize() == format_rational(q)
    assert value.approx() == _float_or_none(q)
    if abs(q) >= 2**1024:
        assert value.approx() is None


@given(st.integers(-10**6, 10**6), st.integers(1, 10**6))
def test_format_pairs_matches_format_rational(t, m):
    g = math.gcd(t, m)
    t, m = t // g, m // g
    assert format_pairs([(t, m)]) == [format_rational(Fraction(t, m))]


def _f1_family():
    return load_family(json.dumps({
        "degree": 8,
        "members": [{"param_label": "t", "model": json.loads(f1_anticanonical().to_json())}],
    }))


@pytest.mark.parametrize(
    "call, what",
    [
        (lambda: l_poly(RRData(8, 8, 1), 0.1, 2), "a"),
        (lambda: minimal_M(RRData(8, 8, 1), 0.1), "threshold"),
        (lambda: multiplicity_target(2, 0.1), "a"),
        (lambda: list(candidate_walk(5, 0.1)), "alpha"),
        (lambda: candidate_ratios(5, 0.1), "alpha"),
        (lambda: SeshadriValue.exact(0.1), "exact value"),
        (lambda: PointStratum(label="s", closure_dim=2, oracle_complete_below=0.1),
         "completeness threshold"),
        (lambda: sublevel_set(f1_anticanonical(), 0.1), "a"),
        (lambda: low_epsilon_strata(f1_anticanonical(), 0.1), "delta"),
        (lambda: scan(_f1_family(), 0.1), "alpha"),
        (lambda: mediant_bounds([(1, 2), (0.1, 1)]), "entry"),
        (lambda: mediant_bounds([(1, 0.1)]), "entry"),
    ],
    ids=["l_poly", "minimal_M", "multiplicity_target", "candidate_walk", "candidate_ratios",
         "exact", "threshold", "sublevel_set", "low_epsilon_strata", "scan",
         "mediant_bounds_a", "mediant_bounds_b"],
)
def test_exact_entry_points_reject_a_float(call, what):
    # a binary float is never read as the rational it approximates: no
    # float may enter a verdict, through the command line or the API
    message = f"{what} must be an int or a Fraction, got 0.1"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


_HUGE = 10**3999  # 4,000 digits


@pytest.mark.parametrize(
    "call",
    [
        lambda: l_poly(RRData(8, 8, 1), 1, -_HUGE),
        lambda: l_poly(RRData(8, 8, 1), Fraction(1, 3 * _HUGE), _HUGE),
        lambda: multiplicity_target(_HUGE, Fraction(1, 3)),
        lambda: low_epsilon_strata(f1_anticanonical(), -_HUGE),
        lambda: mediant_bounds([(-_HUGE, 1)]),
        lambda: SeshadriValue.sqrt(-_HUGE),
        lambda: SeshadriValue.sqrt(_HUGE).rational,
        lambda: projective_plane(-_HUGE),
        lambda: quadric(1, -_HUGE),
    ],
    ids=["l_poly_n", "l_poly_na", "multiplicity_target", "low_epsilon_strata",
         "mediant_bounds", "sqrt", "rational", "projective_plane", "quadric"],
)
def test_api_errors_cut_a_huge_value(call):
    # a value echoed in an error message is cut, as a command-line error
    # echoes it, so a 4,000-digit argument gives a short message
    with pytest.raises(ValueError) as info:
        call()
    message = str(info.value)
    assert "..." in message and len(message.encode()) < 300


@pytest.mark.parametrize("value", [2.5, True, "5/2", None], ids=["float", "bool", "str", "None"])
@pytest.mark.parametrize(
    "call, what, error",
    [
        (lambda a: sublevel_set(f1_anticanonical(), a), "a", EngineError),
        (lambda alpha: scan(_f1_family(), alpha), "alpha", FamilyError),
        (lambda alpha: member_candidate_superset(f1_anticanonical(), alpha), "alpha",
         FamilyError),
    ],
    ids=["sublevel_set", "scan", "member_candidate_superset"],
)
def test_thresholds_that_are_not_exact_rationals_are_named(call, what, error, value):
    # a str or None is no bare TypeError from a comparison or a product,
    # a bool is not stored as the threshold 1, and a float or a bool names
    # the argument, not the value type it failed to become
    message = f"{what} must be an int or a Fraction, got {value!r}"
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call(value)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: list(candidate_walk(6.5, 2)), "B must be an integer, got 6.5"),
        (lambda: candidate_ratios(6.0, 2), "B must be an integer, got 6.0"),
        (lambda: candidate_ratios(Fraction(6), 2), "B must be an integer, got Fraction(6, 1)"),
        (lambda: l_poly(RRData(8, 8, 1), 1, 2.0), "n must be an integer, got 2.0"),
        (lambda: multiplicity_target(2.0, Fraction(3, 2)), "M must be an integer, got 2.0"),
    ],
    ids=["candidate_walk", "candidate_ratios", "candidate_ratios_fraction", "l_poly",
         "multiplicity_target"],
)
def test_integer_entry_points_reject_a_float(call, message):
    # candidate_walk(6.5, 2) once walked pairs of non-integers, such as
    # (6.5, 5.5), and the others failed with a bare TypeError or
    # AttributeError
    with pytest.raises(BoundError, match=f"^{re.escape(message)}$"):
        call()
