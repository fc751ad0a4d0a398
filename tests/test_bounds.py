import copy
import inspect
import math
import pickle
import re
import sys
import tracemalloc
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from seshadri import bounds
from seshadri.bounds import (
    CandidateSuperset,
    SupersetUnion,
    _farey_ceil,
    _mertens,
    candidate_count,
    candidate_ratios,
    candidate_walk,
    mediant_bounds,
)
from seshadri.checks import CheckResult, brute_force_pairs, linear_minimal_M
from seshadri.degree import BoundError, DegreeBound, RRData, l_poly, minimal_M, multiplicity_target
from seshadri.engine import EngineError, SeshadriResult, global_epsilon
from seshadri.examples import f1_anticanonical, quadric
from seshadri.family import Family, FamilyError, scan
from seshadri.lattice import LatticeError
from seshadri.models import ModelError
from seshadri.values import Record, replace


def dimension_count_oracle(d, c, c_prime, a, n):
    # independent route: chi(L^n) minus the conditions for multiplicity n*a + 1
    chi = Fraction(n * n * d, 2) + Fraction(n * c, 2) + c_prime
    na = a * n
    assert na.denominator == 1
    return chi - Fraction((na + 2) * (na + 1), 2)


def test_records_behave_as_frozen_value_objects():
    rr = RRData(d=8, c=8, c_prime=1)
    assert rr == RRData(8, 8, 1, vanishing_multiplier=1) and rr.vanishing_multiplier == 1
    assert hash(rr) == hash(RRData(8, 8, 1)) and rr != RRData(8, 8, 1, 2)
    assert rr != (8, 8, 1, 1)  # unlike a NamedTuple, not equal to a plain tuple
    assert repr(rr) == "RRData(d=8, c=8, c_prime=1, vanishing_multiplier=1)"
    bound = DegreeBound(a=Fraction(5, 2), M=2, B=16)
    assert bound == minimal_M(rr, Fraction(5, 2)) and {bound, minimal_M(rr, Fraction(5, 2))} == {bound}
    assert repr(bound) == "DegreeBound(a=Fraction(5, 2), M=2, B=16, vanishing_multiplier=1)"
    assert bound != rr and not hasattr(bound, "__dict__")
    for record in (rr, bound):
        with pytest.raises(AttributeError, match="cannot assign to field 'vanishing_multiplier'"):
            record.vanishing_multiplier = 2
        with pytest.raises(AttributeError, match="cannot delete field 'vanishing_multiplier'"):
            del record.vanishing_multiplier
        assert record.vanishing_multiplier == 1
        assert pickle.loads(pickle.dumps(record)) == copy.deepcopy(record) == record
    with pytest.raises(BoundError, match="^degree must be positive, got 0$"):
        RRData(d=0, c=1, c_prime=1)
    with pytest.raises(BoundError, match="^vanishing_multiplier must be a positive integer$"):
        RRData(d=1, c=1, c_prime=1, vanishing_multiplier=0)
    for make, fields, invalid in RECORDS:
        record, twin = make(), make()
        assert record is not twin and record == twin and not record != twin
        shown = ", ".join(f"{name}={getattr(record, name)!r}" for name in fields)
        assert repr(record) == f"{type(record).__name__}({shown})"
        assert hash(record) == hash(twin)
        for name in fields:
            with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
                setattr(record, name, None)
            with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
                delattr(record, name)
        assert not hasattr(record, "__dict__")
        assert pickle.loads(pickle.dumps(record)) == copy.deepcopy(record) == record
        assert replace(record) == record and replace(record) is not record
        if invalid is not None:
            # every way to build a record runs its checks: a call by
            # position or keyword, replace, and the reduce tuple that
            # deepcopy and pickle rebuild it from
            name, value, error = invalid
            kind, values = record.__reduce__()
            bad = tuple(value if f == name else v for f, v in zip(fields, values))
            paths = [
                lambda: kind(*bad),
                lambda: kind(**dict(zip(fields, bad))),
                lambda: replace(record, **{name: value}),
                lambda: copy.deepcopy(_Reduced((kind, bad))),
            ] + [
                lambda protocol=protocol: pickle.loads(
                    pickle.dumps(_Reduced((kind, bad)), protocol)
                )
                for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1)
            ]
            messages = set()
            for path in paths:
                with pytest.raises(error) as raised:
                    path()
                messages.add(str(raised.value))
            assert len(messages) == 1
        with pytest.raises(TypeError):
            replace(record, no_such_field=1)
        # construction binds the fields as a call does, by position or keyword
        kind, values = type(record), record._values()
        keywords = dict(zip(fields, values))
        assert kind(*values) == kind(**keywords) == record
        first = fields[0]
        bad_calls = [
            lambda: kind(*values, None),  # one argument too many
            lambda: kind(*values, no_such_field=1),
            lambda: kind(*values, **{first: values[0]}),  # a field given twice
            lambda: kind(**{k: v for k, v in keywords.items() if k != first}),  # one missing
        ]
        for call in bad_calls:
            with pytest.raises(TypeError, match=rf"^{kind.__name__}\.__init__\(\) "):
                call()
    # a model's generator tables and stratum table are not compared or
    # shown
    model, twin = f1_anticanonical(), f1_anticanonical()
    model.stratum_table
    assert model == twin and repr(model) == repr(twin)


class _Reduced:
    """Deep-copies and pickles as the reduce tuple it holds."""

    def __init__(self, reduced):
        self.reduced = reduced

    def __reduce__(self):
        return self.reduced


def test_generated_constructors_take_exactly_the_fields():
    # every record's constructor is generated from its fields; the
    # records that check or convert their arguments, or derive data from
    # them (SeshadriResult), do so in __post_init__
    assert "__init__" not in Record.__dict__
    generated, checking = set(), set()
    for make, fields, _ in RECORDS:
        kind = type(make())
        generated.add(kind.__name__)
        if "__post_init__" in kind.__dict__:
            checking.add(kind.__name__)
        assert kind.__init__.__code__.co_filename == "<string>"
        assert kind.__init__.__qualname__ == f"{kind.__name__}.__init__"
        assert kind.__init__.__module__ == kind.__module__
        parameters = list(inspect.signature(kind).parameters.values())
        assert [p.name for p in parameters] == fields
        assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in parameters)
        defaults = {p.name: p.default for p in parameters if p.default is not p.empty}
        assert defaults == kind._defaults
    assert generated == {
        "DegreeBound", "SeshadriResult", "CandidateSuperset", "Verdict", "FamilyScanReport",
        "CheckResult", "RRData", "IntersectionLattice", "CurveGeneratorSet", "CurveCandidate",
        "PointStratum", "SurfaceModel", "Family", "SupersetUnion",
    }
    assert checking == {
        "RRData", "IntersectionLattice", "CurveGeneratorSet", "CurveCandidate", "PointStratum",
        "SurfaceModel", "Family", "SupersetUnion", "SeshadriResult",
    }
    assert DegreeBound._defaults == {"vanishing_multiplier": 1}
    assert SeshadriResult._defaults == {
        "lo": None, "witness": None, "warning": None, "attained_at": None
    }


def _family() -> Family:
    members = (("t0", f1_anticanonical()), ("t1", quadric(2, 2)))
    return Family(members, 8, member_specialization=(("t1", "t0"),))


# every record class: a factory, the field names in order, and one
# field's value that the constructor rejects with its layer's error, or
# None for a record that checks nothing.  A record that holds a model is
# not hashable: its generator sets are a read-only mapping.
RECORDS = [
    (lambda: RRData(8, 8, 1), ["d", "c", "c_prime", "vanishing_multiplier"], ("d", 0, BoundError)),
    (lambda: DegreeBound(Fraction(5, 2), 2, 16), ["a", "M", "B", "vanishing_multiplier"], None),
    (lambda: CandidateSuperset(1, 16, Fraction(5, 2)), ["very_ample_multiplier", "B", "alpha"],
     None),
    (lambda: SupersetUnion([CandidateSuperset(1, 16, Fraction(5, 2))]), ["sets"], None),
    (lambda: f1_anticanonical().lattice, ["rank", "gram", "basis_labels"],
     ("rank", 0, LatticeError)),
    (lambda: f1_anticanonical().blowup_gens["on_E"], ["labels", "rows"],
     ("rows", None, LatticeError)),
    (lambda: f1_anticanonical().strata[1].candidates[0], ["label", "degree_t", "mult_m", "coords"],
     ("degree_t", 0, EngineError)),
    (lambda: f1_anticanonical().strata[1],
     ["label", "closure_dim", "specializes_from", "candidates", "oracle_complete_below"],
     ("closure_dim", 3, EngineError)),
    (lambda: global_epsilon(f1_anticanonical()),
     ["hi", "lo", "witness", "warning", "attained_at"], None),
    (f1_anticanonical,
     ["name", "lattice", "polarization", "rr", "very_ample_multiplier", "strata", "blowup_gens"],
     ("name", "", ModelError)),
    (_family, ["members", "degree", "member_specialization"], ("degree", 0, FamilyError)),
    (lambda: scan(_family(), Fraction(5, 2)).semicontinuity_verdicts[0],
     ["kind", "context", "general", "special", "general_value", "special_value", "status"], None),
    (lambda: scan(_family(), Fraction(5, 2)),
     ["alpha", "degree", "sigma_family", "sigma_attained_at", "epsilon_table", "sigma_cap",
      "candidate_superset", "semicontinuity_verdicts", "jump_members", "uncertified"], None),
    (lambda: CheckResult("roundtrip", True, "5 models round-trip"), ["name", "passed", "detail"],
     None),
]


def test_l_poly_frozen_values():
    rr = RRData(d=4, c=0, c_prime=2)
    a = Fraction(3, 2)
    assert l_poly(rr, a, 2) == dimension_count_oracle(4, 0, 2, a, 2) == 0
    assert l_poly(rr, a, 4) == dimension_count_oracle(4, 0, 2, a, 4) == 6
    assert l_poly(RRData(d=1, c=3, c_prime=1), Fraction(1), 1) == 0


def test_l_poly_requires_integral_na():
    with pytest.raises(BoundError):
        l_poly(RRData(d=4, c=0, c_prime=2), Fraction(3, 2), 3)


@given(
    st.integers(1, 30),
    st.integers(-10, 10),
    st.integers(-5, 5),
    st.fractions(min_value="1/6", max_value="5", max_denominator=6),
    st.integers(1, 20),
)
def test_l_poly_matches_oracle(d, c, c_prime, a, k):
    n = k * a.denominator
    assert l_poly(RRData(d, c, c_prime), a, n) == dimension_count_oracle(d, c, c_prime, a, n)


def test_minimal_M_frozen_cases():
    bound = minimal_M(RRData(4, 0, 2), Fraction(3, 2))
    assert (bound.M, bound.B) == (4, 16)
    bound = minimal_M(RRData(1, 3, 1), Fraction(1, 2))
    assert (bound.M, bound.B) == (2, 2)


def test_minimal_M_is_minimal_and_positive():
    for rr, a in [
        (RRData(4, 0, 2), Fraction(3, 2)),
        (RRData(1, 3, 1), Fraction(1, 2)),
        (RRData(8, 8, 1), Fraction(5, 2)),
        (RRData(2, 4, 1), Fraction(7, 5)),
    ]:
        bound = minimal_M(rr, a)
        assert l_poly(rr, a, bound.M) > 0
        assert bound.B == bound.M * rr.d
        q = a.denominator
        for n in range(q, bound.M, q):
            assert l_poly(rr, a, n) <= 0


def test_minimal_M_rejects_bad_thresholds():
    rr = RRData(4, 0, 2)
    for a, message in [
        (Fraction(0), "threshold must be positive, got 0"),
        (Fraction(-1, 2), "threshold must be positive, got -1/2"),
        (Fraction(2), "threshold^2 must be strictly below the degree: 2^2 >= 4"),  # a^2 = d
        (Fraction(5, 2), "threshold^2 must be strictly below the degree: 5/2^2 >= 4"),
        (True, "threshold must be an int or a Fraction, got True"),
        (0.5, "threshold must be an int or a Fraction, got 0.5"),
        ("1/2", "threshold must be an int or a Fraction, got '1/2'"),
    ]:
        with pytest.raises(BoundError, match=f"^{re.escape(message)}$"):
            minimal_M(rr, a)
    # an int threshold is its Fraction: the same bound, with a a Fraction
    rr = RRData(10, 0, 0)
    bound = minimal_M(rr, 3)
    assert bound == minimal_M(rr, Fraction(3)) == DegreeBound(Fraction(3), 10, 100)
    assert type(bound.a) is Fraction


def assert_least_admissible(rr, a, M):
    q = a.denominator
    assert M % q == 0
    assert l_poly(rr, a, M) > 0
    assert M == q or l_poly(rr, a, M - q) <= 0


def test_minimal_M_large_inputs_are_minimal():
    # the quadratic stays nonpositive up to M = 1000003001
    rr = RRData(d=10**6 + 1, c=-10**9, c_prime=0)
    assert_least_admissible(rr, Fraction(1000), minimal_M(rr, Fraction(1000)).M)
    # a just below sqrt(d): M = 3*10^6, past any linear search
    rr = RRData(d=10**12 + 1, c=0, c_prime=1)
    bound = minimal_M(rr, Fraction(10**6))
    assert_least_admissible(rr, Fraction(10**6), bound.M)
    assert bound.B == bound.M * rr.d


@st.composite
def rr_and_threshold(draw):
    d = draw(st.integers(1, 200))
    q = draw(st.integers(1 if d > 1 else 2, 12))
    # every p with p^2 < d*q^2, so a = p/q ranges over (0, sqrt(d))
    p = draw(st.integers(1, math.isqrt(d * q * q - 1)))
    rr = RRData(d, draw(st.integers(-20, 20)), draw(st.integers(-3, 5)))
    return rr, Fraction(p, q)


@given(rr_and_threshold())
@settings(max_examples=300)
def test_minimal_M_closed_form_matches_linear_search(case):
    rr, a = case
    bound = minimal_M(rr, a)
    assert bound.M == linear_minimal_M(rr, a)
    assert bound.B == bound.M * rr.d


def test_multiplicity_target():
    assert multiplicity_target(4, Fraction(3, 2)) == 7
    assert multiplicity_target(2, Fraction(1, 2)) == 2
    assert multiplicity_target(1, Fraction(1)) == 2
    with pytest.raises(BoundError):
        multiplicity_target(3, Fraction(1, 2))


def test_candidate_ratios_examples():
    assert candidate_ratios(3, Fraction(3, 2)) == [Fraction(1), Fraction(3, 2)]
    assert candidate_ratios(1, Fraction(10)) == [Fraction(1)]
    assert candidate_ratios(4, Fraction(1, 2)) == []


def test_candidate_ratios_match_brute_force():
    for B in range(1, 41):
        for alpha in (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(5, 2), Fraction(50)):
            ratios = [Fraction(t, m) for t, m in brute_force_pairs(B, alpha)]
            assert candidate_ratios(B, alpha) == ratios


def test_candidate_ratios_sorted_distinct():
    ratios = candidate_ratios(30, Fraction(7, 2))
    assert all(a < b for a, b in zip(ratios, ratios[1:]))


@given(st.integers(1, 60), st.fractions(min_value="1/3", max_value="8", max_denominator=12))
@settings(max_examples=60)
def test_candidate_ratios_monotone_in_B(B, alpha):
    assert set(candidate_ratios(B, alpha)) <= set(candidate_ratios(B + 1, alpha))


@given(
    st.integers(1, 30),
    st.fractions(min_value="1/12", max_value="40", max_denominator=12),
    st.booleans(),
)
@example(10, Fraction(5, 7), True)  # alpha < 1: the certified list is empty
@example(10, Fraction(5, 7), False)
@example(12, Fraction(3), True)  # integer alpha
@example(12, Fraction(3), False)
@example(7, Fraction(7), True)  # alpha >= B: every ratio of order B
@example(7, Fraction(29, 3), False)
@settings(max_examples=100)
def test_brute_force_pairs_match_a_fraction_double_loop(B, alpha, certified):
    # the integer oracle against the same double loop written in Fractions
    ratios = sorted(
        {
            Fraction(t, m)
            for t in range(1, B + 1)
            for m in range(1, (t if certified else B) + 1)
            if Fraction(t, m) <= alpha
        }
    )
    assert brute_force_pairs(B, alpha, certified) == [(r.numerator, r.denominator) for r in ratios]
    assert [Fraction(t, m) for t, m in brute_force_pairs(B, alpha, certified)] == ratios


def test_candidate_ratios_permissive_mode():
    # the permissive listing is the walk's, with m up to B
    got = [Fraction(t, m) for t, m in candidate_walk(3, Fraction(5), require_m_le_t=False)]
    assert got == [Fraction(t, m) for t, m in brute_force_pairs(3, Fraction(5), certified=False)]
    assert Fraction(1, 3) in got  # below 1 only reachable without m <= t


@given(
    st.integers(1, 40),
    st.fractions(min_value="1/12", max_value="60", max_denominator=12),
    st.booleans(),
)
@example(12, Fraction(7, 9), True)  # alpha < 1: the certified list is empty
@example(12, Fraction(7, 9), False)  # and 1 - alpha has denominator <= B
@example(12, Fraction(5, 13), False)  # 1 - alpha has denominator > B
@example(15, Fraction(4), True)  # integer alpha
@example(15, Fraction(4), False)
@example(12, Fraction(11, 4), True)  # 1/alpha in F_B: the end term itself
@example(12, Fraction(11, 4), False)
@example(12, Fraction(29, 11), True)  # numerator > B: the end term by descent
@example(12, Fraction(29, 11), False)
@example(12, Fraction(1), True)  # alpha = 1: the walk ends where it starts
@example(12, Fraction(1), False)
@example(9, Fraction(9), True)  # alpha >= B: every ratio of order B
@example(9, Fraction(9), False)
@example(9, Fraction(40, 3), True)
@example(9, Fraction(40, 3), False)
@settings(max_examples=150)
def test_candidate_ratios_farey_walk_matches_brute_force(B, alpha, certified):
    pairs = list(candidate_walk(B, alpha, require_m_le_t=certified))
    if certified:
        ratios = candidate_ratios(B, alpha)
    else:
        ratios = [Fraction(t, m) for t, m in pairs]
    assert ratios == [Fraction(t, m) for t, m in brute_force_pairs(B, alpha, certified)]
    assert all(x < y for x, y in zip(ratios, ratios[1:]))
    # candidate_ratios builds each Fraction from its walk pair without
    # Fraction's constructor; each must be the Fraction(t, m) of its pair
    assert len(ratios) == len(pairs)
    for r, (t, m) in zip(ratios, pairs):
        want = Fraction(t, m)
        assert type(r) is Fraction
        assert (type(r.numerator), type(r.denominator)) == (int, int)
        assert (r.numerator, r.denominator) == (t, m)
        assert (hash(r), str(r)) == (hash(want), str(want))
        assert pickle.loads(pickle.dumps(r)) == pickle.loads(pickle.dumps(want))
        assert r - want == 0


@given(st.integers(1, 10**12), st.integers(-40, 3))
@example(10**12, 0)  # alpha = (B+1)/B: [1]; below 1, alpha = 1/B: [1/B]
@example(10**12, -1)  # alpha = B/(B-1): [1, B/(B-1)]; 1/(B-1): [1/B, 1/(B-1)]
@example(10**12, 1)  # below 1, alpha = 1/(B+1) < 1/B: []
@example(1, 0)  # F_1 is 0/1, 1/1
@settings(max_examples=100)
def test_candidate_walk_ends_near_one_at_any_B(B, j):
    # for B/2 < n = B + j, the ratios t/m <= (n+1)/n are 1 and the
    # (m+1)/m with n <= m < B, and the fractions of order B at most 1/n
    # are the 1/m with n <= m <= B; the walks to those end terms take a
    # handful of steps even at B = 10^12
    n = B + j
    assume(2 * n > B)
    alpha = Fraction(n + 1, n)
    want = [Fraction(1)] + [Fraction(m + 1, m) for m in range(B - 1, n - 1, -1)]
    assert candidate_ratios(B, alpha) == want
    assert [Fraction(t, m) for t, m in candidate_walk(B, alpha)] == want
    below = candidate_walk(B, Fraction(1, n), require_m_le_t=False)
    assert [Fraction(t, m) for t, m in below] == [Fraction(1, m) for m in range(B, n - 1, -1)]


def _farey_terms(B):
    return sorted({Fraction(a, b) for b in range(1, B + 1) for a in range(b + 1)})


@given(st.integers(1, 60), st.fractions(min_value=0, max_value=1, max_denominator=500))
@example(1, Fraction(0))
@example(1, Fraction(1, 2))
@example(60, Fraction(1, 61))
@example(60, Fraction(60, 61))
@settings(max_examples=200)
def test_farey_ceil_is_the_least_term_above(B, x):
    want = min(y for y in _farey_terms(B) if y >= x)
    assert _farey_ceil(B, x.numerator, x.denominator) == (want.numerator, want.denominator)


@given(
    st.integers(10**6, 10**12),
    st.fractions(min_value=0, max_value=1, max_denominator=10**15),
)
@example(10**12, Fraction(10**12 - 1, 10**12 + 1))
@example(10**12, Fraction(1, 10**12 + 1))
@example(10**6, Fraction(0))
@example(10**6, Fraction(1))
@settings(max_examples=200)
def test_farey_ceil_at_large_B_has_its_predecessor_below(B, x):
    # a/b is a term of order B at or above x, and its predecessor a'/b'
    # of order B, the one with a*b' - a'*b = 1 and the largest b' <= B,
    # lies below x
    u, v = x.numerator, x.denominator
    a, b = _farey_ceil(B, u, v)
    assert 1 <= b <= B and math.gcd(a, b) == 1 and 0 <= a <= b
    assert a * v >= b * u
    if a == 0:
        assert u == 0
        return
    b0 = pow(a, -1, b) if b > 1 else 0
    b_prev = b0 + (B - b0) // b * b
    a_prev = (a * b_prev - 1) // b
    assert a * b_prev - a_prev * b == 1 and b_prev <= B < b + b_prev
    assert a_prev * v < b_prev * u


@pytest.mark.parametrize(
    "alpha, certified", [(Fraction(7, 3), True), (Fraction(3, 7), False)], ids=["above", "below"]
)
def test_a_wrong_end_term_raises(monkeypatch, alpha, certified):
    # in place of the true end, the terms of order B just below and just
    # above it and an unreduced copy of it: a walk that passes its end
    # raises at the end's denominator, one that stops short of it raises
    # at the next term
    B = 20
    x = 1 / alpha if certified else 1 - alpha
    terms = _farey_terms(B)
    i = terms.index(x)
    ends = [(y.numerator, y.denominator) for y in (terms[i - 1], terms[i + 1])]
    ends.append((2 * x.numerator, 2 * x.denominator))
    calls = [lambda: list(candidate_walk(B, alpha, require_m_le_t=certified))]
    if certified:
        calls.append(lambda: candidate_ratios(B, alpha))
    for end in ends:
        monkeypatch.setattr(bounds, "_farey_ceil", lambda B, u, v: end)
        for call in calls:
            with pytest.raises(BoundError, match="Farey walk"):
                call()


def test_fraction_slots_are_the_two_candidate_ratios_sets():
    # candidate_ratios sets these two slots itself instead of calling
    # Fraction(t, m); this guards that direct constructor on each Python
    # the CI matrix runs
    assert Fraction.__slots__ == ("_numerator", "_denominator")


def _assert_brute_force_ratios(B, alpha):
    ratios = candidate_ratios(B, alpha)
    want = [Fraction(t, m) for t, m in brute_force_pairs(B, alpha)]
    assert ratios == want
    for r, w in zip(ratios, want):
        assert type(r) is Fraction
        assert (type(r.numerator), type(r.denominator)) == (int, int)
        assert hash(r) == hash(w)


def test_candidate_ratios_on_both_sides_of_the_shared_int_table():
    # the ints come from one shared table from alpha = B/(B - 3) up and
    # from range(B + 1) below it; both give the brute force's ratios
    for B in range(4, 41):
        for alpha in (
            Fraction(B, B - 3),
            Fraction(B, B - 3) - Fraction(1, 10**6),
            Fraction(B, B - 2),
            Fraction(B, B - 2) - Fraction(1, 10**6),
            Fraction(B + 1, B),
        ):
            _assert_brute_force_ratios(B, alpha)


def test_candidate_ratios_share_one_int_per_value():
    B = 600
    ratios = candidate_ratios(B, Fraction(707, 250))
    assert len(ratios) == candidate_count(B, Fraction(707, 250))
    numerators = {id(r.numerator) for r in ratios}
    denominators = {id(r.denominator) for r in ratios}
    assert len(numerators | denominators) <= B + 1


def _traced(function, *args):
    tracemalloc.start()
    try:
        result = function(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_candidate_ratios_memory_is_bounded_by_the_list():
    # below the table's threshold nothing is allocated up front, even at
    # B = 10^8, where the list is [1]
    for alpha in (Fraction(1), Fraction(10**8 + 1, 10**8)):
        ratios, peak = _traced(candidate_ratios, 10**8, alpha)
        assert ratios == [Fraction(1)]
        assert peak < 1_000_000
    # at the threshold the table costs less than the list it serves
    for B in (300, 1000, 3000):
        ratios, peak = _traced(candidate_ratios, B, Fraction(B, B - 3))
        listed = sys.getsizeof(ratios) + sum(map(sys.getsizeof, ratios))
        assert peak < 2 * listed


def test_candidate_count_and_mertens_table_past_small_sieves():
    # the Hypothesis count oracles draw B <= 300, so the sieve of mu there
    # holds at most 64 entries; here it steps from 256 to 512 entries at
    # B = 2^13 and from 512 to 1024 at B = 2^14
    for B in (8191, 8192, 16383, 16384):
        for alpha in (Fraction(1001, 1000), Fraction(4097, 4096)):
            assert candidate_count(B, alpha) == len(list(candidate_walk(B, alpha)))

    def mobius(k):
        sign, p = 1, 2
        while p * p <= k:
            if k % p == 0:
                k //= p
                if k % p == 0:
                    return 0
                sign = -sign
            p += 1
        return -sign if k > 1 else sign

    brute = list(accumulate(map(mobius, range(1, 5001)), initial=0))
    # from the table alone (L = 8192), and above L = 256 by the recursion
    for limit in (2**19, 2**12):
        mertens = _mertens(limit)
        assert [mertens(x) for x in range(5001)] == brute


def test_mediant_examples():
    assert mediant_bounds([(1, 2), (3, 4)]) == (Fraction(1, 2), Fraction(2, 3), Fraction(3, 4))
    assert mediant_bounds([(5, 7)]) == (Fraction(5, 7),) * 3
    assert mediant_bounds([(1, 1), (1, 1), (1, 1)]) == (Fraction(1),) * 3


def test_mediant_rejects_bad_input():
    with pytest.raises(BoundError):
        mediant_bounds([])
    with pytest.raises(BoundError):
        mediant_bounds([(1, 2), (0, 3)])
    with pytest.raises(BoundError):
        mediant_bounds([(1, 2), (2, -3)])


POSITIVE_ENTRY = st.one_of(
    st.integers(1, 1000),
    st.fractions(min_value="1/1000", max_value="1000", max_denominator=1000),
)


@given(st.lists(st.tuples(POSITIVE_ENTRY, POSITIVE_ENTRY), min_size=1, max_size=10))
@example([(3, Fraction(1, 2)), (Fraction(7, 3), 5)])
def test_mediant_property(parts):
    lo, mid, hi = mediant_bounds(parts)
    assert lo <= mid <= hi
    assert lo == min(Fraction(a) / b for a, b in parts)
    assert hi == max(Fraction(a) / b for a, b in parts)
    assert mid == Fraction(sum(a for a, _ in parts)) / sum(b for _, b in parts)
    assert all(type(q) is Fraction for q in (lo, mid, hi))
