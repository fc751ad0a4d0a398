"""Negative controls: every invariant of `seshadri check` rejects a model
built to break it or, where no model can, a faulty stand-in for the
function it checks.  The cross-check's control is the omitted-curve test
in test_engine.py."""

import random
import re
from fractions import Fraction

import pytest

from seshadri import bounds, checks, degree, engine, models
from seshadri.degree import RRData
from seshadri.examples import builtin_suite, projective_plane
from seshadri.lattice import IntersectionLattice
from seshadri.values import replace


def _low_generic(build):
    # a curve of ratio 1/2 has m = 2t, so it needs v = 2; special's value
    # is left unbounded below, so that it is not proven above generic's
    return build("1/2", None, generic_curve=(1, 2), very_ample_multiplier=2)


def _high_degree_generic(build):
    # exact 11/8, a ratio m <= t allows at v = 1; its bound at alpha = 3/2
    # is B = 8 < 11, so the superset there lacks it
    return build("11/8", generic_curve=(11, 8))


def _unknown_surface(build):
    # degree 4 on a lattice that no built-in presents
    lat = IntersectionLattice(rank=1, gram=((4,),), basis_labels=("H",))
    return replace(build(), lattice=lat, polarization=(1,))


@pytest.mark.parametrize(
    "check, model, match",
    [
        # the sublevel set at 1 would hold mid but not special; the
        # stratum table rejects special above mid before any cut is read
        (checks.check_sublevel, "chain_model",
         "negative_control: stratum 'special' has a value of at least 3/2, above the stratum "
         "'mid' at most 1; the model's tables are geometrically inconsistent"),
        (checks.check_low_epsilon, _low_generic,
         "negative_control: positive-dimensional stratum 'generic' has value 1/2"),
        # the superset holds ratios t/m with t <= B only
        (checks.check_candidate_membership, _high_degree_generic,
         "negative_control/generic: certified value 11/8 missing from candidate set "
         "at alpha=3/2"),
        (checks.check_sigma_attainment, lambda build: build("1", "2"),
         "negative_control: stratum 'special' has a value of at least 2"),
        # chi(L) = 1/2 + 2 + 1, but the plane has 3 independent lines
        (checks.check_rr_sanity,
         lambda _: replace(projective_plane(1), rr=RRData(1, 4, 1)),
         r"projective_plane\(1\): chi\(1L\) = 7/2 but h\^0 = 3"),
        (checks.check_rr_sanity, _unknown_surface, "negative_control: no known section count"),
    ],
    ids=["sublevel_closedness", "low_epsilon_finiteness", "candidate_membership",
         "sigma_attainment", "rr_sanity", "rr_sanity_unknown_model"],
)
def test_invariant_rejects_a_model_built_to_break_it(request, violating_model, check, model, match):
    # a model is built from violating_model, or named by its fixture
    model = request.getfixturevalue(model) if isinstance(model, str) else model(violating_model)
    with pytest.raises(AssertionError, match=match):
        check([model])


def _above_generic(build):
    return build("1", "2")


@pytest.mark.parametrize(
    "check, model, generic",
    [
        (checks.check_steffens_and_rationality, _above_generic, "1"),
        (checks.check_sublevel, _above_generic, "1"),
        (checks.check_low_epsilon,
         lambda build: build("1/2", "2", generic_curve=(1, 2), very_ample_multiplier=2), "1/2"),
        (checks.check_candidate_membership, _above_generic, "1"),
    ],
    ids=["steffens_rationality", "sublevel_closedness", "low_epsilon_finiteness",
         "candidate_membership"],
)
def test_a_stratum_above_the_dense_one_fails_the_check(violating_model, check, model, generic):
    # special is proven at least 2, above the dense stratum, which every
    # reader of the stratum table rejects; each check names the model
    message = (
        f"negative_control: stratum 'special' has a value of at least 2, above the dense "
        f"stratum 'generic' at most {generic}; the model's tables are geometrically inconsistent"
    )
    with pytest.raises(AssertionError, match=f"^{re.escape(message)}$"):
        check([model(violating_model)])


def test_low_epsilon_counts_a_zero_dimensional_stratum_of_low_value():
    # the built-ins have no value below 1, so their report reads (0 found);
    # a curve of ratio 1/2 needs very_ample_multiplier 2
    doc = projective_plane(2).to_document()
    doc["very_ample_multiplier"] = 2
    doc["strata"].append({
        "label": "special",
        "closure_dim": 0,
        "specializes_from": ["generic"],
        "oracle_complete_below": "1",
        "candidates": [{"label": "low", "class": None, "t": 1, "m": 2}],
    })
    model = models.model_from_document(doc)
    assert model.stratum_table["special"].value == engine.SeshadriValue.exact(Fraction(1, 2))
    assert checks.check_low_epsilon([model]).endswith("(1 found)")


def test_candidate_membership_rejects_an_empty_sample():
    with pytest.raises(AssertionError, match="no certified value"):
        checks.check_candidate_membership([])


def _above_sqrt_d(model, stratum):
    return engine.SeshadriResult(hi=engine.SeshadriValue.sqrt(model.rr.d + 1))


def _minimal_M_plus_one(rr, a):
    bound = degree.minimal_M(rr, a)
    return degree.DegreeBound(
        a=bound.a, M=bound.M + 1, B=bound.B, vanishing_multiplier=bound.vanishing_multiplier
    )


def _mediant_max_minus_one(parts):
    lo, mid, hi = bounds.mediant_bounds(parts)
    return lo, mid, hi - 1


def _sublevel_set_shrinking_at_2(model, a):
    labels = engine.sublevel_set(model, a)
    return labels[1:] if a >= 2 else labels


@pytest.mark.parametrize(
    "run, name, stand_in, match",
    [
        (lambda: checks.check_roundtrip(builtin_suite()), "checks.load_model",
         lambda text: models.load_model(text.replace('"line"', '"Line"')),
         r"projective_plane\(1\): serialization does not round-trip"),
        (lambda: checks.check_steffens_and_rationality(builtin_suite()), "models.epsilon",
         lambda m, s: replace(engine.epsilon(m, s), witness=None),
         r"quadric\(1,1\)/generic: certified value lacks a reproducing witness"),
        (lambda: checks.check_steffens_and_rationality(builtin_suite()), "models.epsilon",
         _above_sqrt_d,
         r"projective_plane\(1\)/generic: value exceeds sqrt\(d\)"),
        (lambda: checks.check_minimal_M_closed_form(random.Random(20251018)), "checks.minimal_M",
         _minimal_M_plus_one, "closed-form minimal_M differs"),
        (lambda: checks.check_candidates_brute_force(random.Random(20240817)),
         "checks.candidate_walk",
         lambda B, alpha, **kw: bounds.candidate_walk(B + 1, alpha, **kw),
         "candidate enumeration differs"),
        (lambda: checks.check_candidates_brute_force(random.Random(20240817)),
         "checks.candidate_count",
         lambda B, alpha: bounds.candidate_count(B, alpha) + 1, "candidate count differs"),
        (lambda: checks.check_mediant(random.Random(991), max_parts=8), "checks.mediant_bounds",
         _mediant_max_minus_one, "mediant inequality fails"),
        (lambda: checks.check_sublevel(builtin_suite()), "checks.sublevel_set",
         _sublevel_set_shrinking_at_2,
         r"projective_plane\(1\): sublevel set shrank between thresholds at 2"),
    ],
    ids=["roundtrip", "steffens_rationality_witness", "steffens_rationality_ceiling",
         "minimal_M_closed_form", "candidate_brute_force", "candidate_count",
         "mediant_inequality", "sublevel_monotonicity"],
)
def test_invariant_rejects_a_faulty_function(monkeypatch, run, name, stand_in, match):
    monkeypatch.setattr(f"seshadri.{name}", stand_in)
    with pytest.raises(AssertionError, match=match):
        run()


def test_minimal_M_closed_form_draws_walk_far(monkeypatch):
    # the closed form is tested on long walks too, not only on the one or
    # two steps a random threshold needs, at a bounded cost in l_poly steps
    steps, linear = [], checks.linear_minimal_M

    def walk(rr, a):
        M = linear(rr, a)
        steps.append(M // a.denominator)
        return M

    monkeypatch.setattr(checks, "linear_minimal_M", walk)
    detail = checks.check_minimal_M_closed_form(random.Random(20251018))
    assert sum(n > 2 for n in steps) >= 5 and max(steps) > 50
    assert sum(steps[25:]) <= 300
    assert detail.endswith(f" up to {max(steps)} steps")


def test_run_all_checks_evaluates_each_stratum_twice_per_path(monkeypatch):
    # each of the 6 built-in strata once for the models' stratum tables,
    # and once more by the cross-check, which compares the paths directly;
    # the tables check the nef point alone, so only the cross-check
    # builds the nef result
    calls = {"epsilon_via_curves": 0, "epsilon_via_nef": 0}
    for name in calls:
        original = getattr(engine, name)

        def counted(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        for module in (engine, checks):
            monkeypatch.setattr(module, name, counted)
    assert all(result.passed for result in checks.run_all_checks())
    assert calls == {"epsilon_via_curves": 12, "epsilon_via_nef": 6}
