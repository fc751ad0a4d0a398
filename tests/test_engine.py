import copy
import json
import pickle
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seshadri.engine import (
    _best_candidate,
    Certification,
    CurveCandidate,
    EngineError,
    PointStratum,
    SeshadriResult,
    epsilon,
    epsilon_via_curves,
    epsilon_via_nef,
    global_epsilon,
    low_epsilon_strata,
    sigma_local,
    sublevel_set,
)
from seshadri import engine
from seshadri.family import Family, semicontinuity_check
from seshadri.examples import builtin_suite, f1_anticanonical, projective_plane, quadric
from seshadri.models import ModelError, SurfaceModel, load_model, model_from_document
from seshadri.degree import RRData
from seshadri.checks import check_cross, check_low_epsilon, check_steffens_and_rationality
from seshadri.lattice import CurveGeneratorSet, IntersectionLattice
from seshadri.values import SeshadriValue, replace, set_field


def test_plane_epsilon_is_one():
    model = projective_plane(1)
    res = epsilon_via_curves(model, model.stratum("generic"))
    assert res.value == SeshadriValue.exact(1)
    assert res.witness.label == "line"
    assert res.certification is Certification.EXACT_CERTIFIED


def test_f1_on_E_witnessed_by_E():
    model = f1_anticanonical()
    res = epsilon_via_curves(model, model.stratum("on_E"))
    assert res.value == SeshadriValue.exact(1)
    assert res.witness.label == "E"
    assert res.certification is Certification.EXACT_CERTIFIED


def test_f1_generic_is_two_with_fiber_witness():
    model = f1_anticanonical()
    res = epsilon_via_curves(model, model.stratum("generic"))
    assert res.value == SeshadriValue.exact(2)
    assert res.witness.label == "fiber"
    # independently via the two-point blow-up nef test
    nef = epsilon_via_nef(model, model.stratum("generic"))
    assert nef.value == res.value


def test_nef_plane():
    model = projective_plane(1)
    res = epsilon_via_nef(model, model.stratum("generic"))
    assert res.value == SeshadriValue.exact(1)


def test_nef_f1_on_E():
    model = f1_anticanonical()
    res = epsilon_via_nef(model, model.stratum("on_E"))
    assert res.value == SeshadriValue.exact(1)
    assert res.witness.label == "E-Ex"


def test_nef_missing_data_is_error():
    model = f1_anticanonical()
    orphan = PointStratum(label="nowhere", closure_dim=0)
    with pytest.raises(EngineError):
        epsilon_via_nef(model, orphan)


def test_cross_check_all_builtin_strata():
    models = builtin_suite()
    check_cross(models)
    for model in models:
        for stratum in model.strata:
            curve = epsilon_via_curves(model, stratum)
            assert curve.certification is Certification.EXACT_CERTIFIED


def _doc_without_candidate(drop_label):
    doc = json.loads(f1_anticanonical().to_json())
    for sd in doc["strata"]:
        if sd["label"] == "on_E":
            sd["candidates"] = [c for c in sd["candidates"] if c["label"] != drop_label]
    return doc


def test_cross_check_detects_omitted_curve():
    model = load_model(json.dumps(_doc_without_candidate("E")))
    stratum = model.stratum("on_E")
    assert epsilon_via_curves(model, stratum).value != epsilon_via_nef(model, stratum).value
    with pytest.raises(AssertionError, match="f1_anticanonical/on_E: curve path 2 != nef path 1"):
        check_cross([model])


def test_epsilon_raises_on_path_disagreement():
    model = load_model(json.dumps(_doc_without_candidate("E")))
    with pytest.raises(EngineError, match="on_E"):
        epsilon(model, model.stratum("on_E"))


def _plane_with_uncertified_cheat():
    # the table claims a curve of ratio 1/2 (so v = 2) and asserts no
    # completeness; the nef path on the blow-up certifies exactly 1
    doc = projective_plane(1).to_document()
    doc["very_ample_multiplier"] = 2
    stratum = doc["strata"][0]
    stratum["oracle_complete_below"] = None
    stratum["candidates"].append({"label": "cheat", "class": None, "t": 1, "m": 2})
    return model_from_document(doc)


def test_epsilon_raises_when_upper_bound_undercuts_nef():
    model = _plane_with_uncertified_cheat()
    assert epsilon_via_curves(model, model.stratum("generic")).certification is (
        Certification.UPPER_BOUND_ONLY
    )
    with pytest.raises(EngineError, match="upper_bound_only"):
        epsilon(model, model.stratum("generic"))
    with pytest.raises(EngineError, match="nef path"):
        global_epsilon(model)


def _f1_on_E(oracle_complete_below, keep=lambda c: True):
    doc = f1_anticanonical().to_document()
    for sd in doc["strata"]:
        if sd["label"] == "on_E":
            sd["oracle_complete_below"] = oracle_complete_below
            sd["candidates"] = [c for c in sd["candidates"] if keep(c)]
    model = model_from_document(doc)
    return model, model.stratum("on_E")  # the nef path certifies exactly 1


def test_epsilon_raises_when_nef_undercuts_certified_above():
    # an empty table complete below 3/2 claims epsilon >= 3/2
    model, stratum = _f1_on_E("3/2", keep=lambda c: False)
    assert epsilon_via_curves(model, stratum).certification is Certification.LOWER_BOUND_ONLY
    with pytest.raises(EngineError, match="lower_bound_only"):
        epsilon(model, stratum)
    # an upper bound of 2 whose table is complete below 3/2 makes the same claim
    model, stratum = _f1_on_E("3/2", keep=lambda c: c["label"] != "E")
    res = epsilon_via_curves(model, stratum)
    assert res.certification is Certification.UPPER_BOUND_ONLY
    assert res.certified_above == Fraction(3, 2)
    with pytest.raises(EngineError, match="upper_bound_only"):
        epsilon(model, stratum)


def test_epsilon_accepts_consistent_bounds():
    # 1/2 <= nef value 1 <= upper bound 2
    model, stratum = _f1_on_E("1/2", keep=lambda c: c["label"] != "E")
    res = epsilon(model, stratum)
    assert res.certification is Certification.UPPER_BOUND_ONLY
    assert res.value == SeshadriValue.exact(2)
    # 1/2 <= nef value 1
    model, stratum = _f1_on_E("1/2", keep=lambda c: False)
    assert epsilon(model, stratum).certification is Certification.LOWER_BOUND_ONLY


def test_sublevel_set_cross_checks_nef_path():
    # every value is exactly certified and the set at 1 is empty, hence
    # closed; only the nef path sees that on_E should be 1, not 2
    model = load_model(json.dumps(_doc_without_candidate("E")))
    with pytest.raises(EngineError, match="nef path"):
        sublevel_set(model, Fraction(1))


def test_each_stratum_is_evaluated_once_per_model(monkeypatch):
    calls = {"curves": 0, "nef": 0}

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(engine, "epsilon_via_curves", counted("curves", epsilon_via_curves))
    monkeypatch.setattr(engine, "epsilon_via_nef", counted("nef", epsilon_via_nef))
    model = f1_anticanonical()
    for k in range(1, 17):  # the thresholds of check_sublevel
        sublevel_set(model, Fraction(k, 4))
    global_epsilon(model)
    sigma_local(model)
    low_epsilon_strata(model, Fraction(1, 100))
    semicontinuity_check(Family(members=(("t", model),), degree=8))
    # the table checks each nef point in integers, with no nef result
    assert calls == {"curves": 2, "nef": 0}
    # and a clash is worded from that point, with none either
    model = load_model(json.dumps(_doc_without_candidate("E")))
    message = "^stratum 'on_E': curve path gives 2 [(]exact_certified[)] but nef path gives 1$"
    with pytest.raises(EngineError, match=message):
        model.stratum_table
    assert calls == {"curves": 4, "nef": 0}


def _bare_model(d, c, candidates=(), ocb=None, rank1_degree=None, very_ample_multiplier=1):
    e = rank1_degree if rank1_degree is not None else 1
    lat = IntersectionLattice(rank=1, gram=((1,),), basis_labels=("H",))
    return SurfaceModel(
        name="bare",
        lattice=lat,
        polarization=(e,),
        rr=RRData(d=d, c=c, c_prime=1),
        very_ample_multiplier=very_ample_multiplier,
        strata=(
            PointStratum(
                label="generic",
                closure_dim=2,
                candidates=tuple(candidates),
                oracle_complete_below=ocb,
            ),
        ),
        blowup_gens={},
    )


def test_empty_table_without_assertion_warns():
    model = _bare_model(d=4, c=6, rank1_degree=2)
    res = epsilon_via_curves(model, model.stratum("generic"))
    assert res.value == SeshadriValue.exact(2)  # sqrt(4)
    assert res.certification is Certification.UPPER_BOUND_ONLY
    assert "completeness" in res.warning


def test_empty_table_with_partial_assertion_gives_lower_bound():
    model = _bare_model(d=4, c=6, ocb=Fraction(3, 2), rank1_degree=2)
    res = epsilon_via_curves(model, model.stratum("generic"))
    assert res.certification is Certification.LOWER_BOUND_ONLY
    assert res.value == SeshadriValue.exact(Fraction(3, 2))
    assert res.certified_above == Fraction(3, 2)


def test_incomplete_table_gives_upper_bound():
    cand = CurveCandidate(label="c", degree_t=3, mult_m=2)
    model = _bare_model(d=4, c=6, candidates=(cand,), rank1_degree=2)
    res = epsilon_via_curves(model, model.stratum("generic"))
    assert res.value == SeshadriValue.exact(Fraction(3, 2))
    assert res.certification is Certification.UPPER_BOUND_ONLY


def test_sqrt_cap_certified_by_complete_oracle():
    # complete past sqrt(5) with nothing below: value is irrational sqrt(5)
    cand = CurveCandidate(label="c", degree_t=5, mult_m=2)
    lat = IntersectionLattice(rank=1, gram=((5,),), basis_labels=("H",))
    model = SurfaceModel(
        name="irr",
        lattice=lat,
        polarization=(1,),
        rr=RRData(d=5, c=7, c_prime=1),
        very_ample_multiplier=1,
        strata=(
            PointStratum(
                label="generic",
                closure_dim=2,
                candidates=(cand,),
                oracle_complete_below=Fraction(5, 2),
            ),
        ),
        blowup_gens={},
    )
    res = epsilon_via_curves(model, model.stratum("generic"))
    assert not res.value.is_exact
    assert res.value == SeshadriValue.sqrt(5)
    assert res.certification is Certification.EXACT_CERTIFIED


def test_witness_tie_break_is_deterministic():
    cands = (
        CurveCandidate(label="b", degree_t=2, mult_m=1),
        CurveCandidate(label="a", degree_t=2, mult_m=1),
        CurveCandidate(label="big", degree_t=4, mult_m=2),
    )
    model = _bare_model(d=9, c=9, candidates=cands, ocb=Fraction(2), rank1_degree=3)
    res = epsilon_via_curves(model, model.stratum("generic"))
    assert res.witness.label == "a"


_CEILING = SeshadriValue.sqrt(8)
_TWO = SeshadriValue.exact(2)
_UPPER = Certification.UPPER_BOUND_ONLY

_CURVE = CurveCandidate(label="c", degree_t=3, mult_m=1)

# (lo, witness, certification, value) of a result with hi = sqrt(8),
# derived from the fields alone: exact iff the interval is a point, a
# lower bound only when lo is known and no curve witnesses hi (the
# "_ceiling" cases), and an upper bound otherwise; the value is lo for a
# lower bound only, and hi otherwise
DERIVED = [
    (None, _CURVE, _UPPER, _CEILING),
    (None, None, _UPPER, _CEILING),
    (_CEILING, _CURVE, Certification.EXACT_CERTIFIED, _CEILING),
    (_CEILING, None, Certification.EXACT_CERTIFIED, _CEILING),
    (_TWO, _CURVE, _UPPER, _CEILING),
    (_TWO, None, Certification.LOWER_BOUND_ONLY, _TWO),
]


class _Reduced:
    """Deep-copies and pickles as the reduce tuple it holds."""

    def __init__(self, reduced):
        self.reduced = reduced

    def __reduce__(self):
        return self.reduced


@pytest.mark.parametrize(
    "lo, witness, certification, value", DERIVED,
    ids=["unknown", "unknown_ceiling", "point", "point_ceiling", "open", "open_ceiling"],
)
def test_certification_and_value_are_derived_on_every_construction_path(
    lo, witness, certification, value
):
    fields = (_CEILING, lo, witness, None, None)
    # other evidence, whose derived fields differ from the case's in one
    # at least: a path that kept them, and did not derive its own, fails
    other = SeshadriResult(hi=_TWO, lo=_TWO)
    assert (other.certification, other.value) != (certification, value)
    built = SeshadriResult(*fields)
    assert built.__reduce__() == (SeshadriResult, fields)
    paths = [
        lambda: built,
        lambda: SeshadriResult(**dict(zip(SeshadriResult._fields, fields))),
        lambda: replace(other, hi=_CEILING, lo=lo, witness=witness),
        lambda: copy.deepcopy(built),
        lambda: copy.deepcopy(_Reduced((SeshadriResult, fields))),
    ] + [
        lambda protocol=protocol: pickle.loads(
            pickle.dumps(_Reduced((SeshadriResult, fields)), protocol)
        )
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1)
    ]
    for path in paths:
        result = path()
        assert result.certification is certification
        assert result.value == value
    for name in ("certification", "value"):
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(built, name, None)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
            delattr(built, name)


def test_derived_fields_are_not_compared_hashed_or_shown():
    result = global_epsilon(f1_anticanonical())
    twin = replace(result)
    set_field(twin, "certification", Certification.LOWER_BOUND_ONLY)
    set_field(twin, "value", _CEILING)
    assert twin == result and hash(twin) == hash(result)
    assert repr(twin) == repr(result) == (
        "SeshadriResult(hi=SeshadriValue(1), lo=SeshadriValue(1), "
        "witness=CurveCandidate(label='E', degree_t=1, mult_m=1, coords=(0, 1)), "
        "warning=None, attained_at='on_E')"
    )
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.dumps(twin, protocol) == pickle.dumps(result, protocol)


def test_global_epsilon_f1():
    res = global_epsilon(f1_anticanonical())
    assert res.value == SeshadriValue.exact(1)
    assert res.attained_at == "on_E"
    assert res.witness.label == "E"
    assert res.certification is Certification.EXACT_CERTIFIED


def test_global_epsilon_plane_two():
    res = global_epsilon(projective_plane(2))
    assert res.value == SeshadriValue.exact(2)


def test_sublevel_f1():
    model = f1_anticanonical()
    assert sublevel_set(model, Fraction(1)) == ["on_E"]
    assert sublevel_set(model, Fraction(2)) == ["generic", "on_E"]
    # anything >= sqrt(8) catches every stratum
    assert sublevel_set(model, Fraction(3)) == ["generic", "on_E"]


@pytest.mark.parametrize("model", builtin_suite(), ids=lambda model: model.name)
def test_sublevel_sets_of_the_builtins_are_closed_under_their_pairs(model):
    # read from the stratum table, not from sublevel_set, at each cut of
    # check_sublevel's grid: a general stratum in the set brings in every
    # stratum that specializes from it
    table = model.stratum_table
    for a in (Fraction(k, 4) for k in range(1, 17)):
        chosen = {label for label, res in table.items() if res.value <= SeshadriValue.exact(a)}
        for s in model.strata:
            for general in s.specializes_from:
                assert general not in chosen or s.label in chosen, (a, general, s.label)


def test_sublevel_closure_violation_is_error(chain_model):
    # mid (exact 1) dips below its specialization special (exact 3/2), so
    # the set at 1 would hold mid but not special: the stratum table
    # rejects the pair, at every cut, the cuts that hold both included
    for a in (Fraction(1), Fraction(3, 2), Fraction(2)):
        with pytest.raises(
            EngineError,
            match="^stratum 'special' has a value of at least 3/2, above the stratum 'mid' "
            "at most 1; the model's tables are geometrically inconsistent$",
        ):
            sublevel_set(chain_model, a)
    # doctor f1's table so the dense stratum dips below its specialization;
    # without its blow-up generators the nef path does not refute it first;
    # the cheat's ratio 1/2 needs very_ample_multiplier 2.  on_E is then
    # proven above the dense stratum, which fails the model itself
    doc = json.loads(f1_anticanonical().to_json())
    doc["very_ample_multiplier"] = 2
    del doc["blowup_gens"]["generic"]
    for sd in doc["strata"]:
        if sd["label"] == "generic":
            sd["candidates"].append({"label": "cheat", "class": None, "t": 1, "m": 2})
            sd["oracle_complete_below"] = "1/2"
    model = load_model(json.dumps(doc))
    with pytest.raises(
        EngineError,
        match="stratum 'on_E' has a value of at least 1, above the dense stratum 'generic' at most 1/2",
    ):
        sublevel_set(model, Fraction(1, 2))


def test_sublevel_requires_certification():
    model = _bare_model(d=4, c=6, rank1_degree=2)
    with pytest.raises(EngineError, match="certified"):
        sublevel_set(model, Fraction(1))


def test_sigma_f1():
    sig = sigma_local(f1_anticanonical())
    assert sig.value == SeshadriValue.exact(2)
    assert sig.attained_at == "generic"


def test_sigma_quadric22_ruling_witness():
    model = quadric(2, 2)
    sig = sigma_local(model)
    assert sig.value == SeshadriValue.exact(2)
    res = epsilon(model, model.stratum("generic"))
    assert res.witness.degree_t == 2 and res.witness.mult_m == 1


def test_low_epsilon_strata_empty_on_builtins():
    assert check_low_epsilon(builtin_suite()).endswith("(0 found)")


def test_low_epsilon_strata_lists_a_value_of_exactly_one_minus_delta():
    cand = CurveCandidate(label="half", degree_t=1, mult_m=2)
    model = _bare_model(
        d=4, c=6, candidates=(cand,), ocb=Fraction(1, 2), rank1_degree=2, very_ample_multiplier=2
    )
    half = SeshadriValue.exact(Fraction(1, 2))
    assert low_epsilon_strata(model, Fraction(1, 2)) == [("generic", half)]
    assert low_epsilon_strata(model, Fraction(2, 3)) == []


def test_curve_at_the_ceiling_is_no_witness_without_completeness():
    # the line's ratio 2 equals sqrt(4): it bounds the value above no
    # lower than the ceiling does, and nothing bounds the value below
    model = projective_plane(2)
    stratum = replace(model.stratum("generic"), oracle_complete_below=None)
    assert SeshadriValue.exact(_best_candidate(stratum.candidates).ratio) == SeshadriValue.sqrt(4)
    res = epsilon_via_curves(model, stratum)
    assert res.hi == SeshadriValue.sqrt(4) and res.lo is None
    assert res.witness is None


def test_steffens_bound_everywhere():
    models = builtin_suite()
    check_steffens_and_rationality(models)  # the curve path, through epsilon
    for model in models:
        for stratum in model.strata:
            assert epsilon_via_nef(model, stratum).value <= SeshadriValue.sqrt(model.rr.d)


_candidates = st.lists(
    st.builds(
        CurveCandidate,
        label=st.sampled_from(["a", "b", "c"]),
        degree_t=st.integers(1, 12),
        mult_m=st.integers(1, 6),
    ),
    max_size=8,
)


@given(_candidates)
@settings(max_examples=300)
def test_best_candidate_matches_fraction_key(candidates):
    # the witness order is ratio, then degree, then label; ties keep the
    # first listed candidate
    expected = min(
        candidates, key=lambda c: (Fraction(c.degree_t, c.mult_m), c.degree_t, c.label), default=None
    )
    assert _best_candidate(candidates) is expected


def _least_multiplier(gens):
    """The least very_ample_multiplier v with e <= v*deg for every
    generator of positive degree: the ceiling of its largest e/deg."""
    return max([1] + [-(-e // deg) for _, deg, e in gens if deg > 0])


def _nef_model(d, gens, very_ample_multiplier=None):
    """A model of degree d whose stratum 'generic' has blow-up generators
    of the given (label, degree, multiplicity at the point).  The basis
    H, F has H^2 = d, H.F = 1, F^2 = 0 and L = H, so the class
    deg*F - e*Ex has pi^*L-degree deg and meets Ex in e.  The
    multiplier defaults to the least one the generators allow."""
    lat = IntersectionLattice(rank=2, gram=((d, 1), (1, 0)), basis_labels=("H", "F"))
    if very_ample_multiplier is None:
        very_ample_multiplier = _least_multiplier(gens)
    return SurfaceModel(
        name="nef_probe",
        lattice=lat,
        polarization=(1, 0),  # H
        rr=RRData(d=d, c=0, c_prime=1),
        very_ample_multiplier=very_ample_multiplier,
        strata=(PointStratum(label="generic", closure_dim=2),),
        blowup_gens={
            "generic": CurveGeneratorSet(
                labels=tuple(label for label, _, _ in gens),
                rows=tuple((0, deg, -e) for _, deg, e in gens),
            )
        },
    )


def _nef_reference(d, gens):
    """(value, witness label, t, m) by Fractions and SeshadriValues: the
    least ratio deg/e over generators with e > 0 that does not exceed
    sqrt(d), ties by degree then label; sqrt(d) with no witness if none."""
    ceiling = SeshadriValue.sqrt(d)
    ratios = [
        (Fraction(deg, e), deg, label, e)
        for label, deg, e in gens
        if e > 0 and SeshadriValue.exact(Fraction(deg, e)) <= ceiling
    ]
    if not ratios:
        return ceiling, None, None, None
    q, deg, label, e = min(ratios)
    return SeshadriValue.exact(q), label, deg, e


_generators = st.lists(
    st.tuples(st.sampled_from(["a", "b", "c"]), st.integers(-1, 30), st.integers(-2, 6)).filter(
        lambda g: g[1:] != (0, 0)  # the zero class is not a generator
    ),
    max_size=8,
)


@given(st.one_of(st.integers(1, 60), st.integers(1, 8).map(lambda k: k * k)), _generators)
@example(4, [("b", 2, 1)])  # square d: the ratio equals sqrt(d)
@example(9, [("c", 6, 2), ("b", 3, 1), ("a", 6, 2), ("z", 4, 1)])  # equal ratios
@example(8, [("up", 5, 1), ("down", 1, -1), ("flat", 7, 0)])  # above sqrt(d), e <= 0
@example(8, [("ok", 2, 1), ("bad", -1, 1)])  # negative degree
@example(8, [("ok", 2, 1), ("bad", -1, -1)])  # negative degree, Ex.C < 0
@example(8, [("ok", 2, 1), ("minusEx", 0, 1)])  # a negative multiple of Ex
@example(8, [("steep", 1, 3), ("ok", 2, 1)])  # e > deg: loads at v = 3 only
@example(8, [("a", 3, 1), ("b", 6, 2)])  # the least ratio, a tie, lies above sqrt(d)
@example(9, [("b", 3, 1), ("a", 3, 1)])  # a tie exactly at sqrt(d): the label decides
@settings(max_examples=300)
def test_nef_path_matches_fraction_reference(d, gens):
    if any(deg < 0 or (deg == 0 and e > 0) for _, deg, e in gens):
        # the ampleness gate, or a class -e*Ex that is not effective
        with pytest.raises(ModelError):
            _nef_model(d, gens)
        return
    if _least_multiplier(gens) > 1:
        # with vL very ample no curve has e > v*deg
        with pytest.raises(ModelError, match="exceeds very_ample_multiplier 1 times degree"):
            _nef_model(d, gens, very_ample_multiplier=1)
    model = _nef_model(d, gens)
    value, label, t, m = _nef_reference(d, gens)
    res = epsilon_via_nef(model, model.stratum("generic"))
    assert res.value == value and res.value.serialize() == value.serialize()
    assert res.certification is Certification.EXACT_CERTIFIED
    if label is None:
        assert res.witness is None
    else:
        assert (res.witness.label, res.witness.degree_t, res.witness.mult_m) == (label, t, m)
        assert res.witness.coords == (0, t, -m)
