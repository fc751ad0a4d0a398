import functools
import json
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seshadri import bounds, engine
from seshadri import family as family_module
from seshadri import models as models_module
from seshadri.bounds import CandidateSuperset
from seshadri.examples import f1_anticanonical, projective_plane, quadric
from seshadri.family import (
    Family,
    FamilyError,
    load_family,
    member_candidate_superset,
    scan,
    semicontinuity_check,
)
from seshadri.models import ModelError, load_model, model_from_document
from seshadri.values import SeshadriValue

from strategies import Stratum, blown_up_plane


def d8_family():
    return Family(
        members=(("t0", f1_anticanonical()), ("t1", quadric(2, 2))),
        degree=8,
    )


def test_scan_d8_frozen_values():
    report = scan(d8_family(), Fraction(5, 2))
    assert report.sigma_family == SeshadriValue.exact(2)
    assert report.sigma_attained_at in {("t0", "generic"), ("t1", "generic")}
    assert report.sigma_cap == (Fraction(1), Fraction(2))
    assert all((q.numerator, q.denominator) in report.candidate_superset for q in report.sigma_cap)
    assert report.uncertified == ()


def test_scan_single_member_plane():
    family = Family(members=(("t", projective_plane(1)),), degree=1)
    report = scan(family, Fraction(1, 2))
    assert report.sigma_cap == ()
    assert report.sigma_family == SeshadriValue.exact(1)


def test_scan_evaluates_each_stratum_once(monkeypatch):
    calls = {"curves": 0, "nef": 0}
    via_curves, via_nef = engine.epsilon_via_curves, engine.epsilon_via_nef

    def counted_curves(*args, **kwargs):
        calls["curves"] += 1
        return via_curves(*args, **kwargs)

    def counted_nef(*args, **kwargs):
        calls["nef"] += 1
        return via_nef(*args, **kwargs)

    monkeypatch.setattr(engine, "epsilon_via_curves", counted_curves)
    monkeypatch.setattr(engine, "epsilon_via_nef", counted_nef)
    family = Family(
        members=(("general", quadric(2, 2)), ("special", f1_anticanonical())),
        degree=8,
        member_specialization=(("general", "special"),),
    )
    report = scan(family, Fraction(5, 2))
    # every built-in stratum has blow-up generators, so each row costs
    # exactly one curve-path call, and its nef point is checked with no
    # nef result
    assert len(report.epsilon_table) == 3
    assert calls == {"curves": 3, "nef": 0}


def test_scan_computes_each_member_global_result_once(monkeypatch):
    calls = []
    original = family_module.global_epsilon

    def counted(model):
        calls.append(model)
        return original(model)

    monkeypatch.setattr(family_module, "global_epsilon", counted)
    family = Family(
        members=(("general", quadric(2, 2)), ("special", f1_anticanonical())),
        degree=8,
        member_specialization=(("general", "special"),),
    )
    report = scan(family, Fraction(5, 2))
    # one call per member, for the jumps and the member verdicts alike
    assert sorted(map(id, calls)) == sorted(id(model) for _, model in family.members)
    assert list(report.semicontinuity_verdicts) == semicontinuity_check(family)


def test_minimal_M_calls_per_stratum_and_member(monkeypatch):
    # d = 98; the dense stratum sits at sqrt(d) with no generator set, and
    # the other four are exactly 5, 11/3, 1 and 1, each complete below its
    # value: three distinct thresholds p/q under sqrt(d).  Only s3 lists a
    # degree above q*d, the least its bound can be: a curve of degree 100
    # and ratio 100, which the bound allows
    doc = blown_up_plane(
        10,
        (1, 1),
        [
            Stratum(),
            Stratum((((1, 0, 0), 2),), (0,), Fraction(5)),
            Stratum((((1, 1, 0), 3),), (0,), Fraction(11, 3)),
            Stratum((((0, 1, 0), 1), ((10, 0, 0), 1)), (0, 1), Fraction(1)),
            Stratum((((1, 0, 0), 2), ((0, 0, 1), 1)), (0, 1), Fraction(1)),
        ],
    )
    calls, minimal_M = [], bounds.minimal_M

    def counted(rr, a):
        calls.append(a)
        return minimal_M(rr, a)

    for module in (engine, models_module, family_module, bounds):
        if getattr(module, "minimal_M", None) is minimal_M:
            monkeypatch.setattr(module, "minimal_M", counted)
    members = tuple((label, models_module.model_from_document(doc)) for label in ("a", "b"))
    # validation: one bound per stratum complete below a threshold under
    # sqrt(d) that lists a degree its bound could stop, for each model
    assert calls == [Fraction(1)] * 2
    calls.clear()
    report = scan(Family(members=members, degree=98), Fraction(3))
    assert len(report.epsilon_table) == 10
    # the scan: per member, the bound of its superset and its rows' bound
    assert calls == [Fraction(3)] * 4


def _walk_reference(model, alpha):
    """(v, B, ratios) of a model's candidate superset at alpha, from the
    Farey walk for the v-th power of its polarization: the ratios
    t/(m*v) of its pairs, ascending."""
    v, rr = model.very_ample_multiplier, model.rr
    scaled = bounds.RRData(
        d=v * v * rr.d, c=v * rr.c, c_prime=rr.c_prime,
        vanishing_multiplier=rr.vanishing_multiplier,
    )
    B = bounds.minimal_M(scaled, v * alpha).B
    return v, B, [Fraction(t, m * v) for t, m in bounds.candidate_walk(B, v * alpha)]


@pytest.mark.parametrize("multiplier", [1, 2])
def test_scan_superset_is_sorted_union(multiplier, check_superset):
    # with multiplier 2 member b's superset differs from a's
    doc = json.loads(projective_plane(3).to_json())
    doc["very_ample_multiplier"] = multiplier
    members = (("a", projective_plane(3)), ("b", load_model(json.dumps(doc))))
    alpha = Fraction(5, 2)
    references = [_walk_reference(model, alpha) for _, model in members]
    assert (references[0] != references[1]) == (multiplier != 1)
    report = scan(Family(members=members, degree=9), alpha)
    # one set per distinct multiplier, ascending in v, each the walk in order
    union = report.candidate_superset
    assert [(s.very_ample_multiplier, s.B) for s in union.sets] == sorted(
        {(v, B) for v, B, _ in references}
    )
    for s in union.sets:
        v, B, ratios = next(r for r in references if r[0] == s.very_ample_multiplier)
        check_superset(s, ratios, [(v, B, alpha)])
    # reduced pairs: equal ratios are equal pairs, so the union is the set of ratios
    union_ratios = sorted(set(references[0][2]) | set(references[1][2]))
    assert len(union_ratios) < len(references[0][2]) + len(references[1][2])
    outside = check_superset(union, union_ratios, [(v, B, alpha) for v, B, _ in references])
    assert len(outside) == 4


def test_scan_superset_merges_keys_of_multiplier_one(check_superset):
    # two RR data with multiplier 1: B = 18 and B = 36 at alpha 5/2.  The
    # walks at one alpha nest by B, so the union is the larger walk
    doc = json.loads(projective_plane(3).to_json())
    doc["rr"]["c"] = 0
    members = (("a", projective_plane(3)), ("b", load_model(json.dumps(doc))))
    alpha = Fraction(5, 2)
    assert [bounds.minimal_M(model.rr, alpha).B for _, model in members] == [18, 36]
    report = scan(Family(members=members, degree=9), alpha)
    assert report.candidate_superset.sets == (CandidateSuperset(1, 36, alpha),)
    walk = [Fraction(t, m) for t, m in bounds.candidate_walk(36, alpha)]
    check_superset(report.candidate_superset.sets[0], walk, [(1, 36, alpha)])
    check_superset(report.candidate_superset, walk, [(1, 18, alpha), (1, 36, alpha)])
    assert len(report.candidate_superset) == 238


def test_mixed_degrees_rejected():
    with pytest.raises(FamilyError, match="degree"):
        Family(
            members=(("a", projective_plane(2)), ("b", quadric(2, 2))),
            degree=4,
        )


def test_duplicate_member_labels_rejected():
    with pytest.raises(FamilyError, match="distinct"):
        Family(members=(("a", projective_plane(1)), ("a", projective_plane(1))), degree=1)


def test_cyclic_member_specialization_rejected():
    with pytest.raises(FamilyError, match="cyclic"):
        Family(
            members=(("a", projective_plane(1)), ("b", projective_plane(1))),
            degree=1,
            member_specialization=(("a", "b"), ("b", "a")),
        )


def test_family_degree_is_an_exact_positive_int():
    # 8.0 was accepted, and the scan report printed "degree": 8.0
    f1 = f1_anticanonical()
    with pytest.raises(FamilyError, match=r"^degree must be an integer, got 8\.0$"):
        Family(members=(("a", f1),), degree=8.0)
    with pytest.raises(FamilyError, match="^degree must be an integer, got True$"):
        Family(members=(("a", projective_plane(1)),), degree=True)
    with pytest.raises(FamilyError, match="^degree must be positive, got 0$"):
        Family(members=(("a", f1),), degree=0)


@pytest.mark.parametrize(
    "label, message",
    [(5, "label of a family member must be a string, got 5"),
     ("", "a family member needs a non-empty label")],
    ids=["int", "empty"],
)
def test_member_label_is_a_non_empty_string(label, message):
    # a label 5 reached the CSV, and "" was accepted too
    with pytest.raises(FamilyError, match=f"^{message}$"):
        Family(members=((label, f1_anticanonical()),), degree=8)


@pytest.mark.parametrize("pair", [("a", "b", "a"), ("a",)], ids=["three", "one"])
def test_member_specialization_pair_has_two_labels(pair):
    # a bare "too many values to unpack" (or "not enough") before
    members = (("a", projective_plane(1)), ("b", projective_plane(1)))
    with pytest.raises(FamilyError, match=r"^a member specialization is a \(general, special\) pair"):
        Family(members=members, degree=1, member_specialization=(pair,))
    with pytest.raises(FamilyError, match="^entry of a member specialization must be a string"):
        Family(members=members, degree=1, member_specialization=(("a", 2),))


_PAIR = r"is a \(label, SurfaceModel\) pair, got "


@pytest.mark.parametrize(
    "member, message",
    [(("a",), _PAIR + r"\(str\)"), (("a", None), _PAIR + r"\(str, NoneType\)"),
     (("a", f1_anticanonical(), 1), _PAIR + r"\(str, SurfaceModel, int\)"),
     ("ab", "must be a sequence, got 'ab'")],
    ids=["one", "no_model", "three", "string"],
)
def test_member_is_a_label_and_a_model(member, message):
    # a bare ValueError (unpacking) or AttributeError (.rr) before; a str
    # member was read as the pair of its characters
    with pytest.raises(FamilyError, match=f"^a family member {message}$"):
        Family(members=(member,), degree=8)


def test_family_containers_of_the_wrong_kind_raise_a_family_error():
    # a bare TypeError before
    with pytest.raises(FamilyError, match="^members must be a sequence, got None$"):
        Family(members=None, degree=8)
    with pytest.raises(FamilyError, match="^a family member must be a sequence, got 5$"):
        Family(members=(5,), degree=8)
    with pytest.raises(FamilyError, match="^member_specialization must be a sequence, got None$"):
        Family(members=(("a", f1_anticanonical()),), degree=8, member_specialization=None)
    # a str was read as the pair of its characters
    with pytest.raises(FamilyError, match="^a member specialization must be a sequence, got 'ab'$"):
        Family(members=(("a", f1_anticanonical()),), degree=8, member_specialization=("ab",))


def test_alpha_must_be_below_sqrt_d():
    with pytest.raises(FamilyError, match="alpha"):
        scan(d8_family(), Fraction(3))


@pytest.mark.parametrize(
    "family, alpha",
    [
        (d8_family, Fraction(0)),
        (lambda: Family(members=(("t", projective_plane(2)),), degree=4), Fraction(2)),
    ],
    ids=["alpha_zero", "alpha_squared_is_d"],
)
def test_alpha_at_either_end_is_rejected(family, alpha):
    with pytest.raises(FamilyError, match=r"^alpha must satisfy 0 < alpha\^2 < d"):
        scan(family(), alpha)


def test_certified_value_equal_to_alpha_is_in_sigma_cap():
    report = scan(Family(members=(("t", f1_anticanonical()),), degree=8), Fraction(2))
    assert report.sigma_cap == (Fraction(1), Fraction(2))


def test_semicontinuity_f1_internal():
    verdicts = semicontinuity_check(Family(members=(("t", f1_anticanonical()),), degree=8))
    assert len(verdicts) == 1
    v = verdicts[0]
    assert v.kind == "stratum" and (v.general, v.special) == ("generic", "on_E")
    assert v.general_value == SeshadriValue.exact(2)
    assert v.special_value == SeshadriValue.exact(1)
    assert v.passed


def test_semicontinuity_negative_control(violating_model):
    family = Family(members=(("t", violating_model()),), degree=4)
    verdicts = semicontinuity_check(family)
    failing = [v for v in verdicts if not v.passed]
    assert len(failing) == 1
    assert (failing[0].general, failing[0].special) == ("generic", "special")
    # two upper bounds prove neither order
    assert failing[0].status == "undetermined"
    assert failing[0].to_document()["undetermined"] is True


def test_semicontinuity_certified_negative_control(violating_model, chain_document):
    # f1's global value 1 specializes to quadric(2,2)'s 2: only a member
    # pair can fail, since a model's own pairs are checked by its table
    family = Family(
        members=(("general", f1_anticanonical()), ("special", quadric(2, 2))),
        degree=8,
        member_specialization=(("general", "special"),),
    )
    verdict, *strata = semicontinuity_check(family)
    assert [(v.kind, v.status) for v in strata] == [("stratum", "pass")]
    assert (verdict.kind, verdict.general, verdict.special) == ("member", "general", "special")
    assert verdict.status == "fail" and not verdict.passed
    doc = verdict.to_document()
    assert (doc["general_value"], doc["special_value"], doc["passed"]) == ("1", "2", False)
    assert "undetermined" not in doc
    # a special stratum proven above the dense one, or above one it
    # specializes from, fails the model itself as it is built: no family
    # can hold it
    for build, message in (
        (lambda: violating_model("1", "2"),
         "stratum 'special' has a value of at least 2, above the dense stratum 'generic' "
         "at most 1"),
        (lambda: model_from_document(chain_document),
         "stratum 'special' has a value of at least 3/2, above the stratum 'mid' at most 1"),
    ):
        with pytest.raises(ModelError, match=f"^{message};"):
            semicontinuity_check(Family(members=(("t", build()),), degree=4))


def test_member_specialization_verdicts():
    family = Family(
        members=(("general", quadric(2, 2)), ("special", f1_anticanonical())),
        degree=8,
        member_specialization=(("general", "special"),),
    )
    verdicts = [v for v in semicontinuity_check(family) if v.kind == "member"]
    assert len(verdicts) == 1
    assert verdicts[0].passed  # 1 <= 2
    report = scan(family, Fraction(5, 2))
    assert report.jump_members == ("special",)


def test_member_verdict_passes_when_special_hi_equals_general_lo():
    # two identical exact members: special's hi is general's lo, which
    # proves special <= general with no room to spare
    family = Family(
        members=(("general", quadric(2, 2)), ("special", quadric(2, 2))),
        degree=8,
        member_specialization=(("general", "special"),),
    )
    (verdict,) = [v for v in semicontinuity_check(family) if v.kind == "member"]
    assert verdict.general_value == verdict.special_value == SeshadriValue.exact(2)
    assert verdict.status == "pass" and verdict.passed


def test_empty_specialization_list_gives_no_member_verdicts():
    verdicts = semicontinuity_check(d8_family())
    assert all(v.kind == "stratum" for v in verdicts)


def test_report_determinism():
    a = scan(d8_family(), Fraction(5, 2))
    b = scan(d8_family(), Fraction(5, 2))
    assert json.dumps(a.to_document()) == json.dumps(b.to_document())
    assert a.to_csv() == b.to_csv()


def test_csv_columns():
    report = scan(d8_family(), Fraction(5, 2))
    lines = report.to_csv().splitlines()
    assert lines[0] == "param_label,stratum,epsilon,certification,witness"
    assert "t0,on_E,1,exact_certified,E" in lines


def test_candidate_superset_respects_multiplier(check_superset):
    model = projective_plane(2)
    alpha = Fraction(3, 2)
    superset = member_candidate_superset(model, alpha)
    # built-ins declare multiplier 1: the walk's pairs, with nothing to divide
    B = bounds.minimal_M(model.rr, alpha).B
    assert superset == CandidateSuperset(1, B, alpha)
    walk = [Fraction(t, m) for t, m in bounds.candidate_walk(B, alpha)]
    check_superset(superset, walk, [(1, B, alpha)])
    assert all(q <= alpha for q in walk)


@settings(max_examples=50, deadline=None)
@given(
    st.integers(1, 300),
    st.sampled_from([1, 2, 3]),
    st.builds(Fraction, st.integers(1, 12), st.integers(1, 4)),
    st.lists(st.tuples(st.integers(-1, 305), st.integers(-1, 915)), max_size=40),
)
@example(B=40, v=1, alpha=Fraction(3, 4), probes=[(1, 1), (3, 4)])
@example(B=300, v=3, alpha=Fraction(4), probes=[(301, 900), (4, 1), (5, 1)])
def test_candidate_superset_counts_and_tests_the_walk(B, v, alpha, probes):
    # len is the walk's length without walking, and `in` holds exactly
    # for the walk's pairs divided by v, reduced; a pair that is not
    # reduced, or has b < 1, is not one of them
    superset = CandidateSuperset(v, B, alpha)
    walk = list(bounds.candidate_walk(B, v * alpha))
    assert len(superset) == len(walk)
    listed = [(q.numerator, q.denominator) for q in (Fraction(t, m * v) for t, m in walk)]
    assert list(superset) == listed
    held = set(listed)
    assert all(pair in superset for pair in listed)
    near = listed[:3] + listed[-3:] + [(B + 1, B * v), (B + 1, 1)]
    probes = probes + [(a + da, b + db) for a, b in near for da, db in ((1, 0), (-1, 0), (0, 1), (0, -1))]
    for pair in probes:
        assert (pair in superset) == (pair in held), pair


@functools.lru_cache(maxsize=None)
def _plane2_with_multiplier(v):
    doc = json.loads(projective_plane(2).to_json())
    doc["very_ample_multiplier"] = v
    return load_model(json.dumps(doc))


def _ratios(pairs):
    return [Fraction(t, m) for t, m in pairs]


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([1, 2, 3]),
    st.sampled_from([1, 2, 3]),
    st.builds(Fraction, st.integers(1, 7), st.integers(1, 4)).filter(lambda a: a < 2),
)
def test_superset_pairs_match_fraction_reference(check_superset, v, w, alpha):
    # each member's pairs are the reduced ratios t/(m*u) of the walk for
    # the u-th power of its polarization, ascending; two multipliers make
    # two sets, whose union the report holds
    models = (_plane2_with_multiplier(v), _plane2_with_multiplier(w))
    expected, walks = set(), []
    for model in models:
        u, rr = model.very_ample_multiplier, model.rr
        scaled = bounds.RRData(
            d=u * u * rr.d, c=u * rr.c, c_prime=rr.c_prime,
            vanishing_multiplier=rr.vanishing_multiplier,
        )
        B = bounds.minimal_M(scaled, u * alpha).B
        walk = bounds.candidate_walk(B, u * alpha)
        reference = {Fraction(t, m) / u for t, m in walk}
        pairs = member_candidate_superset(model, alpha)
        assert _ratios(pairs) == sorted(reference)
        assert all(math.gcd(t, m) == 1 for t, m in pairs)
        check_superset(pairs, sorted(reference), [(u, B, alpha)])
        expected |= reference
        walks.append((u, B, alpha))
    report = scan(Family(members=(("a", models[0]), ("b", models[1])), degree=4), alpha)
    assert len(report.candidate_superset.sets) == len({v, w})
    check_superset(report.candidate_superset, sorted(expected), walks)


def _plane2_with_curve(v, t, m):
    """projective_plane(2) at multiplier v whose dense stratum's table,
    complete below t/m, lists one curve of ratio t/m; no blow-up data,
    so that the curve table alone decides the value."""
    doc = projective_plane(2).to_document()
    doc["very_ample_multiplier"] = v
    doc["blowup_gens"] = {}
    (stratum,) = doc["strata"]
    stratum["candidates"] = [{"label": "low", "class": None, "t": t, "m": m}]
    stratum["oracle_complete_below"] = f"{t}/{m}"
    return models_module.model_from_document(doc)


@pytest.mark.parametrize(
    "v, t, m, alpha",
    [(1, 11, 8, Fraction(3, 2)), (2, 1, 2, Fraction(1))],
    ids=["escapes", "multiplier_covers"],
)
def test_observed_value_outside_the_superset_is_an_error(v, t, m, alpha, check_superset):
    # with v = 1 the superset at alpha = 3/2 holds ratios t/m with
    # t <= B = 8 only, so 11/8 escapes it by its degree; with v = 2 the raw
    # pair (1, 1) divides to (1, 2)
    model = _plane2_with_curve(v, t, m)
    family = Family(members=(("t", model),), degree=4)
    _, B, reference = _walk_reference(model, alpha)
    superset = member_candidate_superset(model, alpha)
    check_superset(superset, reference, [(v, B, alpha)])
    assert ((t, m) in superset) == (v == 2)
    if v == 1:
        assert B < t
        escape = f"^observed values escape the candidate superset: {t}/{m}$"
        with pytest.raises(FamilyError, match=escape):
            scan(family, alpha)
    else:
        report = scan(family, alpha)
        assert report.sigma_cap == (Fraction(1, 2),)
        assert next(iter(report.candidate_superset.sets[0])) == (1, 2)
        check_superset(report.candidate_superset, reference, [(v, B, alpha)])


def test_scan_near_sqrt_d_counts_the_superset_without_listing_it():
    # f1 at 707/250 has B = 2000 and 786,396 candidate ratios, and near
    # sqrt(8) B = 8,000,000: each report states the count, never the list
    family = Family(members=(("t", f1_anticanonical()),), degree=8)
    report = scan(family, Fraction(707, 250))
    assert len(report.candidate_superset) == 786_396
    assert len(json.dumps(report.to_document())) < 10_000
    report = scan(family, Fraction(2828427, 1000000))
    (entry,) = report.to_document()["candidate_supersets"]
    assert (entry["very_ample_multiplier"], entry["B"]) == (1, 8_000_000)
    assert entry["size"] > 786_396


def test_load_family_inline_and_file(tmp_path):
    f1 = f1_anticanonical()
    (tmp_path / "f1.json").write_text(f1.to_json())
    doc = {
        "degree": 8,
        "members": [
            {"param_label": "t0", "model": "f1.json"},
            {"param_label": "t1", "model": json.loads(quadric(2, 2).to_json())},
        ],
        "member_specialization": [["t1", "t0"]],
    }
    family = load_family(json.dumps(doc), base_dir=str(tmp_path))
    assert family.member("t0").name == "f1_anticanonical"
    assert family.member_specialization == (("t1", "t0"),)


def test_member_rejects_an_unknown_label():
    family = Family(members=(("t", f1_anticanonical()),), degree=8)
    with pytest.raises(FamilyError, match="^no member 'ghost'$"):
        family.member("ghost")


def test_load_family_schema_violation():
    with pytest.raises(FamilyError, match="schema"):
        load_family(json.dumps({"degree": 8}))


def _two_member_doc():
    return {
        "degree": 8,
        "members": [
            {"param_label": "t0", "model": json.loads(f1_anticanonical().to_json())},
            {"param_label": "t1", "model": json.loads(quadric(2, 2).to_json())},
        ],
    }


def test_load_family_inline_schema_error_names_member_path():
    doc = _two_member_doc()
    doc["members"][1]["model"]["strata"][0]["candidates"][0]["t"] = 0
    with pytest.raises(FamilyError) as info:
        load_family(json.dumps(doc))
    assert str(info.value) == (
        "member 't1': schema violation: $.members[1].model.strata[0].candidates[0]: "
        "candidate 'ruling_f1' needs positive degree and multiplicity, got (0, 1)"
    )
    assert isinstance(info.value.__cause__, ModelError)


def test_load_family_inline_invariant_error_names_member():
    doc = _two_member_doc()
    doc["members"][0]["model"]["rr"]["d"] = 9
    with pytest.raises(FamilyError) as info:
        load_family(json.dumps(doc))
    assert str(info.value).startswith("member 't0': degree mismatch:")
    assert isinstance(info.value.__cause__, ModelError)


def test_load_family_bad_file_member_names_member(tmp_path):
    doc = _two_member_doc()
    doc["members"][0]["model"] = "missing.json"
    with pytest.raises(FamilyError, match="^member 't0': .*missing.json") as info:
        load_family(json.dumps(doc), base_dir=str(tmp_path))
    assert isinstance(info.value.__cause__, FileNotFoundError)
