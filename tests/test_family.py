import functools
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seshadri import bounds, engine
from seshadri import family as family_module
from seshadri import models as models_module
from seshadri.family import (
    Family,
    FamilyError,
    load_family,
    member_candidate_superset,
    scan,
    semicontinuity_check,
)
from seshadri.models import (
    ModelError,
    f1_anticanonical,
    load_model,
    projective_plane,
    quadric,
)
from seshadri.values import SeshadriValue


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
    assert {(q.numerator, q.denominator) for q in report.sigma_cap} <= set(
        report.candidate_superset
    )
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
    # exactly one call of each path
    assert len(report.epsilon_table) == 3
    assert calls == {"curves": 3, "nef": 3}


def test_scan_computes_each_degree_bound_once_per_model(blown_up_plane, monkeypatch):
    # d = 98; the dense stratum sits at sqrt(d), and the other four are
    # complete below 5, 11/3, 1 and 1, three distinct thresholds under sqrt(d)
    doc = blown_up_plane(
        10,
        2,
        [
            [((1, 0, 0), 1)],
            [((1, 0, 0), 2)],
            [((1, 1, 0), 3)],
            [((0, 1, 0), 1)],
            [((1, 0, 0), 2), ((0, 0, 1), 1)],
        ],
    )
    calls = []

    def counted(rr, a):
        calls.append(a)
        return bounds.minimal_M(rr, a)

    for module in (engine, models_module, family_module):
        if getattr(module, "minimal_M", None) is bounds.minimal_M:
            monkeypatch.setattr(module, "minimal_M", counted)
    members = tuple((label, models_module.model_from_document(doc)) for label in ("a", "b"))
    # validation: one bound per member and distinct threshold
    assert sorted(calls) == sorted([Fraction(5), Fraction(11, 3), Fraction(1)] * 2)
    calls.clear()
    report = scan(Family(members=members, degree=98), Fraction(3))
    assert len(report.epsilon_table) == 10
    # the scan: one superset enumeration, and one bound per member at alpha
    assert calls == [Fraction(3)] * 3


def _counting_merges(monkeypatch):
    """Record the number of lists that each `_merge_ascending` call gets."""
    merges = []
    merge = family_module._merge_ascending
    monkeypatch.setattr(
        family_module, "_merge_ascending", lambda lists: merges.append(len(lists)) or merge(lists)
    )
    return merges


@pytest.mark.parametrize("multiplier", [1, 2])
def test_scan_superset_is_sorted_union(multiplier, monkeypatch):
    # with multiplier 2 member b's superset differs from a's
    doc = json.loads(projective_plane(3).to_json())
    doc["very_ample_multiplier"] = multiplier
    members = (("a", projective_plane(3)), ("b", load_model(json.dumps(doc))))
    alpha = Fraction(5, 2)
    lists = [member_candidate_superset(model, alpha) for _, model in members]
    assert (lists[0] != lists[1]) == (multiplier != 1)
    merges = _counting_merges(monkeypatch)
    report = scan(Family(members=members, degree=9), alpha)
    # one merge whatever the multiplier, of one list per distinct key
    assert merges == [1 if multiplier == 1 else 2]
    # reduced pairs: equal ratios are equal pairs, ordered by their ratio
    by_ratio = lambda tm: Fraction(*tm)  # noqa: E731
    assert report.candidate_superset == tuple(sorted(set(lists[0]) | set(lists[1]), key=by_ratio))


def test_scan_superset_merges_keys_of_multiplier_one(monkeypatch):
    # two RR data with multiplier 1: B = 18 and B = 36 at alpha 5/2.  The
    # walks at one alpha nest by B, so the union is the larger walk
    doc = json.loads(projective_plane(3).to_json())
    doc["rr"]["c"] = 0
    members = (("a", projective_plane(3)), ("b", load_model(json.dumps(doc))))
    alpha = Fraction(5, 2)
    assert [model.degree_bound(alpha).B for _, model in members] == [18, 36]
    merges = _counting_merges(monkeypatch)
    report = scan(Family(members=members, degree=9), alpha)
    assert merges == [2]
    assert report.candidate_superset == tuple(bounds.candidate_walk(36, alpha))
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


def test_alpha_must_be_below_sqrt_d():
    with pytest.raises(FamilyError, match="alpha"):
        scan(d8_family(), Fraction(3))


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


def test_semicontinuity_certified_negative_control(violating_model):
    family = Family(members=(("t", violating_model("1", "2")),), degree=4)
    (verdict,) = semicontinuity_check(family)
    assert (verdict.general, verdict.special) == ("generic", "special")
    assert verdict.status == "fail" and not verdict.passed
    doc = verdict.to_document()
    assert (doc["general_value"], doc["special_value"], doc["passed"]) == ("1", "2", False)
    assert "undetermined" not in doc


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


def test_candidate_superset_respects_multiplier():
    model = projective_plane(2)
    alpha = Fraction(3, 2)
    pairs = member_candidate_superset(model, alpha)
    # built-ins declare multiplier 1: the walk's list, with nothing to divide
    assert pairs == list(bounds.candidate_walk(model.degree_bound(alpha).B, alpha))
    assert all(Fraction(t, m) <= alpha for t, m in pairs)


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
def test_superset_pairs_match_fraction_reference(v, w, alpha):
    # each member's pairs are the reduced ratios t/(m*u) of the walk for
    # the u-th power of its polarization, ascending; two multipliers make
    # two keys, merged
    models = (_plane2_with_multiplier(v), _plane2_with_multiplier(w))
    expected = set()
    for model in models:
        u, rr = model.very_ample_multiplier, model.rr
        scaled = bounds.RRData(
            d=u * u * rr.d, c=u * rr.c, c_prime=rr.c_prime,
            vanishing_multiplier=rr.vanishing_multiplier,
        )
        walk = bounds.candidate_walk(bounds.minimal_M(scaled, u * alpha).B, u * alpha)
        reference = {Fraction(t, m) / u for t, m in walk}
        pairs = member_candidate_superset(model, alpha)
        assert _ratios(pairs) == sorted(reference)
        assert all(math.gcd(t, m) == 1 for t, m in pairs)
        expected |= reference
    report = scan(Family(members=(("a", models[0]), ("b", models[1])), degree=4), alpha)
    assert _ratios(report.candidate_superset) == sorted(expected)
    assert all(math.gcd(t, m) == 1 for t, m in report.candidate_superset)


def _plane2_with_low_curve(v):
    """projective_plane(2) whose dense stratum's table, complete below
    1/2, lists one curve of ratio 1/2; no blow-up data, so that the
    curve table alone decides the value."""
    doc = projective_plane(2).to_document()
    doc["very_ample_multiplier"] = v
    doc["blowup_gens"] = {}
    (stratum,) = doc["strata"]
    stratum["candidates"] = [{"label": "low", "class": None, "t": 1, "m": 2}]
    stratum["oracle_complete_below"] = "1/2"
    return models_module.model_from_document(doc)


@pytest.mark.parametrize("v", [1, 2], ids=["escapes", "multiplier_covers"])
def test_observed_value_outside_the_superset_is_an_error(v):
    # with v = 1 the superset holds ratios t/m with m <= t only, so 1/2
    # escapes it; with v = 2 the raw pair (1, 1) divides to (1, 2)
    family = Family(members=(("t", _plane2_with_low_curve(v)),), degree=4)
    if v == 1:
        escape = "^observed values escape the candidate superset: 1/2$"
        with pytest.raises(FamilyError, match=escape):
            scan(family, Fraction(1))
    else:
        report = scan(family, Fraction(1))
        assert report.sigma_cap == (Fraction(1, 2),)
        assert report.candidate_superset[0] == (1, 2)


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
        "member 't1': schema violation: $.members[1].model.strata[0].candidates[0].t: "
        "expected an integer >= 1, got 0"
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
