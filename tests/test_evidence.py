"""Evidence as an exact interval lo <= value <= hi: the derived labels,
sound aggregates over strata and members, three-valued semicontinuity
verdicts, and properties on mutated built-in curve tables."""

import itertools
import json
import math
import re
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from seshadri.checks import check_low_epsilon
from seshadri.cli import main
from seshadri.engine import (
    Certification,
    CurveCandidate,
    EngineError,
    PointStratum,
    SeshadriResult,
    _best_candidate,
    compare,
    epsilon,
    epsilon_via_curves,
    epsilon_via_nef,
    global_epsilon,
    low_epsilon_strata,
    sigma_local,
    sublevel_set,
)
from seshadri.degree import RRData
from seshadri.examples import f1_anticanonical, projective_plane, quadric
from seshadri.family import Family, scan, semicontinuity_check
from seshadri.lattice import CurveGeneratorSet, IntersectionLattice
from seshadri.models import ModelError, SurfaceModel, model_from_document
from seshadri.values import SeshadriValue, replace


def _plane_with_point_stratum():
    # generic: the plane's table with no completeness threshold, so only
    # value <= 3 is known; pt: an empty table complete below 3/2, so only
    # value >= 3/2 is known
    doc = projective_plane(3).to_document()
    doc["strata"][0]["oracle_complete_below"] = None
    doc["strata"].append(
        {
            "label": "pt",
            "closure_dim": 0,
            "specializes_from": ["generic"],
            "oracle_complete_below": "3/2",
            "candidates": [],
        }
    )
    doc["blowup_gens"] = {}
    return model_from_document(doc)


def test_global_epsilon_of_mixed_evidence_is_sound():
    res = global_epsilon(_plane_with_point_stratum())
    assert res.value == SeshadriValue.exact(3)
    assert res.certification is Certification.UPPER_BOUND_ONLY
    assert res.certified_above is None
    assert (res.lo, res.hi) == (None, SeshadriValue.exact(3))
    assert "certified_above" not in res.to_document()


def test_semicontinuity_without_evidence_is_undetermined():
    family = Family(members=(("t", _plane_with_point_stratum()),), degree=9)
    (v,) = semicontinuity_check(family)
    assert (v.general, v.special) == ("generic", "pt")
    assert v.status == "undetermined"
    assert not v.passed
    assert v.to_document()["passed"] is False
    assert v.to_document()["undetermined"] is True


# endpoints of both kinds, in increasing order; two results share an
# endpoint wherever they pick the same one
_ENDPOINTS = [
    SeshadriValue.exact(Fraction(1, 2)),
    SeshadriValue.exact(1),
    SeshadriValue.sqrt(2),
    SeshadriValue.exact(Fraction(3, 2)),
    SeshadriValue.exact(2),
    SeshadriValue.sqrt(8),
    SeshadriValue.exact(3),
]
# every interval on them: lo unknown (None) or at most hi
_INTERVALS = [
    SeshadriResult(hi=hi, lo=lo)
    for i, hi in enumerate(_ENDPOINTS)
    for lo in [None, *_ENDPOINTS[: i + 1]]
]


def test_compare_follows_its_definition_on_every_endpoint_order():
    # lo unknown means nothing is known above 0: every value is positive
    zero = SeshadriValue.exact(0)
    floor = lambda res: zero if res.lo is None else res.lo  # noqa: E731
    for special in _INTERVALS:
        for general in _INTERVALS:
            if special.hi <= floor(general):
                want = "pass"
            elif floor(special) > general.hi:
                want = "fail"
            else:
                want = "undetermined"
            assert compare(special, general) == want, (special, general)


def test_compare_proves_both_orders_only_of_one_exact_point():
    both = [
        (x, y)
        for x in _INTERVALS
        for y in _INTERVALS
        if compare(x, y) == compare(y, x) == "pass"
    ]
    assert both and all(x.lo == x.hi == y.lo == y.hi for x, y in both)


def test_low_epsilon_strata_lists_only_a_stratum_proven_low():
    # on_E: an empty table complete below 1/2, with no blow-up set, so
    # only 1/2 <= value <= sqrt(8) is known; its reported value is the
    # lower bound 1/2, yet it is not proven at most 1 - 1/100
    doc = f1_anticanonical().to_document()
    doc["strata"][1]["candidates"] = []
    doc["strata"][1]["oracle_complete_below"] = "1/2"
    del doc["blowup_gens"]["on_E"]
    model = model_from_document(doc)
    on_E = model.stratum_table["on_E"]
    assert on_E.certification is Certification.LOWER_BOUND_ONLY
    assert on_E.value == SeshadriValue.exact(Fraction(1, 2))
    assert low_epsilon_strata(model, Fraction(1, 100)) == []
    assert check_low_epsilon([model]).endswith("(0 found)")


def _f1_with_unbounded_on_E():
    # on_E lists one curve of ratio 5/2 and no threshold: on_E <= 5/2,
    # which says nothing against the dense stratum's exact 2
    doc = f1_anticanonical().to_document()
    for sd in doc["strata"]:
        if sd["label"] == "on_E":
            sd["candidates"] = [{"label": "c", "class": None, "t": 5, "m": 2}]
            sd["oracle_complete_below"] = None
    return model_from_document(doc)


def test_sigma_local_reads_the_dense_stratum():
    model = _f1_with_unbounded_on_E()
    sig = sigma_local(model)
    assert sig.value == SeshadriValue.exact(2)
    assert sig.attained_at == "generic"
    report = scan(Family(members=(("t", model),), degree=8), Fraction(2))
    assert report.sigma_family == SeshadriValue.exact(2)
    assert report.sigma_attained_at == ("t", "generic")


def test_sigma_local_rejects_a_stratum_above_the_dense_one():
    doc = f1_anticanonical().to_document()
    for sd in doc["strata"]:
        if sd["label"] == "on_E":
            sd["candidates"] = [{"label": "c", "class": None, "t": 5, "m": 2}]
            sd["oracle_complete_below"] = "3"  # on_E is exactly 5/2 > 2
    doc["blowup_gens"] = {}
    with pytest.raises(EngineError, match="geometrically inconsistent"):
        sigma_local(model_from_document(doc))


@pytest.mark.parametrize(
    "reader",
    [
        global_epsilon,
        lambda model: sublevel_set(model, Fraction(3)),
        lambda model: low_epsilon_strata(model, Fraction(1, 100)),
        lambda model: semicontinuity_check(Family(members=(("t", model),), degree=8)),
    ],
    ids=["global_epsilon", "sublevel_set", "low_epsilon_strata", "semicontinuity_check"],
)
def test_every_reader_rejects_a_stratum_above_the_dense_one(f1_above_dense, reader):
    message = (
        "stratum 'on_E' has a value of at least sqrt(8), above the dense stratum "
        "'generic' at most 2; the model's tables are geometrically inconsistent"
    )
    with pytest.raises(EngineError, match=f"^{re.escape(message)}$"):
        reader(model_from_document(f1_above_dense))


def test_ceiling_provenance_decides_the_label():
    # identical evidence, one tag: [3/2, sqrt(8)] rests on the sqrt(d)
    # ceiling alone, whether the table is empty or its only curve lies
    # above sqrt(8), so no curve witnesses hi and the value is 3/2 at least
    doc = f1_anticanonical().to_document()
    doc["blowup_gens"] = {}
    on_E = doc["strata"][1]
    on_E["oracle_complete_below"] = "3/2"
    on_E["candidates"] = []
    model = model_from_document(doc)
    empty = epsilon_via_curves(model, model.stratum("on_E"))
    on_E["candidates"] = [{"label": "c", "class": None, "t": 3, "m": 1}]
    model = model_from_document(doc)
    above = epsilon_via_curves(model, model.stratum("on_E"))
    for res in (empty, above):
        assert (res.lo, res.hi) == (SeshadriValue.exact(Fraction(3, 2)), SeshadriValue.sqrt(8))
        assert res.certified_above == Fraction(3, 2)
        assert res.certification is Certification.LOWER_BOUND_ONLY
        assert res.value == SeshadriValue.exact(Fraction(3, 2)) and res.witness is None


def test_global_epsilon_at_an_open_ceiling_does_not_depend_on_the_strata_order(tmp_path, capsys):
    # pt = [1, 2] rests on the ceiling sqrt(4) = 2 that its conic only
    # meets; generic is exactly 2, witnessed by a line.  The global
    # [1, 2] is the ceiling of an open interval, so no curve witnesses it
    doc = projective_plane(2).to_document()
    doc["strata"].append({
        "label": "pt", "closure_dim": 0, "specializes_from": ["generic"],
        "oracle_complete_below": "1",
        "candidates": [{"label": "conic", "class": [2], "t": 4, "m": 2}],
    })
    outputs = []
    for order in ("listed", "reversed"):
        path = tmp_path / f"{order}.json"
        path.write_text(json.dumps(doc))
        assert main(["epsilon", str(path), "--format", "json"]) == 0
        outputs.append(capsys.readouterr().out)
        doc["strata"].reverse()
    assert outputs[0] == outputs[1]
    report = json.loads(outputs[0])
    assert report["certification"] == "lower_bound_only"
    assert (report["value"], report["witness"], report["attained_at"]) == ("1", None, "pt")


@pytest.mark.parametrize(
    "points, attained_at",
    [([("pt", "conic", 4, 2)], "generic"),
     ([("pt", "conic", 4, 2), ("apex", "line", 2, 1)], "apex")],
    ids=["conic_and_line", "two_lines"],
)
def test_global_epsilon_on_a_tie_does_not_depend_on_the_strata_order(
    tmp_path, capsys, points, attained_at
):
    # each point stratum is exactly 2, cut out by its one curve and
    # complete below 3, as generic is by a line.  Of the tied witnesses
    # the one of least degree, then label, is reported, and of strata
    # with equal witnesses the one of least label
    doc = projective_plane(2).to_document()
    for label, curve, t, m in points:
        doc["strata"].append({
            "label": label, "closure_dim": 0, "specializes_from": ["generic"],
            "oracle_complete_below": "3",
            "candidates": [{"label": curve, "class": [t // 2], "t": t, "m": m}],
        })
    outputs = set()
    for i, strata in enumerate(itertools.permutations(doc["strata"])):
        path = tmp_path / f"{i}.json"
        path.write_text(json.dumps({**doc, "strata": list(strata)}))
        assert main(["epsilon", str(path), "--format", "json"]) == 0
        outputs.add(capsys.readouterr().out)
    assert len(outputs) == 1
    report = json.loads(outputs.pop())
    assert (report["value"], report["certification"]) == ("2", "exact_certified")
    assert report["witness"] == {"label": "line", "t": 2, "m": 1}
    assert report["attained_at"] == attained_at


def test_global_epsilon_of_tied_strata_sharing_one_candidate_is_at_the_least_label():
    # two tied strata, listed against label order, hold the very same
    # CurveCandidate object, which only a model built in Python can do:
    # the witness is that object, attained at the least stratum label
    model = projective_plane(2)
    generic = model.stratum("generic")
    line = _best_candidate(generic.candidates)
    apex = PointStratum(
        label="apex",
        closure_dim=0,
        specializes_from=("generic",),
        candidates=(line,),
        oracle_complete_below=Fraction(3),
    )
    model = replace(model, strata=(replace(generic, candidates=(line,)), apex))
    assert model.stratum_table["generic"].witness is model.stratum_table["apex"].witness
    res = global_epsilon(model)
    assert (res.value, res.certification) == (SeshadriValue.exact(2), Certification.EXACT_CERTIFIED)
    assert res.witness is line
    assert res.attained_at == "apex"


def test_nef_path_is_a_point():
    model = f1_anticanonical()
    res = epsilon_via_nef(model, model.stratum("on_E"))
    assert res.lo == res.hi == SeshadriValue.exact(1)
    assert res.certification is Certification.EXACT_CERTIFIED


# ---------------------------------------------------------------------------
# Mutated built-in tables.  The built-ins keep their complete blow-up
# generators, so the nef path gives the true value of every stratum.

# built-ins grouped by degree, so that any two make a family
_BY_DEGREE = (
    (projective_plane(1),),
    (quadric(1, 1),),
    (projective_plane(2), quadric(1, 2)),
    (f1_anticanonical(), quadric(2, 2)),
    (projective_plane(3),),
)


def _true(model, stratum):
    return epsilon_via_nef(model, stratum).value


@st.composite
def _mutated_stratum(draw, model, stratum):
    """The stratum with candidates dropped, fictional curves of ratio at
    least the true value added, and its threshold kept as high as the
    smaller table still allows, lowered, or removed."""
    true = _true(model, stratum).rational
    n = len(stratum.candidates)
    keep = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    kept = [c for c, k in zip(stratum.candidates, keep) if k]
    # a table complete below q lists every curve of ratio < q, so no
    # dropped curve may lie below the new threshold
    dropped = [c.ratio for c, k in zip(stratum.candidates, keep) if not k]
    cap = min([stratum.oracle_complete_below] + dropped)
    lowered = cap * Fraction(draw(st.integers(1, 7)), 8)
    ocb = draw(st.sampled_from([None, cap, lowered]))
    # a degree t >= ceil(true * m) keeps the ratio t/m at or above the
    # true value
    extra = draw(st.lists(st.tuples(st.integers(1, 4), st.integers(0, 6)), max_size=3))
    added = [
        CurveCandidate(label=f"x{i}", degree_t=math.ceil(true * m) + k, mult_m=m)
        for i, (m, k) in enumerate(extra)
    ]
    return replace(
        stratum, candidates=tuple(kept + added), oracle_complete_below=ocb
    )


@st.composite
def _mutated_model(draw, model):
    strata = tuple(draw(_mutated_stratum(model, s)) for s in model.strata)
    try:
        return replace(model, strata=strata)
    except ModelError:
        # an added curve at the threshold with a degree beyond its bound
        assume(False)


@st.composite
def _mutated_family(draw):
    group = draw(st.sampled_from(_BY_DEGREE))
    general = draw(st.sampled_from(group))
    special = draw(st.sampled_from(group))
    return Family(
        members=(
            ("general", draw(_mutated_model(general))),
            ("special", draw(_mutated_model(special))),
        ),
        degree=general.rr.d,
        member_specialization=(("general", "special"),),
    )


def _contains(res, value):
    return (res.lo is None or res.lo <= value) and value <= res.hi


@given(_mutated_family())
@settings(max_examples=300, deadline=None)
def test_intervals_of_mutated_tables_contain_the_true_value(family):
    local, least = {}, {}
    for label, model in family.members:
        for stratum in model.strata:
            value = _true(model, stratum)
            res = epsilon(model, stratum)  # never raises on truthful tables
            assert _contains(res, value)
            assert res.hi <= SeshadriValue.sqrt(model.rr.d)
            local[label, stratum.label] = value
        least[label] = min(local[label, s.label] for s in model.strata)
        assert _contains(global_epsilon(model), least[label])
    for v in semicontinuity_check(family):
        if v.kind == "member":
            general, special = least[v.general], least[v.special]
        else:
            general, special = local[v.context, v.general], local[v.context, v.special]
        if v.status == "pass":
            assert special <= general
        elif v.status == "fail":
            assert special > general
        # a stratum pair that could fail is rejected by its model's table
        assert v.kind == "member" or v.status != "fail"


_BUILTINS = [model for group in _BY_DEGREE for model in group]


@st.composite
def _injected(draw):
    """A built-in stratum with one more curve, of ratio below the true
    value, under a threshold at or above that ratio."""
    model = draw(st.sampled_from(_BUILTINS))
    stratum = draw(st.sampled_from(model.strata))
    true = _true(model, stratum).rational
    m = draw(st.integers(1, 6))
    assume(true * m > 1)
    t = draw(st.integers(1, math.ceil(true * m) - 1))
    bad = replace(
        stratum,
        candidates=stratum.candidates + (CurveCandidate(label="bad", degree_t=t, mult_m=m),),
        oracle_complete_below=Fraction(t, m) + draw(st.integers(0, 4)),
    )
    try:
        model = replace(
            model, strata=tuple(bad if s is stratum else s for s in model.strata)
        )
    except ModelError:
        assume(False)  # a degree beyond the threshold's bound never loads
    return model, stratum.label


@st.composite
def _nef_and_curves(draw, labels=None):
    """A one-stratum model of the plane blown up at a point, L = kH - jE
    with d = k^2 - j^2 (a square when j = 0), with random blow-up
    generators aH + bE - e*Ex, a random curve table and a random
    threshold, so that the nef point falls anywhere around the curve
    interval, the sqrt(d) ceiling included.  Every degree is at most d.
    Labels are distinct, or drawn from `labels`, which can repeat them."""
    label = (lambda prefix, i: f"{prefix}{i}") if labels is None else (lambda *_: draw(labels))
    k = draw(st.integers(2, 4))
    j = draw(st.integers(0, k - 1))
    d, v = k * k - j * j, 3
    rows = []
    for a, b, e in draw(
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(-3, 3), st.integers(-1, 6)), max_size=5
        )
    ):
        deg = k * a + j * b  # L.(aH + bE), with E.E = -1
        if (deg >= 1 and e <= v * deg) or (a == b == 0 and e == -1):
            rows.append((a, b, -e))
    pairs = draw(st.lists(st.tuples(st.integers(1, d), st.integers(1, 6)), max_size=4))
    ocb = draw(st.one_of(st.none(), st.builds(Fraction, st.integers(1, 12), st.integers(1, 4))))
    stratum = PointStratum(
        label="generic",
        closure_dim=2,
        candidates=tuple(
            CurveCandidate(label=label("c", i), degree_t=t, mult_m=m)
            for i, (t, m) in enumerate(pairs)
            if m <= v * t
        ),
        oracle_complete_below=ocb,
    )
    return SurfaceModel(
        name="blown_up",
        lattice=IntersectionLattice(rank=2, gram=((1, 0), (0, -1)), basis_labels=("H", "E")),
        polarization=(k, -j),
        rr=RRData(d=d, c=3 * k - j, c_prime=1),
        very_ample_multiplier=v,
        strata=(stratum,),
        blowup_gens={
            "generic": CurveGeneratorSet(
                labels=tuple(label("g", i) for i in range(len(rows))), rows=tuple(rows)
            )
        },
    )


@given(_nef_and_curves())
@settings(max_examples=300, deadline=None)
def test_epsilon_raises_exactly_when_compare_fails_on_the_nef_result(model):
    # epsilon checks the nef point in integers; the rule it keeps is
    # compare's, on the full nef result, and so is its error line
    stratum = model.strata[0]
    curves, nef = epsilon_via_curves(model, stratum), epsilon_via_nef(model, stratum)
    if "fail" in (compare(nef, curves), compare(curves, nef)):
        message = (
            f"stratum 'generic': curve path gives {curves.value.serialize()} "
            f"({curves.certification.value}) but nef path gives {nef.value.serialize()}"
        )
        with pytest.raises(EngineError, match=f"^{re.escape(message)}$"):
            epsilon(model, stratum)
    else:
        assert epsilon(model, stratum) == curves


def _first_in_witness_order(items, key):
    """The reference witness order, as test_engine.py's
    `test_best_candidate_matches_fraction_key` states it: the item whose
    key(item) = (t, m, label) gives the least (Fraction(t, m), t, label),
    the first listed on a full tie; None if there is none."""

    def order(item):
        t, m, label = key(item)
        return Fraction(t, m), t, label

    return min(items, key=order, default=None)


def _candidate_key(c):
    return c.degree_t, c.mult_m, c.label


@given(_nef_and_curves(labels=st.sampled_from("ab")))
@settings(max_examples=300, deadline=None)
def test_direct_loops_pick_what_least_ratio_picks(model):
    # small degrees and a two-letter alphabet tie ratios, degrees and
    # labels; on a full tie the first listed is picked, so the candidate
    # is compared by identity
    stratum, d = model.strata[0], model.rr.d
    best = _first_in_witness_order(stratum.candidates, _candidate_key)
    assert _best_candidate(stratum.candidates) is best
    gens, table = model.blowup_gens["generic"], model.generator_table("generic")
    expected = _first_in_witness_order(
        [
            CurveCandidate(label, deg, e_mult, row)
            for label, row, (deg, e_mult) in zip(gens.labels, gens.rows, table)
            if e_mult > 0 and deg * deg <= d * e_mult * e_mult
        ],
        _candidate_key,
    )
    # the nef witness is built afresh, so it is compared by value: on a
    # full tie the rows tell the first listed generator from the others
    assert epsilon_via_nef(model, stratum).witness == expected


def _generic_generators(rows):
    """f1_anticanonical (L = 3H - E, d = 8, v = 1) with `rows` as its
    generic stratum's blow-up generators g0, g1, ..."""
    model = f1_anticanonical()
    labels = tuple(f"g{i}" for i in range(len(rows)))
    gens = dict(model.blowup_gens, generic=CurveGeneratorSet(labels=labels, rows=tuple(rows)))
    return replace(model, blowup_gens=gens)


@given(_nef_and_curves())
# the ratios 2/1 and 4/2 tied, in either order; no generator meeting
# the point; and a least ratio 3 above sqrt(8)
@example(_generic_generators([(1, 1, -2), (1, -1, -1), (0, 0, 1)]))
@example(_generic_generators([(1, -1, -1), (1, 1, -2)]))
@example(_generic_generators([(0, 0, 1), (1, 0, 0), (0, 1, 0)]))
@example(_generic_generators([(1, 0, -1), (2, 0, -1)]))
@settings(max_examples=300, deadline=None)
def test_the_stored_nef_point_is_the_least_ratio_below_the_ceiling(model):
    # the reference pairs each row through the Gram matrix and keys the
    # ratios by Fraction; the stored point is a table entry at that ratio
    gram, L = model.lattice.gram, model.polarization
    n = len(L)
    ratios = []
    for row in model.blowup_gens["generic"].rows:
        deg = sum(L[i] * gram[i][j] * row[j] for i in range(n) for j in range(n))
        if -row[-1] > 0:
            ratios.append(Fraction(deg, -row[-1]))
    least = min(ratios, default=None)
    expected = None if least is None or least * least > model.rr.d else least
    point = model.nef_point("generic")
    assert (None if point is None else Fraction(*point)) == expected
    assert point is None or point in model.generator_table("generic")


def _curves_reference(model, stratum):
    """(hi, lo, witness, warning) of epsilon_via_curves, decided by
    SeshadriValue comparisons: the least ratio capped by sqrt(d), and the
    threshold's min with it."""
    sqrt_d = SeshadriValue.sqrt(model.rr.d)
    ocb = stratum.oracle_complete_below
    best = _first_in_witness_order(stratum.candidates, _candidate_key)
    least = None if best is None else SeshadriValue.exact(best.ratio)
    hi = least if least is not None and least <= sqrt_d else sqrt_d
    lo = None if ocb is None else min(SeshadriValue.exact(ocb), hi)
    warning = None
    if best is None and ocb is None:
        warning = (
            f"stratum {stratum.label!r}: empty candidate table with no "
            "completeness assertion; only the sqrt(d) ceiling is known"
        )
    return hi, lo, best if least == hi and (hi < sqrt_d or lo == hi) else None, warning


@st.composite
def _threshold_near_the_least_ratio(draw):
    """A model of `_nef_and_curves` whose threshold is none, or below, at
    or above its least listed ratio, or at sqrt(d) when d is a square."""
    model = draw(_nef_and_curves(labels=st.sampled_from("ab")))
    stratum = model.strata[0]
    best = _best_candidate(stratum.candidates)
    least = Fraction(model.rr.d) if best is None else best.ratio
    root = math.isqrt(model.rr.d)
    step = Fraction(1, draw(st.integers(1, 8)))
    ocb = draw(st.sampled_from([None, least - step, least, least + step, Fraction(root)]))
    assume(ocb is None or ocb > 0)
    return replace(model, strata=(replace(stratum, oracle_complete_below=ocb),))


@given(_threshold_near_the_least_ratio())
@settings(max_examples=300, deadline=None)
def test_curve_path_in_integers_matches_the_value_comparisons(model):
    stratum = model.strata[0]
    res = epsilon_via_curves(model, stratum)
    hi, lo, witness, warning = _curves_reference(model, stratum)
    assert (res.hi, res.lo, res.warning) == (hi, lo, warning)
    assert res.witness is witness


@given(_injected())
@settings(max_examples=300, deadline=None)
def test_candidate_below_the_true_value_is_an_error(injected):
    # the table claims a value the nef path refutes
    model, label = injected
    with pytest.raises(EngineError, match="nef path"):
        epsilon(model, model.stratum(label))
