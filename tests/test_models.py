import graphlib
import json
import pickle
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seshadri import models as models_module
from seshadri.checks import check_roundtrip, check_rr_sanity
from seshadri.degree import BoundError, RRData
from seshadri.engine import CurveCandidate, EngineError, PointStratum, epsilon, epsilon_via_nef
from seshadri.examples import builtin_suite, f1_anticanonical, projective_plane, quadric
from seshadri.family import Family, load_family, scan
from seshadri.lattice import CurveGeneratorSet, IntersectionLattice, LatticeError, extend_blowup
from seshadri.lattice import pair
from seshadri.models import ModelError, SurfaceModel, load_model, model_from_document
from seshadri.values import SeshadriValue, replace

from conftest import generator


def f1_doc():
    return json.loads(f1_anticanonical().to_json())


def test_roundtrip_byte_identical():
    check_roundtrip(builtin_suite())


def test_builtin_invalid_params():
    with pytest.raises(ModelError, match="polarization degree must be positive, got 0"):
        projective_plane(0)
    with pytest.raises(ModelError, match=r"polarization bidegree must be positive, got \(0, 1\)"):
        quadric(0, 1)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: projective_plane("2"), "polarization degree e must be an integer, got '2'"),
        (lambda: projective_plane(True), "polarization degree e must be an integer, got True"),
        (lambda: quadric(1.5, 1), "polarization bidegree a must be an integer, got 1.5"),
    ],
)
def test_builtin_params_must_be_integers(build, message):
    with pytest.raises(ModelError, match=f"^{re.escape(message)}$"):
        build()


def test_quadric_degree_by_pairing():
    model = quadric(2, 2)
    assert pair(model.lattice, model.polarization, model.polarization) == 8 == model.rr.d


def test_degree_mismatch_rejected():
    doc = f1_doc()
    doc["rr"]["d"] = 9
    with pytest.raises(ModelError, match="degree mismatch"):
        load_model(json.dumps(doc))


def test_two_dense_strata_rejected():
    doc = f1_doc()
    doc["strata"][1]["closure_dim"] = 2
    with pytest.raises(ModelError, match="dense"):
        load_model(json.dumps(doc))


def test_cyclic_specialization_rejected():
    doc = f1_doc()
    doc["strata"][0]["specializes_from"] = ["on_E"]
    with pytest.raises(ModelError, match="cyclic"):
        load_model(json.dumps(doc))


@pytest.mark.parametrize(
    "stratum, general, cycle",
    [(0, "on_E", "['generic', 'on_E', 'generic']"), (1, "on_E", "['on_E', 'on_E']")],
    ids=["two_strata", "self_loop"],
)
def test_cycle_is_named(stratum, general, cycle):
    doc = f1_doc()
    doc["strata"][stratum]["specializes_from"] = [general]
    with pytest.raises(ModelError, match=re.escape(f"cyclic specialization relation: {cycle}")):
        load_model(json.dumps(doc))


def test_strata_may_precede_the_strata_they_specialize_from():
    doc = f1_doc()
    doc["strata"].reverse()
    assert [s.label for s in load_model(json.dumps(doc)).strata] == ["on_E", "generic"]


@pytest.fixture
def sorted_graphs(monkeypatch):
    """The graphs that graphlib is given to sort, in order."""
    graphs = []

    class Sorter(graphlib.TopologicalSorter):
        def __init__(self, graph):
            graphs.append(graph)
            super().__init__(graph)

    monkeypatch.setattr(graphlib, "TopologicalSorter", Sorter)
    return graphs


def test_a_forward_order_needs_no_graph(sorted_graphs):
    model = load_model(f1_anticanonical().to_json())
    Family([("t0", model), ("t1", quadric(2, 2))], 8, [("t0", "t1")])
    assert sorted_graphs == []


def test_strata_listed_special_first_are_sorted_by_graphlib(sorted_graphs):
    doc = f1_doc()
    doc["strata"].reverse()
    model = load_model(json.dumps(doc))
    assert sorted_graphs == [{"on_E": ["generic"], "generic": []}]
    assert [s.label for s in model.strata] == ["on_E", "generic"]
    assert model.stratum_table == f1_anticanonical().stratum_table


def test_members_listed_special_first_are_sorted_by_graphlib(sorted_graphs):
    members = [("t1", quadric(2, 2)), ("t0", f1_anticanonical())]
    special_first = Family(members, 8, [("t0", "t1")])
    assert sorted_graphs == [{"t1": ["t0"], "t0": []}]
    forward = Family(members[::-1], 8, [("t0", "t1")])
    assert len(sorted_graphs) == 1
    alpha = Fraction(5, 2)
    assert scan(special_first, alpha).to_document() == scan(forward, alpha).to_document()


def test_unknown_specialization_rejected():
    doc = f1_doc()
    doc["strata"][1]["specializes_from"] = ["ghost"]
    with pytest.raises(ModelError, match="ghost"):
        load_model(json.dumps(doc))


def test_asymmetric_gram_rejected():
    doc = f1_doc()
    doc["gram"] = [[1, 1], [0, -1]]
    with pytest.raises(ModelError, match="symmetric"):
        load_model(json.dumps(doc))


def test_schema_violation_rejected():
    doc = f1_doc()
    del doc["polarization"]
    with pytest.raises(ModelError, match="schema"):
        load_model(json.dumps(doc))


def test_candidate_pairing_consistency_checked():
    doc = f1_doc()
    doc["strata"][0]["candidates"][0]["t"] = 4  # fiber really has degree 2
    with pytest.raises(ModelError, match="degree"):
        load_model(json.dumps(doc))


def test_candidate_beyond_cap_rejected():
    doc = f1_doc()
    # completeness threshold 2 implies the bound B = 8 for this model; the
    # ratio 9/5 is below the threshold, so the bound covers this curve
    doc["strata"][0]["candidates"].append(
        {"label": "huge", "class": None, "t": 9, "m": 5}
    )
    with pytest.raises(ModelError, match="bound"):
        load_model(json.dumps(doc))


def test_the_cap_is_computed_only_for_a_degree_that_can_pass_it(monkeypatch):
    # projective_plane(2) has d = 4 and c = 6.  At the threshold 1 = p/q
    # its bound is B = M*d = 4, and no bound of a threshold p/q is below
    # q*d, since M is a positive multiple of q.  So a table whose degrees
    # are all at most q*d = 4, here the line and one more curve, needs no
    # bound
    calls, minimal_M = [], models_module.minimal_M

    def counted(rr, a):
        calls.append(a)
        return minimal_M(rr, a)

    monkeypatch.setattr(models_module, "minimal_M", counted)
    doc = json.loads(projective_plane(2).to_json())
    generic = doc["strata"][0]
    generic["oracle_complete_below"] = "1"
    generic["candidates"][1:] = [{"label": "at", "class": None, "t": 4, "m": 4}]
    load_model(json.dumps(doc))
    assert calls == []
    # degree 5 > q*d at the ratio 1: the bound is computed once, and stops it
    generic["candidates"][-1].update(t=5, m=5)
    message = (
        "^candidate 'at' has degree 5 beyond the bound 4 implied by the "
        "completeness threshold 1$"
    )
    with pytest.raises(ModelError, match=message):
        load_model(json.dumps(doc))
    assert calls == [Fraction(1)]


def test_degree_cap_ignores_candidates_above_threshold():
    # a true table: the plane's value is 1, so it is complete below 1/2;
    # the bound B = 2 at 1/2 says nothing about curves of ratio > 1/2
    doc = json.loads(projective_plane(1).to_json())
    doc["strata"][0]["oracle_complete_below"] = "1/2"
    model = load_model(json.dumps(doc))
    assert model.stratum("generic").oracle_complete_below == Fraction(1, 2)
    assert max(c.degree_t for c in model.stratum("generic").candidates) == 3


def test_reserved_exceptional_label_rejected():
    doc = f1_doc()
    doc["basis_labels"] = ["H", "Ex"]
    with pytest.raises(ModelError, match="Ex"):
        load_model(json.dumps(doc))


def test_ampleness_gate():
    doc = f1_doc()
    doc["polarization"] = [1, 0]  # H meets the exceptional curve E in 0: not ample
    doc["rr"]["d"] = 1
    for sd in doc["strata"]:
        for cd in sd["candidates"]:
            cd["class"] = None
    with pytest.raises(ModelError, match="ampleness"):
        load_model(json.dumps(doc))


def test_ampleness_gate_names_its_generator():
    # -E meets L = 3H - E in -1: the gate fails before the multiplier rule
    doc = f1_doc()
    doc["blowup_gens"]["generic"].append({"label": "minusE", "class": [0, -1, 0]})
    message = (
        "blow-up generator 'minusE' of stratum 'generic': degree -1 fails the "
        "polarization's plausible-ampleness gate"
    )
    with pytest.raises(ModelError, match=f"^{re.escape(message)}$"):
        load_model(json.dumps(doc))


def test_rr_sanity_plane():
    # the stated chi coefficients reproduce the section count of plane curves
    planes = [projective_plane(e) for e in (1, 2, 3)]
    assert [(m.rr.c, m.rr.c_prime) for m in planes] == [(3, 1), (6, 1), (9, 1)]
    check_rr_sanity(planes)


def test_stratum_lookup():
    model = f1_anticanonical()
    assert model.stratum("on_E").closure_dim == 1
    with pytest.raises(ModelError):
        model.stratum("nope")


def test_generic_stratum_unique():
    for model in builtin_suite():
        dense = [s for s in model.strata if s.closure_dim == 2]
        assert len(dense) == 1
        assert model.generic_stratum.label == dense[0].label


def test_oracle_thresholds_are_rationals():
    model = quadric(1, 2)
    assert model.stratum("generic").oracle_complete_below == Fraction(1)


def test_generator_rows_name_no_blowup_lattice(monkeypatch):
    # a row is on the blow-up layout of the model that lists its set, so
    # neither the built-ins nor a load nor a scan builds that lattice
    assert list(CurveGeneratorSet._fields) == ["labels", "rows"]
    calls = []

    def counted(*args):
        calls.append(args)
        return extend_blowup(*args)

    for module in list(sys.modules.values()):
        if module.__name__.startswith("seshadri") and hasattr(module, "extend_blowup"):
            monkeypatch.setattr(module, "extend_blowup", counted)
    members = [
        {"param_label": f"t{i}", "model": json.loads(model.to_json())}
        for i, model in enumerate(builtin_suite())
        if model.rr.d == 8
    ]
    scan(load_family(json.dumps({"degree": 8, "members": members})), Fraction(5, 2))
    assert calls == []


def test_empty_labels_rejected_at_construction():
    # load_model rejects these labels; so do the constructors
    on_E = f1_anticanonical().stratum("on_E")
    for candidate in on_E.candidates:
        with pytest.raises(EngineError, match="non-empty label"):
            replace(candidate, label="")
    gens = f1_anticanonical().blowup_gens["on_E"]
    with pytest.raises(LatticeError, match="non-empty label"):
        CurveGeneratorSet(labels=("", *gens.labels[1:]), rows=gens.rows)


def test_empty_stratum_label_rejected_at_construction():
    # load_model rejects `"label": ""`, so the constructor does too
    on_E = f1_anticanonical().stratum("on_E")
    with pytest.raises(EngineError, match="^a point stratum needs a non-empty label$"):
        replace(on_E, label="")


def test_empty_model_name_rejected_at_construction():
    # load_model rejects `"name": ""`, so the constructor does too
    with pytest.raises(ModelError, match="^a model needs a non-empty name$"):
        replace(f1_anticanonical(), name="")


def _with_generic_candidate(label):
    """f1_anticanonical with one more generic candidate of ratio 2/1."""
    model = f1_anticanonical()
    generic = model.stratum("generic")
    extra = CurveCandidate(label=label, degree_t=2, mult_m=1)
    stratum = replace(generic, candidates=generic.candidates + (extra,))
    return replace(model, strata=(stratum,) + model.strata[1:])


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: replace(f1_anticanonical(), name=5), ModelError,
         "name of a model must be a string, got 5"),
        (lambda: PointStratum(label=7, closure_dim=2), EngineError,
         "label of a point stratum must be a string, got 7"),
        (lambda: PointStratum(label="s", closure_dim=1, specializes_from=("generic", 5)),
         EngineError, "specializes_from entry of stratum 's' must be a string, got 5"),
        (lambda: PointStratum(label="s", closure_dim=1, specializes_from=("",)),
         EngineError, "stratum 's' needs a non-empty specializes_from entry"),
        (lambda: IntersectionLattice(rank=1, gram=((1,),), basis_labels=(3,)), LatticeError,
         "basis label of a lattice must be a string, got 3"),
        (lambda: IntersectionLattice(rank=1, gram=((1,),), basis_labels=("",)), LatticeError,
         "a lattice needs a non-empty basis label"),
        (lambda: CurveGeneratorSet(labels=(1,), rows=((0, 0, 1),)),
         LatticeError, "label of a curve generator must be a string, got 1"),
        (lambda: _with_generic_candidate(("fiber2",)), EngineError,
         "label of a curve candidate must be a string, got ('fiber2',)"),
    ],
    ids=["model_name", "stratum_label", "specializes_from", "empty_specializes_from",
         "basis_label", "empty_basis_label", "generator_label", "candidate_label"],
)
def test_labels_must_be_strings_at_construction(build, error, message):
    # the document format takes every label and name as a non-empty
    # string, so the constructors do too
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build()


def test_string_candidate_label_ties_break_by_label():
    # a candidate tying the fiber at 2/1 loses the tie on its label only
    model = _with_generic_candidate("fiber2")
    assert epsilon(model, model.stratum("generic")).witness.label == "fiber"


def test_empty_basis_label_rejected_at_load():
    doc = json.loads(f1_anticanonical().to_json())
    doc["basis_labels"][0] = ""
    with pytest.raises(ModelError) as info:
        load_model(json.dumps(doc))
    assert str(info.value) == "schema violation: $: a lattice needs a non-empty basis label"


def _generic():
    return f1_anticanonical().stratum("generic")


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: replace(_generic(), closure_dim=3), EngineError,
         "closure_dim must be at most 2, got 3"),
        (lambda: replace(_generic(), closure_dim=-1), EngineError,
         "closure_dim must be nonnegative, got -1"),
        (lambda: replace(_generic(), closure_dim=2.0), EngineError,
         "closure_dim must be an integer, got 2.0"),
        (lambda: CurveCandidate(label="x", degree_t=2.5, mult_m=1.25), EngineError,
         "degree_t must be an integer, got 2.5"),
        (lambda: CurveCandidate(label="x", degree_t=2, mult_m=Fraction(5, 4)), EngineError,
         "mult_m must be an integer, got Fraction(5, 4)"),
        (lambda: RRData(d=8.0, c=8, c_prime=1), BoundError, "d must be an integer, got 8.0"),
        (lambda: RRData(d=8, c=8, c_prime=1, vanishing_multiplier=1.0), BoundError,
         "vanishing_multiplier must be an integer, got 1.0"),
        (lambda: replace(f1_anticanonical(), very_ample_multiplier=1.0), ModelError,
         "very_ample_multiplier must be an integer, got 1.0"),
        (lambda: replace(_generic(), oracle_complete_below=1.5), EngineError,
         "completeness threshold must be an int or a Fraction, got 1.5"),
        (lambda: replace(_generic(), oracle_complete_below=Fraction(-1)),
         EngineError, "completeness threshold must be positive, got -1"),
        (lambda: IntersectionLattice(rank=2.0, gram=((1, 0), (0, -1)), basis_labels=("H", "E")),
         LatticeError, "rank must be an integer, got 2.0"),
    ],
    ids=["closure_dim_high", "closure_dim_low", "closure_dim_float", "candidate_float",
         "candidate_fraction", "rr_float", "vanishing_float", "very_ample_float",
         "threshold_float", "threshold_negative", "rank_float"],
)
def test_constructors_reject_what_the_document_format_rejects(build, error, message):
    # a float is never truncated into an integer field, and no value the
    # document format rejects gets as far as a verdict
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == message


class _Count(int):
    pass


def test_constructors_reject_bools_and_int_subclasses():
    # an integer is exactly an int in Python as in a document: a bool or
    # an int subclass is rejected, never converted
    cases = [
        (lambda: replace(_generic(), closure_dim=True), EngineError,
         "closure_dim must be an integer, got True"),
        (lambda: replace(_generic(), oracle_complete_below=True), EngineError,
         "completeness threshold must be an int or a Fraction, got True"),
        (lambda: RRData(d=True, c=0, c_prime=1), BoundError, "d must be an integer, got True"),
        (lambda: replace(f1_anticanonical(), very_ample_multiplier=True), ModelError,
         "very_ample_multiplier must be an integer, got True"),
        (lambda: CurveCandidate(label="x", degree_t=2, mult_m=True), EngineError,
         "mult_m must be an integer, got True"),
        (lambda: IntersectionLattice(rank=_Count(1), gram=((1,),), basis_labels=("H",)),
         LatticeError, "rank must be an integer, got 1 of type _Count"),
    ]
    for build, error, message in cases:
        with pytest.raises(error) as info:
            build()
        assert str(info.value) == message
    # an exact int is kept as it is, and a loaded model round-trips
    stratum = replace(_generic(), closure_dim=1, oracle_complete_below=2)
    assert stratum.closure_dim == 1 and stratum.oracle_complete_below == Fraction(2)
    model = replace(f1_anticanonical(), very_ample_multiplier=2)
    assert load_model(model.to_json()).to_json() == model.to_json()


def test_loaded_coordinates_keep_the_length_check():
    doc = f1_doc()
    doc["strata"][0]["candidates"][0]["class"] = [1, -1, 0]
    with pytest.raises(ModelError) as info:
        load_model(json.dumps(doc))
    assert str(info.value) == (
        "candidate 'fiber' of stratum 'generic': coordinate length 3 differs from rank 2"
    )
    with pytest.raises(LatticeError, match="^coordinate length 1 differs from rank 2$"):
        pair(f1_anticanonical().lattice, [1], (3, -1))
    doc = f1_doc()
    doc["polarization"] = [3, -1, 0]
    with pytest.raises(ModelError) as info:
        load_model(json.dumps(doc))
    assert str(info.value) == "coordinate length 3 differs from rank 2"


@pytest.mark.parametrize(
    "row, message",
    [
        ((3,), "coordinate length 1 differs from rank 2"),
        ((3, -1, 0), "coordinate length 3 differs from rank 2"),
        ((3.0, -1), "coordinates must be integers, got 3.0"),
    ],
    ids=["short", "long", "float"],
)
def test_polarization_row_is_checked_at_construction(row, message):
    with pytest.raises(LatticeError) as info:
        replace(f1_anticanonical(), polarization=row)
    assert str(info.value) == message


def _pairings(model, label):
    """(pi^*L.C, Ex.C) for each blow-up generator C, through lattice.pair."""
    ext = extend_blowup(model.lattice, "Ex")
    pullback = model.polarization + (0,)
    exceptional = (0,) * model.lattice.rank + (1,)  # Ex comes last
    return tuple(
        (pair(ext, pullback, row), pair(ext, exceptional, row))
        for row in model.blowup_gens[label].rows
    )


def test_generator_table_matches_pairing_on_builtins():
    models = builtin_suite() + (quadric(1, 2), projective_plane(3))
    for model in models + tuple(load_model(m.to_json()) for m in models):
        for label in model.blowup_gens:
            assert model.generator_table(label) == _pairings(model, label)


@given(
    st.integers(5, 10),
    st.integers(1, 4),
    st.lists(st.lists(generator, min_size=1, max_size=5), min_size=1, max_size=4),
)
# m = 3 > L.C = 2, so the document declares very_ample_multiplier 2
@example(5, 4, [[(1, [0, -1, -1, -1], 3)]])
@settings(max_examples=60)
def test_generator_table_matches_pairing_on_loaded_documents(blown_up_plane, k, n, strata):
    doc = blown_up_plane(
        k, n, [[([a] + e[:n], m) for a, e, m in gens] for gens in strata]
    )
    model = model_from_document(json.loads(json.dumps(doc)))
    for label in model.blowup_gens:
        assert model.generator_table(label) == _pairings(model, label)


def test_replaced_model_gets_a_fresh_table():
    # quadric(1, 2) with bare candidates, so that L = f1 + 2 f2 can be
    # swapped for 2 f1 + f2 of the same degree
    doc = json.loads(quadric(1, 2).to_json())
    for cd in doc["strata"][0]["candidates"]:
        cd["class"] = None
    model = load_model(json.dumps(doc))
    before = model.generator_table("generic")
    swapped = replace(model, polarization=(2, 1))
    assert swapped.generator_table("generic") == _pairings(swapped, "generic") != before
    assert model.generator_table("generic") == before
    # a set can only be replaced through the constructor, which checks it
    gens = model.blowup_gens["generic"]
    fewer = CurveGeneratorSet(labels=gens.labels[:2], rows=gens.rows[:2])
    with pytest.raises(TypeError):
        model.blowup_gens["generic"] = fewer
    replaced = replace(model, blowup_gens={"generic": fewer})
    assert replaced.generator_table("generic") == _pairings(replaced, "generic") == before[:2]
    assert model.generator_table("generic") == before


def test_model_keeps_its_own_copy_of_the_generator_sets():
    model = f1_anticanonical()
    sets = dict(model.blowup_gens)
    copy = replace(model, blowup_gens=sets)
    sets["other"] = sets.pop("generic")
    assert list(copy.blowup_gens) == ["generic", "on_E"]
    with pytest.raises(TypeError):
        del copy.blowup_gens["on_E"]


@pytest.mark.parametrize("build", [lambda: projective_plane(3), f1_anticanonical], ids=["d=9", "d=8"])
def test_the_ceiling_is_sqrt_d_and_no_field(build):
    model = build()
    assert model.ceiling == SeshadriValue.sqrt(model.rr.d)
    assert model.ceiling.is_exact is (model.rr.d == 9)
    assert "ceiling" not in model._fields and "ceiling" not in repr(model)
    for copy in (replace(model), pickle.loads(pickle.dumps(model))):
        assert copy == model and copy.ceiling == model.ceiling


def test_model_hash_agrees_with_equality_in_any_generator_set_order():
    model = f1_anticanonical()
    reversed_sets = dict(reversed(model.blowup_gens.items()))
    other = replace(model, blowup_gens=reversed_sets)
    assert list(other.blowup_gens) == ["on_E", "generic"]
    assert other == model and hash(other) == hash(model)
    assert {model, other} == {model} and len({model, other}) == 1
    for m in (model, other):
        copy = pickle.loads(pickle.dumps(m))
        assert copy == m and hash(copy) == hash(m)
        assert list(copy.blowup_gens) == list(m.blowup_gens)
        assert copy.to_json() == m.to_json()


def test_a_model_builds_its_polarization_covector_once(monkeypatch, blown_up_plane):
    calls = []
    covector = IntersectionLattice.covector

    def counted(self, row):
        calls.append(tuple(row))
        return covector(self, row)

    monkeypatch.setattr(IntersectionLattice, "covector", counted)
    model = f1_anticanonical()
    assert calls == [model.polarization]
    calls.clear()
    doc = blown_up_plane(6, 3, [[((1, 0, 0, 0), 0), ((1, -1, 0, 0), 1)], [((0, 1, 0, 0), 1)]])
    model = model_from_document(json.loads(json.dumps(doc)))
    assert calls == [model.polarization] == [(6, -1, -1, -1)]


def test_stratum_tables_read_no_generator_table(monkeypatch, blown_up_plane):
    # the load walk finds each nef point, so evaluating the strata walks
    # no generator table again
    calls = []
    generator_table = SurfaceModel.generator_table

    def counted(self, label):
        calls.append(label)
        return generator_table(self, label)

    monkeypatch.setattr(SurfaceModel, "generator_table", counted)
    doc = blown_up_plane(6, 3, [[((1, 0, 0, 0), 0), ((1, -1, 0, 0), 1)], [((0, 1, 0, 0), 1)]])
    for model in (f1_anticanonical(), model_from_document(json.loads(json.dumps(doc)))):
        assert len(model.stratum_table) == len(model.strata) == len(model.blowup_gens)
    assert calls == []


@pytest.mark.parametrize("k", [1, 2])
def test_negative_multiple_of_exceptional_class_rejected_at_load(k):
    # -k*Ex is not effective, and the nef path relies on every generator
    # with Ex.C > 0 having positive degree: the very-ampleness rule
    # rejects it, since it meets Ex in k > v*0
    doc = f1_doc()
    doc["blowup_gens"]["generic"].append({"label": "minusEx", "class": [0, 0, -k]})
    message = (
        f"^blow-up generator 'minusEx' of stratum 'generic': multiplicity {k} "
        f"exceeds very_ample_multiplier 1 times degree 0$"
    )
    with pytest.raises(ModelError, match=message):
        load_model(json.dumps(doc))
    # a positive multiple is allowed, and Ex.C < 0 keeps it out of the nef path
    doc["blowup_gens"]["generic"][-1]["class"] = [0, 0, k]
    model = load_model(json.dumps(doc))
    assert epsilon_via_nef(model, model.stratum("generic")).value == SeshadriValue.exact(2)


def test_a_generator_set_reports_its_first_faulty_row():
    # each row is checked in set order, so -Ex fails before the short row
    doc = f1_doc()
    doc["blowup_gens"]["generic"] = [
        {"label": "Ex", "class": [0, 0, 1]},
        {"label": "minusEx", "class": [0, 0, -1]},
        {"label": "short", "class": [1, -1]},
    ]
    message = (
        "^blow-up generator 'minusEx' of stratum 'generic': multiplicity 1 "
        "exceeds very_ample_multiplier 1 times degree 0$"
    )
    with pytest.raises(ModelError, match=message):
        load_model(json.dumps(doc))


@pytest.mark.parametrize(
    "kind, row",
    [
        ("candidate", "candidate 'fiber' of stratum 'on_E'"),
        ("generator", "blow-up generator 'steep' of stratum 'generic'"),
    ],
    ids=["candidate", "generator"],
)
def test_a_row_of_multiplicity_above_v_times_degree_is_rejected(kind, row):
    # with vL very ample no curve through a point has m > v*t; each row has
    # (t, m) = (2, 5), so the model needs v >= 3, through the loader and
    # through the constructor alike
    doc = f1_doc()
    if kind == "candidate":
        doc["strata"][1]["candidates"][1]["m"] = 5
    else:
        doc["blowup_gens"]["generic"].append({"label": "steep", "class": [1, -1, -5]})
    doc["very_ample_multiplier"] = 3
    model = load_model(json.dumps(doc))
    assert replace(model, very_ample_multiplier=3) == model
    for v in (1, 2):
        message = f"^{row}: multiplicity 5 exceeds very_ample_multiplier {v} times degree 2$"
        doc["very_ample_multiplier"] = v
        with pytest.raises(ModelError, match=message):
            load_model(json.dumps(doc))
        with pytest.raises(ModelError, match=message):
            replace(model, very_ample_multiplier=v)


def test_multiplier_rule_follows_the_class_checks_and_precedes_the_cap():
    doc = f1_doc()
    on_E = doc["strata"][1]["candidates"]
    # degree 9 is beyond the bound B = 8 of the threshold 2, and m = 10 > 9
    on_E.append({"label": "steep", "class": None, "t": 9, "m": 10})
    with pytest.raises(ModelError, match="^candidate 'steep' of stratum 'on_E': multiplicity 10"):
        load_model(json.dumps(doc))
    # a class whose pairing differs from t is named first
    on_E[-1]["class"] = [0, 1]
    with pytest.raises(ModelError, match="declared degree 9 differs from pairing 1"):
        load_model(json.dumps(doc))


@pytest.mark.parametrize(
    "wrong",
    [
        (1, -1, 0, -1),  # a row of a rank-4 layout, with a second E
        (1, -1),  # a row of the model's own lattice, not blown up
    ],
    ids=["other_rank", "base_lattice"],
)
def test_generator_on_wrong_lattice_raises_before_pairing(wrong):
    # a dot product against a row of another length would give a number
    # (map stops at the shorter sequence); the length check comes first
    model = f1_anticanonical()
    gens = CurveGeneratorSet(labels=("bad",), rows=(wrong,))
    message = (
        f"^blow-up generator 'bad' of stratum 'generic': coordinate length "
        f"{len(wrong)} differs from rank 3$"
    )
    with pytest.raises(ModelError, match=message):
        replace(model, blowup_gens={**model.blowup_gens, "generic": gens})
    # and there is no way past the constructor
    with pytest.raises(TypeError):
        model.blowup_gens["generic"] = gens
