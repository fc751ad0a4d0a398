import dataclasses
import json
from fractions import Fraction

import pytest

from seshadri.checks import check_roundtrip, check_rr_sanity
from seshadri.engine import EngineError
from seshadri.lattice import CurveGeneratorSet, LatticeError
from seshadri.models import (
    ModelError,
    builtin,
    builtin_suite,
    f1_anticanonical,
    load_model,
    projective_plane,
    quadric,
)
from seshadri.lattice import pair


def f1_doc():
    return json.loads(f1_anticanonical().to_json())


def test_roundtrip_byte_identical():
    check_roundtrip(builtin_suite())


def test_builtin_dispatch():
    assert builtin("projective_plane", e=2).rr.d == 4
    assert builtin("quadric", a=2, b=2).rr.d == 8
    assert builtin("f1_anticanonical").name == "f1_anticanonical"


def test_builtin_unknown_name():
    with pytest.raises(ModelError, match="unknown"):
        builtin("k3_quartic")


def test_builtin_invalid_params():
    with pytest.raises(ModelError):
        builtin("projective_plane", e=0)
    with pytest.raises(ModelError):
        builtin("quadric", a=0, b=1)
    with pytest.raises(ModelError):
        builtin("projective_plane", foo=1)


def test_quadric_degree_by_pairing():
    model = quadric(2, 2)
    assert pair(model.polarization, model.polarization) == 8 == model.rr.d


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


def test_blowup_lattice_is_shared_with_generators():
    for model in (f1_anticanonical(), load_model(f1_anticanonical().to_json())):
        ext = model.blowup_lattice
        assert ext is model.blowup_lattice
        assert all(
            cls.lattice is ext for gens in model.blowup_gens.values() for _, cls in gens.generators
        )


def test_unasserted_generators_have_no_document():
    # the format asserts every listed set complete: writing an un-asserted
    # one would turn it into a certificate on load
    model = f1_anticanonical()
    gens = dataclasses.replace(model.blowup_gens["generic"], completeness_assertion=False)
    model = dataclasses.replace(model, blowup_gens={**model.blowup_gens, "generic": gens})
    for write in (model.to_document, model.to_json):
        with pytest.raises(ModelError, match="stratum 'generic' are not asserted complete"):
            write()


def test_empty_labels_rejected_at_construction():
    # load_model rejects these labels; so do the constructors
    on_E = f1_anticanonical().stratum("on_E")
    for candidate in on_E.candidates:
        with pytest.raises(EngineError, match="non-empty label"):
            dataclasses.replace(candidate, label="")
    ((_, cls), *rest) = f1_anticanonical().blowup_gens["on_E"].generators
    with pytest.raises(LatticeError, match="non-empty label"):
        CurveGeneratorSet(generators=(("", cls), *rest))


def test_empty_stratum_label_rejected_at_construction():
    # load_model rejects `"label": ""`, so the constructor does too
    on_E = f1_anticanonical().stratum("on_E")
    with pytest.raises(EngineError, match="^a point stratum needs a non-empty label$"):
        dataclasses.replace(on_E, label="")


def test_empty_model_name_rejected_at_construction():
    # load_model rejects `"name": ""`, so the constructor does too
    with pytest.raises(ModelError, match="^a model needs a non-empty name$"):
        dataclasses.replace(f1_anticanonical(), name="")


def test_loaded_coordinates_keep_the_length_check():
    doc = f1_doc()
    doc["strata"][0]["candidates"][0]["class"] = [1, -1, 0]
    with pytest.raises(ModelError) as info:
        load_model(json.dumps(doc))
    assert str(info.value) == "coordinate length 3 differs from rank 2"
    with pytest.raises(LatticeError, match="^coordinate length 1 differs from rank 2$"):
        f1_anticanonical().lattice.divisor([1])
