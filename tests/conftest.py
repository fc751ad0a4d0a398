import pytest

from seshadri.models import model_from_document, projective_plane


@pytest.fixture
def violating_model():
    """A factory of degree-4 plane models whose special point lies above
    the dense stratum, against geometry: generic lists one curve of ratio
    t/m (default 1), special one of ratio 2, each value exact when its
    completeness threshold reaches that ratio, and no blow-up data."""

    def build(generic_ocb=None, special_ocb=None, generic_curve=(2, 2)):
        doc = projective_plane(2).to_document()
        doc["name"], doc["blowup_gens"] = "negative_control", {}
        t, m = generic_curve
        doc["strata"][0].update(
            oracle_complete_below=generic_ocb,
            candidates=[{"label": "low", "class": None, "t": t, "m": m}],
        )
        doc["strata"].append(
            {
                "label": "special",
                "closure_dim": 0,
                "specializes_from": ["generic"],
                "oracle_complete_below": special_ocb,
                "candidates": [{"label": "high", "class": None, "t": 2, "m": 1}],
            }
        )
        return model_from_document(doc)

    return build
