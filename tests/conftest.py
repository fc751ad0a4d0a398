import itertools
from fractions import Fraction

import pytest

from seshadri.bounds import candidate_walk
from seshadri.examples import f1_anticanonical, projective_plane
from seshadri.models import model_from_document


@pytest.fixture(scope="session")
def check_superset():
    """A check of a candidate superset against `reference`, the ratios it
    must hold as ascending Fractions, and `bounds`, the (multiplier v,
    degree bound B, alpha) of each of its walks.  len counts the
    reference, each of its ratios is in the superset, and one that can
    be iterated lists them in order as reduced pairs.  Just outside each
    walk lie the least ratio above alpha among the t/(m*v) with
    m <= t <= B, and (B + 1)/(B*v), whose numerator passes B: each of
    these is in the superset exactly when the reference holds it.  The
    check returns those ratios."""

    def check(superset, reference, bounds):
        pairs = [(q.numerator, q.denominator) for q in reference]
        if hasattr(superset, "__iter__"):
            assert list(superset) == pairs
        assert len(superset) == len(pairs)
        assert all(pair in superset for pair in pairs)
        outside = []
        for v, B, alpha in bounds:
            above = (Fraction(t, m) for t, m in candidate_walk(B, B) if Fraction(t, m) > v * alpha)
            outside += [q / v for q in itertools.islice(above, 1)] + [Fraction(B + 1, B * v)]
        held = set(reference)
        for q in outside:
            assert ((q.numerator, q.denominator) in superset) == (q in held), q
        return outside

    return check


@pytest.fixture
def violating_model():
    """A factory of degree-4 plane models whose special point may lie
    above the dense stratum, against geometry: generic lists one curve of
    ratio t/m (default 1), special one of ratio 2, each value exact when
    its completeness threshold reaches that ratio, and no blow-up data.
    Where both values are exact and special's is the larger, building the
    model raises the dense-stratum error as a ModelError.  A generic
    curve of multiplicity m above its degree t needs a
    `very_ample_multiplier` of at least m/t."""

    def build(generic_ocb=None, special_ocb=None, generic_curve=(2, 2), very_ample_multiplier=1):
        doc = projective_plane(2).to_document()
        doc["name"], doc["blowup_gens"] = "negative_control", {}
        doc["very_ample_multiplier"] = very_ample_multiplier
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


@pytest.fixture
def chain_document():
    """The document of a degree-4 plane model whose value drops and then
    rises along a chain of specializations, each value exact: generic 2,
    mid 1 (from generic) and special 3/2 (from mid).  No stratum lies
    above the dense one, but special lies above mid, which it specializes
    from, so loading it raises: `stratum 'special' has a value of at least
    3/2, above the stratum 'mid' at most 1`."""
    doc = projective_plane(2).to_document()
    doc["name"] = "negative_control"
    doc["strata"] += [
        {
            "label": "mid",
            "closure_dim": 1,
            "specializes_from": ["generic"],
            "oracle_complete_below": "1",
            "candidates": [{"label": "conic", "class": None, "t": 2, "m": 2}],
        },
        {
            "label": "special",
            "closure_dim": 0,
            "specializes_from": ["mid"],
            "oracle_complete_below": "3/2",
            "candidates": [{"label": "cubic", "class": None, "t": 3, "m": 2}],
        },
    ]
    return doc


@pytest.fixture
def f1_above_dense():
    """The document of f1 with on_E's table cut to its line (t=3, m=1),
    complete below 3, and on_E's blow-up set removed: on_E is exactly
    sqrt(8), above the dense stratum's 2, so loading it raises."""
    doc = f1_anticanonical().to_document()
    on_E = doc["strata"][1]
    on_E["candidates"] = [c for c in on_E["candidates"] if c["label"] == "line"]
    on_E["oracle_complete_below"] = "3"
    del doc["blowup_gens"]["on_E"]
    return doc


@pytest.fixture
def f1_above_on_E():
    """The document of f1 with a third stratum `pt` that specializes from
    on_E, its table one curve t=3, m=2 complete below 3/2 and no blow-up
    set: pt is exactly 3/2, below the dense stratum's 2 but above on_E's
    exact 1, so loading it raises."""
    doc = f1_anticanonical().to_document()
    doc["strata"].append(
        {
            "label": "pt",
            "closure_dim": 0,
            "specializes_from": ["on_E"],
            "oracle_complete_below": "3/2",
            "candidates": [{"label": "cubic", "class": None, "t": 3, "m": 2}],
        }
    )
    return doc
