"""The contract of `strategies.blown_up_plane_documents`: every draw loads,
and it meets the rules of a complete generator set and of
specialization, checked here through `lattice.pair` on the blow-up
layout of `lattice.extend_blowup`, not through the model's tables."""

import json
from fractions import Fraction

from hypothesis import given, settings

from seshadri.lattice import extend_blowup, pair
from seshadri.models import load_model, model_from_document

from strategies import blown_up_plane_documents


def _at_most(special, general, d):
    """special <= general, each a Fraction or None for sqrt(d)."""
    if general is None:
        return special is None or special * special <= d
    if special is None:
        return general * general >= d
    return special <= general


@given(blown_up_plane_documents())
@settings(max_examples=100)
def test_every_draw_builds_and_keeps_the_rules_of_a_complete_set(doc):
    text = json.dumps(doc, indent=2) + "\n"
    model = model_from_document(json.loads(text))
    assert model.to_json() == text == load_model(text).to_json()
    d = model.rr.d
    ext = extend_blowup(model.lattice, "Ex")
    pullback = model.polarization + (0,)
    exceptional = (0,) * model.lattice.rank + (1,)  # Ex comes last
    values = {}  # each stratum's least ratio t/m, None for sqrt(d) with no set
    for stratum in model.strata:
        gens = model.blowup_gens.get(stratum.label)
        if gens is None:
            values[stratum.label] = None
            continue
        assert exceptional in gens.rows
        pairs = [(pair(ext, pullback, row), pair(ext, exceptional, row), row) for row in gens.rows]
        least = min(Fraction(t, m) for t, m, _ in pairs if m > 0)
        assert least.numerator**2 <= d * least.denominator**2
        for t, m, row in pairs:
            if m > 0 and Fraction(t, m) == least:
                square = pair(ext, row, row)
                assert square < 0 or square == 0 and least * least == d
        values[stratum.label] = least
    for stratum in model.strata:
        for general in (model.generic_stratum.label, *stratum.specializes_from):
            assert _at_most(values[stratum.label], values[general], d)
