"""The structural checker behind load_model and load_family: one case per
shape rule, each rejected with `schema violation` and the JSON path of the
offending value."""

import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import seshadri
from seshadri.cli import main
from seshadri.family import FAMILY_SHAPE, FamilyError, load_family
from seshadri.models import (
    MODEL_SHAPE,
    ModelError,
    builtin_suite,
    f1_anticanonical,
    load_model,
    model_from_document,
    quadric,
)
from seshadri.structure import LABEL, StructureError, array, const, integer, of_type, string


def put(*steps_and_value):
    *steps, value = steps_and_value

    def mutate(doc):
        target = doc
        for step in steps[:-1]:
            target = target[step]
        target[steps[-1]] = value
        return doc

    return mutate


def drop(*steps):
    def mutate(doc):
        target = doc
        for step in steps[:-1]:
            target = target[step]
        del target[steps[-1]]
        return doc

    return mutate


def rename_gens(old, new):
    def mutate(doc):
        doc["blowup_gens"][new] = doc["blowup_gens"].pop(old)
        doc["blowup_gens"][new][0]["class"] = [0, 0, "1"]
        return doc

    return mutate


# (id, mutation of the f1_anticanonical document, path, start of the reason)
MODEL_CASES = [
    ("top_level_array", lambda d: [d], "$", "expected an object, got an array"),
    ("missing_key", drop("polarization"), "$", "missing required key 'polarization'"),
    ("unknown_key", put("extra", 1), "$", "unknown key 'extra'"),
    ("schema_version", put("schema_version", 2), "$.schema_version", "expected 1, got 2"),
    ("empty_name", put("name", ""), "$.name", "expected a non-empty string"),
    ("name_not_string", put("name", 5), "$.name", "expected a non-empty string, got 5"),
    ("rank_minimum", put("rank", 0), "$.rank", "expected an integer >= 1, got 0"),
    ("rank_float", put("rank", 2.0), "$.rank", "expected an integer >= 1, got 2.0"),
    ("rank_bool", put("rank", True), "$.rank", "expected an integer >= 1, got true"),
    ("gram_not_array", put("gram", {}), "$.gram", "expected an array, got an object"),
    ("gram_row", put("gram", 0, 7), "$.gram[0]", "expected an array, got 7"),
    ("gram_entry", put("gram", 1, 0, "0"), "$.gram[1][0]", 'expected an integer, got "0"'),
    ("basis_label", put("basis_labels", 1, 3), "$.basis_labels[1]", "expected a non-empty string"),
    ("empty_basis_label", put("basis_labels", 1, ""), "$.basis_labels[1]", 'expected a non-empty string, got ""'),
    ("polarization", put("polarization", 0, 3.0), "$.polarization[0]", "expected an integer"),
    ("rr_missing", drop("rr", "c"), "$.rr", "missing required key 'c'"),
    ("rr_unknown", put("rr", "e", 0), "$.rr", "unknown key 'e'"),
    ("rr_d", put("rr", "d", 0), "$.rr.d", "expected an integer >= 1, got 0"),
    ("rr_c_float", put("rr", "c", 8.0), "$.rr.c", "expected an integer, got 8.0"),
    ("rr_c_prime", put("rr", "c_prime", None), "$.rr.c_prime", "expected an integer, got null"),
    ("vanishing", put("rr", "vanishing_multiplier", 0), "$.rr.vanishing_multiplier", "expected an integer >= 1"),
    ("very_ample", put("very_ample_multiplier", 0), "$.very_ample_multiplier", "expected an integer >= 1"),
    ("strata_empty", put("strata", []), "$.strata", "expected an array of at least 1 item, got 0"),
    ("stratum_not_object", put("strata", 1, "on_E"), "$.strata[1]", "expected an object"),
    ("stratum_missing", drop("strata", 1, "candidates"), "$.strata[1]", "missing required key 'candidates'"),
    ("stratum_unknown", put("strata", 0, "dim", 2), "$.strata[0]", "unknown key 'dim'"),
    ("stratum_label", put("strata", 0, "label", ""), "$.strata[0].label", "expected a non-empty string"),
    ("closure_dim_high", put("strata", 1, "closure_dim", 3), "$.strata[1].closure_dim", "expected an integer in 0..2, got 3"),
    ("closure_dim_low", put("strata", 1, "closure_dim", -1), "$.strata[1].closure_dim", "expected an integer in 0..2"),
    ("specializes_from", put("strata", 1, "specializes_from", 0, 0), "$.strata[1].specializes_from[0]", "expected a non-empty string"),
    ("empty_specializes_from", put("strata", 1, "specializes_from", 0, ""), "$.strata[1].specializes_from[0]", 'expected a non-empty string, got ""'),
    ("ocb_decimal", put("strata", 0, "oracle_complete_below", "1.5"), "$.strata[0].oracle_complete_below", "expected a rational string"),
    ("ocb_number", put("strata", 0, "oracle_complete_below", 2), "$.strata[0].oracle_complete_below", "expected a rational string"),
    ("ocb_newline", put("strata", 0, "oracle_complete_below", "2\n"), "$.strata[0].oracle_complete_below", "expected a rational string"),
    ("candidate_missing", drop("strata", 0, "candidates", 1, "class"), "$.strata[0].candidates[1]", "missing required key 'class'"),
    ("candidate_unknown", put("strata", 0, "candidates", 0, "mult", 1), "$.strata[0].candidates[0]", "unknown key 'mult'"),
    ("candidate_label", put("strata", 1, "candidates", 0, "label", ""), "$.strata[1].candidates[0].label", "expected a non-empty string"),
    ("candidate_class", put("strata", 0, "candidates", 0, "class", 0, "1"), "$.strata[0].candidates[0].class[0]", "expected an integer"),
    ("candidate_t", put("strata", 1, "candidates", 2, "t", 0), "$.strata[1].candidates[2].t", "expected an integer >= 1, got 0"),
    ("candidate_m_float", put("strata", 0, "candidates", 2, "m", 2.0), "$.strata[0].candidates[2].m", "expected an integer >= 1, got 2.0"),
    ("gens_not_object", put("blowup_gens", []), "$.blowup_gens", "expected an object, got an array"),
    ("gens_not_array", put("blowup_gens", "generic", {}), "$.blowup_gens.generic", "expected an array"),
    ("gen_missing", drop("blowup_gens", "on_E", 1, "class"), "$.blowup_gens.on_E[1]", "missing required key 'class'"),
    ("gen_unknown", put("blowup_gens", "on_E", 0, "kind", "x"), "$.blowup_gens.on_E[0]", "unknown key 'kind'"),
    ("gen_label", put("blowup_gens", "generic", 2, "label", ""), "$.blowup_gens.generic[2].label", "expected a non-empty string"),
    ("gen_class", put("blowup_gens", "generic", 0, "class", 2, False), "$.blowup_gens.generic[0].class[2]", "expected an integer, got false"),
    ("gen_key_quoted", rename_gens("on_E", "on E"), '$.blowup_gens["on E"][0].class[2]', "expected an integer"),
]


@pytest.mark.parametrize(
    "mutate, path, reason", [case[1:] for case in MODEL_CASES], ids=[case[0] for case in MODEL_CASES]
)
def test_malformed_model_rejected_with_path(mutate, path, reason):
    doc = mutate(json.loads(f1_anticanonical().to_json()))
    with pytest.raises(ModelError) as info:
        load_model(json.dumps(doc))
    assert str(info.value).startswith(f"schema violation: {path}: {reason}")


@pytest.mark.parametrize(
    "shape, bad, reason",
    [
        (integer(), True, "expected an integer, got true"),
        (integer(), 2.0, "expected an integer, got 2.0"),
        (integer(minimum=1), 0, "expected an integer >= 1, got 0"),
        (integer(minimum=0, maximum=2), 3, "expected an integer in 0..2, got 3"),
        (integer(minimum=0, maximum=2), -1, "expected an integer in 0..2, got -1"),
    ],
    ids=["bool", "float", "below_minimum", "above_maximum", "below_range"],
)
@pytest.mark.parametrize("k", [0, 417, 999])
def test_long_integer_array_reports_the_first_bad_index(shape, bad, reason, k):
    # a list of integers is checked at once; a failure still names its
    # first bad item, here ahead of a second one
    value = [1] * 1000
    value[k] = bad
    if k + 1 < len(value):
        value[-1] = "x"
    with pytest.raises(StructureError) as info:
        array(shape)(value)
    assert str(info.value) == f"$[{k}]: {reason}"


@pytest.mark.parametrize(
    "shape, good, bad, reason",
    [
        (string(), "x", 7, "expected a string, got 7"),
        (string(pattern=r"^[0-9]+$", want="digits"), "12", "1a", 'expected digits, got "1a"'),
        (LABEL, "x", "", 'expected a non-empty string, got ""'),
        (const(1), 1, True, "expected 1, got true"),
        (of_type((dict, str), "an object or a path"), "x", 5, "expected an object or a path, got 5"),
    ],
    ids=["string", "pattern", "label", "const", "of_type"],
)
@pytest.mark.parametrize("k", [0, 417, 999])
def test_long_leaf_array_reports_the_first_bad_index(shape, good, bad, reason, k):
    # every leaf's walk is its column test on one value, so it fails
    # where the column test fails, with the leaf's own message
    value = [good] * 1000
    value[k] = bad
    if k + 1 < len(value):
        value[-1] = None
    with pytest.raises(StructureError) as info:
        array(shape)(value)
    assert str(info.value) == f"$[{k}]: {reason}"


class _Name(str):
    pass


class _Count(int):
    pass


@pytest.mark.parametrize(
    "key, value, reason",
    [
        ("name", _Name("f1"), "$.name: expected a non-empty string, got a value of type _Name"),
        ("rank", _Count(2), "$.rank: expected an integer >= 1, got a value of type _Count"),
        ("gram", ((1, 0), (0, -1)), "$.gram: expected an array, got a value of type tuple"),
    ],
    ids=["str_subclass", "int_subclass", "tuple"],
)
def test_value_of_a_non_json_type_is_rejected(key, value, reason):
    # the walk tests exact types, as the column test does; json.loads
    # never makes a subclass or a tuple, so only a document built in
    # Python has one
    doc = json.loads(f1_anticanonical().to_json())
    doc[key] = value
    with pytest.raises(ModelError) as info:
        model_from_document(doc)
    assert str(info.value) == f"schema violation: {reason}"


def family_doc():
    return {
        "degree": 8,
        "members": [
            {"param_label": "t0", "model": "f1.json"},
            {"param_label": "t1", "model": json.loads(quadric(2, 2).to_json())},
        ],
        "member_specialization": [["t0", "t1"]],
    }


FAMILY_CASES = [
    ("top_level_array", lambda d: [d], "$", "expected an object, got an array"),
    ("missing_members", drop("members"), "$", "missing required key 'members'"),
    ("unknown_key", put("alpha", "2"), "$", "unknown key 'alpha'"),
    ("degree_minimum", put("degree", 0), "$.degree", "expected an integer >= 1, got 0"),
    ("degree_float", put("degree", 8.0), "$.degree", "expected an integer >= 1, got 8.0"),
    ("members_empty", put("members", []), "$.members", "expected an array of at least 1 item, got 0"),
    ("member_not_object", put("members", 1, "t1"), "$.members[1]", "expected an object"),
    ("member_missing", drop("members", 0, "model"), "$.members[0]", "missing required key 'model'"),
    ("member_unknown", put("members", 0, "weight", 1), "$.members[0]", "unknown key 'weight'"),
    ("param_label", put("members", 1, "param_label", ""), "$.members[1].param_label", "expected a non-empty string"),
    ("model_type", put("members", 0, "model", 5), "$.members[0].model", "expected a model object or a file path, got 5"),
    ("specialization_type", put("member_specialization", {}), "$.member_specialization", "expected an array"),
    ("pair_too_long", put("member_specialization", 0, ["t0", "t1", "t0"]), "$.member_specialization[0]", "expected an array of 2 items, got 3"),
    ("pair_too_short", put("member_specialization", 0, ["t0"]), "$.member_specialization[0]", "expected an array of 2 items, got 1"),
    ("pair_entry", put("member_specialization", 0, 1, 1), "$.member_specialization[0][1]", "expected a non-empty string, got 1"),
    ("empty_pair_entry", put("member_specialization", 0, 0, ""), "$.member_specialization[0][0]", 'expected a non-empty string, got ""'),
]


@pytest.mark.parametrize(
    "mutate, path, reason", [case[1:] for case in FAMILY_CASES], ids=[case[0] for case in FAMILY_CASES]
)
def test_malformed_family_rejected_with_path(mutate, path, reason):
    doc = mutate(family_doc())
    with pytest.raises(FamilyError) as info:
        load_family(json.dumps(doc))
    assert str(info.value).startswith(f"schema violation: {path}: {reason}")


def _with_nulls():
    # f1_anticanonical with a bare candidate class and no threshold, so
    # that the null branches of the nullable fields are mutated too
    doc = json.loads(f1_anticanonical().to_json())
    doc["strata"][1]["candidates"][0]["class"] = None
    doc["strata"][1]["oracle_complete_below"] = None
    return doc


VALID_DOCUMENTS = [(MODEL_SHAPE, json.loads(m.to_json())) for m in builtin_suite()] + [
    (MODEL_SHAPE, _with_nulls()),
    (FAMILY_SHAPE, family_doc()),
    (FAMILY_SHAPE, {k: v for k, v in family_doc().items() if k != "member_specialization"}),
]


def _positions(value, path=()):
    """The path of every value in a document, the document's own first."""
    yield path
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield from _positions(item, path + (key,))


# one-point mutations: a value replaced by a bool, a float, null, "", an
# out-of-range integer or a non-list; a key or item dropped; a key added
_REPLACEMENTS = {
    "bool": st.booleans(),
    "float": st.sampled_from([1.0, 2.5, -1.0]),
    "null": st.none(),
    "empty_string": st.just(""),
    "out_of_range": st.sampled_from([-1, 0, 2, 3]),
    "non_list": st.sampled_from([{}, 7, "x"]),
}


@st.composite
def _mutated(draw):
    shape, valid = draw(st.sampled_from(VALID_DOCUMENTS))
    doc = json.loads(json.dumps(valid))
    path = draw(st.sampled_from(list(_positions(doc))))
    kind = draw(st.sampled_from(sorted(_REPLACEMENTS) + ["drop", "extra_key"]))
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    target = parent[path[-1]] if path else doc
    if kind == "extra_key":
        if isinstance(target, dict):
            target["extra"] = 1
    elif kind == "drop":
        if path:
            del parent[path[-1]]
    elif path:
        parent[path[-1]] = draw(_REPLACEMENTS[kind])
    else:
        doc = draw(_REPLACEMENTS[kind])
    return shape, doc


def _walk_error(shape, doc):
    try:
        shape.walk(doc)
    except StructureError as exc:
        return str(exc)
    return None


def test_column_accepts_every_valid_document():
    for shape, doc in VALID_DOCUMENTS:
        assert shape.column([doc])


def test_walk_finds_no_fault_in_a_valid_value():
    for shape, doc in VALID_DOCUMENTS:
        assert shape.walk(doc) is None
    assert integer(minimum=0, maximum=2).walk(2) is None
    assert LABEL.walk("generic") is None


@given(_mutated())
@settings(max_examples=600)
def test_column_check_agrees_with_the_walk(mutated):
    # the column test may be stricter than the walk, never looser; on
    # parsed JSON, whose values have exact types, the two agree
    shape, doc = mutated
    error = _walk_error(shape, doc)
    assert shape.column([doc]) == (error is None)
    if error is None:
        shape(doc)
    else:
        with pytest.raises(StructureError) as info:
            shape(doc)
        assert str(info.value) == error


def test_integral_float_is_an_input_error_not_a_crash(tmp_path, capsys):
    doc = json.loads(f1_anticanonical().to_json())
    doc["rank"] = 2.0
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    assert main(["epsilon", str(path)]) == 1
    assert "error: schema violation: $.rank: expected an integer" in capsys.readouterr().err


def test_cli_import_does_not_load_jsonschema():
    code = "import sys, seshadri.cli; print('jsonschema' in sys.modules)"
    src = os.path.dirname(os.path.dirname(seshadri.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    ).stdout
    assert out.strip() == "False"
