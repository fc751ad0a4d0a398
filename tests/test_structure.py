"""Input validation of load_model and load_family.  The loaders check each
object's keys, the kind of each container, `schema_version` and the syntax
of a rational string; the constructors check every other value.  One case
per rule: a loader's own rule names the JSON path of the offending value,
and a constructor's error the path of the part being built, or no path
for a check of the model or the family as a whole."""

import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import seshadri
from seshadri.cli import main
from seshadri.examples import builtin_suite, f1_anticanonical, quadric
from seshadri.family import FamilyError, load_family
from seshadri.models import ModelError, load_model, model_from_document
from seshadri.values import parse_rational


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


_F1_GENERIC_GENS = f1_anticanonical().to_document()["blowup_gens"]["generic"]


def rename_gens(old, new):
    def mutate(doc):
        doc["blowup_gens"][new] = doc["blowup_gens"].pop(old)
        doc["blowup_gens"][new][0]["class"] = [0, 0, "1"]
        return doc

    return mutate


SV = "schema violation: "

# (id, mutation of the f1_anticanonical document, message)
MODEL_CASES = [
    ("top_level_array", lambda d: [d], SV + "$: expected an object, got an array"),
    ("missing_key", drop("polarization"), SV + "$: missing required key 'polarization'"),
    ("unknown_key", put("extra", 1), SV + "$: unknown key 'extra'"),
    ("schema_version", put("schema_version", 2), SV + "$.schema_version: expected 1, got 2"),
    ("empty_name", put("name", ""), "a model needs a non-empty name"),
    ("name_not_string", put("name", 5), "name of a model must be a string, got 5"),
    ("rank_minimum", put("rank", 0), SV + "$: rank must be positive, got 0"),
    ("rank_float", put("rank", 2.0), SV + "$: rank must be an integer, got 2.0"),
    ("rank_bool", put("rank", True), SV + "$: rank must be an integer, got True"),
    ("basis_labels_length", put("basis_labels", ["H"]),
     SV + "$: basis_labels length differs from rank"),
    ("gram_not_array", put("gram", {}), SV + "$.gram: expected an array, got an object"),
    ("gram_row", put("gram", 0, 7), SV + "$.gram[0]: expected an array, got 7"),
    ("gram_entry", put("gram", 1, 0, "0"), SV + "$: gram entries must be integers, got '0'"),
    # a long value is shown as the first 37 characters of its repr
    ("gram_entry_long", put("gram", 0, 0, "x" * 100_000),
     SV + "$: gram entries must be integers, got '" + "x" * 36 + "..."),
    ("basis_label", put("basis_labels", 1, 3),
     SV + "$: basis label of a lattice must be a string, got 3"),
    ("empty_basis_label", put("basis_labels", 1, ""),
     SV + "$: a lattice needs a non-empty basis label"),
    ("polarization", put("polarization", 0, 3.0), "coordinates must be integers, got 3.0"),
    ("rr_missing", drop("rr", "c"), SV + "$.rr: missing required key 'c'"),
    ("rr_unknown", put("rr", "e", 0), SV + "$.rr: unknown key 'e'"),
    ("rr_d", put("rr", "d", 0), SV + "$.rr: degree must be positive, got 0"),
    ("rr_c_float", put("rr", "c", 8.0), SV + "$.rr: c must be an integer, got 8.0"),
    ("rr_c_prime", put("rr", "c_prime", None), SV + "$.rr: c_prime must be an integer, got None"),
    ("vanishing", put("rr", "vanishing_multiplier", 0),
     SV + "$.rr: vanishing_multiplier must be a positive integer"),
    ("very_ample", put("very_ample_multiplier", 0),
     "very_ample_multiplier must be a positive integer"),
    ("strata_empty", put("strata", []),
     "exactly one dense (closure_dim = 2) stratum required, got none"),
    ("strata_duplicate", put("strata", 1, "label", "generic"), "stratum labels are not distinct"),
    ("stratum_not_object", put("strata", 1, "on_E"),
     SV + '$.strata[1]: expected an object, got "on_E"'),
    ("stratum_missing", drop("strata", 1, "candidates"),
     SV + "$.strata[1]: missing required key 'candidates'"),
    ("stratum_unknown", put("strata", 0, "dim", 2), SV + "$.strata[0]: unknown key 'dim'"),
    ("candidates_not_array", put("strata", 1, "candidates", {}),
     SV + "$.strata[1].candidates: expected an array, got an object"),
    ("stratum_label", put("strata", 0, "label", ""),
     SV + "$.strata[0]: a point stratum needs a non-empty label"),
    ("closure_dim_high", put("strata", 1, "closure_dim", 3),
     SV + "$.strata[1]: closure_dim must be at most 2, got 3"),
    ("closure_dim_low", put("strata", 1, "closure_dim", -1),
     SV + "$.strata[1]: closure_dim must be nonnegative, got -1"),
    ("specializes_from", put("strata", 1, "specializes_from", 0, 0),
     SV + "$.strata[1]: specializes_from entry of stratum 'on_E' must be a string, got 0"),
    ("empty_specializes_from", put("strata", 1, "specializes_from", 0, ""),
     SV + "$.strata[1]: stratum 'on_E' needs a non-empty specializes_from entry"),
    ("specializes_from_not_array", put("strata", 1, "specializes_from", "generic"),
     SV + '$.strata[1].specializes_from: expected an array, got "generic"'),
    ("ocb_decimal", put("strata", 0, "oracle_complete_below", "1.5"),
     SV + '$.strata[0].oracle_complete_below: expected a rational string such as "3/2" or '
     'null, got "1.5"'),
    ("ocb_number", put("strata", 0, "oracle_complete_below", 2),
     SV + '$.strata[0].oracle_complete_below: expected a rational string such as "3/2" or '
     "null, got 2"),
    ("ocb_newline", put("strata", 0, "oracle_complete_below", "2\n"),
     SV + '$.strata[0].oracle_complete_below: expected a rational string such as "3/2" or '
     'null, got "2\\n"'),
    ("ocb_zero_denominator", put("strata", 0, "oracle_complete_below", "1/0"),
     SV + '$.strata[0].oracle_complete_below: expected a rational string such as "3/2" or '
     'null, got "1/0"'),
    ("ocb_zero", put("strata", 1, "oracle_complete_below", "0"),
     SV + "$.strata[1]: completeness threshold must be positive, got 0"),
    ("ocb_negative", put("strata", 1, "oracle_complete_below", "-1"),
     SV + "$.strata[1]: completeness threshold must be positive, got -1"),
    ("candidate_missing", drop("strata", 0, "candidates", 1, "class"),
     SV + "$.strata[0].candidates[1]: missing required key 'class'"),
    ("candidate_unknown", put("strata", 0, "candidates", 0, "mult", 1),
     SV + "$.strata[0].candidates[0]: unknown key 'mult'"),
    ("candidate_label", put("strata", 1, "candidates", 0, "label", ""),
     SV + "$.strata[1].candidates[0]: a curve candidate needs a non-empty label"),
    ("candidate_label_long", put("strata", 0, "candidates", 0, "label", ["y" * 100_000]),
     SV + "$.strata[0].candidates[0]: label of a curve candidate must be a string, got ['"
     + "y" * 35 + "..."),
    ("candidate_class", put("strata", 0, "candidates", 0, "class", 0, "1"),
     SV + "$.strata[0].candidates[0]: coordinates must be integers, got '1'"),
    ("candidate_class_not_array", put("strata", 0, "candidates", 2, "class", 7),
     SV + "$.strata[0].candidates[2].class: expected an array, got 7"),
    ("candidate_t", put("strata", 1, "candidates", 2, "t", 0),
     SV + "$.strata[1].candidates[2]: candidate 'line' needs positive degree and "
     "multiplicity, got (0, 1)"),
    ("candidate_m_float", put("strata", 0, "candidates", 2, "m", 2.0),
     SV + "$.strata[0].candidates[2]: mult_m must be an integer, got 2.0"),
    ("gens_not_object", put("blowup_gens", []),
     SV + "$.blowup_gens: expected an object, got an array"),
    ("gens_not_array", put("blowup_gens", "generic", {}),
     SV + "$.blowup_gens.generic: expected an array, got an object"),
    ("gen_missing", drop("blowup_gens", "on_E", 1, "class"),
     SV + "$.blowup_gens.on_E[1]: missing required key 'class'"),
    ("gen_unknown", put("blowup_gens", "on_E", 0, "kind", "x"),
     SV + "$.blowup_gens.on_E[0]: unknown key 'kind'"),
    ("gen_not_object", put("blowup_gens", "on_E", 1, "E-Ex"),
     SV + '$.blowup_gens.on_E[1]: expected an object, got "E-Ex"'),
    ("gen_class_not_array", put("blowup_gens", "on_E", 2, "class", {}),
     SV + "$.blowup_gens.on_E[2].class: expected an array, got an object"),
    ("gen_label", put("blowup_gens", "generic", 2, "label", ""),
     SV + "$.blowup_gens.generic: a curve generator needs a non-empty label"),
    ("gen_class", put("blowup_gens", "generic", 0, "class", 2, False),
     SV + "$.blowup_gens.generic: coordinates must be integers, got False"),
    ("gens_unknown_stratum", put("blowup_gens", "ghost", _F1_GENERIC_GENS),
     "blow-up generators given for unknown stratum 'ghost'"),
    ("gen_key_quoted", rename_gens("on_E", "on E"),
     SV + "$.blowup_gens[\"on E\"]: coordinates must be integers, got '1'"),
    # an item's shape is checked before the set's classes: item 1's
    # missing key is named, not item 0's bad coordinate
    ("gen_key_quoted_item",
     lambda d: drop("blowup_gens", "on E", 1, "class")(rename_gens("on_E", "on E")(d)),
     SV + "$.blowup_gens[\"on E\"][1]: missing required key 'class'"),
]


@pytest.mark.parametrize(
    "mutate, message", [case[1:] for case in MODEL_CASES], ids=[case[0] for case in MODEL_CASES]
)
def test_malformed_model_rejected_with_path(mutate, message):
    doc = mutate(json.loads(f1_anticanonical().to_json()))
    with pytest.raises(ModelError) as info:
        load_model(json.dumps(doc))
    assert str(info.value) == message


def _thousand(where, k, bad, later):
    """The f1_anticanonical document with a list of 1,000 items at `where`
    whose item k is spoilt by `bad`, and the last one, when k is not
    last, by `later`: a loader that reported any bad item but the first
    would report `later`, whose message differs.  `where` is one of
    "candidates" (1,000 copies of the fiber on the generic stratum, each
    spoilt by merging `bad` in, or replaced by it when it is not a dict),
    "strata" (1,000 zero-dimensional strata, each specializing from the
    dense one), "row" (a 1,000-entry class of the fiber) or "generator_row"
    (a 1,000-entry class of the generic set's first generator), whose
    entries `bad` replaces."""
    doc = json.loads(f1_anticanonical().to_json())
    generic = doc["strata"][0]
    if where == "candidates":
        items = [dict(generic["candidates"][0], label=f"c{i}") for i in range(1000)]
        generic["candidates"] = items
    elif where == "strata":
        items = [
            dict(doc["strata"][1], label=f"s{i}", closure_dim=0, candidates=[])
            for i in range(999)
        ]
        doc["strata"] = [generic] + items
        items = doc["strata"]
        doc["blowup_gens"].pop("on_E")
    elif where == "row":
        items = generic["candidates"][0]["class"] = [1] * 1000
    else:
        items = doc["blowup_gens"]["generic"][0]["class"] = [1] * 1000
    for i, spoil in [(k, bad)] + [(999, later)] * (k < 999):
        items[i] = {**items[i], **spoil} if type(spoil) is dict else spoil
    return doc


def _candidate(k):
    return f"{SV}$.strata[0].candidates[{k}]: "


# the ids name the rules of the combinator library this module tested
# before the constructors became the one validator; each case is now a
# whole document that breaks such a rule at item k of 1,000
@pytest.mark.parametrize(
    "where, bad, later, message",
    [
        ("row", True, "x", lambda k: _candidate(0) + "coordinates must be integers, got True"),
        ("candidates", {"m": 2.0}, {"m": "x"},
         lambda k: _candidate(k) + "mult_m must be an integer, got 2.0"),
        ("candidates", {"t": 0}, {"t": "x"},
         lambda k: _candidate(k) + f"candidate 'c{k}' needs positive degree and multiplicity, "
         "got (0, 1)"),
        ("strata", {"closure_dim": 3}, {"closure_dim": "x"},
         lambda k: f"{SV}$.strata[{k}]: closure_dim must be at most 2, got 3"),
        ("strata", {"closure_dim": -1}, {"closure_dim": "x"},
         lambda k: f"{SV}$.strata[{k}]: closure_dim must be nonnegative, got -1"),
    ],
    ids=["bool", "float", "below_minimum", "above_maximum", "below_range"],
)
@pytest.mark.parametrize("k", [0, 417, 999])
def test_long_integer_array_reports_the_first_bad_index(where, bad, later, message, k):
    # a list of 1,000 rows or records is checked item by item in order,
    # so a failure names its first bad item, here ahead of a second one
    with pytest.raises(ModelError) as info:
        load_model(json.dumps(_thousand(where, k, bad, later)))
    assert str(info.value) == message(k)


@pytest.mark.parametrize(
    "where, bad, later, message",
    [
        ("candidates", {"label": 7}, {"label": None},
         lambda k: _candidate(k) + "label of a curve candidate must be a string, got 7"),
        ("strata", {"oracle_complete_below": "1a"}, {"oracle_complete_below": 2},
         lambda k: f"{SV}$.strata[{k}].oracle_complete_below: expected a rational string "
         'such as "3/2" or null, got "1a"'),
        ("candidates", {"label": ""}, {"label": None},
         lambda k: _candidate(k) + "a curve candidate needs a non-empty label"),
        ("generator_row", True, None,
         lambda k: f"{SV}$.blowup_gens.generic: coordinates must be integers, got True"),
        ("candidates", 5, None, lambda k: _candidate(k) + "expected an object, got 5"),
    ],
    ids=["string", "pattern", "label", "const", "of_type"],
)
@pytest.mark.parametrize("k", [0, 417, 999])
def test_long_leaf_array_reports_the_first_bad_index(where, bad, later, message, k):
    # the loader's own rules (a record's kind, a rational's syntax) and
    # the constructors' rules alike name the first bad item
    with pytest.raises(ModelError) as info:
        load_model(json.dumps(_thousand(where, k, bad, later)))
    assert str(info.value) == message(k)


class _Name(str):
    pass


class _Count(int):
    pass


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("name", _Name("f1"), "name of a model must be a string, got 'f1' of type _Name"),
        ("rank", _Count(2), SV + "$: rank must be an integer, got 2 of type _Count"),
        ("gram", ((1, 0), (0, -1)), SV + "$.gram: expected an array, got a value of type tuple"),
    ],
    ids=["str_subclass", "int_subclass", "tuple"],
)
def test_value_of_a_non_json_type_is_rejected(key, value, message):
    # labels, integers and containers are tested by their exact types;
    # json.loads never makes a subclass or a tuple, so only a document
    # built in Python has one
    doc = json.loads(f1_anticanonical().to_json())
    doc[key] = value
    with pytest.raises(ModelError) as info:
        model_from_document(doc)
    assert str(info.value) == message


def family_doc():
    # every member inline, so that a broken family fails on its own fault
    # and never on a missing model file
    return {
        "degree": 8,
        "members": [
            {"param_label": "t0", "model": json.loads(f1_anticanonical().to_json())},
            {"param_label": "t1", "model": json.loads(quadric(2, 2).to_json())},
        ],
        "member_specialization": [["t0", "t1"]],
    }


# (id, mutation of family_doc(), message)
FAMILY_CASES = [
    ("top_level_array", lambda d: [d], SV + "$: expected an object, got an array"),
    ("missing_members", drop("members"), SV + "$: missing required key 'members'"),
    ("unknown_key", put("alpha", "2"), SV + "$: unknown key 'alpha'"),
    ("degree_minimum", put("degree", 0), "degree must be positive, got 0"),
    ("degree_float", put("degree", 8.0), "degree must be an integer, got 8.0"),
    ("members_empty", put("members", []), "a family needs at least one member"),
    ("member_not_object", put("members", 1, "t1"), SV + '$.members[1]: expected an object, got "t1"'),
    ("member_missing", drop("members", 0, "model"), SV + "$.members[0]: missing required key 'model'"),
    ("member_unknown", put("members", 0, "weight", 1), SV + "$.members[0]: unknown key 'weight'"),
    ("param_label", put("members", 1, "param_label", ""), "a family member needs a non-empty label"),
    ("model_type", put("members", 0, "model", 5),
     SV + "$.members[0].model: expected a model object or a file path, got 5"),
    ("specialization_type", put("member_specialization", {}),
     SV + "$.member_specialization: expected an array, got an object"),
    ("pair_too_long", put("member_specialization", 0, ["t0", "t1", "t0"]),
     "a member specialization is a (general, special) pair, got ['t0', 't1', 't0']"),
    ("pair_too_short", put("member_specialization", 0, ["t0"]),
     "a member specialization is a (general, special) pair, got ['t0']"),
    ("pair_entry", put("member_specialization", 0, 1, 1),
     "entry of a member specialization must be a string, got 1"),
    ("empty_pair_entry", put("member_specialization", 0, 0, ""),
     "a member specialization needs a non-empty entry"),
    ("pair_unknown_member", put("member_specialization", 0, 1, "ghost"),
     "specialization ('t0', 'ghost') references unknown members"),
]


@pytest.mark.parametrize(
    "mutate, message", [case[1:] for case in FAMILY_CASES], ids=[case[0] for case in FAMILY_CASES]
)
def test_malformed_family_rejected_with_path(mutate, message):
    with pytest.raises(FamilyError) as info:
        load_family(json.dumps(mutate(family_doc())))
    assert str(info.value) == message


@pytest.mark.parametrize("load, error", [(load_model, ModelError), (load_family, FamilyError)])
def test_invalid_json_rejected(load, error):
    with pytest.raises(error, match="^invalid JSON: "):
        load("{")


def test_nesting_past_the_recursion_limit_is_invalid_json(tmp_path, capsys):
    # json.loads raises RecursionError here, which escaped each loader
    deep = "[" * 100_000 + "]" * 100_000
    with pytest.raises(ModelError, match="^invalid JSON: "):
        load_model(deep)
    with pytest.raises(FamilyError, match="^invalid JSON: "):
        load_family('{"degree": 8, "members": ' + deep + "}")
    (tmp_path / "deep.json").write_text(deep)
    doc = {"degree": 8, "members": [{"param_label": "t", "model": "deep.json"}]}
    with pytest.raises(FamilyError, match="^member 't': invalid JSON: "):
        load_family(json.dumps(doc), base_dir=str(tmp_path))
    assert main(["epsilon", str(tmp_path / "deep.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: invalid JSON: ") and err.count("\n") == 1


# 0 where the interpreter converts integers of any length
_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_digit_limit = pytest.mark.skipif(
    not _DIGIT_LIMIT, reason="this interpreter has no integer digit limit"
)


@needs_digit_limit
@pytest.mark.parametrize("load, error", [(load_model, ModelError), (load_family, FamilyError)])
def test_integer_past_the_digit_limit_is_invalid_json(load, error):
    # json.loads raises a plain ValueError here, not a JSONDecodeError
    with pytest.raises(error, match="^invalid JSON: "):
        load('{"degree": ' + "1" * (_DIGIT_LIMIT + 1) + "}")


@needs_digit_limit
def test_threshold_past_the_digit_limit_is_a_schema_violation():
    # the string matches the rational syntax; its conversion runs where a
    # constructor's error becomes a schema violation at the stratum's path
    doc = json.loads(f1_anticanonical().to_json())
    doc["strata"][0]["oracle_complete_below"] = "1" * max(5000, _DIGIT_LIMIT + 1)
    with pytest.raises(ModelError, match=r"^schema violation: \$\.strata\[0\]: "):
        load_model(json.dumps(doc))


# rational strings of the document and command-line syntax: leading
# zeros, zero, a sign, and a numerator or a denominator past the digit limit
_LONG = "1" * max(5000, _DIGIT_LIMIT + 1)
RATIONAL_TEXTS = ["4/02", "007", "0/5", "-3/2", _LONG, "1/" + _LONG]


def _fraction_or_error(text):
    """Fraction(text), or the text of the ValueError it raises."""
    try:
        return Fraction(text)
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("text", RATIONAL_TEXTS,
                         ids=["zero_padded_denominator", "zero_padded", "zero", "negative",
                              "long_numerator", "long_denominator"])
def test_a_rational_string_reads_as_fraction_reads_it(text):
    # each string is parsed once, from its integer parts, to the value or
    # the error that Fraction's own parse of the same string gives
    expected = _fraction_or_error(text)
    try:
        parsed = parse_rational(text)
    except ValueError as exc:
        parsed = str(exc)
    assert parsed == expected and type(parsed) is type(expected)
    doc = json.loads(f1_anticanonical().to_json())
    doc["strata"][0]["oracle_complete_below"] = text
    if isinstance(expected, Fraction) and expected > 0:
        ocb = load_model(json.dumps(doc)).strata[0].oracle_complete_below
        assert ocb == expected and type(ocb) is Fraction
    else:
        if isinstance(expected, Fraction):
            expected = f"completeness threshold must be positive, got {expected}"
        with pytest.raises(ModelError) as raised:
            load_model(json.dumps(doc))
        assert str(raised.value) == "schema violation: $.strata[0]: " + expected


def _model_order(doc, label, pairs):
    """Relabel stratum 1 and declare `pairs` (general, special) as the
    strata's order."""
    doc["strata"][1]["label"] = label
    for stratum in doc["strata"]:
        stratum["specializes_from"] = [g for g, s in pairs if s == stratum["label"]]


def _family_order(doc, label, pairs):
    """Relabel member 1 and declare `pairs` as the members' order."""
    doc["members"][1]["param_label"] = label
    doc["member_specialization"] = [list(pair) for pair in pairs]


# (loader, document, error, noun, nouns, order, labels of items 0 and 1):
# the two specialization orders, of a model's strata and a family's members
ORDERS = [
    (load_model, lambda: json.loads(f1_anticanonical().to_json()), ModelError,
     "stratum", "strata", _model_order, ("generic", "on_E")),
    (load_family, family_doc, FamilyError, "member", "members", _family_order, ("t0", "t1")),
]

# (id, label of item 1, pairs, message) on the symbolic labels a and b of
# items 0 and 1: one message per fault, with the nouns left to fill in
ORDER_FAULTS = [
    ("duplicate", "a", [], "{noun} labels are not distinct"),
    ("unknown", "b", [("ghost", "b")], "specialization ('ghost', {b!r}) references unknown {nouns}"),
    ("two_cycle", "b", [("a", "b"), ("b", "a")],
     "cyclic specialization relation: [{a!r}, {b!r}, {a!r}]"),
    ("self_loop", "b", [("b", "b")], "cyclic specialization relation: [{b!r}, {b!r}]"),
]


@pytest.mark.parametrize(
    "label, pairs, message", [case[1:] for case in ORDER_FAULTS],
    ids=[case[0] for case in ORDER_FAULTS],
)
@pytest.mark.parametrize("load, document, error, noun, nouns, order, labels", ORDERS,
                         ids=["model", "family"])
def test_both_orders_give_one_message_per_fault(
    load, document, error, noun, nouns, order, labels, label, pairs, message
):
    a, b = labels
    name = {"a": a, "b": b}.get
    doc = document()
    order(doc, name(label), [(name(g, g), name(s, s)) for g, s in pairs])
    with pytest.raises(error) as info:
        load(json.dumps(doc))
    assert str(info.value) == message.format(noun=noun, nouns=nouns, a=a, b=b)


def _with_nulls():
    # f1_anticanonical with a bare candidate class and no threshold, so
    # that the null branches of the nullable fields are mutated too
    doc = json.loads(f1_anticanonical().to_json())
    doc["strata"][1]["candidates"][0]["class"] = None
    doc["strata"][1]["oracle_complete_below"] = None
    return doc


# (loader, valid document) pairs
VALID_DOCUMENTS = [(load_model, json.loads(m.to_json())) for m in builtin_suite()] + [
    (load_model, _with_nulls()),
    (load_family, family_doc()),
    (load_family, {k: v for k, v in family_doc().items() if k != "member_specialization"}),
]


def _family_document(family, like):
    """The family as a document, with a `member_specialization` key when
    `like` has one."""
    doc = {
        "degree": family.degree,
        "members": [
            {"param_label": label, "model": model.to_document()} for label, model in family.members
        ],
    }
    if "member_specialization" in like:
        doc["member_specialization"] = [list(pair) for pair in family.member_specialization]
    return doc


def _document(load, loaded, like) -> str:
    """The JSON text of a loaded model or family, which tells 1 from 1.0
    and from true, where == does not."""
    return json.dumps(loaded.to_document() if load is load_model else _family_document(loaded, like))


def _keys_reversed(value):
    """The document with the keys of every object in reverse order."""
    if isinstance(value, dict):
        return {key: _keys_reversed(value[key]) for key in reversed(list(value))}
    if isinstance(value, list):
        return [_keys_reversed(item) for item in value]
    return value


def test_column_accepts_every_valid_document():
    # every valid document loads, whatever the order of its keys, into
    # the object that the document in its own order loads into; the keys
    # of blowup_gens keep their input order, so the texts are compared
    # with sorted keys
    for load, doc in VALID_DOCUMENTS:
        expected = json.loads(_document(load, load(json.dumps(doc)), doc))
        loaded = json.loads(_document(load, load(json.dumps(_keys_reversed(doc))), doc))
        assert json.dumps(loaded, sort_keys=True) == json.dumps(expected, sort_keys=True)


def test_walk_finds_no_fault_in_a_valid_value():
    # the loader walks each valid document once and builds it unchanged
    for load, doc in VALID_DOCUMENTS:
        assert _document(load, load(json.dumps(doc)), doc) == json.dumps(doc)


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
    load, valid = draw(st.sampled_from(VALID_DOCUMENTS))
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
    return load, doc


@given(_mutated())
@settings(max_examples=600)
def test_a_mutated_document_is_rejected_or_loads_unchanged(mutated):
    # one-point mutations of valid documents: each is an input error of
    # the loader's own type, never a TypeError, KeyError or
    # AttributeError, or it loads into an object whose document is the
    # mutated one byte for byte, so that nothing was coerced
    load, doc = mutated
    try:
        loaded = load(json.dumps(doc))
    except (ModelError, FamilyError):
        return
    assert _document(load, loaded, doc) == json.dumps(doc)


def test_integral_float_is_an_input_error_not_a_crash(tmp_path, capsys):
    doc = json.loads(f1_anticanonical().to_json())
    doc["rank"] = 2.0
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    assert main(["epsilon", str(path)]) == 1
    assert capsys.readouterr().err == "error: schema violation: $: rank must be an integer, got 2.0\n"


def test_cli_import_does_not_load_jsonschema():
    code = "import sys, seshadri.cli; print('jsonschema' in sys.modules)"
    src = os.path.dirname(os.path.dirname(seshadri.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    ).stdout
    assert out.strip() == "False"
