"""Blow-up generator sets and candidate classes are integer coordinate
rows, on the model's blow-up layout and on the model lattice.  The rows
are checked with the messages that `pair(lattice, u, v)` raises for its
own rows, and the model's reads of them agree with `pair` on the full
Gram matrix."""

import json
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seshadri import lattice
from seshadri.engine import CurveCandidate, EngineError, PointStratum, epsilon_via_nef
from seshadri.examples import builtin_suite, f1_anticanonical, projective_plane
from seshadri.lattice import (
    CurveGeneratorSet,
    IntersectionLattice,
    LatticeError,
    extend_blowup,
    pair,
)
from seshadri.models import ModelError, load_model, model_from_document
from seshadri.values import replace

from conftest import generator

@given(
    st.integers(5, 10),
    st.integers(1, 4),
    st.lists(st.lists(generator, min_size=1, max_size=5), min_size=1, max_size=4),
)
# m = 3 > L.C = 2, so the document declares very_ample_multiplier 2
@example(5, 4, [[(1, [0, -1, -1, -1], 3)]])
@settings(max_examples=60)
def test_rows_match_the_classes_built_from_them(blown_up_plane, k, n, strata):
    doc = blown_up_plane(k, n, [[([a] + e[:n], m) for a, e, m in gens] for gens in strata])
    model = model_from_document(json.loads(json.dumps(doc)))
    text = model.to_json()
    assert text == json.dumps(doc, indent=2) + "\n" == load_model(text).to_json()
    ext = extend_blowup(model.lattice, "Ex")
    pullback = model.polarization + (0,)
    exceptional = (0,) * model.lattice.rank + (1,)  # Ex comes last
    for stratum in model.strata:
        for c in stratum.candidates:
            assert pair(model.lattice, model.polarization, c.coords) == c.degree_t
        gens = model.blowup_gens[stratum.label]
        assert model.generator_table(stratum.label) == tuple(
            (pair(ext, pullback, row), pair(ext, exceptional, row)) for row in gens.rows
        )
        witness = epsilon_via_nef(model, stratum).witness
        if witness is not None:
            row = gens.rows[gens.labels.index(witness.label)]
            assert witness.coords == row
            assert (pair(ext, pullback, row), pair(ext, exceptional, row)) == (
                witness.degree_t,
                witness.mult_m,
            )


def _exact(message):
    return f"^{re.escape(message)}$"


def _with_generic_generator(label, row):
    """f1_anticanonical with one more generator on its generic set, built
    in Python."""
    model = f1_anticanonical()
    gens = model.blowup_gens["generic"]
    gens = CurveGeneratorSet(labels=gens.labels + (label,), rows=gens.rows + (row,))
    return replace(model, blowup_gens={**model.blowup_gens, "generic": gens})


@pytest.mark.parametrize(
    "build, error, message",
    [
        # a row's length is the model's to check, against its blow-up layout
        (lambda: _with_generic_generator("a", (1, 0, -1, 0)), ModelError,
         "blow-up generator 'a' of stratum 'generic': coordinate length 4 differs from rank 3"),
        # H - E without its Ex entry would pair to (3 - 1, 1), a generator
        # of ratio 2 that the nef path would accept
        (lambda: _with_generic_generator("a", (1, -1)), ModelError,
         "blow-up generator 'a' of stratum 'generic': coordinate length 2 differs from rank 3"),
        (lambda: CurveGeneratorSet(labels=("z",), rows=((0, 0, 0),)), LatticeError,
         "generator 'z' is the zero class"),
        (lambda: CurveGeneratorSet(labels=("",), rows=((0, 0, 1),)), LatticeError,
         "a curve generator needs a non-empty label"),
        (lambda: CurveGeneratorSet(labels=("f",), rows=((0, 0, 1.5),)), LatticeError,
         "coordinates must be integers, got 1.5"),
        # every row is checked before any label, as every class was built
        # before its set
        (lambda: CurveGeneratorSet(labels=("", "x"), rows=((0, 0, 1), (0, 0.5))), LatticeError,
         "coordinates must be integers, got 0.5"),
        (lambda: CurveGeneratorSet(labels=("", "z"), rows=((0, 0, 1), (0, 0, 0))), LatticeError,
         "a curve generator needs a non-empty label"),
        (lambda: CurveGeneratorSet(labels=("a", "b"), rows=((0, 0, 1),)), LatticeError,
         "2 generator labels for 1 classes"),
    ],
    ids=["length", "short", "zero", "empty_label", "float", "rows_first", "labels_in_order",
         "count"],
)
def test_bad_generator_rows_raise_the_class_messages(build, error, message):
    with pytest.raises(error, match=_exact(message)):
        build()


# a row as (kind, entries), built afresh for each reader: entries that
# are not exact ints, zero rows, ranges, iterators and non-sequences
_entry = st.one_of(st.integers(-3, 3), st.sampled_from((1.0, -1.0, True, False, "1")))
_row_spec = st.one_of(
    st.tuples(st.sampled_from(("tuple", "list", "iterator")), st.lists(_entry, max_size=4)),
    st.tuples(st.sampled_from(("tuple", "list", "iterator")), st.lists(st.just(0), max_size=3)),
    st.tuples(st.just("range"), st.tuples(st.integers(-2, 2), st.integers(-2, 3))),
    st.tuples(st.sampled_from(("str", "none", "int")), st.just(())),
)
_label = st.one_of(st.sampled_from(("a", "b", "Ex", "")), st.none(), st.just(7), st.just(b"x"))


def _built(spec):
    kind, entries = spec
    return {
        "tuple": lambda: tuple(entries),
        "list": lambda: list(entries),
        "iterator": lambda: iter(list(entries)),
        "range": lambda: range(*entries),
        "str": lambda: "012",
        "none": lambda: None,
        "int": lambda: 5,
    }[kind]()


def _reference_generator_walk(labels, rows):
    """The rule of a generator set, written out as one ordered walk: every
    row must be a sequence of exact ints, read once; then each
    generator's label must be a non-empty str and its class not zero.
    Returns the checked (labels, rows), or raises the first error."""
    checked = []
    for row in rows:
        if row is None or isinstance(row, (int, str)):
            raise LatticeError(f"coordinates must be a sequence, got {row!r}")
        row = tuple(row)
        for v in row:
            if type(v) is not int:
                raise LatticeError(f"coordinates must be integers, got {v!r}")
        checked.append(row)
    for label, row in zip(labels, checked):
        if type(label) is not str:
            raise LatticeError(f"label of a curve generator must be a string, got {label!r}")
        if not label:
            raise LatticeError("a curve generator needs a non-empty label")
        if not any(row):
            raise LatticeError(f"generator {label!r} is the zero class")
    return tuple(labels), tuple(checked)


@given(st.lists(st.tuples(_label, _row_spec), max_size=5))
# a bad label before a bad row: the row's error comes first
@example([("", ("list", [0, 0, 1])), ("b", ("list", [1, 0, -1.0]))])
@example([("a", ("range", (0, 2))), ("b", ("iterator", [0, 0, 1]))])
@settings(max_examples=300)
def test_a_generator_set_raises_the_first_error_of_the_ordered_walk(generators):
    # bad rows and bad labels in random positions: the set raises the
    # error, type and text, of a walk that checks every row first and then
    # each label and class in order, and keeps what that walk returns
    labels = [label for label, _ in generators]
    rows = [_built(spec) for _, spec in generators]
    try:
        expected = _reference_generator_walk(labels, [_built(spec) for _, spec in generators])
    except LatticeError as error:
        with pytest.raises(LatticeError, match=_exact(str(error))) as raised:
            CurveGeneratorSet(labels=labels, rows=rows)
        assert type(raised.value) is LatticeError
    else:
        gens = CurveGeneratorSet(labels=labels, rows=rows)
        assert (gens.labels, gens.rows) == expected


@given(
    st.lists(st.integers(-(2**70), 2**70), max_size=6),
    st.integers(-5, 5),
    st.integers(-5, 9),
    st.sampled_from((1, 2, -1)),
)
def test_integers_returns_the_tuple_of_its_values(values, start, stop, step):
    # a tuple, a list, a range or an iterator of exact ints comes back as
    # the tuple of its values, read once
    for row in (tuple(values), list(values), iter(values)):
        got = lattice.integers(row, "coordinates")
        assert type(got) is tuple and got == tuple(values)
    assert lattice.integers(range(start, stop, step), "coordinates") == tuple(
        range(start, stop, step)
    )


@given(st.lists(st.one_of(st.sampled_from(("generic", "on_E", "")), st.none(), st.just(3)),
                max_size=5))
@example(["generic", ""])
def test_specializes_from_reports_its_first_bad_entry(entries):
    bad = next((e for e in entries if type(e) is not str or not e), "ok")
    if bad == "ok":
        stratum = PointStratum("s", 0, specializes_from=iter(entries))
        assert stratum.specializes_from == tuple(entries)
        return
    if type(bad) is str:
        message = "stratum 's' needs a non-empty specializes_from entry"
    else:
        message = f"specializes_from entry of stratum 's' must be a string, got {bad!r}"
    with pytest.raises(EngineError, match=_exact(message)):
        PointStratum("s", 0, specializes_from=entries)


@pytest.mark.parametrize(
    "row, message",
    [
        ([1, 0, -1, 0],
         "blow-up generator 'bad' of stratum 'generic': coordinate length 4 differs from rank 3"),
        # the short row of H - E, which would read as (2, 1)
        ([1, -1],
         "blow-up generator 'bad' of stratum 'generic': coordinate length 2 differs from rank 3"),
        ([0, 0, 0], "schema violation: $.blowup_gens.generic: generator 'bad' is the zero class"),
    ],
    ids=["length", "short", "zero"],
)
def test_bad_generator_rows_raise_the_class_messages_at_load(row, message):
    doc = json.loads(f1_anticanonical().to_json())
    doc["blowup_gens"]["generic"].append({"label": "bad", "class": row})
    with pytest.raises(ModelError, match=_exact(message)):
        load_model(json.dumps(doc))


def test_a_row_may_be_any_iterable_of_ints():
    # a row that is neither a tuple nor a list goes through as_tuple, and
    # the walk must not read a one-shot iterator twice
    gens = CurveGeneratorSet(labels=("a", "b"), rows=[iter([0, 0, 1]), range(0, 2)])
    assert gens.rows == ((0, 0, 1), (0, 1))


def test_index_coordinates_are_kept_as_ints():
    # like pair, a row keeps exact ints only: a bool is rejected, never
    # read as 0 or 1
    with pytest.raises(LatticeError, match=_exact("coordinates must be integers, got True")):
        CurveGeneratorSet(labels=("b",), rows=[[True, False, -1]])
    with pytest.raises(LatticeError, match=_exact("coordinates must be integers, got True")):
        CurveCandidate(label="c", degree_t=1, mult_m=1, coords=[True, 0])
    with pytest.raises(LatticeError, match=_exact("coordinates must be integers, got False")):
        pair(f1_anticanonical().lattice, (3, -1), (False, 1))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: replace(f1_anticanonical(), polarization=None),
         "coordinates must be a sequence, got None"),
        (lambda: replace(f1_anticanonical(), polarization=3),
         "coordinates must be a sequence, got 3"),
        (lambda: pair(f1_anticanonical().lattice, None, (1, 0)),
         "coordinates must be a sequence, got None"),
        (lambda: CurveCandidate("c", 1, 1, 5),
         "coordinates must be a sequence, got 5"),
        # a generator set's walk checks that each row is a sequence before
        # it reads the row's entries
        (lambda: CurveGeneratorSet(labels=("a",), rows=(None,)),
         "coordinates must be a sequence, got None"),
        (lambda: IntersectionLattice(1, (None,), ("H",)),
         "gram entries must be a sequence, got None"),
    ],
    ids=["polarization_none", "polarization_int", "pair", "candidate", "generator",
         "gram_row"],
)
def test_a_row_that_is_not_a_sequence_raises_a_lattice_error(build, message):
    with pytest.raises(LatticeError, match=_exact(message)):
        build()


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: IntersectionLattice(1, None, ("H",)), LatticeError,
         "gram must be a sequence, got None"),
        (lambda: IntersectionLattice(1, ((1,),), None), LatticeError,
         "basis_labels must be a sequence, got None"),
        (lambda: CurveGeneratorSet(labels=None, rows=((1,),)), LatticeError,
         "generator labels must be a sequence, got None"),
        (lambda: CurveGeneratorSet(labels=("a",), rows=None), LatticeError,
         "generator rows must be a sequence, got None"),
        (lambda: PointStratum("p", 0, (), None), EngineError,
         "candidates must be a sequence, got None"),
        (lambda: PointStratum("p", 0, None), EngineError,
         "specializes_from must be a sequence, got None"),
        (lambda: replace(f1_anticanonical(), strata=None), ModelError,
         "strata must be a sequence, got None"),
        # a long value is shown as the first 37 characters of its repr
        (lambda: replace(f1_anticanonical(), strata="x" * 100_000), ModelError,
         "strata must be a sequence, got '" + "x" * 36 + "..."),
        (lambda: replace(f1_anticanonical(), blowup_gens=None), ModelError,
         "blowup_gens must be a mapping, got None"),
        (lambda: replace(f1_anticanonical(), rr=None), ModelError,
         "rr must be an RRData, got None"),
        (lambda: replace(f1_anticanonical(), lattice=None), ModelError,
         "lattice must be an IntersectionLattice, got None"),
        # a str was read as its one-character labels: "HE" built ('H', 'E')
        (lambda: IntersectionLattice(2, ((1, 0), (0, -1)), "HE"), LatticeError,
         "basis_labels must be a sequence, got 'HE'"),
        (lambda: PointStratum("p", 0, specializes_from="generic"), EngineError,
         "specializes_from must be a sequence, got 'generic'"),
        # an item of the wrong kind raised a bare AttributeError
        (lambda: PointStratum("generic", 2, candidates=((1, 1),)), EngineError,
         "an item of candidates must be a CurveCandidate, got (1, 1)"),
        (lambda: replace(projective_plane(1), strata=(("generic", 2),)), ModelError,
         "an item of strata must be a PointStratum, got ('generic', 2)"),
        (lambda: replace(
            projective_plane(1), blowup_gens={"generic": ((0, 1), (1, -1))}), ModelError,
         "blowup_gens['generic'] must be a CurveGeneratorSet, got ((0, 1), (1, -1))"),
        # a set was read in arbitrary order, bytes as their byte values and
        # a mapping as its keys
        (lambda: CurveCandidate("E", 1, 1, {-1, 0}), LatticeError,
         f"coordinates must be a sequence, got {({-1, 0})!r}"),
        (lambda: CurveCandidate("E", 1, 1, b"\x00\x01"), LatticeError,
         "coordinates must be a sequence, got b'\\x00\\x01'"),
        (lambda: PointStratum("s", 0, specializes_from={"generic": 0}), EngineError,
         "specializes_from must be a sequence, got {'generic': 0}"),
        (lambda: replace(f1_anticanonical(), polarization={3: None, -1: None}),
         LatticeError, "coordinates must be a sequence, got {3: None, -1: None}"),
    ],
    ids=["gram", "basis_labels", "generator_labels", "generator_rows", "candidates",
         "specializes_from", "strata", "strata_long", "blowup_gens", "rr", "lattice",
         "basis_labels_str", "specializes_from_str", "candidate_item", "stratum_item",
         "generator_set_item", "set_row", "bytes_row", "mapping_labels", "mapping_row"],
)
def test_a_container_field_of_the_wrong_kind_raises_its_layers_error(build, error, message):
    # built in Python, past the loader's container checks, a field that
    # holds rows, labels or records raises its layer's error naming it
    with pytest.raises(error, match=_exact(message)):
        build()


def test_a_sequence_field_takes_tuples_lists_ranges_and_iterators():
    for row in ((0, 1), [0, 1], range(2), iter([0, 1]), (k for k in (0, 1))):
        assert CurveCandidate("E", 1, 1, row).coords == (0, 1)
    for labels in (("generic",), ["generic"], iter(["generic"])):
        assert PointStratum("s", 0, specializes_from=labels).specializes_from == ("generic",)


def _with_row(model, label, index, row):
    """The model with the class of candidate `index` of stratum `label`
    replaced by `row`, built in Python."""
    strata = tuple(
        s if s.label != label else replace(
            s,
            candidates=tuple(
                replace(c, coords=row) if i == index else c
                for i, c in enumerate(s.candidates)
            ),
        )
        for s in model.strata
    )
    return replace(model, strata=strata)


@pytest.mark.parametrize(
    "build, error, message",
    [
        # a row's length is the model's to check, against its lattice
        (lambda: _with_row(f1_anticanonical(), "generic", 0, (1, -1, 0)), ModelError,
         "candidate 'fiber' of stratum 'generic': coordinate length 3 differs from rank 2"),
        (lambda: CurveCandidate(label="c", degree_t=1, mult_m=1, coords=(1, 0.5)), LatticeError,
         "coordinates must be integers, got 0.5"),
    ],
    ids=["length", "float"],
)
def test_bad_candidate_coordinates_raise_the_class_messages(build, error, message):
    with pytest.raises(error, match=_exact(message)):
        build()


def test_candidate_coordinates_need_no_lattice():
    # a row is on the lattice of the model that lists the candidate, or
    # on the blow-up lattice for a nef witness; the candidate names none
    cand = CurveCandidate(label="c", degree_t=1, mult_m=1, coords=(1, 0))
    assert cand.coords == (1, 0)
    assert list(cand._fields) == ["label", "degree_t", "mult_m", "coords"]
    witness = epsilon_via_nef(f1_anticanonical(), f1_anticanonical().stratum("on_E")).witness
    assert len(witness.coords) == f1_anticanonical().lattice.rank + 1


def test_a_longer_row_is_not_paired_on_its_first_entries():
    # a row with a trailing 0 has the right degree on its first entries,
    # which a pairing that stops at the shorter sequence would accept:
    # f1's fiber as [1, -1, 0] pairs with L = (3, 1) to 3 - 1 = 2 = t.
    # A zero row of the same length would fail that pairing: its length
    # is still what is reported, as it is checked first
    for model in builtin_suite():
        rank = model.lattice.rank
        for s in model.strata:
            for i, c in enumerate(s.candidates):
                message = _exact(
                    f"candidate {c.label!r} of stratum {s.label!r}: "
                    f"coordinate length {rank + 1} differs from rank {rank}"
                )
                for row in (c.coords + (0,), (0,) * (rank + 1)):
                    with pytest.raises(ModelError, match=message):
                        _with_row(model, s.label, i, row)
