"""Surface models: the model record and the JSON document shape and
loader for user-supplied abstract models.  The built-in models are in
`examples`.

A model bundles the intersection lattice, the polarization class, the
Euler-characteristic data, the point strata with their curve tables, and
per-stratum curve-generator sets on the one-point blow-up.  Built-ins
ship with correct generator lists and completeness thresholds; abstract
models carry their own responsibility for those assertions, and every
structural invariant that can be checked at load time is, the
evidence of each stratum included (see `SurfaceModel.stratum_table`).

A model keeps every class as an integer row: its polarization and its
candidates' classes on its lattice, its generator sets on the blow-up
layout of `extend_blowup` (its basis, then the exceptional class `Ex`).
It checks each row's length against its rank, plus one for a generator,
before it pairs the row.
"""

from __future__ import annotations

import json
import operator
import re
from collections import abc
from types import MappingProxyType
from typing import Optional, Tuple

from . import SCHEMA_VERSION
from .degree import RRData, minimal_M
from .engine import CurveCandidate, EngineError, PointStratum, compare, epsilon
from .lattice import CurveGeneratorSet, IntersectionLattice, LatticeError, integers
from .values import (
    RATIONAL_SYNTAX,
    Record,
    SeshadriValue,
    as_int,
    as_tuple,
    cut,
    format_rational,
    rational_of,
    require_label,
    set_field,
    shown,
    without_collection,
)

# fixed label of the exceptional class on the one-point blow-up lattice
EXCEPTIONAL_LABEL = "Ex"


class ModelError(ValueError):
    pass


class SurfaceModel(Record):
    """A polarized surface presented by lattice data.  A model is
    immutable: its fields are frozen and its blow-up generator sets are
    read-only, so what it computes from them (the generator tables, the
    nef points and the stratum table) is computed once and never goes
    stale; `values.replace` gives a new model with fresh ones.  Its
    `stratum_table`, built last, maps each stratum's label to its
    `epsilon`, in model order; building it raises the first clash
    `epsilon` meets, then the first stratum `compare` fails against the
    dense one or one it specializes from: no value rises on specializing."""

    _fields = (
        "name", "lattice", "polarization", "rr", "very_ample_multiplier", "strata", "blowup_gens"
    )
    # the data computed from the fields, which no comparison reads
    __slots__ = _fields + ("ceiling", "_generator_tables", "generic_stratum", "stratum_table")

    def __post_init__(self):
        lat, rr, blowup_gens = self.lattice, self.rr, self.blowup_gens
        for field, value, kind in (("lattice", lat, IntersectionLattice), ("rr", rr, RRData)):
            if not isinstance(value, kind):
                raise ModelError(f"{field} must be an {kind.__name__}, got {shown(value)}")
        if not isinstance(blowup_gens, abc.Mapping):
            raise ModelError(f"blowup_gens must be a mapping, got {shown(blowup_gens)}")
        L = integers(self.polarization, "coordinates")
        strata = as_tuple(self.strata, "strata", ModelError)
        for s in strata:
            if not isinstance(s, PointStratum):
                raise ModelError(f"an item of strata must be a PointStratum, got {shown(s)}")
        # read-only, so that no generator set gets past the checks below
        blowup_gens = MappingProxyType(dict(blowup_gens))
        for label, gens in blowup_gens.items():
            if not isinstance(gens, CurveGeneratorSet):
                raise ModelError(
                    f"blowup_gens[{label!r}] must be a CurveGeneratorSet, got {shown(gens)}"
                )
        as_int(self.very_ample_multiplier, "very_ample_multiplier", ModelError)
        set_field(self, "polarization", L)
        set_field(self, "strata", strata)
        set_field(self, "blowup_gens", blowup_gens)
        # every local value is at most sqrt(d): each test against it reads this
        set_field(self, "ceiling", SeshadriValue.sqrt(rr.d))

        # the checks of the whole model, which read its checked fields,
        # raise on the first violated invariant.  The strata's order is
        # checked by `check_specialization_order`, as a family's members'
        # is.
        require_label(self.name, "a model", ModelError, "name")
        if len(L) != lat.rank:  # map would pair a longer row on its first entries
            raise LatticeError(f"coordinate length {len(L)} differs from rank {lat.rank}")
        polarization = lat.covector(L)  # the candidate and generator checks read it too
        d = sum(map(operator.mul, polarization, L))
        if d != rr.d:
            raise ModelError(
                f"degree mismatch: polarization self-intersection is {cut(d)} "
                f"but rr.d is {cut(rr.d)}"
            )
        if self.very_ample_multiplier < 1:
            raise ModelError("very_ample_multiplier must be a positive integer")
        if EXCEPTIONAL_LABEL in lat.basis_labels:
            raise ModelError(
                f"basis label {EXCEPTIONAL_LABEL!r} is reserved for the blow-up class"
            )

        labels = [s.label for s in strata]
        pairs = [(general, s.label) for s in strata for general in s.specializes_from]
        check_specialization_order(labels, pairs, ModelError, "stratum", "strata")
        dense = [s.label for s in strata if s.closure_dim == 2]
        if len(dense) != 1:
            raise ModelError(
                f"exactly one dense (closure_dim = 2) stratum required, got {cut(dense or 'none')}"
            )
        set_field(self, "generic_stratum", strata[labels.index(dense[0])])

        tables = {}  # each blow-up generator set's table and nef point, keyed by stratum label
        for s in strata:
            _validate_stratum(self, s, polarization)
            gens = blowup_gens.get(s.label)
            if gens is not None:
                tables[s.label] = _generator_table(self, s.label, gens, polarization)
        for label in blowup_gens:
            if label not in labels:
                raise ModelError(f"blow-up generators given for unknown stratum {shown(label)}")
        set_field(self, "_generator_tables", tables)

        table = {s.label: epsilon(self, s) for s in strata}
        for s in strata:
            for general in (dense[0], *s.specializes_from):
                if compare(table[s.label], table[general]) == "fail":
                    raise EngineError(
                        f"stratum {shown(s.label)} has a value of at least "
                        f"{cut(table[s.label].lo.serialize())}, above the "
                        f"{'dense ' if general == dense[0] else ''}stratum {shown(general)} "
                        f"at most {cut(table[general].hi.serialize())}; the model's "
                        "tables are geometrically inconsistent"
                    )
        set_field(self, "stratum_table", MappingProxyType(table))

    def __reduce__(self):
        # the generator sets as a plain dict: a mappingproxy does not pickle
        *fields, blowup_gens = self._values()
        return type(self), (*fields, dict(blowup_gens))

    def __hash__(self):
        # the generator sets by their items, in any order, as == reads them:
        # a mappingproxy is not hashable
        *fields, blowup_gens = self._values()
        return hash((*fields, frozenset(blowup_gens.items())))

    def generator_table(self, label: str) -> Tuple[Tuple[int, int], ...]:
        """(pi^*L.C, Ex.C) for each blow-up generator C of the stratum, in
        the order of its set, as checked and computed at construction."""
        return self._generator_entry(label)[0]

    def nef_point(self, label: str) -> Optional[Tuple[int, int]]:
        """The nef threshold of the stratum's blow-up generator set, found
        as its table is built: the first listed entry (deg, e_mult) of
        least ratio with e_mult > 0, or None for the sqrt(d) ceiling if
        that ratio is above it or no generator meets the point."""
        return self._generator_entry(label)[1]

    def _generator_entry(self, label: str) -> tuple:
        if label in self._generator_tables:
            return self._generator_tables[label]
        name, stratum = shown(self.name), shown(self.stratum(label).label)  # unknown labels raise
        raise ModelError(f"model {name} has no blow-up generator set for stratum {stratum}")

    def stratum(self, label: str) -> PointStratum:
        for s in self.strata:
            if s.label == label:
                return s
        raise ModelError(f"model {shown(self.name)} has no stratum {shown(label)}")

    def to_document(self) -> dict:
        """The model as a document, in canonical field order; it
        round-trips byte-for-byte through to_json."""
        return {
            "schema_version": SCHEMA_VERSION,
            "name": self.name,
            "rank": self.lattice.rank,
            "gram": [list(row) for row in self.lattice.gram],
            "basis_labels": list(self.lattice.basis_labels),
            "polarization": list(self.polarization),
            "rr": {
                "d": self.rr.d,
                "c": self.rr.c,
                "c_prime": self.rr.c_prime,
                "vanishing_multiplier": self.rr.vanishing_multiplier,
            },
            "very_ample_multiplier": self.very_ample_multiplier,
            "strata": [
                {
                    "label": s.label,
                    "closure_dim": s.closure_dim,
                    "specializes_from": list(s.specializes_from),
                    "oracle_complete_below": (
                        None
                        if s.oracle_complete_below is None
                        else format_rational(s.oracle_complete_below)
                    ),
                    "candidates": [
                        {
                            "label": c.label,
                            "class": None if c.coords is None else list(c.coords),
                            "t": c.degree_t,
                            "m": c.mult_m,
                        }
                        for c in s.candidates
                    ],
                }
                for s in self.strata
            ],
            "blowup_gens": {
                label: [
                    {"label": gl, "class": list(row)}
                    for gl, row in zip(gens.labels, gens.rows)
                ]
                for label, gens in self.blowup_gens.items()
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_document(), indent=2) + "\n"


def check_specialization_order(labels: list, pairs: list, error: type, noun: str, nouns: str):
    """Raise `error` unless `labels`, the strata of a model or the
    members of a family, are distinct and the (general, special) `pairs`
    name known labels and form no cycle.  `noun` and `nouns` name one
    label and several in the message.  Pairs that all run forward in the
    listed order need no graph: that order is then a topological one."""
    position = {label: i for i, label in enumerate(labels)}
    if len(position) != len(labels):
        raise error(f"{noun} labels are not distinct")
    for general, special in pairs:
        if general not in position or special not in position:
            raise error(f"specialization {shown((general, special))} references unknown {nouns}")
    if all(position[general] < position[special] for general, special in pairs):
        return
    import graphlib  # only a cycle check needs it

    graph = {label: [] for label in labels}  # each label's general labels, in order
    for general, special in pairs:
        graph[special].append(general)
    try:
        graphlib.TopologicalSorter(graph).prepare()
    except graphlib.CycleError as exc:
        raise error(f"cyclic specialization relation: {shown(exc.args[1])}") from exc


def _validate_stratum(model: SurfaceModel, s: PointStratum, polarization: tuple) -> None:
    cap = None
    ocb = s.oracle_complete_below
    if ocb is not None:
        p, q, d = ocb.numerator, ocb.denominator, model.rr.d
        # the stratum checked that ocb > 0; a cap needs ocb < sqrt(d).
        # It is B = M*d with M a positive multiple of q, so no listed
        # degree up to q*d can pass it, and then it is not computed
        if model.ceiling._cmp_ratio(p, q) > 0 and any(c.degree_t > q * d for c in s.candidates):
            # keep certification honest: the table may not contain entries
            # of ratio <= ocb beyond the degree bound implied by ocb; the
            # bound says nothing about curves above the threshold
            cap = minimal_M(model.rr, ocb).B
    rank, v = model.lattice.rank, model.very_ample_multiplier
    for c in s.candidates:
        if c.coords is not None:
            # before the pairing: map stops at the shorter sequence, so a
            # longer row would be paired on its first entries alone
            if len(c.coords) != rank:
                raise _length_error("candidate", c.label, s.label, c.coords, rank)
            deg = sum(map(operator.mul, polarization, c.coords))
            if deg != c.degree_t:
                raise ModelError(
                    f"candidate {shown(c.label)}: declared degree {cut(c.degree_t)} differs "
                    f"from pairing {cut(deg)}"
                )
        if c.mult_m > v * c.degree_t:
            raise _multiplier_error("candidate", c.label, s.label, c.mult_m, v, c.degree_t)
        if (
            cap is not None
            and c.degree_t > cap
            and c.degree_t * q <= p * c.mult_m
        ):
            raise ModelError(
                f"candidate {shown(c.label)} has degree {cut(c.degree_t)} beyond the bound "
                f"{cut(cap)} implied by the completeness threshold {cut(ocb)}"
            )


def _length_error(what: str, label: str, stratum: str, row: tuple, rank: int) -> ModelError:
    return ModelError(
        f"{what} {shown(label)} of stratum {shown(stratum)}: coordinate length {len(row)} "
        f"differs from rank {rank}"
    )


def _multiplier_error(what: str, label: str, stratum: str, m: int, v: int, t: int) -> ModelError:
    # with vL very ample, a section of vL through the point that contains
    # no component of a curve meets it there in at least its multiplicity
    # m, so m <= v*t for every curve; the candidate superset rests on it
    return ModelError(
        f"{what} {shown(label)} of stratum {shown(stratum)}: multiplicity {cut(m)} exceeds "
        f"very_ample_multiplier {cut(v)} times degree {cut(t)}"
    )


def _generator_table(
    model: SurfaceModel, label: str, gens: CurveGeneratorSet, polarization: tuple
) -> Tuple[Tuple[Tuple[int, int], ...], Optional[Tuple[int, int]]]:
    """Check one stratum's blow-up generator set and return its table of
    (pi^*L.C, Ex.C) per generator C, given L's covector `polarization`,
    with its nef point, as `SurfaceModel.nef_point` states it.
    Each row, in order, is checked against the rank n + 1 of the layout
    of `extend_blowup`: pushforward first, then the Ex coordinate.  Then
    pi^*L.C = L.pi_*C (the projection formula) is the dot product of L's
    covector with the row's first n entries, and Ex.C is minus the row's
    last entry.  The very-ampleness rule e_mult <= v*deg gives deg > 0
    wherever e_mult > 0, so the nef point is a positive ratio."""
    rank = model.lattice.rank + 1
    v = model.very_ample_multiplier
    table, point = [], None
    for gl, row in zip(gens.labels, gens.rows):
        # before the pairing, which would read a short row's last entry as Ex
        if len(row) != rank:
            raise _length_error("blow-up generator", gl, label, row, rank)
        # map stops at the shorter covector, so the Ex coordinate is left out
        deg, e_mult = sum(map(operator.mul, polarization, row)), -row[-1]
        # the gate is L^2 > 0 and L.pi_*C > 0 for every generator C whose
        # pushforward (the row without its exceptional coordinate) is
        # nonzero; L^2 = rr.d >= 1 is checked above
        if deg <= 0 and any(row[:-1]):
            raise ModelError(
                f"blow-up generator {shown(gl)} of stratum {shown(label)}: degree {cut(deg)} "
                "fails the polarization's plausible-ampleness gate"
            )
        # this also rejects -k*Ex, which meets Ex in k > v*0
        if e_mult > v * deg:
            raise _multiplier_error("blow-up generator", gl, label, e_mult, v, deg)
        table.append((deg, e_mult))
        if e_mult > 0 and (point is None or deg * point[1] < point[0] * e_mult):
            point = deg, e_mult
    if point is not None and model.ceiling._cmp_ratio(*point) < 0:
        point = None  # above sqrt(d)
    return tuple(table), point


# ---------------------------------------------------------------------------
# JSON loading


_MODEL_KEYS = dict.fromkeys(
    (
        "schema_version", "name", "rank", "gram", "basis_labels", "polarization", "rr",
        "very_ample_multiplier", "strata", "blowup_gens",
    )
)
_RR_KEYS = dict.fromkeys(("d", "c", "c_prime", "vanishing_multiplier"))
_STRATUM_KEYS = dict.fromkeys(
    ("label", "closure_dim", "specializes_from", "oracle_complete_below", "candidates")
)
_CANDIDATE_KEYS = dict.fromkeys(("label", "class", "t", "m"))
_GENERATOR_KEYS = dict.fromkeys(("label", "class"))
_RATIONAL = re.compile(RATIONAL_SYNTAX).fullmatch


def _describe(value) -> str:
    """A JSON value as a message shows it: a scalar as JSON text, cut at 40
    characters, a container or another type by its kind."""
    kind = type(value)
    if kind not in (str, int, float, bool, type(None)):
        return {dict: "an object", list: "an array"}.get(kind, f"a value of type {kind.__name__}")
    return cut(json.dumps(value))


def violation(error: type, where: str, what) -> ValueError:
    """`error` for a document whose part at JSON path `where` is wrong:
    `what` is the reason, or the error a constructor raised on the part."""
    return error(f"schema violation: {where}: {what}")


def unexpected(error: type, where: str, want: str, value) -> ValueError:
    """`error` for a value at JSON path `where` that is not `want`."""
    return violation(error, where, f"expected {want}, got {_describe(value)}")


def _at(where: str, index) -> str:
    return where if index is None else f"{where}[{index}]"


def document_object(value, keys: dict, error: type, where: str, index=None, optional=()) -> dict:
    """`value`, checked to be a JSON object with every key of `keys`, any
    key of `optional` and no other key.  A missing key is reported
    first, then an unknown key in document order.  `value` is at JSON
    path `where`, or at item `index` of the array there: the path is
    written only for an error."""
    if type(value) is not dict:
        raise unexpected(error, _at(where, index), "an object", value)
    if value.keys() != keys.keys():
        for key in keys:
            if key not in value:
                raise violation(error, _at(where, index), f"missing required key {key!r}")
        for key in value:
            if key not in keys and key not in optional:
                raise violation(error, _at(where, index), f"unknown key {shown(key)}")
    return value


def parse_document(text: str, error: type):
    """The JSON value of `text`; text that is not JSON, or past the digit
    or the recursion limit, raises `error`: `invalid JSON: ...`."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise error(f"invalid JSON: {exc}") from exc


def document_array(value, error: type, where: str, index=None, key: str = "") -> list:
    """`value`, checked to be a JSON array, at a path as for
    `document_object`, or at its step `key`, such as ".class"."""
    if type(value) is not list:
        raise unexpected(error, _at(where, index) + key, "an array", value)
    return value


def _step(key) -> str:
    """The JSON path step to the value of `key` in an object."""
    plain = type(key) is str and key.isidentifier() and cut(key) == key
    return "." + key if plain else "[" + _describe(key) + "]"


def model_from_document(doc: dict, root: str = "$") -> SurfaceModel:
    """Build a model from its parsed document, checking it once.  The
    loader checks what no constructor sees: each object's keys, the kind
    of each container, `schema_version` and the syntax of a rational
    string.  Every other value goes to the constructors as it is, and an
    error a constructor raises on a part of the document (the lattice
    at `root`, `rr`, a stratum, a candidate, a generator set) is a
    schema violation at that part's JSON path; the model's own checks,
    its stratum table's too, keep their text.  `root` is the document's
    path, for a model inside a family."""
    document_object(doc, _MODEL_KEYS, ModelError, root)
    version = doc["schema_version"]
    if type(version) is not int or version != SCHEMA_VERSION:
        raise unexpected(ModelError, root + ".schema_version", str(SCHEMA_VERSION), version)
    where = root + ".gram"
    gram = document_array(doc["gram"], ModelError, where)
    for i, row in enumerate(gram):
        document_array(row, ModelError, where, i)
    basis_labels = document_array(doc["basis_labels"], ModelError, root + ".basis_labels")
    # one try, as for a stratum's candidates: the key check's error passes as it is
    where = root
    try:
        lattice = IntersectionLattice(doc["rank"], gram, basis_labels)
        where = root + ".rr"
        rr = RRData(**document_object(doc["rr"], _RR_KEYS, ModelError, where))
    except ModelError:
        raise
    except ValueError as exc:
        raise violation(ModelError, where, exc) from exc
    where = root + ".strata"
    strata = tuple(
        _stratum(sd, where, i)
        for i, sd in enumerate(document_array(doc["strata"], ModelError, where))
    )
    where = root + ".blowup_gens"
    gens_doc = doc["blowup_gens"]
    if type(gens_doc) is not dict:
        raise unexpected(ModelError, where, "an object", gens_doc)
    blowup_gens = {label: _generators(gd, where, label) for label, gd in gens_doc.items()}
    polarization = document_array(doc["polarization"], ModelError, root + ".polarization")
    try:
        return SurfaceModel(
            name=doc["name"],
            lattice=lattice,
            polarization=polarization,
            rr=rr,
            very_ample_multiplier=doc["very_ample_multiplier"],
            strata=strata,
            blowup_gens=blowup_gens,
        )
    except ModelError:
        raise
    except ValueError as exc:
        raise ModelError(str(exc)) from exc


def _stratum(sd, strata: str, i: int) -> PointStratum:
    """Build item i of the array at JSON path `strata`.  A shape check
    that passes is one condition: `document_object` and `document_array`
    run, and a JSON path is written, only to raise."""
    if type(sd) is not dict or sd.keys() != _STRATUM_KEYS.keys():
        document_object(sd, _STRATUM_KEYS, ModelError, strata, i)
    listed = sd["candidates"]
    if type(listed) is not list:
        document_array(listed, ModelError, f"{strata}[{i}].candidates")
    candidates = []
    # one try for the whole list: an error a candidate raises is a schema
    # violation at its index j, and the shape checks' errors pass as they are
    try:
        for j, cd in enumerate(listed):
            if type(cd) is not dict or cd.keys() != _CANDIDATE_KEYS.keys():
                document_object(cd, _CANDIDATE_KEYS, ModelError, f"{strata}[{i}].candidates", j)
            row = cd["class"]
            if row is not None and type(row) is not list:
                document_array(row, ModelError, f"{strata}[{i}].candidates", j, ".class")
            candidates.append(CurveCandidate(cd["label"], cd["t"], cd["m"], row))
    except ModelError:
        raise
    except ValueError as exc:
        raise violation(ModelError, f"{strata}[{i}].candidates[{j}]", exc) from exc
    ocb = sd["oracle_complete_below"]
    if ocb is not None and (type(ocb) is not str or _RATIONAL(ocb) is None):
        want = 'a rational string such as "3/2" or null'
        raise unexpected(ModelError, f"{strata}[{i}].oracle_complete_below", want, ocb)
    general = sd["specializes_from"]
    if type(general) is not list:
        document_array(general, ModelError, f"{strata}[{i}].specializes_from")
    # a numerator past the digit limit is a schema violation too
    try:
        return PointStratum(
            label=sd["label"],
            closure_dim=sd["closure_dim"],
            specializes_from=general,
            candidates=tuple(candidates),
            oracle_complete_below=None if ocb is None else rational_of(ocb),
        )
    except ValueError as exc:
        raise violation(ModelError, f"{strata}[{i}]", exc) from exc


def _generators(gen_list, gens: str, label) -> CurveGeneratorSet:
    """Build the generator set of stratum `label` in the object at JSON
    path `gens`, with shape checks as `_stratum`'s."""
    if type(gen_list) is not list:
        document_array(gen_list, ModelError, gens + _step(label))
    labels, rows = [], []
    for k, gd in enumerate(gen_list):
        if type(gd) is not dict or gd.keys() != _GENERATOR_KEYS.keys():
            document_object(gd, _GENERATOR_KEYS, ModelError, gens + _step(label), k)
        row = gd["class"]
        if type(row) is not list:
            document_array(row, ModelError, gens + _step(label), k, ".class")
        labels.append(gd["label"])
        rows.append(row)
    try:
        return CurveGeneratorSet(labels, rows)
    except ValueError as exc:
        raise violation(ModelError, gens + _step(label), exc) from exc


@without_collection
def load_model(text: str) -> SurfaceModel:
    """Parse and validate a model document, naming what failed; a value
    contradiction in its stratum table is raised too, as a ModelError."""
    return model_from_document(parse_document(text, ModelError))


def load_model_file(path) -> SurfaceModel:
    with open(path, "r", encoding="utf-8") as fh:
        return load_model(fh.read())
