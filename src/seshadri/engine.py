"""Local and global Seshadri computations on a surface model.

A model presents each point as a finitely-described stratum: a table of
curve candidates (degree and multiplicity at a point of the stratum),
an optional completeness threshold for that table, and optionally a
curve-generator set on the one-point blow-up.  The two classical
characterizations of the local constant, the curve-ratio infimum and the
nef threshold on the blow-up, are computed independently.  Each result
is an exact interval around the value, and where both paths exist the
nef value must lie in the curve path's interval.

A stratum's value depends on the model and the stratum alone.  Each
model keeps its checked results in `SurfaceModel.stratum_table`, and the
global value, the supremum, the sublevel sets and the low-value strata
all read that one table.  The degree bound B = M*d of a threshold alpha
belongs to the report: `SeshadriResult.to_document` is given it.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .degree import DegreeBound
from .lattice import integers
from .values import (
    Rational,
    Record,
    SeshadriValue,
    as_int,
    as_rational,
    as_tuple,
    cut,
    format_rational,
    replace,
    require_label,
    set_field,
    shown,
)


class EngineError(ValueError):
    pass


class Certification(enum.Enum):
    EXACT_CERTIFIED = "exact_certified"
    LOWER_BOUND_ONLY = "lower_bound_only"
    UPPER_BOUND_ONLY = "upper_bound_only"


class CurveCandidate(Record):
    """A curve through a stratum's point: its polarization degree t and
    its multiplicity m at the point.  The ratio t/m is an upper bound for
    the local Seshadri constant there.  Its class, if known, is a row of
    integer coordinates: on the model lattice for a stratum's candidate,
    where the model checks its length and its degree, and on the blow-up
    lattice for the nef path's witness."""

    __slots__ = _fields = ("label", "degree_t", "mult_m", "coords")
    _defaults = {"coords": None}

    def __post_init__(self):
        label, degree_t, mult_m, coords = self.label, self.degree_t, self.mult_m, self.coords
        # in error order: the row goes to `integers`, then one condition per
        # rule, whose helper runs only where the condition fails, to raise
        if coords is not None:
            set_field(self, "coords", integers(coords, "coordinates"))
        if type(label) is not str or not label:
            require_label(label, "a curve candidate", EngineError)
        if type(degree_t) is not int:
            as_int(degree_t, "degree_t", EngineError)
        if type(mult_m) is not int:
            as_int(mult_m, "mult_m", EngineError)
        if degree_t < 1 or mult_m < 1:
            raise EngineError(
                f"candidate {shown(label)} needs positive degree and multiplicity, "
                f"got ({cut(degree_t)}, {cut(mult_m)})"
            )

    @property
    def ratio(self) -> Rational:
        return Fraction(self.degree_t, self.mult_m)


class PointStratum(Record):
    """A finite stand-in for a locally closed set of points sharing the
    same curve table.  specializes_from lists the strata whose closure
    contains this one."""

    __slots__ = _fields = (
        "label", "closure_dim", "specializes_from", "candidates", "oracle_complete_below"
    )
    _defaults = {"specializes_from": (), "candidates": (), "oracle_complete_below": None}

    def __post_init__(self):
        label = self.label
        require_label(label, "a point stratum", EngineError)
        specializes_from = as_tuple(self.specializes_from, "specializes_from", EngineError)
        for general in specializes_from:
            if type(general) is not str or not general:
                require_label(
                    general, f"stratum {shown(label)}", EngineError, "specializes_from entry"
                )
        candidates = as_tuple(self.candidates, "candidates", EngineError)
        for c in candidates:
            if not isinstance(c, CurveCandidate):
                raise EngineError(
                    f"an item of candidates must be a CurveCandidate, got {shown(c)}"
                )
        closure_dim = as_int(self.closure_dim, "closure_dim", EngineError)
        if closure_dim < 0:
            raise EngineError(f"closure_dim must be nonnegative, got {cut(closure_dim)}")
        if closure_dim > 2:
            raise EngineError(f"closure_dim must be at most 2, got {cut(closure_dim)}")
        ocb = self.oracle_complete_below
        if ocb is not None:
            ocb = as_rational(ocb, "completeness threshold", EngineError)
            if ocb.numerator <= 0:
                raise EngineError(f"completeness threshold must be positive, got {cut(ocb)}")
        set_field(self, "specializes_from", specializes_from)
        set_field(self, "candidates", candidates)
        set_field(self, "oracle_complete_below", ocb)


class SeshadriResult(Record):
    """The evidence on one value as an exact interval: lo <= value <= hi,
    with the curve that witnesses hi, if one does.

    `lo` is None when nothing is known above 0; `hi` never exceeds
    sqrt(d), and no curve witnesses the sqrt(d) ceiling of an open
    interval.  The certification label and the reported value derive
    from (lo, hi, witness) once, when the result is built, into
    `certification` and `value`, which no comparison, hash, repr or
    pickle reads: exact iff the interval is a point, a lower bound only
    (valued lo) when lo is known and no curve witnesses hi, and an upper
    bound (valued hi) otherwise; certified_above derives on each read."""

    _fields = ("hi", "lo", "witness", "warning", "attained_at")
    __slots__ = _fields + ("certification", "value")
    _defaults = {"lo": None, "witness": None, "warning": None, "attained_at": None}

    def __post_init__(self):
        lo, hi = self.lo, self.hi
        if lo == hi:
            certification = Certification.EXACT_CERTIFIED
        elif lo is not None and self.witness is None:
            certification = Certification.LOWER_BOUND_ONLY
        else:
            certification = Certification.UPPER_BOUND_ONLY
        set_field(self, "certification", certification)
        set_field(self, "value", lo if certification is Certification.LOWER_BOUND_ONLY else hi)

    @property
    def certified_above(self) -> Optional[Rational]:
        # lo < hi <= sqrt(d), so an open interval's lo is rational
        if self.lo is None or self.lo == self.hi:
            return None
        return self.lo.rational

    def to_document(self, bound: Optional[DegreeBound] = None) -> dict:
        """The result as a report entry; a given degree bound (the
        model's at the report's threshold) is listed as bound_used."""
        value = self.value
        doc = {
            "value": value.serialize(),
            "value_approx": value.approx(),
            "certification": self.certification.value,
            "witness": None,
        }
        if self.witness is not None:
            doc["witness"] = {
                "label": self.witness.label,
                "t": self.witness.degree_t,
                "m": self.witness.mult_m,
            }
        if bound is not None:
            doc["bound_used"] = {
                "a": format_rational(bound.a),
                "M": bound.M,
                "B": bound.B,
                "vanishing_multiplier": bound.vanishing_multiplier,
            }
        certified_above = self.certified_above
        if certified_above is not None:
            doc["certified_above"] = format_rational(certified_above)
        if self.warning is not None:
            doc["warning"] = self.warning
        if self.attained_at is not None:
            doc["attained_at"] = self.attained_at
        return doc


def compare(special: SeshadriResult, general: SeshadriResult) -> str:
    """Whether the evidence proves special <= general, as a `Verdict`'s
    status: "pass" if special's hi is at most general's lo, "fail" if
    special's lo is above general's hi, and "undetermined" otherwise."""
    if general.lo is not None and special.hi <= general.lo:
        return "pass"
    if special.lo is not None and special.lo > general.hi:
        return "fail"
    return "undetermined"


def _best_candidate(candidates: Sequence[CurveCandidate]) -> Optional[CurveCandidate]:
    """The candidate first in the witness order, or None.  This is the
    one statement of that order, which picks every reported witness:
    least t/m, then least t, then least label, the first listed on a
    full tie.  Ratios compare by cross-multiplying, with no Fraction
    built."""
    best = None
    for c in candidates:
        t, m = c.degree_t, c.mult_m
        if best is not None:
            lhs, rhs = t * best_m, best_t * m
            if lhs > rhs or lhs == rhs and (t > best_t or t == best_t and c.label >= best.label):
                continue
        best, best_t, best_m = c, t, m
    return best


def _witnessed(curve, lo, hi, ceiling) -> Optional[CurveCandidate]:
    """The witness rule: a curve at hi witnesses it unless hi is the ceiling of an open interval."""
    return curve if hi != ceiling or lo == hi else None


def epsilon_via_curves(model, stratum: PointStratum) -> SeshadriResult:
    """Local Seshadri constant at the stratum's point from its curve
    table, as an interval.

    The least listed ratio, capped by the model's sqrt(d) `ceiling`,
    bounds the value above, and its curve, if at hi, witnesses hi by
    `_witnessed`, whatever the table lists.  A table complete below its
    threshold `ocb` lists every curve of ratio < ocb, so the value is at
    least min(ocb, hi); the interval is a point exactly when ocb reaches hi.
    Each comparison is made in integers, by `_cmp_ratio`: t/m against
    the ceiling, and ocb against hi.
    """
    ceiling, ocb = model.ceiling, stratum.oracle_complete_below
    best = _best_candidate(stratum.candidates)
    if best is not None and ceiling._cmp_ratio(best.degree_t, best.mult_m) < 0:
        best = None  # above sqrt(d): no curve is at hi
    hi = ceiling if best is None else SeshadriValue.exact(best.ratio)
    lo = None
    if ocb is not None:
        lo = hi if hi._cmp_ratio(ocb.numerator, ocb.denominator) <= 0 else SeshadriValue.exact(ocb)
    warning = None
    if not stratum.candidates and ocb is None:
        warning = (
            f"stratum {stratum.label!r}: empty candidate table with no "
            "completeness assertion; only the sqrt(d) ceiling is known"
        )
    return SeshadriResult(hi=hi, lo=lo, witness=_witnessed(best, lo, hi, ceiling), warning=warning)


def epsilon_via_nef(model, stratum: PointStratum) -> SeshadriResult:
    """Local Seshadri constant as the nef threshold on the one-point
    blow-up: the largest s with (pullback of L) - s*E nonnegative against
    the declared curve generators, capped by the square constraint
    (pullback of L - s*E)^2 >= 0, i.e. s <= sqrt(d).  The value is the
    model's `nef_point`; its witness is the generator at that ratio first
    in `_best_candidate`'s order, with its row as its class."""
    label = stratum.label
    gens = model.blowup_gens.get(label)
    if gens is None:
        raise EngineError(f"no blow-up generator set for stratum {shown(label)}")
    point = model.nef_point(label)
    if point is None:
        return SeshadriResult(hi=model.ceiling, lo=model.ceiling)
    deg, e_mult = point
    value = SeshadriValue.exact(Fraction(deg, e_mult))
    # an entry at the point's ratio has t, m > 0: the load leaves t <= 0
    # only on the multiples k*Ex, k > 0, where m = -k
    rows = zip(gens.labels, gens.rows, model.generator_table(label))
    witness = _best_candidate(
        [CurveCandidate(gl, t, m, row) for gl, row, (t, m) in rows if t * e_mult == deg * m]
    )
    return SeshadriResult(hi=value, lo=value, witness=witness)


def epsilon(model, stratum: PointStratum) -> SeshadriResult:
    """Per-stratum value: the curve-path interval, one entry of the checked
    `SurfaceModel.stratum_table` that commands read.  Where blow-up data
    exists, the model's nef point above hi, or lo above it, is the error
    that `compare` finds against the nef result.  The point is checked in
    integers, and only a clash makes it a value, to word the error."""
    result = epsilon_via_curves(model, stratum)
    if stratum.label in model.blowup_gens:
        point = model.nef_point(stratum.label)
        lo, hi = result.lo, result.hi
        if point is None:
            # the sqrt(d) ceiling, at least hi and so at least lo
            clash = hi != model.ceiling
        else:
            clash = hi._cmp_ratio(*point) < 0 or (lo is not None and lo._cmp_ratio(*point) > 0)
        if clash:
            nef = model.ceiling if point is None else SeshadriValue.exact(Fraction(*point))
            raise EngineError(
                f"stratum {shown(stratum.label)}: curve path gives {cut(result.value.serialize())} "
                f"({result.certification.value}) but nef path gives {cut(nef.serialize())}"
            )
    return result


def global_epsilon(model) -> SeshadriResult:
    """The least local value over the strata: the interval [min lo, min
    hi], lo unknown if any stratum's is, with a witness of hi = min hi
    by `_witnessed`, as a stratum's.  The witness is the first in
    `_best_candidate`'s order of the tied strata's witnesses, taken by
    stratum label, and the least stratum label that holds it names the
    stratum attaining an upper or exact value; a lower bound is attained
    at the least label of lo = min lo.  So no part of the result depends
    on the order the strata are listed in."""
    results = model.stratum_table.items()
    los = [res.lo for _, res in results]
    lo, hi = None if None in los else min(los), min(res.hi for _, res in results)
    # labels are distinct, so the sort never compares two results
    tied = sorted((label, res) for label, res in results if res.hi == hi)
    witness = _best_candidate([res.witness for _, res in tied if res.witness is not None])
    label = tied[0][0] if witness is None else next(
        label for label, res in tied if res.witness is witness
    )
    result = SeshadriResult(
        hi=hi,
        lo=lo,
        witness=_witnessed(witness, lo, hi, model.ceiling),
        warning="; ".join(res.warning for _, res in results if res.warning) or None,
    )
    if result.certification is Certification.LOWER_BOUND_ONLY:
        label = min(label for label, res in results if res.lo == lo)
    return replace(result, attained_at=label)


def sublevel_set(model, a: Rational) -> List[str]:
    """Labels of strata with local constant <= a, read from the model's
    checked stratum table.  Every value must be exactly certified, and
    the set is then closed under specialization (the discrete shadow of
    Zariski closedness): the table rejects a special value above a
    general one."""
    a = as_rational(a, "a", EngineError)
    threshold = SeshadriValue.exact(a)
    selected = []
    for label, res in model.stratum_table.items():
        if res.certification is not Certification.EXACT_CERTIFIED:
            raise EngineError(
                f"stratum {shown(label)} is not exactly certified; "
                "sublevel sets require certified values"
            )
        if res.value <= threshold:
            selected.append(label)
    return selected


def sigma_local(model) -> SeshadriResult:
    """Supremum of the local constants over the model's points: the dense
    stratum's evidence, since every point specializes from a general one
    and the checked table holds no stratum that `compare` proves above it."""
    generic_label = model.generic_stratum.label
    return replace(model.stratum_table[generic_label], attained_at=generic_label)


def low_epsilon_strata(model, delta: Rational) -> List[Tuple[str, SeshadriValue]]:
    """Strata that `compare` proves at most 1 - delta, with their values.
    For a geometrically honest model these must all be zero-dimensional."""
    delta = as_rational(delta, "delta", EngineError)
    if delta <= 0:
        raise EngineError(f"delta must be positive, got {cut(delta)}")
    point = SeshadriValue.exact(Fraction(1) - delta)
    ceiling = SeshadriResult(hi=point, lo=point)
    return [
        (label, res.value)
        for label, res in model.stratum_table.items()
        if compare(res, ceiling) == "pass"
    ]
