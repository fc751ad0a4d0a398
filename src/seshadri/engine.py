"""Local and global Seshadri computations on a surface model.

A model presents each point as a finitely-described stratum: a table of
curve candidates (degree and multiplicity at a point of the stratum),
an optional completeness threshold for that table, and optionally a
curve-generator set on the one-point blow-up.  The two classical
characterizations of the local constant, the curve-ratio infimum and the
nef threshold on the blow-up, are computed independently and can be
cross-checked against each other.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .bounds import DegreeBound, minimal_M
from .lattice import DivisorClass, pair
from .values import Rational, SeshadriValue, cmp_value


class EngineError(ValueError):
    pass


class Certification(enum.Enum):
    EXACT_CERTIFIED = "exact_certified"
    LOWER_BOUND_ONLY = "lower_bound_only"
    UPPER_BOUND_ONLY = "upper_bound_only"


@dataclass(frozen=True)
class CurveCandidate:
    """A curve through a stratum's point: its polarization degree t and
    its multiplicity m at the point.  The ratio t/m is an upper bound for
    the local Seshadri constant there."""

    label: str
    degree_t: int
    mult_m: int
    curve_class: Optional[DivisorClass] = None

    def __post_init__(self):
        if self.degree_t < 1 or self.mult_m < 1:
            raise EngineError(
                f"candidate {self.label!r} needs positive degree and multiplicity, "
                f"got ({self.degree_t}, {self.mult_m})"
            )

    @property
    def ratio(self) -> Rational:
        return Fraction(self.degree_t, self.mult_m)


@dataclass(frozen=True)
class PointStratum:
    """A finite stand-in for a locally closed set of points sharing the
    same curve table.  specializes_from lists the strata whose closure
    contains this one."""

    label: str
    closure_dim: int
    specializes_from: Tuple[str, ...] = ()
    candidates: Tuple[CurveCandidate, ...] = ()
    oracle_complete_below: Optional[Rational] = None

    def __post_init__(self):
        object.__setattr__(self, "specializes_from", tuple(self.specializes_from))
        object.__setattr__(self, "candidates", tuple(self.candidates))
        if self.closure_dim < 0:
            raise EngineError(f"closure_dim must be nonnegative, got {self.closure_dim}")


@dataclass(frozen=True)
class SeshadriResult:
    value: SeshadriValue
    witness: Optional[CurveCandidate] = None
    certification: Certification = Certification.UPPER_BOUND_ONLY
    bound_used: Optional[DegreeBound] = None
    certified_above: Optional[Rational] = None
    warning: Optional[str] = None
    attained_at: Optional[str] = None

    def to_document(self) -> dict:
        doc = {
            "value": self.value.serialize(),
            "value_approx": self.value.approx(),
            "certification": self.certification.value,
            "witness": None,
        }
        if self.witness is not None:
            doc["witness"] = {
                "label": self.witness.label,
                "t": self.witness.degree_t,
                "m": self.witness.mult_m,
            }
        if self.bound_used is not None:
            doc["bound_used"] = {
                "a": str(self.bound_used.a),
                "M": self.bound_used.M,
                "B": self.bound_used.B,
                "vanishing_multiplier": self.bound_used.vanishing_multiplier,
            }
        if self.certified_above is not None:
            doc["certified_above"] = str(self.certified_above)
        if self.warning is not None:
            doc["warning"] = self.warning
        if self.attained_at is not None:
            doc["attained_at"] = self.attained_at
        return doc


def _best_candidate(candidates: Sequence[CurveCandidate]) -> Optional[CurveCandidate]:
    # deterministic witness: smallest ratio, then smallest degree, then
    # label; ratios compare by cross-multiplying, with no Fraction built
    best = None
    for c in candidates:
        if best is None:
            best = c
            continue
        lhs, rhs = c.degree_t * best.mult_m, best.degree_t * c.mult_m
        if lhs < rhs or (
            lhs == rhs and (c.degree_t, c.label) < (best.degree_t, best.label)
        ):
            best = c
    return best


def epsilon_via_curves(
    model, stratum: PointStratum, alpha: Optional[Rational] = None
) -> SeshadriResult:
    """Local Seshadri constant at the stratum's point from its curve
    table, as the minimum listed ratio capped by sqrt(d).

    Certification depends on the table's declared completeness threshold:
    the minimum is exact when the table is complete below the reported
    value (or below sqrt(d) when the cap binds).  An incomplete table
    yields an upper bound; an empty table with a completeness threshold
    yields the certified lower bound instead.
    """
    d = model.rr.d
    sqrt_d = SeshadriValue.sqrt(d)
    ocb = stratum.oracle_complete_below
    best = _best_candidate(stratum.candidates)

    bound_used = None
    if alpha is not None and alpha > 0 and alpha * alpha < d:
        bound_used = minimal_M(model.rr, alpha)

    if best is None:
        if ocb is None:
            return SeshadriResult(
                value=sqrt_d,
                certification=Certification.UPPER_BOUND_ONLY,
                bound_used=bound_used,
                warning=f"stratum {stratum.label!r}: empty candidate table with no "
                "completeness assertion; only the sqrt(d) ceiling is known",
            )
        if ocb * ocb >= d:
            # complete past sqrt(d) with nothing listed: the ceiling binds
            return SeshadriResult(
                value=sqrt_d,
                certification=Certification.EXACT_CERTIFIED,
                bound_used=bound_used,
            )
        return SeshadriResult(
            value=SeshadriValue.exact(ocb),
            certification=Certification.LOWER_BOUND_ONLY,
            bound_used=bound_used,
            certified_above=ocb,
        )

    r_min = best.ratio
    exact_min = SeshadriValue.exact(r_min)
    if cmp_value(exact_min, sqrt_d) < 0:
        if ocb is not None and ocb >= r_min:
            return SeshadriResult(
                value=exact_min,
                witness=best,
                certification=Certification.EXACT_CERTIFIED,
                bound_used=bound_used,
            )
        return SeshadriResult(
            value=exact_min,
            witness=best,
            certification=Certification.UPPER_BOUND_ONLY,
            bound_used=bound_used,
            certified_above=ocb,
        )
    # the sqrt(d) cap binds; exact iff the table is complete below sqrt(d)
    if ocb is not None and ocb * ocb >= d:
        witness = best if exact_min == sqrt_d else None
        return SeshadriResult(
            value=sqrt_d,
            witness=witness,
            certification=Certification.EXACT_CERTIFIED,
            bound_used=bound_used,
        )
    return SeshadriResult(
        value=sqrt_d,
        certification=Certification.UPPER_BOUND_ONLY,
        bound_used=bound_used,
        certified_above=ocb,
    )


def epsilon_via_nef(model, stratum: PointStratum) -> SeshadriResult:
    """Local Seshadri constant as the nef threshold on the one-point
    blow-up: the largest s with (pullback of L) - s*E nonnegative against
    the declared curve generators, capped by the square constraint
    (pullback of L - s*E)^2 >= 0, i.e. s <= sqrt(d)."""
    gens = model.blowup_gens.get(stratum.label)
    if gens is None:
        raise EngineError(f"no blow-up generator set for stratum {stratum.label!r}")
    if not gens.completeness_assertion:
        raise EngineError(
            f"blow-up generators for stratum {stratum.label!r} lack a completeness assertion"
        )
    pullback, exceptional = model.pullback, model.exceptional
    d = model.rr.d
    # the running minimum as integers: ratio deg/e_mult, then degree,
    # then label; ratios compare by cross-multiplying and against sqrt(d)
    # by squaring, and only the winner becomes a Fraction
    best = None
    for label, cls in gens.generators:
        e_mult = pair(exceptional, cls)
        if e_mult <= 0:
            continue
        deg = pair(pullback, cls)
        if deg < 0:
            raise EngineError(
                f"generator {label!r} has negative polarization degree {deg}; "
                "polarization is not plausibly ample"
            )
        if deg * deg > d * e_mult * e_mult:
            continue  # above sqrt(d): the square constraint binds first
        if best is not None:
            best_deg, best_e_mult, best_label, _ = best
            lhs, rhs = deg * best_e_mult, best_deg * e_mult
            if lhs > rhs or (lhs == rhs and (deg, label) >= (best_deg, best_label)):
                continue
        best = (deg, e_mult, label, cls)
        if deg == 0:
            break  # ratio 0 is least; the witness below rejects it
    if best is None:
        return SeshadriResult(
            value=SeshadriValue.sqrt(d), certification=Certification.EXACT_CERTIFIED
        )
    deg, e_mult, label, cls = best
    return SeshadriResult(
        value=SeshadriValue.exact(Fraction(deg, e_mult)),
        witness=CurveCandidate(label=label, degree_t=deg, mult_m=e_mult, curve_class=cls),
        certification=Certification.EXACT_CERTIFIED,
    )


def cross_check(model, stratum: PointStratum) -> bool:
    """True iff the curve-table path and the blow-up nef path agree on
    this stratum's value."""
    via_curves = epsilon_via_curves(model, stratum)
    via_nef = epsilon_via_nef(model, stratum)
    return via_curves.value == via_nef.value


def _check_against_nef(model, stratum: PointStratum, result: SeshadriResult) -> None:
    """Raise unless the nef path's exact value lies where the curve-path
    result allows: equal to an exact value, at most an upper bound, and
    at least the table's certified_above threshold."""
    if stratum.label not in model.blowup_gens:
        return
    nef = epsilon_via_nef(model, stratum).value
    consistent = True
    if result.certification is Certification.EXACT_CERTIFIED:
        consistent = result.value == nef
    elif result.certification is Certification.UPPER_BOUND_ONLY:
        consistent = cmp_value(nef, result.value) <= 0
    above = result.certified_above
    if above is not None and cmp_value(nef, SeshadriValue.exact(above)) < 0:
        consistent = False
    if not consistent:
        raise EngineError(
            f"stratum {stratum.label!r}: curve path gives {result.value.serialize()} "
            f"({result.certification.value}) but nef path gives {nef.serialize()}"
        )


def epsilon(
    model, stratum: PointStratum, alpha: Optional[Rational] = None
) -> SeshadriResult:
    """Per-stratum value: the curve-path result, cross-checked against the
    nef path whenever blow-up data is available.  Evidence that
    contradicts at any certification level is an error."""
    result = epsilon_via_curves(model, stratum, alpha)
    _check_against_nef(model, stratum, result)
    return result


StratumTable = Dict[str, SeshadriResult]


def stratum_table(
    model,
    alpha: Optional[Rational] = None,
    strata: Optional[Sequence[PointStratum]] = None,
) -> StratumTable:
    """`epsilon` of every stratum of the model (or of `strata`, in that
    order), keyed by label: one curve-path call and at most one nef-path
    call per stratum, and the first contradiction met is raised."""
    if strata is None:
        strata = model.strata
    return {s.label: epsilon(model, s, alpha) for s in strata}


_CERT_RANK = {
    Certification.EXACT_CERTIFIED: 0,
    Certification.LOWER_BOUND_ONLY: 1,
    Certification.UPPER_BOUND_ONLY: 2,
}


def global_epsilon(
    model, alpha: Optional[Rational] = None, table: Optional[StratumTable] = None
) -> SeshadriResult:
    """Minimum of the per-stratum values; the infimum over points is a
    minimum, and the attaining stratum and witness are recorded.  A given
    `table` (the model's stratum_table at alpha) is read instead of
    evaluating the strata again."""
    if table is None:
        table = stratum_table(model, alpha)
    best: Optional[SeshadriResult] = None
    best_label = None
    worst_cert = Certification.EXACT_CERTIFIED
    warnings = []
    for stratum in model.strata:
        res = table[stratum.label]
        if _CERT_RANK[res.certification] > _CERT_RANK[worst_cert]:
            worst_cert = res.certification
        if res.warning:
            warnings.append(res.warning)
        if best is None or cmp_value(res.value, best.value) < 0:
            best, best_label = res, stratum.label
    assert best is not None, "models always have at least one stratum"
    return SeshadriResult(
        value=best.value,
        witness=best.witness,
        certification=worst_cert,
        bound_used=best.bound_used,
        certified_above=best.certified_above,
        warning="; ".join(warnings) or None,
        attained_at=best_label,
    )


def sublevel_set(model, a: Rational) -> List[str]:
    """Labels of strata with local constant <= a.  The returned set must
    be closed under specialization (the discrete shadow of Zariski
    closedness); a violation is a hard error naming the offending pair.
    Each value is then cross-checked against the nef path as in
    epsilon."""
    threshold = SeshadriValue.exact(a)
    results = []
    selected = []
    for stratum in model.strata:
        res = epsilon_via_curves(model, stratum)
        if res.certification is not Certification.EXACT_CERTIFIED:
            raise EngineError(
                f"stratum {stratum.label!r} is not exactly certified; "
                "sublevel sets require certified values"
            )
        results.append((stratum, res))
        if cmp_value(res.value, threshold) <= 0:
            selected.append(stratum.label)
    chosen = set(selected)
    for stratum in model.strata:
        for general in stratum.specializes_from:
            if general in chosen and stratum.label not in chosen:
                raise EngineError(
                    f"sublevel set at {a} is not closed under specialization: "
                    f"{general!r} is in the set but its specialization "
                    f"{stratum.label!r} is not"
                )
    for stratum, res in results:
        _check_against_nef(model, stratum, res)
    return selected


@dataclass(frozen=True)
class SigmaResult:
    value: SeshadriValue
    attained_at: str


def sigma_local(model, table: Optional[StratumTable] = None) -> SigmaResult:
    """Supremum of the local constants over the model's points, attained
    as a maximum.  The maximum must be attained on the unique dense
    stratum; that is checked, not assumed.  A given `table` (the model's
    stratum_table) is read instead of evaluating the strata again."""
    best: Optional[SeshadriValue] = None
    best_label = None
    generic_value = None
    generic_label = model.generic_stratum.label
    if table is None:
        table = stratum_table(model)
    for stratum in model.strata:
        res = table[stratum.label]
        if stratum.label == generic_label:
            generic_value = res.value
        if best is None or cmp_value(res.value, best) > 0 or (
            cmp_value(res.value, best) == 0 and stratum.label == generic_label
        ):
            best, best_label = res.value, stratum.label
    assert best is not None and generic_value is not None
    if best != generic_value:
        raise EngineError(
            f"supremum {best.serialize()} is attained on {best_label!r}, not on the "
            f"dense stratum {generic_label!r} (value {generic_value.serialize()}); "
            "the model's tables are geometrically inconsistent"
        )
    return SigmaResult(value=best, attained_at=generic_label)


def low_epsilon_strata(model, delta: Rational) -> List[Tuple[str, SeshadriValue]]:
    """Strata whose value is at most 1 - delta, with their values.  For a
    geometrically honest model these must all be zero-dimensional."""
    if delta <= 0:
        raise EngineError(f"delta must be positive, got {delta}")
    threshold = SeshadriValue.exact(Fraction(1) - delta)
    table = stratum_table(model)
    out = []
    for stratum in model.strata:
        res = table[stratum.label]
        if cmp_value(res.value, threshold) <= 0:
            out.append((stratum.label, res.value))
    return out
