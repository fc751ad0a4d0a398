"""The built-in models: certified examples with correct curve tables,
generator lists and completeness thresholds.  `projective_plane(e)`,
`quadric(a, b)` and `f1_anticanonical()` are the surfaces; the invariant
suite (`checks`) runs over `builtin_suite()`.  Their documents are what
a user-supplied model looks like (`SurfaceModel.to_json`).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Tuple

from .degree import RRData
from .engine import CurveCandidate, PointStratum
from .lattice import CurveGeneratorSet, IntersectionLattice
from .models import EXCEPTIONAL_LABEL, ModelError, SurfaceModel
from .values import as_int, cut


_PLANE_CURVE_CAP = 3


def projective_plane(e: int = 1) -> SurfaceModel:
    """The plane with the degree-e polarization: rank-1 lattice, d = e^2.

    The curve table encodes which (degree, multiplicity) pairs are
    realizable by irreducible plane curves: the line, and degree-k curves
    with a point of multiplicity up to k-1 (multiplicity k would force a
    cone of lines, reducible for k >= 2).  That rule is the completeness
    basis of the table: no irreducible curve beats the line's ratio e.
    """
    as_int(e, "polarization degree e", ModelError)
    if e < 1:
        raise ModelError(f"polarization degree must be positive, got {cut(e)}")
    lat = IntersectionLattice(rank=1, gram=((1,),), basis_labels=("H",))
    candidates = [CurveCandidate("line", e, 1, (1,))]
    for k in range(2, _PLANE_CURVE_CAP + 1):
        for m in range(1, k):
            candidates.append(CurveCandidate(f"deg{k}_mult{m}", e * k, m, (k,)))
    gens = CurveGeneratorSet(
        labels=(EXCEPTIONAL_LABEL, "H-Ex"),
        rows=((0, 1), (1, -1)),
    )
    return SurfaceModel(
        name=f"projective_plane({e})",
        lattice=lat,
        polarization=(e,),
        rr=RRData(d=e * e, c=3 * e, c_prime=1),
        very_ample_multiplier=1,
        strata=(
            PointStratum(
                label="generic",
                closure_dim=2,
                candidates=tuple(candidates),
                oracle_complete_below=Fraction(e),
            ),
        ),
        blowup_gens={"generic": gens},
    )


def quadric(a: int = 1, b: int = 1) -> SurfaceModel:
    """The smooth quadric (product of two lines) with the (a, b)
    polarization: hyperbolic rank-2 lattice, d = 2ab.  The local constant
    is min(a, b), cut out by the ruling of the larger degree."""
    as_int(a, "polarization bidegree a", ModelError)
    as_int(b, "polarization bidegree b", ModelError)
    if a < 1 or b < 1:
        raise ModelError(f"polarization bidegree must be positive, got ({cut(a)}, {cut(b)})")
    lat = IntersectionLattice(rank=2, gram=((0, 1), (1, 0)), basis_labels=("f1", "f2"))
    candidates = (
        # the f1 ruling meets L = a*f1 + b*f2 in b, the f2 ruling in a
        CurveCandidate("ruling_f1", b, 1, (1, 0)),
        CurveCandidate("ruling_f2", a, 1, (0, 1)),
        CurveCandidate("diagonal", a + b, 1, (1, 1)),
    )
    gens = CurveGeneratorSet(
        labels=(EXCEPTIONAL_LABEL, "f1-Ex", "f2-Ex"),
        rows=((0, 0, 1), (1, 0, -1), (0, 1, -1)),
    )
    return SurfaceModel(
        name=f"quadric({a},{b})",
        lattice=lat,
        polarization=(a, b),
        rr=RRData(d=2 * a * b, c=2 * a + 2 * b, c_prime=1),
        very_ample_multiplier=1,
        strata=(
            PointStratum(
                label="generic",
                closure_dim=2,
                candidates=candidates,
                oracle_complete_below=Fraction(min(a, b)),
            ),
        ),
        blowup_gens={"generic": gens},
    )


def f1_anticanonical() -> SurfaceModel:
    """The one-point blow-up of the plane with its anticanonical
    polarization 3H - E, d = 8.  The local constant is 2 at a general
    point (cut out by the fiber H - E) and drops to 1 on the exceptional
    curve E, which gives the two-stratum structure."""
    lat = IntersectionLattice(rank=2, gram=((1, 0), (0, -1)), basis_labels=("H", "E"))
    generic_candidates = (
        CurveCandidate("fiber", 2, 1, (1, -1)),  # H - E
        CurveCandidate("line", 3, 1, (1, 0)),  # H
        CurveCandidate("conic_node", 5, 2, (2, -1)),  # 2H - E
    )
    on_E_candidates = (
        CurveCandidate("E", 1, 1, (0, 1)),
        CurveCandidate("fiber", 2, 1, (1, -1)),
        CurveCandidate("line", 3, 1, (1, 0)),
    )
    generic_gens = CurveGeneratorSet(
        labels=(EXCEPTIONAL_LABEL, "E", "H-E-Ex"),
        rows=((0, 0, 1), (0, 1, 0), (1, -1, -1)),
    )
    on_E_gens = CurveGeneratorSet(
        labels=(EXCEPTIONAL_LABEL, "E-Ex", "H-E-Ex"),
        rows=((0, 0, 1), (0, 1, -1), (1, -1, -1)),
    )
    return SurfaceModel(
        name="f1_anticanonical",
        lattice=lat,
        polarization=(3, -1),  # 3H - E
        rr=RRData(d=8, c=8, c_prime=1),
        very_ample_multiplier=1,
        strata=(
            PointStratum(
                label="generic",
                closure_dim=2,
                candidates=generic_candidates,
                oracle_complete_below=Fraction(2),
            ),
            PointStratum(
                label="on_E",
                closure_dim=1,
                specializes_from=("generic",),
                candidates=on_E_candidates,
                oracle_complete_below=Fraction(2),
            ),
        ),
        blowup_gens={"generic": generic_gens, "on_E": on_E_gens},
    )


def builtin_suite() -> Tuple[SurfaceModel, ...]:
    """The models every suite-wide invariant is checked against."""
    return (
        projective_plane(1),
        projective_plane(2),
        quadric(1, 1),
        quadric(2, 2),
        f1_anticanonical(),
    )
