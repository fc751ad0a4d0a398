"""Certified calculator for local and global Seshadri constants of
polarized surfaces presented by intersection-lattice data."""

__version__ = "0.1.0"

from .values import Rational, SeshadriValue, format_rational, parse_rational
from .lattice import (
    CurveGeneratorSet,
    DivisorClass,
    IntersectionLattice,
    LatticeError,
    extend_blowup,
    pair,
)
from .bounds import (
    BoundError,
    DegreeBound,
    RRData,
    candidate_pairs,
    candidate_ratios,
    l_poly,
    mediant_bounds,
    minimal_M,
    multiplicity_target,
)
from .engine import (
    Certification,
    CurveCandidate,
    EngineError,
    PointStratum,
    SeshadriResult,
    epsilon,
    epsilon_via_curves,
    epsilon_via_nef,
    global_epsilon,
    low_epsilon_strata,
    sigma_local,
    sublevel_set,
)
from .models import (
    ModelError,
    SurfaceModel,
    builtin,
    builtin_suite,
    f1_anticanonical,
    load_model,
    load_model_file,
    projective_plane,
    quadric,
)
from .family import (
    Family,
    FamilyError,
    FamilyScanReport,
    load_family,
    scan,
    semicontinuity_check,
)
