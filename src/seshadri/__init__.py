"""Certified calculator for local and global Seshadri constants of
polarized surfaces presented by intersection-lattice data.

The exported names load lazily (PEP 562): `import seshadri` imports no
submodule, and the first access to a name imports the submodule that
defines it.  A command-line call thus pays only for its own layer.
"""

from importlib import import_module

__version__ = "0.1.0"

# version of the model and report documents; models.py reads it from here
SCHEMA_VERSION = 1

_EXPORTS = {
    "values": (
        "Rational", "SeshadriValue", "format_rational", "parse_rational",
    ),
    "lattice": (
        "CurveGeneratorSet", "IntersectionLattice", "LatticeError",
        "extend_blowup", "pair",
    ),
    "degree": (
        "BoundError", "DegreeBound", "RRData", "l_poly", "minimal_M", "multiplicity_target",
    ),
    "bounds": ("candidate_ratios", "mediant_bounds"),
    "engine": (
        "Certification", "CurveCandidate", "EngineError", "PointStratum", "SeshadriResult",
        "epsilon", "epsilon_via_curves", "epsilon_via_nef", "global_epsilon",
        "low_epsilon_strata", "sigma_local", "sublevel_set",
    ),
    "models": ("ModelError", "SurfaceModel", "load_model", "load_model_file"),
    "examples": ("builtin_suite", "f1_anticanonical", "projective_plane", "quadric"),
    "family": (
        "Family", "FamilyError", "FamilyScanReport", "load_family", "scan",
        "semicontinuity_check",
    ),
}

# exported name -> the submodule that defines it
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_SOURCE)


def __getattr__(name):
    try:
        module = _SOURCE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
