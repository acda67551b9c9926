"""Exact Picard-lattice combinatorics for degree-1 del Pezzo surfaces.

The lattice is Z^{1,8} with the intersection pairing; its 240 classes
with D^2 = D.K = -1 are the exceptional curves.  The package enumerates
them, the E8 roots orthogonal to K, and the 1120 star configurations of
six curves, classifies order-3 Weyl elements by conjugacy class, and
turns the resulting combinatorics into replayable rationality and
minimality certificates.

`import dpone` is lazy: it loads no submodule.  Each name below, and
each submodule, is imported on its first access as `dpone.<name>`.
"""

from importlib import import_module

_EXPORTS = {
    "lattice": (
        "CANONICAL_CLASS", "DivisorClass", "LatticeIsometry", "divisor",
        "exceptional", "fixed_rank", "is_isometry", "pair", "simple_roots",
    ),
    "groups": ("GroupSpec", "TRIVIAL_GROUP", "group_closure"),
    "curves": (
        "ExceptionalCurve", "bertini_isometry", "curve_table", "s8_action",
    ),
    "weyl": (
        "CarterType3", "carter_type_order3", "element_order",
        "enumerate_roots", "is_root", "parse_element", "reflection",
        "representative_order3",
    ),
    "stars": (
        "ActionKind", "OverlappingStars", "PairType", "StarAction",
        "TrichotomyViolation", "classify_pair", "intersection_profile_census",
        "invariant_curves", "invariant_stars", "profile",
        "star_graph_automorphisms", "star_id", "star_table", "star_text",
        "trichotomy_census",
    ),
    "criteria": (
        "ActionSetup", "CertificateViolation", "MinimalityCertificate",
        "RationalityVerdict", "Verdict", "check_minimal_four_stars",
        "check_not_rational_carter", "check_not_rational_even",
        "check_not_rational_stars", "check_rational_triple",
        "check_rational_two_stars", "gamma_report", "rationality_report",
        "search_commuting_order3",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [name for names in _EXPORTS.values() for name in names]
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    if name in _OWNER:
        return getattr(import_module(f".{_OWNER[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
