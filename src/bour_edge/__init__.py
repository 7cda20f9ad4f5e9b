"""Singular helicoidal surfaces from their Bour-type representation.

Construct generic helicoidal n-type edges from a datum {U, h, m, signs, k},
compute and cross-validate their geometric invariants, classify their
singularities, and generate or invert isometric deformation families.
"""

import importlib

from ._version import __version__

# Each public name and the submodule it comes from. Names are imported on
# first use (PEP 562), so a command that needs no arrays never loads numpy.
_EXPORTS = {
    "bour": ("FundamentalForm", "Mesh", "SurfacePoint", "first_fundamental_form", "psi",
             "psi_jet_at_zero", "sample_mesh", "theta", "write_form_csv", "write_obj", "x_of_s",
             "z_of_s"),
    "cusps": ("CuspType", "PlaneCurveJet", "canonical_parameter", "classify_edge",
              "classify_edge_via_profile", "classify_plane_cusp", "reparam_invariance_check"),
    "deform": ("DeformationFamily", "IsomerSet", "deformation_family", "invariant_map",
               "invert_invariants", "isomers", "jacobian_det", "revolution_path"),
    "expr": ("SmoothFn", "parse_expr"),
    "invariants": ("InvariantReport", "beta", "beta_numeric", "compute_invariant_report",
                   "kappa_nu", "kappa_nu_numeric", "kappa_t", "kappa_t_numeric", "omega",
                   "omega_numeric"),
    "jets": ("Jet", "jet_divide_by_power", "jet_eval"),
    "natural": ("HelicoidalInput", "NaturalChart", "check_generic", "natural_coordinates",
                "roundtrip", "singular_set"),
    "profile": ("EdgeData", "ValidationReport", "check_star", "make_edge_data", "rho"),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *sorted(_ORIGIN)]


def __getattr__(name):
    if name in _EXPORTS:  # a submodule, as after an eager import
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_ORIGIN[name]}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
