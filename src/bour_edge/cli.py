"""Command-line front end.

Commands: validate, build, invariants, classify, deform, invert, isomers,
roundtrip, classify-curve. A datum comes from --datum JSON and/or inline
flags; flags override file fields. Exit codes: 0 success, 1 validation
failure (a report is still written), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import bour, cusps, quadrature  # none imports numpy until it builds arrays
from ._fmt import to_json17
from .errors import BourEdgeError, ExprSyntaxError
from .expr import parse_expr
from .profile import DATUM_FIELDS, DEFAULT_STAR_SAMPLES, datum_from_dict

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_USAGE = 2


class UsageError(Exception):
    pass


def make_parser():
    datum = argparse.ArgumentParser(add_help=False)
    datum.add_argument("--datum", help="path to a datum JSON file")
    datum.add_argument("--U", help="metric function expression in s (overrides file)")
    datum.add_argument("--h", type=float, help="pitch (overrides file)")
    datum.add_argument("--m", type=float, help="homothety parameter (overrides file)")
    datum.add_argument("--eps0", type=int, choices=(-1, 1))
    datum.add_argument("--eps1", type=int, choices=(-1, 1))
    datum.add_argument("--eps2", type=int, choices=(-1, 1))
    datum.add_argument("--k", type=int, help="edge order parameter (n = k+1)")
    datum.add_argument("--J", type=float, nargs=2, metavar=("LO", "HI"))
    datum.add_argument("--zero-tol", type=float, default=None,
                       help="tolerance for the vanishing-derivative checks (default 1e-9)")
    datum.add_argument("--samples", type=int, default=DEFAULT_STAR_SAMPLES,
                       help="grid density for the admissibility scan")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="output directory for artifacts")
    common.add_argument("--json", action="store_true", help="machine-readable errors on stderr")
    quad = argparse.ArgumentParser(add_help=False)
    quad.add_argument("--quad-tol", type=float, default=quadrature.DEFAULT_TOL)

    parser = argparse.ArgumentParser(prog="bour-edge",
                                     description="singular helicoidal surface toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help, *parents):
        p = sub.add_parser(name, help=help, parents=parents)
        p.set_defaults(handler=handler)
        return p

    command("validate", cmd_validate, "check datum admissibility", datum, common)

    p = command("build", cmd_build, "sample the surface and write OBJ/CSV", datum, common, quad)
    p.add_argument("--rows", type=int, default=60)
    p.add_argument("--cols", type=int, default=60)
    p.add_argument("--s-range", type=float, nargs=2, metavar=("LO", "HI"))
    p.add_argument("--t-range", type=float, nargs=2, metavar=("LO", "HI"))

    command("invariants", cmd_invariants, "invariant report (closed forms vs oracles)",
            datum, common)

    p = command("classify", cmd_classify, "edge type, with profile-curve cross-check",
                datum, common)
    p.add_argument("--tol", type=float, default=cusps.DEFAULT_TOL)

    p = command("deform", cmd_deform, "(h, m) validity grid with shared-metric checks",
                datum, common, quad)
    p.add_argument("--h-span", type=float, default=0.1)
    p.add_argument("--m-span", type=float, default=0.1)
    p.add_argument("--nh", type=int, default=5)
    p.add_argument("--nm", type=int, default=5)
    p.add_argument("--rows", type=int, default=40)
    p.add_argument("--cols", type=int, default=40)

    p = command("invert", cmd_invert, "recover (h, m) from target invariants", datum, common)
    p.add_argument("--target-kappa-nu", type=float, required=True)
    p.add_argument("--target-kappa-t", type=float, required=True)

    p = command("isomers", cmd_isomers, "the four sign variants and their shared invariants",
                datum, common, quad)
    p.add_argument("--rows", type=int, default=40)
    p.add_argument("--cols", type=int, default=40)

    p = command("roundtrip", cmd_roundtrip, "rebuild natural coordinates from the surface",
                datum, common, quad)
    p.add_argument("--s-probe", type=float, nargs=3, metavar=("LO", "HI", "N"),
                   help="probe range and count for the U comparison")

    p = command("classify-curve", cmd_classify_curve, "cusp type of a plane curve", common)
    p.add_argument("--expr-x", required=True)
    p.add_argument("--expr-y", required=True)
    p.add_argument("--base", type=float, default=0.0)
    p.add_argument("--tol", type=float, default=cusps.DEFAULT_TOL)
    return parser


def _datum_payload(args):
    payload = {}
    if args.datum:
        try:
            with open(args.datum) as fh:
                payload = json.load(fh)
        except FileNotFoundError as exc:
            raise UsageError(f"datum file not found: {args.datum}") from exc
        except json.JSONDecodeError as exc:
            raise UsageError(f"datum file is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise UsageError(f"datum file is not a JSON object: {args.datum}")
    # flags override file fields; the values are checked by make_edge_data
    payload.update((key, getattr(args, key)) for key in DATUM_FIELDS if getattr(args, key) is not None)
    missing = [key for key in DATUM_FIELDS if key not in payload]
    if missing:
        raise UsageError(f"datum is incomplete; missing fields: {', '.join(missing)}")
    return payload


def _build_datum(args):
    payload = _datum_payload(args)
    # parsed first, so a bad U is reported before any other bad field
    if not isinstance(payload["U"], str):
        raise UsageError(f"bad expression for U: {payload['U']!r} is not a string")
    try:
        payload["U"] = parse_expr(payload["U"])
    except ExprSyntaxError as exc:
        raise UsageError(f"bad expression for U: {exc}") from exc
    return datum_from_dict(payload, zero_tol=args.zero_tol, samples=args.samples)


def _emit(doc, args, filename=None):
    text = to_json17(doc) + "\n"
    sys.stdout.write(text)
    if args.out and filename:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, filename), "w") as fh:
            fh.write(text)


def _validation_failure_doc(exc):
    failures = getattr(exc, "failures", ())
    return {
        "star_ok": False,
        "error": type(exc).__name__,
        "message": str(exc),
        "failures": [[name, s, value] for name, s, value in failures],
    }


def cmd_validate(args):
    try:
        data = _build_datum(args)
    except BourEdgeError as exc:
        _emit(_validation_failure_doc(exc), args, "validation.json")
        return EXIT_VALIDATION
    # A built datum has passed the star scan; rho_min is that scan's.
    _emit({"star_ok": True, "rho_min": data._rho_min, "failures": []}, args, "validation.json")
    return EXIT_OK


def cmd_build(args):
    data = _build_datum(args)
    if not args.out:
        raise UsageError("build requires --out")
    mesh = bour.sample_mesh(
        data,
        s_range=tuple(args.s_range) if args.s_range else None,
        t_range=tuple(args.t_range) if args.t_range else None,
        rows=args.rows, cols=args.cols, tol=args.quad_tol,
    )
    os.makedirs(args.out, exist_ok=True)
    obj_path = os.path.join(args.out, "mesh.obj")
    bour.write_obj(mesh, obj_path)
    bour.write_form_csv(data, mesh.s_values, mesh.t_values[:: max(1, len(mesh.t_values) // 8)],
                        os.path.join(args.out, "forms.csv"))
    _emit({"mesh": obj_path, "rows": mesh.rows, "cols": mesh.cols,
           "singular_row": mesh.singular_row}, args)
    return EXIT_OK


def cmd_invariants(args):
    from . import invariants

    data = _build_datum(args)
    report = invariants.compute_invariant_report(data)
    _emit(invariants.report_to_dict(report), args, "invariants.json")
    return EXIT_OK


def cmd_classify(args):
    data = _build_datum(args)
    edge = cusps.classify_edge(data, args.tol)
    via = cusps.classify_edge_via_profile(data, args.tol)
    doc = edge.to_dict()
    doc["via_profile"] = via.to_dict()
    doc["agree"] = edge.tag == via.tag
    _emit(doc, args, "classification.json")
    return EXIT_OK


def cmd_deform(args):
    from . import deform

    data = _build_datum(args)
    family = deform.deformation_family(data, args.h_span, args.m_span, args.nh, args.nm)
    doc = {
        "members": [
            {"h": mem.h, "m": mem.m, "valid": mem.valid,
             "metric_deviation": mem.metric_deviation}
            for mem in family.members
        ],
    }
    if args.out:
        deform.export_family(family, args.out, rows=args.rows, cols=args.cols, tol=args.quad_tol)
    _emit(doc, args)
    return EXIT_OK


def cmd_invert(args):
    from . import deform

    data = _build_datum(args)
    result = deform.invert_invariants(data, (args.target_kappa_nu, args.target_kappa_t))
    doc = {"h": result.h, "m": result.m, "iterations": result.iterations,
           "residual": result.residual}
    _emit(doc, args, "inversion.json")
    if args.out:
        with open(os.path.join(args.out, "recovered_datum.json"), "w") as fh:
            fh.write(to_json17(result.data.to_dict()) + "\n")
    return EXIT_OK


def cmd_isomers(args):
    from . import deform

    data = _build_datum(args)
    iso = deform.isomers(data)
    doc = {
        "metric_deviation": iso.metric_deviation,
        "variants": [
            {"eps1": v.eps1, "eps2": v.eps2,
             "radius": hel.radius, "z_advance_per_angle": hel.z_advance_per_angle}
            for v, hel in zip(iso.variants, iso.helix)
        ],
    }
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        for variant in iso.variants:
            mesh = bour.sample_mesh(variant, rows=args.rows, cols=args.cols, tol=args.quad_tol)
            sign = lambda e: "p" if e > 0 else "m"
            name = f"isomer_e1{sign(variant.eps1)}_e2{sign(variant.eps2)}.obj"
            bour.write_obj(mesh, os.path.join(args.out, name))
    _emit(doc, args, "isomers.json")
    return EXIT_OK


def cmd_roundtrip(args):
    import numpy as np

    from . import natural

    probe = None
    if args.s_probe:
        lo, hi, count = args.s_probe
        if not (count >= 1 and count.is_integer()):
            raise UsageError(f"--s-probe count must be a positive integer, got {count:g}")
        probe = np.linspace(lo, hi, int(count))
    data = _build_datum(args)
    report = natural.roundtrip(data, s_probe=probe, quad_tol=args.quad_tol)
    _emit(report.to_dict(), args, "roundtrip.json")
    if args.out:
        with open(os.path.join(args.out, "chart.json"), "w") as fh:
            fh.write(to_json17(report.chart.to_dict()) + "\n")
    return EXIT_OK


def cmd_classify_curve(args):
    try:
        fx = parse_expr(args.expr_x)
        fy = parse_expr(args.expr_y)
    except ExprSyntaxError as exc:
        raise UsageError(f"bad curve expression: {exc}") from exc
    curve = cusps.PlaneCurveJet.from_functions(fx, fy, args.base, order=7)
    result = cusps.classify_plane_cusp(curve, args.tol)
    _emit(result.to_dict(), args, "classification.json")
    return EXIT_OK


def _report_error(args, code, exc):
    if args is not None and getattr(args, "json", False):
        doc = {"error": type(exc).__name__, "message": str(exc), "exit_code": code}
        sys.stderr.write(to_json17(doc) + "\n")
    else:
        sys.stderr.write(f"bour-edge: error: {exc}\n")
    return code


_TOLERANCES = (
    ("quad_tol", "positive", lambda value: 0.0 < value < math.inf),
    ("tol", "positive", lambda value: 0.0 < value < math.inf),
    ("zero_tol", "non-negative", lambda value: 0.0 <= value < math.inf),
)


def main(argv=None):
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        # float() accepts nan, inf and negatives; a zero tolerance of 0 asks for exact zeros
        for name, need, ok in _TOLERANCES:
            value = getattr(args, name, None)
            if value is not None and not ok(value):
                raise UsageError(f"--{name.replace('_', '-')} must be {need} and finite, got {value!r}")
        return args.handler(args)
    except (UsageError, ValueError) as exc:
        return _report_error(args, EXIT_USAGE, exc)
    except BourEdgeError as exc:
        if getattr(args, "out", None):
            os.makedirs(args.out, exist_ok=True)
            with open(os.path.join(args.out, "error.json"), "w") as fh:
                fh.write(to_json17(_validation_failure_doc(exc)) + "\n")
        return _report_error(args, EXIT_VALIDATION, exc)


if __name__ == "__main__":
    sys.exit(main())
