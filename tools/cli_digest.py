"""One line per CLI case: the arguments, the exit code and a SHA-256 of the outputs.

    python tools/cli_digest.py [--reverse] SRC_DIR

imports ``bour_edge`` from SRC_DIR and runs ``bour_edge.cli.main`` in this
process over a fixed list of cases (in reverse order under ``--reverse``):
every command on four data, the usage and validation error paths, and
malformed datum files. Each case runs in a fresh temporary directory, with
its datum file (if any) at ``datum.json`` and ``--out`` pointing at
``out``, so no path in the outputs depends on the run. The digest covers stdout, stderr and every file written under the case
directory. To compare two trees:

    python tools/cli_digest.py old/src > old.txt
    python tools/cli_digest.py new/src > new.txt
    diff old.txt new.txt

The cases share the process, and with it what the library keeps between
calls (compiled code, face blocks), so the sorted lines of both orders must
be the same:

    python tools/cli_digest.py src | sort > forward.txt
    python tools/cli_digest.py --reverse src | sort > reverse.txt
    diff forward.txt reverse.txt

An exception that escapes ``main`` is recorded as ``exit=raised:<type>``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

README = {"U": "1 - s*cos(s) + sin(s)", "h": 0.2, "m": 1.0,
          "eps0": 1, "eps1": 1, "eps2": -1, "k": 1, "J": [-0.8, 0.8]}
DATA = {
    "readme": README,
    "edge_k2": {"U": "(-s^2+2)*cos(s) + 2*s*sin(s) - 1", "h": 0.1, "m": 1.0,
                "eps0": 1, "eps1": 1, "eps2": -1, "k": 2, "J": [-0.7, 0.7]},
    "six_powers": {"U": "1.2 + 0.2*(1 - cos(s)) + 0.1*s^2 - 0.05*s^3 + 0.02*s^4 + 0.1*s^5 - 0.03*s^6",
                   "h": 0.3, "m": 1.1, "eps0": 1, "eps1": 1, "eps2": -1, "k": 1,
                   "J": [-0.45, 0.45]},
    "quartic": {"U": "1 + 0.5*s^4/24", "h": 0.15, "m": 1.0,
                "eps0": 1, "eps1": 1, "eps2": 1, "k": 1, "J": [-0.5, 0.5]},
}
# U'(0) = 1e-8 passes only under --zero-tol 1e-7.
ZERO_TOL = {"U": "1 + 1e-8*s + 6*s^2", "h": 0.01, "m": 0.05,
            "eps0": 1, "eps1": 1, "eps2": 1, "k": 1, "J": [-0.3, 0.3]}
HIGH_K = {"U": "", "h": 0.1, "m": 1.0, "eps0": 1, "eps1": 1, "eps2": 1, "k": 1, "J": [-0.4, 0.4]}

COMMANDS = (
    ["validate"],
    ["validate", "--samples", "64"],
    ["invariants"],
    ["classify"],
    ["roundtrip"],
    ["roundtrip", "--s-probe", "-0.5", "0.5", "41"],
    ["roundtrip", "--out", "out"],
    ["build", "--out", "out", "--rows", "12", "--cols", "9"],
    ["isomers", "--out", "out", "--rows", "6", "--cols", "5"],
    # two more mesh shapes, so one process writes faces of shapes seen before and after
    ["build", "--out", "out", "--rows", "2", "--cols", "2"],
    ["build", "--out", "out", "--rows", "3", "--cols", "7"],
    ["deform", "--nh", "3", "--nm", "3"],
    # a span wide enough that some members are refused
    ["deform", "--nh", "5", "--nm", "3", "--h-span", "0.9"],
    ["deform", "--samples", "64", "--out", "out", "--nh", "2", "--nm", "2",
     "--rows", "5", "--cols", "4"],
    ["invert", "--target-kappa-nu", "0.95", "--target-kappa-t", "0.1", "--out", "out"],
)


def _high_k(k):
    return dict(HIGH_K, U=f"1 + {0.2 / (k + 1)!r}*s^{k + 1} + 0.01*s^{2 * k + 2}", k=k)


def cases():
    """(label, datum file payload or None, argv) for every case."""
    for name, payload in DATA.items():
        for argv in COMMANDS:
            yield name, payload, [argv[0], "--datum", "datum.json", *argv[1:]]
    yield "curve", None, ["classify-curve", "--expr-x", "s^2", "--expr-y", "s^7"]
    yield "curve", None, ["classify-curve", "--expr-x", "s^2", "--expr-y", "s^7", "--out", "out"]

    # error paths that keep their texts
    for flags in (["--h", "nan"], ["--J", "0.1", "0.8"], ["--m", "-1"], ["--k", "0"], ["--h", "1.5"],
                  ["--eps0", "2"], ["--U", "sin("], ["--J", "nan", "0.8"]):
        for json_flag in ([], ["--json"]):
            yield "readme", README, ["validate", "--datum", "datum.json", *flags, *json_flag]
    yield "readme", README, ["deform", "--datum", "datum.json", "--h-span", "nan"]
    yield "readme", README, ["build", "--datum", "datum.json", "--out", "out", "--s-range", "-5", "5"]
    yield "readme", README, ["invariants", "--datum", "missing.json"]
    yield "none", None, ["invariants"]

    # datum-file fields of the wrong type or shape
    for field, value in (("k", 1.0), ("k", 1.7), ("eps0", 1.9), ("eps2", -1.5), ("k", True),
                         ("m", True), ("k", "1"), ("h", "0.2"), ("J", [-0.8, 0.8, 5]),
                         ("J", [-0.8]), ("h", None), ("k", None), ("eps1", None), ("J", None),
                         ("J", 5), ("J", [None, 0.8]), ("U", 1), ("h", 10**400),
                         ("m", 2.0**256)):
        for json_flag in ([], ["--json"]):
            yield f"{field}={json.dumps(value)}", dict(README, **{field: value}), \
                ["validate", "--datum", "datum.json", *json_flag]
    yield "not_an_object", [README], ["validate", "--datum", "datum.json"]

    # members on both sides of the star condition's h limit: the k = 2 datum's limit at
    # m = 1 is h = 0.8082978165971157, which the top member passes by 3e-9 or by 1e-16,
    # or falls short of by 2e-16; the last two lie in the star bound's tie band
    yield "readme", README, ["deform", "--datum", "datum.json", "--nh", "9", "--nm", "5",
                             "--h-span", "1.0", "--m-span", "0.4"]
    for span in ("0.70829782", "0.7082978165971158", "0.7082978165971155"):
        yield "edge_k2", DATA["edge_k2"], ["deform", "--datum", "datum.json", "--nh", "3",
                                           "--nm", "1", "--h-span", span]

    # a family whose U'(0) passes only the user's zero tolerance
    zero_tol = ["--datum", "datum.json", "--zero-tol", "1e-7"]
    yield "zero_tol", ZERO_TOL, ["validate", *zero_tol]
    yield "zero_tol", ZERO_TOL, ["deform", *zero_tol, "--h-span", "0.005", "--m-span", "0.01",
                                 "--nh", "2", "--nm", "2"]
    yield "zero_tol", ZERO_TOL, ["invert", *zero_tol, "--target-kappa-nu", "19.99",
                                 "--target-kappa-t", "0.2"]

    # k past what the capped series reach
    for command, k in (("roundtrip", 7), ("roundtrip", 8), ("invariants", 10), ("invariants", 11),
                       ("invariants", 16), ("validate", 31), ("validate", 32)):
        yield f"high_k{k}", _high_k(k), [command, "--datum", "datum.json"]

    # a tolerance under which some chart segments take more than the one panel
    # each takes under the default, so the chart's quadrature subdivides
    yield "readme", README, ["roundtrip", "--datum", "datum.json", "--quad-tol", "1e-22"]

    # probe counts and ranges
    for probe in (["-0.5", "0.5", "0"], ["5", "6", "10"], ["-0.5", "0.5", "2.7"],
                  ["-0.5", "0.5", "-3"], ["-0.5", "0.5", "1"]):
        yield "readme", README, ["roundtrip", "--datum", "datum.json", "--s-probe", *probe]

    # tolerances that are not positive (or, for --zero-tol, non-negative) and
    # finite, and mesh ranges that are not finite with lo < hi
    build = ["build", "--datum", "datum.json", "--out", "out"]
    for argv in ([*build, "--quad-tol", "nan"], ["roundtrip", "--datum", "datum.json", "--quad-tol", "-1"],
                 ["classify", "--datum", "datum.json", "--tol", "nan"],
                 ["classify", "--datum", "datum.json", "--tol", "-1"],
                 [*build, "--t-range", "0", "nan"], [*build, "--s-range", "0.5", "-0.5"],
                 [*build, "--s-range", "nan", "0.5"]):
        yield "readme", README, argv
    yield "curve", None, ["classify-curve", "--expr-x", "s^2", "--expr-y", "s^3", "--tol", "nan"]
    for value in ("nan", "-1", "inf"):
        yield "readme", README, ["validate", "--datum", "datum.json", "--zero-tol", value]

    # an OBJ that holds -0.0 (written 0), and an s range whose ends lie nearer 0 than any
    # inner row (the ends stay as requested)
    yield "readme", README, [*build, "--eps0", "-1", "--rows", "7", "--cols", "5"]
    yield "readme", README, [*build, "--rows", "2", "--cols", "2", "--s-range", "-0.5", "0.5"]


def run_case(main, payload, argv):
    """(exit code, SHA-256 hex) of one case, run in a fresh temporary directory."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            if payload is not None:
                with open("datum.json", "w") as fh:
                    json.dump(payload, fh)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except Exception as exc:  # recorded, not raised: the digest is the point
                    code = f"raised:{type(exc).__name__}"
            digest = hashlib.sha256()
            for text in (out.getvalue(), err.getvalue()):
                digest.update(text.encode() + b"\0")
            for root, dirs, files in os.walk("."):
                dirs.sort()
                for name in sorted(files):
                    path = os.path.join(root, name)
                    with open(path, "rb") as fh:
                        digest.update(path.encode() + b"\0" + fh.read() + b"\0")
        finally:
            os.chdir(cwd)
    return code, digest.hexdigest()


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    reverse = argv[:1] == ["--reverse"]
    argv = argv[1:] if reverse else argv
    if len(argv) != 1:
        sys.stderr.write(__doc__)
        return 2
    src = os.path.abspath(argv[0])
    os.environ["COLUMNS"] = "80"  # argparse wraps usage text to the terminal width
    sys.path.insert(0, src)
    from bour_edge import cli

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        sys.stderr.write(f"bour_edge was imported from {cli.__file__}, not from {src}\n")
        return 2
    for label, payload, case_argv in (reversed(list(cases())) if reverse else cases()):
        code, digest = run_case(cli.main, payload, case_argv)
        print(f"{label}\t{' '.join(case_argv)}\texit={code}\t{digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
