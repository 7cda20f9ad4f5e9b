"""Write reference.json: the CLI outputs that cli_cold items are compared to.

    python3 perfbench/make_reference.py

The references were stored from the commit that introduced the benchmark;
run this again only when an output is meant to change, and say so.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from bour_edge import cli  # noqa: E402

import corpus  # noqa: E402
import workloads  # noqa: E402


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"{argv} exited {code}")
    return json.loads(out.getvalue())


def main():
    scratch = os.path.join(ROOT, ".bench_work", "reference")
    os.makedirs(scratch, exist_ok=True)
    try:
        paths = {}
        for name, payload in (("readme", corpus.README_DATUM), ("edge_k2", corpus.EDGE_K2_DATUM)):
            paths[name] = os.path.join(scratch, f"{name}.json")
            with open(paths[name], "w") as fh:
                json.dump(payload, fh)
        size = str(workloads.CLI_BUILD_SIZE)
        build = run_cli(["build", "--datum", paths["edge_k2"], "--out", scratch,
                         "--rows", size, "--cols", size])
        with open(os.path.join(scratch, "mesh.obj")) as fh:
            vertices = workloads.obj_vertices(fh.read()).tolist()
        reference = {
            "validate_readme": run_cli(["validate", "--datum", paths["readme"]]),
            "invariants_edge_k2": run_cli(["invariants", "--datum", paths["edge_k2"]]),
            "build_edge_k2": {"doc": {k: v for k, v in build.items() if k != "mesh"},
                              "vertices": vertices},
        }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
