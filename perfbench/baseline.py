"""The Baseline table of ROADMAP.md, timed on the README datum.

Run by run.py in its own fresh interpreter during a traced run, untraced,
and printed as one JSON line with the machine facts the numbers depend on.
Heavy rows run once; cheap rows repeat and report the median.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from bour_edge import bour, deform, invariants, jets, natural, profile  # noqa: E402

import corpus  # noqa: E402
import tracing  # noqa: E402

_BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _median_time(fn, repeats):
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_facts():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "BOUR_EDGE_THREADS": os.environ.get("BOUR_EDGE_THREADS"),
        **{name: os.environ.get(name) for name in _BLAS_VARS},
    }


def import_row(repeats=3):
    """Wall time of a fresh ``import bour_edge`` and its scipy share."""
    walls, scipy_s = [], []
    for _ in range(repeats):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import bour_edge"],
                              cwd=ROOT, env=dict(os.environ), capture_output=True, text=True,
                              check=True, timeout=120)
        walls.append(time.perf_counter() - start)
        scipy_s.append(tracing.parse_importtime(proc.stderr)[1])
    return statistics.median(walls), statistics.median(scipy_s)


def table():
    d = corpus.README_DATUM
    data = profile.make_edge_data(d["U"], d["h"], d["m"], d["eps0"], d["eps1"], d["eps2"],
                                  d["k"], tuple(d["J"]))
    grid = [float(s) for s in np.linspace(-0.8, 0.8, 1000)]

    def u_calls():
        for s in grid:
            data.U(s)

    def jet_calls():
        for s in grid[::5]:
            jets.jet_eval(data.U, s, 1)

    import_wall, import_scipy = import_row()
    return {
        "baseline.U_call_us": _median_time(u_calls, 5) / len(grid) * 1e6,
        "baseline.jet_eval_order1_us": _median_time(jet_calls, 5) / len(grid[::5]) * 1e6,
        "baseline.make_edge_data_ms": _median_time(
            lambda: profile.make_edge_data(d["U"], d["h"], d["m"], d["eps0"], d["eps1"],
                                           d["eps2"], d["k"], tuple(d["J"])), 5) * 1e3,
        "baseline.sample_mesh_60_ms": _median_time(
            lambda: bour.sample_mesh(data, rows=60, cols=60), 3) * 1e3,
        "baseline.sample_mesh_200_ms": _median_time(
            lambda: bour.sample_mesh(data, rows=200, cols=200), 1) * 1e3,
        "baseline.invariant_report_ms": _median_time(
            lambda: invariants.compute_invariant_report(data), 5) * 1e3,
        "baseline.roundtrip_ms": _median_time(lambda: natural.roundtrip(data), 1) * 1e3,
        "baseline.family_5x5_ms": _median_time(
            lambda: deform.deformation_family(data, 0.15, 0.1, 5, 5), 1) * 1e3,
        "baseline.import_s": import_wall,
        "baseline.import_scipy_s": import_scipy,
    }


if __name__ == "__main__":
    print(json.dumps({"rows": table(), "machine": machine_facts()}), flush=True)
