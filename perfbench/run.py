"""bour-edge benchmark: one command, four seeded workloads, checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from anywhere inside a checkout; the library is imported from the
checkout's ``src/``. Workloads (why each exists: see workloads.py):

    cli_cold  one ``python -m bour_edge.cli`` process per item
    forward   make_edge_data, 60x60 mesh, invariants, classification, OBJ/CSV
    sweep     3x3 (h, m) family, an inversion into it, the four isomers
    inverse   the natural-coordinate roundtrip

Every pass runs in a fresh interpreter, one process and one thread at a
time, closed loop with one client. Items come in cycles over the input mix
(workloads.py, corpus.py) and a pass always ends on a cycle boundary.

With ``--trace 0`` the end-to-end metrics are measured, untraced:

    setup_s      median over five fresh interpreters of the time from
                 process start to the first timed item (import, input
                 generation, validation of the first input)
    items_per_s  median over the run's cycles of items per second of item time
    peak_rss_mb  peak RSS of the workload process (cli_cold: largest child)

The details line also gives item_p50_ms (the median item time), the tail
(the highest percentile with at least ten items beyond it, with the
percentile and item count) and failed_frac (items that raised or failed
their check, over items attempted); the result line carries the same
failures as ``attempted`` and ``failed``.

With ``--trace 1`` one cycle runs twice in fresh interpreters, untraced and
then traced, and the per-layer metrics are reported (see tracing.py), with
the Baseline table of ROADMAP.md re-timed on the README datum (baseline.py).

The last line of standard output is the JSON result; the line before it
holds details (tail percentile, failure messages, the designed layer split,
machine facts). Exit code 0 on success, 1 if a pass could not run, 2 if the
checkout has no library.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, HERE)

import tracing  # noqa: E402  (no library import: safe before the checkout check)

WORKLOADS = ("cli_cold", "forward", "sweep", "inverse")
SETUP_PROBES = 4
PROCESS_TIMEOUT_S = 150

# Gated end-to-end metrics. item_p50_ms, item_tail_ms and failed_frac are
# printed on the details line only: the median of a few items drawn from a
# mix of input sizes spread more across seeds than the widest bound allows,
# the tail needs more items than a run holds, and failed_frac is 0.
END_TO_END = (("setup_s", "s"), ("items_per_s", "1/s"), ("peak_rss_mb", "MB"))
BASELINE = (("baseline.U_call_us", "us"), ("baseline.jet_eval_order1_us", "us"),
            ("baseline.make_edge_data_ms", "ms"), ("baseline.sample_mesh_60_ms", "ms"),
            ("baseline.sample_mesh_200_ms", "ms"), ("baseline.invariant_report_ms", "ms"),
            ("baseline.roundtrip_ms", "ms"), ("baseline.family_5x5_ms", "ms"),
            ("baseline.import_s", "s"), ("baseline.import_scipy_s", "s"))
PER_LAYER = (tracing.LAYER_METRICS
             + (("cli.import_s", "s"), ("cli.import_scipy_s", "s"), ("cli.main_s", "s"),
                ("trace.overhead_ratio", "ratio"))
             + BASELINE)


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env.pop("BOUR_EDGE_THREADS", None)  # library default: one mesh worker
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(script_args, workdir, label, importtime=False):
    """Run one process to completion.

    Returns (seconds from start to its READY line or None, its last JSON
    line, its standard error).
    """
    err_path = os.path.join(workdir, f"{label}.stderr")
    flags = ["-X", "importtime"] if importtime else []
    ready = last = None
    with open(err_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable] + flags + script_args, cwd=ROOT,
                                env=child_env(), stdout=subprocess.PIPE, stderr=err, text=True)
        watchdog = threading.Timer(PROCESS_TIMEOUT_S, proc.terminate)
        watchdog.start()
        try:
            for line in proc.stdout:
                if line.strip() == "READY" and ready is None:
                    ready = time.perf_counter() - start
                elif line.strip():
                    last = line
            proc.wait()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.terminate()  # the worker stops its own CLI child on SIGTERM
                try:
                    proc.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    proc.kill()
            proc.wait()
            proc.stdout.close()
    with open(err_path) as fh:
        stderr = fh.read()
    if proc.returncode != 0:
        raise BenchError(f"{label} exited {proc.returncode}:\n{stderr[-2000:]}")
    return ready, (json.loads(last) if last and last.startswith("{") else None), stderr


def worker(args, workdir, mode, label, **extra):
    argv = [WORKER, "--workload", args.workload, "--seed", str(args.seed),
            "--workdir", os.path.join(workdir, label), "--mode", mode]
    for key, value in extra.items():
        if key != "importtime":
            argv += [f"--{key.replace('_', '-')}", str(value)]
    return spawn(argv, workdir, label, importtime=extra.get("importtime", False))


def tail(times):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(times)
    if n < 11:
        return None
    return {"value": sorted(times)[n - 11] * 1e3, "percentile": 100.0 * (n - 10) / n,
            "samples": n}


def timed(args, workdir):
    setups = [worker(args, workdir, "setup", f"probe{i}")[0] for i in range(SETUP_PROBES)]
    ready, res, _ = worker(args, workdir, "timed", "timed", seconds=args.seconds)
    times, cycle = res["times"], res["cycle"]
    rates = [cycle / sum(times[i:i + cycle]) for i in range(0, len(times), cycle)]
    values = {
        "setup_s": statistics.median(setups + [ready]),
        "items_per_s": statistics.median(rates),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    figures = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    figures["item_p50_ms"] = {"value": statistics.median(times) * 1e3, "unit": "ms"}
    figures["item_tail_ms"] = dict(tail(times) or {"value": None}, unit="ms")
    figures["failed_frac"] = {"value": res["failed"] / res["attempted"], "unit": "ratio"}
    info = {"workload": args.workload, "seed": args.seed, "items": len(times),
            "end_to_end": figures, "cycle_rates_per_s": rates,
            "setup_samples_s": setups + [ready],
            "machine_loop_ms": statistics.median(res["machine_loop_ms"]),
            "failures": res["failures"]}
    return values, END_TO_END, res["attempted"], res["failed"], info


def traced(args, workdir):
    _, plain, _ = worker(args, workdir, "fixed", "plain")
    _, traced_res, stderr = worker(args, workdir, "traced", "traced", importtime=True)
    _, base, _ = spawn([os.path.join(HERE, "baseline.py")], workdir, "baseline")

    values = dict(traced_res["layers"])
    if args.workload == "cli_cold":
        walls, bour_s, scipy_s = zip(*traced_res["cli_imports"])
        values["cli.import_s"] = statistics.median(bour_s)
        values["cli.import_scipy_s"] = statistics.median(scipy_s)
        values["cli.main_s"] = statistics.median(plain["times"])
        if "cli" in traced_res["missing"]:
            values["cli.main_s"] = None
    else:
        values["cli.import_s"], values["cli.import_scipy_s"] = tracing.parse_importtime(stderr)
        values["cli.main_s"] = 0.0  # no CLI call in this workload
    values["trace.overhead_ratio"] = sum(traced_res["times"]) / sum(plain["times"])
    values.update(base["rows"])

    split = {
        "cli_cold": lambda: {"cli.import_s / item wall":
                             values["cli.import_s"] / statistics.median(walls)},
        "forward": lambda: {"natural.calls": values["natural.calls"],
                            "deform.members": values["deform.members"]},
        "sweep": lambda: {"quadrature.integrand_evals": values["quadrature.integrand_evals"]},
        "inverse": lambda: {"profile.star_scans": values["profile.star_scans"]},
    }[args.workload]()
    info = {"workload": args.workload, "seed": args.seed,
            "items_per_pass": traced_res["attempted"],
            "designed_split": split, "missing_layers": traced_res["missing"],
            "bench_self_s": traced_res["bench_self_s"], "counts": traced_res["counts"],
            "machine": base["machine"],
            "failures": plain["failures"] + traced_res["failures"]}
    attempted = plain["attempted"] + traced_res["attempted"]
    failed = plain["failed"] + traced_res["failed"]
    return values, PER_LAYER, attempted, failed, info


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind through spawn()'s cleanup so no worker outlives us.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(ROOT, "src", "bour_edge", "__init__.py")):
        print(f"run.py: no bour_edge package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-seed{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        measure = traced if args.trace else timed
        values, catalogue, attempted, failed, info = measure(args, workdir)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = {}
    for name, unit in catalogue:
        metrics[name] = {"value": values[name], "unit": unit}
        if values[name] is None:
            metrics[name]["missing"] = True
    print(json.dumps(info))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
