"""Self-test of the benchmark itself (not of the library).

    python3 perfbench/selftest.py

Checks, at a tiny size:
  * every workload emits every end-to-end metric, with its unit, and passes
    its correctness gate;
  * the traced run emits every per-layer metric, the counts repeat exactly
    for the same seed, and the designed layer split holds;
  * a second seed changes the inputs but not the metric names;
  * a perturbed reference output is counted as a failure;
  * in a directory holding only BENCHMARK.json and perfbench/, run.py exits
    with a non-zero code and prints no result;
  * every wrapped name is entered by some workload, and a wrapped name that
    no longer exists marks its layer missing;
  * BENCHMARK.json names exactly the metrics run.py prints.
Takes a few minutes; writes only under .bench_work/.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

SCRATCH = os.path.join(ROOT, ".bench_work", "selftest")


def bench(workload, seed, trace, root=ROOT):
    proc = subprocess.run([sys.executable, os.path.join(root, "perfbench", "run.py"),
                           "--workload", workload, "--seed", str(seed), "--seconds", "1",
                           "--trace", str(trace)],
                          cwd=root, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith('{"correct"') else None
    info = json.loads(lines[-2]) if result and len(lines) > 1 else None
    return proc.returncode, result, info, proc.stderr


def check(condition, message, failures):
    print(("ok    " if condition else "FAIL  ") + message, flush=True)
    if not condition:
        failures.append(message)


def expect_metrics(result, catalogue, label, failures):
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    check(got == dict(catalogue), f"{label}: metric names and units", failures)
    check(all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()),
          f"{label}: every value is a number", failures)


def copy_tree(dest, with_src):
    shutil.rmtree(dest, ignore_errors=True)
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(HERE, os.path.join(dest, "perfbench"), ignore=ignore)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dest)
    if with_src:
        shutil.copytree(os.path.join(ROOT, "src"), os.path.join(dest, "src"), ignore=ignore)


def main():
    failures = []
    entered = set()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    check([(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
          and [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
          and [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
          "BENCHMARK.json matches run.py's metrics and workloads", failures)

    for workload in run.WORKLOADS:
        code, result, info, err = bench(workload, 1, 0)
        check(code == 0 and result is not None,
              f"{workload}: untraced run exits 0 ({err[-300:]})", failures)
        if result is None:
            continue
        expect_metrics(result, run.END_TO_END, f"{workload} untraced", failures)
        check(result["correct"] and result["failed"] == 0,
              f"{workload}: outputs correct", failures)
        check(set(info["end_to_end"]) == {"setup_s", "items_per_s", "item_p50_ms",
                                          "item_tail_ms", "peak_rss_mb", "failed_frac"},
              f"{workload}: all six end-to-end figures printed", failures)

        code2, result2, _, _ = bench(workload, 2, 0)
        check(code2 == 0 and result2 is not None
              and set(result2["metrics"]) == set(result["metrics"]),
              f"{workload}: second seed keeps the metric names", failures)

        traced = [bench(workload, 1, 1) for _ in range(2)]
        if not all(t[0] == 0 and t[1] is not None for t in traced):
            check(False, f"{workload}: traced runs exit 0 ({traced[0][3][-300:]})", failures)
            continue
        (_, first, info1, _), (_, second, _, _) = traced
        entered.update(info1["counts"])
        expect_metrics(first, run.PER_LAYER, f"{workload} traced", failures)
        counts = [name for name, unit in run.PER_LAYER if unit in ("count", "bytes")]
        check(all(first["metrics"][n]["value"] == second["metrics"][n]["value"] for n in counts),
              f"{workload}: per-layer counts repeat exactly for the same seed", failures)
        split = info1["designed_split"]
        if workload == "cli_cold":
            ok = split["cli.import_s / item wall"] > 0.5
        else:
            ok = all(value == 0 for value in split.values())
        check(ok, f"{workload}: designed split {split}", failures)

    import tracing

    frames = {f"{layer}.{name}" for layer, name, kind in tracing.WRAPPED if kind == "frame"}
    check(frames <= entered, f"every wrapped name is entered by some workload "
          f"(never: {sorted(frames - entered)})", failures)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import corpus
    from bour_edge.errors import BourEdgeError
    from bour_edge.profile import make_edge_data

    streams = [corpus.Corpus(seed, make_edge_data, BourEdgeError) for seed in (1, 2)]
    texts = [[stream.next()[0].U_text for _ in corpus.STRATA] for stream in streams]
    check(texts[0] != texts[1], "a second seed changes the inputs", failures)

    perturbed = os.path.join(SCRATCH, "perturbed")
    copy_tree(perturbed, with_src=True)
    ref_path = os.path.join(perturbed, "perfbench", "reference.json")
    with open(ref_path) as fh:
        reference = json.load(fh)
    reference["validate_readme"]["rho_min"] *= 1.0 + 1e-6
    with open(ref_path, "w") as fh:
        json.dump(reference, fh)
    code, result, info, _ = bench("cli_cold", 1, 0, root=perturbed)
    check(code == 0 and result is not None and result["failed"] >= 1 and not result["correct"]
          and info["end_to_end"]["failed_frac"]["value"] > 0,
          "a perturbed reference is counted in failed_frac", failures)

    bare = os.path.join(SCRATCH, "bare")
    copy_tree(bare, with_src=False)
    code, result, _, _ = bench("forward", 1, 0, root=bare)
    check(code != 0 and result is None, "without the library, run.py fails and prints no result",
          failures)

    # A wrapped name deleted by a refactor: its layer reads null, not 0.
    import bour_edge.natural

    saved = bour_edge.natural.roundtrip
    del bour_edge.natural.roundtrip
    try:
        tracer = tracing.Tracer(BourEdgeError)
        tracer.install()
        values = tracer.metrics()
    finally:
        bour_edge.natural.roundtrip = saved
    check(tracer.missing == {"natural"} and values["natural.calls"] is None
          and values["natural.self_s"] is None and values["expr.calls"] == 0,
          "a deleted wrapped name marks its layer missing", failures)

    shutil.rmtree(SCRATCH, ignore_errors=True)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
