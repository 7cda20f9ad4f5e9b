"""One benchmark process: set up one workload, then run its items.

Started by run.py in a fresh interpreter per pass, so caches and peak RSS
never carry over from one pass or workload to the next. Prints ``READY`` when
set-up is over and the first item is about to start, and one JSON line with
the results at the end.

Items come in cycles (the corpus strata, or the CLI commands), and every
pass ends on a cycle boundary, so each run measures the same input mix.

Modes:
  setup     set up, print READY, exit (run.py's set-up probes);
  timed     run whole cycles until the summed item time reaches --seconds;
  fixed     run one cycle of the in-process work, untraced;
  traced    the same cycle with every layer wrapped (see tracing.py).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _import_library():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import bour_edge

    where = os.path.dirname(os.path.abspath(bour_edge.__file__))
    if where != os.path.join(ROOT, "src", "bour_edge"):
        raise SystemExit(f"bour_edge imported from {where}, not from this checkout")


def _peak_rss_mb(children):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def machine_loop_ms():
    """Time of a fixed pure-Python loop that calls no library code.

    Sampled after every item, untimed, so that each run carries the speed of
    the machine while it ran: on a shared machine that speed drifts, and
    this tells drift apart from a change in the program.
    """
    start = time.perf_counter()
    acc = 0
    for i in range(100_000):
        acc += i * i
    return (time.perf_counter() - start) * 1e3


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "fixed", "traced"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so that subprocess.run stops a running CLI child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    _import_library()
    import workloads
    from bour_edge.errors import BourEdgeError

    os.makedirs(args.workdir, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    tracer = None
    if args.mode == "traced":
        import tracing

        tracer = tracing.Tracer(BourEdgeError)
        tracer.install()
    item = wl.next_item()
    print("READY", flush=True)
    if args.mode == "setup":
        return 0

    work = wl.work if args.mode == "timed" else wl.library_work
    times, failures, imports, loops = [], [], [], []
    attempted = failed = 0
    measured = 0.0
    while True:
        if tracer is not None:
            tracer.begin_item()
        start = time.perf_counter()
        try:
            out = work(item)
            error = None
        except Exception:  # an item that raises is counted as failed, the run goes on
            out, error = None, traceback.format_exc(limit=3)
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.end_item()
        times.append(elapsed)
        measured += elapsed
        attempted += 1
        if error is None:
            try:
                problems = wl.check(item, out)
            except Exception:  # output too malformed to check: a failed item
                problems = [traceback.format_exc(limit=3)]
        else:
            problems = [error]
        if problems:
            failed += 1
            failures.extend(f"item {attempted - 1}: {p}" for p in problems[:3])
        if args.mode == "traced" and args.workload == "cli_cold":
            start = time.perf_counter()
            proc = wl.work(item, importtime=True)
            imports.append((time.perf_counter() - start, proc["stderr"]))
        wl.cleanup(item)
        loops.append(machine_loop_ms())
        if attempted % wl.cycle == 0 and (args.mode != "timed" or measured >= args.seconds):
            break
        item = wl.next_item()

    result = {"times": times, "cycle": wl.cycle, "attempted": attempted, "failed": failed,
              "failures": failures[:10], "machine_loop_ms": loops,
              "peak_rss_mb": _peak_rss_mb(args.workload == "cli_cold")}
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["missing"] = sorted(tracer.missing)
        result["bench_self_s"] = tracer.self_time["bench"]
        result["counts"] = dict(sorted(tracer.counts.items()))
        result["cli_imports"] = [(wall,) + tracing.parse_importtime(text)
                                 for wall, text in imports]
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
