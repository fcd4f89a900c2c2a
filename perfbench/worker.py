"""One benchmark client: a fresh interpreter with a single thread of its own.

Started by run.py, never by hand. It pins BLAS/OpenMP to one thread before
numpy is imported, imports what the program under test imports (bandlim,
and bandlim.cli only where the workload calls it), builds the workload (the
timed set-up) and announces ``ready``. A ``--probe`` worker exits there; it
only exists to sample set-up time. Otherwise the worker validates its references,
then runs one cycle of the workload's fixed operation mix per request read
from stdin and answers each with one JSON line. Tracing is switched on for
the cycles the runner marks as traced.
"""

import argparse
import gc
import importlib
import json
import os
import sys
import time

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--small", action="store_true")
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--spans", help="trace the marked cycles; write spans here")
    parser.add_argument("--corrupt-reference", action="store_true")
    args = parser.parse_args()

    for var in THREAD_VARS:
        os.environ[var] = "1"
    # The protocol owns the real stdout; anything else printed goes to stderr.
    proto = os.fdopen(os.dup(1), "w", buffering=1)
    os.dup2(2, 1)

    def send(message):
        proto.write(json.dumps(message) + "\n")

    src = os.path.join(os.getcwd(), "src")
    sys.path.insert(0, src)
    # The program's own imports come first, so that everything they pull in
    # (numpy, scipy.linalg, click) is charged to them; per-layer import
    # times are read from `-X importtime` on the probe spawns.
    bandlim = importlib.import_module("bandlim")
    if args.workload == "battery":
        importlib.import_module("bandlim.cli")
    if not os.path.abspath(bandlim.__file__).startswith(src + os.sep):
        send({"error": f"bandlim was imported from {bandlim.__file__}, not {src}"})
        return 2

    from pathlib import Path

    import tracing
    import workloads

    tracer = tracing.Tracer(bandlim) if args.spans else None
    if tracer:
        tracer.install()
        tracer.op_id = "setup"
    workload = workloads.WORKLOADS[args.workload](
        bandlim, Path(args.work), args.seed, args.small)
    send({"ready": True})
    if args.probe:
        return 0

    setup_layers = {}
    if tracer:
        tracer.uninstall()
        selfs = tracer.self_times(0)
        setup_layers = {
            "setup.signals.matched_weights.calls":
                tracer.counts["signals.matched_weights.calls"],
            "setup.signals.matched_weights.self_s": selfs["signals.matched_weights"],
            "setup.library_self_s": sum(selfs.values()),
        }
    problems = workload.prepare()
    if args.corrupt_reference:
        workload.corrupt()
    send({"prepared": True, "problems": problems,
          "threads": {var: os.environ[var] for var in THREAD_VARS}})

    layers = {}
    traced_cycles = 0
    for line in sys.stdin:
        request = json.loads(line)
        if "stop" in request:
            break
        traced = tracer is not None and request["traced"]
        ops = workload.ops(request["cycle"])
        workload.counts = {}
        if traced:
            tracer.reset_counts()
            first_span = len(tracer.spans)
            tracer.install()
        # Checks run after the cycle's ops and the benchmark's garbage is
        # collected before them, so neither is paid inside a timed op.
        gc.collect()
        outcomes = []
        for kind, run, check in ops:
            if traced:
                tracer.op_id = f"{request['cycle']}:{kind}"
                root = tracer.begin("bench.op")
            start = time.perf_counter()
            try:
                result, error = run(), None
            except Exception as exc:  # an op that raises counts as failed
                result, error = None, f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
            if traced:
                tracer.end(root)
            outcomes.append((kind, elapsed, result, error, check))
        if traced:
            tracer.uninstall()
        results = []
        for kind, elapsed, result, error, check in outcomes:
            if error is None:
                try:
                    error = check(result)
                except Exception as exc:
                    error = f"check raised {type(exc).__name__}: {exc}"
            results.append([kind, elapsed, error])
        if traced:
            traced_cycles += 1
            _accumulate(layers, tracer, first_span, workload.counts)
        send({"cycle": request["cycle"], "traced": traced, "ops": results})

    import resource

    final = {"stopped": True,
             "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer:
        final["layers"] = {k: v / max(traced_cycles, 1) for k, v in layers.items()}
        final["setup_layers"] = setup_layers
        tracer.write(args.spans)
        final["spans"] = len(tracer.spans)
    send(final)
    return 0


def _accumulate(layers, tracer, first_span, workload_counts):
    """Add one traced cycle's counts and self times into ``layers``."""
    selfs = tracer.self_times(first_span)
    op_time = sum(end - start for name, start, end, _, _ in tracer.spans[first_span:]
                  if name == "bench.op")
    cycle = dict(tracer.counts)
    cycle.update(workload_counts)
    for name, value in selfs.items():
        key = "trace.unattributed_s" if name == "bench.op" else f"{name}.self_s"
        cycle[key] = value
    cycle["trace.op_s"] = op_time
    calls = tracer.counts.get("signals.matched_weights.calls", 0)
    distinct = len(tracer.distinct.get("signals.matched_weights", ()))
    cycle["signals.matched_weights.distinct_ratio"] = distinct / calls if calls else 0.0
    for key, value in cycle.items():
        layers[key] = layers.get(key, 0.0) + value


if __name__ == "__main__":
    sys.exit(main())
