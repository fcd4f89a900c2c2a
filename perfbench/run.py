#!/usr/bin/env python3
"""Closed-loop benchmark of bandlim, end to end and (traced) per layer.

Run from the repository root:

    python3 perfbench/run.py --workload battery --seed 1 --seconds 30 --trace 0

Workloads are `battery`, `dense_grid` and `stochastic` (see README.md).
One client process (worker.py) with one thread, BLAS pinned to one thread,
runs whole cycles of the workload's fixed operation mix for ``--seconds``.
Fresh interpreters that only set up and exit are spawned at even intervals
through the run, between cycles, to sample set-up time. The last line of
standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``; the line before it holds
diagnostics (sample counts, host-speed probe, thread pinning, mix check).
With ``--trace 1`` alternate cycles are traced and the metrics are the
per-layer ones. Exits non-zero without a result if bandlim's sources are not
under ``src/`` or a worker dies.
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
from worker import THREAD_VARS

HERE = Path(__file__).resolve().parent
SPEC = HERE.parent / "BENCHMARK.json"
DEADLINE_S = 170
TAIL_BEYOND = 10
MIN_CYCLES = 2
SETUP_SAMPLES = 15
MIX_SPREAD_LIMIT = 1.25

NO_WAITS = ("no wait metrics: each workload is one single-threaded client in a "
            "closed loop with no queue, so no layer ever waits for another")


class BenchError(RuntimeError):
    """The run could not produce a result."""


def host_probe_ms():
    """Fixed pure-Python loop; a host-speed diagnostic that rescales nothing."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def import_times(text):
    """Seconds spent importing numpy, scipy.linalg and bandlim, from `-X importtime`.

    numpy and scipy.linalg are counted where bandlim first pulls them in;
    bandlim is every top-level ``bandlim`` or ``bandlim.*`` import, with
    everything under it. A module that is not imported counts as 0.
    """
    times = {"numpy": 0.0, "scipy_linalg": 0.0, "bandlim": 0.0}
    for line in text.splitlines():
        fields = line.split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        seconds = int(fields[1]) / 1e6
        name = fields[2].strip()
        top_level = not fields[2][1:].startswith(" ")
        if name == "numpy":
            times["numpy"] += seconds
        elif name == "scipy.linalg":
            times["scipy_linalg"] += seconds
        elif top_level and (name == "bandlim" or name.startswith("bandlim.")):
            times["bandlim"] += seconds
    return times


def nearest_rank(sorted_values, q):
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def tail_index(n):
    """Index of the highest percentile with TAIL_BEYOND samples beyond it."""
    return max(0, n - TAIL_BEYOND - 1)


def throughput(cycles):
    """Ops completed per second of op time, over whole cycles."""
    ops = [seconds for c in cycles for _, seconds, _ in c["ops"]]
    return len(ops) / sum(ops)


def mix_check(samples, cycles):
    """Check that p50 and the tail do not sit between op kinds of different speed.

    Each kind occurs the same number of times per cycle, so with kinds
    ordered by median latency every kind holds a fixed block of ranks. A
    quantile is steady when the kinds whose blocks lie within half a block
    of its rank have medians within MIX_SPREAD_LIMIT of each other.
    """
    by_kind = {}
    for kind, seconds in samples:
        by_kind.setdefault(kind, []).append(seconds)
    order = sorted(by_kind, key=lambda k: statistics.median(by_kind[k]))
    blocks, start = [], 0
    for kind in order:
        blocks.append((start, start + len(by_kind[kind]), kind))
        start += len(by_kind[kind])
    n = len(samples)
    half = max(1, cycles // 2)
    report = {}
    for label, rank in (("op_p50_s", math.ceil(0.5 * n) - 1), ("op_tail_s", tail_index(n))):
        near = [k for lo, hi, k in blocks if lo <= rank + half and hi > rank - half]
        medians = [statistics.median(by_kind[k]) for k in near]
        spread = max(medians) / min(medians)
        report[label] = {"rank": rank, "of": n, "kinds": near,
                         "median_spread": round(spread, 4),
                         "ok": spread <= MIX_SPREAD_LIMIT}
    return report


class Run:
    def __init__(self, args, root, units):
        self.args = args
        self.root = root
        self.units = units
        self.state = root / ".perfbench"
        self.work = self.state / "work" / str(os.getpid())
        self.env = dict(os.environ)
        self.env.update({var: "1" for var in THREAD_VARS})
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.procs = []
        self.spawned = 0
        self.setups = []
        self.imports = []

    # -- processes --------------------------------------------------------

    def spawn(self, probe, extra=()):
        """Start a worker and wait for its ``ready``: (process, seconds, import times).

        Probes of a traced run also log their imports (`-X importtime`, which
        slows them; their set-up time is not reported by a traced run).
        """
        self.spawned += 1
        work = self.work / str(self.spawned)
        work.mkdir(parents=True)
        importtime = probe and self.args.trace
        cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + [
            str(HERE / "worker.py"), "--workload", self.args.workload,
            "--seed", str(self.args.seed), "--work", str(work)]
        if self.args.small:
            cmd.append("--small")
        if probe:
            cmd.append("--probe")
        cmd.extend(extra)
        log = work / "importtime.log"
        stderr = open(log, "w") if importtime else None
        start = time.perf_counter()
        try:
            proc = subprocess.Popen(cmd, cwd=self.root, env=self.env, text=True,
                                    stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                    stderr=stderr)
        finally:
            if stderr:
                stderr.close()
        self.procs.append(proc)
        self.read(proc)
        elapsed = time.perf_counter() - start
        imports = None
        if probe:
            proc.stdin.close()
            if proc.wait(timeout=60) != 0:
                raise BenchError(f"set-up probe exited with {proc.returncode}")
            if importtime:
                imports = import_times(log.read_text())
            shutil.rmtree(work, ignore_errors=True)
        return proc, elapsed, imports

    def read(self, proc):
        line = proc.stdout.readline()
        if not line:
            raise BenchError(f"worker exited with code {proc.wait()} before answering")
        message = json.loads(line)
        if "error" in message:
            raise BenchError(message["error"])
        return message

    def request(self, proc, message):
        proc.stdin.write(json.dumps(message) + "\n")
        proc.stdin.flush()
        return self.read(proc)

    def close(self):
        for proc in self.procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        shutil.rmtree(self.work, ignore_errors=True)

    def sample_setup(self, probe, extra=()):
        proc, elapsed, imports = self.spawn(probe, extra)
        self.setups.append(elapsed)
        if imports:
            self.imports.append(imports)
        return proc

    # -- the run ----------------------------------------------------------

    def execute(self):
        args = self.args
        probe_before = host_probe_ms()
        self.spawn(probe=True)  # warm the file cache and bytecode; not a sample
        extra = []
        if args.trace:
            spans = self.state / "trace" / f"{args.workload}-seed{args.seed}.jsonl"
            spans.parent.mkdir(parents=True, exist_ok=True)
            extra += ["--spans", str(spans)]
        if args.corrupt_reference:
            extra.append("--corrupt-reference")

        begin = time.perf_counter()
        worker = self.sample_setup(False, extra)
        prepared = self.read(worker)
        probes = max(3, min(SETUP_SAMPLES, round(args.seconds / 2.7))) - 1
        probes_done = 0
        cycles = []
        last_cycle = 0.0
        while True:
            elapsed = time.perf_counter() - begin
            if probes_done < min(probes, probes * elapsed / args.seconds):
                self.sample_setup(True)
                probes_done += 1
                continue
            # Start a cycle only if half of one like the last fits, so a run
            # lasts --seconds on average and overruns by at most half a cycle.
            enough = (len(cycles) >= MIN_CYCLES
                      and sum(len(c["ops"]) for c in cycles) > 2 * TAIL_BEYOND)
            if enough and elapsed + 0.5 * last_cycle > args.seconds:
                break
            start = time.perf_counter()
            cycles.append(self.request(worker, {"cycle": len(cycles),
                                                "traced": bool(args.trace and len(cycles) % 2)}))
            last_cycle = time.perf_counter() - start
        for _ in range(probes - probes_done):
            self.sample_setup(True)
        measured = time.perf_counter() - begin
        final = self.request(worker, {"stop": True})
        worker.wait(timeout=60)
        probe_after = host_probe_ms()

        ops = [op for c in cycles for op in c["ops"]]
        failures = [f"cycle {c['cycle']} {kind}: {error}" for c in cycles
                    for kind, _, error in c["ops"] if error]
        plain = [c for c in cycles if not c["traced"]]
        latencies = [(kind, seconds) for c in plain for kind, seconds, _ in c["ops"]]
        diagnostics = {
            "workload": args.workload, "seed": args.seed, "measured_s": round(measured, 3),
            "cycles": len(cycles), "ops_per_cycle": len(cycles[0]["ops"]),
            "host_probe_ms": {"before": round(probe_before, 3), "after": round(probe_after, 3)},
            "threads": prepared["threads"],
            "setup_samples_s": [round(s, 4) for s in self.setups],
            "cycle_ops_per_s": [round(throughput([c]), 4) for c in plain],
            "reference_problems": prepared["problems"],
            "failures": failures[:10],
            "waits": NO_WAITS,
        }
        if args.trace:
            metrics = self.layer_metrics(final, cycles, diagnostics)
        else:
            metrics = self.end_to_end(latencies, throughput(plain), final, diagnostics,
                                      len(plain))
        result = {"correct": not failures and not prepared["problems"],
                  "attempted": len(ops), "failed": len(failures), "metrics": metrics}
        return result, diagnostics

    def end_to_end(self, latencies, ops_per_s, final, diagnostics, cycles):
        ordered = sorted(s for _, s in latencies)
        n = len(ordered)
        values = {
            "setup_s": statistics.median(self.setups),
            "ops_per_s": ops_per_s,
            "op_p50_s": nearest_rank(ordered, 0.5),
            "op_tail_s": ordered[tail_index(n)],
            "peak_rss_mb": final["peak_rss_mb"],
        }
        diagnostics["samples"] = {"setup_s": len(self.setups), "ops_per_s": n,
                                  "op_p50_s": n, "op_tail_s": n, "peak_rss_mb": 1}
        diagnostics["op_tail_percentile"] = round(100.0 * (tail_index(n) + 1) / n, 2)
        diagnostics["mix_check"] = mix_check(latencies, cycles)
        return self.metrics(values)

    def layer_metrics(self, final, cycles, diagnostics):
        layers = dict(final["layers"])
        layers.update(final["setup_layers"])
        for key in ("numpy", "scipy_linalg", "bandlim"):
            layers[f"import.{key}_s"] = statistics.median(i[key] for i in self.imports)
        traced = throughput([c for c in cycles if c["traced"]])
        untraced = throughput([c for c in cycles if not c["traced"]])
        layers["trace.ops_per_s_ratio"] = traced / untraced
        op_s = layers["trace.op_s"]
        layers["trace.library_share"] = 1.0 - layers.get("trace.unattributed_s", 0.0) / op_s
        diagnostics["tracing"] = {
            "ops_per_s_traced": traced, "ops_per_s_untraced": untraced,
            "op_s_per_cycle": op_s, "import_samples": len(self.imports),
            "spans": final["spans"],
            "spans_file": str((self.state / "trace").relative_to(self.root)),
        }
        # A traced module's count or time is absent when nothing called it.
        for name in self.units:
            if name not in layers and name.split(".")[0] in tracing.MODULES:
                layers[name] = 0.0
        return self.metrics(layers)

    def metrics(self, values):
        """The metrics BENCHMARK.json names for this mode, with their units."""
        missing = sorted(set(self.units) - set(values))
        if missing:
            raise BenchError(f"no value for the metrics {missing}")
        return {name: {"value": float(values[name]), "unit": unit}
                for name, unit in self.units.items()}


def main(argv=None):
    spec = json.loads(SPEC.read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="self-test sizes instead of the benchmark's")
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="self-test hook: perturb one reference after set-up")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "bandlim" / "__init__.py").is_file():
        print(f"perfbench: {root / 'src' / 'bandlim'} not found; run from the root "
              "of a bandlim checkout", file=sys.stderr)
        return 2

    def stop(signum, frame):
        raise BenchError(f"stopped by signal {signum} (deadline {DEADLINE_S} s)")

    signal.signal(signal.SIGALRM, stop)
    signal.signal(signal.SIGTERM, stop)
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    signal.alarm(DEADLINE_S)
    run = Run(args, root, units)
    try:
        result, diagnostics = run.execute()
    except (BenchError, OSError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        run.close()
    print(json.dumps({"diagnostics": diagnostics}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
