#!/usr/bin/env python3
"""Self-test of the benchmark at small sizes.

Run from the repository root:

    python3 perfbench/selftest.py

Checks that every workload, traced and untraced, prints every metric
BENCHMARK.json names with its unit and no failed operation; that traced
ops spend at least LIBRARY_SHARE_FLOOR of their time inside bandlim's
traced functions; that a corrupted reference makes an operation fail and
the run report ``correct: false``; that a tree without ``src/bandlim`` makes
the runner exit non-zero without a result; and that the oracle, the mix
check and the import-time parser behave on known inputs. Exits 1 if any
check fails.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import oracle
import run

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SPEC = json.loads(run.SPEC.read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# Each op is a call into bandlim (for battery, five cli.main calls), so
# nearly all of its time falls inside a traced function.
LIBRARY_SHARE_FLOOR = 0.95
failures = []


def expect(condition, label):
    print(("PASS " if condition else "FAIL ") + label)
    if not condition:
        failures.append(label)


def bench(workload, *flags, cwd=ROOT):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
           "--seconds", "2", *flags]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]), json.loads(lines[-2])["diagnostics"]
    except (IndexError, ValueError, KeyError):
        return None, None


def check_outputs():
    for workload in WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{workload} --trace {trace}"
            proc = bench(workload, "--small", "--trace", str(trace))
            result, diag = result_of(proc)
            if proc.returncode != 0 or result is None:
                expect(False, f"{label}: exit {proc.returncode}, stderr {proc.stderr[-300:]}")
                continue
            wanted = {m["name"]: m["unit"] for m in SPEC[section]}
            got = {name: m.get("unit") for name, m in result["metrics"].items()}
            values = [m["value"] for m in result["metrics"].values()]
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{label}: result has exactly the four keys")
            expect(got == wanted, f"{label}: every metric of BENCHMARK.json, with its unit")
            expect(all(set(m) == {"value", "unit"} for m in result["metrics"].values()),
                   f"{label}: each metric is a value with a unit")
            expect(all(isinstance(v, float) and math.isfinite(v) for v in values),
                   f"{label}: values are finite numbers")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{label}: correct, {result['attempted']} attempted, none failed")
            if trace:
                share = result["metrics"]["trace.library_share"]["value"]
                expect(share >= LIBRARY_SHARE_FLOOR,
                       f"{label}: library self times account for the op time ({share:.4f})")
                imports = [result["metrics"][f"import.{m}_s"]["value"] for m in ("numpy", "bandlim")]
                expect(all(v > 0 for v in imports), f"{label}: import times measured {imports}")
            else:
                expect(all(v > 0 for v in values), f"{label}: end-to-end values are positive")
                expect(set(diag["samples"]) == set(wanted), f"{label}: sample counts reported")


def check_corruption():
    for workload in WORKLOADS:
        proc = bench(workload, "--small", "--corrupt-reference")
        result, diag = result_of(proc)
        expect(proc.returncode == 0 and result is not None and not result["correct"]
               and result["failed"] >= 1,
               f"{workload}: a corrupted reference fails its op and the run "
               f"({None if result is None else (result['correct'], result['failed'])})")


def check_bare_tree():
    tree = ROOT / ".perfbench" / "selftest-tree"
    shutil.rmtree(tree, ignore_errors=True)
    shutil.copytree(HERE, tree / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.SPEC, tree / run.SPEC.name)
    try:
        proc = bench("battery", "--trace", "0", cwd=tree)
        expect(proc.returncode != 0 and result_of(proc)[0] is None,
               f"a tree without src/bandlim exits {proc.returncode} without a result")
    finally:
        shutil.rmtree(tree, ignore_errors=True)


def check_oracle():
    # The closed form against Gauss-Legendre integration of the reciprocal weight.
    spec = oracle.matched("highfreq", 1.0)
    knots = 2.0 * spec.A * (np.arange(-spec.M - 2, spec.M + 3) + 0.5 * ((spec.K + 1) % 2))
    edge = 2.0 * np.pi * spec.B
    cuts = np.unique(np.clip(np.concatenate([[0.0, edge], knots]), 0.0, edge))
    x, w = np.polynomial.legendre.leggauss(12)
    mid, half = 0.5 * (cuts[1:] + cuts[:-1]), 0.5 * (cuts[1:] - cuts[:-1])
    om = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    wt = (half[:, None] * w[None, :]).ravel() * spec.reciprocal(om)
    t = np.array([0.0, 0.3, 1.7, 5.25])
    quad = np.cos(np.outer(t, om)) @ wt / np.pi
    expect(np.max(np.abs(quad - spec.psi(t))) < 1e-10 * spec.psi(np.zeros(1))[0],
           "oracle kernel closed form matches its quadrature")
    xs = np.linspace(-3, 3, 61)
    total = sum(oracle.bspline(3, xs - m) for m in range(-6, 7))
    expect(np.max(np.abs(total - 1.0)) < 1e-12, "oracle B-splines partition unity")


def check_mix():
    steady = [("a", 1.0), ("b", 1.01)] * 20 + [("c", 3.0)] * 20
    split = [("a", 1.0), ("b", 2.0)] * 20
    expect(run.mix_check(steady, 20)["op_p50_s"]["ok"], "mix check accepts a p50 inside one speed")
    expect(not run.mix_check(split, 20)["op_p50_s"]["ok"],
           "mix check flags a p50 between two speeds")


def check_import_times():
    log = """import time: self [us] | cumulative | imported package
import time:      1641 |     104128 |     numpy
import time:       935 |     105062 |   bandlim.bsplines
import time:       360 |      11322 |       scipy
import time:       505 |     202652 |     scipy.linalg
import time:       790 |     331239 | bandlim
import time:       423 |       8931 |   click
import time:      5127 |      14057 | bandlim.cli
import time:       100 |        200 | json
"""
    expect(run.import_times(log) == {"numpy": 0.104128, "scipy_linalg": 0.202652,
                                     "bandlim": 0.331239 + 0.014057},
           "import times are read from -X importtime")


def main():
    check_oracle()
    check_mix()
    check_import_times()
    check_outputs()
    check_corruption()
    check_bare_tree()
    print(f"{len(failures)} failed" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
