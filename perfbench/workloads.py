"""The three closed-loop workloads: inputs, operations and output checks.

A workload is built in three steps. The constructor is the timed set-up: it
calls bandlim to build whatever the operations share (and, for `battery`,
the reference pass whose bytes every later cycle must reproduce). `prepare`
then builds the independent references from `oracle` and checks the set-up
results against them; it is not part of the set-up time. `ops(cycle)` makes
the cycle's seeded inputs and returns the fixed mix of operations, each a
``(kind, run, check)`` triple: ``run()`` calls bandlim and is timed,
``check(result)`` returns None or a description of what is wrong.

Library calls go through module attributes at call time (``self.bl.evaluate``
and so on) so that the traced run sees them.
"""

import contextlib
import csv
import io
import json
import shutil
from pathlib import Path

import numpy as np

import oracle

B = 1.0
# matched_weights' default blur: twice the spline spacing at K=3, M=11.
SMOOTHING_SIGMA = 2.0 * 2.0 * np.pi * B / (3 + 2 * 11 + 1)


def _close(actual, expected, atol, what):
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    if actual.shape != expected.shape:
        return f"{what}: shape {actual.shape} != {expected.shape}"
    if not np.all(np.isfinite(actual)):
        return f"{what}: non-finite values"
    err = float(np.max(np.abs(actual - expected))) if actual.size else 0.0
    if err > atol:
        return f"{what}: max deviation {err:.3e} > {atol:.3e}"
    return None


def _first(*problems):
    return next((p for p in problems if p), None)


def _in_order(steps):
    """One op made of several ``(run, check)`` steps, run one after another."""
    def run():
        return [call() for call, _ in steps]

    def check(results):
        return _first(*[check(result) for (_, check), result in zip(steps, results)])

    return run, check


class Battery:
    """In-process ``bandlim.cli.main`` over the battery configs in ``scripts/configs``."""

    COMMANDS = ("kernel", "compare", "cardinals", "bounds")

    def __init__(self, bl, work, seed, small):
        self.bl = bl
        self.work = work / "battery"
        self.seed = seed
        self.counts = {}
        configs = sorted(Path("scripts", "configs").resolve().glob("*.json"))
        if not configs:
            raise FileNotFoundError("no scripts/configs/*.json under the working directory")
        if small:
            configs = configs[:2]
        self.configs = {c.stem: json.loads(c.read_text()) for c in configs}
        self.jobs = []
        self.densities = {}
        for index, path in enumerate(configs):
            for command in self.COMMANDS:
                self.jobs.append((f"{command}:{path.stem}", [
                    command, "--config", str(path), "--seed", str(seed)]))
            fit_config = self._write_density(path.stem, index)
            self.jobs.append((f"fit:{path.stem}", [
                "fit", "--config", str(fit_config), "--seed", str(seed)]))
        self.reference = {kind: self._run(kind, argv) for kind, argv in self.jobs}

    def _write_density(self, stem, index):
        """A smooth, strictly positive, symmetric density with seeded bumps."""
        self.work.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng([self.seed, index])
        edge = 2.0 * np.pi * B
        omegas = np.linspace(-edge, edge, 403)[1:-1]
        values = np.full(omegas.size, 0.2)
        for height, centre, width in zip(rng.uniform(0.5, 2.0, 3),
                                         rng.uniform(0.0, 0.8 * edge, 3),
                                         rng.uniform(0.6, 1.5, 3)):
            values += height * np.exp(-0.5 * ((np.abs(omegas) - centre) / width) ** 2)
        with open(self.work / f"density-{stem}.csv", "w", encoding="utf-8",
                  newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["omega", "value"])
            for om, va in zip(omegas, values):
                writer.writerow([f"{om:.17g}", f"{va:.17g}"])
        config = self.work / f"fit-{stem}.json"
        config.write_text(json.dumps({
            "bandwidth_hz": B, "fit": {"density_csv": f"density-{stem}.csv",
                                       "degree_k": 3, "half_count_m": 11}}))
        self.densities[stem] = omegas, values
        return config

    def _outdir(self, kind):
        outdir = self.work / "out" / kind.replace(":", "-")
        shutil.rmtree(outdir, ignore_errors=True)
        outdir.mkdir(parents=True)
        return outdir

    def _run(self, kind, argv):
        """Reference pass of one command: (exit code, console text, files)."""
        outdir = self._outdir(kind)
        code, text = self._caller(argv, outdir)()
        return code, text, {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}

    def ops(self, cycle):
        # One op is one pass of the whole battery: its 20 CLI calls (~0.3 s).
        # Timed call by call, host stalls of a few ms set the tail; timed per
        # config (~80 ms, ~300 ops a run), the tail was the 96th percentile,
        # which a slow phase of the host lasting a few seconds decided.
        steps = []
        for kind, argv in self.jobs:
            outdir = self._outdir(kind)
            steps.append((self._caller(argv, outdir), self._checker(kind, outdir)))
        return [("pass", *_in_order(steps))]

    def _caller(self, argv, outdir):
        argv = argv + ["--output-dir", str(outdir)]

        def run():
            text = io.StringIO()
            with contextlib.redirect_stdout(text), contextlib.redirect_stderr(text):
                try:
                    self.bl.cli.main(argv)
                except SystemExit as exc:
                    return exc.code, text.getvalue()
            return None, text.getvalue()

        return run

    def _checker(self, kind, outdir):
        def check(result):
            code, text = result
            ref_code, ref_text, ref_files = self.reference[kind]
            files = {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}
            self.counts["cli.csv_bytes"] = self.counts.get("cli.csv_bytes", 0) + sum(
                len(v) for k, v in files.items() if k.endswith(".csv"))
            if code != ref_code:
                return f"exit code {code} != {ref_code}"
            if text != ref_text:
                return "console output differs from the reference pass"
            if files.keys() != ref_files.keys():
                return f"output files {sorted(files)} != {sorted(ref_files)}"
            bad = [name for name in files if files[name] != ref_files[name]]
            return f"bytes differ in {bad}" if bad else None

        return check

    def corrupt(self):
        kind = self.jobs[0][0]
        code, text, files = self.reference[kind]
        name = sorted(files)[0]
        files = dict(files, **{name: files[name][:-2] + b"9\n"})
        self.reference[kind] = (code, text, files)

    # -- independent validation of the reference pass ------------------------

    def prepare(self):
        problems = []
        own = {}
        for kind, _ in self.jobs:
            code, _, files = self.reference[kind]
            if code != 0:
                problems.append(f"{kind}: reference pass exited {code}")
                continue
            command, stem = kind.split(":")
            try:
                if command == "fit":
                    problem = self._check_fit(self.densities[stem], files)
                else:
                    cfg = self.configs[stem]
                    if cfg["signal"] not in own:
                        own[cfg["signal"]] = oracle.matched(cfg["signal"], B)
                    problem = getattr(self, f"_check_{command}")(
                        cfg, own[cfg["signal"]], files)
            except (KeyError, ValueError, IndexError) as exc:
                problem = f"unreadable output: {exc!r}"
            if problem:
                problems.append(f"{kind}: {problem}")
        return problems

    @staticmethod
    def _columns(data):
        rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))
        values = np.array([[float(v) for v in row] for row in rows[1:]])
        return {name: values[:, i] for i, name in enumerate(rows[0])}

    @staticmethod
    def _setting(cfg):
        g = cfg["grid"]
        T = 1.0 / (2.0 * B * cfg["nyquist_fraction"])
        return np.linspace(g["min_s"], g["max_s"], g["count"]), T, cfg["half_count_n"]

    def _check_kernel(self, cfg, spec, files):
        cols = self._columns(files["kernel.csv"])
        t, _, _ = self._setting(cfg)
        psi0 = float(spec.psi(np.zeros(1))[0])
        return _first(_close(cols["t"], t, 0.0, "t"),
                      _close(cols["psi"], spec.psi(t), 1e-9 * psi0, "psi"),
                      _close(cols["psi_uniform_reference"], oracle.uniform_psi(B, t),
                             1e-12, "uniform psi"))

    def _check_compare(self, cfg, spec, files):
        cols = self._columns(files["compare.csv"])
        t, T, N = self._setting(cfg)
        x = oracle.signal(cfg["signal"], B, np.arange(-N, N + 1) * T)
        scale = 1e-8 * float(np.max(np.abs(x)))
        expected = {
            "truth": oracle.signal(cfg["signal"], B, t),
            "weighted": oracle.Gram(spec.psi, T, N).interpolate(x, t),
            "uniform": oracle.Gram(lambda s: oracle.uniform_psi(B, s), T, N).interpolate(x, t),
            "sinc": oracle.shannon(x, T, t),
        }
        problem = _first(_close(cols["t"], t, 0.0, "t"), *(
            _close(cols[k], v, scale, k) for k, v in expected.items()))
        if problem:
            return problem
        summary = json.loads(files["compare_summary.json"])
        central = np.abs(t) <= 0.5 * N * T
        for kind in ("weighted", "uniform", "sinc"):
            err = np.abs(cols[kind][central] - cols["truth"][central])
            got = summary["errors"][kind]
            if not (np.isclose(got["max_abs"], np.max(err), rtol=1e-9, atol=0)
                    and np.isclose(got["mean_abs"], np.mean(err), rtol=1e-9, atol=0)):
                return f"summary errors for {kind} disagree with compare.csv"
        if summary["spacing_s"] != T or summary["half_count_n"] != N:
            return "summary settings disagree with the config"
        return None

    def _check_cardinals(self, cfg, spec, files):
        cols = self._columns(files["cardinals.csv"])
        t, T, N = self._setting(cfg)
        return _first(
            _close(cols["u0"], oracle.Gram(spec.psi, T, N).cardinal(0, t), 1e-8, "u0"),
            _close(cols["u0_uniform"], oracle.Gram(
                lambda s: oracle.uniform_psi(B, s), T, N).cardinal(0, t), 1e-8, "u0_uniform"),
            _close(cols["sinc_ref"], np.sinc(t / T), 1e-12, "sinc_ref"))

    def _check_bounds(self, cfg, spec, files):
        cols = self._columns(files["bounds.csv"])
        t, T, N = self._setting(cfg)
        gram = oracle.Gram(spec.psi, T, N)
        x = oracle.signal(cfg["signal"], B, gram.nodes)
        c = gram.solve(x)
        constant = np.sqrt(cfg["ball_radius"] ** 2 - c @ gram.dense @ c)
        return _first(
            _close(cols["power"] ** 2, np.maximum(gram.power_sq(t), 0.0),
                   1e-8 * gram.psi0, "power^2"),
            _close(cols["bound"], constant * cols["power"],
                   1e-9 * constant * np.max(cols["power"]), "bound"))

    def _check_fit(self, density, files):
        doc = json.loads(files["weights.json"])
        omegas, values = density
        spec = oracle.fit(omegas, values, B, 3, 11)
        if (doc["bandwidth_B"], doc["degree_K"], doc["half_count_M"]) != (B, 3, 11):
            return "fitted spec has the wrong shape"
        return _first(
            _close(doc["coeffs_d"], spec.d, 1e-8 * np.max(np.abs(spec.d)), "coeffs_d"),
            _close(doc["floor_alpha"], spec.alpha, 1e-12 * spec.alpha, "floor_alpha"))


class DenseGrid:
    """Library calls at two shapes on uniform grids whose step divides T = 1.

    Each call builds an (M, G, 2N+1) cosine tensor of at most ~141 MB (wide).
    The op mix is shaped so that neither latency quantile sits between kinds
    of different speed. The long grid spans [-8.5, 8.5] (681 points), so the
    two bounds, the slowest kinds, cost about the same and hold the tail.
    The wide build_gram+solve (~2 ms at N=200) is timed with the evaluate
    that needs it rather than as an op of its own, which leaves seven kinds:
    the median is the middle of one block, among three kinds of about equal
    cost (both evaluates and the wide cardinal).
    """

    SHAPES = {"long": (1000, 681, 0.025), "wide": (200, 4001, 0.1)}
    SMALL = {"long": (60, 81, 0.025), "wide": (20, 201, 0.1)}
    T = 1.0
    COMPONENTS = 12
    CHECK_POINTS = 16

    def __init__(self, bl, work, seed, small):
        self.bl = bl
        self.seed = seed
        self.counts = {}
        self.shapes = self.SMALL if small else self.SHAPES
        self.spec = bl.matched_weights(bl.AnalyticSignal.lowfreq(B))
        self.kernel = bl.Kernel.from_spec(self.spec)
        self.grids = {name: np.arange(-(G // 2), G // 2 + 1) * step
                      for name, (_, G, step) in self.shapes.items()}
        self.corrupted = False

    def prepare(self):
        own = oracle.matched("lowfreq", B)
        problem = _close(self.spec.coeffs_d, own.d, 1e-9 * np.max(np.abs(own.d)),
                         "matched coeffs_d")
        self.own = own
        self.grams = {name: oracle.Gram(own.psi, self.T, N)
                      for name, (N, _, _) in self.shapes.items()}
        return [problem] if problem else []

    def corrupt(self):
        self.corrupted = True

    def ops(self, cycle):
        rng = np.random.default_rng([self.seed, cycle])
        ops = []
        for name, (N, _, _) in self.shapes.items():
            ops.extend(self._shape_ops(name, N, rng))
        return ops

    def _shape_ops(self, name, N, rng):
        bl, T, grid, gram = self.bl, self.T, self.grids[name], self.grams[name]
        reach = min(N, max(6, int(grid[-1] / T) + 2))
        picks = rng.choice(np.arange(-reach, reach + 1), self.COMPONENTS, replace=False)
        amps = rng.standard_normal(self.COMPONENTS)
        coeffs = np.zeros(2 * N + 1)
        coeffs[picks + N] = amps
        samples = gram.dense @ coeffs
        truth = self.own.psi(grid[:, None] - picks[None, :] * T) @ amps
        if self.corrupted:
            truth = truth + 1e-3
        norm_sq = float(coeffs @ samples)
        radius = 2.0 * np.sqrt(norm_sq)
        at = np.sort(rng.choice(grid.size, self.CHECK_POINTS, replace=False))
        at_nodes = np.flatnonzero(np.isclose(grid / T, np.round(grid / T), atol=1e-9))
        state = {}
        scale = float(np.sum(np.abs(amps))) * gram.psi0

        def gram_solve():
            state["interp"] = bl.solve(bl.build_gram(self.kernel, T, N),
                                       bl.SampleSet(T, samples))
            return state["interp"]

        def check_solve(interp):
            return _close(interp.coeffs_c, coeffs, 1e-9 * (1.0 + np.max(np.abs(amps))),
                          "coefficients")

        def check_evaluate(values):
            return _close(values, truth, 1e-9 * scale, "interpolant")

        def check_cardinal(u0):
            kron = (np.round(grid[at_nodes] / T) == 0).astype(float)
            return _first(_close(u0[at_nodes], kron, 1e-9, "u0 at nodes"),
                          _close(u0[at], gram.cardinal(0, grid[at]), 1e-9, "u0"))

        def check_bound(report):
            constant = np.sqrt(radius ** 2 - norm_sq)
            power = report.power_values
            return _first(
                _close(report.constant, constant, 1e-9 * constant, "constant"),
                _close(power[at] ** 2, np.maximum(gram.power_sq(grid[at]), 0.0),
                       1e-8 * gram.psi0, "power^2"),
                _close(power[at_nodes], np.zeros(at_nodes.size),
                       1e-5 * np.sqrt(gram.psi0), "power at nodes"),
                _close(report.bound_values, constant * power,
                       1e-9 * constant * np.sqrt(gram.psi0), "bound"))

        def evaluate():
            return bl.evaluate(state["interp"], grid)

        if name == "wide":
            solve_evaluate = [(f"gram_solve+evaluate:{name}",
                               *_in_order([(gram_solve, check_solve),
                                           (evaluate, check_evaluate)]))]
        else:
            solve_evaluate = [(f"gram_solve:{name}", gram_solve, check_solve),
                              (f"evaluate:{name}", evaluate, check_evaluate)]
        return solve_evaluate + [
            (f"cardinal:{name}", lambda: bl.cardinal(state["interp"].gram, 0, grid),
             check_cardinal),
            (f"bound:{name}", lambda: bl.weighted_pointwise_bound(
                state["interp"], radius, grid), check_bound),
        ]


class Stochastic:
    """Monte-Carlo squared errors and LMMSE on a tabulated spectrum."""

    FRACTIONS = (0.5, 0.75)
    LMMSE_FRACTIONS = (0.5, 0.75, 1.0)
    N = 10
    T_EVAL = 0.5
    POINTS = 11
    CHECKED_REALIZATIONS = 16
    Z_LIMIT = 8.0

    def __init__(self, bl, work, seed, small):
        self.bl = bl
        self.seed = seed
        self.counts = {}
        self.realizations = 50 if small else 1000
        self.signals = ("lowfreq", "highfreq")
        self.specs = {s: bl.matched_weights(getattr(bl.AnalyticSignal, s)(B))
                      for s in self.signals}
        self.psds = {s: bl.PSDModel.from_weight_spec(spec) for s, spec in self.specs.items()}
        density = bl.signals.spectral_density_grid(bl.AnalyticSignal.highfreq(B))
        self.tabulated = bl.PSDModel.from_grid(B, bl.gaussian_smooth(density, SMOOTHING_SIGMA))
        self.corrupted = False

    def prepare(self):
        problems = []
        self.own = {}
        for s in self.signals:
            spec = oracle.matched(s, B)
            problems.append(_close(self.specs[s].coeffs_d, spec.d,
                                   1e-9 * np.max(np.abs(spec.d)), f"{s} coeffs_d"))
            omegas, amps = oracle.synthesis(spec.reciprocal, B)
            for f in self.FRACTIONS:
                T = 1.0 / (2.0 * B * f)
                for kind in self.bl.stochastic.MSE_KINDS:
                    row = oracle.predictor_row(kind, B, T, self.N, self.T_EVAL, spec.psi)
                    exact = oracle.exact_mse(omegas, amps, T, self.N, self.T_EVAL, row)
                    self.own[s, kind, f] = (omegas, amps, row, exact)
        omegas, values = oracle.density_grid("highfreq", B)
        values = oracle.smooth(omegas, values, SMOOTHING_SIGMA)
        problems.append(_close(self.tabulated.grid.values, values,
                               1e-12 * np.max(values), "tabulated density"))
        self.autocorrelation = oracle.TabulatedAutocorrelation(omegas, values, B)
        self.tab_synthesis = oracle.synthesis(lambda om: np.interp(om, omegas, values), B)
        self.tab_grams = {f: oracle.Gram(self.autocorrelation, 1.0 / (2.0 * B * f), self.N)
                          for f in self.LMMSE_FRACTIONS}
        return [p for p in problems if p]

    def corrupt(self):
        self.corrupted = True

    def ops(self, cycle):
        seed = self.seed * 1_000_003 + cycle
        rng = np.random.default_rng([self.seed, cycle, 1])
        ops = []
        lmmse = list(self.LMMSE_FRACTIONS)
        for f in self.FRACTIONS:
            for s in self.signals:
                for kind in self.bl.stochastic.MSE_KINDS:
                    ops.append(self._mse_op(s, kind, f, seed, rng))
            ops.append(self._lmmse_op(lmmse.pop(0), seed, rng))
        ops.extend(self._lmmse_op(f, seed, rng) for f in lmmse)
        return ops

    def _mse_op(self, s, kind, f, seed, rng):
        T = 1.0 / (2.0 * B * f)
        omegas, amps, row, exact = self.own[s, kind, f]
        if self.corrupted:
            exact = 10.0 * exact
        count = self.realizations
        picks = rng.choice(count, min(count, self.CHECKED_REALIZATIONS), replace=False)
        pts = np.concatenate([np.arange(-self.N, self.N + 1) * T, [self.T_EVAL]])
        psd = self.psds[s]

        def run():
            return self.bl.squared_errors(psd, kind, T, self.N, self.T_EVAL, count, seed)

        def check(errors):
            if np.shape(errors) != (count,) or not np.all(np.isfinite(errors)):
                return "squared errors have the wrong shape or are not finite"
            own = np.empty(picks.size)
            for i, k in enumerate(picks):
                x = oracle.realization(omegas, amps, [seed, int(k)], pts)
                own[i] = (row @ x[:-1] - x[-1]) ** 2
            problem = _close(errors[picks], own, 1e-9 * exact + 1e-7 * np.max(own),
                             "sampled squared errors")
            stderr = np.std(errors, ddof=1) / np.sqrt(count)
            z = (np.mean(errors) - exact) / stderr
            return problem or (f"mean {np.mean(errors):.4g} is {z:.1f} standard errors "
                               f"from the exact MSE {exact:.4g}"
                               if abs(z) > self.Z_LIMIT else None)

        return f"mse:{s}:{kind}:{f}", run, check

    def _lmmse_op(self, f, seed, rng):
        T = 1.0 / (2.0 * B * f)
        gram = self.tab_grams[f]
        omegas, amps = self.tab_synthesis
        x = oracle.realization(omegas, amps, [seed, 1 << 20], gram.nodes)
        t = np.sort(rng.uniform(-0.5 * self.N * T, 0.5 * self.N * T, self.POINTS))
        expected = gram.interpolate(x, t)
        if self.corrupted:
            expected = expected + 1e-3
        samples = self.bl.SampleSet(T, x)
        tol = 1e-7 * float(np.max(np.abs(x)))

        def run():
            return self.bl.lmmse_interpolate(samples, self.tabulated, t)

        return f"lmmse:tabulated:{f}", run, lambda got: _close(got, expected, tol, "estimate")


WORKLOADS = {"battery": Battery, "dense_grid": DenseGrid, "stochastic": Stochastic}
