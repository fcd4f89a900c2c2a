import contextlib
import csv
import gc
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from bandlim import WeightSpec, inverse_weight_eval
from bandlim.cli import _write_csv, main
from conftest import classical_bound


def run_cli(args):
    with pytest.raises(SystemExit) as exc_info:
        main(list(args))
    return exc_info.value.code


def read_csv(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [row for row in reader if row]
    cols = {name: np.array([row[i] for row in rows])
            for i, name in enumerate(header)}
    return header, cols


def numeric(cols, name):
    return cols[name].astype(float)


def write_config(tmp_path, name="cfg.json", **overrides):
    cfg = {
        "bandwidth_hz": 1.0,
        "half_count_n": 10,
        "nyquist_fraction": 0.5,
        "grid": {"min_s": -5.0, "max_s": 5.0, "count": 201},
        "signal": "lowfreq",
        "weights": {"matched": {}},
        "kinds": ["weighted", "uniform", "sinc"],
        "seed": 20240601,
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def sign_changes(values, floor=1e-9):
    v = values[np.abs(values) > floor]
    return int(np.sum(np.diff(np.sign(v)) != 0))


class TestKernelCommand:
    def test_uniform_weights_match_reference(self, tmp_path):
        cfg = write_config(tmp_path, weights={"uniform": True})
        out = tmp_path / "out"
        assert run_cli(["kernel", "--config", str(cfg), "--output-dir",
                        str(out), "--quiet"]) == 0
        _, cols = read_csv(out / "kernel.csv")
        np.testing.assert_array_equal(numeric(cols, "psi"),
                                      numeric(cols, "psi_uniform_reference"))

    def test_lowpass_kernel_is_less_oscillatory(self, tmp_path):
        cfg = write_config(tmp_path,
                           grid={"min_s": -10.0, "max_s": 10.0, "count": 801})
        out = tmp_path / "out"
        assert run_cli(["kernel", "--config", str(cfg), "--output-dir",
                        str(out), "--quiet"]) == 0
        _, cols = read_csv(out / "kernel.csv")
        assert sign_changes(numeric(cols, "psi")) < \
            sign_changes(numeric(cols, "psi_uniform_reference"))

    def test_malformed_config_exits_2_without_output(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"bandwidth_hz\": ")
        out = tmp_path / "out"
        assert run_cli(["kernel", "--config", str(bad), "--output-dir",
                        str(out), "--quiet"]) == 2
        assert not out.exists() or not list(out.iterdir())


class TestCompareCommand:
    def test_weighted_wins_at_half_nyquist(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert run_cli(["compare", "--config", str(cfg), "--output-dir",
                        str(out), "--quiet"]) == 0
        summary = json.loads((out / "compare_summary.json").read_text())
        errs = summary["errors"]
        assert errs["weighted"]["max_abs"] < errs["uniform"]["max_abs"]
        assert errs["weighted"]["max_abs"] < errs["sinc"]["max_abs"]

    def test_nyquist_rate_agreement(self, tmp_path):
        # calibrated at build time: the three interpolants differ by at most
        # 1.19e-2 on the central interval at the critical rate
        cfg = write_config(tmp_path, nyquist_fraction=1.0)
        out = tmp_path / "out"
        assert run_cli(["compare", "--config", str(cfg), "--output-dir",
                        str(out), "--quiet"]) == 0
        _, cols = read_csv(out / "compare.csv")
        t = numeric(cols, "t")
        central = np.abs(t) <= 0.5 * 10 * 0.5
        w, u, s = (numeric(cols, k)[central] for k in ("weighted", "uniform", "sinc"))
        spread = max(np.max(np.abs(w - u)), np.max(np.abs(w - s)),
                     np.max(np.abs(u - s)))
        assert spread <= 1.5e-2

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert run_cli(["compare", "--config", str(cfg), "--output-dir",
                            str(out), "--quiet"]) == 0
        assert (out1 / "compare.csv").read_bytes() == \
            (out2 / "compare.csv").read_bytes()

    def test_invalid_kinds_rejected(self, tmp_path):
        cfg = write_config(tmp_path, kinds=[])
        assert run_cli(["compare", "--config", str(cfg), "--output-dir",
                        str(tmp_path / "o"), "--quiet"]) == 2


class TestCardinalsCommand:
    def test_kronecker_column(self, tmp_path):
        # grid hits every node; u0 must be 1 at t=0 and 0 at other nodes
        cfg = write_config(tmp_path,
                           grid={"min_s": -10.0, "max_s": 10.0, "count": 21})
        out = tmp_path / "out"
        assert run_cli(["cardinals", "--config", str(cfg), "--output-dir",
                        str(out), "--quiet"]) == 0
        _, cols = read_csv(out / "cardinals.csv")
        u0 = numeric(cols, "u0")
        expected = np.zeros(21)
        expected[10] = 1.0
        np.testing.assert_allclose(u0, expected, atol=1e-8)

    def test_nyquist_cardinal_approaches_sinc(self, tmp_path):
        devs = []
        for n in (5, 10):
            cfg = write_config(tmp_path, name=f"cfg{n}.json",
                               nyquist_fraction=1.0, half_count_n=n,
                               grid={"min_s": -1.0, "max_s": 1.0, "count": 161})
            out = tmp_path / f"out{n}"
            assert run_cli(["cardinals", "--config", str(cfg), "--output-dir",
                            str(out), "--quiet"]) == 0
            _, cols = read_csv(out / "cardinals.csv")
            devs.append(np.max(np.abs(numeric(cols, "u0")
                                      - numeric(cols, "sinc_ref"))))
        assert devs[1] < devs[0] < 0.05

    def test_half_nyquist_lowpass_oscillation(self, tmp_path):
        # the weighted cardinal must oscillate less than the uniform-weight
        # one (sign changes) and carry less total variation than sinc
        cfg = write_config(tmp_path,
                           grid={"min_s": -5.0, "max_s": 5.0, "count": 801})
        out = tmp_path / "out"
        assert run_cli(["cardinals", "--config", str(cfg), "--output-dir",
                        str(out), "--quiet"]) == 0
        _, cols = read_csv(out / "cardinals.csv")
        u0 = numeric(cols, "u0")
        u0_uniform = numeric(cols, "u0_uniform")
        sinc_ref = numeric(cols, "sinc_ref")
        assert sign_changes(u0) < sign_changes(u0_uniform)
        tv = lambda v: np.sum(np.abs(np.diff(v)))
        assert tv(u0) < tv(sinc_ref)
        assert tv(u0) < tv(u0_uniform)


class TestBoundsCommand:
    def test_uniform_critical_matches_classical_formula(self, tmp_path):
        from bandlim import sample_signal, AnalyticSignal
        cfg = write_config(tmp_path, nyquist_fraction=1.0,
                           weights={"uniform": True}, ball_radius=4.0,
                           grid={"min_s": -3.0, "max_s": 3.0, "count": 101})
        out = tmp_path / "out"
        assert run_cli(["bounds", "--config", str(cfg), "--output-dir",
                        str(out), "--quiet"]) == 0
        _, cols = read_csv(out / "bounds.csv")
        samples = sample_signal(AnalyticSignal.lowfreq(1.0), 0.5, 10)
        np.testing.assert_allclose(numeric(cols, "bound"),
                                   classical_bound(samples, 4.0, np.linspace(-3, 3, 101)),
                                   atol=1e-8)

    def test_missing_radius_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path)
        assert run_cli(["bounds", "--config", str(cfg), "--output-dir",
                        str(tmp_path / "o"), "--quiet"]) == 2

    def test_infeasible_ball_is_numerical_failure(self, tmp_path):
        # a radius below the interpolant norm cannot admit any truth
        cfg = write_config(tmp_path, ball_radius=1e-6)
        out = tmp_path / "o"
        assert run_cli(["bounds", "--config", str(cfg), "--output-dir",
                        str(out), "--quiet"]) == 3
        assert not out.exists() or not list(out.iterdir())


@pytest.mark.parametrize("command,overrides", [
    ("compare", {"bandwidth_hz": 0}),
    ("mc", {"bandwidth_hz": 0}),
    ("compare", {"bandwidth_hz": -1}),
    ("compare", {"half_count_n": -1}),
    ("kernel", {"weights": {"matched": {"degree_k": -1}}}),
    ("fit", {"fit": {"density_csv": "density.csv", "half_count_m": -1}}),
    ("fit", {"fit": {"density_csv": "density.csv", "floor_alpha": -1.0}}),
    ("bounds", {"ball_radius": float("nan")}),
    ("bounds", {"ball_radius": float("inf")}),
    ("bounds", {"ball_radius": -6.0}),
    ("compare", {"ridge_sigma2": float("nan")}),
    ("kernel", {"weights": {"matched": True}}),
    *[("fit", {"fit": {"density_csv": "density.csv", "floor_alpha": bad}})
      for bad in (True, "1e-6", None)],
    *[("fit", {"fit": {"density_csv": "density.csv",
                       "transform": {"kind": "power", "p": 3.0, "eps": 1e-6, key: bad}}})
      for key in ("p", "eps") for bad in (True, "1e-6", None)],
])
def test_invalid_values_are_config_errors(tmp_path, capsys, command, overrides):
    om = np.linspace(-2 * np.pi, 2 * np.pi, 201)
    (tmp_path / "density.csv").write_text(
        "omega,value\n" + "".join(f"{o!r},1.0\n" for o in om.tolist()))
    cfg = write_config(tmp_path, **{"ball_radius": 10.0,
                                    "mc": {"realizations": 4}, **overrides})
    out = tmp_path / "out"
    assert run_cli([command, "--config", str(cfg), "--output-dir", str(out),
                    "--quiet"]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not out.exists() or not list(out.iterdir())


@pytest.mark.parametrize("command", ["kernel", "compare", "cardinals", "bounds",
                                     "mc", "fit"])
@pytest.mark.parametrize("bandwidth", [float("inf"), float("nan")])
def test_non_finite_bandwidth_names_the_key(tmp_path, capsys, command, bandwidth):
    # checked before anything computes with it: no RuntimeWarning on the way
    cfg = write_config(tmp_path, bandwidth_hz=bandwidth, ball_radius=10.0,
                       mc={"realizations": 4}, fit={"density_csv": "density.csv"})
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run_cli([command, "--config", str(cfg), "--output-dir", str(out),
                        "--quiet"]) == 2
    assert capsys.readouterr().err == (
        f"config error: bandwidth_hz must be positive and finite, got {bandwidth}\n")
    assert not out.exists() or not list(out.iterdir())


COMMAND_OUTPUTS = {"kernel": ("csv",), "compare": ("csv", "summary"), "cardinals": ("csv",),
                   "bounds": ("csv",), "mc": ("csv",), "fit": ("weights",)}


def _every_command_config(tmp_path, **overrides):
    om = np.linspace(-2 * np.pi, 2 * np.pi, 201)
    (tmp_path / "density.csv").write_text(
        "omega,value\n" + "".join(f"{o!r},1.0\n" for o in om.tolist()))
    return write_config(tmp_path, ball_radius=10.0, mc={"realizations": 4},
                        fit={"density_csv": "density.csv"}, **overrides)


@pytest.mark.parametrize("command", list(COMMAND_OUTPUTS))
def test_output_dir_under_a_file_is_config_error(tmp_path, capsys, command):
    cfg = _every_command_config(tmp_path)
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    assert run_cli([command, "--config", str(cfg), "--output-dir", str(blocker / "sub"),
                    "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "Not a directory" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["blocker", "cfg.json", "density.csv"]


@pytest.mark.parametrize("command, role", [(command, role) for command, roles in
                                           COMMAND_OUTPUTS.items() for role in roles])
def test_output_file_that_cannot_be_opened_is_config_error(tmp_path, capsys, command, role):
    # the output name is taken by a directory
    cfg = _every_command_config(tmp_path, output={role: "taken"})
    out = tmp_path / "out"
    (out / "taken").mkdir(parents=True)
    assert run_cli([command, "--config", str(cfg), "--output-dir", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "Is a directory" in err
    # compare writes its summary before its CSV
    assert {p.name for p in out.iterdir()} <= {"taken", "compare_summary.json"}


@pytest.mark.parametrize("role", ["csv", "summary"])
def test_compare_that_cannot_write_one_output_leaves_neither(tmp_path, capsys, role):
    # compare once wrote its summary, failed to open its CSV and left the summary
    cfg = write_config(tmp_path, output={role: "taken"})
    out = tmp_path / "out"
    (out / "taken").mkdir(parents=True)
    assert run_cli(["compare", "--config", str(cfg), "--output-dir", str(out), "--quiet"]) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert [p.name for p in out.iterdir()] == ["taken"]
    assert not list((out / "taken").iterdir())


def test_compare_replaces_earlier_outputs(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    (out / "compare.csv").write_text("old")
    (out / "compare_summary.json").write_text("old")
    assert run_cli(["compare", "--config", str(cfg), "--output-dir", str(out), "--quiet"]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["compare.csv", "compare_summary.json"]
    assert json.loads((out / "compare_summary.json").read_text())["errors"]
    assert (out / "compare.csv").read_text().startswith("t,truth,")


USAGE_ERRORS = {
    "missing --config": ["kernel", "--output-dir", "{out}"],
    "unknown subcommand": ["kernels", "--config", "{cfg}", "--output-dir", "{out}"],
    "no subcommand": [],
    "non-integer --seed": ["kernel", "--config", "{cfg}", "--output-dir", "{out}",
                           "--seed", "x"],
    "prefix of --config": ["kernel", "--conf", "{cfg}", "--output-dir", "{out}"],
}


@pytest.mark.parametrize("case", sorted(USAGE_ERRORS))
def test_usage_errors_exit_2_without_output(tmp_path, capsys, case):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    argv = [arg.format(cfg=cfg, out=out) for arg in USAGE_ERRORS[case]]
    assert run_cli(argv) == 2
    assert capsys.readouterr().err.startswith("usage: bandlim")
    assert not out.exists()


@pytest.mark.parametrize("command", list(COMMAND_OUTPUTS))
def test_output_dir_that_is_a_file_is_config_error(tmp_path, capsys, command):
    cfg = _every_command_config(tmp_path)
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    assert run_cli([command, "--config", str(cfg), "--output-dir", str(blocker),
                    "--quiet"]) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["blocker", "cfg.json", "density.csv"]
    assert blocker.read_text() == ""


def test_help_names_every_subcommand(capsys):
    assert run_cli(["--help"]) == 0
    text = capsys.readouterr().out
    for command in COMMAND_OUTPUTS:
        assert re.search(rf"^ +{command} ", text, re.MULTILINE), command


def test_subcommand_help_lists_its_options(capsys):
    assert run_cli(["kernel", "--help"]) == 0
    text = capsys.readouterr().out
    for option in ("--config", "--output-dir", "--seed", "--quiet"):
        assert option in text


def test_cli_import_loads_no_click_module():
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys, bandlim.cli; print(*sorted(m for m in sys.modules if m.startswith('click')))"
    path = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
    result = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                            capture_output=True, text=True, check=True)
    assert result.stdout == "\n"


@pytest.mark.parametrize("command, key, overrides", [
    ("kernel", "weights.path", {"weights": {"path": 5}}),
    ("fit", "fit.density_csv", {"fit": {"density_csv": ["density.csv"]}}),
])
def test_non_string_paths_name_the_key(tmp_path, capsys, command, key, overrides):
    # a number or a list here once ended in a TypeError traceback and exit 1
    cfg = write_config(tmp_path, **overrides)
    out = tmp_path / "out"
    assert run_cli([command, "--config", str(cfg), "--output-dir", str(out), "--quiet"]) == 2
    value = json.loads(cfg.read_text())[key.split(".")[0]][key.split(".")[1]]
    assert capsys.readouterr().err == (
        f"config error: {key} must be a path string, got {value!r}\n")
    assert not out.exists()


def test_negative_matched_half_count_names_the_key(tmp_path, capsys):
    cfg = write_config(tmp_path, weights={"matched": {"half_count_m": -1}})
    out = tmp_path / "out"
    assert run_cli(["kernel", "--config", str(cfg), "--output-dir", str(out),
                    "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: matched weights invalid:")
    assert "half_count_M must be >= 0, got -1" in err
    assert not out.exists() or not list(out.iterdir())


@pytest.mark.parametrize("command", ["kernel", "compare", "cardinals", "bounds"])
@pytest.mark.parametrize("min_s, max_s", [(-5.0, float("inf")), (float("-inf"), 5.0),
                                          (float("nan"), 5.0), (-1e308, 1e308)])
def test_non_finite_grid_is_config_error(tmp_path, capsys, command, min_s, max_s):
    # an infinite max_s once wrote rows of nan and inf and exited 0; so does a
    # span that overflows
    cfg = write_config(tmp_path, ball_radius=10.0,
                       grid={"min_s": min_s, "max_s": max_s, "count": 51})
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run_cli([command, "--config", str(cfg), "--output-dir", str(out),
                        "--quiet"]) == 2
    assert capsys.readouterr().err == (
        "config error: grid.min_s, grid.max_s and their span must be finite, "
        f"got {min_s} and {max_s}\n")
    assert not out.exists() or not list(out.iterdir())


# Grids and evaluation times whose span is finite, but at which psi, sinc or
# the signal overflow: beside the (-1e308, 1e308) grid above, these once
# wrote NaN rows (the psi rows, the truth and sinc columns, the mse and stderr)
# and exited 0.
HUGE_GRID = {"grid": {"min_s": 0.0, "max_s": 1e308, "count": 3}}
OVERFLOWING_TIMES = {
    "kernel": ("kernel", HUGE_GRID),
    "compare": ("compare", HUGE_GRID),
    "compare-sinc": ("compare", {**HUGE_GRID, "kinds": ["sinc"]}),
    "cardinals": ("cardinals", HUGE_GRID),
    "bounds": ("bounds", HUGE_GRID),
    "mc": ("mc", {"mc": {"realizations": 4, "eval_time_s": 1e308}}),
}


@pytest.mark.parametrize("case", sorted(OVERFLOWING_TIMES))
def test_overflowing_finite_times_are_config_errors(tmp_path, capsys, case):
    command, overrides = OVERFLOWING_TIMES[case]
    cfg = write_config(tmp_path, ball_radius=10.0, **overrides)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run_cli([command, "--config", str(cfg), "--output-dir", str(out),
                        "--quiet"]) == 2
    assert capsys.readouterr().err.startswith(
        "config error: evaluation times must be finite and at most ")
    assert not out.exists() or not list(out.iterdir())


@pytest.mark.parametrize("command", ["mc", "compare", "bounds", "cardinals"])
def test_spacing_whose_node_times_overflow_is_config_error(tmp_path, capsys, command):
    # T = 5e307: mc once said "at most -inf in magnitude", the others printed
    # numpy's overflow RuntimeWarning from n * T before exiting 2
    cfg = write_config(tmp_path, nyquist_fraction=1e-308, ball_radius=10.0,
                       mc={"realizations": 4})
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run_cli([command, "--config", str(cfg), "--output-dir", str(out),
                        "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err == ("config error: spacing T=5e+307 with half count N=10 puts the node "
                   "times beyond the float range\n")
    assert not out.exists() or not list(out.iterdir())


INTEGER_KEYS = [
    ("compare", "half_count_n", {"half_count_n": 10.7}, "10.7"),
    ("cardinals", "half_count_n", {"half_count_n": True}, "True"),
    ("bounds", "half_count_n", {"half_count_n": float("nan")}, "nan"),
    ("kernel", "grid.count", {"grid": {"min_s": -5.0, "max_s": 5.0, "count": 50.9}},
     "50.9"),
    ("kernel", "grid.count", {"grid": {"min_s": -5.0, "max_s": 5.0, "count": True}},
     "True"),
    ("mc", "mc.realizations", {"mc": {"realizations": True}}, "True"),
    ("mc", "seed", {"seed": 1.5}, "1.5"),
    ("kernel", "weights.matched.degree_k", {"weights": {"matched": {"degree_k": 3.5}}},
     "3.5"),
    ("kernel", "weights.matched.half_count_m",
     {"weights": {"matched": {"half_count_m": False}}}, "False"),
    ("fit", "fit.degree_k", {"fit": {"density_csv": "density.csv", "degree_k": 2.5}},
     "2.5"),
    ("fit", "fit.half_count_m",
     {"fit": {"density_csv": "density.csv", "half_count_m": True}}, "True"),
]


@pytest.mark.parametrize("command, key, overrides, shown", INTEGER_KEYS)
def test_non_integral_integer_keys_name_the_key(tmp_path, capsys, command, key,
                                                overrides, shown):
    # half_count_n 10.7 once ran as N = 10, true as N = 1, and a grid count
    # of 50.9 as 50 points
    om = np.linspace(-2 * np.pi, 2 * np.pi, 201)
    (tmp_path / "density.csv").write_text(
        "omega,value\n" + "".join(f"{o!r},1.0\n" for o in om.tolist()))
    cfg = write_config(tmp_path, **{"ball_radius": 10.0, "mc": {"realizations": 4},
                                    **overrides})
    out = tmp_path / "out"
    assert run_cli([command, "--config", str(cfg), "--output-dir", str(out),
                    "--quiet"]) == 2
    assert capsys.readouterr().err == (
        f"config error: {key} must be an integer, got {shown}\n")
    assert not out.exists() or not list(out.iterdir())


FLOAT_KEYS = [
    ("compare", "bandwidth_hz", lambda v: {"bandwidth_hz": v}),
    ("compare", "nyquist_fraction", lambda v: {"nyquist_fraction": v}),
    ("bounds", "ball_radius", lambda v: {"ball_radius": v}),
    ("kernel", "grid.min_s", lambda v: {"grid": {"min_s": v, "max_s": 5.0, "count": 51}}),
    ("kernel", "grid.max_s", lambda v: {"grid": {"min_s": -5.0, "max_s": v, "count": 51}}),
    ("compare", "ridge_sigma2", lambda v: {"ridge_sigma2": v}),
    ("mc", "mc.eval_time_s", lambda v: {"mc": {"realizations": 4, "eval_time_s": v}}),
    ("kernel", "weights.matched.smoothing_scale",
     lambda v: {"weights": {"matched": {"smoothing_scale": v}}}),
    ("kernel", "weights.matched.power_p", lambda v: {"weights": {"matched": {"power_p": v}}}),
    ("kernel", "weights.matched.power_eps",
     lambda v: {"weights": {"matched": {"power_eps": v}}}),
]


@pytest.mark.parametrize("value", [True, False, "1", None])
@pytest.mark.parametrize("command, key, overrides", FLOAT_KEYS)
def test_non_numeric_float_keys_name_the_key(tmp_path, capsys, command, key, overrides,
                                             value):
    # "nyquist_fraction": true once ran at the critical rate and exited 0
    cfg = write_config(tmp_path, **{"ball_radius": 10.0, **overrides(value)})
    out = tmp_path / "out"
    assert run_cli([command, "--config", str(cfg), "--output-dir", str(out),
                    "--quiet"]) == 2
    assert capsys.readouterr().err == (
        f"config error: {key} must be a number, got {value!r}\n")
    assert not out.exists() or not list(out.iterdir())


def test_integral_float_keys_run_as_floats(tmp_path):
    # JSON may write 1.0 as 1
    outs = []
    for name, bandwidth in (("int", 1), ("float", 1.0)):
        cfg = write_config(tmp_path, name=f"{name}.json", bandwidth_hz=bandwidth,
                           grid={"min_s": -5, "max_s": 5, "count": 201})
        assert run_cli(["compare", "--config", str(cfg), "--output-dir",
                        str(tmp_path / name), "--quiet"]) == 0
        outs.append((tmp_path / name / "compare.csv").read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("value", ["10", None, [10]])
def test_non_numeric_half_count_is_invalid(tmp_path, capsys, value):
    cfg = write_config(tmp_path, half_count_n=value)
    assert run_cli(["compare", "--config", str(cfg), "--output-dir",
                    str(tmp_path / "out"), "--quiet"]) == 2
    assert capsys.readouterr().err == (
        f"config error: half_count_n is invalid: expected an integer, got {value!r}\n")


def test_integral_float_integer_keys_run_as_integers(tmp_path):
    # JSON may write 10 as 10.0
    outs = []
    for name, n, count in (("int", 10, 201), ("float", 10.0, 201.0)):
        cfg = write_config(tmp_path, name=f"{name}.json", half_count_n=n,
                           grid={"min_s": -5.0, "max_s": 5.0, "count": count})
        assert run_cli(["compare", "--config", str(cfg), "--output-dir",
                        str(tmp_path / name), "--quiet"]) == 0
        outs.append((tmp_path / name / "compare.csv").read_bytes())
    assert outs[0] == outs[1]


class TestMCCommand:
    @pytest.mark.parametrize("realizations", [1, 0])
    def test_fewer_than_two_realizations_name_the_key(self, tmp_path, capsys,
                                                      realizations):
        # one draw has no standard error
        cfg = write_config(tmp_path, mc={"realizations": realizations})
        out = tmp_path / "out"
        assert run_cli(["mc", "--config", str(cfg), "--output-dir", str(out),
                        "--quiet"]) == 2
        assert capsys.readouterr().err == (
            f"config error: mc.realizations must be >= 2, got {realizations}\n")
        assert not out.exists() or not list(out.iterdir())

    @pytest.mark.parametrize("realizations", [2.5, 1000.5, float("nan"), float("inf")])
    def test_non_integral_realizations_name_the_key(self, tmp_path, capsys,
                                                    realizations):
        # 2.5 was once truncated to 2 draws
        cfg = write_config(tmp_path, mc={"realizations": realizations})
        out = tmp_path / "out"
        assert run_cli(["mc", "--config", str(cfg), "--output-dir", str(out),
                        "--quiet"]) == 2
        assert capsys.readouterr().err == (
            f"config error: mc.realizations must be an integer, got {realizations}\n")
        assert not out.exists() or not list(out.iterdir())

    def test_unreadable_realizations_name_the_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, mc={"realizations": "many"})
        assert run_cli(["mc", "--config", str(cfg), "--output-dir",
                        str(tmp_path / "out"), "--quiet"]) == 2
        assert capsys.readouterr().err.startswith(
            "config error: mc.realizations is invalid:")

    def test_integral_float_realizations_run_that_many(self, tmp_path):
        outs = []
        for name, realizations in (("int", 60), ("float", 60.0)):
            cfg = write_config(tmp_path, name=f"{name}.json",
                               mc={"realizations": realizations, "eval_time_s": 0.5})
            assert run_cli(["mc", "--config", str(cfg), "--output-dir",
                            str(tmp_path / name), "--quiet"]) == 0
            outs.append((tmp_path / name / "mc.csv").read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("eval_time", [float("nan"), float("inf")])
    def test_non_finite_eval_time_names_the_value(self, tmp_path, capsys, eval_time):
        cfg = write_config(tmp_path, mc={"realizations": 4, "eval_time_s": eval_time})
        out = tmp_path / "out"
        assert run_cli(["mc", "--config", str(cfg), "--output-dir", str(out),
                        "--quiet"]) == 2
        assert capsys.readouterr().err == (
            f"config error: t_eval must be finite, got {eval_time}\n")
        assert not out.exists() or not list(out.iterdir())

    def test_fixed_seed_reproducible(self, tmp_path):
        cfg = write_config(tmp_path, mc={"realizations": 60, "eval_time_s": 0.5})
        outs = []
        for name in ("m1", "m2"):
            out = tmp_path / name
            assert run_cli(["mc", "--config", str(cfg), "--output-dir",
                            str(out), "--quiet"]) == 0
            outs.append((out / "mc.csv").read_bytes())
        assert outs[0] == outs[1]
        header, cols = read_csv(tmp_path / "m1" / "mc.csv")
        assert header == ["kind", "T_over_nyquist", "N", "mse", "stderr"]
        assert set(cols["kind"]) == {"shannon", "uniform_weight",
                                     "matched_weight"}

    def test_uniform_weights_run_the_flat_psd(self, tmp_path):
        # uniform weights are the flat spec, so the PSD is flat and the
        # uniform and matched predictors share the kernel and the draws
        cfg = write_config(tmp_path, weights={"uniform": True},
                           mc={"realizations": 50, "eval_time_s": 0.3})
        out = tmp_path / "out"
        assert run_cli(["mc", "--config", str(cfg), "--output-dir",
                        str(out), "--quiet"]) == 0
        _, cols = read_csv(out / "mc.csv")
        row = {kind: i for i, kind in enumerate(cols["kind"])}
        for column in ("mse", "stderr"):
            assert (cols[column][row["uniform_weight"]]
                    == cols[column][row["matched_weight"]])
        assert float(cols["mse"][row["matched_weight"]]) > 0.0

    def test_seed_flag_overrides(self, tmp_path):
        cfg = write_config(tmp_path, mc={"realizations": 40, "eval_time_s": 0.5})
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert run_cli(["mc", "--config", str(cfg), "--output-dir", str(out1),
                        "--quiet", "--seed", "7"]) == 0
        assert run_cli(["mc", "--config", str(cfg), "--output-dir", str(out2),
                        "--quiet", "--seed", "8"]) == 0
        assert (out1 / "mc.csv").read_bytes() != (out2 / "mc.csv").read_bytes()


class TestFitCommand:
    def test_roundtrip_through_density_emission(self, tmp_path, lowpass_spec):
        # emit the reciprocal weight of a known spec as a density table, refit
        # it, and compare the reciprocal weights at the nodes
        edge = 2 * np.pi * lowpass_spec.bandwidth_B
        om = np.linspace(-edge, edge, 803)[1:-1]
        dens = tmp_path / "density.csv"
        with open(dens, "w") as fh:
            fh.write("omega,value\n")
            for o, v in zip(om, inverse_weight_eval(lowpass_spec, om)):
                fh.write(f"{o:.17g},{v:.17g}\n")
        cfg = write_config(tmp_path, fit={
            "density_csv": "density.csv", "degree_k": 3, "half_count_m": 11,
            "floor_alpha": lowpass_spec.floor_alpha})
        out = tmp_path / "out"
        assert run_cli(["fit", "--config", str(cfg), "--output-dir",
                        str(out), "--quiet"]) == 0
        refit = WeightSpec.load(out / "weights.json")
        np.testing.assert_allclose(inverse_weight_eval(refit, om),
                                   inverse_weight_eval(lowpass_spec, om),
                                   atol=1e-8)

    def test_output_escape_rejected(self, tmp_path):
        cfg = write_config(tmp_path, fit={"density_csv": "density.csv"},
                           output={"weights": "../escape.json"})
        assert run_cli(["fit", "--config", str(cfg), "--output-dir",
                        str(tmp_path / "o"), "--quiet"]) == 2


@pytest.mark.parametrize("bandwidth, expected_code, message", [
    (1.0, 0, "wrote "), ("wide", 2, "config error: ")])
def test_in_process_calls_release_redirected_streams(tmp_path, bandwidth,
                                                     expected_code, message):
    cfg = write_config(tmp_path, bandwidth_hz=bandwidth, weights={"uniform": True})
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        code = run_cli(["kernel", "--config", str(cfg), "--output-dir",
                        str(tmp_path / "out")])
    assert code == expected_code
    assert buf.getvalue().startswith(message)
    ref = weakref.ref(buf)
    del buf
    gc.collect()
    assert ref() is None


def old_write_csv(path, header, columns):
    """Reference: a `csv.writer` row of `.17g` strings per row; `_write_csv`
    must write the same bytes."""
    columns = [np.asarray(col) for col in columns]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in zip(*columns):
            writer.writerow([f"{float(v):.17g}" for v in row])


def special_values(dtype):
    info = np.finfo(dtype)
    return np.array([0.0, -0.0, np.inf, -np.inf, np.nan, info.smallest_subnormal,
                     -info.tiny, 1e22, -info.max, 0.1], dtype=dtype).tolist()


@st.composite
def csv_tables(draw):
    rows = draw(st.integers(0, 50))
    columns = []
    for _ in range(draw(st.integers(1, 6))):
        dtype = draw(st.sampled_from(["float64", "float32", "int64"]))
        if dtype == "int64":
            elements = st.integers(-2**63, 2**63 - 1)
        else:
            elements = (st.floats(width=64 if dtype == "float64" else 32)
                        | st.sampled_from(special_values(dtype)))
        columns.append(draw(arrays(dtype, rows, elements=elements)))
    header = [f"c{i}" for i in range(len(columns) - 1)] + ["last, quoted"]
    return header, columns


@settings(max_examples=200, deadline=None)
@given(csv_tables())
def test_write_csv_bytes_match_per_value_writer(table):
    header, columns = table
    with tempfile.TemporaryDirectory() as tmp:
        new, old = Path(tmp, "new.csv"), Path(tmp, "old.csv")
        _write_csv(new, header, columns)
        old_write_csv(old, header, columns)
        assert new.read_bytes() == old.read_bytes()
