import argparse
import json
import os
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import flowrisk
from flowrisk import cli
from flowrisk.cli import run
from flowrisk.experiments import ExperimentConfig
from flowrisk.linalg import MAX_DOUBLES
from flowrisk.shrinkage import FlowKind, factor_block
from flowrisk.special import bessel_j1


@pytest.fixture
def instance_files(tmp_path):
    rng = np.random.default_rng(6)
    x = rng.standard_normal((20, 4))
    beta0 = rng.standard_normal(4)
    y = x @ beta0 + 0.5 * rng.standard_normal(20)
    xp = tmp_path / "X.csv"
    yp = tmp_path / "y.csv"
    bp = tmp_path / "b0.csv"
    np.savetxt(xp, x, delimiter=",")
    np.savetxt(yp, y.reshape(-1, 1), delimiter=",")
    np.savetxt(bp, beta0.reshape(-1, 1), delimiter=",")
    return xp, yp, bp


def test_shrink_subcommand(capsys):
    assert run(["shrink", "--kind", "nest", "--s", "1.0", "--t", "2.0"]) == 0
    out = capsys.readouterr().out.strip()
    assert float(out) == factor_block(FlowKind.ACCELERATED_FLOW, 1.0, 2.0)[0, 0]


def test_shrink_heavy_ball_needs_mu(capsys):
    assert run(["shrink", "--kind", "hb", "--s", "1.0", "--t", "1.0"]) == 2
    assert "mu" in capsys.readouterr().err


def test_special_eval(capsys):
    assert run(["special-eval", "--fn", "j1", "--x", "1.0"]) == 0
    assert float(capsys.readouterr().out) == bessel_j1(1.0)


def test_python_m_flowrisk_cli_runs_the_command():
    src = Path(flowrisk.__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-m", "flowrisk.cli", "special-eval",
                           "--fn", "j1", "--x", "1"],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert float(done.stdout) == bessel_j1(1.0)


def test_special_eval_unknown_function(capsys):
    assert run(["special-eval", "--fn", "gamma", "--x", "1.0"]) == 2


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, message", [
    (["shrink", "--kind", "hb", "--s", "nan", "--t", "1", "--mu", "0.5"],
     "eigenvalues must be finite and >= 0"),
    (["shrink", "--kind", "gf", "--s", "1", "--t", "inf"],
     "path parameter must be finite and >= 0"),
    (["shrink", "--kind", "hb", "--s", "1", "--t", "1", "--mu", "nan"],
     "heavy-ball flow requires a finite mu > 0"),
    (["special-eval", "--fn", "j1", "--x", "nan"],
     "bessel_j1 requires finite input"),
    (["special-eval", "--fn", "j1-ratio", "--x", "inf"],
     "j1_ratio requires finite input"),
    (["shrink", "--kind", "hb", "--s", "1e308", "--t", "1e155", "--mu", "5e-324"],
     "heavy-ball argument t sqrt(s - mu) overflows"),
])
def test_shrink_and_special_eval_refuse_non_finite_numbers(argv, message,
                                                           capsys):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and _one_error_line(captured.err)
    assert f"error: {message}" in captured.err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", ["gf", "nest", "hb"])
@pytest.mark.parametrize("s, t", [("1e300", "1e300"), ("9", "1e308")])
def test_shrink_prints_the_limit_of_an_overflowing_argument(kind, s, t, capsys):
    assert run(["shrink", "--kind", kind, "--s", s, "--t", t, "--mu", "1"]) == 0
    assert capsys.readouterr() == ("0\n", "")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("s, t", [("1e308", "1e308"), ("1e308", "1.7e308"),
                                  ("1.7976931348623157e308", "1e292")])
def test_shrink_ridge_where_s_plus_lambda_overflows(s, t, capsys):
    # an overflow RuntimeWarning is an exception here, which run does not
    # catch
    assert run(["shrink", "--kind", "ridge", "--s", s, "--t", t]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    exact = Fraction(float(t)) / (Fraction(float(s)) + Fraction(float(t)))
    assert float(captured.out) == pytest.approx(float(exact), rel=3e-16, abs=0)


def test_estimate_matches_library(capsys, instance_files):
    from flowrisk.estimators import estimate
    from flowrisk.linalg import attach_response, design_decompose
    xp, yp, _ = instance_files
    x = np.loadtxt(xp, delimiter=",")
    y = np.loadtxt(yp, delimiter=",")
    d = attach_response(design_decompose(x), x, y)
    for kind in FlowKind:
        assert run(["estimate", "--kind", kind.value, "--t", "0.3",
                    "--design", str(xp), "--response", str(yp)]) == 0
        printed = np.array([float(v) for v in capsys.readouterr().out.split()])
        assert np.array_equal(printed, estimate(d, kind, [0.3])[0])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", ["gf", "nest", "hb", "ridge"])
def test_estimate_refuses_a_nan_parameter_for_every_family(
        capsys, instance_files, kind):
    xp, yp, _ = instance_files
    assert run(["estimate", "--kind", kind, "--t", "nan", "--design", str(xp),
                "--response", str(yp)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert _one_error_line(captured.err)
    assert "error: path parameter must be finite and >= 0" in captured.err


@pytest.mark.filterwarnings("error")
def test_estimate_refuses_a_nan_response(capsys, instance_files):
    xp, yp, _ = instance_files
    y = np.loadtxt(yp, delimiter=",")
    y[3] = np.nan
    np.savetxt(yp, y.reshape(-1, 1), delimiter=",")
    assert run(["estimate", "--kind", "nest", "--t", "1", "--design", str(xp),
                "--response", str(yp)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and _one_error_line(captured.err)
    assert "response has non-finite entries" in captured.err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind, t", [("gf", "1e300"), ("nest", "1e300"),
                                     ("hb", "1e300"), ("ridge", "0")])
def test_estimate_refuses_a_coefficient_past_the_largest_double(
        tmp_path, capsys, kind, t):
    # s = 1e-200 and c = 1e150: the least-squares coefficient c / s is 1e350
    xp, yp = tmp_path / "X.csv", tmp_path / "y.csv"
    xp.write_text("1e-100\n")
    yp.write_text("1e250\n")
    assert run(["estimate", "--kind", kind, "--t", t, "--design", str(xp),
                "--response", str(yp)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and _one_error_line(captured.err)
    assert f"error: a {kind} coefficient passes the largest double" in \
        captured.err
    # a parameter whose coefficient is finite still prints it
    assert run(["estimate", "--kind", kind, "--t", "1", "--design", str(xp),
                "--response", str(yp)]) == 0
    assert np.isfinite(float(capsys.readouterr().out))


def test_estimate_ridge_at_zero_penalty_needs_full_rank(tmp_path, capsys):
    rng = np.random.default_rng(2)
    xp, yp = tmp_path / "X.csv", tmp_path / "y.csv"
    np.savetxt(xp, rng.standard_normal((3, 5)), delimiter=",")
    np.savetxt(yp, rng.standard_normal((3, 1)), delimiter=",")
    assert run(["estimate", "--kind", "ridge", "--t", "0", "--design", str(xp),
                "--response", str(yp)]) == 2
    assert "error: lambda = 0 requires a full-rank spectrum" in \
        capsys.readouterr().err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command, flag, shape", [
    ("estimate", "--response", (10, 2)),
    ("risk-curve", "--beta0", (2, 2)),
])
def test_a_vector_file_holding_a_matrix_is_refused(tmp_path, capsys,
                                                   instance_files, command,
                                                   flag, shape):
    # flattened, each matrix would have the length the 20 x 4 design asks for
    xp, _, _ = instance_files
    mp = tmp_path / "m.csv"
    np.savetxt(mp, np.arange(1.0, 1.0 + np.prod(shape)).reshape(shape),
               delimiter=",")
    argv = [command, "--kind", "gf", "--design", str(xp), flag, str(mp)]
    argv += ["--t", "1"] if command == "estimate" else ["--grid", "0.1,10,5"]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and _one_error_line(captured.err)
    assert f"error: {mp} holds a {shape[0]} x {shape[1]} matrix" in captured.err


def test_risk_curve_schema_and_roundtrip(tmp_path, instance_files, capsys):
    xp, _, bp = instance_files
    out = tmp_path / "curve.csv"
    assert run(["risk-curve", "--design", str(xp), "--kind", "gf",
                "--grid", "0.01,10,5", "--beta0", str(bp),
                "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "kind,param,bias_sq,variance,risk"
    for ln in lines[1:]:
        kind, param, bias, var, risk = ln.split(",")
        assert kind == "gf"
        assert float(risk) == float(bias) + float(var)


def test_risk_curve_stdout_matches_out_file(tmp_path, instance_files, capsys):
    xp, _, bp = instance_files
    argv = ["risk-curve", "--design", str(xp), "--kind", "hb",
            "--grid", "0.01,10,7", "--beta0", str(bp)]
    out = tmp_path / "curve.csv"
    out.write_text("an older, longer file\n" * 100)  # rewritten, not refused
    assert run(argv + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert run(argv) == 0
    assert capsys.readouterr().out.encode() == out.read_bytes()


def test_risk_curve_bayes_requires_r2(instance_files, capsys):
    xp, _, _ = instance_files
    assert run(["risk-curve", "--design", str(xp), "--kind", "gf",
                "--grid", "0.1,1,3", "--bayes"]) == 2
    assert "r2" in capsys.readouterr().err


def _one_error_line(err):
    lines = err.splitlines()
    return len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize(("case", "message"), [
    ("a-directory", "is a directory"),
    ("under-a-file", "which is not a directory"),
    ("in-a-missing-directory", "which does not exist")])
def test_risk_curve_refuses_an_out_it_cannot_write_before_any_work(
        tmp_path, capsys, monkeypatch, case, message):
    def no_work(*args, **kwargs):
        raise AssertionError("the command started its work")

    monkeypatch.setattr(cli, "read_matrix_csv", no_work)
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    out = {"a-directory": tmp_path / "outdir",
           "under-a-file": taken / "curve.csv",
           "in-a-missing-directory": tmp_path / "missing" / "curve.csv"}[case]
    if case == "a-directory":
        out.mkdir()
    before = sorted(tmp_path.rglob("*"))
    assert run(["risk-curve", "--design", str(tmp_path / "X.csv"),
                "--kind", "gf", "--grid", "0.1,1,3", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and _one_error_line(captured.err)
    assert captured.err.startswith(f"error: --out {str(out)!r}")
    assert message in captured.err
    assert sorted(tmp_path.rglob("*")) == before
    assert taken.read_text() == "kept\n"


@pytest.mark.parametrize(("argv", "message"), [
    (["risk-curve", "--kind", "bogus", "--grid", "0.1,1,5", "--beta0", "b.csv"],
     "unknown flow kind 'bogus'"),
    (["risk-curve", "--kind", "gf", "--grid", "0.1,1", "--beta0", "b.csv"],
     "grid must be lo,hi,count[,log|linear]"),
    (["risk-curve", "--kind", "gf", "--grid", "1,0.1,5", "--beta0", "b.csv"],
     "log grid requires 0 < lo < hi"),
    (["risk-curve", "--kind", "gf", "--grid", "0.1,1,5", "--bayes"],
     "config key 'r2' is missing (required with --bayes)"),
    (["risk-curve", "--kind", "gf", "--grid", "0.1,1,5"],
     "config key 'beta0' is missing (fixed-signal curves)"),
    (["risk-curve", "--kind", "gf", "--grid", "0.1,1,5", "--bayes",
      "--r2", "-1"], "prior mode requires a finite r_sq > 0, got -1.0"),
    (["risk-curve", "--kind", "gf", "--grid", "0.1,1,5", "--beta0", "b.csv",
      "--sigma2", "0"], "sigma_sq must be positive and finite, got 0.0"),
    (["estimate", "--kind", "bogus", "--t", "1"], "unknown flow kind 'bogus'"),
    (["estimate", "--kind", "ridge", "--t", "-1"],
     "path parameter must be finite and >= 0"),
    (["estimate", "--kind", "nest", "--t", "inf"],
     "path parameter must be finite and >= 0"),
])
def test_usage_errors_are_refused_before_any_input_is_read(
        tmp_path, capsys, monkeypatch, argv, message):
    def no_work(*args, **kwargs):
        raise AssertionError("the command read its input")

    monkeypatch.setattr(cli, "read_matrix_csv", no_work)
    monkeypatch.setattr(cli, "read_vector_csv", no_work)
    argv = argv + ["--design", str(tmp_path / "X.csv")]
    if argv[0] == "estimate":
        argv += ["--response", str(tmp_path / "y.csv")]
    assert run(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.filterwarnings("error")
def test_risk_curve_refuses_a_design_whose_gram_overflows(tmp_path, capsys):
    # X'X/n = 1e308 everywhere, whose spectrum [0, 2e308] would otherwise be
    # clamped to [0, 0] and give a finite curve
    xp, bp = tmp_path / "X.csv", tmp_path / "b0.csv"
    xp.write_text("1e154,1e154\n")
    bp.write_text("1\n1\n")
    assert run(["risk-curve", "--design", str(xp), "--kind", "gf",
                "--grid", "0.1,1,3", "--beta0", str(bp)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and _one_error_line(captured.err)
    assert "X'X/n or its norm overflows" in captured.err


@pytest.mark.filterwarnings("error")
def test_risk_curve_refuses_a_variance_past_the_largest_double(tmp_path, capsys):
    # X'X/n = I/2 and sigma^2/n = 5e307: where the gf factors reach 0 the
    # variance is 4 x 5e307
    xp = tmp_path / "X.csv"
    xp.write_text("1,0\n0,1\n")
    assert run(["risk-curve", "--design", str(xp), "--kind", "gf", "--grid",
                "0.01,1000,3", "--bayes", "--r2", "1", "--sigma2", "1e308"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and _one_error_line(captured.err)
    assert captured.err == "error: a gf variance passes the largest double\n"


@pytest.mark.filterwarnings("error")
def test_risk_curve_refuses_a_gram_with_inf_and_finite_entries(tmp_path, capsys):
    # X'X/n = [[inf, 1.4e308], [1.4e308, 1e308]]: refused before scaling
    # by 2^k, which at an infinite maximum would double the matrix
    xp, bp = tmp_path / "X.csv", tmp_path / "b0.csv"
    xp.write_text("1.4e154,1e154\n")
    bp.write_text("1\n1\n")
    assert run(["risk-curve", "--design", str(xp), "--kind", "gf",
                "--grid", "0.1,1,3", "--beta0", str(bp)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and _one_error_line(captured.err)
    assert "X'X/n or its norm overflows" in captured.err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("empty", ["design", "beta0", "response"])
@pytest.mark.parametrize("text", ["", "\n\n"], ids=["empty", "blank-lines"])
def test_empty_csv_input_exits_2_without_warning(tmp_path, instance_files,
                                                 capsys, empty, text):
    xp, yp, bp = instance_files
    blank = tmp_path / "blank.csv"
    blank.write_text(text)
    files = {"design": xp, "beta0": bp, "response": yp}
    files[empty] = blank
    if empty == "response":
        argv = ["estimate", "--design", str(files["design"]), "--response",
                str(files["response"]), "--kind", "ridge", "--t", "0.5"]
    else:
        argv = ["risk-curve", "--design", str(files["design"]), "--kind", "gf",
                "--grid", "0.1,1,3", "--beta0", str(files["beta0"])]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert _one_error_line(err) and "contains no data" in err


@pytest.mark.filterwarnings("error")
def test_risk_curve_refuses_an_oversized_grid_before_allocating(instance_files,
                                                               capsys):
    xp, _, bp = instance_files
    assert run(["risk-curve", "--design", str(xp), "--kind", "gf", "--grid",
                "0.1,1,100000000000", "--beta0", str(bp)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and _one_error_line(captured.err)
    assert "grid of 100000000000 points exceeds 67108864 doubles" in captured.err


def test_risk_curve_grid_count_may_be_an_integral_float(tmp_path,
                                                      instance_files):
    xp, _, bp = instance_files
    written = []
    for count in ("1000", "1e3"):
        out = tmp_path / f"{count}.csv"
        assert run(["risk-curve", "--design", str(xp), "--kind", "gf",
                    "--grid", f"0.1,10,{count}", "--beta0", str(bp),
                    "--out", str(out)]) == 0
        written.append(out.read_bytes())
    assert written[0] == written[1] and written[0].count(b"\n") == 1001


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("grid, message", [
    ("0.1,10,5.5", "--grid count must be an integer, got '5.5'"),
    ("0.1,10,inf", "--grid count must be an integer, got 'inf'"),
    ("abc,10,5", "--grid lo must be a number, got 'abc'"),
    (",,5", "--grid lo must be a number, got ''"),
    ("0.1,x,5", "--grid hi must be a number, got 'x'"),
])
def test_risk_curve_names_the_malformed_grid_part(instance_files, capsys,
                                                  grid, message):
    xp, _, bp = instance_files
    assert run(["risk-curve", "--design", str(xp), "--kind", "gf",
                "--grid", grid, "--beta0", str(bp)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and _one_error_line(captured.err)
    assert f"error: {message}" in captured.err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("extra, key", [
    (["--grid", "0.1,inf,5", "--beta0"], "grid bounds 0.1, inf must be finite"),
    (["--sigma2", "nan", "--grid", "0.1,1,5", "--beta0"], "sigma_sq"),
    (["--sigma2", "inf", "--grid", "0.1,1,5", "--beta0"], "sigma_sq"),
    (["--bayes", "--r2", "nan", "--grid", "0.1,1,5", "--beta0"], "r_sq"),
], ids=["grid-inf", "sigma2-nan", "sigma2-inf", "r2-nan"])
def test_risk_curve_refuses_a_non_finite_number(instance_files, capsys, extra,
                                                key):
    xp, _, bp = instance_files
    assert run(["risk-curve", "--design", str(xp), "--kind", "gf"]
               + extra + [str(bp)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and _one_error_line(captured.err)
    assert key in captured.err


@pytest.mark.filterwarnings("error")
def test_simulate_refuses_an_oversized_grid_before_allocating(tmp_path, capsys):
    config = {
        "design": [{"family": "IidGaussian", "n": 20, "p": 4, "seed": 0}],
        "snr": 1.0,
        "flows": ["gf"],
        "t_grid": {"lo": 0.01, "hi": 100.0, "count": 10 ** 11, "log": True},
        "ridge_grid": {"lo": 1e-4, "hi": 100.0, "count": 20, "log": True},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert run(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert _one_error_line(err) and "t_grid is invalid" in err
    assert not out.exists()


@pytest.mark.filterwarnings("error")
def test_simulate_refuses_an_oversized_design_before_allocating(tmp_path, capsys):
    config = {
        "design": [{"family": "IidGaussian", "n": 10 ** 6, "p": 10 ** 6,
                    "seed": 0}],
        "snr": 1.0,
        "flows": ["gf"],
        "t_grid": {"lo": 0.01, "hi": 100.0, "count": 20, "log": True},
        "ridge_grid": {"lo": 1e-4, "hi": 100.0, "count": 20, "log": True},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert run(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert _one_error_line(err) and "design.n" in err and "design.p" in err
    assert not out.exists()


@pytest.mark.filterwarnings("error")
def test_simulate_refuses_a_power_law_that_underflows(tmp_path, capsys):
    config = {
        "design": [{"family": "PowerLaw", "nu": 1e6, "n": 20, "p": 4,
                    "seed": 0}],
        "snr": 1.0,
        "flows": ["gf", "hb"],
        "t_grid": {"lo": 0.01, "hi": 100.0, "count": 20, "log": True},
        "ridge_grid": {"lo": 1e-4, "hi": 100.0, "count": 20, "log": True},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert run(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and _one_error_line(captured.err)
    assert "design.nu" in captured.err and "Warning" not in captured.err
    assert not out.exists()


def test_oracle_check_passes_tolerance(capsys):
    code = run(["oracle-check", "--kind", "nest", "--p", "4", "--seed", "3",
                "--step", "0.005", "--t-end", "10", "--tol", "1e-6"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["sup_error"] <= 1e-6


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("flag, value, message", [
    ("--t-end", "inf", "t_grid must be finite"),
    ("--t-end", "nan", "t_grid must be finite"),
    ("--step", "nan", "step must be finite"),
    ("--t-end", "1e15", "t_end / step = 1e+18 steps x 5 coordinates exceeds"),
    ("--tol", "nan", "--tol must be finite and >= 0, got nan"),
    ("--tol", "inf", "--tol must be finite and >= 0, got inf"),
    ("--tol", "-1", "--tol must be finite and >= 0, got -1.0"),
    ("--p", "0", "--p must be >= 1, got 0"),
    ("--grid-count", "-5", "--grid-count must be >= 1, got -5"),
])
def test_oracle_check_rejects_non_finite_input(capsys, flag, value, message):
    assert run(["oracle-check", "--kind", "gf", flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and _one_error_line(captured.err)
    assert f"error: {message}" in captured.err


def test_oracle_check_fails_a_tolerance_it_exceeds(capsys):
    code = run(["oracle-check", "--kind", "gf", "--p", "2", "--step", "0.1",
                "--t-end", "1", "--grid-count", "3", "--tol", "0"])
    captured = capsys.readouterr()
    assert code == 1 and captured.err == ""
    assert json.loads(captured.out)["sup_error"] > 0.0   # the report stays


def test_oracle_check_takes_the_largest_seed(capsys):
    assert run(["oracle-check", "--kind", "gf", "--p", "2", "--step", "0.1",
                "--t-end", "1", "--grid-count", "3",
                "--seed", str(2 ** 64 - 1)]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 2 ** 64 - 1


def _sweep_config(path, **fields):
    config = {"design": [{"family": "IidGaussian", "n": 20, "p": 4,
                          "seed": 0}],
              "snr": 1.0, "flows": ["gf"],
              "t_grid": {"lo": 0.01, "hi": 100.0, "count": 5},
              "ridge_grid": {"lo": 1e-4, "hi": 100.0, "count": 5}} | fields
    path.write_text(json.dumps(config))
    return str(path)


@pytest.mark.parametrize(("case", "message"), [
    ("beta0-length", "beta0 length does not match the design"),
    ("oracle-check-ridge", "oracle-check covers the three flows"),
    ("oracle-check-seed-negative",
     "--seed must be an integer in [0, 2^64), got -1"),
    ("oracle-check-seed-2^64",
     "--seed must be an integer in [0, 2^64), got 18446744073709551616"),
    ("simulate-seed-2^64+1",
     "design.seed must be an integer in [0, 2^64), got 18446744073709551617"),
    ("simulate-no-output-dir",
     "config key 'output_dir' is missing (or pass --out)"),
])
def test_refusals_exit_2_with_one_error_line(tmp_path, capsys, instance_files,
                                             case, message):
    xp, _, _ = instance_files
    short = tmp_path / "b3.csv"
    short.write_text("1\n2\n3\n")
    oracle = ["oracle-check", "--kind", "gf", "--p", "2", "--t-end", "1"]
    argv = {
        "beta0-length": ["risk-curve", "--design", str(xp), "--kind", "gf",
                         "--grid", "0.1,1,3", "--beta0", str(short)],
        "oracle-check-ridge": ["oracle-check", "--kind", "ridge"],
        "oracle-check-seed-negative": oracle + ["--seed", "-1"],
        "oracle-check-seed-2^64": oracle + ["--seed", str(2 ** 64)],
        "simulate-seed-2^64+1": [
            "simulate", "--out", str(tmp_path / "out"), "--config",
            _sweep_config(tmp_path / "seed.json", design=[
                {"family": "IidGaussian", "n": 20, "p": 4,
                 "seed": 2 ** 64 + 1}])],
        "simulate-no-output-dir": [
            "simulate", "--config", _sweep_config(tmp_path / "cfg.json")],
    }[case]
    before = sorted(tmp_path.rglob("*"))
    assert run(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("flag", ["--grid-count", "--p"])
def test_oracle_check_refuses_an_oversized_count_before_allocating(flag, capsys):
    count = MAX_DOUBLES + 1
    tracemalloc.start()
    try:
        code = run(["oracle-check", "--kind", "gf", flag, str(count)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and _one_error_line(captured.err)
    assert f"{flag} {count} exceeds {MAX_DOUBLES} doubles" in captured.err
    assert peak < 1 << 20    # the 512 MiB array was never built


def test_simulate_heavy_ball_skip_warning_on_stderr(tmp_path, capsys):
    # n < p puts a zero at the bottom of the spectrum, so heavy ball is
    # skipped; the warning reaches stderr and nothing of it the outputs
    config = {
        "design": [{"family": "IidGaussian", "n": 10, "p": 20, "seed": 5}],
        "snr": 1.0,
        "flows": ["gf", "hb"],
        "t_grid": {"lo": 0.01, "hi": 100.0, "count": 20, "log": True},
        "ridge_grid": {"lo": 1e-4, "hi": 100.0, "count": 20, "log": True},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert run(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert "WARNING: skipping heavy ball" in err
    assert "smallest eigenvalue is 0" in err
    files = {p.name: p.read_bytes() for p in out.iterdir()}
    assert sorted(files) == ["gaussian_gf.csv", "manifest.json"]
    assert run(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert "skipping heavy ball" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == files


def test_simulate_has_no_seed_override(tmp_path, capsys):
    # each design draws from its own seed; one seed for all of them would
    # give the two Orthogonal designs of this config one basis and signal
    config = Path(__file__).parent.parent / "demos" / "matrix_family_sweep.json"
    assert run(["simulate", "--config", str(config), "--seed", "5",
                "--out", str(tmp_path / "out")]) == 2
    assert "unrecognized arguments: --seed 5" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_readme_command_lines_name_every_subcommand():
    text = (Path(__file__).parent.parent / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```bash\n", 1)[1]
    named = [line.split()[1] for line in block.split("```", 1)[0].splitlines()
             if line.startswith("flowrisk ")]
    (commands,) = (action.choices for action in cli.build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction))
    assert named == list(commands)
    # every --flag on a README command line, bracketed or not, is an option
    # of that line's subcommand; a comment after # is not part of the line
    for block in re.findall(r"```bash\n(.*?)```", text, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if not line.startswith("flowrisk "):
                continue
            words = re.sub(r"[\[\]]", " ", line.split("#", 1)[0]).split()
            options = commands[words[1]]._option_string_actions
            flags = {w.split("=", 1)[0] for w in words if w.startswith("--")}
            assert flags <= options.keys(), (line, sorted(flags - options.keys()))


def test_simulate_writes_one_curve_per_flow(tmp_path, capsys):
    config = {
        "design": [{"family": "PowerLaw", "C": 1.0, "nu": 1.0, "n": 100,
                    "p": 20, "seed": 2}],
        "snr": 1.0,
        "flows": ["gf", "nest"],
        "t_grid": {"lo": 0.01, "hi": 100.0, "count": 40, "log": True},
        "ridge_grid": {"lo": 1e-4, "hi": 100.0, "count": 40, "log": True},
        "output_dir": str(tmp_path / "out"),
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    assert run(["simulate", "--config", str(cfg_path)]) == 0
    assert len(list((tmp_path / "out").glob("*.csv"))) == 2


def test_simulate_refuses_a_config_nested_past_the_recursion_limit(tmp_path,
                                                                   capsys):
    # json raises RecursionError, a RuntimeError, which would exit 1
    config = tmp_path / "cfg.json"
    config.write_text("[" * 200000 + "]" * 200000)
    out = tmp_path / "out"
    assert run(["simulate", "--config", str(config), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and _one_error_line(captured.err)
    assert captured.err.startswith("error: config is not valid JSON")
    assert not out.exists()


def test_simulate_refuses_a_config_that_is_not_utf8(tmp_path, capsys):
    # a UTF-16 file with its byte-order mark ff fe
    config = tmp_path / "cfg.json"
    config.write_bytes(b"\xff\xfe" + "{}".encode("utf-16-le"))
    out = tmp_path / "out"
    assert run(["simulate", "--config", str(config), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and _one_error_line(captured.err)
    assert captured.err.startswith("error: config is not valid JSON: 'utf-8' "
                                   "codec can't decode byte 0xff")
    assert not out.exists()


def test_a_config_is_read_as_utf8_whatever_the_locale(tmp_path, monkeypatch):
    from flowrisk import experiments
    encodings = []

    def spy(*args, **kwargs):
        encodings.append(kwargs.get("encoding"))
        return open(*args, **kwargs)

    monkeypatch.setattr(experiments, "open", spy, raising=False)
    config = tmp_path / "cfg.json"
    config.write_bytes(json.dumps({
        "design": [{"family": "IidGaussian", "n": 20, "p": 4, "seed": 0}],
        "snr": 1.0, "flows": ["gf"],
        "t_grid": {"lo": 0.01, "hi": 100.0, "count": 20},
        "ridge_grid": {"lo": 1e-4, "hi": 100.0, "count": 20},
        "output_dir": "r\u00e9sum\u00e9"}, ensure_ascii=False).encode("utf-8"))
    assert ExperimentConfig.from_file(config).output_dir == "r\u00e9sum\u00e9"
    assert encodings == ["utf-8"]


def test_simulate_missing_config_key(tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"design": {"family": "IidGaussian",
                                               "n": 5, "p": 2, "seed": 0}}))
    assert run(["simulate", "--config", str(cfg_path)]) == 2
    assert "snr" in capsys.readouterr().err


def _set_raw(config, path, raw):
    """config as JSON text with the value at dotted path replaced by raw text."""
    *parents, leaf = path.split(".")
    node = config
    for key in parents:
        node = node[key][0] if key == "design" else node[key]
    node[leaf] = "@RAW@"
    return json.dumps(config).replace('"@RAW@"', raw)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("path, raw, message", [
    ("t_grid.count", "1e400", "t_grid.count must be an integer, got Infinity"),
    ("design.n", "1e400", "design.n must be an integer, got Infinity"),
    ("t_grid.count", "null", "t_grid.count must be an integer, got null"),
    ("t_grid.lo", "null", "t_grid.lo must be a number, got null"),
    ("t_grid.hi", "1" + "0" * 400, "t_grid.hi is out of the range of a double"),
    ("t_grid.log", '"false"', 't_grid.log must be true or false, got "false"'),
    ("design.n", "null", "design.n must be an integer, got null"),
    ("snr", "null", "snr must be a number, got null"),
    ("snr", "[1]", "snr must be a number, got [1]"),
    ("flows", "5", "flows must be a list, got 5"),
    ("flows", '"gf"', 'flows must be a list, got "gf"'),
    ("output_dir", "5", "output_dir must be a string, got 5"),
    ("design.df", "1e400", "design.df must be a finite number, got Infinity"),
    ("design.nu", "Infinity", "design.nu must be a finite number, got Infinity"),
    ("snr", "Infinity", "snr must be a finite number, got Infinity"),
    ("snr", "NaN", "snr must be a finite number, got NaN"),
    ("t_grid.hi", "Infinity", "t_grid.hi must be a finite number, got Infinity"),
])
def test_simulate_refuses_a_config_value_of_the_wrong_type(tmp_path, capsys,
                                                           path, raw, message):
    # nu is a key of PowerLaw designs only (a StudentT design refuses it)
    design = ({"family": "PowerLaw", "C": 1.0, "nu": 1.0, "n": 20, "p": 4,
               "seed": 0} if path == "design.nu" else
              {"family": "IidStudentT", "df": 5.0, "n": 20, "p": 4, "seed": 0})
    config = {
        "design": [design],
        "snr": 1.0,
        "flows": ["gf"],
        "t_grid": {"lo": 0.01, "hi": 100.0, "count": 20, "log": True},
        "ridge_grid": {"lo": 1e-4, "hi": 100.0, "count": 20, "log": True},
        "output_dir": str(tmp_path / "out"),
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(_set_raw(config, path, raw))
    assert run(["simulate", "--config", str(cfg_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and _one_error_line(captured.err)
    assert captured.err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_simulate_full_grid_of_designs_and_flows(tmp_path, capsys):
    # 4 designs x 4 families = 16 curve files plus the manifest; a rerun
    # rewrites the same bytes
    import pathlib
    config_path = pathlib.Path(__file__).parent.parent / "demos" / \
        "power_law_sweep.json"
    out = tmp_path / "curves"
    assert run(["simulate", "--config", str(config_path),
                "--out", str(out)]) == 0
    capsys.readouterr()
    files = sorted(p.name for p in out.iterdir())
    assert len([f for f in files if f.endswith(".csv")]) == 16
    assert "manifest.json" in files
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    assert run(["simulate", "--config", str(config_path),
                "--out", str(out)]) == 0
    capsys.readouterr()
    assert {p.name: p.read_bytes() for p in out.iterdir()} == first


def test_the_manifest_config_reproduces_its_run(tmp_path, capsys):
    # every key to_json writes is one from_json reads
    config_path = Path(__file__).parent.parent / "demos" / "power_law_sweep.json"
    first, second = tmp_path / "first", tmp_path / "second"
    assert run(["simulate", "--config", str(config_path),
                "--out", str(first)]) == 0
    manifest = json.loads((first / "manifest.json").read_text())
    config = ExperimentConfig.from_json(manifest["config"])
    assert config.to_json() == manifest["config"]
    again = tmp_path / "again.json"
    again.write_text(json.dumps(dict(manifest["config"],
                                     output_dir=str(second))))
    assert run(["simulate", "--config", str(again)]) == 0
    capsys.readouterr()
    csvs = sorted(p.name for p in first.glob("*.csv"))
    assert len(csvs) == 16
    assert sorted(p.name for p in second.glob("*.csv")) == csvs
    for name in csvs:
        assert (second / name).read_bytes() == (first / name).read_bytes()


_STUDENT_T = {"family": "IidStudentT", "df": 5.0, "n": 20, "p": 4, "seed": 0}


@pytest.mark.parametrize("edit, message", [
    ({"design": [dict(_STUDENT_T, df=5.5)]},
     "design.df must be an integer for IidStudentT, got 5.5"),
    ({"design": [dict(_STUDENT_T, df=2.5)]},
     "design.df must be an integer for IidStudentT, got 2.5"),
    ({"design": [{"family": "IidGaussian", "nu": 1.0, "n": 20, "p": 4,
                  "seed": 0}]},
     "config key 'design.nu' is not read for IidGaussian"),
    ({"design": [dict(_STUDENT_T, s=1.0)]},
     "config key 'design.s' is not read for IidStudentT"),
    ({"design": [dict(_STUDENT_T, bogus=1)]},
     "config key 'design.bogus' is not read for IidStudentT"),
    ({"t_grid": {"lo": 0.01, "hi": 100.0, "count": 20, "Log": False}},
     "config key 't_grid.Log' is not read"),
    ({"ridge_grid": {"lo": 1e-4, "hi": 100.0, "count": 20, "step": 2}},
     "config key 'ridge_grid.step' is not read"),
    ({"bayes": True}, "config key 'bayes' is not read"),
    ({"t_grid": [0.01, 100.0, 20]},
     "t_grid must be an object, got [0.01, 100.0, 20]"),
])
def test_simulate_refuses_a_key_nothing_reads(tmp_path, capsys, edit, message):
    config = {
        "design": [_STUDENT_T],
        "snr": 1.0,
        "flows": ["gf"],
        "t_grid": {"lo": 0.01, "hi": 100.0, "count": 20},
        "ridge_grid": {"lo": 1e-4, "hi": 100.0, "count": 20},
        "output_dir": str(tmp_path / "out"),
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(config, **edit)))
    assert run(["simulate", "--config", str(cfg_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()
    # the unedited config runs
    cfg_path.write_text(json.dumps(config))
    assert run(["simulate", "--config", str(cfg_path)]) == 0


def test_unknown_subcommand_exits_2():
    assert run(["frobnicate"]) == 2


def test_unknown_flag_exits_2():
    assert run(["shrink", "--kind", "gf", "--s", "1", "--t", "1",
                "--bogus", "3"]) == 2


def test_certifier_failure_exits_1_without_traceback(monkeypatch, capsys):
    # an x grid that starts at 100 puts the inner maximizer on its boundary
    from flowrisk import bounds
    monkeypatch.setattr(bounds, "gf_inflation_constant",
                        lambda: bounds._certified_minimax(
                            bounds.gf_inflation_objective, bounds._TAUS,
                            np.logspace(2.0, 6.0, 50)))
    assert run(["verify-constants"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: inner maximizer")
    assert "Traceback" not in err


@pytest.mark.filterwarnings("error")
def test_verify_constants_cli(tmp_path, capsys):
    assert run(["verify-constants", "--out", str(tmp_path)]) == 0
    report = json.loads(capsys.readouterr().out)
    names = {c["name"] for c in report["checks"]}
    assert {"gradient_flow_inflation", "accelerated_inflation",
            "accelerated_param_error", "heavy_ball_param_error",
            "crossover_z", "h_recomposition"} <= names
    assert all(c["pass"] for c in report["checks"])
    saved = json.loads((tmp_path / "constants.json").read_text())
    assert saved == report


def test_verify_constants_rows_carry_the_table_tolerances(capsys):
    # bounds.CHECKS alone sets each row's tolerance
    from flowrisk import bounds
    assert run(["verify-constants"]) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert {c["name"]: (c["paper_value"], c["tolerance"]) for c in checks} == {
        name: (c.paper_value, c.tolerance) for name, c in bounds.CHECKS.items()}


@pytest.mark.parametrize("tol", [["--tol", "1e-3"], ["--tol", "0.5"],
                                 ["--tol=0.5"], ["--tol=nan"]],
                         ids=["1e-3", "0.5", "equals-0.5", "equals-nan"])
def test_verify_constants_takes_no_tol(monkeypatch, capsys, tol):
    from flowrisk import bounds

    def no_certifier(*args, **kwargs):
        raise AssertionError("a certifier ran")

    monkeypatch.setattr(bounds, "run_checks", no_certifier)
    assert run(["verify-constants", *tol]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --tol" in captured.err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(("command", "under"), [
    (command, under) for command in ["verify-constants", "simulate"]
    for under in ["a-file", "under-a-file", "its-file-a-directory"]]
    + [("simulate", "its-curve-file-a-directory")])
def test_an_out_that_cannot_be_a_directory_is_refused_before_any_work(
        tmp_path, capsys, monkeypatch, command, under):
    from flowrisk import bounds

    def no_work(*args, **kwargs):
        raise AssertionError("the command started its work")

    monkeypatch.setattr(bounds, "run_checks", no_work)
    monkeypatch.setattr(cli, "figure_sweep", no_work)
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    out = taken / "sub" if under == "under-a-file" else taken
    message = "not a directory"
    written = None
    if under == "its-file-a-directory":
        written = ("constants.json" if command == "verify-constants"
                   else "manifest.json")
    elif under == "its-curve-file-a-directory":
        written = "gaussian_gf.csv"
    if written:
        out = tmp_path / "out"
        (out / written).mkdir(parents=True)
        message = f"holds a directory named {written!r}"
    argv = [command, "--out", str(out)]
    if command == "simulate":
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "design": [{"family": "IidGaussian", "n": 20, "p": 4, "seed": 0}],
            "snr": 1.0, "flows": ["gf"],
            "t_grid": {"lo": 0.01, "hi": 100.0, "count": 20, "log": True},
            "ridge_grid": {"lo": 1e-4, "hi": 100.0, "count": 20, "log": True}}))
        argv += ["--config", str(config)]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and _one_error_line(captured.err)
    assert captured.err.startswith(f"error: --out {str(out)!r}")
    assert message in captured.err
    assert taken.read_text() == "kept\n"
    if written:
        assert list(out.iterdir()) == [out / written]
        assert not any((out / written).iterdir())


def test_verify_constants_calls_each_certifier_once(monkeypatch, capsys):
    # only outermost calls count: h_kappa runs only inside
    # hb_variance_bound_check, which certifies h(1) too
    from flowrisk import bounds
    certifiers = ("gf_inflation_constant", "nest_inflation_constant",
                  "nest_param_error_constant", "hb_quarter_plane",
                  "tilde_h_crossover", "hb_variance_bound_check")
    assert {c.certifier for c in bounds.CHECKS.values()} == set(certifiers)
    names = certifiers + ("h_kappa",)
    calls = dict.fromkeys(names, 0)
    depth = [0]

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += depth[0] == 0
            depth[0] += 1
            try:
                return real(*args, **kwargs)
            finally:
                depth[0] -= 1
        return wrapper

    for name in names:
        monkeypatch.setattr(bounds, name, counting(name, getattr(bounds, name)))
    assert run(["verify-constants"]) == 0
    capsys.readouterr()
    assert calls == dict(dict.fromkeys(certifiers, 1), h_kappa=0)


def test_two_runs_build_the_parser_once(monkeypatch, capsys):
    builds = []

    def counting_build():
        builds.append(1)
        return real_build()

    real_build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", counting_build)
    cli._parser.cache_clear()
    try:
        assert run(["special-eval", "--fn", "j1", "--x", "1.0"]) == 0
        assert run(["shrink", "--kind", "gf", "--s", "1.0", "--t", "2.0"]) == 0
        assert run(["no-such-command"]) == 2
    finally:
        cli._parser.cache_clear()
    capsys.readouterr()
    assert len(builds) == 1


def test_importing_the_cli_builds_neither_cached_object():
    # the parser and the 49/64 grid are built on first use, not at import
    src = Path(flowrisk.__file__).resolve().parents[1]
    code = ("import flowrisk.cli as c, flowrisk.bounds as b; "
            "print(c._parser.cache_info().currsize, "
            "b._param_error_grid.cache_info().currsize)")
    done = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0", "0"]
