import json

import numpy as np
import pytest

from flowrisk.cli import run
from flowrisk.plotting import load_plot_series, render_line_plot
from flowrisk.shrinkage import nest_shrink
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
    assert float(out) == nest_shrink(1.0, 2.0)


def test_shrink_heavy_ball_needs_mu(capsys):
    assert run(["shrink", "--kind", "hb", "--s", "1.0", "--t", "1.0"]) == 2
    assert "mu" in capsys.readouterr().err


def test_special_eval(capsys):
    assert run(["special-eval", "--fn", "j1", "--x", "1.0"]) == 0
    assert float(capsys.readouterr().out) == bessel_j1(1.0)


def test_special_eval_unknown_function(capsys):
    assert run(["special-eval", "--fn", "gamma", "--x", "1.0"]) == 2


def test_estimate_matches_library(capsys, instance_files):
    xp, yp, _ = instance_files
    assert run(["estimate", "--kind", "ridge", "--t", "0.3",
                "--design", str(xp), "--response", str(yp)]) == 0
    printed = np.array([float(v) for v in capsys.readouterr().out.split()])
    from flowrisk.estimators import ridge_estimate
    from flowrisk.linalg import attach_response, design_decompose
    x = np.loadtxt(xp, delimiter=",")
    y = np.loadtxt(yp, delimiter=",")
    d = attach_response(design_decompose(x), x, y)
    assert np.array_equal(printed, ridge_estimate(d, 0.3))


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
    assert run(argv + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert run(argv) == 0
    assert capsys.readouterr().out.encode() == out.read_bytes()


def test_risk_curve_bayes_requires_r2(instance_files, capsys):
    xp, _, _ = instance_files
    assert run(["risk-curve", "--design", str(xp), "--kind", "gf",
                "--grid", "0.1,1,3", "--bayes"]) == 2
    assert "r2" in capsys.readouterr().err


def test_oracle_check_passes_tolerance(capsys):
    code = run(["oracle-check", "--kind", "nest", "--p", "4", "--seed", "3",
                "--step", "0.005", "--t-end", "10", "--tol", "1e-6"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["sup_error"] <= 1e-6


@pytest.mark.parametrize("flag, value, message", [
    ("--t-end", "inf", "t_grid must be finite"),
    ("--t-end", "nan", "t_grid must be finite"),
    ("--step", "nan", "step must be finite"),
    ("--t-end", "1e15", "t_end / step = 1e+18 steps x 5 coordinates exceeds"),
])
def test_oracle_check_rejects_non_finite_input(capsys, flag, value, message):
    assert run(["oracle-check", "--kind", "gf", flag, value]) == 2
    err = capsys.readouterr().err
    assert f"error: {message}" in err
    assert "Traceback" not in err


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


def test_simulate_and_plot_pipeline(tmp_path, capsys):
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
    capsys.readouterr()
    out_dir = tmp_path / "out"
    csvs = sorted(out_dir.glob("*.csv"))
    assert len(csvs) == 2
    svg_path = tmp_path / "fig.svg"
    assert run(["plot", "--in"] + [str(c) for c in csvs]
               + ["--out", str(svg_path), "--logx"]) == 0
    svg1 = svg_path.read_bytes()
    assert svg1.startswith(b"<svg")
    assert run(["plot", "--in"] + [str(c) for c in csvs]
               + ["--out", str(svg_path), "--logx"]) == 0
    assert svg_path.read_bytes() == svg1  # byte-identical rerun


def test_simulate_missing_config_key(tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"design": {"family": "IidGaussian",
                                               "n": 5, "p": 2, "seed": 0}}))
    assert run(["simulate", "--config", str(cfg_path)]) == 2
    assert "snr" in capsys.readouterr().err


def test_plot_rejects_empty_csv(tmp_path, capsys):
    bad = tmp_path / "empty.csv"
    bad.write_text("")
    assert run(["plot", "--in", str(bad), "--out",
                str(tmp_path / "x.svg")]) == 2


def test_plot_rejects_schema_mismatch(tmp_path):
    bad = tmp_path / "three.csv"
    bad.write_text("1,2,3\n4,5,6\n")
    assert run(["plot", "--in", str(bad), "--out",
                str(tmp_path / "x.svg")]) == 2


def test_plot_two_column_with_header(tmp_path):
    path = tmp_path / "h.csv"
    path.write_text("kappa,h\n1,9.08\n10,40.0\n100,190.0\n")
    series, x_label, y_label = load_plot_series(path)
    assert (x_label, y_label) == ("kappa", "h")
    svg = render_line_plot([series], logx=True, x_label=x_label,
                           y_label=y_label)
    assert "polyline" in svg


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


def test_unknown_subcommand_exits_2():
    assert run(["frobnicate"]) == 2


def test_unknown_flag_exits_2():
    assert run(["shrink", "--kind", "gf", "--s", "1", "--t", "1",
                "--bogus", "3"]) == 2


def test_certifier_failure_exits_1_without_traceback(monkeypatch, capsys):
    # an x grid that stops at 100 puts the inner maximizer on its boundary
    from flowrisk import bounds
    real = bounds.gf_inflation_constant
    monkeypatch.setattr(bounds, "gf_inflation_constant",
                        lambda: real(x_spec=bounds.GridSpec(100.0, 1e6, 50)))
    assert run(["verify-constants"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: inner maximizer")
    assert "Traceback" not in err


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


def test_verify_constants_tol_overrides_only_the_equality_rows(capsys):
    overridable = {"gradient_flow_inflation", "accelerated_inflation",
                   "accelerated_param_error", "crossover_z"}
    assert run(["verify-constants"]) == 0
    own = {c["name"]: c["tolerance"]
           for c in json.loads(capsys.readouterr().out)["checks"]}
    assert run(["verify-constants", "--tol", "1e-9"]) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert len(checks) == 10
    for c in checks:
        if c["name"] in overridable:
            assert c["tolerance"] == 1e-9
            assert c["pass"] is (c["name"] == "accelerated_param_error")
        else:
            assert c["tolerance"] == own[c["name"]]
            assert c["pass"] is True
    assert run(["verify-constants", "--tol", "0.5"]) == 0


def test_verify_constants_calls_each_certifier_once(monkeypatch, capsys):
    # only outermost calls count: hb_variance_bound_check calls h_kappa too
    from flowrisk import bounds
    names = ("gf_inflation_constant", "nest_inflation_constant",
             "nest_param_error_constant", "hb_param_error_check",
             "tilde_h_crossover", "hb_variance_bound_check", "h_kappa",
             "hb_kernel_bound_checks")
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
    assert calls == dict.fromkeys(names, 1)
