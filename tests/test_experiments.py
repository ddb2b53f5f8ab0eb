import json
import logging

import numpy as np
import pytest

from flowrisk.experiments import (
    ConfigError,
    DesignSpec,
    ExperimentConfig,
    build_design,
    figure_sweep,
    gen_iid_design,
    gen_orthogonal_design,
    gen_power_law_design,
    gen_signal,
    git_blob_hash,
)
from flowrisk.linalg import design_decompose
from flowrisk.risk import SignalModel, bayes_risk, optimal_ridge_bayes_risk


def power_law_spec(nu, p=100, n=500, seed=1, c=1.0):
    return DesignSpec(family="PowerLaw", n=n, p=p, seed=seed, c=c, nu=nu)


class TestPowerLaw:
    def test_exact_eigenvalues(self):
        d = gen_power_law_design(power_law_spec(1.0, p=4))
        assert np.allclose(d.spectrum.eigenvalues, [0.25, 1 / 3, 0.5, 1.0])

    def test_condition_number(self):
        d = gen_power_law_design(power_law_spec(2.0, p=100))
        assert d.spectrum.kappa == pytest.approx(1e4, rel=1e-12)

    def test_flat_exponent_rejected(self):
        with pytest.raises(ConfigError):
            power_law_spec(0.0)

    def test_basis_is_orthogonal_and_seeded(self):
        d1 = gen_power_law_design(power_law_spec(1.0, p=10, seed=3))
        d2 = gen_power_law_design(power_law_spec(1.0, p=10, seed=3))
        assert np.array_equal(d1.v_basis, d2.v_basis)
        assert np.allclose(d1.v_basis.T @ d1.v_basis, np.eye(10), atol=1e-12)


class TestIidDesigns:
    def test_deterministic_matrix(self):
        spec = DesignSpec(family="IidGaussian", n=50, p=8, seed=9)
        assert np.array_equal(gen_iid_design(spec), gen_iid_design(spec))

    def test_gaussian_unit_variance(self):
        spec = DesignSpec(family="IidGaussian", n=500, p=100, seed=1)
        x = gen_iid_design(spec)
        assert 0.95 <= x.var() <= 1.05

    def test_student_t_rescaled_variance(self):
        spec = DesignSpec(family="IidStudentT", n=500, p=100, seed=2, df=5.0)
        x = gen_iid_design(spec)
        assert 0.9 <= x.var() <= 1.1

    def test_low_df_rejected(self):
        with pytest.raises(ConfigError, match="df"):
            DesignSpec(family="IidStudentT", n=10, p=2, seed=0, df=2.0)


class TestOrthogonal:
    @pytest.mark.parametrize("s", [0.1, 1.0])
    def test_gram_is_scaled_identity(self, s):
        spec = DesignSpec(family="Orthogonal", n=60, p=12, seed=4, s=s)
        x = gen_orthogonal_design(spec)
        gram = x.T @ x / 60
        assert np.abs(gram - s * np.eye(12)).max() <= 1e-10
        d = design_decompose(x)
        assert np.abs(d.spectrum.eigenvalues - s).max() <= 1e-10

    def test_single_column(self):
        spec = DesignSpec(family="Orthogonal", n=7, p=1, seed=0, s=0.5)
        x = gen_orthogonal_design(spec)
        assert np.linalg.norm(x) == pytest.approx(np.sqrt(7 * 0.5), rel=1e-12)

    def test_wide_shape_rejected(self):
        with pytest.raises(ConfigError, match="n must be >="):
            DesignSpec(family="Orthogonal", n=5, p=10, seed=0, s=1.0)


class TestSignal:
    def test_exact_snr(self):
        beta, sigma_sq = gen_signal(p=50, snr=1.0, sigma_sq=1.0, seed=7)
        assert np.sum(beta ** 2) == pytest.approx(1.0, rel=1e-12)
        beta4, _ = gen_signal(p=50, snr=4.0, sigma_sq=1.0, seed=7)
        assert np.sum(beta4 ** 2) == pytest.approx(4.0, rel=1e-12)

    def test_deterministic(self):
        a, _ = gen_signal(10, 1.0, 1.0, seed=123)
        b, _ = gen_signal(10, 1.0, 1.0, seed=123)
        assert np.array_equal(a, b)


def small_config(tmp_path=None, flows=("gf", "nest", "hb", "ridge")):
    return ExperimentConfig.from_json({
        "design": [
            {"family": "PowerLaw", "C": 1.0, "nu": 2.0, "n": 200, "p": 30,
             "seed": 11},
            {"family": "Orthogonal", "s": 0.1, "n": 40, "p": 8, "seed": 5},
        ],
        "snr": 1.0,
        "flows": list(flows),
        "t_grid": {"lo": 1e-2, "hi": 1e3, "count": 120, "log": True},
        "ridge_grid": {"lo": 1e-6, "hi": 1e3, "count": 120, "log": True},
        "output_dir": str(tmp_path) if tmp_path else None,
    })


class TestConfig:
    def test_missing_key_named(self):
        with pytest.raises(ConfigError, match="t_grid"):
            ExperimentConfig.from_json({
                "design": {"family": "IidGaussian", "n": 10, "p": 2, "seed": 0},
                "snr": 1.0, "flows": ["gf"],
                "ridge_grid": {"lo": 1e-6, "hi": 1.0, "count": 5}})

    def test_unknown_design_key_named(self):
        with pytest.raises(ConfigError, match="bogus"):
            DesignSpec.from_json({"family": "IidGaussian", "n": 10, "p": 2,
                                  "seed": 0, "bogus": 1})

    def test_single_design_object_allowed(self):
        cfg = ExperimentConfig.from_json({
            "design": {"family": "IidGaussian", "n": 10, "p": 2, "seed": 0},
            "snr": 1.0, "flows": ["gf"],
            "t_grid": {"lo": 0.1, "hi": 1.0, "count": 4},
            "ridge_grid": {"lo": 0.1, "hi": 1.0, "count": 4}})
        assert len(cfg.design) == 1

    def test_round_trip(self, tmp_path):
        cfg = small_config()
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.to_json()))
        again = ExperimentConfig.from_file(path)
        assert again.to_json() == cfg.to_json()


class TestFigureSweep:
    def test_dataset_shape_and_files(self, tmp_path):
        cfg = small_config(tmp_path)
        dataset = figure_sweep(cfg)
        assert set(dataset) == {"powerlaw-nu2", "orthogonal-s0.1"}
        assert set(dataset["powerlaw-nu2"]) == {"gf", "nest", "hb", "ridge"}
        files = sorted(p.name for p in tmp_path.iterdir())
        assert "manifest.json" in files
        assert len(files) == 9

    def test_bit_identical_reruns(self, tmp_path):
        cfg = small_config(tmp_path)
        figure_sweep(cfg)
        first = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        figure_sweep(cfg)
        second = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert first == second

    def test_manifest_hashes_match_files(self, tmp_path):
        cfg = small_config(tmp_path)
        figure_sweep(cfg)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        for name, digest in manifest["outputs"].items():
            assert git_blob_hash((tmp_path / name).read_bytes()) == digest

    def test_heavy_ball_skipped_on_singular_design(self, caplog):
        cfg = ExperimentConfig.from_json({
            "design": {"family": "IidGaussian", "n": 3, "p": 6, "seed": 0},
            "snr": 1.0, "flows": ["gf", "hb"],
            "t_grid": {"lo": 0.1, "hi": 1.0, "count": 3},
            "ridge_grid": {"lo": 0.1, "hi": 1.0, "count": 3}})
        with caplog.at_level(logging.WARNING):
            dataset = figure_sweep(cfg)
        assert "skipping heavy ball" in caplog.text
        assert set(dataset["gaussian"]) == {"gf"}

    def test_scalar_design_reduces_to_scalar_formulas(self):
        cfg = ExperimentConfig.from_json({
            "design": {"family": "Orthogonal", "s": 1.0, "n": 4, "p": 1,
                       "seed": 3},
            "snr": 1.0, "flows": ["gf", "ridge"],
            "t_grid": {"lo": 0.5, "hi": 2.0, "count": 3, "log": False},
            "ridge_grid": {"lo": 0.5, "hi": 2.0, "count": 3, "log": False}})
        dataset = figure_sweep(cfg)
        curve = dataset["orthogonal-s1"]["gf"]
        # p = 1, s = 1 instance: bias = b0^2 e^{-2t}, var = (1/n)(1-e^{-t})^2
        from flowrisk.experiments import gen_signal
        from flowrisk.rng import derive_seed
        beta0, _ = gen_signal(1, 1.0, 1.0, derive_seed(3, 1))
        b0_sq = float(beta0[0] ** 2)
        for t, dec in curve:
            assert dec.bias_sq == pytest.approx(b0_sq * np.exp(-2 * t),
                                                rel=1e-12)
            assert dec.variance == pytest.approx(
                (1 - np.exp(-t)) ** 2 / 4.0, rel=1e-12)

    def test_bayes_mode_ridge_optimum_dominates(self):
        cfg = small_config()
        dataset = figure_sweep(cfg, bayes=True)
        for label, spec in zip(("powerlaw-nu2", "orthogonal-s0.1"), cfg.design):
            design = build_design(spec)
            prior = SignalModel.prior(r_sq=1.0, sigma_sq=1.0, n=spec.n)
            floor, _ = optimal_ridge_bayes_risk(design.spectrum, prior)
            for token, curve in dataset[label].items():
                best = min(dec.risk for _, dec in curve)
                assert floor <= best + 1e-10, (label, token)

    def test_accelerated_curve_oscillates_at_small_scale(self):
        from flowrisk.risk import oscillation_report
        cfg = small_config()
        dataset = figure_sweep(cfg)
        report = oscillation_report(dataset["powerlaw-nu2"]["nest"])
        assert report.num_local_maxima >= 1

    def test_flat_spectrum_ridge_bias_drops_faster_early(self):
        # under the t <-> lambda = 1/t^2 dictionary, the ridge bias falls
        # below the accelerated bias throughout the first decade of the
        # grid when the eigenvalues are all sizable (nu = 0.1)
        from flowrisk.risk import fixed_risk
        from flowrisk.rng import derive_seed
        from flowrisk.shrinkage import FlowKind
        spec = power_law_spec(0.1, p=40, n=200, seed=6)
        design = build_design(spec)
        beta0, _ = gen_signal(spec.p, 1.0, 1.0, derive_seed(spec.seed, 1))
        signal = SignalModel.fixed(design.v_basis.T @ beta0, 1.0, spec.n)
        for t in np.logspace(-2, -1, 20):
            nest_bias = fixed_risk(design.spectrum, signal,
                                   FlowKind.ACCELERATED_FLOW, float(t)).bias_sq
            ridge_bias = fixed_risk(design.spectrum, signal, FlowKind.RIDGE,
                                    1.0 / float(t) ** 2).bias_sq
            assert ridge_bias < nest_bias
