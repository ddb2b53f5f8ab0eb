import json
import logging
import re
from dataclasses import replace

import numpy as np
import pytest

from flowrisk.experiments import (
    ConfigError,
    DesignSpec,
    ExperimentConfig,
    GridSpec,
    build_design,
    figure_sweep,
    gen_iid_design,
    gen_orthogonal_design,
    gen_power_law_design,
    gen_signal,
    git_blob_hash,
    output_files,
)
from flowrisk.linalg import MAX_DOUBLES, design_decompose
from flowrisk.risk import SignalModel, optimal_ridge_bayes_risk
from flowrisk.shrinkage import FlowKind

from oracles import traced_peak


def power_law_spec(nu, p=100, n=500, seed=1, c=1.0):
    return DesignSpec(family="PowerLaw", n=n, p=p, seed=seed, c=c, nu=nu)


class TestPowerLaw:
    def test_exact_eigenvalues(self):
        d = gen_power_law_design(power_law_spec(1.0, p=4))
        assert np.allclose(d.spectrum.eigenvalues, [0.25, 1 / 3, 0.5, 1.0])

    def test_condition_number(self):
        d = gen_power_law_design(power_law_spec(2.0, p=100))
        assert d.spectrum.kappa == pytest.approx(1e4, rel=1e-12, abs=0)

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

    def test_student_t_holds_about_two_doubles_per_entry(self):
        # the t deviates and their chi-squares, plus one block of df normals
        # per row (df + 1 more doubles per entry if drawn whole)
        spec = DesignSpec(family="IidStudentT", n=2000, p=100, seed=2, df=5.0)
        x, peak = traced_peak(gen_iid_design, spec)
        assert peak <= 5 * 8 * x.size

    def test_low_df_rejected(self):
        with pytest.raises(ConfigError, match="df"):
            DesignSpec(family="IidStudentT", n=10, p=2, seed=0, df=2.0)

    @pytest.mark.parametrize("df", [5.5, 2.5, 3.0000000000000004])
    def test_df_must_be_an_integer(self, df):
        # int(df) degrees of freedom are drawn, rescaled by sqrt((df-2)/df)
        with pytest.raises(ConfigError, match=f"^design.df must be an integer "
                                              f"for IidStudentT, got {df!r}$"):
            DesignSpec(family="IidStudentT", n=10, p=2, seed=0, df=df)
        assert DesignSpec(family="IidStudentT", n=10, p=2, seed=0,
                          df=3.0).df == 3


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
        assert np.linalg.norm(x) == pytest.approx(np.sqrt(7 * 0.5), rel=1e-12, abs=0)

    def test_wide_shape_rejected(self):
        with pytest.raises(ConfigError, match="n must be >="):
            DesignSpec(family="Orthogonal", n=5, p=10, seed=0, s=1.0)


class TestDesignSize:
    # the largest n at each p whose design holds exactly 2^26 doubles:
    # p^2 for the basis, plus n p for sampled entries, plus n p df for the
    # chi-square block of IidStudentT
    @pytest.mark.parametrize("family, extra, p, n_max", [
        ("IidGaussian", {}, 1024, 64512),
        ("Orthogonal", {"s": 1.0}, 1024, 64512),
        ("IidStudentT", {"df": 5.0}, 1024, 10752),
        ("PowerLaw", {"nu": 1.0}, 8192, 10 ** 12),
    ])
    def test_cap_counts_every_materialized_double(self, family, extra, p, n_max):
        DesignSpec(family=family, n=n_max, p=p, seed=0, **extra)
        bigger = {"n": n_max + 1, "p": p} if family != "PowerLaw" else \
            {"n": n_max, "p": p + 1}
        with pytest.raises(ConfigError, match="design.n = .*design.p = .*cap"):
            DesignSpec(family=family, seed=0, **bigger, **extra)


NAN, INF = float("nan"), float("inf")


@pytest.mark.filterwarnings("error")
class TestNonFiniteNumbers:
    @pytest.mark.parametrize("family, key, extra", [
        ("PowerLaw", "design.nu", {"nu": NAN}),
        ("PowerLaw", "design.nu", {"nu": INF}),
        ("PowerLaw", "design.C", {"nu": 1.0, "c": NAN}),
        ("PowerLaw", "design.C", {"nu": 1.0, "c": INF}),
        ("IidStudentT", "design.df", {"df": NAN}),
        ("IidStudentT", "design.df", {"df": INF}),
        ("Orthogonal", "design.s", {"s": NAN}),
        ("Orthogonal", "design.s", {"s": INF}),
    ])
    def test_design_spec_refuses_it_naming_the_key(self, family, key, extra):
        with pytest.raises(ConfigError, match=f"^{key} must be finite"):
            DesignSpec(family=family, n=10, p=2, seed=0, **extra)

    @pytest.mark.parametrize("snr", [NAN, INF, -INF])
    def test_snr_is_refused_naming_the_key(self, snr):
        grid = GridSpec(lo=0.1, hi=1.0, count=3)
        with pytest.raises(ConfigError, match="^snr must be finite"):
            ExperimentConfig(design=(power_law_spec(1.0, p=4),), snr=snr,
                             flows=(FlowKind.GRADIENT_FLOW,), t_grid=grid,
                             ridge_grid=grid)
        with pytest.raises(ConfigError, match="^snr must be finite"):
            gen_signal(p=4, snr=snr, sigma_sq=1.0, seed=0)


@pytest.mark.filterwarnings("error")
class TestPowerLawUnderflow:
    def test_smallest_eigenvalue_must_be_a_normal_double(self):
        # 4^-511 is 2^-1022, the smallest normal double; 4^-512 is subnormal
        d = gen_power_law_design(power_law_spec(511.0, p=4))
        assert d.spectrum.eigenvalues[0] == 2.0 ** -1022
        for nu in (512.0, 1e6):
            with pytest.raises(ConfigError, match="design.nu = .* positive "
                                                  "normal double"):
                power_law_spec(nu, p=4)

    def test_a_tiny_scale_counts_too(self):
        with pytest.raises(ConfigError, match="design.C / design.p"):
            power_law_spec(1.0, p=4, c=1e-308)


class TestSignal:
    def test_exact_snr(self):
        beta, sigma_sq = gen_signal(p=50, snr=1.0, sigma_sq=1.0, seed=7)
        assert np.sum(beta ** 2) == pytest.approx(1.0, rel=1e-12, abs=0)
        beta4, _ = gen_signal(p=50, snr=4.0, sigma_sq=1.0, seed=7)
        assert np.sum(beta4 ** 2) == pytest.approx(4.0, rel=1e-12, abs=0)

    def test_deterministic(self):
        a, _ = gen_signal(10, 1.0, 1.0, seed=123)
        b, _ = gen_signal(10, 1.0, 1.0, seed=123)
        assert np.array_equal(a, b)


@pytest.mark.parametrize(("args", "message"), [
    ((0.1, INF, 3), "grid bounds 0.1, inf must be finite"),
    ((NAN, 1.0, 3), "grid bounds nan, 1.0 must be finite"),
    ((0.1, 1.0, 1), "grid needs at least 2 points"),
    ((0.1, 1.0, -5, False), "grid needs at least 2 points"),
    ((0.0, 1.0, 3), "log grid requires 0 < lo < hi"),
    ((1.0, 1.0, 3), "log grid requires 0 < lo < hi"),
    ((1.0, 0.5, 3, False), "linear grid requires lo < hi"),
])
def test_grid_spec_refusals(args, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        GridSpec(*args)


def test_grid_count_is_capped_before_allocating():
    for log in (True, False):
        assert GridSpec(1e-3, 1.0, MAX_DOUBLES, log).count == MAX_DOUBLES
        with pytest.raises(ValueError, match=f"exceeds {MAX_DOUBLES} doubles"):
            GridSpec(0.1, 1.0, MAX_DOUBLES + 1, log)


_GAUSS = {"family": "IidGaussian", "n": 10, "p": 2, "seed": 0}


def _config(**fields):
    """A one-design config as parsed JSON, with fields replaced."""
    return {"design": _GAUSS, "snr": 1.0, "flows": ["gf"],
            "t_grid": {"lo": 0.1, "hi": 1.0, "count": 4},
            "ridge_grid": {"lo": 0.1, "hi": 1.0, "count": 4}} | fields


_ORTHO = DesignSpec(family="Orthogonal", n=10, p=2, seed=0, s=1.0)


@pytest.mark.parametrize(("build", "message"), [
    (lambda: DesignSpec(**(_GAUSS | {"family": "Bogus"})),
     "design.family must be one of "
     "('PowerLaw', 'IidGaussian', 'IidStudentT', 'Orthogonal')"),
    (lambda: DesignSpec.from_json(_GAUSS | {"family": "Bogus"}),
     "design.family must be one of "
     "('PowerLaw', 'IidGaussian', 'IidStudentT', 'Orthogonal')"),
    (lambda: DesignSpec(**(_GAUSS | {"n": 0})),
     "design.n and design.p must be positive"),
    (lambda: DesignSpec(**(_GAUSS | {"p": -1})),
     "design.n and design.p must be positive"),
    (lambda: DesignSpec(**(_GAUSS | {"seed": -1})),
     "design.seed must be an integer in [0, 2^64), got -1"),
    (lambda: DesignSpec.from_json(_GAUSS | {"seed": 2 ** 64}),
     "design.seed must be an integer in [0, 2^64), got 18446744073709551616"),
    (lambda: DesignSpec.from_json(_GAUSS | {"seed": 2 ** 64 + 1}),
     "design.seed must be an integer in [0, 2^64), got 18446744073709551617"),
    (lambda: ExperimentConfig.from_json(_config(design=[])),
     "design list is empty"),
    (lambda: ExperimentConfig.from_json(_config(flows=[])),
     "flows list is empty"),
    (lambda: ExperimentConfig.from_json(_config(design=3)),
     "design must be an object or a list of objects"),
    (lambda: ExperimentConfig.from_json(_config(flows=["gf", "bogus"])),
     "flows: unknown flow kind 'bogus'"),
    (lambda: gen_power_law_design(_ORTHO),
     "gen_power_law_design requires a PowerLaw spec"),
    (lambda: gen_iid_design(_ORTHO), "gen_iid_design requires an iid family spec"),
    (lambda: gen_orthogonal_design(DesignSpec(**_GAUSS)),
     "gen_orthogonal_design requires an Orthogonal spec"),
], ids=["family", "family-from-json", "n", "p", "seed-negative", "seed-2^64",
        "seed-2^64+1", "no-design", "no-flows", "design-not-an-object",
        "unknown-flow", "power-law-family", "iid-family", "orthogonal-family"])
def test_refusals(build, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        build()


@pytest.mark.parametrize(("build", "message"), [
    (lambda: DesignSpec(**(_GAUSS | {"seed": 1.5})),
     "design.seed must be an integer, got 1.5"),
    (lambda: DesignSpec(**(_GAUSS | {"n": 10.5})),
     "design.n must be an integer, got 10.5"),
    (lambda: DesignSpec(**(_GAUSS | {"p": 2.0})),
     "design.p must be an integer, got 2.0"),
    (lambda: GridSpec(0.1, 1.0, 2.5), "count must be an integer, got 2.5"),
    (lambda: GridSpec(0.1, 1.0, "3"), "count must be an integer, got '3'"),
], ids=["seed", "n", "p", "grid-count", "grid-count-str"])
def test_specs_follow_the_integer_rule(build, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        build()
    # NumPy integers are kept as ints: the manifest records the value that ran
    spec = DesignSpec(family="IidGaussian", n=np.int64(10), p=np.int32(2),
                      seed=np.uint64(7))
    assert json.dumps(spec.to_json()) == json.dumps(
        DesignSpec(**(_GAUSS | {"seed": 7})).to_json())
    assert np.array_equal(build_design(spec).spectrum.eigenvalues,
                          build_design(replace(spec, seed=7)).spectrum.eigenvalues)
    assert np.array_equal(GridSpec(0.1, 1.0, np.int64(3)).points(),
                          GridSpec(0.1, 1.0, 3).points())


def test_integral_floats_are_read_as_integers_and_the_largest_seed_is_taken():
    cfg = ExperimentConfig.from_json(_config(
        design=_GAUSS | {"seed": 2.0 ** 63},
        t_grid={"lo": 0.1, "hi": 1.0, "count": 1e1}))
    assert cfg.t_grid.count == 10 and type(cfg.t_grid.count) is int
    assert cfg.design[0].seed == 2 ** 63 and type(cfg.design[0].seed) is int
    largest = DesignSpec(**(_GAUSS | {"seed": 2 ** 64 - 1}))
    assert build_design(largest).p == 2


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

    @pytest.mark.parametrize("family, params, label, keys", [
        ("PowerLaw", {"nu": 2.0}, "powerlaw-nu2", {"C", "nu"}),
        ("PowerLaw", {"nu": 0.5, "c": 3.0}, "powerlaw-nu0.5-C3", {"C", "nu"}),
        ("IidGaussian", {}, "gaussian", set()),
        ("IidStudentT", {"df": 5.0}, "studentt-df5", {"df"}),
        ("Orthogonal", {"s": 0.1}, "orthogonal-s0.1", {"s"}),
        # C is a PowerLaw parameter: another family neither labels nor
        # writes it
        ("IidGaussian", {"c": 2.0}, "gaussian", set()),
    ])
    def test_each_family_labels_writes_and_reads_its_parameters(
            self, family, params, label, keys):
        spec = DesignSpec(family=family, n=20, p=4, seed=3, **params)
        assert spec.label == label
        assert set(spec.to_json()) == {"family", "n", "p", "seed"} | keys
        read = DesignSpec.from_json(spec.to_json())
        assert read == (spec if "C" in keys else replace(spec, c=1.0))

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

    def test_rerun_rewrites_each_file_in_place(self, tmp_path):
        cfg = small_config(tmp_path)
        figure_sweep(cfg)
        first = {p.name: (p.stat().st_ino, p.read_bytes())
                 for p in tmp_path.iterdir()}
        figure_sweep(cfg)
        second = {p.name: (p.stat().st_ino, p.read_bytes())
                  for p in tmp_path.iterdir()}
        assert first == second

    def test_rerun_over_longer_files_truncates_them(self, tmp_path):
        cfg = small_config(tmp_path)
        figure_sweep(cfg)
        want = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        for name, data in want.items():
            (tmp_path / name).write_bytes(data + b"stale tail\n" * 100)
        figure_sweep(cfg)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == want

    def test_manifest_is_the_sorted_json_text(self, tmp_path):
        cfg = small_config(tmp_path)
        figure_sweep(cfg)
        text = (tmp_path / "manifest.json").read_text()
        manifest = json.loads(text)
        assert text == json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        assert set(manifest) == {"config", "bayes", "sigma_sq", "outputs"}

    def test_fresh_directory_gets_every_file(self, tmp_path):
        out = tmp_path / "a" / "b"
        cfg = small_config(out)
        dataset = figure_sweep(cfg)
        names = {f"{label}_{token}.csv"
                 for label in dataset for token in dataset[label]}
        assert {p.name for p in out.iterdir()} == names | {"manifest.json"}
        assert set(output_files(cfg)) == names | {"manifest.json"}
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["outputs"]) == names

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
        # the preflight still checks the file the sweep skips
        assert output_files(cfg) == ["gaussian_gf.csv", "gaussian_hb.csv",
                                     "manifest.json"]

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
        t = curve.grid
        assert curve.bias_sq == pytest.approx(b0_sq * np.exp(-2 * t),
                                              rel=1e-12, abs=0)
        assert curve.variance == pytest.approx((1 - np.exp(-t)) ** 2 / 4.0,
                                               rel=1e-12, abs=0)

    def test_bayes_mode_ridge_optimum_dominates(self):
        cfg = small_config()
        dataset = figure_sweep(cfg, bayes=True)
        for label, spec in zip(("powerlaw-nu2", "orthogonal-s0.1"), cfg.design):
            design = build_design(spec)
            prior = SignalModel.prior(r_sq=1.0, sigma_sq=1.0, n=spec.n)
            floor, _ = optimal_ridge_bayes_risk(design.spectrum, prior)
            for token, curve in dataset[label].items():
                best = curve.risk.min()
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
        from flowrisk.risk import risk_curve
        from flowrisk.rng import derive_seed
        from flowrisk.shrinkage import FlowKind
        spec = power_law_spec(0.1, p=40, n=200, seed=6)
        design = build_design(spec)
        beta0, _ = gen_signal(spec.p, 1.0, 1.0, derive_seed(spec.seed, 1))
        signal = SignalModel.fixed(design.v_basis.T @ beta0, 1.0, spec.n)
        t = np.logspace(-2, -1, 20)
        nest_bias = risk_curve(design.spectrum, signal,
                               FlowKind.ACCELERATED_FLOW, t).bias_sq
        ridge_bias = risk_curve(design.spectrum, signal, FlowKind.RIDGE,
                                (1.0 / t ** 2)[::-1]).bias_sq[::-1]
        assert (ridge_bias < nest_bias).all()
