"""The four benchmark workloads: inputs from a seed, one op, and its check.

Each workload is a closed loop with one client: the op is called, its
output is checked, and the next op starts.  The program sees only the
generated inputs (config JSON, arrays, spectra).  ``items`` counts the work
of one op from those inputs, never from what the program reports.

Construction is the timed set-up (inputs only).  ``prepare`` computes the
references the checks compare against and is not timed.  ``cal_parts``
names the calibration-kernel parts (see worker.py) that match where the
workload's trace spends its time.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os

import numpy as np

import reference as ref
# Program calls go through module attributes, which the traced run rebinds.
from flowrisk import cli, estimators, experiments, linalg, oracle, risk
from flowrisk.rng import derive_seed
from flowrisk.shrinkage import FlowKind

KINDS = ("gf", "nest", "hb", "ridge")
SIGMA_SQ = 1.0


def _grid(lo, hi, count):
    return {"lo": lo, "hi": hi, "count": count, "log": True}


def _grid_points(g):
    return np.logspace(np.log10(g["lo"]), np.log10(g["hi"]), g["count"])


def _run_cli(argv):
    """cli.run in-process; returns (exit code, captured stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run(argv)
    return code, buf.getvalue()


class Certify:
    """``flowrisk verify-constants``; deterministic, the seed is unused."""

    cal_parts = ("numpy",)

    def __init__(self, seed: int, scratch: str):
        self.argv = ["verify-constants"]
        self.items = len(ref.CERTIFIED)

    def prepare(self):
        pass

    def op(self):
        return _run_cli(self.argv)

    def check(self, out):
        code, text = out
        if code != 0:
            return f"verify-constants exited {code}"
        values = {c["name"]: c["value"] for c in json.loads(text)["checks"]}
        if set(values) != set(ref.CERTIFIED):
            return f"checks reported {sorted(values)}"
        for name, value in values.items():
            reason = ref.certified_failure(name, float(value))
            if reason:
                return reason
        return None


def _design_label(d):
    if d["family"] == "PowerLaw":
        return f"powerlaw-nu{d['nu']:g}"
    if d["family"] == "IidGaussian":
        return "gaussian"
    if d["family"] == "IidStudentT":
        return f"studentt-df{d['df']:g}"
    return f"orthogonal-s{d['s']:g}"


def _sweep_configs(seed: int):
    """The two demo sweeps with design seeds drawn from the workload seed."""
    seeds = iter(int(v) for v in np.random.default_rng(seed).integers(0, 2**31, 8))
    common = {"snr": 1.0, "flows": list(KINDS),
              "t_grid": _grid(0.01, 1000.0, 400),
              "ridge_grid": _grid(1e-6, 1000.0, 400)}
    power = [{"family": "PowerLaw", "C": 1.0, "nu": nu, "n": 500, "p": 100,
              "seed": next(seeds)} for nu in (0.1, 0.5, 1.0, 2.0)]
    matrix = [{"family": "IidGaussian", "n": 500, "p": 100, "seed": next(seeds)},
              {"family": "IidStudentT", "df": 5.0, "n": 500, "p": 100,
               "seed": next(seeds)},
              {"family": "Orthogonal", "s": 0.1, "n": 500, "p": 100,
               "seed": next(seeds)},
              {"family": "Orthogonal", "s": 1.0, "n": 500, "p": 100,
               "seed": next(seeds)}]
    return {"power_law_sweep": dict(common, design=power),
            "matrix_family_sweep": dict(common, design=matrix)}


def _read_curve(path):
    with open(path) as fh:
        rows = fh.read().splitlines()[1:]
    return np.array([r.split(",")[1:] for r in rows], dtype=float)


class Sweep:
    """``flowrisk simulate`` on both demo sweep configs (fixed signal)."""

    cal_parts = ("numpy",)

    def __init__(self, seed: int, scratch: str):
        self.configs = _sweep_configs(seed)
        self.argvs = []
        for name, cfg in self.configs.items():
            path = os.path.join(scratch, f"{name}.json")
            with open(path, "w") as fh:
                json.dump(cfg, fh)
            self.argvs.append(["simulate", "--config", path,
                               "--out", os.path.join(scratch, name)])
        self.items = sum(len(c["design"]) * len(c["flows"]) * c["t_grid"]["count"]
                         for c in self.configs.values())
        self.manifests = None

    def prepare(self):
        """Reference curves from each design's own spectrum and signal."""
        self.expected = {}
        for cfg in self.configs.values():
            for d in cfg["design"]:
                spec = experiments.DesignSpec.from_json(d)
                beta0, _ = experiments.gen_signal(d["p"], cfg["snr"], SIGMA_SQ,
                                                  derive_seed(d["seed"], 1))
                if d["family"] == "PowerLaw":
                    s = np.sort(d["C"] / np.arange(1, d["p"] + 1.0) ** d["nu"])
                    basis = experiments.gen_power_law_design(spec).v_basis
                else:
                    x = (experiments.gen_iid_design(spec)
                         if d["family"] != "Orthogonal"
                         else experiments.gen_orthogonal_design(spec))
                    gram = x.T @ x / d["n"]
                    s, basis = np.linalg.eigh(0.5 * (gram + gram.T))
                weights = (basis.T @ beta0) ** 2
                for kind in KINDS:
                    grid = _grid_points(cfg["ridge_grid" if kind == "ridge"
                                            else "t_grid"])
                    want = ref.curve(kind, s, weights, SIGMA_SQ / d["n"], grid)
                    name = f"{_design_label(d)}_{kind}.csv"
                    self.expected[name] = np.column_stack([grid, want])

    def op(self):
        return [_run_cli(argv)[0] for argv in self.argvs]

    def check(self, codes):
        if any(codes):
            return f"simulate exited {codes}"
        manifests = []
        for argv in self.argvs:
            out = argv[-1]
            with open(os.path.join(out, "manifest.json"), "rb") as fh:
                manifests.append(fh.read())
            for name, digest in json.loads(manifests[-1])["outputs"].items():
                if name not in self.expected:
                    return f"unexpected output {name}"
                path = os.path.join(out, name)
                with open(path, "rb") as fh:
                    data = fh.read()
                if hashlib.sha1(b"blob %d\0" % len(data) + data).hexdigest() != digest:
                    return f"{name} does not match its manifest hash"
                reason = ref.curve_failure(name, _read_curve(path), self.expected[name])
                if reason:
                    return reason
        if sum(len(json.loads(m)["outputs"]) for m in manifests) != len(self.expected):
            return "outputs missing from the manifests"
        if self.manifests is None:
            self.manifests = manifests
        elif manifests != self.manifests:
            return "manifest.json differs from the first op of this run"
        return None


class Oracle:
    """RK4 against closed forms (test-07 shape) plus coupling gaps (test 08)."""

    cal_parts = ("numpy",)
    T_END = 50.0
    STEP = 5e-3
    FLOWS = (FlowKind.GRADIENT_FLOW, FlowKind.ACCELERATED_FLOW,
             FlowKind.HEAVY_BALL_FLOW)

    def __init__(self, seed: int, scratch: str):
        rng = np.random.default_rng(seed)
        p = 3 + seed % 8
        eigs = np.sort(rng.uniform(0.05, 3.0, p))
        eigs[1] = eigs[0]  # an eigenvalue exactly at mu
        self.eigs = eigs
        self.forcing = rng.standard_normal(p)
        self.t_grid = np.linspace(0.0, self.T_END, 501)
        self.realizations = []
        for i in range(16):
            q = 1 + i % 8
            x = rng.standard_normal((q + 6, q))
            y = x @ rng.standard_normal(q) + rng.standard_normal(q + 6)
            self.realizations.append((x, y))
        self.coupling_t = np.logspace(-2, 3, 40)
        self.items = len(self.FLOWS) * round(self.T_END / self.STEP)

    def prepare(self):
        pass

    def op(self):
        spectrum = linalg.Spectrum(self.eigs)
        errors = [oracle.compare_closed_form(kind, spectrum, self.forcing,
                                             self.t_grid, step=self.STEP)
                  for kind in self.FLOWS]
        ratios = {FlowKind.ACCELERATED_FLOW: [], FlowKind.HEAVY_BALL_FLOW: []}
        for x, y in self.realizations:
            design = linalg.attach_response(linalg.design_decompose(x), x, y)
            for t in self.coupling_t:
                for kind, out in ratios.items():
                    out.append(estimators.coupling_gap(design, kind, float(t))[2])
        return errors, ratios

    def check(self, out):
        errors, ratios = out
        if not max(errors) <= 1e-6:
            return f"RK4 sup errors {errors} exceed 1e-6"
        nest = max(ratios[FlowKind.ACCELERATED_FLOW])
        if not nest <= 49.0 / 64.0 + 1e-9:
            return f"accelerated coupling ratio {nest!r} > 49/64"
        hb = max(ratios[FlowKind.HEAVY_BALL_FLOW])
        if not hb <= 25.0 + 1e-9:
            return f"heavy-ball coupling ratio {hb!r} > 25"
        return None


class Wide:
    """One big sampled design plus Bayes curves on a p = 10^4 spectrum."""

    N, P, P_BAYES, POINTS = 2000, 1000, 10_000, 400
    # About 30 % of an op is the 1000 x 1000 eigensolve in build_design.
    cal_parts = ("numpy", "lapack")

    def __init__(self, seed: int, scratch: str):
        rng = np.random.default_rng(seed)
        self.spec = experiments.DesignSpec(family="IidGaussian", n=self.N,
                                           p=self.P, seed=int(rng.integers(2**31)))
        self.beta0 = rng.standard_normal(self.P)
        nu = rng.uniform(0.5, 1.5)
        self.bayes_s = np.sort(np.arange(1, self.P_BAYES + 1.0) ** -nu)
        self.spectrum = linalg.Spectrum(self.bayes_s)
        self.prior = risk.SignalModel.prior(r_sq=1.0, sigma_sq=SIGMA_SQ, n=self.N)
        self.grids = {k: np.logspace(-6 if k == "ridge" else -2, 3, self.POINTS)
                      for k in KINDS}
        self.items = len(KINDS) * self.POINTS * (self.P + self.P_BAYES)

    def prepare(self):
        x = experiments.gen_iid_design(self.spec)
        gram = x.T @ x / self.N
        del x  # freed early: peak_rss_mb is the whole process's peak
        s, basis = np.linalg.eigh(0.5 * (gram + gram.T))
        weights = (basis.T @ self.beta0) ** 2
        del gram, basis
        self.design_s = s
        self.expected = {}
        for kind in KINDS:
            self.expected["fixed", kind] = ref.curve(
                kind, s, weights, SIGMA_SQ / self.N, self.grids[kind])
            self.expected["bayes", kind] = ref.curve(
                kind, self.bayes_s, np.full(self.P_BAYES, 1.0 / self.P_BAYES),
                SIGMA_SQ / self.N, self.grids[kind])
        self.floor = ref.ridge_floor(self.bayes_s, 1.0, SIGMA_SQ, self.N)

    def op(self):
        design = experiments.build_design(self.spec)
        signal = risk.SignalModel.fixed(design.v_basis.T @ self.beta0,
                                        SIGMA_SQ, self.N)
        curves = {}
        for kind in KINDS:
            flow = FlowKind(kind)
            curves["fixed", kind] = risk.risk_curve(design.spectrum, signal, flow,
                                                    self.grids[kind])
            curves["bayes", kind] = risk.risk_curve(self.spectrum, self.prior, flow,
                                                    self.grids[kind])
        return design.spectrum.eigenvalues, curves

    def check(self, out):
        eigs, curves = out
        err = np.abs(eigs - self.design_s).max() / self.design_s.max()
        if not err <= 1e-9:
            return f"design eigenvalues off by {err:.3g} relative"
        for key, curve in curves.items():
            got = np.array([[d.bias_sq, d.variance, d.risk] for _, d in curve])
            reason = ref.curve_failure(f"{key[0]} {key[1]}", got, self.expected[key])
            if reason:
                return reason
        for kind in ("gf", "nest", "hb"):
            low = min(d.risk for _, d in curves["bayes", kind])
            if not self.floor <= low * (1.0 + 1e-12):
                return f"ridge floor {self.floor!r} above the {kind} minimum {low!r}"
        return None


WORKLOADS = {"certify": Certify, "sweep": Sweep, "oracle": Oracle, "wide": Wide}
