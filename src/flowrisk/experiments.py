"""Synthetic instance generators and risk-sweep drivers at desk scale.

Four design families cover the simulation studies, one row each of the
_FAMILIES table that design labels, JSON keys, floors and size caps read:

* PowerLaw(C, nu): covariance eigenvalues set exactly to C/i^nu for
  i = 1..p (no sampling noise) under a seeded random eigenbasis;
* IidGaussian and IidStudentT(df): n x p matrices of unit-variance
  entries, the Student-t ones (an integer df > 2) rescaled by
  sqrt((df-2)/df);
* Orthogonal(s): matrices with X'X/n = s I to roundoff.

A sweep takes one or more designs, a seeded dense coefficient vector
scaled to a target signal-to-noise ratio ||b0||^2/sigma^2 (sigma^2 is
normalized to 1), and produces the exact bias/variance/risk curve of each
requested family: flows over the time grid, ridge over its own penalty
grid.  Fixed-coefficient curves are the default; bayes=True switches every
bias weight to the prior average r^2/p with r^2 = snr * sigma^2.

Outputs are one CSV per (design, family) named <label>_<kind>.csv in the
risk-module schema, plus a manifest recording the configuration and a
git-style blob hash of every file, so reruns are verifiably identical.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import numbers
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .linalg import MAX_DOUBLES, SpectralDesign, Spectrum, design_decompose
from .risk import SignalModel, _rewrite, risk_curve, write_risk_csv
from .rng import SeededStream, derive_seed
from .shrinkage import FlowKind

__all__ = [
    "ConfigError",
    "DesignSpec",
    "ExperimentConfig",
    "GridSpec",
    "gen_power_law_design",
    "gen_iid_design",
    "gen_orthogonal_design",
    "gen_signal",
    "build_design",
    "figure_sweep",
    "git_blob_hash",
    "output_files",
]

log = logging.getLogger(__name__)

SIGMA_SQ = 1.0
# family -> (label stem, parameters as (config key, DesignSpec field,
# exclusive floor) in check order, doubles counted per design entry past
# the p x p basis: the sampled entry, plus IidStudentT's df chi-square
# normals, an upper bound since those are drawn in blocks of 2^14 rows and
# the generator holds about two doubles per entry plus one block)
_FAMILIES = {
    "PowerLaw": ("powerlaw", (("nu", "nu", 0), ("C", "c", 0)), lambda d: 0),
    "IidGaussian": ("gaussian", (), lambda d: 1),
    "IidStudentT": ("studentt", (("df", "df", 2),), lambda d: 1 + int(d.df)),
    "Orthogonal": ("orthogonal", (("s", "s", 0),), lambda d: 1),
}
FAMILIES = tuple(_FAMILIES)


class ConfigError(ValueError):
    """A malformed experiment configuration; the message names the key."""


# The JSON readers: numbers, integers, and _json_typed for the types read
# as they are.  Each takes a parsed value and its key path and returns the
# Python value, or raises ConfigError naming the key.

def _type_error(key: str, what: str, value) -> ConfigError:
    return ConfigError(f"{key} must be {what}, got {json.dumps(value, default=repr)}")


def _json_float(value, key: str) -> float:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise _type_error(key, "a number", value)
    try:
        out = float(value)
    except OverflowError:
        raise ConfigError(f"{key} is out of the range of a double") from None
    if not math.isfinite(out):                  # JSON NaN, Infinity or 1e400
        raise _type_error(key, "a finite number", value)
    return out


def _json_int(value, key: str) -> int:
    """An integer, or an integral float such as 1e3."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise _type_error(key, "an integer", value)


def _json_typed(value, key: str, cls: type, what: str):
    """value itself if it is a cls (bool, str, list or dict)."""
    if not isinstance(value, cls):
        raise _type_error(key, what, value)
    return value


def _json_object(obj, key: str, required, optional=(), reader: str = "") -> None:
    """The one key rule of the config, its designs and its grids: obj is
    an object holding every required key and no key outside required and
    optional.  A ConfigError names the first missing key, else the first
    key that nothing reads."""
    _json_typed(obj, key, dict, "an object")
    prefix = "" if key == "config" else key + "."
    for name in required:
        if name not in obj:
            raise ConfigError(f"config key {prefix + name!r} is missing")
    for name in obj:
        if name not in required and name not in optional:
            raise ConfigError(f"config key {prefix + name!r} is not read{reader}")


def _require_above(value, floor, key: str, where: str = "") -> None:
    """ConfigError naming key unless floor < value < inf (None and NaN fail)."""
    if value is None or not floor < value < math.inf:
        raise ConfigError(f"{key} must be finite and > {floor}{where}, "
                          f"got {value!r}")


def _require_seed(value: int, key: str) -> None:
    """ConfigError naming key unless 0 <= value < 2^64.  SeededStream takes
    its seed mod 2^64, so a seed outside that range would run the stream of
    another seed while the manifest records its own."""
    if not 0 <= value < 1 << 64:
        raise ConfigError(f"{key} must be an integer in [0, 2^64), got {value}")


@dataclass(frozen=True)
class DesignSpec:
    """One design family instance: family tag, shape, seed, parameters."""

    family: str
    n: int
    p: int
    seed: int
    c: float = 1.0          # PowerLaw scale C
    nu: float | None = None  # PowerLaw decay exponent
    df: float | None = None  # IidStudentT degrees of freedom
    s: float | None = None   # Orthogonal eigenvalue level

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigError(f"design.family must be one of {FAMILIES}")
        if self.n < 1 or self.p < 1:
            raise ConfigError("design.n and design.p must be positive")
        _require_seed(self.seed, "design.seed")
        _, params, per_entry = _FAMILIES[self.family]
        for key, field, floor in params:
            _require_above(getattr(self, field), floor, f"design.{key}",
                           f" for {self.family}")
        if self.family == "PowerLaw":
            # the smallest eigenvalue, computed as gen_power_law_design does
            with np.errstate(over="ignore", under="ignore"):
                least = float((self.c / np.array([float(self.p)]) ** self.nu)[0])
            if not least >= sys.float_info.min:
                raise ConfigError(
                    f"design.C / design.p ** design.nu = {least:.3g} is not a "
                    "positive normal double for PowerLaw")
        # gen_iid_design draws int(df) degrees of freedom
        if self.family == "IidStudentT" and self.df != int(self.df):
            raise ConfigError("design.df must be an integer for "
                              f"IidStudentT, got {self.df!r}")
        if self.family == "Orthogonal" and self.n < self.p:
            raise ConfigError("design.n must be >= design.p for Orthogonal")
        doubles = self.p * self.p + self.n * self.p * per_entry(self)
        if doubles > MAX_DOUBLES:
            raise ConfigError(
                f"design.n = {self.n}, design.p = {self.p}: the {self.family} "
                f"design would hold {doubles:.3g} doubles, above the cap of "
                f"{MAX_DOUBLES}")

    @property
    def label(self) -> str:
        # -<key><value> per parameter off its field default (C = 1 is left out)
        stem, params, _ = _FAMILIES[self.family]
        return stem + "".join(f"-{key}{getattr(self, field):g}"
                              for key, field, _ in params
                              if getattr(self, field) != getattr(DesignSpec, field))

    @classmethod
    def from_json(cls, obj: dict) -> "DesignSpec":
        family = obj.get("family") if isinstance(obj, dict) else None
        if isinstance(family, str) and family in _FAMILIES:
            params, reader = _FAMILIES[family][1], f" for {family}"
        else:        # the spec refuses the family by name
            params, reader = [p for _, ps, _ in _FAMILIES.values() for p in ps], ""
        _json_object(obj, "design", ("family", "n", "p", "seed"),
                     [key for key, _, _ in params], reader)
        values = {field: _json_float(obj[key], f"design.{key}")
                  for key, field, _ in params if key in obj}
        return cls(family=_json_typed(obj["family"], "design.family", str,
                                      "a string"),
                   n=_json_int(obj["n"], "design.n"),
                   p=_json_int(obj["p"], "design.p"),
                   seed=_json_int(obj["seed"], "design.seed"), **values)

    def to_json(self) -> dict:
        return {"family": self.family, "n": self.n, "p": self.p, "seed": self.seed,
                **{key: getattr(self, field)
                   for key, field, _ in _FAMILIES[self.family][1]}}


@dataclass(frozen=True)
class GridSpec:
    """A 1-D grid: finite bounds, point count, and log or linear spacing."""

    lo: float
    hi: float
    count: int
    log: bool = True

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError(f"grid bounds {self.lo!r}, {self.hi!r} must be finite")
        if self.count < 2:
            raise ValueError("grid needs at least 2 points")
        if self.count > MAX_DOUBLES:
            raise ValueError(f"grid of {self.count} points exceeds "
                             f"{MAX_DOUBLES} doubles")
        if self.log and (self.lo <= 0 or self.hi <= self.lo):
            raise ValueError("log grid requires 0 < lo < hi")
        if not self.log and self.hi <= self.lo:
            raise ValueError("linear grid requires lo < hi")

    def points(self) -> np.ndarray:
        if self.log:
            return np.logspace(np.log10(self.lo), np.log10(self.hi), self.count)
        return np.linspace(self.lo, self.hi, self.count)


def _grid_from_json(obj, key) -> GridSpec:
    _json_object(obj, key, ("lo", "hi", "count"), ("log",))
    lo = _json_float(obj["lo"], f"{key}.lo")
    hi = _json_float(obj["hi"], f"{key}.hi")
    count = _json_int(obj["count"], f"{key}.count")
    log = _json_typed(obj.get("log", True), f"{key}.log", bool, "true or false")
    try:
        return GridSpec(lo=lo, hi=hi, count=count, log=log)
    except ValueError as exc:
        raise ConfigError(f"{key} is invalid: {exc}") from exc


@dataclass(frozen=True)
class ExperimentConfig:
    """A full sweep: designs, signal strength, families, grids, output dir."""

    design: tuple[DesignSpec, ...]
    snr: float
    flows: tuple[FlowKind, ...]
    t_grid: GridSpec
    ridge_grid: GridSpec
    output_dir: str | None = None

    def __post_init__(self):
        if not self.design:
            raise ConfigError("design list is empty")
        _require_above(self.snr, 0, "snr")
        if not self.flows:
            raise ConfigError("flows list is empty")

    @classmethod
    def from_json(cls, obj: dict) -> "ExperimentConfig":
        _json_object(obj, "config",
                     ("design", "snr", "flows", "t_grid", "ridge_grid"),
                     ("output_dir",))
        raw_design = obj["design"]
        if isinstance(raw_design, dict):
            raw_design = [raw_design]
        if not isinstance(raw_design, list):
            raise ConfigError("design must be an object or a list of objects")
        designs = tuple(DesignSpec.from_json(d) for d in raw_design)
        tokens = [_json_typed(tok, f"flows[{i}]", str, "a string") for i, tok
                  in enumerate(_json_typed(obj["flows"], "flows", list, "a list"))]
        try:
            flows = tuple(FlowKind.parse(tok) for tok in tokens)
        except ValueError as exc:
            raise ConfigError(f"flows: {exc}") from exc
        output_dir = obj.get("output_dir")
        return cls(design=designs, snr=_json_float(obj["snr"], "snr"), flows=flows,
                   t_grid=_grid_from_json(obj["t_grid"], "t_grid"),
                   ridge_grid=_grid_from_json(obj["ridge_grid"], "ridge_grid"),
                   output_dir=None if output_dir is None
                   else _json_typed(output_dir, "output_dir", str, "a string"))

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        with open(path, encoding="utf-8") as fh:   # JSON is UTF-8 (RFC 8259)
            try:
                obj = json.load(fh)
            except (json.JSONDecodeError, UnicodeDecodeError,
                    RecursionError) as exc:
                raise ConfigError(f"config is not valid JSON: {exc}") from exc
        return cls.from_json(obj)

    def to_json(self) -> dict:
        return {
            "design": [d.to_json() for d in self.design],
            "snr": self.snr,
            "flows": [k.value for k in self.flows],
            "t_grid": asdict(self.t_grid),
            "ridge_grid": asdict(self.ridge_grid),
            "output_dir": self.output_dir,
        }


def _orthonormal_columns(gauss: np.ndarray) -> np.ndarray:
    """Q of the QR of a Gaussian matrix, signs fixed so diag(R) >= 0.

    The sign fix makes Q a deterministic, Haar-distributed function of the
    draws.
    """
    q, r = np.linalg.qr(gauss)
    return q * np.where(np.diag(r) < 0, -1.0, 1.0)[None, :]


def gen_power_law_design(spec: DesignSpec) -> SpectralDesign:
    """Spectral design with eigenvalues exactly C/i^nu under a seeded basis."""
    if spec.family != "PowerLaw":
        raise ConfigError("gen_power_law_design requires a PowerLaw spec")
    values = spec.c / np.arange(1, spec.p + 1, dtype=float) ** spec.nu
    spectrum = Spectrum(np.sort(values))
    gauss = SeededStream(spec.seed).normals(spec.p * spec.p)
    basis = _orthonormal_columns(gauss.reshape(spec.p, spec.p))
    return SpectralDesign(n=spec.n, p=spec.p, spectrum=spectrum, v_basis=basis)


def gen_iid_design(spec: DesignSpec) -> np.ndarray:
    """Seeded n x p matrix of unit-variance iid entries."""
    if spec.family not in ("IidGaussian", "IidStudentT"):
        raise ConfigError("gen_iid_design requires an iid family spec")
    stream = SeededStream(spec.seed)
    if spec.family == "IidGaussian":
        entries = stream.normals(spec.n * spec.p)
    else:
        entries = stream.student_t(spec.n * spec.p, int(spec.df))
        entries *= np.sqrt((spec.df - 2.0) / spec.df)
    return entries.reshape(spec.n, spec.p)


def gen_orthogonal_design(spec: DesignSpec) -> np.ndarray:
    """Seeded n x p matrix with X'X/n = s I to roundoff (needs n >= p)."""
    if spec.family != "Orthogonal":
        raise ConfigError("gen_orthogonal_design requires an Orthogonal spec")
    stream = SeededStream(spec.seed)
    gauss = stream.normals(spec.n * spec.p).reshape(spec.n, spec.p)
    return _orthonormal_columns(gauss) * np.sqrt(spec.n * spec.s)


def gen_signal(p: int, snr: float, sigma_sq: float, seed: int) -> tuple[np.ndarray, float]:
    """Seeded dense coefficients rescaled so ||b0||^2 / sigma^2 = snr."""
    _require_above(snr, 0, "snr")
    stream = SeededStream(seed)
    beta = stream.normals(p)
    beta = beta * np.sqrt(snr * sigma_sq) / np.linalg.norm(beta)
    return beta, sigma_sq


def build_design(spec: DesignSpec) -> SpectralDesign:
    """Materialize any family as a SpectralDesign (decomposing if sampled)."""
    if spec.family == "PowerLaw":
        return gen_power_law_design(spec)
    if spec.family == "Orthogonal":
        return design_decompose(gen_orthogonal_design(spec))
    return design_decompose(gen_iid_design(spec))


def git_blob_hash(data: bytes) -> str:
    """The sha1 a git blob of these bytes would get."""
    return hashlib.sha1(b"blob %d\0" % len(data) + data).hexdigest()


def _unique_labels(designs) -> list[str]:
    seen: dict[str, int] = {}
    labels = []
    for spec in designs:
        base = spec.label
        seen[base] = seen.get(base, 0) + 1
        labels.append(base if seen[base] == 1 else f"{base}-{seen[base]}")
    return labels


def _curve_file(label: str, token: str) -> str:
    return f"{label}_{token}.csv"


def output_files(config: ExperimentConfig) -> list[str]:
    """The names figure_sweep may write under config.output_dir: a curve
    file per design and flow (heavy-ball files it skips included), then
    manifest.json."""
    return [_curve_file(label, kind.value)
            for label in _unique_labels(config.design)
            for kind in config.flows] + ["manifest.json"]


def figure_sweep(config: ExperimentConfig, bayes: bool = False) -> dict:
    """Run every (design, family) sweep and return the curve dataset.

    Returns {design_label: {kind_token: curve}}.  When config.output_dir is
    set, also writes <label>_<kind>.csv files plus manifest.json with a
    git-style blob hash of every output.  A rerun into the same directory
    rewrites each file in place and truncates it after the write
    (risk._rewrite), so it keeps its inode and mode, and nothing is
    fsynced.  Heavy-ball sweeps are skipped with a logged warning on
    designs whose smallest eigenvalue is zero.
    """
    dataset: dict = {}
    for label, spec in zip(_unique_labels(config.design), config.design):
        design = build_design(spec)
        if bayes:
            signal = SignalModel.prior(r_sq=config.snr * SIGMA_SQ,
                                       sigma_sq=SIGMA_SQ, n=spec.n)
        else:
            beta0, _ = gen_signal(spec.p, config.snr, SIGMA_SQ,
                                  derive_seed(spec.seed, 1))
            signal = SignalModel.fixed(design.v_basis.T @ beta0, SIGMA_SQ, spec.n)
        for kind in config.flows:
            if kind is FlowKind.HEAVY_BALL_FLOW and design.spectrum.mu <= 0:
                log.warning("skipping heavy ball on %s: smallest eigenvalue is 0",
                            label)
                continue
            grid = config.ridge_grid if kind is FlowKind.RIDGE else config.t_grid
            curve = risk_curve(design.spectrum, signal, kind, grid.points())
            dataset.setdefault(label, {})[kind.value] = curve

    if config.output_dir is not None:
        out = Path(config.output_dir)
        out.mkdir(parents=True, exist_ok=True)
        hashes = {}
        for label in sorted(dataset):
            for token in sorted(dataset[label]):
                name = _curve_file(label, token)
                hashes[name] = git_blob_hash(write_risk_csv(
                    out / name, FlowKind(token), dataset[label][token]))
        manifest = {
            "config": config.to_json(),
            "bayes": bayes,
            "sigma_sq": SIGMA_SQ,
            "outputs": hashes,
        }
        text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        _rewrite(out / "manifest.json", text.encode("ascii"))
    return dataset
