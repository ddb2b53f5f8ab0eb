"""Command-line interface: verification, curves, estimates, simulation.

Exit codes: 0 success, 1 a verification failed (a certified value left its
tolerance, or the certifier could not produce one), 2 usage or
configuration error.  All numeric output carries 17 significant digits.

run parses with one parser per process, built by build_parser on the first
run and reused by every later one (parse_args fills a new namespace each
time and leaves the parser unchanged), so a process that runs several
commands, a notebook or a test suite, builds it once.  A fresh process
running one command still builds it once.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import bounds
from .estimators import estimate
from .experiments import (ConfigError, ExperimentConfig, GridSpec,
                          _require_seed, figure_sweep, output_files)
from .linalg import (MAX_DOUBLES, Spectrum, attach_response, design_decompose,
                     read_matrix_csv, read_vector_csv)
from .oracle import compare_closed_form
from .risk import SignalModel, risk_csv_text, risk_curve, write_risk_csv
from .rng import SeededStream
from .shrinkage import FlowKind, _path_params, factor_block
from .special import bessel_j1, j1_ratio

__all__ = ["main", "run"]


def _fmt(v: float) -> str:
    """A double with 17 significant digits, which round-trips it exactly."""
    return format(float(v), ".17g")


def _grid_part(name: str, text: str) -> float | int:
    """One part of --grid: lo and hi as doubles, count as an integer or an
    integral float such as 1e3 (a config's grid count rule)."""
    try:
        value = float(text)
        if name == "count" and not value.is_integer():
            raise ValueError
    except ValueError:
        what = "an integer" if name == "count" else "a number"
        raise ConfigError(f"--grid {name} must be {what}, got {text!r}") from None
    return int(value) if name == "count" else value


def _parse_grid(text: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) < 3 or parts[3:] not in ([], ["log"], ["linear"]):
        raise ConfigError("grid must be lo,hi,count[,log|linear]")
    lo, hi, count = map(_grid_part, ("lo", "hi", "count"), parts[:3])
    return GridSpec(lo, hi, count, log=parts[3:] != ["linear"]).points()


# ---------------------------------------------------------------------------
# verify-constants

def _check(name, value, reference, tolerance, mode, runtime_ms):
    return {
        "name": name,
        "value": value,
        "paper_value": reference,
        "tolerance": tolerance,
        "pass": bounds.within(value, reference, tolerance, mode),
        "runtime_ms": round(runtime_ms, 3),
    }


def _require_dir(path, name, files) -> None:
    """Refuse, before any work, a directory path that names a file or lies
    under one, or that holds a directory where the command writes one of
    files, so that no command computes what it cannot write."""
    target = Path(path)
    for file in files:
        if (target / file).is_dir():
            raise ConfigError(f"{name} {path!r} holds a directory named {file!r}")
    found = next((p for p in (target, *target.parents) if p.exists()), None)
    if found is None or found.is_dir():
        return
    if found == target:
        raise ConfigError(f"{name} {path!r} is not a directory")
    raise ConfigError(f"{name} {path!r} lies under {str(found)!r}, "
                      "which is not a directory")


def _cmd_verify_constants(args) -> int:
    if args.out:
        _require_dir(args.out, "--out", ["constants.json"])
    checks = [_check(c.name, record.value, c.paper_value, c.tolerance, c.mode,
                     ms) for c, record, ms in bounds.run_checks()]
    text = json.dumps({"checks": checks}, indent=2, sort_keys=True)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "constants.json"), "w") as fh:
            fh.write(text + "\n")
    print(text)
    return 0 if all(c["pass"] for c in checks) else 1


# ---------------------------------------------------------------------------
# risk-curve / estimate / oracle-check / simulate / shrink / special-eval

def _cmd_risk_curve(args) -> int:
    if args.out:  # refuse a path that cannot be written before any work
        out = Path(args.out)
        if out.is_dir():
            raise ConfigError(f"--out {args.out!r} is a directory")
        if not out.exists():
            _require_dir(args.out, "--out", [])  # a path under a file
            if not out.parent.is_dir():
                raise ConfigError(f"--out {args.out!r} lies in "
                                  f"{str(out.parent)!r}, which does not exist")
    grid = _parse_grid(args.grid)
    kind = FlowKind.parse(args.kind)
    if args.bayes and args.r2 is None:
        raise ConfigError("config key 'r2' is missing (required with --bayes)")
    if not args.bayes and args.beta0 is None:
        raise ConfigError("config key 'beta0' is missing (fixed-signal curves)")
    # --r2 and --sigma2 are checked before any input is read: n = 1 and no
    # coefficients stand in for the design's until it is
    signal = (SignalModel.prior(r_sq=args.r2, sigma_sq=args.sigma2, n=1)
              if args.bayes else SignalModel.fixed([], args.sigma2, 1))
    design = design_decompose(read_matrix_csv(args.design))
    if args.bayes:
        signal = replace(signal, n=design.n)
    else:
        beta0 = read_vector_csv(args.beta0)
        if beta0.size != design.p:
            raise ConfigError("beta0 length does not match the design")
        signal = replace(signal, n=design.n,
                         beta0_rotated=design.v_basis.T @ beta0)
    curve = risk_curve(design.spectrum, signal, kind, grid)
    if args.out:
        write_risk_csv(args.out, kind, curve)
    else:
        sys.stdout.write(risk_csv_text(kind, curve))
    return 0


def _cmd_estimate(args) -> int:
    kind = FlowKind.parse(args.kind)
    _path_params(args.t)   # estimate's rule for --t, before any input is read
    x = read_matrix_csv(args.design)
    y = read_vector_csv(args.response)
    design = attach_response(design_decompose(x), x, y)
    for v in estimate(design, kind, args.t)[0]:
        print(_fmt(v))
    return 0


def _cmd_oracle_check(args) -> int:
    kind = FlowKind.parse(args.kind)
    if kind is FlowKind.RIDGE:
        raise ConfigError("oracle-check covers the three flows")
    if args.tol is not None and not (np.isfinite(args.tol) and args.tol >= 0):
        raise ConfigError(f"--tol must be finite and >= 0, got {args.tol!r}")
    for flag, count in (("--grid-count", args.grid_count), ("--p", args.p)):
        if count < 1:
            raise ConfigError(f"{flag} must be >= 1, got {count}")
        if count > MAX_DOUBLES:
            raise ConfigError(f"{flag} {count} exceeds {MAX_DOUBLES} doubles")
    _require_seed(args.seed, "--seed")
    stream = SeededStream(args.seed)
    eigs = np.sort(0.05 + 2.95 * stream.uniforms(args.p))
    spectrum = Spectrum(eigs)
    forcing = stream.normals(args.p)
    # a non-finite --t-end gives a non-finite grid, which compare_closed_form
    # rejects by name
    with np.errstate(invalid="ignore"):
        t_grid = np.linspace(0.0, args.t_end, args.grid_count)
    sup_error = compare_closed_form(kind, spectrum, forcing, t_grid, step=args.step)
    report = {
        "kind": kind.value,
        "p": args.p,
        "seed": args.seed,
        "step": args.step,
        "t_end": args.t_end,
        "sup_error": sup_error,
    }
    print(json.dumps(report, indent=2, sort_keys=True))
    if args.tol is not None and sup_error > args.tol:
        return 1
    return 0


def _cmd_simulate(args) -> int:
    config = ExperimentConfig.from_file(args.config)
    if args.out:
        config = replace(config, output_dir=args.out)
    if config.output_dir is None:
        raise ConfigError("config key 'output_dir' is missing (or pass --out)")
    _require_dir(config.output_dir,
                 "--out" if args.out else "config key 'output_dir'",
                 output_files(config))
    dataset = figure_sweep(config, bayes=args.bayes)
    n_files = sum(len(v) for v in dataset.values())
    print(f"wrote {n_files} curve files and manifest.json to {config.output_dir}")
    return 0


def _cmd_shrink(args) -> int:
    kind = FlowKind.parse(args.kind)
    if kind is FlowKind.HEAVY_BALL_FLOW and args.mu is None:
        raise ConfigError("config key 'mu' is missing (heavy ball needs --mu)")
    print(_fmt(factor_block(kind, args.s, args.t, args.mu)[0, 0]))
    return 0


_SPECIAL = {"j1": bessel_j1, "j1-ratio": j1_ratio}


def _cmd_special_eval(args) -> int:
    print(_fmt(_SPECIAL[args.fn](args.x)))
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowrisk",
        description="Risk curves, couplings, and certified constants for "
                    "continuous-time least-squares estimators.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-constants", help="certify every constant and bound")
    p.add_argument("--out", help="directory for constants.json")
    p.set_defaults(handler=_cmd_verify_constants)

    p = sub.add_parser("risk-curve", help="exact risk curve for one design")
    p.add_argument("--design", required=True, help="design matrix CSV")
    p.add_argument("--kind", required=True, help="gf | nest | hb | ridge")
    p.add_argument("--grid", required=True, help="lo,hi,count[,log|linear]")
    p.add_argument("--beta0", help="true coefficients CSV (fixed-signal mode)")
    p.add_argument("--bayes", action="store_true", help="prior-averaged curve")
    p.add_argument("--r2", type=float, help="prior signal energy r^2")
    p.add_argument("--sigma2", type=float, default=1.0, help="noise variance")
    p.add_argument("--out", help="output CSV path (default stdout)")
    p.set_defaults(handler=_cmd_risk_curve)

    p = sub.add_parser("estimate", help="coefficient path point on (X, y)")
    p.add_argument("--kind", required=True, help="gf | nest | hb | ridge")
    p.add_argument("--t", type=float, required=True,
                   help="time t for flows, penalty lambda for ridge")
    p.add_argument("--design", required=True, help="design matrix CSV")
    p.add_argument("--response", required=True, help="response vector CSV")
    p.set_defaults(handler=_cmd_estimate)

    p = sub.add_parser("oracle-check", help="RK4 vs closed form on a seeded instance")
    p.add_argument("--kind", required=True, help="gf | nest | hb")
    p.add_argument("--p", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--step", type=float, default=1e-3)
    p.add_argument("--t-end", dest="t_end", type=float, default=20.0)
    p.add_argument("--grid-count", dest="grid_count", type=int, default=50)
    p.add_argument("--tol", type=float, default=None,
                   help="fail (exit 1) if sup error exceeds this")
    p.set_defaults(handler=_cmd_oracle_check)

    p = sub.add_parser("simulate", help="run a sweep config to CSV files")
    p.add_argument("--config", required=True, help="JSON config path")
    p.add_argument("--bayes", action="store_true", help="prior-averaged curves")
    p.add_argument("--out", help="override output directory")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("shrink", help="one shrinkage factor")
    p.add_argument("--kind", required=True, help="gf | nest | hb | ridge")
    p.add_argument("--s", type=float, required=True, help="eigenvalue")
    p.add_argument("--t", type=float, required=True,
                   help="time t (flows) or lambda (ridge)")
    p.add_argument("--mu", type=float, default=None, help="heavy-ball damping level")
    p.set_defaults(handler=_cmd_shrink)

    p = sub.add_parser("special-eval", help="evaluate a special function")
    p.add_argument("--fn", required=True, choices=tuple(_SPECIAL))
    p.add_argument("--x", type=float, required=True)
    p.set_defaults(handler=_cmd_special_eval)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser's parser, built on the first run of this process."""
    return build_parser()


def run(argv) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    # warnings the package logs (e.g. a skipped heavy-ball sweep) go to
    # stderr for the length of this command
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s: %(message)s"))
    package_log = logging.getLogger("flowrisk")
    package_log.addHandler(handler)
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:  # ConfigError too
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        package_log.removeHandler(handler)


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
