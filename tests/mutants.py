"""Mutants the test suite must kill, and a runner that checks it does.

Each entry names a file, one exact piece of its text, the text that replaces
it, and the tests expected to fail once it does.  Run every mutant, or the
named ones, with

    python tests/mutants.py [NAME ...]

The runner copies the repository (without .git and caches) into a temporary
directory, runs the named tests there once unmutated, then applies each
mutant in turn and runs its tests with -x.  A mutant is killed when pytest
exits 1; the runner exits 1 when any mutant survives.
tests/test_mutants.py checks, in Tier-1, that every old text occurs exactly
once in its file and that every named test resolves in its file, so the
list cannot silently rot.

Method: R. A. DeMillo, R. J. Lipton and F. G. Sayward, "Hints on test data
selection", IEEE Computer 11(4), 1978.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str          # relative to the repository root
    old: str           # occurs exactly once in path
    new: str
    tests: tuple       # pytest ids, relative to the repository root


MUTANTS = (
    Mutant("scan-one-block-last-argmax", "src/flowrisk/bounds.py",
           "            if one_block:\n                return v, k\n",
           "            if one_block:\n"
           "                return v, vals.shape[1] - 1 - vals[:, ::-1].argmax(axis=1)\n",
           ("tests/test_bounds.py",)),
    Mutant("zoom-skips-its-last-round", "src/flowrisk/bounds.py",
           "    for r in range(zoom_rounds):\n",
           "    for r in range(zoom_rounds - 1):\n",
           ("tests/test_bounds.py",)),
    Mutant("j1-guard-dropped-at-zero", "src/flowrisk/special.py",
           "    if lo > 0:\n        out /= vec\n",
           "    if lo >= 0:\n        out /= vec\n",
           ("tests/test_special.py",)),
    Mutant("minimax-memo-swapped", "src/flowrisk/bounds.py",
           "            seen.update(zip(new, _inner_max(",
           "            seen.update(zip(new[::-1], _inner_max(",
           ("tests/test_bounds.py::TestBlockedScan::"
            "test_constants_match_the_loop_minimax",)),
    Mutant("complement-gate-off-the-cutoff", "src/flowrisk/special.py",
           "    if hi < _COMPLEMENT_CUTOFF:\n",
           "    if hi < 2.0 * _COMPLEMENT_CUTOFF:\n",
           ("tests/test_special.py::"
            "test_complement_blocks_equal_the_two_mask_form",)),
    Mutant("gf-inflation-one-plus-x", "src/flowrisk/bounds.py",
           "    return (1.0 + x) * (np.exp(-2.0 * tau * x)",
           "    return (1.0 + 0.5 * x) * (np.exp(-2.0 * tau * x)",
           ("tests/test_bounds.py",)),
    Mutant("nest-tuning-tau-over-lambda", "src/flowrisk/bounds.py",
           "    u = np.asarray(tau * np.sqrt(x))\n",
           "    u = np.asarray(tau * x)\n",
           ("tests/test_bounds.py",)),
    Mutant("ridge-floor-alpha", "src/flowrisk/risk.py",
           "np.sum(alpha / (alpha * s + 1.0))",
           "np.sum(alpha / (s + 1.0))",
           ("tests/test_risk.py",)),
    Mutant("ridge-halving-numerator", "src/flowrisk/shrinkage.py",
           "    return num * half, s * half + lam * half\n",
           "    return num, s * half + lam * half\n",
           ("tests/test_cli.py", "tests/test_shrinkage.py")),
    Mutant("hb-limit-one", "src/flowrisk/shrinkage.py",
           "np.where(over, 0.0, b))\n    out[over] = 0.0\n",
           "np.where(over, 0.0, b))\n    out[over] = 1.0\n",
           ("tests/test_shrinkage.py::TestProfile::"
            "test_an_overflowing_argument_takes_its_limit",
            "tests/test_estimators.py::TestCouplingMatchesReference::"
            "test_an_overflowing_argument_takes_its_limit")),
    Mutant("nest-limit-half", "src/flowrisk/shrinkage.py",
           "np.where(over, 0.0, u))\n    out[over] = 0.0\n",
           "np.where(over, 0.0, u))\n    out[over] = 0.5\n",
           ("tests/test_shrinkage.py::TestProfile::"
            "test_an_overflowing_argument_takes_its_limit",
            "tests/test_estimators.py::TestCouplingMatchesReference::"
            "test_an_overflowing_argument_takes_its_limit")),
    Mutant("ridge-halving-never-halves", "src/flowrisk/shrinkage.py",
           "    half = np.where(over, 0.5, 1.0)\n",
           "    half = np.where(over, 1.0, 1.0)\n",
           ("tests/test_shrinkage.py::TestProfile::"
            "test_ridge_halves_where_s_plus_lambda_overflows",
            "tests/test_estimators.py::"
            "test_a_ridge_row_whose_s_plus_lambda_overflows_is_halved")),
    Mutant("simulate-preflight-manifest-only", "src/flowrisk/cli.py",
           "                 output_files(config))\n",
           "                 [\"manifest.json\"])\n",
           ("tests/test_cli.py::"
            "test_an_out_that_cannot_be_a_directory_is_refused_before_any_work",)),
    Mutant("complement-series-coefficient", "src/flowrisk/special.py",
           "x2 / 8.0 - x2 * x2 / 192.0",
           "x2 / 8.0 - x2 * x2 / 190.0",
           ("tests/test_special.py", "tests/test_bounds.py")),
    Mutant("coupling-scale-exponent", "src/flowrisk/estimators.py",
           "    exponent = np.frexp(top)[1] - 1\n",
           "    exponent = np.frexp(top)[1] + 500\n",
           ("tests/test_estimators.py",)),
    Mutant("rk4-stage-weight", "src/flowrisk/oracle.py",
           "(d1 + 2.0 * d2 + 2.0 * d3 + d4)",
           "(d1 + 3.0 * d2 + 1.0 * d3 + d4)",
           ("tests/test_oracle.py",)),
    Mutant("verify-constants-loosened-rows", "src/flowrisk/cli.py",
           "c.paper_value, c.tolerance, c.mode,",
           "c.paper_value, 2.0 * c.tolerance, c.mode,",
           ("tests/test_ledger.py",)),
    Mutant("splitmix64-constant", "src/flowrisk/rng.py",
           "_MIX2 = np.uint64(0x94D049BB133111EB)",
           "_MIX2 = np.uint64(0x94D049BB133111EA)",
           ("tests/test_rng.py",)),
    Mutant("risk-curve-out-check-skipped", "src/flowrisk/cli.py",
           "    if args.out:  # refuse a path that cannot be written before",
           "    if False:  # refuse a path that cannot be written before",
           ("tests/test_cli.py::"
            "test_risk_curve_refuses_an_out_it_cannot_write_before_any_work",)),
    Mutant("config-recursion-error-uncaught", "src/flowrisk/experiments.py",
           "UnicodeDecodeError,\n                    RecursionError) as exc:",
           "UnicodeDecodeError) as exc:",
           ("tests/test_cli.py::"
            "test_simulate_refuses_a_config_nested_past_the_recursion_limit",)),
    Mutant("config-decode-error-uncaught", "src/flowrisk/experiments.py",
           "except (json.JSONDecodeError, UnicodeDecodeError,",
           "except (json.JSONDecodeError,",
           ("tests/test_cli.py::"
            "test_simulate_refuses_a_config_that_is_not_utf8",)),
    Mutant("risk-curve-finiteness-check-skipped", "src/flowrisk/risk.py",
           "    _path_params(grid)\n",
           "",
           ("tests/test_risk.py::TestRiskCurve::test_grid_refusals",)),
    Mutant("ridge-zero-limit-dropped", "src/flowrisk/shrinkage.py",
           "        out[(lam == 0.0) & (s == 0.0)] = 1.0\n",
           "        out[(lam == 0.0) & (s == 0.0)] = 0.0\n",
           ("tests/test_risk.py::TestRiskCurve::"
            "test_ridge_at_lambda_zero_is_gradient_flow_at_1e300_when_rank_deficient",
            "tests/test_shrinkage.py::TestProfile::"
            "test_a_null_direction_keeps_factor_one")),
    Mutant("design-below-clamp-guard-skipped", "src/flowrisk/linalg.py",
           "    if w[0] < -tol:\n",
           "    if False:\n",
           ("tests/test_linalg.py::TestDesignDecompose::"
            "test_clamp_of_roundoff_eigenvalues",)),
    Mutant("risk-curve-reads-the-design-before-kind", "src/flowrisk/cli.py",
           "    kind = FlowKind.parse(args.kind)\n    if args.bayes and",
           "    read_matrix_csv(args.design)\n"
           "    kind = FlowKind.parse(args.kind)\n    if args.bayes and",
           ("tests/test_cli.py::"
            "test_usage_errors_are_refused_before_any_input_is_read",)),
    Mutant("spectral-design-orthogonality-check-skipped",
           "src/flowrisk/linalg.py",
           "        if gram_err > ORTHOGONALITY_TOL * max(1.0, self.p):\n",
           "        if False:\n",
           ("tests/test_linalg.py::test_spectral_design_refusals",)),
    Mutant("spectrum-finiteness-and-sign-checks-skipped",
           "src/flowrisk/linalg.py",
           "        if not np.isfinite(vals).all():\n"
           "            raise ValueError(\"Spectrum eigenvalues must be finite\")\n"
           "        if (vals < 0).any():\n",
           "        if False:\n"
           "            raise ValueError(\"Spectrum eigenvalues must be finite\")\n"
           "        if False:\n",
           ("tests/test_linalg.py::TestSpectrum::test_refusals",)),
    Mutant("uniforms-count-check-off-by-one", "src/flowrisk/rng.py",
           "    if n < 0:\n",
           "    if n < -1:\n",
           ("tests/test_rng.py::"
            "test_uniforms_refuses_a_count_that_is_not_a_nonnegative_integer",)),
    Mutant("rng-count-rule-skipped", "src/flowrisk/rng.py",
           "        count = _count(count)\n",
           "",
           ("tests/test_rng.py::"
            "test_draws_refuse_counts_and_dfs_before_the_counter_moves",)),
    Mutant("integer-rule-truncates", "src/flowrisk/rng.py",
           "        return operator.index(value)\n",
           "        return int(value)\n",
           ("tests/test_rng.py::test_seeds_and_indices_follow_the_integer_rule",
            "tests/test_risk.py::test_signal_model_n_follows_the_integer_rule",
            "tests/test_experiments.py::test_specs_follow_the_integer_rule")),
    Mutant("seed-bound-off-by-a-power-of-two", "src/flowrisk/experiments.py",
           "    if not 0 <= value < 1 << 64:\n",
           "    if not 0 <= value < 1 << 65:\n",
           ("tests/test_experiments.py::test_refusals",)),
    Mutant("attach-response-channel-unchecked", "src/flowrisk/linalg.py",
           "    _set_channel(attached, channel)\n",
           "    object.__setattr__(attached, \"rotated_channel\", channel)\n",
           ("tests/test_linalg.py::TestAttachResponse::"
            "test_refuses_a_channel_that_overflows",)),
    Mutant("eigensolve-power-of-two-scaling-skipped", "src/flowrisk/linalg.py",
           "    sigma_hat /= 2.0 ** k\n"
           "    scale = float(np.linalg.norm(sigma_hat)) * 2.0 ** k\n"
           "    if not scale < np.inf:\n"
           "        raise ValueError(_GRAM_OVERFLOW)\n"
           "    w, q = _eigh(sigma_hat, k)\n",
           "    sigma_hat /= 1.0\n"
           "    scale = float(np.linalg.norm(sigma_hat / 2.0 ** k)) * 2.0 ** k\n"
           "    if not scale < np.inf:\n"
           "        raise ValueError(_GRAM_OVERFLOW)\n"
           "    w, q = _eigh(sigma_hat, 0)\n",
           ("tests/test_scale_relations.py",)),
    Mutant("crossover-bracket-guard-dropped", "src/flowrisk/bounds.py",
           "    if gap(lo) >= 0 or gap(hi) <= 0:\n",
           "    if False:\n",
           ("tests/test_cli.py::"
            "test_a_failed_crossover_bracket_exits_1_without_traceback",)),
)


def _pytest(copy: Path, tests) -> int:
    env = dict(os.environ, PYTHONPATH=str(copy / "src"))
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         *tests], cwd=copy, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL).returncode


def run(mutants) -> int:
    ignore = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache")
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=ignore)
        tests = sorted({t for m in mutants for t in m.tests})
        code = _pytest(copy, tests)
        if code != 0:
            print(f"the unmutated tests fail (pytest exit {code})")
            return 1
        survivors = 0
        for m in mutants:
            path = copy / m.path
            text = path.read_text()
            assert text.count(m.old) == 1, m.name
            path.write_text(text.replace(m.old, m.new))
            t0 = time.perf_counter()
            code = _pytest(copy, m.tests)
            path.write_text(text)
            verdict = "killed" if code == 1 else f"SURVIVED (pytest exit {code})"
            survivors += code != 1
            print(f"{m.name}: {verdict} in {time.perf_counter() - t0:.1f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    names = set(sys.argv[1:])
    unknown = names - {m.name for m in MUTANTS}
    if unknown:
        sys.exit(f"unknown mutants: {sorted(unknown)}")
    sys.exit(run([m for m in MUTANTS if not names or m.name in names]))
