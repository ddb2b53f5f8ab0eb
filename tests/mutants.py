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
once in its file, so the list cannot silently rot.

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
           "    if lo >= _COMPLEMENT_CUTOFF:\n",
           "    if lo >= 0.5 * _COMPLEMENT_CUTOFF:\n",
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
