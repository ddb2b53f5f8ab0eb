"""The reproducibility contract: same numbers across BLAS thread counts.

Reruns are byte-identical only for one numpy build, one BLAS build, one CPU
kernel and one BLAS thread count: X'X/n and eigh are summed in an order
that depends on the thread count.  Across thread counts every curve value
still agrees to rtol 1e-9, the tolerance the benchmark checks curves at.
The package does not pin BLAS threads itself, because that would change
the threading of any program that imports it first.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import flowrisk

ROOT = Path(__file__).resolve().parent.parent
RTOL = 1e-9
# Values below the smallest normal double count as 0: a subnormal carries
# fewer than 53 significant bits, so the curves' tails, which decay through
# that range at large t, cannot agree in relative terms there.
ATOL = np.finfo(float).tiny


def test_matrix_family_sweep_agrees_across_blas_thread_counts(tmp_path):
    src = Path(flowrisk.__file__).resolve().parents[1]
    runs = {}
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=threads)
        runs[threads] = subprocess.Popen(
            [sys.executable, "-m", "flowrisk.cli", "simulate",
             "--config", str(ROOT / "demos" / "matrix_family_sweep.json"),
             "--out", str(tmp_path / threads)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    for proc in runs.values():
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
    names = sorted(p.name for p in (tmp_path / "1").glob("*.csv"))
    assert len(names) == 16
    assert names == sorted(p.name for p in (tmp_path / "2").glob("*.csv"))
    for name in names:
        one, two = (np.loadtxt(tmp_path / t / name, delimiter=",", skiprows=1,
                               usecols=(1, 2, 3, 4)) for t in ("1", "2"))
        assert one.shape == two.shape == (400, 4)
        close = np.isclose(one, two, rtol=RTOL, atol=ATOL)
        assert close.all(), (name, np.argwhere(~close)[0])
