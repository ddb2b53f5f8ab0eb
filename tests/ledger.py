"""The output ledger: the program's own outputs, recorded once and compared.

Regenerate tests/ledger.json (after a change that moves outputs on purpose,
and say so in CHANGES.md) with

    PYTHONPATH=src python tests/ledger.py

The ledger holds:

* the environment fingerprint: numpy, scipy and Python versions, the BLAS
  build, the BLAS thread count (from the environment, else the default)
  and the SIMD extensions numpy dispatches to on this CPU;
* the verify-constants JSON without runtime_ms;
* each Certified record's value and at, floats as float.hex;
* for simulate on both demo configs, fixed and --bayes, the manifest's
  output hashes and every 40th row of each curve CSV, as written;
* the sha1 of the coupling_gap triples of the oracle benchmark workload
  (16 realizations, 40 times, accelerated and heavy ball) at seeds 1-10,
  rebuilt here from the workload's seeded recipe, and per seed and kind
  the column sums of those triples, for a comparison by value.

tests/test_ledger.py compares a fresh run with the committed file: bytes
when the fingerprint matches, values at rtol 1e-9 when it does not.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
LEDGER = Path(__file__).resolve().parent / "ledger.json"
CONFIGS = ("matrix_family_sweep", "power_law_sweep")
ROW_STRIDE = 40
ORACLE_SEEDS = range(1, 11)


def fingerprint() -> dict:
    """What decides the output bits besides the code (ROADMAP item 10(a))."""
    import scipy
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:                  # numpy 1.x
        from numpy.core import _multiarray_umath as umath

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    threads = next((f"{k}={os.environ[k]}" for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                    if k in os.environ), f"default ({os.cpu_count()} cpus)")
    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "blas_threads": threads,
        "simd": sorted(umath.__cpu_baseline__)
        + sorted(f for f in umath.__cpu_dispatch__
                 if umath.__cpu_features__.get(f)),
    }


def _hexed(obj):
    """obj with every float as float.hex, dataclasses as dicts."""
    if isinstance(obj, float):
        return obj.hex()
    if dataclasses.is_dataclass(obj):
        return {f.name: _hexed(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, (tuple, list)):
        return [_hexed(v) for v in obj]
    return obj


def _cli(argv) -> str:
    from flowrisk import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(argv)
    if code != 0:
        raise RuntimeError(f"flowrisk {' '.join(argv)} exited {code}")
    return out.getvalue()


def constants() -> tuple[list, list]:
    """(verify-constants checks without runtime_ms, hexed Certified records)."""
    from flowrisk import bounds

    checks = json.loads(_cli(["verify-constants"]))["checks"]
    for check in checks:
        del check["runtime_ms"]
    records = [{"name": record.name, "value": record.value.hex(),
                "at": _hexed(record.at)}
               for _, record, _ in bounds.run_checks()]
    return checks, records


def simulate(workdir: Path) -> dict:
    """Per config and mode, the manifest's hashes and every 40th CSV row."""
    runs = {}
    for name in CONFIGS:
        for bayes in (False, True):
            out = workdir / f"{name}{'_bayes' * bayes}"
            _cli(["simulate", "--config", str(ROOT / "demos" / f"{name}.json"),
                  "--out", str(out)] + ["--bayes"] * bayes)
            hashes = json.loads((out / "manifest.json").read_text())["outputs"]
            rows = {csv: (out / csv).read_text().splitlines()[1::ROW_STRIDE]
                    for csv in sorted(hashes)}
            runs[out.name] = {"outputs": hashes, "rows": rows}
    return runs


def oracle_triples() -> tuple[str, dict]:
    """sha1 of the oracle workload's coupling_gap triples at seeds 1-10,
    and their column sums per seed and kind.

    The realizations follow the workload's recipe: default_rng(seed) draws
    3 + seed % 8 eigenvalues and as many forcing normals first, then 16
    (x, y) pairs of q + 6 rows and q = 1 + i % 8 columns.  Each call covers
    the workload's 40 times as one grid, which gives each time the bits of
    a scalar call; the triples are hashed as little-endian doubles in the
    workload's order (realization, time, accelerated then heavy ball).
    """
    from flowrisk.estimators import coupling_gap
    from flowrisk.linalg import attach_response, design_decompose
    from flowrisk.shrinkage import FlowKind

    kinds = (FlowKind.ACCELERATED_FLOW, FlowKind.HEAVY_BALL_FLOW)
    t = np.logspace(-2, 3, 40)
    digest, sums = hashlib.sha1(), {}
    for seed in ORACLE_SEEDS:
        rng = np.random.default_rng(seed)
        p = 3 + seed % 8
        rng.uniform(0.05, 3.0, p)
        rng.standard_normal(p)
        total = np.zeros((len(kinds), 3))
        for i in range(16):
            q = 1 + i % 8
            x = rng.standard_normal((q + 6, q))
            y = x @ rng.standard_normal(q) + rng.standard_normal(q + 6)
            design = attach_response(design_decompose(x), x, y)
            triples = [np.stack(coupling_gap(design, kind, t), axis=1)
                       for kind in kinds]
            digest.update(np.stack(triples, axis=1).astype("<f8").tobytes())
            total += [triple.sum(axis=0) for triple in triples]
        sums[str(seed)] = {kind.value: _hexed(row.tolist())
                           for kind, row in zip(kinds, total)}
    return digest.hexdigest(), sums


def build() -> dict:
    checks, records = constants()
    with tempfile.TemporaryDirectory() as tmp:
        runs = simulate(Path(tmp))
    sha1, sums = oracle_triples()
    return {
        "fingerprint": fingerprint(),
        "verify_constants": checks,
        "certified": records,
        "simulate": runs,
        "oracle_coupling": {"sha1": sha1, "sums": sums},
    }


def dumps(ledger: dict) -> str:
    return json.dumps(ledger, indent=1, sort_keys=True) + "\n"


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    LEDGER.write_text(dumps(build()))
    print(f"wrote {LEDGER.relative_to(ROOT)}")
