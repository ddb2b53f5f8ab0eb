"""The program's outputs against the committed ledger (tests/ledger.py).

On the machine and build the ledger records (same fingerprint) every byte
must match.  Elsewhere BLAS and SIMD kernels may sum in another order, so
every number must agree to rtol 1e-9, the tolerance of the reproducibility
contract, and values below the smallest normal double count as 0.
"""

import json
import math

import numpy as np

import ledger

RTOL = 1e-9
ATOL = np.finfo(float).tiny
# keys whose values are hashes: compared as bytes only
_HASHES = {"sha1", "outputs"}


def _number(text):
    """text as a float when it is a number (float.hex or decimal), else None."""
    try:
        return float.fromhex(text) if "0x" in text else float(text)
    except ValueError:
        return None


def _close(want, got, path="ledger"):
    """Assert that got matches want, every number to RTOL and ATOL."""
    if isinstance(want, dict):
        assert sorted(want) == sorted(got), path
        for key in want:
            if key in _HASHES:
                continue
            _close(want[key], got[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(want) == len(got), path
        for i, (w, g) in enumerate(zip(want, got)):
            _close(w, g, f"{path}[{i}]")
    elif isinstance(want, str) and "," in want:        # a CSV row
        _close(want.split(","), got.split(","), path)
    elif isinstance(want, str) and _number(want) is not None:
        _close(_number(want), _number(got), path)
    elif isinstance(want, float) and not isinstance(got, bool):
        assert got is not None and (
            math.isclose(want, got, rel_tol=RTOL, abs_tol=ATOL)
            or (math.isnan(want) and math.isnan(got))), (path, want, got)
    else:
        assert want == got, (path, want, got)


def test_outputs_match_the_ledger():
    want = json.loads(ledger.LEDGER.read_text())
    got = ledger.build()
    if got["fingerprint"] == want["fingerprint"]:
        print("ledger: fingerprint matches, comparing bytes")
        assert ledger.dumps(got) == ledger.dumps(want), "bytes differ"
    else:
        print("ledger: fingerprint differs, comparing values at rtol 1e-9")
        del want["fingerprint"], got["fingerprint"]
        _close(want, got)
