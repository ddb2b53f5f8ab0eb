"""Tests of the benchmark itself (not collected by the repository's suite).

    PYTHONPATH=src python3 -m pytest -q perfbench/selftest.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import reference  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from flowrisk import cli, risk  # noqa: E402
from flowrisk.rng import SeededStream  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
ITEMS = {"certify": 10, "sweep": 2 * 4 * 4 * 400, "oracle": 3 * 10_000,
         "wide": 4 * 400 * (1000 + 10_000)}


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("name", sorted(ITEMS))
def test_items_come_from_inputs_and_ignore_the_seed(name, tmp_path):
    for seed in (0, 1, 12345):
        assert workloads.WORKLOADS[name](seed, str(tmp_path)).items == ITEMS[name]


def test_wrong_curve_value_is_a_failed_op(tmp_path, monkeypatch):
    real = risk.profile

    def skewed(spectrum, kind, param):
        prof = real(spectrum, kind, param)
        prof.factors[-1] *= 1.0 + 1e-6
        return prof

    monkeypatch.setattr(risk, "profile", skewed)
    wl = workloads.Sweep(3, str(tmp_path))
    wl.prepare()
    rec = worker.measure(wl, seconds=0.0, trace=False)
    assert rec["attempted"] == 2
    assert len(rec["failures"]) == 2
    assert "relative error" in rec["failures"][0]


def test_wrong_certified_value_is_a_failed_op_despite_pass_flags(tmp_path, monkeypatch):
    real_check = cli._check

    def lenient(name, value, reference, tolerance, mode, runtime_ms):
        if name == "crossover_z":
            value += 2e-3
        return dict(real_check(name, value, reference, tolerance, mode, runtime_ms),
                    **{"pass": True})

    monkeypatch.setattr(cli, "_check", lenient)
    wl = workloads.Certify(0, str(tmp_path))
    rec = worker.measure(wl, seconds=0.0, trace=False)
    assert len(rec["failures"]) == rec["attempted"] == 2
    assert rec["failures"][0].startswith("crossover_z")


def test_stream_check_admits_log_ulps_but_not_a_shifted_stream():
    # On this seed libm's log and numpy's differ by an ulp in two normals.
    assert reference.stream_failure(SeededStream, 1249762012) is None

    class Shifted(SeededStream):
        def normals(self, count):
            return super().normals(count + 1)[1:]

    assert "normals differs" in reference.stream_failure(Shifted, 1249762012)


def test_result_line_has_exactly_the_declared_end_to_end_metrics():
    out = _bench("--workload", "certify", "--seed", "4", "--seconds", "1",
                 "--trace", "0")
    assert out.returncode == 0, out.stderr
    res = json.loads(out.stdout.splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0
    want = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_traced_runs_print_declared_layers_and_reach_every_one():
    want = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}
    reached = set()
    for name in sorted(ITEMS):
        out = _bench("--workload", name, "--seed", "2", "--seconds", "1",
                     "--trace", "1")
        assert out.returncode == 0, out.stderr
        res = json.loads(out.stdout.splitlines()[-1])
        # correct also asserts that summed layer self time <= traced op time
        assert res["correct"], out.stdout.splitlines()[-2]
        assert {k: v["unit"] for k, v in res["metrics"].items()} == want
        assert res["metrics"]["layer_self_s_sum"]["value"] <= \
            res["metrics"]["traced_op_s_p50"]["value"]
        reached |= {k for k, v in res["metrics"].items() if v["value"] != 0}
    assert reached == set(want)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _bench("--workload", "sweep", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""
