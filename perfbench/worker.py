"""One workload process: set up, then run ops in a closed loop and check each.

Started by run.py with the checkout's ``src`` on PYTHONPATH.  The last
stdout line is the run record as JSON (the ops' own output is captured, so
it never mixes in).  ``setup_wall_s`` is the time from --started, the
parent's ``time.monotonic()`` just before it started this process (a
system-wide clock on Linux), to inputs ready; ``setup_s`` is that time
calibrated like the ops.  With --setup-only the process stops there.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

import numpy as np
import scipy
from scipy.special import j1

import flowrisk
import reference
import workloads
from spans import SpanRecorder

# Machine speed on a shared host drifts by up to 2x within minutes.  Every
# op is bracketed by runs of a fixed calibration kernel, and times are
# reported at the kernel's reference speed:
# wall * reference seconds / (mean kernel seconds before and after the op).
# The kernel has two parts: "numpy" (interpreter-bound small-array numpy
# plus vector-bound scipy.special) and "lapack" (an eigensolve).  Each
# workload names the parts its own trace spends time in.  Raw wall times
# stay in the record.
CAL_REF_S = {"numpy": 0.02, "lapack": 0.02}
_CAL_SMALL = np.linspace(0.1, 1.0, 100)
_CAL_BIG = np.linspace(0.01, 50.0, 100_000)
_CAL_GAUSS = np.random.default_rng(0).standard_normal((300, 300))
_CAL_SYM = _CAL_GAUSS @ _CAL_GAUSS.T / 300


def calibrate(parts=tuple(CAL_REF_S)) -> float:
    """Wall seconds of the named calibration parts (no flowrisk code)."""
    t0 = time.perf_counter()
    if "numpy" in parts:
        for i in range(3000):
            y = np.exp(-_CAL_SMALL * (i * 1e-3))
            float(y @ y)
        for i in range(2):
            y = j1(_CAL_BIG * (1 + i)) / _CAL_BIG
            float(y @ y)
    if "lapack" in parts:
        for _ in range(2):
            np.linalg.eigh(_CAL_SYM)
    return time.perf_counter() - t0


def _machine() -> dict:
    build = np.show_config(mode="dicts").get("Build Dependencies", {})
    return {"nproc": os.cpu_count(),
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": {k: build.get("blas", {}).get(k)
                     for k in ("name", "version", "openblas configuration")}}


def _layer_stats(summaries: list[dict]) -> dict:
    """Per-op medians of every (name, stat) seen in any traced op."""
    keys = {(name, stat) for s in summaries for name, stats in s.items()
            for stat in stats}
    return {f"{name}.{stat}":
            statistics.median([s.get(name, {}).get(stat, 0) for s in summaries])
            for name, stat in sorted(keys)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--scratch", required=True)
    ap.add_argument("--started", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    os.makedirs(args.scratch, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, args.scratch)
        setup_wall_s = time.monotonic() - args.started
        setup_scale = sum(CAL_REF_S.values()) / statistics.median(
            calibrate() for _ in range(3))
        record = {} if args.setup_only else _run(wl, args)
    finally:
        shutil.rmtree(args.scratch, ignore_errors=True)
    record.update(setup_wall_s=setup_wall_s,
                  setup_s=setup_wall_s * setup_scale)
    print(json.dumps(record))
    return 0


def measure(wl, seconds: float, trace: bool) -> dict:
    """Run ops of a prepared workload in a closed loop for about seconds.

    One checked warm-up op comes first and is not timed (lazy imports and
    first-call costs).  With trace, plain and traced ops alternate, so the
    tracing overhead is measured on the same process and inputs.
    """
    recorder = SpanRecorder() if trace else None
    ref_s = sum(CAL_REF_S[p] for p in wl.cal_parts)
    cals = [calibrate(wl.cal_parts)]

    def one_op(traced):
        if traced:
            recorder.begin_op()
        t0 = time.perf_counter()
        try:
            out, err = wl.op(), None
        except Exception:
            out, err = None, traceback.format_exc(limit=3).strip().splitlines()[-1]
        wall = time.perf_counter() - t0
        if traced:
            recorder.end_op()
        if err is None:
            try:
                err = wl.check(out)
            except Exception:
                err = "check raised " + traceback.format_exc(limit=3).splitlines()[-1]
        cals.append(calibrate(wl.cal_parts))
        return (wall, 2.0 * ref_s / (cals[-2] + cals[-1])), err

    _, err = one_op(False)
    failures = [err] if err else []
    plain, traced = [], []   # (wall seconds, calibration scale) per op
    deadline = time.perf_counter() + seconds
    while not plain or (trace and not traced) or time.perf_counter() < deadline:
        is_traced = trace and len(plain) > len(traced)
        timing, err = one_op(is_traced)
        (traced if is_traced else plain).append(timing)
        if err:
            failures.append(err)
    record = {"attempted": 1 + len(plain) + len(traced), "failures": failures,
              "run_errors": [], "items_per_op": wl.items,
              "op_s": [w * k for w, k in plain], "op_wall_s": [w for w, _ in plain]}
    if trace:
        record.update(_layers(recorder, plain, traced))
    return record


def _layers(recorder, plain, traced) -> dict:
    """Per-layer metrics; times are scaled like the op they belong to."""
    summaries = recorder.op_summaries()
    for summary, (_, scale) in zip(summaries, traced):
        for stats in summary.values():
            stats["self_s"] *= scale
    traced_s = [w * k for w, k in traced]
    layer_sums = [sum(v["self_s"] for v in s.values()) for s in summaries]
    layers = _layer_stats(summaries)
    layers["traced_op_s_p50"] = statistics.median(traced_s)
    layers["layer_self_s_sum"] = statistics.median(layer_sums)
    layers["trace_overhead_frac"] = (statistics.median(traced_s)
                                     / statistics.median([w * k for w, k in plain]) - 1.0)
    normals = layers.get("rng.SeededStream.normals.draws", 0)
    uniforms = layers.get("rng.SeededStream.uniforms.draws", 0)
    layers["rng.normals_per_uniform"] = normals / uniforms if uniforms else 0.0
    return {"layers": layers, "traced_ops": len(traced), "recorder": recorder,
            "run_errors": [f"traced op {k}: layer self time {a:.6f} s > op {b:.6f} s"
                           for k, (a, b) in enumerate(zip(layer_sums, traced_s))
                           if a > b]}


def _run(wl, args) -> dict:
    # The program's stream must match the documented recipe draw for draw.
    reason = reference.stream_failure(flowrisk.rng.SeededStream, args.seed)
    run_errors = [reason] if reason else []
    wl.prepare()
    record = measure(wl, args.seconds, bool(args.trace))
    record["run_errors"] += run_errors
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record["machine"] = _machine()
    record["flowrisk_file"] = flowrisk.__file__
    if args.trace:
        path = os.path.join(os.path.dirname(args.scratch), f"trace_{args.workload}.npz")
        record.pop("recorder").save(path)
        record["trace_file"] = path
    return record


if __name__ == "__main__":
    sys.exit(main())
