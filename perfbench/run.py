"""flowrisk benchmark: one workload per call, closed loop, outputs checked.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
a traced run.  The last stdout line is the result JSON; the line before it
is a detail record (op count, tail percentile, fail fraction, machine).
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("certify", "sweep", "oracle", "wide")
SETUP_SAMPLES = 5
TAIL_BEYOND = 10
# The workload process runs on one core: its BLAS gets one thread (OpenBLAS
# threads otherwise spin on the second core), so calibrated times track the
# host's speed, and simulate uses one worker (no ACCELFLOW_THREADS).
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1"}


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile with at least TAIL_BEYOND ops above it.

    Returns (value, percentile).  With too few ops it is the maximum.
    """
    ordered = sorted(times)
    n = len(ordered)
    k = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    return ordered[k], 100.0 * (k + 1) / n


def _worker(args, scratch, setup_only, timeout) -> dict:
    """Run one workload process to its end and return its record."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath("src"), **SINGLE_THREAD)
    env.pop("ACCELFLOW_THREADS", None)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", scratch, "--started", repr(time.monotonic())]
    proc = subprocess.run(cmd + (["--setup-only"] if setup_only else []),
                          stdout=subprocess.PIPE, text=True, env=env,
                          timeout=timeout)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{args.workload} worker exited {proc.returncode}")
    return json.loads(lines[-1])


def _git_commit() -> str:
    if not os.path.isdir(".git"):
        return "unknown (not a git checkout)"
    out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                         text=True, timeout=30)
    return out.stdout.strip() or "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        return fail("--seed must be >= 0 and --seconds in 1..60")
    if not os.path.isfile(os.path.join("src", "flowrisk", "__init__.py")):
        return fail("run from the root of a flowrisk checkout (src/flowrisk missing)")
    with open("BENCHMARK.json") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    # The build: byte-compile the sources once, as an installed package has.
    if not compileall.compile_dir("src", quiet=1):
        return fail("src does not compile")

    work = os.path.abspath(os.path.join(".bench_build", "perfbench"))
    os.makedirs(work, exist_ok=True)
    scratch = os.path.join(work, f"{args.workload}-{os.getpid()}")
    timeout = args.seconds + 150
    try:
        probes = [] if args.trace else [
            _worker(args, scratch, True, 60) for _ in range(SETUP_SAMPLES - 1)]
        record = _worker(args, scratch, False, timeout)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        return fail(str(exc))
    setups = [r["setup_s"] for r in probes + [record]]
    setup_walls = [r["setup_wall_s"] for r in probes + [record]]

    src = os.path.realpath("src")
    if not os.path.realpath(record["flowrisk_file"]).startswith(src + os.sep):
        return fail(f"flowrisk was imported from {record['flowrisk_file']}")
    ops = record["op_s"]
    failed = len(record["failures"])
    correct = failed == 0 and not record["run_errors"]
    tail_s, tail_pct = tail(ops)
    if args.trace:
        # A layer the workload never reaches reads 0.
        values = dict.fromkeys((m["name"] for m in declared), 0) | record["layers"]
    else:
        values = {"setup_s": statistics.median(setups),
                  "op_s_p50": statistics.median(ops),
                  "op_s_tail": tail_s,
                  "items_per_s": record["items_per_op"] * len(ops) / sum(ops),
                  "peak_rss_mb": record["peak_rss_mb"]}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    detail = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "ops_timed": len(ops), "op_s_tail_percentile": tail_pct,
              "items_per_op": record["items_per_op"],
              "fail_frac": failed / record["attempted"],
              "failures": record["failures"][:5], "run_errors": record["run_errors"],
              "setup_s_samples": setups, "setup_wall_s_samples": setup_walls,
              "op_wall_s_p50": statistics.median(record["op_wall_s"]),
              "op_wall_s_tail": tail(record["op_wall_s"])[0],
              "git_commit": _git_commit(), "env": SINGLE_THREAD,
              "machine": record["machine"]}
    if args.trace:
        detail["traced_ops"] = record["traced_ops"]
        detail["trace_file"] = os.path.relpath(record["trace_file"])
    print(json.dumps({"perfbench_detail": detail}))
    print(json.dumps({"correct": correct, "attempted": record["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
