"""Span recorder for the traced run, kept entirely in the benchmark.

``SpanRecorder.install`` replaces every public function of the traced
flowrisk modules, in every module that binds it (``risk.profile`` and
``shrinkage.profile`` are the same function bound twice), and the
``SeededStream`` methods, with a wrapper that records one span: name, start,
end and parent span.  Internal calls that go through a module global or a
method are therefore seen too.  ``uninstall`` puts the originals back, so
untraced ops in the same process pay nothing.

Spans stay in memory in flat arrays and are written out by ``save`` when
the run ends.  Counters (elements, draws, steps, ...) are taken from
argument and result shapes at the same boundary.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
import types
from array import array
from collections import defaultdict

import numpy as np

TRACED_MODULES = ("special", "shrinkage", "risk", "linalg", "rng", "estimators",
                  "oracle", "bounds", "experiments", "cli")
STREAM_METHODS = ("uniforms", "normals", "chi_square", "student_t")


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _grid_nodes(args, kwargs, out):
    return {"nodes": np.size(_arg(args, kwargs, 0, "mu_grid"))
            * np.size(_arg(args, kwargs, 1, "s_grid"))
            * np.size(_arg(args, kwargs, 2, "t_grid"))}


def _trajectory(args, kwargs, out):
    steps = out.times.size - 1
    return {"steps": steps, "coord_steps": steps * out.positions.shape[1],
            "traj_bytes_computed": out.times.nbytes + out.positions.nbytes
            + out.velocities.nbytes}


def _decompose_flops(args, kwargs, out):
    # X'X is 2 n p^2 flops; a symmetric eigensolve with vectors about 9 p^3.
    return {"flops_computed": 2 * out.n * out.p ** 2 + 9 * out.p ** 3}


# span name -> f(args, kwargs, result) -> {stat: count}
COUNTERS = {
    "special.j1_ratio": lambda a, k, out: {"elems": np.size(out)},
    "special.j1_ratio_complement": lambda a, k, out: {"elems": np.size(out)},
    "shrinkage.profile": lambda a, k, out: {"elems": out.factors.size},
    "shrinkage.hb_kernel": lambda a, k, out: {"elems": np.size(out)},
    "shrinkage.hb_kernel_complement": lambda a, k, out: {"elems": np.size(out)},
    "risk.risk_curve": lambda a, k, out: {"points": len(out)},
    "risk.write_risk_csv": lambda a, k, out: {
        "bytes": os.path.getsize(_arg(a, k, 0, "path"))},
    "linalg.design_decompose": _decompose_flops,
    "rng.SeededStream.normals": lambda a, k, out: {"draws": out.size},
    "rng.SeededStream.uniforms": lambda a, k, out: {"draws": out.size},
    "oracle.integrate_flow": _trajectory,
    "bounds.hb_param_error_check": _grid_nodes,
    "bounds.hb_kernel_bound_checks": _grid_nodes,
    "bounds.gf_inflation_objective": lambda a, k, out: {"elems": np.size(out)},
    "bounds.nest_inflation_objective": lambda a, k, out: {"elems": np.size(out)},
}


class SpanRecorder:
    """In-memory spans of the traced ops of one run."""

    def __init__(self):
        self._targets = self._collect_targets()
        self.names = list(self._targets.values()) + [
            f"rng.SeededStream.{m}" for m in STREAM_METHODS]
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._op = -1
        self.counts: list[dict] = []   # per traced op: {(name, stat): total}
        self._undo: list[tuple[object, str, object]] = []

    # -- wrapping -----------------------------------------------------------

    @staticmethod
    def _collect_targets() -> dict:
        """{function: span name} for every public function of the traced modules."""
        mods = {m: importlib.import_module(f"flowrisk.{m}") for m in TRACED_MODULES}
        targets = {}
        for short, mod in mods.items():
            for attr, fn in vars(mod).items():
                if (isinstance(fn, types.FunctionType) and not attr.startswith("_")
                        and fn.__module__ == mod.__name__):
                    targets[fn] = f"{short}.{attr}"
        return targets

    def _wrap(self, name, fn):
        nid = self._ids[name]
        counter = COUNTERS.get(name)
        stack = self._stack
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self._op)
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(sid)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                self.start[sid] = t0
                self.end[sid] = t1
            if counter is not None:
                counts = self.counts[-1]
                for stat, v in counter(args, kwargs, out).items():
                    counts[name, stat] += int(v)
            return out

        return wrapper

    def install(self):
        import flowrisk
        from flowrisk.rng import SeededStream

        wrapped = {fn: self._wrap(name, fn) for fn, name in self._targets.items()}
        modules = [flowrisk] + [importlib.import_module(f"flowrisk.{m}")
                                for m in TRACED_MODULES]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if isinstance(value, types.FunctionType) and value in wrapped:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, wrapped[value])
        for meth in STREAM_METHODS:
            fn = SeededStream.__dict__[meth]
            self._undo.append((SeededStream, meth, fn))
            setattr(SeededStream, meth, self._wrap(f"rng.SeededStream.{meth}", fn))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- ops ------------------------------------------------------------------

    def begin_op(self):
        self._op += 1
        self.counts.append(defaultdict(int))
        self.install()

    def end_op(self):
        self.uninstall()

    def _columns(self):
        return {"name_id": np.array(self.name_id, dtype=np.int32),
                "op": np.array(self.op, dtype=np.int32),
                "parent": np.array(self.parent, dtype=np.int32),
                "start": np.array(self.start, dtype=float),
                "end": np.array(self.end, dtype=float)}

    def op_summaries(self) -> list[dict]:
        """Per traced op: {name: {"calls", "self_s", <counters>}}.

        Self time is a span's duration minus the durations of its children.
        """
        col = self._columns()
        dur = col["end"] - col["start"]
        has_parent = col["parent"] >= 0
        child = np.bincount(col["parent"][has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        self_s = dur - child
        out = []
        for k, counts in enumerate(self.counts):
            in_op = col["op"] == k
            names = col["name_id"][in_op]
            calls = np.bincount(names, minlength=len(self.names))
            busy = np.bincount(names, weights=self_s[in_op], minlength=len(self.names))
            summary = {self.names[i]: {"calls": int(calls[i]), "self_s": float(busy[i])}
                       for i in np.flatnonzero(calls)}
            for (name, stat), v in counts.items():
                summary[name][stat] = v
            out.append(summary)
        return out

    def save(self, path: str):
        """Write every span (name, op, parent, start, end) as one .npz file."""
        np.savez(path, names=np.array(self.names), **self._columns())
