"""The program API the benchmark uses, checked in milliseconds.

perfbench/workloads.py drives flowrisk through module attributes, its
self-test monkeypatches some, its span recorder counts elements at others,
and BENCHMARK.json names a function in every per-layer metric.  Each is
read here with ast or json, never imported or edited, so a rename in src/
fails this suite at once instead of breaking the benchmark unnoticed.
"""

import ast
import importlib
import inspect
import json
from pathlib import Path

import numpy as np

from flowrisk import cli, risk
from flowrisk.linalg import Spectrum
from flowrisk.shrinkage import FlowKind

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ROOT / "perfbench" / "workloads.py"

# Functions the benchmark still names but flowrisk no longer has; renaming
# them in the benchmark must shrink this set
STALE = {
    "risk.fixed_risk", "risk.bayes_risk", "risk.profile",
    "shrinkage.profile", "shrinkage.gf_shrink", "shrinkage.nest_shrink",
    "shrinkage.hb_shrink", "estimators.flow_estimate",
    "estimators.ridge_estimate", "bounds.hb_param_error_check",
    "bounds.hb_kernel_bound_checks", "linalg.sym_eig",
}


def _flowrisk_names(tree):
    """Each name workloads.py imports from flowrisk, bound as it binds it."""
    names = {}
    for node in ast.walk(tree):
        if (isinstance(node, ast.ImportFrom)
                and (node.module or "").split(".")[0] == "flowrisk"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                if not hasattr(module, alias.name):   # a submodule
                    importlib.import_module(f"{node.module}.{alias.name}")
                names[alias.asname or alias.name] = getattr(module, alias.name)
    return names


def _chain(node):
    """An attribute chain a.b.c as "a.b.c", else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id] + parts[::-1]) if isinstance(node, ast.Name) else None


def _resolve(names, dotted):
    root, *rest = dotted.split(".")
    obj = names[root]
    for attr in rest:
        obj = getattr(obj, attr)
    return obj


def test_every_flowrisk_name_of_the_workloads_resolves():
    tree = ast.parse(WORKLOADS.read_text())
    names = _flowrisk_names(tree)
    used = {_chain(node) for node in ast.walk(tree)
            if isinstance(node, (ast.Attribute, ast.Name))}
    used = {d for d in used if d and d.split(".")[0] in names}
    calls = {_chain(node.func) for node in ast.walk(tree)
             if isinstance(node, ast.Call)} & used
    assert {"cli.run", "estimators.coupling_gap", "oracle.compare_closed_form",
            "risk.SignalModel.prior", "risk.risk_curve"} <= calls
    missing = []
    for dotted in sorted(used):
        try:
            obj = _resolve(names, dotted)
        except AttributeError:
            missing.append(dotted)
            continue
        if dotted in calls and not callable(obj):
            missing.append(dotted)
    assert missing == []


def test_a_risk_curve_reads_as_the_workloads_read_it():
    # the wide workload's check and the traced risk_curve span iterate
    # (param, decomposition) pairs and take len(curve)
    prior = risk.SignalModel.prior(r_sq=1.0, sigma_sq=1.0, n=10)
    grid = np.array([0.1, 1.0, 10.0])
    curve = risk.risk_curve(Spectrum(np.array([0.5, 2.0])), prior,
                            FlowKind.GRADIENT_FLOW, grid)
    assert len(curve) == grid.size
    pairs = list(curve)
    assert [t for t, _ in pairs] == grid.tolist()
    for k, (_, d) in enumerate(pairs):
        assert (d.bias_sq, d.variance, d.risk) == (
            curve.bias_sq[k], curve.variance[k], curve.risk[k])


def _patched_names():
    """module.attr for each monkeypatch.setattr(module, "attr", ...) of the
    benchmark's self-test, where module is imported from flowrisk."""
    tree = ast.parse((ROOT / "perfbench" / "selftest.py").read_text())
    modules = {alias.asname or alias.name: alias.name
               for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "flowrisk"
               for alias in node.names}
    return {f"{modules[node.args[0].id]}.{node.args[1].value}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and _chain(node.func) == "monkeypatch.setattr"
            and isinstance(node.args[0], ast.Name)
            and node.args[0].id in modules}


def _counted_names():
    """The keys of COUNTERS in the benchmark's span recorder."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    table = next(node.value for node in tree.body
                 if isinstance(node, ast.Assign)
                 and [_chain(t) for t in node.targets] == ["COUNTERS"])
    return {ast.literal_eval(key) for key in table.keys}


def _layer_names():
    """The function of each module.function.stat per-layer metric; the
    derived ratios and totals (rng.normals_per_uniform, traced_op_s_p50)
    name none."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = (metric["name"] for metric in declared["per_layer"])
    return {name.rsplit(".", 1)[0] for name in names if name.count(".") >= 2}


def _resolves(dotted):
    module, *attrs = dotted.split(".")
    obj = importlib.import_module(f"flowrisk.{module}")
    for attr in attrs:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return callable(obj)


def test_every_flowrisk_name_the_benchmark_traces_or_patches_resolves():
    patched, counted, layers = _patched_names(), _counted_names(), _layer_names()
    assert {"cli._check", "risk.profile"} <= patched
    assert {"risk.risk_curve", "rng.SeededStream.normals"} <= counted
    assert {"estimators.coupling_gap", "cli.run"} <= layers
    named = patched | counted | layers
    assert {name for name in named if not _resolves(name)} == STALE


def test_the_patched_check_keeps_its_six_parameters():
    # perfbench/selftest.py replaces cli._check by a function of these
    assert list(inspect.signature(cli._check).parameters) == [
        "name", "value", "reference", "tolerance", "mode", "runtime_ms"]
