"""The program API the benchmark's workloads use, checked in milliseconds.

perfbench/workloads.py drives flowrisk through module attributes.  It is
read here with ast, never imported or edited, so a rename in src/ fails
this suite at once instead of breaking the benchmark unnoticed.
"""

import ast
import importlib
from pathlib import Path

import numpy as np

from flowrisk import risk
from flowrisk.linalg import Spectrum
from flowrisk.shrinkage import FlowKind

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


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
