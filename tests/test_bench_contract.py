"""What benchmarks/bench.py needs of the library, checked without running it.

The tracer wraps library functions and methods by name, and the workloads call
the public API (and clear certify._computed_threshold's cache every pass), so
a rename or a dropped cache breaks the benchmark long before anyone runs it.
The benchmark files are imported by path and left as they are.
"""
import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import telecert  # noqa: F401 - every telecert module is loaded before a snapshot

BENCH = Path(__file__).resolve().parents[1] / "benchmarks"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve string annotations through it
    spec.loader.exec_module(module)
    return module


tracer = _load("tracer")
workloads = _load("workloads")


def _bindings():
    """Every attribute the tracer may replace, keyed by (holder, name)."""
    holders = [mod for name, mod in sorted(sys.modules.items())
               if name == "telecert" or name.startswith("telecert.")]
    holders += [getattr(importlib.import_module(mod), cls) for _, mod, cls, _ in tracer.METHODS]
    out = {(holder, name): value for holder in holders for name, value in vars(holder).items()}
    out[(np.linalg, "eigvalsh")] = np.linalg.eigvalsh
    return out


def _run_pass(name):
    res = workloads.Pass()
    workloads.WORKLOADS[name].run_pass(workloads.make_inputs(name, 0), workloads.Context(), res)
    return res


def test_tracer_wraps_by_name_and_restores_every_attribute():
    before = _bindings()
    traced = tracer.Tracer()
    try:
        traced.install()
        during = _bindings()
        res = _run_pass("quadrature_small_m")
        metrics = traced.metrics()
    finally:
        traced.uninstall()
    after = _bindings()

    wrapped = {name for (holder, name), value in before.items()
               if during[(holder, name)] is not value}
    assert {attr for _, _, attr in tracer.FUNCTIONS} <= wrapped
    assert {method for *_, method in tracer.METHODS} <= wrapped
    assert {"_computed_threshold", "eigvalsh"} <= wrapped
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []

    assert (res.errors, res.failed) == ([], 0)
    want_calls = len(workloads.PROTOCOLS) * workloads.TRAJECTORIES
    assert metrics["protocols.run_sampled.calls"] == want_calls


@pytest.mark.parametrize("name", ["exact_large_m", "quadrature_small_m"])
def test_workload_pass_is_correct(name):
    res = _run_pass(name)
    assert res.attempted > 0
    assert res.errors == []
    assert res.failed == 0
