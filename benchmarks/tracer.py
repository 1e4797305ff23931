"""In-memory span tracer that wraps telecert's public functions from outside.

Each layer calls the next through module-level names (``protocols`` calls
``trash`` through ``telecert.protocols.trash``, ``fidelity`` calls
``run_exact`` through ``telecert.fidelity.run_exact``), so the tracer replaces
a function at every telecert module attribute bound to it, and methods on their
classes. Nothing in the package is edited; ``uninstall`` restores every name.

A span is ``[name, start, end, parent]``; spans live in a list and are reduced
when the benchmark asks for metrics. A layer's self time is its span duration
minus the durations of its direct child spans. The parent is the innermost open
span of the calling thread; a span opened in a worker thread has no parent.
"""
from __future__ import annotations

import importlib
import sys
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# (span name, module, attribute): module functions wrapped wherever bound.
FUNCTIONS = [
    ("statevec.apply_unitary", "telecert.statevec", "apply_unitary"),
    ("statevec.partial_trace", "telecert.statevec", "partial_trace"),
    ("statevec.to_density", "telecert.statevec", "to_density"),
    ("statevec.expectation", "telecert.statevec", "expectation"),
    ("gates.ghz_rotation", "telecert.gates", "ghz_rotation"),
    ("channels.measure_branches", "telecert.channels", "measure_branches"),
    ("channels.trash", "telecert.channels", "trash"),
    ("channels.regenerate_zero", "telecert.channels", "regenerate_zero"),
    ("protocols.run_exact", "telecert.protocols", "run_exact"),
    ("protocols.run_sampled", "telecert.protocols", "run_sampled"),
    ("protocols.build_target", "telecert.protocols", "build_target"),
    ("fidelity.threshold_fidelity", "telecert.fidelity", "threshold_fidelity"),
    ("fidelity.theta_average", "telecert.fidelity", "theta_average"),
    ("fidelity.bloch_average", "telecert.fidelity", "bloch_average"),
    ("fidelity.monte_carlo", "telecert.fidelity", "monte_carlo_threshold"),
    ("certify.threshold_table", "telecert.certify", "threshold_table"),
]

# (span name or None for a counting-only hook, module, class, method)
METHODS = [
    ("statevec.density_init", "telecert.statevec", "DensityOperator", "__post_init__"),
    (None, "telecert.statevec", "PureState", "__post_init__"),
    ("gates.construct", "telecert.gates", "UnitaryMatrix", "__post_init__"),
    (None, "telecert.channels", "RngStream", "uniform"),
    ("channels.uniform_block", "telecert.channels", "RngStream", "uniform_block"),
]

# Per-layer metrics, in the order BENCHMARK.json lists them.
CALLS_AND_SELF = [
    "statevec.apply_unitary", "statevec.partial_trace", "statevec.to_density",
    "statevec.expectation", "statevec.density_init", "gates.construct",
    "gates.ghz_rotation", "channels.measure_branches", "channels.trash",
    "channels.regenerate_zero", "protocols.run_exact", "protocols.run_sampled",
    "protocols.build_target", "fidelity.threshold_fidelity", "certify.threshold_table",
]
SELF_ONLY = [
    "channels.uniform_block", "fidelity.theta_average", "fidelity.bloch_average",
    "fidelity.monte_carlo", "cli.main",
]
COUNTERS = [
    "statevec.density_init.eigvalsh_calls", "statevec.density_init.bytes",
    "statevec.max_array_bytes", "gates.ghz_rotation.bytes", "channels.rng.draws",
    "channels.uniform_block.bytes", "protocols.branches",
    "certify.computed_threshold.misses",
]
# counters combined across processes by max instead of sum
MAX_COUNTERS = {"statevec.max_array_bytes"}


def metric_names() -> list[str]:
    names = []
    for span in CALLS_AND_SELF:
        names += [f"{span}.calls", f"{span}.self_s"]
    names += [f"{span}.self_s" for span in SELF_ONLY]
    return names + COUNTERS


def metric_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes"):
        return "B"
    return "count"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1])
        stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack().pop()

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself around a call into a layer."""
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def innermost(self) -> str | None:
        stack = self._stack()
        return self.spans[stack[-1]][0] if stack else None

    def _array(self, nbytes: int) -> None:
        if nbytes > self.counts["statevec.max_array_bytes"]:
            self.counts["statevec.max_array_bytes"] = nbytes

    def _after(self, name: str | None, owner: str, args, result) -> None:
        """Counts taken at a boundary from the arguments and result shapes."""
        counts = self.counts
        if name == "statevec.density_init":
            nbytes = args[0].matrix.nbytes
            counts["statevec.density_init.bytes"] += nbytes
            self._array(nbytes)
        elif owner == "PureState":
            self._array(args[0].amplitudes.nbytes)
        elif name == "gates.ghz_rotation":
            counts["gates.ghz_rotation.bytes"] += result.entries.nbytes
        elif name == "channels.uniform_block":
            counts["channels.uniform_block.bytes"] += result.nbytes
        elif name == "protocols.run_exact":
            counts["protocols.branches"] += len(result)

    # -- installation ------------------------------------------------------

    def _wrap(self, name, fn, owner=""):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.open(name) if name else None
            rng = args[0] if owner == "RngStream" else None
            draws = rng.draws if rng is not None else 0
            try:
                result = fn(*args, **kwargs)
            finally:
                if idx is not None:
                    tracer.close(idx)
            if rng is not None:
                tracer.counts["channels.rng.draws"] += rng.draws - draws
            tracer._after(name, owner, args, result)
            return result

        return traced

    def _set(self, holder, attr, value) -> None:
        self._restore.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, value)

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "telecert" or n.startswith("telecert."))]
        for name, mod_name, attr in FUNCTIONS:
            original = getattr(importlib.import_module(mod_name), attr)
            wrapped = self._wrap(name, original)
            for mod in modules:
                if vars(mod).get(attr) is original:
                    self._set(mod, attr, wrapped)
        for name, mod_name, cls_name, method in METHODS:
            cls = getattr(importlib.import_module(mod_name), cls_name)
            self._set(cls, method, self._wrap(name, vars(cls)[method], cls_name))
        certify = importlib.import_module("telecert.certify")
        self._set(certify, "_computed_threshold",
                  self._count_misses(certify._computed_threshold))
        import numpy as np   # imported here so that timing telecert's import includes numpy
        self._set(np.linalg, "eigvalsh", self._count_eigvalsh(np.linalg.eigvalsh))

    def uninstall(self) -> None:
        while self._restore:
            holder, attr, value = self._restore.pop()
            setattr(holder, attr, value)

    def _count_misses(self, cached):
        """No span: the cached lookup's own time stays with its caller."""
        def counted(*args, **kwargs):
            before = cached.cache_info().misses
            try:
                return cached(*args, **kwargs)
            finally:
                self.counts["certify.computed_threshold.misses"] += \
                    cached.cache_info().misses - before

        counted.cache_clear, counted.cache_info = cached.cache_clear, cached.cache_info
        return counted

    def _count_eigvalsh(self, eigvalsh):
        def counted(*args, **kwargs):
            if self.innermost() == "statevec.density_init":
                self.counts["statevec.density_init.eigvalsh_calls"] += 1
            return eigvalsh(*args, **kwargs)

        return counted

    # -- reduction ---------------------------------------------------------

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def metrics(self) -> dict[str, float]:
        """Calls, self time and counters since the last reset."""
        child = defaultdict(float)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for idx, (name, start, end, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child[idx]
        out: dict[str, float] = {}
        for span in CALLS_AND_SELF:
            out[f"{span}.calls"] = calls[span]
            out[f"{span}.self_s"] = self_s[span]
        for span in SELF_ONLY:
            out[f"{span}.self_s"] = self_s[span]
        for name in COUNTERS:
            out[name] = self.counts[name]
        return out


def combine(parts: list[dict[str, float]]) -> dict[str, float]:
    """Sum per-process metrics (max for the array-size high-water mark)."""
    out: dict[str, float] = {}
    for part in parts:
        for name, value in part.items():
            if name in MAX_COUNTERS:
                out[name] = max(out.get(name, 0), value)
            else:
                out[name] = out.get(name, 0) + value
    return out
