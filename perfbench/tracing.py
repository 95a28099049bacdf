"""Per-layer spans for the traced run.

`Tracer` replaces every public function of the ptchain modules, wherever a
module namespace holds it (the package re-exports and the cross-module
imports too), by a wrapper that records one span per call: the layer (the
defining module), the function, its duration, the time of its child spans,
and whether it raised or returned a non-finite array.  Spans live in memory
for one op; `fold` reduces them to per-op totals and the caller clears them.
"""

from __future__ import annotations

import functools
import importlib
import math
import time
from collections import defaultdict
from dataclasses import dataclass
from types import FunctionType

import numpy as np

LAYERS = ("model", "bethe", "states", "exceptional", "metric", "oracle", "cli")


@dataclass
class Span:
    key: str                      # "<layer>.<function>"
    parent: "Span | None" = None
    seconds: float = 0.0
    child_seconds: float = 0.0
    raised: bool = False
    nonfinite: bool = False

    @property
    def layer(self) -> str:
        return self.key.partition(".")[0]

    def has_ancestor(self, key: str) -> bool:
        node = self.parent
        while node is not None:
            if node.key == key:
                return True
            node = node.parent
        return False


class Tracer:
    """Context manager: wraps on entry, restores every original on exit."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patched: list[tuple[object, str, FunctionType]] = []

    def __enter__(self) -> "Tracer":
        wrappers: dict[FunctionType, FunctionType] = {}
        package = importlib.import_module("ptchain")
        modules = [package] + [importlib.import_module(f"ptchain.{m}") for m in LAYERS]
        try:
            for module in modules:
                for name, value in list(vars(module).items()):
                    if name.startswith("_") or not isinstance(value, FunctionType):
                        continue
                    layer = value.__module__.rpartition(".")[2]
                    if not value.__module__.startswith("ptchain.") or layer not in LAYERS:
                        continue
                    if value not in wrappers:
                        wrappers[value] = self._wrap(f"{layer}.{value.__name__}", value)
                    self._patched.append((module, name, value))
                    setattr(module, name, wrappers[value])
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc) -> None:
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched.clear()

    def _wrap(self, key: str, fn: FunctionType) -> FunctionType:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(key, stack[-1] if stack else None)
            spans.append(span)
            stack.append(span)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span.raised = True
                raise
            finally:
                span.seconds = time.perf_counter() - start
                stack.pop()
                if span.parent is not None:
                    span.parent.child_seconds += span.seconds
            span.nonfinite = (isinstance(out, np.ndarray) and out.dtype.kind in "fc"
                              and not np.isfinite(out).all())
            return out

        return traced


def fold(spans: list[Span]) -> dict[str, float]:
    """Totals of one op's spans.

    Keys: `<layer>.self` (layer self time), and per function key
    `<key>` (time of the outermost calls, so recursion is not double
    counted), `<key>.self`, `<key>.calls`, `<key>.raised`, `<key>.nonfinite`;
    `null_filter` / `null_filter.calls` are the raw_amplitude calls made
    directly under a bethe span.
    """
    out: dict[str, float] = defaultdict(float)
    for span in spans:
        own = span.seconds - span.child_seconds
        out[f"{span.layer}.self"] += own
        out[f"{span.key}.self"] += own
        out[f"{span.key}.calls"] += 1
        out[f"{span.key}.raised"] += span.raised
        out[f"{span.key}.nonfinite"] += span.nonfinite
        if not span.has_ancestor(span.key):
            out[span.key] += span.seconds
        if (span.key == "bethe.raw_amplitude" and span.parent is not None
                and span.parent.layer == "bethe"):
            out["null_filter"] += span.seconds
            out["null_filter.calls"] += 1
    return dict(out)


def _ms(*keys):
    return lambda t: 1e3 * sum(t.get(k, 0.0) for k in keys), "ms/op"


def _count(*keys):
    return lambda t: sum(t.get(k, 0.0) for k in keys), "count/op"


# name -> (value from per-op totals, unit); every value is a mean per op.
LAYER_METRICS = {
    "bethe.null_filter_ms": _ms("null_filter"),
    "bethe.null_filter_calls": _count("null_filter.calls"),
    "bethe.real_roots_ms": _ms("bethe.solve_real_momenta.self",
                               "bethe.count_real_momenta.self"),
    "bethe.count_calls": _count("bethe.count_real_momenta.calls"),
    "bethe.kappa_ms": _ms("bethe.solve_kappa"),
    "bethe.kappa_fail": _count("bethe.solve_kappa.raised"),
    "states.eigenbasis_ms": _ms("states.build_eigenbasis"),
    "states.wavefunction_calls": _count("states.wavefunction_unbroken.calls"),
    "metric.jacobi_ms": _ms("metric.jacobi_eigensystem"),
    "metric.jacobi_calls": _count("metric.jacobi_eigensystem.calls"),
    "metric.canonical_self_ms": _ms("metric.canonical_basis.self"),
    "metric.assembly_ms": _ms("metric.build_metric", "metric.gauge_real"),
    "metric.transform_ms": _ms("metric.hermitian_equivalent"),
    "oracle.roots_ms": _ms("oracle.poly_roots"),
    "oracle.char_poly_ms": _ms("oracle.char_poly"),
    "oracle.distance_ms": _ms("oracle.spectral_distance"),
    "oracle.nonfinite": _count("oracle.poly_roots.nonfinite"),
    "exceptional.self_ms": _ms("exceptional.self"),
    "exceptional.critical_levels_ms": _ms("exceptional.critical_levels"),
    "cli.self_ms": _ms("cli.self"),
    "cli.bytes_out": (lambda t: t.get("cli.bytes_out", 0.0), "bytes/op"),
    "model.hamiltonian_ms": _ms("model.build_hamiltonian"),
}

# exponent name -> per-op metric whose growth in N it fits
SCALING = {
    "bethe.real_roots_exp": "bethe.real_roots_ms",
    "bethe.null_filter_exp": "bethe.null_filter_ms",
    "metric.jacobi_exp": "metric.jacobi_ms",
    "oracle.roots_exp": "oracle.roots_ms",
}


def layer_metrics(per_op: list[dict[str, float]], op_seconds: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as means per op, plus each layer's share of op time."""
    ops = len(per_op)
    out = {}
    for name, (value, unit) in LAYER_METRICS.items():
        out[name] = (sum(value(t) for t in per_op) / ops, unit)
    for layer in LAYERS:
        busy = sum(t.get(f"{layer}.self", 0.0) for t in per_op)
        out[f"{layer}.share"] = (busy / op_seconds, "fraction")
    return out


def scaling_exponents(sizes: list[int], per_op: list[dict[str, float]]) -> dict[str, float | None]:
    """Least-squares slope of log(metric) on log(N) over ops where the metric is > 0."""
    out: dict[str, float | None] = {}
    for name, metric in SCALING.items():
        value = LAYER_METRICS[metric][0]
        pts = [(math.log(n), math.log(v)) for n, t in zip(sizes, per_op)
               if (v := value(t)) > 0]
        if len({x for x, _ in pts}) < 2:
            out[name] = None
            continue
        x, y = np.array(pts).T
        out[name] = float(np.polyfit(x, y, 1)[0])
    return out
