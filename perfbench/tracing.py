"""Layer tracing installed from outside the library.

``install`` wraps the public functions of each paritywilson layer and
rebinds every reference to them in every loaded ``paritywilson`` module
namespace (including module-level registries such as ``verify.SUITES``),
so calls made through ``from .wilson import monic_from_recurrence`` are
traced too.  Each wrapped call records a span (name, start, end, parent
id) in memory; ``summarize`` turns the spans of one sample into the
per-layer metrics.  Nothing is written until the sample ends.

Leaf helpers that run once per coefficient or per abscissa are left
unwrapped (``UNWRAPPED``): a wrapper there would cost more than the work
it times, and their time is charged to the calling layer's self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
import types

import numpy as np

from paritywilson.errors import NoConvergence

LAYERS = ("numcore", "wilson", "expand", "spectral", "lorentz", "verify", "cli")

UNWRAPPED = {f"numcore.{fn}" for fn in
             ("poly_eval", "pochhammer", "frac_to_str", "parse_frac", "ensure_finite")}

TABLE_FUNCS = {"wilson.monic_from_recurrence", "wilson.monic_from_hypergeometric"}
QUAD_FUNCS = {"expand.integrate_semiinfinite"}
# metric group of each wrapped function: the named ones, then a default
# per layer; wilson, numcore's rest, verify and cli count as layers only
GROUPS = {
    **{name: "table" for name in TABLE_FUNCS},
    **{name: "quad" for name in QUAD_FUNCS},
    **{f"numcore.{fn}": "hyp"
       for fn in ("hyp_pfq_terminating", "hyp_2f1_series", "hyp_pfq_series")},
    "spectral.residual_master": "residual",
    "spectral.residual_g": "residual",
}
LAYER_GROUPS = {"spectral": "eigen", "expand": "api", "lorentz": "lorentz"}


class Tracer:
    """Spans and counters of one traced sample (one process, one trace id)."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.table_keys: list[tuple] = []
        self.quad_points = 0
        self.quad_noconv = 0

    def _span(self, name, fn, args, kwargs):
        sid = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0,
                           self.stack[-1] if self.stack else -1])
        self.stack.append(sid)
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans[sid][2] = time.perf_counter()
            self.stack.pop()

    def wrap(self, name: str, fn):
        if name in TABLE_FUNCS:
            route = "hypergeometric" if name.endswith("hypergeometric") else "recurrence"
            sig = inspect.signature(fn)

            def wrapper(*args, **kwargs):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                family, n, *rest = bound.arguments.values()
                key = route if not rest else f"{route}:{rest[0]}"
                self.table_keys.append((key, family, n))
                return self._span(name, fn, args, kwargs)
        elif name in QUAD_FUNCS:
            sig = inspect.signature(fn)
            f_param = next(iter(sig.parameters))

            def wrapper(*args, **kwargs):
                bound = sig.bind(*args, **kwargs)
                f = bound.arguments[f_param]

                def counted(x):
                    self.quad_points += int(np.size(x))
                    return f(x)
                bound.arguments[f_param] = counted
                try:
                    return self._span(name, fn, bound.args, bound.kwargs)
                except NoConvergence:
                    self.quad_noconv += 1
                    raise
        else:
            def wrapper(*args, **kwargs):
                return self._span(name, fn, args, kwargs)
        return functools.wraps(fn)(wrapper)


def _public_functions(module, layer):
    for attr, value in vars(module).items():
        if (isinstance(value, types.FunctionType) and not attr.startswith("_")
                and value.__module__ == module.__name__
                and f"{layer}.{attr}" not in UNWRAPPED):
            yield attr, value


def _rebind(value, wrappers):
    """``value`` with every wrapped original replaced, looking into tuples,
    lists and dicts (the registries modules keep).  Unchanged containers
    are returned as they are; dicts are updated in place, because other
    code may hold them."""
    if isinstance(value, types.FunctionType):
        return wrappers.get(id(value), value)
    if isinstance(value, (tuple, list)):
        items = [_rebind(v, wrappers) for v in value]
        if all(a is b for a, b in zip(items, value)):
            return value
        return type(value)(items)
    if isinstance(value, dict):
        changed = {}
        for k, v in value.items():
            nv = _rebind(v, wrappers)
            if nv is not v:
                changed[k] = nv
        value.update(changed)
    return value


def install(tracer: Tracer) -> None:
    """Wrap every layer's public functions and rebind every reference."""
    modules = {layer: importlib.import_module(f"paritywilson.{layer}") for layer in LAYERS}
    wrappers = {}
    for layer, module in modules.items():
        for attr, fn in _public_functions(module, layer):
            wrappers[id(fn)] = tracer.wrap(f"{layer}.{attr}", fn)
    for name, module in list(sys.modules.items()):
        if name != "paritywilson" and not name.startswith("paritywilson."):
            continue
        for attr, value in list(vars(module).items()):
            if isinstance(value, (types.FunctionType, tuple, list, dict)) and not attr.startswith("__"):
                new = _rebind(value, wrappers)
                if new is not value:
                    setattr(module, attr, new)


def self_times(spans) -> list[float]:
    """Span duration minus the time its direct children cover."""
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def summarize(tracer: Tracer) -> dict:
    """Per-layer counts and self times of one sample."""
    layer_self = {layer: 0.0 for layer in LAYERS}
    calls = {group: 0 for group in (*GROUPS.values(), *LAYER_GROUPS.values())}
    group_self = dict.fromkeys(calls, 0.0)
    for (name, *_), st in zip(tracer.spans, self_times(tracer.spans)):
        layer = name.split(".", 1)[0]
        layer_self[layer] += st
        group = GROUPS.get(name, LAYER_GROUPS.get(layer))
        if group is not None:
            calls[group] += 1
            group_self[group] += st
    table_distinct = len(set(tracer.table_keys))
    return {
        "wilson.table_calls": calls["table"],
        "wilson.table_distinct": table_distinct,
        "wilson.table_useful_ratio": table_distinct / calls["table"] if calls["table"] else 1.0,
        "wilson.self_s": layer_self["wilson"],
        "numcore.hyp_calls": calls["hyp"],
        "numcore.hyp_self_s": group_self["hyp"],
        "expand.quad_calls": calls["quad"],
        "expand.quad_points": tracer.quad_points,
        "expand.quad_noconv": tracer.quad_noconv,
        "expand.quad_self_s": group_self["quad"],
        "expand.api_self_s": group_self["api"],
        "spectral.residual_calls": calls["residual"],
        "spectral.residual_self_s": group_self["residual"],
        "spectral.eigen_calls": calls["eigen"],
        "spectral.eigen_self_s": group_self["eigen"],
        "lorentz.calls": calls["lorentz"],
        "lorentz.self_s": group_self["lorentz"],
        "verify.self_s": layer_self["verify"],
        "cli.self_s": layer_self["cli"],
    }
