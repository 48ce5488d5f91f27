"""Span and count tracing of starquant's public functions, from outside.

The tracer wraps each layer's public functions and patches the wrapper
into every ``starquant`` module that binds the original object, so calls between layers are seen too: ``gns``
binds ``star`` and ``s_map``, ``cli`` binds nearly everything.  Nothing
in the library changes; ``uninstall`` puts the originals back.

Spans (name, start, end, parent, op id) are kept in memory.  A span's
self time is its duration minus the durations of its direct children.

The fine-grained ``Scalar``/``PhasePolynomial`` methods run millions of
times per op, so they are counted in a separate pass
(``CountingTracer``) that records no spans; their wrapper cost would
otherwise inflate the span self times.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter

# span name -> (module, attribute) of every public function it covers
SPANS = {
    "star.star": (("starquant.star", "star"),),
    "star.commutator": (("starquant.star", "star_commutator"),),
    "star.smap": (("starquant.star", "s_map"),),
    "gns.pi0": (("starquant.gns", "pi0"),),
    "gns.op_compose": (("starquant.gns", "op_compose"),),
    "gns.omega0": (("starquant.gns", "omega0"),),
    "gns.inner0": (("starquant.gns", "inner0"),),
    "gns.inner0_factorized": (("starquant.gns", "inner0_factorized"),),
    "evolution.evolve": (("starquant.evolution", "evolve"),),
    "phase.phase_star": (("starquant.phase", "phase_star"),),
    "wkb.grid_build": (("starquant.wkb", "GridFunction1D.from_callable"),
                       ("starquant.wkb", "GridFunction1D.from_samples")),
    "wkb.solve": (("starquant.wkb", "solve_transport_1d"),),
    "wkb.residual": (("starquant.wkb", "transport_residuals_1d"),
                     ("starquant.wkb", "verify_eigen_residual")),
    "wkb.hierarchy": (("starquant.wkb", "eigenproblem_hierarchy"),),
    "parsing.parse": (("starquant.parsing", "parse_observable"),
                      ("starquant.parsing", "parse_rational"),
                      ("starquant.parsing", "parse_complex_constant")),
    "render": tuple(("starquant.render", name) for name in (
        "pretty_polynomial", "pretty_observable", "pretty_operator", "pretty_series",
        "pretty_value", "observable_terms_json", "observable_json", "value_json",
        "operator_json", "grid_json", "hierarchy_json", "solution_json", "dumps")),
    "cli.main": (("starquant.cli", "main"),),
}

# counted without a span: its time stays in the calling star span
COUNTED = {"star.bidiff": (("starquant.star", "bidiff_M"),)}

# (class, method names) -> count name, for the counts-only pass
FINE = (
    ("starquant.scalars", "Scalar", ("__mul__", "__rmul__"), "scalars.mul_calls"),
    ("starquant.scalars", "Scalar", ("__add__", "__radd__"), "scalars.add_calls"),
    ("starquant.observables", "PhasePolynomial", ("__init__",), "observables.poly_new"),
    ("starquant.observables", "PhasePolynomial", ("__mul__",), "observables.poly_mul_calls"),
    ("starquant.observables", "PhasePolynomial", ("diff_q", "diff_p"), "observables.diff_calls"),
)


class _Patcher:
    """Replaces functions everywhere they are bound, and restores them."""

    def __init__(self):
        self.undo: list[tuple[object, str, object]] = []

    @staticmethod
    def _modules():
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == "starquant" or name.startswith("starquant."))]

    def patch_function(self, modname: str, attr: str, make):
        mod = importlib.import_module(modname)
        if "." in attr:  # a staticmethod on a class
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            orig = cls.__dict__[meth].__func__
            self.undo.append((cls, meth, cls.__dict__[meth]))
            setattr(cls, meth, staticmethod(make(orig)))
            return
        orig = getattr(mod, attr)
        wrapper = make(orig)
        for m in self._modules():
            for key, value in list(vars(m).items()):
                if value is orig:
                    self.undo.append((m, key, value))
                    setattr(m, key, wrapper)

    def patch_method(self, cls, meth: str, wrapper):
        self.undo.append((cls, meth, cls.__dict__[meth]))
        setattr(cls, meth, wrapper)

    def restore(self):
        for target, key, value in reversed(self.undo):
            setattr(target, key, value)
        self.undo.clear()


class SpanTracer:
    """Records a span around each call into a layer."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.op_id = -1
        self._patcher = _Patcher()

    def _span(self, name: str, fn):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op_id)
            self._observe(name, fn.__name__, result)
            return result
        return wrapper

    def _count(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[name + "_calls"] = counts.get(name + "_calls", 0) + 1
            if not result.is_zero():
                counts[name + "_useful"] = counts.get(name + "_useful", 0) + 1
            return result
        return wrapper

    def _observe(self, name: str, fn_name: str, result) -> None:
        counts = self.counts
        if name == "star.star":
            counts["star.terms_out"] = counts.get("star.terms_out", 0) + len(result.body.terms)
        elif name == "wkb.grid_build":
            counts["wkb.grid_points"] = counts.get("wkb.grid_points", 0) + len(result.values)
        elif fn_name == "dumps":
            counts["render.bytes_out"] = counts.get("render.bytes_out", 0) + len(result.encode())
        elif name == "cli.main" and result != 0:
            counts["cli.error_exits"] = counts.get("cli.error_exits", 0) + 1

    def install(self):
        for name, targets in SPANS.items():
            for modname, attr in targets:
                self._patcher.patch_function(modname, attr, lambda fn, n=name: self._span(n, fn))
        for name, targets in COUNTED.items():
            for modname, attr in targets:
                self._patcher.patch_function(modname, attr, lambda fn, n=name: self._count(n, fn))

    def uninstall(self):
        self._patcher.restore()

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Span name -> (calls, total self seconds)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, tuple[int, float]] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls, total = out.get(name, (0, 0.0))
            out[name] = (calls + 1, total + (end - start) - child[i])
        return out


class CountingTracer:
    """Counts calls of the fine-grained scalar and polynomial methods."""

    def __init__(self):
        self.counts = {name: 0 for *_, name in FINE}
        self._patcher = _Patcher()

    def install(self):
        counts = self.counts
        for modname, cls_name, methods, name in FINE:
            cls = getattr(importlib.import_module(modname), cls_name)
            for meth in methods:
                orig = cls.__dict__[meth]

                def wrapper(*args, _orig=orig, _name=name, **kwargs):
                    counts[_name] += 1
                    return _orig(*args, **kwargs)
                self._patcher.patch_method(cls, meth, wrapper)

    def uninstall(self):
        self._patcher.restore()
