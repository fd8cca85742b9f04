"""Layer tracing of chainbench from outside the library.

Tracer wraps the public functions and methods of every layer module,
records one span per call (name, start, end, parent span, operation
id) in memory, and counts two hot constructors without spans.  While
it is paused (the benchmark checks a result), wrappers call straight
through and record nothing, so the figures describe only the
operations themselves.  Library
modules bind names with ``from .x import f``, so each wrapper is bound
in every ``chainbench`` module attribute that holds the same function
object.  ``restore`` puts every original back.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

LAYERS = (
    "exact_linalg", "chains", "diagrams", "ladder", "splittings",
    "orders", "serialize", "cli", "fuzz",
)

# Public operators of the matrix and map classes; other dunders (and
# __getitem__ above all) are too hot and too small to carry a span.
OPERATORS = ("__add__", "__sub__", "__neg__", "__matmul__")

# Called millions of times: counted without spans instead (see _count).
COUNTED = ("Ring.normalize",)

# Functions whose calls, self time and statistics are reported by name.
NAMED = {
    "exact_linalg": ("smith_normal_form", "solve_linear", "kernel_basis", "rank", "kron"),
    "chains": ("homology_at", "leibniz_system", "find_null_homotopy", "find_contraction"),
    "orders": ("annihilator_exponent", "homology_order"),
    "diagrams": ("tensor_with_bimodule", "nilpotency_degree"),
    "ladder": (
        "hom_complex", "kernel_complex", "check_bn_local", "check_an_local",
        "morphism_space", "factor_through_acyclic",
    ),
    "splittings": ("derive_splittings", "t_operator", "delta_differential", "invert_homotopy"),
    "serialize": ("loads", "load_any", "dumps"),
    "cli": ("main",),
}


# Largest value seen per call boundary, and its unit.
MAXIMA = {
    "exact_linalg.smith_normal_form.max_entry_bits": "bits",
    "exact_linalg.solve_linear.max_cols": "count",
    "chains.leibniz_system.max_rows": "count",
    "chains.leibniz_system.max_cols": "count",
}


def _entry_bits(x) -> int:
    if isinstance(x, int):
        return x.bit_length()
    return max(x.numerator.bit_length(), x.denominator.bit_length())


def _snf_bits(snf) -> int:
    return max(
        (_entry_bits(x) for m in (snf.d, snf.p, snf.q, snf.pinv, snf.qinv)
         for row in m.entries for x in row),
        default=0,
    )


class Tracer:
    """Spans and counters for one traced pass; use as a context manager."""

    def __init__(self):
        self.spans = []
        self.op = -1
        self.counts = Counter()
        self.maxima = Counter()
        self.sums = Counter()
        self.paused = False
        self.paused_s = 0.0
        self._stack = []
        self._undo = []

    # -- installation -------------------------------------------------------

    def __enter__(self):
        from chainbench import exact_linalg

        modules = [importlib.import_module(f"chainbench.{layer}") for layer in LAYERS]
        for layer, mod in zip(LAYERS, modules):
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    self._rebind(obj, self._span(f"{layer}.{name}", obj))
                elif inspect.isclass(obj):
                    self._wrap_methods(f"{layer}.{name}", obj)
        self._count(exact_linalg.Matrix, "__post_init__", "exact_linalg.matrix_new")
        self._count(exact_linalg.Ring, "normalize", "exact_linalg.normalize")
        return self

    def __exit__(self, *exc):
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()
        return False

    @contextmanager
    def pause(self):
        """Record nothing inside the block; its time is kept in paused_s."""
        self.paused = True
        start = time.perf_counter()
        try:
            yield
        finally:
            self.paused_s += time.perf_counter() - start
            self.paused = False

    def _set(self, owner, name, value):
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def _rebind(self, original, wrapper):
        for modname, mod in list(sys.modules.items()):
            if modname != "chainbench" and not modname.startswith("chainbench."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def _wrap_methods(self, prefix, cls):
        for name, raw in list(vars(cls).items()):
            if name.startswith("_") and name not in OPERATORS:
                continue
            if f"{cls.__name__}.{name}" in COUNTED:
                continue
            if isinstance(raw, staticmethod):
                self._set(cls, name, staticmethod(self._span(f"{prefix}.{name}", raw.__func__)))
            elif inspect.isfunction(raw):
                self._set(cls, name, self._span(f"{prefix}.{name}", raw))

    def _count(self, cls, name, key):
        original = vars(cls)[name]
        counts = self.counts

        def counted(*args, **kwargs):
            if not self.paused:
                counts[key] += 1
            return original(*args, **kwargs)

        self._set(cls, name, counted)

    def _span(self, qualname, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        before = self._before.get(qualname)
        after = self._after.get(qualname)

        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            if before is not None:
                before(self, args)
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (qualname, start, end, parent, self.op)
            if after is not None:
                after(self, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # Statistics taken at the boundary, outside the span's own interval.
    _before = {
        "exact_linalg.solve_linear": lambda t, a: t._max("exact_linalg.solve_linear.max_cols", a[0].cols),
        "serialize.loads": lambda t, a: t._add("serialize.loads.bytes", len(a[0].encode("utf-8"))),
    }
    _after = {
        "exact_linalg.smith_normal_form": lambda t, r: t._max(
            "exact_linalg.smith_normal_form.max_entry_bits", _snf_bits(r)
        ),
        "chains.leibniz_system": lambda t, r: (
            t._max("chains.leibniz_system.max_rows", r[0].rows),
            t._max("chains.leibniz_system.max_cols", r[0].cols),
        ),
        "chains.find_null_homotopy": lambda t, r: t._add(
            "chains.find_null_homotopy.found", r is not None
        ),
    }

    def _max(self, key, value):
        self.maxima[key] = max(self.maxima[key], value)

    def _add(self, key, value):
        self.sums[key] += int(value)

    # -- summary ------------------------------------------------------------

    def summary(self, wall_s: float) -> dict:
        """Per-function and per-layer metrics of the pass, given its wall time.

        Shares and unattributed time are taken of the wall time less the
        paused time, that is of the time spent in the operations.
        """
        wall_s = max(wall_s - self.paused_s, 0.0)
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        calls = Counter()
        self_s = defaultdict(float)
        layer_self = defaultdict(float)
        covered = 0.0
        attempts = 0
        for i, (name, start, end, parent, _) in enumerate(spans):
            own = (end - start) - child[i]
            calls[name] += 1
            self_s[name] += own
            layer_self[name.split(".", 1)[0]] += own
            if parent < 0:
                covered += end - start
            elif name == "chains.find_null_homotopy" and spans[parent][0] == "orders.annihilator_exponent":
                attempts += 1
        out = {}
        for layer, names in NAMED.items():
            for fn in names:
                key = f"{layer}.{fn}"
                out[f"{key}.calls"] = (calls[key], "count")
                out[f"{key}.self_s"] = (self_s[key], "s")
        for key in ("exact_linalg.matrix_new", "exact_linalg.normalize"):
            out[f"{key}.calls"] = (self.counts[key], "count")
        for key, unit in MAXIMA.items():
            out[key] = (self.maxima[key], unit)
        out["serialize.loads.bytes"] = (self.sums["serialize.loads.bytes"], "bytes")
        nh = calls["chains.find_null_homotopy"]
        out["chains.find_null_homotopy.found_ratio"] = (
            self.sums["chains.find_null_homotopy.found"] / nh if nh else 0.0, "ratio"
        )
        ann = calls["orders.annihilator_exponent"]
        out["orders.annihilator_exponent.attempts_per_call"] = (attempts / ann if ann else 0.0, "count")
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (layer_self[layer], "s")
            out[f"{layer}.share"] = (layer_self[layer] / wall_s if wall_s else 0.0, "ratio")
        rest = max(wall_s - covered, 0.0)
        out["unattributed.self_s"] = (rest, "s")
        out["unattributed.share"] = (rest / wall_s if wall_s else 0.0, "ratio")
        return out

    def inclusive(self) -> Counter:
        """Seconds inside each span name, children included."""
        out = Counter()
        for name, start, end, _, _ in self.spans:
            out[name] += end - start
        return out

    def write(self, path: str) -> None:
        """All spans, written once when the run ends; times in microseconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [
            [name, round((start - t0) * 1e6), round((end - t0) * 1e6), parent, op]
            for name, start, end, parent, op in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start_us", "end_us", "parent", "op"], "spans": rows}, handle)
