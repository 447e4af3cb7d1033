"""Span tracer that instruments qkflag from outside the library.

`Tracer.install` replaces, at run time, the public functions of each qkflag
module and the public and arithmetic methods of the public classes with
wrappers that record a span: name, start, end and the enclosing span.  No
file of the library changes.  A function is rebound in every namespace that
imported it (``qk.euler_char``, ``presentation.line_bundle_product``,
``cli.render_rational``, the package ``__init__``), and alias methods such as
``__rmul__ = __mul__`` are patched under each of their names.

The Laurent kernel is too hot for a span per call (millions of calls), so
`COUNTED` lists the methods that are only counted; every other method of
`LaurentPolynomial` is left alone, and its time is charged to the span that
called it.

Spans are kept in flat arrays and written once, by `dump`, when the run ends;
`summarize` turns dump files into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import marshal
import sys
import time
from array import array
from collections import defaultdict

LAYERS = ("algebra", "weyl", "ktheory", "curves", "qk", "presentation", "cli")

ARITH = frozenset({
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "__pow__",
})

# (class, method) -> counter; these get a call count but no span.
COUNTED = {
    ("LaurentPolynomial", "__mul__"): "algebra.laurent_mul",
    ("LaurentPolynomial", "__rmul__"): "algebra.laurent_mul",
    ("LaurentPolynomial", "shift"): "algebra.shift",
}

# lru caches whose hit rate is reported, read from cache_info()
CACHES = {"qk.quantum_gram": ("qk", "quantum_gram"),
          "ktheory.schubert_class": ("ktheory", "schubert_class")}

# Counted or spanned callables whose calls are also classified: the predicate
# gets the call's arguments and says whether the call has the counted property.


def _is_unit(x) -> bool:
    """True for the integers and the Laurent or rational constants +-1."""
    if isinstance(x, int):
        return x in (1, -1)
    if hasattr(x, "den"):
        if not x.den.is_one():
            return False
        x = x.num
    terms = x.terms
    return len(terms) == 1 and any(terms.get((0,) * x.nvars, 0) == c for c in (1, -1))


TALLIES = {
    "algebra.shift": lambda self, delta: not any(delta),
    "algebra.RationalFunction.__mul__": lambda self, other: _is_unit(self) or _is_unit(other),
    "algebra.RationalFunction.__init__":
        lambda self, num, den=None: den is not None and len(den.terms) > 1,
}


class Tracer:
    """Collects spans and counters for one process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("l")
        self.parent = array("l")
        self._stack: list[int] = []
        self.counts: dict[str, list[int]] = defaultdict(lambda: [0, 0])
        self.caches: dict[str, object] = {}

    # -- wrappers ----------------------------------------------------------

    def _span(self, label: str, fn):
        if label not in self._ids:
            self._ids[label] = len(self.names)
            self.names.append(label)
        nid = self._ids[label]
        start, end, name, parent, stack = (
            self.start, self.end, self.name, self.parent, self._stack)
        clock = time.perf_counter
        if label in TALLIES:
            fn = self._count(label, fn)

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            i = len(start)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return spanned

    def _count(self, label: str, fn):
        """Count calls in ``counts[label]``: [calls, calls with the property]."""
        cell = self.counts[label]
        pred = TALLIES.get(label)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            cell[0] += 1
            if pred is not None and pred(*args, **kwargs):
                cell[1] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installation ------------------------------------------------------

    def install(self):
        """Patch every qkflag layer; call once, before the traced work."""
        modules = [importlib.import_module(f"qkflag.{m}") for m in LAYERS]
        for metric, (mod, attr) in CACHES.items():
            self.caches[metric] = getattr(sys.modules[f"qkflag.{mod}"], attr)
        wrapped: dict[int, tuple] = {}
        for layer, mod in zip(LAYERS, modules):
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, type):
                    self._patch_class(layer, obj)
                elif inspect.isfunction(obj) or isinstance(obj, functools._lru_cache_wrapper):
                    wrapped[id(obj)] = (obj, self._span(f"{layer}.{attr}", obj))
        for mod in [sys.modules["qkflag"], *modules]:
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])

    def _patch_class(self, layer: str, cls: type):
        for attr, fn in list(vars(cls).items()):
            if not inspect.isfunction(fn):
                continue
            counter = COUNTED.get((cls.__name__, attr))
            if counter is not None:
                setattr(cls, attr, self._count(counter, fn))
                continue
            if cls.__name__ == "LaurentPolynomial":
                continue
            if attr.startswith("_") and attr not in ARITH and not (
                    cls.__name__ == "RationalFunction" and attr == "__init__"):
                continue
            setattr(cls, attr, self._span(f"{layer}.{cls.__name__}.{fn.__name__}", fn))

    # -- output ------------------------------------------------------------

    def dump(self, path: str):
        if self._stack:
            raise RuntimeError("dump called inside an open span")
        caches = {}
        for metric, fn in self.caches.items():
            info = fn.cache_info()
            caches[metric] = [info.hits, info.misses]
        data = {
            "names": self.names,
            "start": self.start.tobytes(),
            "end": self.end.tobytes(),
            "name": self.name.tobytes(),
            "parent": self.parent.tobytes(),
            "counts": dict(self.counts),
            "caches": caches,
        }
        with open(path, "wb") as f:
            marshal.dump(data, f)


def _load(path: str) -> dict:
    with open(path, "rb") as f:
        data = marshal.load(f)
    for key, code in (("start", "d"), ("end", "d"), ("name", "l"), ("parent", "l")):
        arr = array(code)
        arr.frombytes(data[key])
        data[key] = arr
    return data


def _share(cell: list[int]) -> float:
    """Share of counted calls that had the tallied property."""
    calls, flagged = cell
    return flagged / calls if calls else 0.0


def summarize(paths: list[str]) -> dict[str, float]:
    """Per-layer metrics summed over the dump files of one repetition."""
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    counts: dict[str, list[int]] = defaultdict(lambda: [0, 0])
    caches: dict[str, list[int]] = defaultdict(lambda: [0, 0])
    for path in paths:
        d = _load(path)
        start, end, name, parent, names = d["start"], d["end"], d["name"], d["parent"], d["names"]
        covered = [0.0] * len(start)
        for i, p in enumerate(parent):
            if p >= 0:
                covered[p] += end[i] - start[i]
        for i, nid in enumerate(name):
            label = names[nid]
            calls[label] += 1
            self_s[label] += end[i] - start[i] - covered[i]
        for key, (a, b) in d["counts"].items():
            counts[key][0] += a
            counts[key][1] += b
        for key, (hits, misses) in d["caches"].items():
            caches[key][0] += hits
            caches[key][1] += misses

    def layer_self(layer):
        return sum(v for k, v in self_s.items() if k.split(".", 1)[0] == layer)

    m = {f"{layer}.self_s": layer_self(layer) for layer in LAYERS}
    m.update({
        "qk.line_bundle_product.calls": calls["qk.line_bundle_product"],
        "qk.line_bundle_product.self_s": self_s["qk.line_bundle_product"],
        "qk.line_bundle_solve.calls": calls["qk.line_bundle_solve"],
        "ktheory.euler_char.calls": calls["ktheory.euler_char"],
        "ktheory.euler_char.self_s": self_s["ktheory.euler_char"],
        "ktheory.expand_schubert.calls": calls["ktheory.expand_schubert"],
        "presentation.groebner_dimension.calls": calls["presentation.groebner_dimension"],
        "algebra.divexact.calls": calls["algebra.divexact"],
        "algebra.poly_gcd.calls": calls["algebra.poly_gcd"],
        "algebra.poly_gcd.self_s": self_s["algebra.poly_gcd"],
        "algebra.render.self_s": sum(v for k, v in self_s.items()
                                     if k.startswith("algebra.render_")),
        "algebra.rf_canon.calls": calls["algebra.RationalFunction.__init__"],
        "algebra.rf_canon.gcd_frac": _share(counts["algebra.RationalFunction.__init__"]),
        "algebra.rf_mul.unit_frac": _share(counts["algebra.RationalFunction.__mul__"]),
        "algebra.laurent_mul.calls": counts["algebra.laurent_mul"][0],
        "algebra.shift.calls": counts["algebra.shift"][0],
        "algebra.shift.zero_frac": _share(counts["algebra.shift"]),
    })
    for metric, (hits, misses) in caches.items():
        m[f"{metric}.hit_frac"] = _share([hits + misses, hits])
    return m
