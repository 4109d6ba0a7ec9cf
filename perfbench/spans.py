"""Span tracer that wraps piforge's public module functions from outside.

Every public function defined in a layer module is replaced, in every
piforge module that binds it, by a wrapper that records a span: its name,
start, end, parent span and the operation it belongs to. Spans stay in
memory until the run ends. Self time is a span's duration minus the time
its child spans cover.

The recursive lru-cached coefficient functions are called far too often to
wrap (hundreds of thousands of cache hits in one cold sweep); they are
counted through the deltas of their public ``cache_info()`` instead.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

LAYERS = ("bigreal", "elliptic", "alpha", "rr", "symbolic", "series",
          "catalog", "identities", "cli")
NOT_WRAPPED = {"series.cp", "series.c2", "series.stirling_first"}
# counted by cache_info() deltas: metric prefix -> (module, function)
CACHES = {
    "series.cp": ("series", "cp"),
    "symbolic.derivative_stack": ("symbolic", "derivative_stack"),
    "bigreal.pi_bits": ("bigreal", "pi_bits"),
}


def layer_modules() -> dict:
    return {name: importlib.import_module(f"piforge.{name}") for name in LAYERS}


def cache_counts() -> dict:
    """Current hits and misses of every counted cache (zeros if a cache is gone)."""
    mods = layer_modules()
    out = {}
    for key, (mod, fn) in CACHES.items():
        info = getattr(getattr(mods[mod], fn, None), "cache_info", None)
        hits, misses = (info().hits, info().misses) if info else (0, 0)
        out[key + ".hits"] = hits
        out[key + ".misses"] = misses
    return out


def _public_functions(layer: str, mod) -> dict:
    out = {}
    for attr, obj in vars(mod).items():
        if attr.startswith("_") or f"{layer}.{attr}" in NOT_WRAPPED:
            continue
        target = getattr(obj, "__wrapped__", obj)
        if inspect.isfunction(target) and target.__module__ == mod.__name__:
            out[attr] = obj
    return out


class Tracer:
    """Collects spans and boundary counters while installed."""

    def __init__(self):
        self.spans = []      # (id, parent id, name, start, end, self seconds, op)
        self.op = None
        self.terms = 0
        self.context_calls = 0
        self.contexts = set()
        self._stack = []     # [id, start, child seconds]
        self._next_id = 0
        self._patches = []
        self._caches_at_install = {}
        self.cache_deltas = {}

    # -- spans -----------------------------------------------------------

    def _enter(self):
        sid = self._next_id
        self._next_id += 1
        self._stack.append([sid, time.perf_counter(), 0.0])
        return sid

    def _exit(self, name):
        end = time.perf_counter()
        sid, start, child = self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        dur = end - start
        if parent is not None:
            parent[2] += dur
        self.spans.append((sid, parent[0] if parent else None, name, start, end,
                           dur - child, self.op))

    def call(self, name, fn, *args, **kwargs):
        self._enter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(name)

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap the layer functions; cache counters are read from here to ``uninstall``."""
        self._caches_at_install = cache_counts()
        mods = layer_modules()
        replacement = {}
        for layer, mod in mods.items():
            for attr, fn in _public_functions(layer, mod).items():
                replacement[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
        series, elliptic = mods["series"], mods["elliptic"]
        replacement[id(series.evaluate)] = (series.evaluate,
                                            self._evaluate(series.evaluate, series.cp))
        replacement[id(elliptic.singular_modulus)] = (
            elliptic.singular_modulus, self._singular_modulus(elliptic.singular_modulus))
        piforge = importlib.import_module("piforge")
        for mod in (piforge, *mods.values()):
            for attr, obj in list(vars(mod).items()):
                hit = replacement.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patches):
            setattr(mod, attr, obj)
        self._patches.clear()
        now = cache_counts()
        for key, value in now.items():
            delta = value - self._caches_at_install[key]
            self.cache_deltas[key] = self.cache_deltas.get(key, 0) + delta

    def _evaluate(self, evaluate, cp):
        """evaluate, preceded by an in-order fill of its coefficients in a span of its own."""
        @functools.wraps(evaluate)
        def wrapper(spec, terms, *args, **kwargs):
            p = 2 * spec.nu
            self._enter()
            try:
                for n in range(spec.n_start, spec.n_start + terms):
                    cp(p, n)
            finally:
                self._exit("series.cp.fill")
            self.terms += terms
            return self.call("series.evaluate", evaluate, spec, terms, *args, **kwargs)
        return wrapper

    def _singular_modulus(self, singular_modulus):
        @functools.wraps(singular_modulus)
        def wrapper(r, prec, *args, **kwargs):
            self.context_calls += 1
            self.contexts.add((str(r), int(prec)))
            return self.call("elliptic.singular_modulus", singular_modulus, r, prec,
                             *args, **kwargs)
        return wrapper

    # -- export ------------------------------------------------------------

    def take(self) -> tuple[list, dict]:
        """Hand over the collected spans and counters and start afresh."""
        spans = self.spans
        counters = {"series.evaluate.terms": self.terms,
                    "elliptic.singular_modulus.calls": self.context_calls,
                    "elliptic.singular_modulus.distinct": len(self.contexts),
                    **self.cache_deltas}
        self.spans = []
        self.terms = self.context_calls = 0
        self.contexts = set()
        self.cache_deltas = {}
        return spans, counters


def aggregate(spans) -> dict:
    """name -> [calls, total seconds, self seconds]."""
    out = {}
    for _sid, _parent, name, start, end, self_s, _op in spans:
        row = out.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += end - start
        row[2] += self_s
    return out
