"""Span tracer for the traced benchmark run.

The library carries no instrumentation.  Instead, :func:`install` replaces
each traced public function at every place it is bound -- the defining
module and every module that imported it with ``from .x import name`` --
so that calls made from anywhere inside the package go through a wrapper.
Each wrapper records one span (name, start, end, parent) in flat arrays that
stay in memory until :meth:`Tracer.summary` folds them into per-name call
counts and self times.  A span's self time is its duration minus the time
covered by its direct children.

Counters taken at the same boundaries: cache lookups and hits at the public
cached functions, distinct Pochhammer arguments, modes built and the cache
entries each mode held, polynomial degrees, decimal digits rendered and the
bit sizes of exact rational results.
"""

from __future__ import annotations

import importlib
import time
import weakref
from array import array
from collections import Counter

PACKAGE = "qtspecials"
MODULES = ("scalars", "partitions", "wcore", "binomial", "identities",
           "specials", "distributions", "cli")

IDENTITY_FAMILIES = {
    "check_binomial_theorem": "binomial_theorem",
    "check_2phi1": "2phi1",
    "check_density_normalization": "density_normalization",
    "check_symmetry": "symmetry",
    "check_pascal": "pascal",
    "check_double_binomial": "double_binomial",
    "check_weak_cocycle": "weak_cocycle",
    "check_geometric": "geometric",
}

_LOG10_2 = 0.30102999566398120


def decimal_digits(n: int) -> int:
    """Exact number of decimal digits of |n|, without converting to str
    (which is limited to 4300 digits on recent Pythons)."""
    n = abs(n)
    if n < 10:
        return 1
    d = int(n.bit_length() * _LOG10_2) + 1
    return d - 1 if n < 10 ** (d - 1) else d


def _rational_bits(x):
    num = getattr(x, "numerator", None)
    if num is None or not isinstance(num, int):
        return None
    return max(num.bit_length(), x.denominator.bit_length())


class Tracer:
    """In-memory spans and counters for one traced process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self.bits: Counter = Counter()
        self.poch_args: set = set()
        self.cache_entries: Counter = Counter()
        self._patches: list = []
        self._finalizers: list = []

    # -- spans ---------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name, fn, before=None, after=None):
        """Wrap fn in a span.  ``name`` is a string or a function of the call
        arguments; ``before(args)`` returns a token handed to
        ``after(args, result, token)`` once the call has returned."""
        fixed = None if callable(name) else self._name_id(name)
        name_of = name
        ids = self._name_id
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            token = before(args) if before is not None else None
            idx = len(span_start)
            span_name.append(fixed if fixed is not None else ids(name_of(args)))
            span_parent.append(stack[-1])
            span_end.append(0.0)
            stack.append(idx)
            span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                span_end[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result, token)
            return result

        traced.__wrapped__ = fn
        return traced

    def summary(self) -> dict:
        """Per-name {calls, self_s, total_s}, plus every counter."""
        n = len(self.span_start)
        child = [0.0] * n
        parent, start, end = self.span_parent, self.span_start, self.span_end
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls = [0] * len(self.names)
        total = [0.0] * len(self.names)
        own = [0.0] * len(self.names)
        for i, nid in enumerate(self.span_name):
            d = end[i] - start[i]
            calls[nid] += 1
            total[nid] += d
            own[nid] += d - child[i]
        for fin in self._finalizers:
            fin()
        spans = {name: {"calls": calls[i], "self_s": own[i], "total_s": total[i]}
                 for i, name in enumerate(self.names)}
        counts = dict(self.counts)
        counts["wcore.poch.distinct"] = len(self.poch_args)
        counts["trace.spans"] = n
        for kind, k in self.cache_entries.items():
            counts[f"wcore.cache.entries.{kind}"] = k
        counts["wcore.cache.entries"] = sum(self.cache_entries.values())
        return {"spans": spans, "counts": counts, "maxima": dict(self.maxima),
                "bits": {str(b): k for b, k in self.bits.items()}}

    # -- observers -----------------------------------------------------------

    def _max(self, key: str, value: int):
        if value > self.maxima[key]:
            self.maxima[key] = value

    def _observe_bits(self, _args, result, _token=None):
        b = _rational_bits(result)
        if b is not None:
            self.bits[b] += 1

    def _cache_probe(self, mode_at, applies):
        """before/after hooks counting lookups and hits of one cached
        function whose mode is positional argument ``mode_at``: a lookup
        that adds no entry to the mode's cache is a hit."""
        def before(args):
            if not applies(args):
                return None
            cache = args[mode_at].cache
            return cache, len(cache)

        def after(args, result, token):
            if token is None:
                return
            cache, size = token
            self.counts["wcore.cache.lookups"] += 1
            if len(cache) == size:
                self.counts["wcore.cache.hits"] += 1
            self._observe_bits(args, result)
        return before, after

    def track_cache(self, mode):
        """Count the entries of mode.cache once the mode is gone (or at
        :meth:`summary`, whichever comes first)."""
        self._finalizers.append(weakref.finalize(mode, self._record_cache, mode.cache))

    def _record_cache(self, cache: dict):
        for key in cache:
            kind = key[0] if isinstance(key, tuple) and key else "other"
            self.cache_entries[str(kind)] += 1

    # -- installation ----------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _patch_everywhere(self, modules, original, wrapper):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, wrapper)

    def install(self):
        """Wrap every traced function at every binding in the package."""
        mods = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES}
        everywhere = [importlib.import_module(PACKAGE), *mods.values()]
        scalars, wcore = mods["scalars"], mods["wcore"]
        contains = mods["partitions"].contains

        def fn(module, attr, name, before=None, after=None):
            original = getattr(mods[module], attr)
            wrapper = self.wrap(name, original, before, after)
            self._patch_everywhere(everywhere, original, wrapper)

        def limit_before(args):
            f = args[0]
            if isinstance(f, scalars.RatFuncQ):
                self._max("scalars.limit_at_one.max_degree",
                          max(f.num.degree, f.den.degree))

        def format_before(args):
            x = scalars.as_rational(args[0])
            self._max("scalars.format_rational.max_digits",
                      max(decimal_digits(x.numerator), decimal_digits(x.denominator)))
            self._observe_bits(args, x)

        fn("scalars", "limit_at_one", "scalars.limit_at_one", before=limit_before)
        fn("scalars", "format_rational", "scalars.format_rational", before=format_before)
        self._patch(scalars.UniPoly, "__mul__",
                    self.wrap("scalars.unipoly_mul", scalars.UniPoly.__mul__))

        fn("partitions", "enumerate_sub", "partitions.enumerate_sub")
        fn("partitions", "enumerate_strips", "partitions.enumerate_strips")

        def poch_after(args, result, _token):
            self.poch_args.add((args[0], args[1]))
            self._observe_bits(args, result)

        fn("wcore", "poch", "wcore.poch", after=poch_after)
        fn("wcore", "h_factor", "wcore.h_factor", after=self._observe_bits)
        fn("wcore", "w_skew", "wcore.w_skew", after=self._observe_bits)
        fn("wcore", "w_multi", "wcore.w_multi", *self._cache_probe(
            4, lambda a: len(a[3]) > 1 and contains(a[1], a[2])))

        def count_mode(init):
            def built(mode, *args, **kwargs):
                init(mode, *args, **kwargs)
                self.counts["wcore.modes_built"] += 1
                self.track_cache(mode)
            return built

        for cls in (wcore.AtPoint, wcore.FormalQ):
            self._patch(cls, "__init__", count_mode(cls.__init__))

        fn("binomial", "qt_binomial", "binomial.qt_binomial", *self._cache_probe(
            2, lambda a: a[1][-1] >= 0 and contains(a[0], a[1])))
        fn("binomial", "pair_ratio", "binomial.pair_ratio")

        for attr, family in IDENTITY_FAMILIES.items():
            fn("identities", attr, f"identities.{family}")
        report_cls = mods["identities"].VerificationReport
        self._patch(report_cls, "to_dict",
                    self.wrap("identities.report_to_dict", report_cls.to_dict))

        fn("specials", "stirling", "specials.stirling", *self._cache_probe(
            3, lambda a: contains(a[1], a[2])))
        fn("specials", "bernoulli", "specials.bernoulli",
           *self._cache_probe(1, lambda a: True))

        def uv_name(args):
            return "specials.uv_point" if args[2].is_point else "specials.uv_formal"

        fn("specials", "u_coeff", uv_name)
        fn("specials", "v_coeff", uv_name)
        fn("specials", "alpha_limit", "specials.alpha_limit")

        fn("distributions", "exp_E", "distributions.exp")
        fn("distributions", "exp_e", "distributions.exp")
        fn("distributions", "density", "distributions.density")
        fn("distributions", "poisson_normalization",
           "distributions.poisson_normalization")
        fn("distributions", "sample", "distributions.sample")

    def uninstall(self):
        """Restore every patched binding, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
