"""Spans and counts around frobdet's layers, recorded from outside.

Tracer.install() replaces every public function of each frobdet module
with a wrapper that records a span, under every name that refers to it:
its own module and each module that imported it with 'from .x import y'.
A few hot methods are wrapped too; cyclotomic arithmetic and Poly
multiplication are only counted, since a span there would cost more than
the work it measures, and the per-term monomial helpers of poly are left
alone, their time falling in their callers' self time. uninstall()
restores the originals. Spans stay in memory until the run ends.
"""

import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

NOT_WRAPPED = {"poly.mono_mul", "poly.mono_divides", "poly.mono_div",
               "poly.mono_deg", "poly.mono_cmp", "poly.mono_str"}
# (module, class, attribute, span name or None for a count)
METHODS = [
    ("poly", "Poly", "__mul__", None),
    ("poly", "Poly", "evaluate", "poly.evaluate"),
    ("poly", "Poly", "substitute", "poly.substitute"),
    ("cyclotomic", "CycNum", "__mul__", None),
    ("cyclotomic", "CycNum", "inverse", None),
    ("cyclotomic", "CycNum", "embed", None),
    ("factorization", "Factorization", "expand", "factorization.expand"),
    ("factorization", "Factorization", "normalized",
     "factorization.normalized"),
    ("nilpotent", "Cocycle", "for_monoid", "nilpotent.Cocycle.for_monoid"),
]
SPANNED_LAYERS = ("cli", "semigroups", "posets", "characters", "poly",
                  "linalg", "factorization", "determinant", "commutative",
                  "groupoids", "nilpotent", "rings")


class Span:
    __slots__ = ("name", "start", "end", "parent", "request")

    def __init__(self, name, start, end, parent, request):
        self.name, self.start, self.end = name, start, end
        self.parent, self.request = parent, request


class Tracer:
    """Records spans (name, start, end, parent index, request id) and
    counts. Hooks run after a span closes and may add to stats."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.stats = defaultdict(int)
        self.request = None
        self._stack = []
        self._patches = []
        self._hooks = {}

    def on_exit(self, name, hook):
        """hook(tracer, args, kwargs, result) after each call of span name."""
        self._hooks[name] = hook

    def _span(self, name, fn):
        spans, stack = self.spans, self._stack
        hook = self._hooks.get(name)

        def traced(*args, **kwargs):
            rec = Span(name, perf_counter(), 0.0,
                       stack[-1] if stack else None, self.request)
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.end = perf_counter()
                stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    def _counter(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self):
        modules = {name: sys.modules[f"frobdet.{name}"]
                   for name in SPANNED_LAYERS + ("cyclotomic",)}
        holders = [m for name, m in sys.modules.items()
                   if name == "frobdet" or name.startswith("frobdet.")]
        for layer in SPANNED_LAYERS:
            mod = modules[layer]
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                if name in NOT_WRAPPED:
                    continue
                wrapped = self._span(name, fn)
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            self._patch(holder, key, wrapped)
        for layer, cls_name, attr, span in METHODS:
            cls = getattr(modules[layer], cls_name)
            raw = cls.__dict__[attr]
            is_static = isinstance(raw, staticmethod)
            fn = raw.__func__ if is_static else raw
            name = span or f"{layer}.{cls_name}.{attr}"
            wrapped = self._span(name, fn) if span else self._counter(name, fn)
            self._patch(cls, attr, staticmethod(wrapped) if is_static else wrapped)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path):
        """All spans as tab-separated lines: name, start, end, parent
        index (-1 for a root), request id."""
        with open(path, "w") as fh:
            fh.write("name\tstart\tend\tparent\trequest\n")
            for s in self.spans:
                fh.write(f"{s.name}\t{s.start:.9f}\t{s.end:.9f}\t"
                         f"{-1 if s.parent is None else s.parent}\t"
                         f"{s.request}\n")


def self_times(spans):
    """Self time of each span: its duration minus the part of its interval
    that its children cover (children clipped to the parent and merged)."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent is not None:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cur_start = cur_end = None
        for c in sorted(children.get(i, ()), key=lambda c: spans[c].start):
            a, b = max(spans[c].start, s.start), min(spans[c].end, s.end)
            if b <= a:
                continue
            if cur_end is None or a > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = a, b
            else:
                cur_end = max(cur_end, b)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append(s.end - s.start - covered)
    return out
