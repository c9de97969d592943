"""In-memory span tracing by wrapping the package's public functions.

A :class:`Tracer` replaces chosen public functions and methods of the
``fmnec`` modules with timing wrappers, keeps one span per call as
``(name, start, end, parent)`` in a list, and puts every original back on
:meth:`Tracer.restore`.  Functions that other modules imported by name
(``from .corpus import parse_column_file`` in ``cli``) are replaced in
every module namespace that holds them, so the call site needs no change.
Private helpers are never wrapped; their time is their caller's self time.

Self time of a span is its duration minus the durations of its direct
children.  Calls are nested and single-threaded, so the self times of all
spans add up to the summed duration of the root spans.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []  # (name, start, end, parent index or None)
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self.epoch_marks: list[float] = []
        self._stack: list[int] = []
        self._patches: list = []  # (owner, attribute, original), in patch order

    # -- recording ---------------------------------------------------------

    def call(self, name, fn, args, kwargs):
        """Run ``fn`` inside a span named ``name`` and return its result."""
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = self.clock()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent)

    def count(self, key, amount=1.0):
        self.counts[key] += amount

    def peak(self, key, value):
        self.maxima[key] = max(self.maxima[key], value)

    def wrap(self, name, fn, before=None, after=None):
        """A stand-in for ``fn`` that records a span per call.

        ``before(args, kwargs)`` may return replacement (args, kwargs);
        ``after(args, kwargs, result)`` runs once the span has closed.
        """
        tracer = self

        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            result = tracer.call(name, fn, args, kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- installing --------------------------------------------------------

    def patch_function(self, fn, name, before=None, after=None):
        """Replace ``fn`` wherever an ``fmnec`` module binds it by name."""
        wrapper = self.wrap(name, fn, before, after)
        hits = 0
        for modname, module in sorted(sys.modules.items()):
            if module is None or not (modname == "fmnec" or modname.startswith("fmnec.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)
                    hits += 1
        if not hits:
            raise LookupError(f"{fn!r} is bound in no fmnec module")

    def patch_method(self, cls, attr, name, before=None, after=None):
        """Replace a method or classmethod on ``cls``."""
        original = cls.__dict__[attr]
        if isinstance(original, classmethod):
            replacement = classmethod(self.wrap(name, original.__func__, before, after))
        else:
            replacement = self.wrap(name, original, before, after)
        self._patches.append((cls, attr, original))
        setattr(cls, attr, replacement)

    def restore(self):
        """Put back every original, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


def self_times(spans) -> list[float]:
    """Self time per span: its duration minus its direct children's."""
    covered = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent is not None:
            covered[parent] += end - start
    return [end - start - covered[i] for i, (_, start, end, _) in enumerate(spans)]


def summarize(spans) -> dict:
    """Calls and inclusive seconds per span name, self seconds per layer
    (the name up to its first dot) and the traced wall time (summed root
    spans)."""
    by_name: dict[str, dict] = defaultdict(lambda: {"calls": 0, "total_s": 0.0})
    by_layer: dict[str, float] = defaultdict(float)
    wall = 0.0
    for (name, start, end, parent), own in zip(spans, self_times(spans)):
        entry = by_name[name]
        entry["calls"] += 1
        entry["total_s"] += end - start
        by_layer[name.split(".", 1)[0]] += own
        if parent is None:
            wall += end - start
    return {"names": dict(by_name), "layers": dict(by_layer), "wall_s": wall}
