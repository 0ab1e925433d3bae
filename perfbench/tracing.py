"""Spans and jet-request counts, recorded from outside ``bertrand_kit``.

The benchmark routes every call it makes into a package module through
``Tracer.call``; nothing inside the package is patched.  Jet requests are
counted on copies of the curves the benchmark builds or receives and then
passes on, whose ``jet`` is wrapped, so calls the package makes on those
objects (for instance the mate asking the base for jets) are counted too.

``NullTracer`` has the same interface and records nothing; the untraced
runs that give the end-to-end metrics use it.
"""

import copy
import time
from collections import Counter

# the pair pipeline's top-level calls; a jet request is charged to the
# innermost open span that is one of these
STAGES = ("generate", "construct_mate", "detect", "theorem_suite")
CURVES = ("seed", "base", "mate")
BANDS = ("o0", "o1", "o2_5", "o6plus")


def band(order):
    """Order band of a jet request."""
    if order <= 1:
        return f"o{order}"
    return "o2_5" if order <= 5 else "o6plus"


class NullTracer:
    def call(self, layer, name, fn, *args, units=1, **kwargs):
        return fn(*args, **kwargs)

    def watch(self, curve, role):
        return curve


class Tracer:
    """In-memory spans plus jet-request counts keyed (stage, curve, band)."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.op = None
        self._stack = []

    def call(self, layer, name, fn, *args, units=1, **kwargs):
        """``fn(*args, **kwargs)`` inside a span; ``units`` is the work it
        stands for (grid points, calls), for per-unit timings."""
        rec = {
            "id": len(self.spans),
            "parent": self._stack[-1]["id"] if self._stack else None,
            "op": self.op,
            "layer": layer,
            "name": name,
            "units": units,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            return fn(*args, **kwargs)
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def _stage(self):
        for rec in reversed(self._stack):
            if rec["name"] in STAGES:
                return rec["name"]
        return None

    def watch(self, curve, role):
        """A shallow copy of ``curve`` whose ``jet`` requests are counted."""
        curve = copy.copy(curve)
        inner = curve.jet
        counts = self.counts

        def jet(t, order):
            stage = self._stage()
            if stage is not None:
                counts[(stage, role, band(order))] += 1
            return inner(t, order)

        curve.jet = jet
        return curve

    def take_counts(self):
        """Jet counts since the last call, as metric name -> count."""
        out = {
            f"jet_calls.{s}.{c}.{b}": self.counts[(s, c, b)]
            for s in STAGES
            for c in CURVES
            for b in BANDS
        }
        self.counts.clear()
        return out

    def per_unit(self, layer, name, seconds=lambda start, end: end - start):
        """Seconds per unit of every finished span with this layer and name;
        ``seconds(start, end)`` turns a span's ends into its duration."""
        return [
            seconds(r["start"], r["end"]) / r["units"]
            for r in self.spans
            if r["layer"] == layer and r["name"] == name and r["end"] is not None
        ]

    def self_seconds(self, rec):
        """Span duration minus the time its direct children cover."""
        children = [r for r in self.spans if r["parent"] == rec["id"]]
        return (rec["end"] - rec["start"]) - sum(r["end"] - r["start"] for r in children)

    def dump(self):
        t0 = self.spans[0]["start"] if self.spans else 0.0
        return [
            dict(r, start=r["start"] - t0, end=r["end"] - t0,
                 self_s=self.self_seconds(r))
            for r in self.spans
        ]
