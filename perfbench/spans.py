"""In-memory span recorder that wraps laminhom's public functions from outside.

A span is (name, start, end, parent, info): `parent` is the index of the
enclosing span (-1 at the top) and `info` is whatever the probe attached to
the wrapped call returned (cells touched, solver statistics, bytes written).
Spans are kept in a list while the program runs and written out at the end.
The program itself is not edited: `Tracer.install` swaps module attributes
and `Tracer.uninstall` puts the originals back.
"""

from __future__ import annotations

import gzip
import time
from pathlib import Path


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._patched = []

    def wrap(self, name, fn, probe=None):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            out = None
            start = clock()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                end = clock()
                stack.pop()
                info = probe(args, out) if probe is not None else None
                spans[index] = (name, start, end, parent, info)

        return traced

    def install(self, points):
        """points: iterable of (owner, attribute, span name, probe or None)."""
        for owner, attr, name, probe in points:
            original = getattr(owner, attr)
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, probe))

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write(self, path):
        """Write the spans as gzip CSV: index,name,start,end,parent."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("index,name,start,end,parent\n")
            for i, (name, start, end, parent, _) in enumerate(self.spans):
                fh.write(f"{i},{name},{start!r},{end!r},{parent}\n")


def self_times(spans):
    """Per-span self time: duration minus the time its direct children cover.

    Children of one span run one after another inside it (the program is
    single-threaded in the traced process), so their durations add up.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(end - start) - child[i] for i, (_, start, end, _, _) in enumerate(spans)]


def layer_totals(spans):
    """{name: {"calls", "self_s", "total_s"}} aggregated over all spans."""
    out = {}
    for span, own in zip(spans, self_times(spans)):
        name, start, end = span[0], span[1], span[2]
        agg = out.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        agg["calls"] += 1
        agg["self_s"] += own
        agg["total_s"] += end - start
    return out
