"""In-memory call spans and the self-time arithmetic over them.

A span is ``(name, start_ns, end_ns, parent)`` where ``parent`` is the
index of the enclosing span in the same list, or -1 for a root. The
tracer installs pass-through wrappers on module attributes, so code that
looks a name up at call time (``plrlab.trainer`` does for every helper it
calls) reports a span per call without any change to the library.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from time import perf_counter_ns

__all__ = ["Tracer", "self_times", "write_spans"]


class Tracer:
    """Records spans and per-layer counters; owns the wrappers it installs."""

    def __init__(self):
        self.spans: list = []
        self.counters: dict[str, float] = {}
        self._current = -1

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    @contextmanager
    def span(self, name: str):
        """A root or nested span around a block of the caller's own code."""
        parent, idx = self._current, len(self.spans)
        self.spans.append(None)
        self._current = idx
        start = perf_counter_ns()
        try:
            yield idx
        finally:
            self.spans[idx] = (name, start, perf_counter_ns(), parent)
            self._current = parent

    def wrap(self, name: str, fn, observe=None):
        """A wrapper that returns fn's result (or raises its error) unchanged.

        ``observe(tracer, args, kwargs, result)`` runs after the span has
        closed, so counting never lands inside the wrapped call's time.
        """
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent, idx = self._current, len(spans)
            spans.append(None)
            self._current = idx
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx] = (name, start, perf_counter_ns(), parent)
                self._current = parent
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self, module, names: dict):
        """Patch ``module.<attr>`` for each attr in names while the block runs.

        ``names`` maps an attribute to ``(span name, observer or None)``.
        Attributes the module does not have are skipped and yielded, so a
        renamed or merged function shows up as absent instead of crashing.
        """
        saved = {}
        for attr, (span_name, observe) in names.items():
            if hasattr(module, attr):
                saved[attr] = getattr(module, attr)
                setattr(module, attr, self.wrap(span_name, saved[attr], observe))
        try:
            yield sorted(set(names) - set(saved))
        finally:
            for attr, original in saved.items():
                setattr(module, attr, original)


def _covered(intervals: list[tuple[int, int]], lo: int, hi: int) -> int:
    """Length of [lo, hi] covered by the union of the given intervals."""
    total, reach = 0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans, root: int | None = None) -> dict[str, tuple[int, int]]:
    """Per-name ``(self_ns, calls)``: each span's duration minus the part of
    it that its direct children cover.

    With ``root`` given, only that span and its descendants count. Over a
    tree the self times add up exactly to the root's duration.
    """
    children: dict[int, list[tuple[int, int]]] = {}
    for name, start, end, parent in spans:
        children.setdefault(parent, []).append((start, end))
    keep = None
    if root is not None:
        keep = {root}
        for idx, (_, _, _, parent) in enumerate(spans):
            if parent in keep:
                keep.add(idx)
    out: dict[str, tuple[int, int]] = {}
    for idx, (name, start, end, _) in enumerate(spans):
        if keep is not None and idx not in keep:
            continue
        own = (end - start) - _covered(children.get(idx, []), start, end)
        ns, calls = out.get(name, (0, 0))
        out[name] = (ns + own, calls + 1)
    return out


def write_spans(spans, path) -> None:
    """One tab-separated line per span: index, parent, name, start_ns, end_ns."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("index\tparent\tname\tstart_ns\tend_ns\n")
        for idx, (name, start, end, parent) in enumerate(spans):
            fh.write(f"{idx}\t{parent}\t{name}\t{start}\t{end}\n")
