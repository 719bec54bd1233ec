"""In-memory spans around the benchmark's calls into each layer.

A span is (name, start, end, parent, instance, attrs).  Spans nest by the
order they are opened, are kept in memory and are handed to the caller at
the end of a pass.  A disabled tracer hands out one shared no-op context, so
an untraced pass pays one method call per layer call.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Dict, List


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    @property
    def attrs(self) -> dict:
        return {}


_NULL = _NullSpan()


class _Span:
    __slots__ = ("tracer", "name", "instance", "attrs", "index")

    def __init__(self, tracer: "Tracer", name: str, instance, attrs: dict):
        self.tracer = tracer
        self.name = name
        self.instance = instance
        self.attrs = attrs

    def __enter__(self):
        tr = self.tracer
        self.index = len(tr.spans)
        parent = tr.open[-1] if tr.open else None
        tr.spans.append([self.name, time.perf_counter(), None, parent, self.instance, self.attrs])
        tr.open.append(self.index)
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        tr.spans[self.index][2] = time.perf_counter()
        tr.open.pop()
        return False


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: List[list] = []
        self.open: List[int] = []

    def span(self, name: str, instance=None, **attrs):
        if not self.enabled:
            return _NULL
        return _Span(self, name, instance, attrs)


def self_times(spans: List[list]) -> Dict[str, float]:
    """Per-name sum of span duration minus the time its child spans cover."""
    child_time = defaultdict(float)
    for name, start, end, parent, _inst, _attrs in spans:
        if parent is not None:
            child_time[parent] += end - start
    out: Dict[str, float] = defaultdict(float)
    for i, (name, start, end, _parent, _inst, _attrs) in enumerate(spans):
        out[name] += (end - start) - child_time[i]
    return dict(out)
