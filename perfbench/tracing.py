"""In-memory span recorder that wraps eprsim's public functions from outside.

A span is (name, start, end, parent, op).  Spans nest by call order: a
wrapped call made while another wrapped call is running becomes its child.
Nothing inside the package is edited; the recorder replaces names at their
import sites and puts the originals back on `uninstall`.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = float("nan")
    parent: int | None = None
    op: object = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent=parent, op=self.op))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> Span:
        span = self.spans[index]
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {span.name} closed out of order")
        return span

    def wrap(self, name: str, fn, attrs=None):
        """Return `fn` recording a span per call; `attrs(args, kwargs, result)`
        returns counters stored on the span when the call returns."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.spans[index].attrs["raised"] = type(exc).__name__
                raise
            finally:
                span = self.close(index)
            if attrs is not None:
                span.attrs.update(attrs(args, kwargs, result))
            return result

        return traced

    def patch(self, owner, attr: str, name: str, attrs=None) -> None:
        """Replace `owner.attr` by a traced wrapper.  Handles classmethods."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, classmethod):
            replacement = classmethod(self.wrap(name, original.__func__, attrs))
        else:
            replacement = self.wrap(name, original, attrs)
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path) -> None:
        payload = [dict(asdict(s), self_s=t) for s, t in zip(self.spans, self_times(self.spans))]
        with open(path, "w", encoding="ascii") as fh:
            json.dump(payload, fh, default=str)


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of closed intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Per span: its duration minus the part of it its children cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return [s.duration - _covered(c) for s, c in zip(spans, children)]


def layer_totals(spans: list[Span]) -> dict[str, dict]:
    """Per span name: calls, busy_s, self_s and summed numeric attributes.

    A span nested (at any depth) inside a span of the same name is part of
    that outer call, so it adds neither a call nor busy time; its self time
    still counts toward the outer name.
    """
    selfs = self_times(spans)
    totals: dict[str, dict] = {}
    for index, span in enumerate(spans):
        entry = totals.setdefault(span.name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        entry["self_s"] += selfs[index]
        if _inside_same_name(spans, index):
            continue
        entry["calls"] += 1
        entry["busy_s"] += span.duration
        for key, value in span.attrs.items():
            if isinstance(value, (int, float)):
                entry[key] = entry.get(key, 0) + value
    return totals


def _inside_same_name(spans: list[Span], index: int) -> bool:
    name, parent = spans[index].name, spans[index].parent
    while parent is not None:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False
