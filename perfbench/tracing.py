"""In-memory span recorder and the patching that wraps layer entry points.

A :class:`Tracer` records one span per wrapped call: name, start, end,
the span that caused it (parent, per thread) and a request id inherited
from the parent.  Spans stay in memory until the benchmark writes them
out at the end of a run.  Wrapping replaces a function or method at the
name its callers look it up by (a module global, a class attribute) and
restores the original afterwards, so the program's own files are never
edited and untraced passes run the original code.
"""

from __future__ import annotations

import functools
import inspect
import json
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: ``observe(span, args, kwargs, result)`` — attaches counts to a span.
Observer = Callable[["Span", tuple, dict, Any], None]


class Span:
    """One timed call into a layer."""

    __slots__ = ("name", "start", "end", "parent", "request_id", "attrs")

    def __init__(
        self, name: str, start: float, parent: Optional[int], request_id: Optional[str]
    ) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.request_id = request_id
        self.attrs: Dict[str, float] = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "request_id": self.request_id,
            **({"attrs": self.attrs} if self.attrs else {}),
        }


def covered_length(intervals: Sequence[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(start, lo), min(end, hi)) for start, end in intervals if end > lo and start < hi
    )
    total = 0.0
    cur_start = cur_end = None
    for start, end in clipped:
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part of it its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return [
        span.duration - covered_length(children.get(index, ()), span.start, span.end)
        for index, span in enumerate(spans)
    ]


class Tracer:
    """Records spans while installed; wraps callables by name."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.recording = False
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[Any, str, Any, bool]] = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, request_id: Optional[str] = None) -> Iterator[Optional[Span]]:
        """Record the enclosed block as a span (a no-op unless recording)."""
        if not self.recording:
            yield None
            return
        stack = self._stack()
        parent = stack[-1] if stack else None
        if request_id is None and parent is not None:
            request_id = self.spans[parent].request_id
        span = Span(name, perf_counter(), parent, request_id)
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        try:
            yield span
        finally:
            span.end = perf_counter()
            stack.pop()

    # -- wrapping -------------------------------------------------------------

    def _traced(self, fn: Callable, name: str, observe: Optional[Observer]) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            with tracer.span(name) as span:
                result = fn(*args, **kwargs)
            if observe is not None:
                observe(span, args, kwargs, result)
            return result

        return traced

    def wrap(self, owner: Any, attr: str, name: str, observe: Optional[Observer] = None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``owner`` is a module or a class; class-, static- and plain
        methods are all handled, inherited ones included.
        """
        raw = inspect.getattr_static(owner, attr)
        own = attr in vars(owner)
        if isinstance(raw, classmethod):
            replacement: Any = classmethod(self._traced(raw.__func__, name, observe))
        elif isinstance(raw, staticmethod):
            replacement = staticmethod(self._traced(raw.__func__, name, observe))
        else:
            replacement = self._traced(raw, name, observe)
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, raw, own))

    def unwrap_all(self) -> None:
        """Put every wrapped callable back, newest first."""
        while self._patches:
            owner, attr, raw, own = self._patches.pop()
            if own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)

    # -- reporting ------------------------------------------------------------

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, summed duration and summed self time (s)."""
        out: Dict[str, Dict[str, float]] = {}
        for span, own in zip(self.spans, self_times(self.spans)):
            row = out.setdefault(span.name, {"calls": 0, "total": 0.0, "self": 0.0})
            row["calls"] += 1
            row["total"] += span.duration
            row["self"] += own
        return out

    def attr_sum(self, name: str, attr: str) -> float:
        return sum(span.attrs.get(attr, 0.0) for span in self.spans if span.name == name)

    def write(self, path: str) -> None:
        """Write every recorded span as one JSON document."""
        with open(path, "w") as handle:
            json.dump({"spans": [span.as_dict() for span in self.spans]}, handle)
            handle.write("\n")
