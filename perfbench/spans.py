"""In-memory span recorder, applied from outside the program.

The benchmark times each layer by replacing a public method or callable
attribute *on one instance* with a wrapper that records a span around
the original call (:meth:`Tracer.wrap`); no file of the program changes.
A span holds its name, start, end, parent and a group id: the id of the
root span it descends from, so every span of one training step or one
service call shares it.  Spans stay in memory and are written out once,
when the workload ends (:meth:`Tracer.dump`).

Spans nest per thread.  The serving tier runs every service call under
one lock, so a service call's spans form one tree on one worker thread,
while check-ins recorded on the load-generator thread form their own.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    group: int = 0
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; ``enabled=False`` makes :meth:`wrap` a no-op."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        #: Wrappers stay installed; clearing this stops them recording.
        self.recording = True
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **attrs):
        stack = self._stack()
        parent = stack[-1] if stack else None
        sid = next(self._ids)
        record = Span(
            id=sid,
            name=name,
            start=time.perf_counter(),
            parent=parent.id if parent else None,
            group=parent.group if parent else sid,
            attrs=attrs,
        )
        stack.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()
            self.spans.append(record)

    def wrap(self, owner, attr: str, name: str, attrs: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` (a bound method, or a callable object the
        owner calls through that attribute) with a span-recording wrapper
        on this instance.  ``attrs(*args, **kwargs)`` may return extra
        attributes for the span, such as a row count."""
        if not self.enabled:
            return
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.recording:
                return original(*args, **kwargs)
            extra = attrs(*args, **kwargs) if attrs is not None else {}
            with tracer.span(name, **extra):
                return original(*args, **kwargs)

        setattr(owner, attr, traced)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def named(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def children(self) -> Dict[int, List[Span]]:
        out: Dict[int, List[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                out.setdefault(s.parent, []).append(s)
        return out

    def self_times(self) -> Dict[int, float]:
        """Span duration minus the part of it its child spans cover."""
        kids = self.children()
        out = {}
        for s in self.spans:
            out[s.id] = s.duration - _covered(s, kids.get(s.id, []))
        return out

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for s in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps({
                    "id": s.id, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "group": s.group, "attrs": s.attrs,
                }) + "\n")


def _covered(span: Span, kids: List[Span]) -> float:
    """Length of the union of the children's intervals inside ``span``."""
    total = 0.0
    cursor = span.start
    for kid in sorted(kids, key=lambda k: k.start):
        lo = max(kid.start, cursor, span.start)
        hi = min(kid.end, span.end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total
