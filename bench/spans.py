"""In-memory span tracer that wraps sparsebench functions from outside.

Each wrapped call records one span: name, start, end and the span that
was open when it was called (its parent). A layer's self time is its
span's duration minus the part of that interval its child spans cover.
Spans stay in memory until the caller writes them out.

Functions are wrapped as their callers see them: every `sparsebench.*`
module attribute bound to the original function object is replaced, so
`from .runner import execute_gru` in the CLI and the module-internal
call inside `conv.run_network` both go through the wrapper.
"""

import functools
import sys
import time
from dataclasses import dataclass


@dataclass
class Span:
    sid: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        sid = len(self.spans)
        self.spans.append(Span(sid, name, parent, time.perf_counter()))
        self._stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid].end = time.perf_counter()
        self._stack.pop()

    def count(self, key: str, n: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def call(self, name, fn, args, kwargs, on_return):
        if callable(name):
            name = name(*args, **kwargs)
        sid = self.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            self.end(sid)
        if on_return is not None:
            # Counting runs inside the caller's span; a child span of
            # its own keeps that time out of the caller's self time.
            hook = self.begin("bench.count")
            try:
                on_return(self, result, args, kwargs)
            finally:
                self.end(hook)
        return result

    def self_times(self) -> list[float]:
        """Per span: duration minus the union of its children's intervals."""
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        out = []
        for s in self.spans:
            covered, reach = 0.0, s.start
            for c in sorted(children.get(s.sid, ()), key=lambda c: c.start):
                lo, hi = max(c.start, reach), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out.append((s.end - s.start) - covered)
        return out

    def to_json(self) -> list[dict]:
        return [{"id": s.sid, "name": s.name, "parent": s.parent,
                 "start": s.start, "end": s.end} for s in self.spans]


class Patch:
    """Context manager that routes calls of chosen functions through a tracer.

    `targets` maps (owner, attribute) to (span name, on_return hook); the
    owner is a module or a class. The span name may be a callable taking
    the call's arguments.
    """

    def __init__(self, tracer: Tracer, targets: dict):
        self.tracer = tracer
        self.targets = targets
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self):
        mods = [m for k, m in list(sys.modules.items())
                if m is not None and (k == "sparsebench" or k.startswith("sparsebench."))]
        for (owner, attr), (name, hook) in self.targets.items():
            orig = getattr(owner, attr)
            wrapper = self._wrap(name, orig, hook)
            holders = [owner] + [m for m in mods if getattr(m, attr, None) is orig]
            for h in holders:
                if getattr(h, attr) is orig:
                    self._undo.append((h, attr, orig))
                    setattr(h, attr, wrapper)
        return self.tracer

    def __exit__(self, *exc):
        for h, attr, orig in reversed(self._undo):
            setattr(h, attr, orig)
        self._undo.clear()
        return False

    def _wrap(self, name, fn, hook):
        tracer = self.tracer

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs, hook)

        return wrapper
