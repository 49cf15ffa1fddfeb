"""In-memory spans around the benchmark's calls into each layer.

A span records its name, start, end and parent. ``Tracer(enabled=False)``
records nothing, so the untraced path pays one branch per call. A layer's
self time is its span's duration minus what its child spans cover. A root
span covers one timed region; the shares are the layers' self times over the
roots' summed duration, plus the remainder no child span covers.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        s = Span(len(self.spans), self._stack[-1] if self._stack else None,
                 name, time.perf_counter())
        self.spans.append(s)
        self._stack.append(s.id)
        try:
            yield
        finally:
            self._stack.pop()
            s.end = time.perf_counter()

    def shares(self, roots: list[Span]) -> dict[str, float]:
        """Layer name → share of the roots' summed duration spent in that
        layer's own time, plus ``unattributed`` for the roots' own time."""
        wall = sum(r.end - r.start for r in roots)
        kids: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                kids.setdefault(s.parent, []).append(s)
        out: dict[str, float] = {}

        def walk(s: Span, name: str) -> None:
            own = (s.end - s.start) - sum(c.end - c.start
                                          for c in kids.get(s.id, []))
            out[name] = out.get(name, 0.0) + own / wall
            for c in kids.get(s.id, []):
                walk(c, c.name)

        for root in roots:
            walk(root, "unattributed")
        return out

    def roots(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.parent is None and s.name == name]

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([asdict(s) for s in self.spans], fh)
