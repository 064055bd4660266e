"""In-memory spans recorded around calls into fuzzmap's layers.

A span has a name, start, end, parent and run id. Spans stay in memory
and are written out once, when the traced run ends. A layer's self time
is its duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from statistics import median
from typing import Iterator, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]  # index into Tracer.spans
    run_id: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Span recorder; a disabled tracer runs the same code and records nothing."""

    def __init__(self, run_id: str, enabled: bool = True):
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, time.perf_counter(), float("nan"), parent, self.run_id))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index].end = time.perf_counter()

    def durations(self, name: str) -> list[float]:
        return [s.duration for s in self.spans if s.name == name]

    def median(self, name: str) -> float:
        values = self.durations(name)
        if not values:
            raise KeyError(f"no span named {name!r}")
        return median(values)

    def self_times(self) -> list[float]:
        """Per span: duration minus the union of its children's intervals."""
        children: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        result = []
        for index, span in enumerate(self.spans):
            covered, reach = 0.0, span.start
            for child in sorted(children.get(index, []), key=lambda c: c.start):
                lo, hi = max(child.start, reach), min(child.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            result.append(span.duration - covered)
        return result

    def self_time_by_name(self) -> dict[str, float]:
        totals: dict[str, float] = {}
        for span, own in zip(self.spans, self.self_times()):
            totals[span.name] = totals.get(span.name, 0.0) + own
        return totals

    def write(self, path: Path, extra: dict) -> None:
        origin = self.spans[0].start if self.spans else 0.0
        spans = []
        for span, own in zip(self.spans, self.self_times()):
            record = asdict(span)
            record["start"] -= origin
            record["end"] -= origin
            record["self"] = own
            spans.append(record)
        doc = dict(extra, run_id=self.run_id, self_s=self.self_time_by_name(), spans=spans)
        path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
