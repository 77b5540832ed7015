"""In-memory spans around the benchmark's calls into the package.

A span records name, start, end, parent span and utterance id.  Spans
are kept in a list and written out as JSON once the run ends, so the
traced run does no I/O while it measures.  End-to-end figures come from
untraced runs, which use :data:`NO_TRACE` and record nothing.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._clock = clock

    @contextmanager
    def span(self, name: str, utt: str | None = None):
        rec = {"name": name, "start": self._clock(), "end": None,
               "parent": self._open[-1] if self._open else None, "utt": utt}
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec["end"] = self._clock()
            self._open.pop()

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its child spans.
        Children of one span never overlap, since the run is single-threaded."""
        out = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                out[s["parent"]] -= s["end"] - s["start"]
        return out

    def layer_self_time(self, parent_name: str) -> list[dict[str, float]]:
        """For each span named *parent_name*: its children's self time
        summed by span name, plus the parent's own self time under its name."""
        self_t = self.self_times()
        rows: dict[int, dict[str, float]] = {
            i: {parent_name: self_t[i]}
            for i, s in enumerate(self.spans) if s["name"] == parent_name
        }
        for i, s in enumerate(self.spans):
            row = rows.get(s["parent"])
            if row is not None:
                row[s["name"]] = row.get(s["name"], 0.0) + self_t[i]
        return [rows[i] for i in sorted(rows)]

    def dump(self, path: Path) -> None:
        t0 = self.spans[0]["start"] if self.spans else 0.0
        rows = [dict(s, start=s["start"] - t0, end=s["end"] - t0) for s in self.spans]
        Path(path).write_text(json.dumps({"clock": "perf_counter, seconds from first span",
                                          "spans": rows}))


class _NoTracer:
    _ctx = nullcontext()

    def span(self, name: str, utt: str | None = None):
        return self._ctx


NO_TRACE = _NoTracer()
