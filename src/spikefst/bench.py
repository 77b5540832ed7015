"""Dense-vs-compressed benchmark harness.

For each compression mode: compress the corpus, decode it, score it, and
time the compress+decode span (graph building and file I/O stay outside
the clock).  Wall times are medians over repeats to resist scheduler
noise; speedups are ratios of medians against the dense baseline, which
is therefore pinned at exactly 1.00.
"""

from __future__ import annotations

import csv
import io
import json
import statistics
import time
from dataclasses import dataclass

from .compress import CompressConfig, compress
from .decoder import DecoderConfig, decode_batch, _word_syms
from .errors import ValidationError
from .scoring import score_corpus


@dataclass(frozen=True)
class BenchRow:
    mode: str
    cer: float
    mean_frames: float
    frame_reduction: float
    speedup: float
    median_ms: float
    failures: int


@dataclass
class BenchReport:
    rows: list[BenchRow]
    unit: str
    repeats: int

    CSV_COLUMNS = ("mode", "cer", "mean_frames", "frame_reduction", "speedup")

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(self.CSV_COLUMNS)
        for r in self.rows:
            writer.writerow([
                r.mode, f"{r.cer:.6f}", f"{r.mean_frames:.3f}",
                f"{r.frame_reduction:.3f}", f"{r.speedup:.3f}",
            ])
        return buf.getvalue()

    def to_json(self) -> str:
        return json.dumps(
            {
                "unit": self.unit,
                "repeats": self.repeats,
                "rows": [
                    {
                        "mode": r.mode,
                        "cer": r.cer,
                        "mean_frames": r.mean_frames,
                        "frame_reduction": r.frame_reduction,
                        "speedup": r.speedup,
                        "median_ms": r.median_ms,
                        "failures": r.failures,
                    }
                    for r in self.rows
                ],
            },
            indent=2,
        )

    def row(self, mode: str) -> BenchRow:
        for r in self.rows:
            if r.mode == mode:
                return r
        raise KeyError(mode)


def bench(graph, utts, refs: dict[str, str], modes: list[CompressConfig],
          cfg: DecoderConfig, repeats: int = 5, unit: str = "word") -> BenchReport:
    """Run every mode over (utt_id, PosteriorMatrix) pairs and report
    Table-style rows.  The dense mode must be present as the baseline.
    Failed utterances are counted per mode and excluded from scoring."""
    utts = list(utts)
    if not any(m.mode == "dense" for m in modes):
        raise ValidationError("bench requires the dense mode as its baseline")
    if repeats < 1:
        raise ValidationError("repeats must be >= 1")

    timings: dict[str, float] = {}
    rows: list[BenchRow] = []
    dense_frames = None
    for mode_cfg in modes:
        label = mode_cfg.label()
        samples = []
        batch = None
        compressed = None
        for _ in range(repeats):
            t0 = time.perf_counter()
            compressed = [(u, compress(p, mode_cfg)) for u, p in utts]
            batch = decode_batch(graph, compressed, cfg)
            samples.append(time.perf_counter() - t0)
        median_s = statistics.median(samples)
        timings[label] = median_s

        hyps = {u: " ".join(_word_syms(graph, r.words)) for u, r in batch.ok()}
        report = score_corpus({u: refs[u] for u in hyps}, hyps, unit=unit)
        mean_frames = (
            sum(c.frames for _, c in compressed) / len(compressed) if compressed else 0.0
        )
        if mode_cfg.mode == "dense":
            dense_frames = mean_frames
        rows.append(BenchRow(
            mode=label, cer=report.rate, mean_frames=mean_frames,
            frame_reduction=0.0, speedup=0.0,
            median_ms=median_s * 1000.0, failures=len(batch.failures),
        ))

    dense_label = next(m.label() for m in modes if m.mode == "dense")
    dense_median = timings[dense_label]
    final_rows = []
    for r in rows:
        reduction = dense_frames / r.mean_frames if r.mean_frames else float("inf")
        speedup = dense_median / timings[r.mode] if timings[r.mode] > 0 else float("inf")
        final_rows.append(BenchRow(
            mode=r.mode, cer=r.cer, mean_frames=r.mean_frames,
            frame_reduction=reduction, speedup=speedup,
            median_ms=r.median_ms, failures=r.failures,
        ))
    return BenchReport(final_rows, unit=unit, repeats=repeats)
