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

    measured = []  # per mode: label, cer, mean frames, median seconds, failures
    for mode_cfg in modes:
        samples = []
        batch = None
        compressed = None
        for _ in range(repeats):
            t0 = time.perf_counter()
            compressed = [(u, compress(p, mode_cfg)) for u, p in utts]
            batch = decode_batch(graph, compressed, cfg)
            samples.append(time.perf_counter() - t0)

        hyps = {u: " ".join(_word_syms(graph, r.words)) for u, r in batch.ok()}
        report = score_corpus({u: refs[u] for u in hyps}, hyps, unit=unit)
        mean_frames = (
            sum(c.frames for _, c in compressed) / len(compressed) if compressed else 0.0
        )
        measured.append((mode_cfg.label(), report.rate, mean_frames,
                         statistics.median(samples), len(batch.failures)))

    _, _, dense_frames, dense_s, _ = next(
        m for m, mode_cfg in zip(measured, modes) if mode_cfg.mode == "dense"
    )
    rows = [
        BenchRow(
            mode=label, cer=cer, mean_frames=frames,
            frame_reduction=dense_frames / frames if frames else float("inf"),
            speedup=dense_s / median_s if median_s > 0 else float("inf"),
            median_ms=median_s * 1000.0, failures=failures,
        )
        for label, cer, frames, median_s, failures in measured
    ]
    return BenchReport(rows, unit=unit, repeats=repeats)
