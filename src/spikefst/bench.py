"""Corpus evaluation: the dense-vs-compressed benchmark and the
decoder-parameter sweep, both scoring a decoded batch through
:func:`score_batch`.

For each compression mode the benchmark compresses the corpus, decodes
it, scores it, and times the compress+decode span (graph building and
file I/O stay outside the clock).  Wall times are medians over repeats
to resist scheduler noise; speedups are ratios of medians against the
dense baseline, which is therefore pinned at exactly 1.00.
"""

from __future__ import annotations

import csv
import io
import json
import math
import statistics
import time
from dataclasses import asdict, dataclass

from .compress import CompressConfig, compress
from .decoder import BatchResult, DecoderConfig, decode_batch
from .errors import ValidationError
from .scoring import ScoreReport, score_corpus
from .wfst import Fst


def word_syms(graph: Fst, word_ids) -> list[str]:
    """Output symbols of *word_ids*, or their decimal ids when *graph*
    has no output symbol table."""
    if graph.osyms is not None:
        return [graph.osyms.find_symbol(w) for w in word_ids]
    return [str(w) for w in word_ids]


def _check_refs(utt_ids, refs: dict[str, str]) -> None:
    """Raise :class:`ValidationError` naming the utterances *refs* lacks."""
    missing = [u for u in utt_ids if u not in refs]
    if missing:
        raise ValidationError(
            f"refs have no transcript for {len(missing)} utterance(s): {missing[:5]}")


def score_batch(graph: Fst, batch: BatchResult, refs: dict[str, str],
                unit: str = "word") -> ScoreReport:
    """Score the decoded utterances of *batch* against *refs*, which maps
    utt id to reference text; failed utterances are left out.  Raises
    :class:`ValidationError` naming the batch's utterances *refs* lacks."""
    _check_refs(batch.utt_ids, refs)
    hyps = {u: " ".join(word_syms(graph, r.words)) for u, r in batch.ok()}
    return score_corpus({u: refs[u] for u in hyps}, hyps, unit=unit)


@dataclass(frozen=True)
class BenchRow:
    mode: str
    cer: float
    mean_frames: float
    frame_reduction: float
    speedup: float
    median_ms: float
    failures: int
    substitutions: int
    insertions: int
    deletions: int


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
            {"unit": self.unit, "repeats": self.repeats, "rows": [asdict(r) for r in self.rows]},
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
    Failed utterances are counted per mode and excluded from scoring.
    Refs lacking an utterance are refused before any mode runs."""
    utts = list(utts)
    if not any(m.mode == "dense" for m in modes):
        raise ValidationError("bench requires the dense mode as its baseline")
    if repeats < 1:
        raise ValidationError("repeats must be >= 1")
    _check_refs([u for u, _ in utts], refs)

    measured = []  # per mode: label, cer, mean frames, median seconds, failures, S/I/D
    for mode_cfg in modes:
        samples = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            compressed = [(u, compress(p, mode_cfg)) for u, p in utts]
            batch = decode_batch(graph, compressed, cfg)
            samples.append(time.perf_counter() - t0)

        report = score_batch(graph, batch, refs, unit)
        mean_frames = (
            sum(c.frames for _, c in compressed) / len(compressed) if compressed else 0.0
        )
        measured.append((mode_cfg.label(), report.rate, mean_frames,
                         statistics.median(samples), len(batch.failures), report.breakdown))

    _, _, dense_frames, dense_s, _, _ = next(
        m for m, mode_cfg in zip(measured, modes) if mode_cfg.mode == "dense"
    )
    rows = [
        BenchRow(
            mode=label, cer=cer, mean_frames=frames,
            frame_reduction=dense_frames / frames if frames else float("inf"),
            speedup=dense_s / median_s if median_s > 0 else float("inf"),
            median_ms=median_s * 1000.0, failures=failures, **breakdown,
        )
        for label, cer, frames, median_s, failures, breakdown in measured
    ]
    return BenchReport(rows, unit=unit, repeats=repeats)


@dataclass(frozen=True)
class SweepPoint:
    beam: float
    max_active: int
    cer: float
    mean_wall_ms: float
    speedup_vs_first: float
    max_live_tokens: int
    failures: int


def sweep_params(graph: Fst, utts, refs: dict[str, str], grid,
                 unit: str = "word") -> list[SweepPoint]:
    """Decode the corpus at every config in *grid* and report CER, timing,
    and the live-token peak per point.  *refs* maps utt id to reference
    text; the speedup column is relative to the first grid point."""
    grid = list(grid)
    if not grid:
        raise ValidationError("sweep grid is empty")
    utts = list(utts)
    _check_refs([u for u, _ in utts], refs)
    points: list[SweepPoint] = []
    for cfg in grid:
        batch = decode_batch(graph, utts, cfg)
        report = score_batch(graph, batch, refs, unit)
        mean_ms = batch.wall_time_ms / max(1, len(utts))
        base_ms = points[0].mean_wall_ms if points else mean_ms
        max_live = max((max(r.tokens_alive_histogram, default=0) for _, r in batch.ok()),
                       default=0)
        points.append(SweepPoint(
            beam=cfg.beam, max_active=cfg.max_active,
            cer=report.rate, mean_wall_ms=mean_ms,
            speedup_vs_first=base_ms / mean_ms if mean_ms > 0 else math.inf,
            max_live_tokens=max_live, failures=len(batch.failures),
        ))
    return points
