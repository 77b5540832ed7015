"""Posterior-sequence compression for fast WFST decoding.

The decoder's cost is linear in the number of frames it consumes.  CTC
posteriors are dominated by blank frames that carry position, not
content, so the transforms here shrink the frame sequence before it
reaches the search:

* ``ioo``: replace every maximal blank run with a single deterministic
  one-hot blank row.
* ``ioo_koo``: additionally keep one representative frame per non-blank
  run (max- or min-probability).
* ``ioo_nb``: rewrite non-blank frames to one-hot rows, optionally gated
  by a peak-probability threshold (``nb_onehot`` ``all`` keeps every
  frame of a run, ``max`` only its max-probability frame).
* ``aed_ioo``: interleave a one-hot blank row around every row of a
  per-emission matrix that has no native blanks.
* ``discard`` / ``average`` / ``lsd`` / ``swd``: reference heuristics
  from prior systems, kept for benchmarking.

Every mode is a choice of rows.  ``segment_blocks`` splits the frame
axis into maximal same-argmax runs in one pass; a mode picks frame
indices from those runs (a blank run carries only position, so it
becomes one inserted blank; a non-blank run carries the content, so
``koo_select`` can keep one frame of it) and gathers them in one step.
Index ``CUSTOM_BLANK`` reads the inserted blank row, so the index array
is also the source map: every output row records its source frame and
time alignments survive compression.  All transforms are pure and
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataFormatError, ValidationError, read_file, write_file
from .posterior import (
    BLANK_ID,
    PosteriorMatrix,
    argmax_labels,
    load_posteriors,
    save_posteriors,
)

# source_map marker for inserted one-hot blank rows
CUSTOM_BLANK = -1

MODES = ("dense", "ioo", "ioo_koo", "ioo_nb", "discard", "average", "lsd", "swd", "aed_ioo")
_CTC_MODES = ("ioo", "ioo_koo", "ioo_nb")


@dataclass(frozen=True)
class CompressedPosteriors(PosteriorMatrix):
    """A compressed frame sequence: a :class:`PosteriorMatrix` whose rows
    (kept frames and inserted one-hot blanks) carry their provenance.

    ``source_map[i]`` is the input frame the i-th row came from, or
    ``CUSTOM_BLANK`` for an inserted blank row.  ``nonblank_count``
    counts the kept source frames whose argmax is not blank, or every
    input row for ``aed_ioo``, whose input has no native blank.
    """

    source_map: tuple[int, ...]
    nonblank_count: int

    def __post_init__(self):
        super().__post_init__()
        if len(self.source_map) != self.frames:
            raise ValidationError("source_map length must match row count")
        object.__setattr__(self, "source_map", tuple(map(int, self.source_map)))


@dataclass(frozen=True)
class CompressConfig:
    mode: str = "dense"
    koo_strategy: str = "max"
    blanks_per_region: int = 1
    nb_onehot: str = "all"  # all | max
    nb_threshold: float | None = None
    lsd_threshold: float = 0.99
    swd_window: int = 1

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValidationError(f"unknown compression mode {self.mode!r}")
        if self.koo_strategy not in ("max", "min"):
            raise ValidationError(f"koo_strategy must be 'max' or 'min', got {self.koo_strategy!r}")
        if self.blanks_per_region not in (1, 2):
            raise ValidationError("blanks_per_region must be 1 or 2")
        if self.nb_onehot not in ("all", "max"):
            raise ValidationError(f"nb_onehot must be all|max, got {self.nb_onehot!r}")
        if self.nb_threshold is not None and not (0.0 <= self.nb_threshold <= 1.0):
            raise ValidationError("nb_threshold must lie in [0, 1]")
        if not (0.0 <= self.lsd_threshold <= 1.0):
            raise ValidationError("lsd_threshold must lie in [0, 1]")
        if self.swd_window < 0:
            raise ValidationError("swd_window must be >= 0")

    def label(self) -> str:
        """Short human-readable mode tag for reports."""
        if self.mode == "ioo_koo":
            return f"ioo_koo/{self.koo_strategy}"
        if self.mode == "ioo_nb":
            tag = f"ioo_nb/{self.nb_onehot}"
            return tag if self.nb_threshold is None else f"{tag}@{self.nb_threshold:g}"
        if self.mode == "lsd":
            return f"lsd@{self.lsd_threshold:g}"
        if self.mode == "swd":
            return f"swd/{self.swd_window}"
        return self.mode


def custom_blank(vocab_size: int) -> np.ndarray:
    """The deterministic inserted blank: probability 1 on the blank token."""
    if vocab_size < 2:
        raise ValidationError("vocab_size must be >= 2")
    row = np.zeros(vocab_size, dtype=np.float64)
    row[BLANK_ID] = 1.0
    return row


def segment_blocks(labels: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split a frame-label sequence into maximal same-label runs, blanks
    included, as ``(tokens, starts, ends)`` arrays with ``ends`` exclusive.

    Runs are built on the full sequence: dropping blank frames first could
    fuse two non-adjacent runs of the same token into one.
    """
    labels = np.asarray(labels)
    if labels.shape[0] == 0:
        none = np.empty(0, np.intp)
        return labels[none], none, none
    inner = np.flatnonzero(labels[1:] != labels[:-1]) + 1  # every start but the first
    starts = np.concatenate(([0], inner))
    return labels[starts], starts, np.concatenate((inner, [labels.shape[0]]))


def koo_select(p: PosteriorMatrix, tokens, starts, ends, strategy: str = "max") -> np.ndarray:
    """Representative frame of each run ``[starts[i], ends[i])``: its max-
    (or min-) probability frame for the run's token ``tokens[i]``; ties go
    to the earliest frame."""
    if strategy == "max":
        extreme = np.maximum
    elif strategy == "min":
        extreme = np.minimum
    else:
        raise ValidationError(f"unknown strategy {strategy!r}")
    lengths = np.asarray(ends) - starts
    offsets = np.cumsum(lengths) - lengths  # each run's first slot in the flat layout
    frames = np.arange(lengths.sum()) + np.repeat(starts - offsets, lengths)
    probs = p.values[frames, np.repeat(tokens, lengths)]
    hits = np.flatnonzero(probs == np.repeat(extreme.reduceat(probs, offsets), lengths))
    # every run holds a hit, so its first hit is the first at or after its offset
    return frames[hits[np.searchsorted(hits, offsets)]]


def _take(values: np.ndarray, rows: np.ndarray, nonblank: int) -> CompressedPosteriors:
    """Gather *rows* of *values* in one step.  Row ``CUSTOM_BLANK`` (-1)
    reads the custom blank, so *rows* is also the source map."""
    blank = custom_blank(values.shape[1])
    if values.shape[0]:
        out = values.take(rows, axis=0, mode="clip")  # clip reads row 0 for CUSTOM_BLANK
    else:  # no frames, so every row is an inserted blank
        out = np.empty((rows.size, blank.size))
    out[rows == CUSTOM_BLANK] = blank
    return CompressedPosteriors(out, rows.tolist(), nonblank)


def compress_ctc(p: PosteriorMatrix, cfg: CompressConfig) -> CompressedPosteriors:
    """Blank-run compression of a CTC posterior matrix.

    The output always opens with ``blanks_per_region`` custom blank rows;
    a leading blank run in the input is absorbed by them.  Every later
    maximal blank run becomes ``blanks_per_region`` custom blank rows.
    Non-blank runs emit, per ``cfg.mode``:

    * ``ioo``: every frame verbatim;
    * ``ioo_koo``: only the ``koo_select`` representative;
    * ``ioo_nb``: with ``nb_onehot='all'`` every frame, rewritten to a
      one-hot of its argmax when its peak probability passes
      ``nb_threshold`` (always, when the threshold is unset); with
      ``'max'``, only the max-probability representative, same rewrite rule.

    With ``blanks_per_region=1`` the output length M obeys M <= 2K+1,
    where K is the number of content rows emitted.
    """
    if cfg.mode not in _CTC_MODES:
        raise ValidationError(f"compress_ctc expects mode in {_CTC_MODES}, got {cfg.mode!r}")
    labels = argmax_labels(p)
    tokens, starts, ends = segment_blocks(labels)
    content = tokens != BLANK_ID
    if cfg.mode == "ioo" or (cfg.mode == "ioo_nb" and cfg.nb_onehot == "all"):
        keep = labels != BLANK_ID
    else:
        strategy = cfg.koo_strategy if cfg.mode == "ioo_koo" else "max"
        keep = np.zeros(p.frames, dtype=bool)
        keep[koo_select(p, tokens[content], starts[content], ends[content], strategy)] = True
    nonblank = int(np.count_nonzero(keep))
    keep[starts[~content & (starts > 0)]] = True  # one head per later blank run
    frames = np.flatnonzero(keep)
    rows = np.concatenate(([CUSTOM_BLANK], np.where(labels[frames] == BLANK_ID, CUSTOM_BLANK, frames)))
    if cfg.blanks_per_region > 1:
        rows = np.repeat(rows, np.where(rows == CUSTOM_BLANK, cfg.blanks_per_region, 1))
    values = p.values
    if cfg.mode == "ioo_nb":
        hot = labels != BLANK_ID
        if cfg.nb_threshold is not None:
            hot &= values.max(axis=1) >= cfg.nb_threshold
        values = values.copy()
        values[hot] = np.eye(p.vocab_size)[labels[hot]]
    return _take(values, rows, nonblank)


def compress_aed(p: PosteriorMatrix) -> CompressedPosteriors:
    """Interleave custom blanks around every row of a per-emission matrix.

    Output is [blank, row 0, blank, row 1, ..., row T-1, blank]: exactly
    2T+1 rows.  Gives attention-decoder outputs, which have no native
    blank, the temporal separation the graph search relies on.
    """
    rows = np.full(2 * p.frames + 1, CUSTOM_BLANK)
    rows[1::2] = np.arange(p.frames)
    return _take(p.values, rows, p.frames)


def baseline_discard(p: PosteriorMatrix) -> CompressedPosteriors:
    """Keep only frames whose argmax is non-blank."""
    keep = np.flatnonzero(argmax_labels(p) != BLANK_ID)
    return _take(p.values, keep, keep.size)


def baseline_average(p: PosteriorMatrix) -> CompressedPosteriors:
    """Replace each maximal blank run with the elementwise mean of its rows."""
    labels = argmax_labels(p)
    tokens, starts, ends = segment_blocks(labels)
    blank = tokens == BLANK_ID
    keep = labels != BLANK_ID
    keep[starts[blank]] = True  # a blank run is represented by its first frame
    values = p.values.copy()
    for s, e in zip(starts[blank], ends[blank]):
        values[s] = p.values[s:e].mean(axis=0)
    return _take(values, np.flatnonzero(keep), int(np.count_nonzero(labels != BLANK_ID)))


def baseline_lsd(p: PosteriorMatrix, threshold: float) -> CompressedPosteriors:
    """Drop every frame whose blank posterior reaches *threshold*."""
    if not (0.0 <= threshold <= 1.0):
        raise ValidationError("lsd threshold must lie in [0, 1]")
    keep = np.flatnonzero(p.values[:, BLANK_ID] < threshold)
    nonblank = int(np.count_nonzero(argmax_labels(p)[keep] != BLANK_ID))
    return _take(p.values, keep, nonblank)


def baseline_swd(p: PosteriorMatrix, window: int) -> CompressedPosteriors:
    """Keep frames within *window* of any non-blank-argmax frame.

    The union of [t-window, t+window] intervals, clipped to the frame
    range and deduplicated; original temporal order is preserved.
    """
    if window < 0:
        raise ValidationError("swd window must be >= 0")
    labels = argmax_labels(p)
    keep_mask = np.zeros(p.frames, dtype=bool)
    for t in np.flatnonzero(labels != BLANK_ID):
        keep_mask[max(0, t - window):min(p.frames, t + window + 1)] = True
    keep = np.flatnonzero(keep_mask)
    return _take(p.values, keep, int(np.count_nonzero(labels[keep] != BLANK_ID)))


def compress(p: PosteriorMatrix, cfg: CompressConfig) -> CompressedPosteriors:
    """Apply the transform selected by ``cfg.mode``."""
    if cfg.mode == "dense":
        labels = argmax_labels(p) if p.frames else np.empty(0, np.int64)
        return CompressedPosteriors(
            p.values, tuple(range(p.frames)), int(np.count_nonzero(labels != BLANK_ID))
        )
    if cfg.mode in _CTC_MODES:
        return compress_ctc(p, cfg)
    if cfg.mode == "aed_ioo":
        return compress_aed(p)
    if cfg.mode == "discard":
        return baseline_discard(p)
    if cfg.mode == "average":
        return baseline_average(p)
    if cfg.mode == "lsd":
        return baseline_lsd(p, cfg.lsd_threshold)
    if cfg.mode == "swd":
        return baseline_swd(p, cfg.swd_window)
    raise ValidationError(f"unknown compression mode {cfg.mode!r}")


def save_source_map(c: CompressedPosteriors, path) -> None:
    """Sidecar text file: a '# nonblank N' line with ``nonblank_count``,
    then one line per output row, frame index or 'B'."""
    lines = [f"# nonblank {c.nonblank_count}"]
    lines += ["B" if s == CUSTOM_BLANK else str(s) for s in c.source_map]
    write_file(path, "\n".join(lines) + "\n")


def load_source_map(path) -> tuple[tuple[int, ...], int, list[int]]:
    """Read a sidecar.  Returns the source map, ``nonblank_count`` and
    the line number of each row.  Frame indices must strictly
    increase."""
    rows = read_file(path).splitlines() or [""]
    head = rows[0].split()
    if len(head) != 3 or head[:2] != ["#", "nonblank"] or not head[2].isdigit():
        raise DataFormatError(
            f"{path}: line 1: expected '# nonblank N' as the first line, got {rows[0]!r}")
    nonblank = int(head[2])
    out, lines, last = [], [], -1
    for no, line in enumerate(rows[1:], 2):
        line = line.strip()
        if not line:
            continue
        if line == "B":
            out.append(CUSTOM_BLANK)
        elif not line.isdecimal():  # a sign, so a negative frame, fails too
            raise DataFormatError(
                f"{path}: line {no}: expected a frame index or 'B', got {line!r}")
        elif int(line) <= last:
            raise DataFormatError(
                f"{path}: line {no}: frame indices must strictly increase, got {line} after {last}")
        else:
            last = int(line)
            out.append(last)
        lines.append(no)
    if nonblank > len(out):
        raise DataFormatError(f"{path}: {nonblank} content rows but only {len(out)} rows")
    return tuple(out), nonblank, lines


def save_compressed(c: CompressedPosteriors, path) -> None:
    """Write the frame matrix in the standard binary posterior format plus
    a '<path>.map' provenance sidecar.  An old sidecar is removed first, so
    a failed write never leaves the new matrix beside the old map."""
    sidecar = Path(f"{path}.map")
    try:
        sidecar.unlink(missing_ok=True)
    except OSError as exc:
        raise DataFormatError(f"{sidecar}: cannot remove: {exc.strerror or exc}") from None
    save_posteriors(c, path, "binary")
    save_source_map(c, sidecar)


def load_compressed(path):
    """Load a compressed corpus file; without its sidecar the provenance is
    gone and a plain :class:`PosteriorMatrix` is returned instead.  A row
    the sidecar marks 'B' must hold the inserted blank exactly."""
    path = Path(path)
    mat = load_posteriors(path, "binary")
    sidecar = Path(str(path) + ".map")
    if not sidecar.exists():
        return mat
    smap, nonblank, lines = load_source_map(sidecar)
    if len(smap) != mat.frames:
        raise DataFormatError(f"{sidecar}: {len(smap)} rows but {path} has {mat.frames}")
    marked = np.flatnonzero(np.asarray(smap, dtype=np.int64) == CUSTOM_BLANK)
    wrong = marked[np.any(mat.values[marked] != custom_blank(mat.vocab_size), axis=1)]
    if wrong.size:
        raise DataFormatError(
            f"{sidecar}: line {lines[wrong[0]]}: row {wrong[0]} is marked 'B' but its "
            "values are not the inserted blank")
    return CompressedPosteriors(mat.values, smap, nonblank)
