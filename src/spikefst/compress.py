"""Posterior-sequence compression for fast WFST decoding.

The decoder's cost is linear in the number of frames it consumes.  CTC
posteriors are dominated by blank frames that carry position, not
content, so the transforms here shrink the frame sequence before it
reaches the search:

* ``ioo``: replace every maximal blank run with a single deterministic
  one-hot blank row.
* ``ioo_koo``: additionally keep one representative frame per non-blank
  run (max- or min-probability).
* ``ioo_nb``: ``ioo``, with every non-blank frame rewritten to a
  one-hot row, optionally gated by a peak-probability threshold.
* ``aed_ioo``: interleave a one-hot blank row around every row of a
  per-emission matrix that has no native blanks.
* ``discard`` / ``average`` / ``lsd`` / ``swd``: reference heuristics
  from prior systems, kept for benchmarking.

Every mode is a choice of rows, and ``compress(p, cfg)`` is the one way
to make it.  It takes the argmax labels once and looks ``cfg.mode`` up
in one table of row choosers.  A chooser picks source-frame indices:
``dense`` all of them; the CTC modes runs from ``segment_blocks`` (a
blank run carries only position, so it becomes one inserted blank; a
non-blank run carries the content, so ``koo_select`` can keep one frame
of it).  ``ioo_koo`` is one row per run: ``koo_select`` picks a frame
of every run, a blank run's pick becomes an inserted blank, and a
leading blank run is the leading inserted blank, so M <= 2K+1 still
holds for K content rows.  ``compress`` then gathers the rows through
``posterior.select_rows``, which builds the ``CompressedPosteriors``.
Index ``CUSTOM_BLANK`` reads the inserted blank row, so the index array
is also the source map: every output row records its source frame and
time alignments survive compression.  ``nonblank_count`` has one
rule: the kept source frames whose argmax is not blank, or every input
row for ``aed_ioo``, whose input has no native blank.  All transforms
are pure and deterministic, and none reads or writes a file:
``save_posteriors`` writes a compressed matrix and its source map as one
file.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, integer
from .posterior import (
    BLANK_ID,
    CUSTOM_BLANK,
    CompressedPosteriors,
    PosteriorMatrix,
    argmax_labels,
    select_rows,
)


@dataclass(frozen=True)
class CompressConfig:
    mode: str = "dense"
    koo_strategy: str = "max"
    nb_threshold: float | None = None
    lsd_threshold: float = 0.99
    swd_window: int = 1

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValidationError(f"unknown compression mode {self.mode!r}")
        if self.koo_strategy not in ("max", "min"):
            raise ValidationError(f"koo_strategy must be 'max' or 'min', got {self.koo_strategy!r}")
        if self.nb_threshold is not None and not (0.0 <= self.nb_threshold <= 1.0):
            raise ValidationError("nb_threshold must lie in [0, 1]")
        if not (0.0 <= self.lsd_threshold <= 1.0):
            raise ValidationError("lsd_threshold must lie in [0, 1]")
        object.__setattr__(self, "swd_window", integer(self.swd_window, "swd_window"))
        if self.swd_window < 0:
            raise ValidationError("swd_window must be >= 0")

    def label(self) -> str:
        """Short human-readable mode tag for reports."""
        if self.mode == "ioo_koo":
            return f"ioo_koo/{self.koo_strategy}"
        if self.mode == "ioo_nb" and self.nb_threshold is not None:
            return f"ioo_nb@{self.nb_threshold:g}"
        if self.mode == "lsd":
            return f"lsd@{self.lsd_threshold:g}"
        if self.mode == "swd":
            return f"swd/{self.swd_window}"
        return self.mode


def segment_blocks(labels: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split a frame-label sequence into maximal same-label runs, blanks
    included, as ``(tokens, starts, ends)`` arrays with ``ends`` exclusive.

    Runs are built on the full sequence: dropping blank frames first could
    fuse two non-adjacent runs of the same token into one.
    """
    labels = np.asarray(labels)
    edge = np.empty(labels.shape[0] + 1, dtype=bool)  # edge[t]: a run starts or ends at t
    edge[0] = edge[-1] = True  # the same entry when there are no frames
    np.not_equal(labels[1:], labels[:-1], out=edge[1:-1])
    bounds = np.flatnonzero(edge)
    return labels[bounds[:-1]], bounds[:-1], bounds[1:]


def koo_select(p: PosteriorMatrix, tokens, starts, ends, strategy: str = "max") -> np.ndarray:
    """Representative frame of each run ``[starts[i], ends[i])``: its max-
    (or min-) probability frame for the run's token ``tokens[i]``; ties go
    to the earliest frame.  The runs must tile *p*'s frames ``[0, T)`` in
    order, as ``segment_blocks`` returns them, or :class:`ValidationError`
    is raised."""
    if strategy == "max":
        extreme = np.maximum
    elif strategy == "min":
        extreme = np.minimum
    else:
        raise ValidationError(f"unknown strategy {strategy!r}")
    starts, ends = np.asarray(starts), np.asarray(ends)
    n, frames = starts.size, p.frames
    if not (len(tokens) == n == ends.size
            and (starts[0] == 0 and ends[-1] == frames if n else frames == 0)
            and (starts[1:] == ends[:-1]).all() and (ends > starts).all()):
        raise ValidationError(f"runs do not tile frames [0, {frames}) in order")
    lengths = ends - starts
    probs = p.values[np.arange(frames), np.repeat(tokens, lengths)]
    hits = np.flatnonzero(probs == np.repeat(extreme.reduceat(probs, starts), lengths))
    # every run holds a hit, so its first hit is the first at or after its start
    return hits[np.searchsorted(hits, starts)]


def _ctc_rows(p: PosteriorMatrix, labels: np.ndarray, cfg: CompressConfig):
    """Blank-run compression of a CTC posterior matrix (``ioo``,
    ``ioo_koo``, ``ioo_nb``).

    The output always opens with one custom blank row; a leading blank
    run in the input is that row, and an input that opens with a content
    run gets one inserted before it.  Every later maximal blank run
    becomes one custom blank row.  Content runs emit, per ``cfg.mode``:

    * ``ioo``: every frame verbatim;
    * ``ioo_koo``: only the ``koo_select`` representative, so the output
      is one row per run of the input, plus the leading blank when the
      input opens with content;
    * ``ioo_nb``: every frame, rewritten to a one-hot of its argmax when
      its peak probability passes ``nb_threshold`` (always, when the
      threshold is unset).

    So the output length M obeys M <= 2K+1, where K is the number of
    content rows emitted: every blank row but the first follows a
    content row.
    """
    tokens, starts, ends = segment_blocks(labels)
    if cfg.mode == "ioo_koo":  # one row per run
        rows = koo_select(p, tokens, starts, ends, cfg.koo_strategy)
        rows[tokens == BLANK_ID] = CUSTOM_BLANK
    else:
        keep = labels != BLANK_ID
        keep[starts[tokens == BLANK_ID]] = True  # one head per blank run
        rows = np.flatnonzero(keep)
        rows[labels[rows] == BLANK_ID] = CUSTOM_BLANK
    if tokens.size == 0 or tokens[0] != BLANK_ID:
        rows = np.concatenate(([CUSTOM_BLANK], rows))
    if cfg.mode != "ioo_nb":
        return rows, p
    hot = labels != BLANK_ID
    if cfg.nb_threshold is not None:
        hot &= p.values.max(axis=1) >= cfg.nb_threshold
    values = p.values.copy()
    values[hot] = np.eye(p.vocab_size)[labels[hot]]
    return rows, PosteriorMatrix(values)


def _aed_rows(p: PosteriorMatrix, labels: np.ndarray, cfg: CompressConfig):
    """[blank, row 0, blank, row 1, ..., row T-1, blank]: exactly 2T+1
    rows.  Gives attention-decoder outputs, which have no native blank,
    the temporal separation the graph search relies on."""
    rows = np.full(2 * p.frames + 1, CUSTOM_BLANK)
    rows[1::2] = np.arange(p.frames)
    return rows, p


def _average_rows(p: PosteriorMatrix, labels: np.ndarray, cfg: CompressConfig):
    """Each maximal blank run becomes the elementwise mean of its rows."""
    tokens, starts, ends = segment_blocks(labels)
    blank = tokens == BLANK_ID
    keep = labels != BLANK_ID
    keep[starts[blank]] = True  # a blank run is represented by its first frame
    values = p.values.copy()
    for s, e in zip(starts[blank], ends[blank]):
        values[s] = p.values[s:e].mean(axis=0)
    return np.flatnonzero(keep), PosteriorMatrix(values)


def _swd_rows(p: PosteriorMatrix, labels: np.ndarray, cfg: CompressConfig):
    """Frames within ``swd_window`` of any non-blank-argmax frame, in
    their original order."""
    keep = np.zeros(p.frames, dtype=bool)
    for t in np.flatnonzero(labels != BLANK_ID):
        keep[max(0, t - cfg.swd_window):t + cfg.swd_window + 1] = True
    return np.flatnonzero(keep), p


# mode -> chooser(p, labels, cfg) -> (rows, matrix): the source frame of
# every output row, CUSTOM_BLANK for an inserted blank, and the matrix
# the frames index: *p* itself, or for ``ioo_nb`` and ``average`` a
# PosteriorMatrix of *p* with the chooser's rows rewritten.
_CHOOSERS = {
    "dense": lambda p, labels, cfg: (np.arange(p.frames), p),
    "ioo": _ctc_rows,
    "ioo_koo": _ctc_rows,
    "ioo_nb": _ctc_rows,
    "discard": lambda p, labels, cfg: (np.flatnonzero(labels != BLANK_ID), p),
    "average": _average_rows,
    "lsd": lambda p, labels, cfg: (
        np.flatnonzero(p.values[:, BLANK_ID] < cfg.lsd_threshold), p),
    "swd": _swd_rows,
    "aed_ioo": _aed_rows,
}
MODES = tuple(_CHOOSERS)


def compress(p: PosteriorMatrix, cfg: CompressConfig) -> CompressedPosteriors:
    """Compress *p* with ``cfg.mode``: choose its rows, then gather them
    with ``select_rows``.  Row ``CUSTOM_BLANK`` reads the custom blank, so
    the chosen rows are also the source map."""
    labels = argmax_labels(p)
    rows, matrix = _CHOOSERS[cfg.mode](p, labels, cfg)
    if cfg.mode == "aed_ioo":  # no native blank, so every input row is content
        nonblank = p.frames
    else:  # row CUSTOM_BLANK reads the appended blank label
        nonblank = int(np.count_nonzero(np.append(labels, BLANK_ID)[rows] != BLANK_ID))
    return select_rows(matrix, rows, nonblank)

