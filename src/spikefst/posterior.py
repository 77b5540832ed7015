"""Frame-level posterior matrices: softmax, argmax labels, file I/O, synthesis.

A posterior matrix is a T x V row-stochastic matrix: one probability
distribution over the token vocabulary per acoustic frame.  Column 0 is
always the blank token.  A :class:`CompressedPosteriors` is a matrix whose
rows also record the source frame each came from.  All operations here
are pure; matrices are treated as immutable after construction.

This module owns the one posterior file format: version 1 holds a plain
matrix, version 2 a compressed one with its source map and content count,
so a copied file keeps its provenance.  A loader's errors name its file.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError, ValidationError, read_file, write_file

BLANK_ID = 0
# source_map marker for inserted one-hot blank rows
CUSTOM_BLANK = -1

_MAGIC = b"SPKF"
# Refuse headers that would allocate unreasonably large payloads.
_MAX_CELLS = 1 << 28

ROW_SUM_TOL = 1e-4


def check_stochastic(v: np.ndarray) -> None:
    """Raise :class:`ValidationError` unless every entry of the 2-D array
    *v* is finite and in [0, 1] and every row sums to 1 +/- ROW_SUM_TOL."""
    # a NaN fails both comparisons, so only a bad entry leaves the fast path
    if v.size and not (v.min() >= -1e-12 and v.max() <= 1.0 + 1e-12):
        if not np.all(np.isfinite(v)):
            raise ValidationError("posterior matrix contains non-finite values")
        raise ValidationError("posterior entries must lie in [0, 1]")
    if v.shape[0] > 0:
        sums = v.sum(axis=1)
        off = np.abs(sums - 1.0)
        if off.max() > ROW_SUM_TOL:
            bad = np.flatnonzero(off > ROW_SUM_TOL)[0]
            raise ValidationError(
                f"row {bad} sums to {sums[bad]:.6f}, expected 1 +/- {ROW_SUM_TOL}"
            )


@dataclass(frozen=True)
class PosteriorMatrix:
    """T x V matrix of per-frame token probabilities, blank in column 0."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2:
            raise ValidationError(f"posterior matrix must be 2-D, got shape {v.shape}")
        if v.shape[1] < 2:
            raise ValidationError("vocab size must be >= 2 (blank plus one token)")
        check_stochastic(v)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def frames(self) -> int:
        return self.values.shape[0]

    @property
    def vocab_size(self) -> int:
        return self.values.shape[1]


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


def custom_blank(vocab_size: int) -> np.ndarray:
    """The deterministic inserted blank: probability 1 on the blank token."""
    if vocab_size < 2:
        raise ValidationError("vocab_size must be >= 2")
    row = np.zeros(vocab_size, dtype=np.float64)
    row[BLANK_ID] = 1.0
    return row


@dataclass(frozen=True)
class LabelSequence:
    """Blank-free token indices for one utterance."""

    tokens: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "tokens", tuple(int(t) for t in self.tokens))
        for t in self.tokens:
            if t < 1:
                raise ValidationError(f"label token {t} out of range (blank is reserved)")


def softmax(logits: np.ndarray) -> PosteriorMatrix:
    """Row-wise softmax over the vocabulary dimension of a T x V logits matrix."""
    x = np.asarray(logits, dtype=np.float64)
    if x.ndim != 2:
        raise ValidationError(f"logits must be 2-D, got shape {x.shape}")
    if x.shape[1] < 2:
        raise ValidationError("vocab size must be >= 2 (blank plus one token)")
    if not np.all(np.isfinite(x)):
        frame = int(np.flatnonzero(~np.all(np.isfinite(x), axis=1))[0])
        raise ValidationError(f"non-finite logits at frame {frame}")
    shifted = x - x.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return PosteriorMatrix(e / e.sum(axis=1, keepdims=True))


def argmax_labels(p: PosteriorMatrix) -> np.ndarray:
    """Per-frame argmax token index; ties break toward the lowest index."""
    return np.argmax(p.values, axis=1)


# ----------------------------------------------------------------------
# File formats
# ----------------------------------------------------------------------

def save_posteriors(p: PosteriorMatrix, path, format: str = "binary") -> None:
    """Write *p* as magic, version, T and V, then T x V little-endian f32.
    A plain matrix is version 1.  A :class:`CompressedPosteriors` is
    version 2, and its matrix is followed by its u32 ``nonblank_count``
    and its T i32 source frames."""
    if format != "binary":
        raise ValidationError(f"unknown posterior format {format!r}")
    compressed = isinstance(p, CompressedPosteriors)
    header = struct.pack("<4sIII", _MAGIC, 2 if compressed else 1, p.frames, p.vocab_size)
    data = header + np.ascontiguousarray(p.values, dtype="<f4").tobytes()
    if compressed:
        data += struct.pack("<I", p.nonblank_count) + np.asarray(p.source_map, "<i4").tobytes()
    write_file(path, data)


def _checked(where: str, fn, *args):
    """``fn(*args)``, a :class:`ValidationError` re-raised as a :class:`DataFormatError`."""
    try:
        return fn(*args)
    except ValidationError as exc:
        raise DataFormatError(f"{where}: {exc}") from None


def load_posteriors(path) -> PosteriorMatrix:
    """Read a file :func:`save_posteriors` wrote: version 1 as a
    :class:`PosteriorMatrix`, version 2 as a :class:`CompressedPosteriors`.
    A version-2 map must count no more content rows than there are rows,
    hold no frame below ``CUSTOM_BLANK``, strictly increase over its kept
    frames, and mark only rows that hold the inserted blank exactly."""
    raw = read_file(path, binary=True)
    if len(raw) < 16:
        raise DataFormatError(f"{path}: header truncated ({len(raw)} bytes)")
    magic, version, frames, vocab = struct.unpack_from("<4sIII", raw)
    if magic != _MAGIC:
        raise DataFormatError(f"{path}: bad magic {magic!r}, expected {_MAGIC!r}")
    if version not in (1, 2):
        raise DataFormatError(f"{path}: unsupported format version {version}")
    if frames * vocab > _MAX_CELLS:
        raise DataFormatError(f"{path}: dimension overflow ({frames} x {vocab})")
    end = 16 + 4 * frames * vocab
    want = end if version == 1 else end + 4 + 4 * frames
    if len(raw) < want:
        raise DataFormatError(f"{path}: truncated payload ({len(raw)} of {want} bytes)")
    if len(raw) > want:
        raise DataFormatError(f"{path}: {len(raw) - want} trailing bytes after payload")
    values = np.frombuffer(raw, dtype="<f4", count=frames * vocab, offset=16)
    values = values.reshape(frames, vocab).astype(np.float64)
    if version == 1:
        return _checked(path, PosteriorMatrix, values)
    (nonblank,) = struct.unpack_from("<I", raw, end)
    smap = np.frombuffer(raw, dtype="<i4", offset=end + 4)
    if nonblank > frames:
        raise DataFormatError(f"{path}: {nonblank} content rows but only {frames} rows")
    below = np.flatnonzero(smap < CUSTOM_BLANK)
    if below.size:
        raise DataFormatError(
            f"{path}: row {below[0]}: source frame {smap[below[0]]} is below {CUSTOM_BLANK}")
    kept = np.flatnonzero(smap != CUSTOM_BLANK)
    down = np.flatnonzero(np.diff(smap[kept]) <= 0)
    if down.size:
        row, prev = kept[down[0] + 1], kept[down[0]]
        raise DataFormatError(
            f"{path}: row {row}: source frames must strictly increase, "
            f"got {smap[row]} after {smap[prev]}")
    marked = np.flatnonzero(smap == CUSTOM_BLANK)
    wrong = marked[np.any(values[marked] != _checked(path, custom_blank, vocab), axis=1)]
    if wrong.size:
        raise DataFormatError(
            f"{path}: row {wrong[0]}: marked {CUSTOM_BLANK} but its values are not the "
            "inserted blank")
    return _checked(path, CompressedPosteriors, values, smap.tolist(), nonblank)


def load_labels(path, token_table=None) -> list[LabelSequence]:
    """One utterance per line: space-separated symbols resolved against
    *token_table* (graph ids are shifted down by one to posterior column
    indices), or token indices.  A symbol of the table wins over the
    integer it spells."""
    out = []
    for ln, line in enumerate(read_file(path).splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        toks = []
        for part in line.split():
            if token_table is not None and part in token_table:
                toks.append(token_table.find_id(part) - 1)
                continue
            try:
                toks.append(int(part))
            except ValueError:
                if token_table is not None:
                    raise DataFormatError(f"{path}: line {ln}: unknown token {part!r}") from None
                raise DataFormatError(
                    f"{path}: line {ln}: token {part!r} is not an integer "
                    "(symbols need a token table)") from None
        out.append(_checked(f"{path}: line {ln}", LabelSequence, toks))
    return out


# ----------------------------------------------------------------------
# Synthetic generation
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SynthConfig:
    """Knobs for the synthetic spike generator.

    Generated matrices mimic the spiky structure of CTC outputs: long
    blank-dominated runs punctuated by short single-token spikes.  Each
    frame puts ``peak`` (minus a uniform jitter of up to ``noise``) on its
    run's token and spreads the remainder uniformly over the other tokens.
    """

    vocab_size: int
    spike_len: tuple[int, int] = (1, 2)
    blank_run: tuple[int, int] = (3, 8)
    peak: float = 0.95
    noise: float = 0.0

    def __post_init__(self):
        if self.vocab_size < 2:
            raise ValidationError("vocab_size must be >= 2")
        if not (0.5 < self.peak <= 1.0):
            raise ValidationError("peak probability must be in (0.5, 1]")
        if self.noise < 0 or self.peak - self.noise <= 1.0 / self.vocab_size:
            raise ValidationError(
                "peak - noise must exceed 1/vocab_size or the argmax is not guaranteed"
            )
        for lo, hi in (self.spike_len, self.blank_run):
            if lo < 0 or hi < lo:
                raise ValidationError("length ranges must satisfy 0 <= lo <= hi")
        if self.spike_len[0] < 1:
            raise ValidationError("spike length must be >= 1")


def synth_posteriors(labels: LabelSequence, cfg: SynthConfig, seed: int) -> PosteriorMatrix:
    """Build a spiky posterior matrix whose argmax sequence collapses to *labels*.

    Layout: blank run, then for each label a spike run followed by a blank
    run (the run after the last label is the trailing silence).  A blank
    run between identical adjacent labels is forced to length >= 1 so the
    collapse stays exact.  Deterministic for a fixed seed.
    """
    rng = np.random.default_rng(seed)
    V = cfg.vocab_size
    for t in labels.tokens:
        if not (1 <= t < V):
            raise ValidationError(f"label token {t} outside vocabulary [1, {V})")

    def blank_len(force_min1: bool) -> int:
        n = int(rng.integers(cfg.blank_run[0], cfg.blank_run[1] + 1))
        return max(n, 1) if force_min1 else n

    runs: list[tuple[int, int]] = [(BLANK_ID, blank_len(False))]
    prev = None
    for tok in labels.tokens:
        if prev is not None:
            runs.append((BLANK_ID, blank_len(tok == prev)))
        runs.append((tok, int(rng.integers(cfg.spike_len[0], cfg.spike_len[1] + 1))))
        prev = tok
    runs.append((BLANK_ID, blank_len(False)))

    frame_tok = np.concatenate(
        [np.full(n, tok, dtype=np.int64) for tok, n in runs if n > 0]
    ) if any(n > 0 for _, n in runs) else np.empty(0, dtype=np.int64)
    T = frame_tok.shape[0]
    peaks = np.full(T, cfg.peak)
    if cfg.noise > 0:
        peaks -= rng.uniform(0.0, cfg.noise, size=T)
    values = np.repeat(((1.0 - peaks) / (V - 1))[:, None], V, axis=1)
    values[np.arange(T), frame_tok] = peaks
    return PosteriorMatrix(values)
