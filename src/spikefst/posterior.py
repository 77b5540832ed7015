"""Frame-level posterior matrices: softmax, argmax labels, file I/O, synthesis.

A posterior matrix is a T x V row-stochastic matrix: one probability
distribution over the token vocabulary per acoustic frame.  Column 0 is
always the blank token.  All operations here are pure; matrices are
treated as immutable after construction.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError, ValidationError, read_file, write_file

BLANK_ID = 0

_MAGIC = b"SPKF"
_VERSION = 1
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
class LabelSequence:
    """Blank-free token indices for one utterance, optionally with reference text."""

    tokens: tuple[int, ...]
    text: str | None = None

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
    if not np.all(np.isfinite(x)):
        frame = int(np.flatnonzero(~np.all(np.isfinite(x), axis=1))[0])
        raise ValidationError(f"non-finite logits at frame {frame}")
    if x.shape[0] == 0:
        return PosteriorMatrix(x)
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
    """Write *p* as magic, version, T and V, then T x V little-endian f32."""
    if format != "binary":
        raise ValidationError(f"unknown posterior format {format!r}")
    header = struct.pack("<4sIII", _MAGIC, _VERSION, p.frames, p.vocab_size)
    write_file(path, header + np.ascontiguousarray(p.values, dtype="<f4").tobytes())


def load_posteriors(path, format: str = "binary") -> PosteriorMatrix:
    if format != "binary":
        raise ValidationError(f"unknown posterior format {format!r}")
    raw = read_file(path, binary=True)
    if len(raw) < 16:
        raise DataFormatError(f"{path}: header truncated ({len(raw)} bytes)")
    magic, version, frames, vocab = struct.unpack_from("<4sIII", raw)
    if magic != _MAGIC:
        raise DataFormatError(f"{path}: bad magic {magic!r}, expected {_MAGIC!r}")
    if version != _VERSION:
        raise DataFormatError(f"{path}: unsupported format version {version}")
    if frames * vocab > _MAX_CELLS:
        raise DataFormatError(f"{path}: dimension overflow ({frames} x {vocab})")
    want = 16 + 4 * frames * vocab
    if len(raw) < want:
        raise DataFormatError(f"{path}: truncated payload ({len(raw)} of {want} bytes)")
    if len(raw) > want:
        raise DataFormatError(f"{path}: {len(raw) - want} trailing bytes after payload")
    values = np.frombuffer(raw, dtype="<f4", offset=16).reshape(frames, vocab)
    return PosteriorMatrix(values.astype(np.float64))


def load_labels(path, token_table=None) -> list[LabelSequence]:
    """One utterance per line: space-separated token indices, or symbols
    resolved against *token_table* (graph ids are shifted down by one to
    posterior column indices)."""
    out = []
    for ln, line in enumerate(read_file(path).splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        toks = []
        for part in line.split():
            if token_table is not None and not part.lstrip("-").isdigit():
                if part not in token_table:
                    raise DataFormatError(f"{path}: line {ln}: unknown token {part!r}")
                toks.append(token_table.find_id(part) - 1)
            else:
                try:
                    toks.append(int(part))
                except ValueError:
                    raise DataFormatError(
                        f"{path}: line {ln}: token {part!r} is not an integer "
                        "(symbols need a token table)") from None
        out.append(LabelSequence(tuple(toks)))
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
