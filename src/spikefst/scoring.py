"""Levenshtein scoring: per-utterance edit counts and pooled corpus rates."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DataFormatError, ValidationError, read_file


@dataclass(frozen=True)
class EditCounts:
    distance: int
    substitutions: int
    insertions: int
    deletions: int
    ref_len: int


def levenshtein(ref, hyp) -> tuple[int, int, int, int]:
    """Minimal unit-cost edit distance from *ref* to *hyp*.

    Returns (distance, substitutions, insertions, deletions) with
    sub + ins + del == distance.  Insertions are hypothesis tokens with
    no reference counterpart; deletions are dropped reference tokens.
    """
    ref = list(ref)
    hyp = list(hyp)
    n, m = len(ref), len(hyp)
    # One row at a time; each cell carries (distance, sub, ins, del).
    prev = [(j, 0, j, 0) for j in range(m + 1)]
    for i in range(1, n + 1):
        cur = [(i, 0, 0, i)]
        for j in range(1, m + 1):
            if ref[i - 1] == hyp[j - 1]:
                d, s, ins, dele = prev[j - 1]
                cur.append((d, s, ins, dele))
                continue
            sub_d, sub_s, sub_i, sub_dl = prev[j - 1]
            del_d, del_s, del_i, del_dl = prev[j]
            ins_d, ins_s, ins_i, ins_dl = cur[j - 1]
            best = min(sub_d, del_d, ins_d)
            if sub_d == best:
                cur.append((sub_d + 1, sub_s + 1, sub_i, sub_dl))
            elif del_d == best:
                cur.append((del_d + 1, del_s, del_i, del_dl + 1))
            else:
                cur.append((ins_d + 1, ins_s, ins_i + 1, ins_dl))
        prev = cur
    d, s, ins, dele = prev[m]
    assert s + ins + dele == d
    return d, s, ins, dele


@dataclass(frozen=True)
class ScoreReport:
    """Corpus rate is pooled: total edits over total reference length, not
    the mean of per-utterance rates."""

    per_utt: dict[str, EditCounts]
    unit: str

    @property
    def total_edits(self) -> int:
        return sum(c.distance for c in self.per_utt.values())

    @property
    def total_ref_len(self) -> int:
        return sum(c.ref_len for c in self.per_utt.values())

    @property
    def breakdown(self) -> dict[str, int]:
        """Corpus totals of substitutions, insertions and deletions."""
        counts = self.per_utt.values()
        return {"substitutions": sum(c.substitutions for c in counts),
                "insertions": sum(c.insertions for c in counts),
                "deletions": sum(c.deletions for c in counts)}

    @property
    def rate(self) -> float:
        denom = self.total_ref_len
        return self.total_edits / denom if denom else 0.0

    @property
    def percent(self) -> float:
        return 100.0 * self.rate


def _tokenize(text: str, unit: str) -> list[str]:
    if unit == "word":
        return text.split()
    if unit == "char":
        return [c for c in text if not c.isspace()]
    raise ValidationError(f"scoring unit must be 'word' or 'char', got {unit!r}")


def score_corpus(refs: dict[str, str], hyps: dict[str, str], unit: str = "word") -> ScoreReport:
    """Score hypothesis texts against references keyed by utterance id."""
    if set(refs) != set(hyps):
        missing = sorted(set(refs) ^ set(hyps))
        raise ValidationError(f"utterance id mismatch between refs and hyps: {missing[:5]}")
    per_utt = {}
    for utt in sorted(refs):
        r = _tokenize(refs[utt], unit)
        h = _tokenize(hyps[utt], unit)
        d, s, ins, dele = levenshtein(r, h)
        per_utt[utt] = EditCounts(d, s, ins, dele, len(r))
    return ScoreReport(per_utt, unit)


def read_trans_file(path) -> dict[str, str]:
    """Read "utt_id<TAB>tokenized text" lines (also tolerates space-split).
    An utterance id may appear on one line only."""
    out: dict[str, str] = {}
    for ln, line in enumerate(read_file(path).splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split("\t", 1) if "\t" in line else line.split(None, 1)
        utt = parts[0].strip()
        if not utt:
            raise DataFormatError(f"{path}: line {ln}: empty utterance id")
        if utt in out:
            raise DataFormatError(f"{path}: line {ln}: utterance id {utt!r} repeated")
        out[utt] = parts[1].strip() if len(parts) == 2 else ""
    return out
