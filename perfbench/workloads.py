"""Workload generators: lexicon, ARPA bigram text and a synthetic corpus.

Both workloads decode with one toy graph: a 25-word lexicon over 10
letter tokens and a bigram ARPA model.  The lexicon, the language model
and the corpus text are fixed, so every run decodes the same sentences
with the same graph; the run's seed draws the posterior matrices
(blank-run and spike lengths, noise).  The same seed
always yields the same inputs.  Only the package's public API is used,
and nothing is shared with the test suite, so a test edit cannot shift
the benchmark.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from spikefst.graph import Lexicon, posterior_vocab_size
from spikefst.posterior import LabelSequence, PosteriorMatrix, SynthConfig, synth_posteriors

# 25 words over the 10 letters a e i k m n o s t u.  Five confusable pairs
# differ in one token, and two doubled-token pairs (otte/ote, anna/ana)
# only stay apart through the blank the synthesizer forces between
# identical adjacent tokens.
TOY_WORDS = {
    "ke": "k e", "sa": "s a", "to": "t o", "ni": "n i", "ma": "m a",
    "kamo": "k a m o", "kami": "k a m i", "sute": "s u t e", "suta": "s u t a",
    "noki": "n o k i", "noka": "n o k a", "temi": "t e m i", "temu": "t e m u",
    "mako": "m a k o", "maki": "m a k i", "sina": "s i n a", "ikun": "i k u n",
    "otte": "o t t e", "ote": "o t e", "anna": "a n n a", "ana": "a n a",
    "esu": "e s u", "uke": "u k e", "ton": "t o n", "mise": "m i s e",
}
# LM training text is dominated by these; their partners stay rare.
TOY_FREQUENT = ["ke", "sa", "to", "ni", "ma", "kamo", "sute", "noki", "temi",
                "mako", "sina", "otte", "anna", "esu", "mise"]
TOY_RARE = ["kami", "suta", "noka", "temu", "maki", "ikun", "ote", "ana", "uke", "ton"]

# Words per sentence, in the LM text and in the corpus.
SENTENCE_LEN = (2, 5)

# Seed of the LM text and corpus text.  Fixed so that seed-to-seed spread
# in the timings comes from the posteriors alone, not from which words
# a short corpus happens to contain.
TEXT_SEED = 7
# LM training sentences, plus one singleton sentence per word.
LM_SENTENCES = 400
# Search knobs shared by every workload (the package's test value).
BEAM = 12.0


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: corpus size and posterior shape."""

    name: str
    why: str
    n_utts: int
    synth: dict  # SynthConfig keywords other than vocab_size

    def params(self) -> dict:
        """Generator parameters, recorded in every result file."""
        return {
            "n_utts": self.n_utts, "synth": self.synth,
            "sentence_len": list(SENTENCE_LEN), "lexicon": "toy 25 words / 10 tokens",
            "lm_sentences": LM_SENTENCES, "text_seed": TEXT_SEED, "beam": BEAM,
        }


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="blank_heavy",
            why="long blank runs (~90% blank, ~7x fewer frames): the paper's "
                "headline case, where dense pays per frame and ioo_koo shifts cost "
                "to load and compress",
            n_utts=16,
            synth={"spike_len": (1, 2), "blank_run": (8, 16), "peak": 0.95, "noise": 0.04},
        ),
        Workload(
            name="clean",
            why="short blank runs (~80% blank, ~3.6x fewer frames): the fixed cost "
                "of each decode call is a larger share, so per-call gains show here",
            n_utts=32,
            synth={"spike_len": (1, 2), "blank_run": (3, 8), "peak": 0.95, "noise": 0.04},
        ),
    )
}


@dataclass
class Inputs:
    """Generated text inputs plus the corpus for one (workload, seed)."""

    lexicon_text: str
    arpa_text: str
    utts: list[tuple[str, PosteriorMatrix]] = field(default_factory=list)
    refs: dict[str, str] = field(default_factory=dict)


def _draw(rng, rare_rate: float) -> str:
    """A frequent word, or with probability *rare_rate* a rare one."""
    pool = TOY_RARE if rng.random() < rare_rate else TOY_FREQUENT
    return pool[int(rng.integers(0, len(pool)))]


def _sentences(rng, lengths, rare_rate: float) -> list[list[str]]:
    return [[_draw(rng, rare_rate) for _ in range(n)] for n in lengths]


def write_bigram_arpa(sentences: list[list[str]], discount: float = 0.5) -> str:
    """Absolute-discount bigram model with unigram backoff, as ARPA text.

    Backoff weights are capped at 1 so no backoff arc gets a negative
    cost, which the graph's epsilon handling requires.
    """
    unigrams: Counter = Counter()
    bigrams: Counter = Counter()
    for words in sentences:
        seq = ["<s>", *words, "</s>"]
        unigrams.update(seq[1:])
        bigrams.update(zip(seq, seq[1:]))
    total = sum(unigrams.values())
    p_uni = {w: c / total for w, c in unigrams.items()}
    history_count: Counter = Counter()
    followers: dict[str, list[str]] = {}
    for (h, w), c in bigrams.items():
        history_count[h] += c
        followers.setdefault(h, []).append(w)

    def log10_backoff(h: str) -> float:
        if h not in followers:
            return 0.0
        freed = discount * len(followers[h]) / history_count[h]
        unseen = 1.0 - sum(p_uni[w] for w in followers[h])
        alpha = min(1.0, freed / unseen) if unseen > 1e-9 else 1e-3
        return math.log10(alpha)

    uni_lines = [f"-99.000000\t<s>\t{log10_backoff('<s>'):.6f}"]
    uni_lines += [f"{math.log10(p_uni[w]):.6f}\t{w}\t{log10_backoff(w):.6f}"
                  for w in sorted(unigrams)]
    bi_lines = [f"{math.log10((c - discount) / history_count[h]):.6f}\t{h} {w}"
                for (h, w), c in sorted(bigrams.items())]
    return (
        "\\data\\\n"
        f"ngram 1={len(uni_lines)}\n"
        f"ngram 2={len(bi_lines)}\n\n"
        "\\1-grams:\n" + "\n".join(uni_lines) + "\n\n"
        "\\2-grams:\n" + "\n".join(bi_lines) + "\n\n"
        "\\end\\\n"
    )


def generate(w: Workload, seed: int) -> Inputs:
    """All inputs of workload *w* for *seed*."""
    lm_rng = np.random.default_rng((TEXT_SEED, 2))
    text_rng = np.random.default_rng((TEXT_SEED, 3))
    posterior_rng = np.random.default_rng((seed, 4))

    lo, hi = SENTENCE_LEN
    lm_text = _sentences(lm_rng, lm_rng.integers(lo, hi + 1, LM_SENTENCES), rare_rate=0.02)
    lm_text += [[word] for word in sorted(TOY_WORDS)]
    inputs = Inputs(
        lexicon_text="".join(f"{word}\t{TOY_WORDS[word]}\n" for word in sorted(TOY_WORDS)),
        arpa_text=write_bigram_arpa(lm_text),
    )

    lexicon = Lexicon([(word, tuple(p.split())) for word, p in sorted(TOY_WORDS.items())])
    table = lexicon.token_table
    cfg = SynthConfig(vocab_size=posterior_vocab_size(table), **w.synth)
    # Corpus sentence lengths cycle through lo..hi instead of being drawn,
    # so every seed has the same length mix and the latency percentiles
    # move with the program, not with the draw.
    lengths = [lo + i % (hi - lo + 1) for i in range(w.n_utts)]
    for i, words in enumerate(_sentences(text_rng, lengths, rare_rate=0.0)):
        # graph input id k reads posterior column k-1
        labels = LabelSequence(tuple(table.find_id(t) - 1
                                     for word in words for t in TOY_WORDS[word].split()))
        utt = f"utt{i:04d}"
        mat = synth_posteriors(labels, cfg, seed=int(posterior_rng.integers(0, 2**31)))
        inputs.utts.append((utt, mat))
        inputs.refs[utt] = " ".join(words)
    return inputs
