"""Static decoding-graph construction.

Builds the three component transducers and composes them into the final
search graph:

* token FST: maps frame-level token alignments (with blanks and
  repeats) to collapsed token sequences;
* lexicon FST: maps token sequences to words, with auxiliary
  disambiguation symbols so homophones and prefix pronunciations stay
  determinizable;
* grammar FST: a backoff n-gram model compiled from ARPA text, words on
  arcs, backoff moves on epsilon, sentence-end probability as final
  weight.

The combined graph is ``token o min(det(lexicon o grammar))``, with an
optional weight-pushing pass between determinization and minimization
that front-loads path costs for earlier beam pruning.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field
from itertools import takewhile

from .errors import ArpaError, DataFormatError, GraphError, read_file, text_lines
from .wfst import (
    EPSILON,
    EPSILON_SYM,
    ONE,
    ZERO,
    Arc,
    Fst,
    SymbolTable,
    arcsort,
    compose,
    determinize,
    minimize,
    push_weights,
    rm_epsilon,
    trim,
)
from .wfst.fst import make_arc

log = logging.getLogger(__name__)

BLANK_SYM = "<blk>"
BOS = "<s>"
EOS = "</s>"

_LOG10 = math.log(10.0)


def make_token_table(tokens: list[str], n_disambig: int = 0) -> SymbolTable:
    """<eps>=0, <blk>=1, real tokens from 2, then #1..#n disambiguators.

    Graph input id i corresponds to posterior column i-1 (blank is column
    0), which is the contract the decoder relies on.  A real token may not
    start with '#', which marks a disambiguator, nor repeat (FstError).
    """
    for tok in tokens:
        if tok.startswith("#"):
            raise GraphError(f"token symbol {tok!r} starts with '#', reserved for disambiguators")
    return SymbolTable([BLANK_SYM, *tokens, *(f"#{k}" for k in range(1, n_disambig + 1))])


def disambig_ids(table: SymbolTable) -> set[int]:
    return {key for key, sym in table.items() if sym.startswith("#")}


def posterior_vocab_size(table: SymbolTable) -> int:
    """Posterior width implied by a token table: blank plus real tokens."""
    return len(table) - 1 - len(disambig_ids(table))


# ----------------------------------------------------------------------
# Token FST
# ----------------------------------------------------------------------

def build_token_fst(token_table: SymbolTable) -> Fst:
    """Standard blank/repeat-collapsing token topology.

    State 0 accepts blanks silently; entering a token emits it once and
    its state absorbs repeats.  Blanks return to state 0, and direct
    token-to-token arcs let distinct tokens follow without a blank.  Any
    alignment is accepted and transduced to its collapsed form.
    """
    ids = [key for key, sym in token_table.items()
           if key > 1 and not sym.startswith("#")]
    if not ids:
        raise GraphError("token table has no real tokens")
    if BLANK_SYM not in token_table or token_table.find_id(BLANK_SYM) != 1:
        raise GraphError(f"token table must bind {BLANK_SYM!r} to id 1")

    # state 0 is the start, then one state per real token in table order
    state_of = {tok: s for s, tok in enumerate(ids, start=1)}
    arcs = [[make_arc((1, EPSILON, ONE, 0))]  # blank self-loop
            + [make_arc((tok, tok, ONE, s)) for tok, s in state_of.items()]]
    for tok, s in state_of.items():
        arcs.append([make_arc((tok, EPSILON, ONE, s)),  # repeat absorption
                     make_arc((1, EPSILON, ONE, 0))]    # blank separator
                    + [make_arc((other, other, ONE, s2))
                       for other, s2 in state_of.items() if other != tok])
    finals = dict.fromkeys(range(len(arcs)), ONE)
    return arcsort(Fst(arcs, 0, finals, token_table, token_table), "olabel")


# ----------------------------------------------------------------------
# Lexicon
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Lexicon:
    """word -> pronunciations plus both symbol tables; never changed."""

    entries: tuple[tuple[str, tuple[str, ...]], ...]
    token_table: SymbolTable = field(init=False)
    word_table: SymbolTable = field(init=False)

    def __post_init__(self):
        entries = tuple((word, tuple(pron)) for word, pron in self.entries)
        if not entries:
            raise GraphError("lexicon has no entries")
        for word, pron in entries:
            if not pron:
                raise GraphError(f"word {word!r} has an empty pronunciation")
        object.__setattr__(self, "entries", entries)
        tokens = sorted({tok for _, pron in entries for tok in pron})
        object.__setattr__(self, "token_table", make_token_table(tokens, max(self.disambig_indices())))
        object.__setattr__(self, "word_table", SymbolTable(dict.fromkeys(w for w, _ in entries)))

    @classmethod
    def from_file(cls, path) -> "Lexicon":
        entries = []
        for ln, line in text_lines(read_file(path)):
            parts = line.split("\t") if "\t" in line else line.split(None, 1)
            if len(parts) != 2 or not parts[1].split():
                raise DataFormatError(
                    f"{path}: line {ln}: expected 'word<TAB>token token ...'"
                )
            word, pron = parts[0].strip(), tuple(parts[1].split())
            if word.split() != [word]:
                raise DataFormatError(
                    f"{path}: line {ln}: word {word!r} is empty or holds whitespace")
            if word == EPSILON_SYM:
                raise DataFormatError(f"{path}: line {ln}: word {word!r} is reserved")
            for tok in pron:
                if tok in (EPSILON_SYM, BLANK_SYM) or tok.startswith("#"):
                    raise DataFormatError(f"{path}: line {ln}: token {tok!r} is reserved")
            entries.append((word, pron))
        if not entries:
            raise DataFormatError(f"{path}: empty lexicon")
        return cls(entries)

    def pron_counts(self) -> dict[tuple[str, ...], int]:
        counts: dict[tuple[str, ...], int] = {}
        for _, pron in self.entries:
            counts[pron] = counts.get(pron, 0) + 1
        return counts

    def disambig_indices(self) -> list[int]:
        """Per entry, the k of its trailing #k arc, or 0 for none: the c
        entries that share a pronunciation get 1..c in entry order, and a
        unique pronunciation that prefixes another gets 1."""
        counts = self.pron_counts()
        prefixes = {pron[:k] for pron in counts for k in range(1, len(pron))}
        seen: dict[tuple[str, ...], int] = {}
        indices = []
        for _, pron in self.entries:
            if counts[pron] > 1:
                seen[pron] = seen.get(pron, 0) + 1
                indices.append(seen[pron])
            else:
                indices.append(1 if pron in prefixes else 0)
        return indices


def build_lexicon_fst(lex: Lexicon, add_disambig: bool = True) -> Fst:
    """Token-sequence to word transducer, closed over word sequences.

    The word label is emitted on the first token of its pronunciation.
    With *add_disambig*, pronunciations that repeat or that prefix another
    pronunciation get a trailing #k arc; without it, duplicated
    pronunciations are a hard error since the two words can never be told
    apart downstream.
    """
    if not add_disambig:
        dupes = [p for p, c in lex.pron_counts().items() if c > 1]
        if dupes:
            raise GraphError(
                f"homophone collision for pronunciation {' '.join(dupes[0])!r}; "
                "build with disambiguation symbols"
            )
    indices = lex.disambig_indices() if add_disambig else [0] * len(lex.entries)

    tt, wt = lex.token_table, lex.word_table
    arcs: list[list[Arc]] = [[]]  # state 0 is the root

    for (word, pron), disambig in zip(lex.entries, indices):
        ids = [tt.find_id(tok) for tok in pron]
        word_id = wt.find_id(word)
        src = 0
        for i, tok_id in enumerate(ids):
            last = i == len(ids) - 1 and disambig == 0
            dst = 0 if last else len(arcs)
            if not last:
                arcs.append([])
            arcs[src].append(make_arc((tok_id, word_id if i == 0 else EPSILON, ONE, dst)))
            src = dst
        if disambig:
            arcs[src].append(make_arc((tt.find_id(f"#{disambig}"), EPSILON, ONE, 0)))
    return Fst(arcs, 0, {0: ONE}, tt, wt)


# ----------------------------------------------------------------------
# ARPA n-gram models
# ----------------------------------------------------------------------

@dataclass
class NGramModel:
    """Backoff n-gram model in log10, as parsed from ARPA text."""

    order: int
    # per order (1-based): gram tuple -> (log10 prob, log10 backoff)
    grams: list[dict[tuple[str, ...], tuple[float, float]]]

    def log10_prob(self, context: tuple[str, ...], word: str) -> float:
        """Backoff lookup of log10 p(word | context): use the longest
        observed gram, charging the backoff weight of each context that
        had no direct entry."""
        context = tuple(context)[-(self.order - 1):] if self.order > 1 else ()
        charged = 0.0
        while True:
            gram = context + (word,)
            entry = self.grams[len(gram) - 1].get(gram)
            if entry is not None:
                return charged + entry[0]
            if not context:
                return -math.inf  # out-of-vocabulary word
            ctx_entry = self.grams[len(context) - 1].get(context)
            charged += ctx_entry[1] if ctx_entry is not None else 0.0
            context = context[1:]

    def sentence_log10(self, words: list[str]) -> float:
        """Total log10 probability of <s> words </s>."""
        total = 0.0
        history: tuple[str, ...] = (BOS,)
        for w in list(words) + [EOS]:
            total += self.log10_prob(history, w)
            history = (history + (w,))[-(self.order - 1):] if self.order > 1 else ()
        return total


def parse_arpa(text: str) -> NGramModel:
    """Parse standard ARPA text into an :class:`NGramModel`.

    Declared per-order counts must match the entries exactly; a missing
    backoff weight defaults to 0, and a NaN weight or ``+inf`` backoff is
    refused.  All diagnostics carry the number of a line of *text* (its
    last line at the end of the text, line 1 if it has none).
    """
    lines = [(ln, line.strip()) for ln, line in text_lines(text)]
    last = max(1, len(text.splitlines()))
    if not lines:
        raise ArpaError(last, "missing \\data\\ header")
    if lines[0][1] != "\\data\\":
        raise ArpaError(lines[0][0], f"expected \\data\\ header, got {lines[0][1]!r}")

    counts = list(takewhile(lambda entry: entry[1].startswith("ngram "), lines[1:]))
    sections = lines[1 + len(counts):]
    if not counts:
        raise ArpaError(sections[0][0] if sections else last, "no ngram counts declared")
    declared: dict[int, int] = {}
    for ln, line in counts:
        try:
            order_part, count_part = line[len("ngram "):].split("=")
            declared[int(order_part)] = int(count_part)
        except ValueError:
            raise ArpaError(ln, f"malformed count line {line!r}") from None
    order = max(declared)
    if sorted(declared) != list(range(1, order + 1)):
        raise ArpaError(counts[-1][0], f"non-contiguous ngram orders declared: {sorted(declared)}")
    grams = [{} for _ in range(order)]

    current = 0
    for ln, line in sections:
        if line == "\\end\\":
            break
        if line.startswith("\\") and line.endswith("-grams:"):
            try:
                current = int(line[1:-len("-grams:")])
            except ValueError:
                raise ArpaError(ln, f"malformed section header {line!r}") from None
            if not (1 <= current <= order):
                raise ArpaError(ln, f"section order {current} outside declared 1..{order}")
            continue
        if current == 0:
            raise ArpaError(ln, f"entry before any -grams section: {line!r}")
        parts = line.split()
        if len(parts) == current + 1:
            backoff = 0.0
        elif len(parts) == current + 2:
            try:
                backoff = float(parts[-1])
                if not backoff < math.inf:  # NaN or +inf
                    raise ValueError
            except ValueError:
                raise ArpaError(ln, f"malformed backoff weight {parts[-1]!r}") from None
            parts = parts[:-1]
        else:
            raise ArpaError(
                ln, f"expected {current + 1} or {current + 2} fields, got {len(parts)}"
            )
        try:
            logp = float(parts[0])
            if logp != logp:  # NaN
                raise ValueError
        except ValueError:
            raise ArpaError(ln, f"malformed probability {parts[0]!r}") from None
        if logp > 0:
            raise ArpaError(ln, f"log10 probability {logp} is positive")
        grams[current - 1][tuple(parts[1:])] = (logp, backoff)
    else:
        raise ArpaError(last, "missing \\end\\ terminator")
    for k in range(1, order + 1):
        if len(grams[k - 1]) != declared[k]:
            raise ArpaError(
                last,
                f"ngram {k}: declared {declared[k]} entries, found {len(grams[k - 1])}",
            )
    return NGramModel(order, grams)


def load_arpa(path) -> NGramModel:
    try:
        return parse_arpa(read_file(path))
    except ArpaError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def build_grammar_fst(model: NGramModel, word_table: SymbolTable) -> Fst:
    """Compile a backoff model into a word acceptor.

    One state per observed context; word arcs cost -ln p, epsilon backoff
    arcs cost -ln(backoff), and sentence-end probability is the final
    weight of its context state.  Model words missing from *word_table*
    are skipped with a warning (they can never be output anyway).
    """
    contexts: dict[tuple[str, ...], int] = {(): 0}
    for k in range(1, model.order):
        for gram in model.grams[k - 1]:
            contexts[gram] = len(contexts)
    arcs: list[list[Arc]] = [[] for _ in contexts]
    finals: dict[int, float] = {}

    def suffix_state(gram: tuple[str, ...]) -> int:
        while gram not in contexts:
            gram = gram[1:]
        return contexts[gram]

    skipped: set[str] = set()
    for k in range(1, model.order + 1):
        for gram, (logp, _backoff) in model.grams[k - 1].items():
            context, word = gram[:-1], gram[-1]
            if context not in contexts:
                # well-formed models list every context as a lower-order entry
                raise GraphError(
                    f"ngram {' '.join(gram)!r} has no context entry {' '.join(context)!r}"
                )
            src = contexts[context]
            if word == EOS:
                finals[src] = -_LOG10 * logp
            elif word == BOS:
                continue  # never emitted; only its backoff matters
            elif word not in word_table:
                skipped.add(word)
            else:
                word_id = word_table.find_id(word)
                arcs[src].append(make_arc((word_id, word_id, -_LOG10 * logp, suffix_state(gram))))
    for gram, state in contexts.items():
        if not gram:
            continue
        entry = model.grams[len(gram) - 1].get(gram)
        backoff = entry[1] if entry is not None else 0.0
        arcs[state].append(make_arc((EPSILON, EPSILON, -_LOG10 * backoff, suffix_state(gram[1:]))))
    if skipped:
        log.warning("grammar skipped %d LM words missing from the lexicon: %s",
                    len(skipped), ", ".join(sorted(skipped)[:8]))
    if all(w == ZERO for w in finals.values()):
        # Model without a sentence-end gram: allow ending anywhere for free.
        finals = dict.fromkeys(contexts.values(), ONE)
    start = contexts.get((BOS,), contexts[()])
    return arcsort(trim(Fst(arcs, start, finals, word_table, word_table)), "ilabel")


# ----------------------------------------------------------------------
# Full graph assembly
# ----------------------------------------------------------------------

@dataclass
class BuildReport:
    """Per-stage state/arc counts and wall time, for the build manifest."""

    stages: list[dict] = field(default_factory=list)

    def note(self, name: str, f: Fst, seconds: float) -> None:
        self.stages.append({"stage": name, "states": f.num_states, "arcs": f.num_arcs,
                            "seconds": seconds})


def relabel_input_epsilon(f: Fst, labels: set[int]) -> Fst:
    """Rewrite the given input labels to epsilon (used to drop
    disambiguation symbols once they have done their job)."""
    arcs = [
        [make_arc((EPSILON, a.olabel, a.weight, a.nextstate)) if a.ilabel in labels else a
         for a in f.arcs(s)]
        for s in range(f.num_states)
    ]
    return Fst(arcs, f.start, f.finals, f.isyms, f.osyms)


def build_tlg(t: Fst, l: Fst, g: Fst, use_pushing: bool = False,
              report: BuildReport | None = None) -> Fst:
    """Compose the full decoding graph.

    Pipeline: compose lexicon with grammar, fold epsilons, determinize,
    optionally push weights toward the start, minimize, drop
    disambiguation symbols, then compose with the token machine and trim.
    The pushed and unpushed variants accept the same weighted language.
    """
    report = report if report is not None else BuildReport()

    def stage(name: str, fn, *args) -> Fst:
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:
            raise GraphError(f"graph build failed at stage {name}: {exc}") from exc
        report.note(name, result, time.perf_counter() - t0)
        return result

    lg = stage("compose_lg", compose, arcsort(l, "olabel"), g)
    lg = stage("rmepsilon", rm_epsilon, lg)
    lg = stage("determinize", determinize, lg)
    if use_pushing:
        lg = stage("push", push_weights, trim(lg))
    lg = stage("minimize", minimize, lg)
    if l.isyms is not None:
        lg = stage("rm_disambig", relabel_input_epsilon, lg, disambig_ids(l.isyms))
    # compose trims its result, so the machine is already trim here.
    tlg = stage("compose_tlg", compose, t, arcsort(lg, "ilabel"))
    return stage("final", arcsort, tlg, "ilabel")
