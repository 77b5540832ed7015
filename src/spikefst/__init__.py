"""spikefst: WFST speech decoding on spike-compressed posterior sequences.

The pipeline: build a token/lexicon/grammar decoding graph, shrink the
frame-level posterior sequence (blank runs become single deterministic
blank rows, token runs keep one representative frame), then run
frame-synchronous Viterbi beam search over far fewer frames.
"""

from .bench import BenchReport, BenchRow, SweepPoint, bench, score_batch, sweep_params, word_syms
from .compress import (
    CUSTOM_BLANK,
    CompressConfig,
    CompressedPosteriors,
    baseline_average,
    baseline_discard,
    baseline_lsd,
    baseline_swd,
    compress,
    compress_aed,
    compress_ctc,
    custom_blank,
    koo_select,
    load_compressed,
    save_compressed,
    segment_blocks,
)
from .decoder import (
    BatchResult,
    DecodeResult,
    DecoderConfig,
    decode,
    decode_batch,
)
from .errors import (
    ArpaError,
    DataFormatError,
    DecodeError,
    FstError,
    GraphError,
    SpikefstError,
    ValidationError,
)
from .graph import (
    BuildReport,
    Lexicon,
    NGramModel,
    build_grammar_fst,
    build_lexicon_fst,
    build_tlg,
    build_token_fst,
    load_arpa,
    make_token_table,
    parse_arpa,
)
from .posterior import (
    BLANK_ID,
    LabelSequence,
    PosteriorMatrix,
    SynthConfig,
    argmax_labels,
    load_labels,
    load_posteriors,
    save_posteriors,
    softmax,
    synth_posteriors,
)
from .scoring import EditCounts, ScoreReport, levenshtein, read_trans_file, score_corpus
from .wfst import Fst, SymbolTable

__version__ = "0.1.0"
