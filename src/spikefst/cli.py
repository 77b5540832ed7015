"""Command-line entry point covering the full pipeline.

Subcommands: build-graph, synth, compress, decode, score, bench, sweep.
Exit codes: 0 success, 1 usage error, 2 data error (a bad input file, or
an output path that cannot be written), 3 decode failures present.  Every
output file goes through ``errors.write_file`` (temp file + rename), so a
failing run never leaves a partial artifact behind.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys
from pathlib import Path

from . import __version__
from .bench import bench, sweep_params, word_syms
from .compress import MODES, CompressConfig, compress
from .decoder import DecoderConfig, decode_batch
from .errors import SpikefstError, ValidationError, write_file
from .graph import BuildReport, Lexicon, build_grammar_fst, build_lexicon_fst, build_tlg, build_token_fst, load_arpa, posterior_vocab_size
from .posterior import SynthConfig, load_labels, load_posteriors, save_posteriors, synth_posteriors
from .scoring import read_trans_file, score_corpus
from .wfst import Fst, SymbolTable, read_fst_text, write_fst_text

log = logging.getLogger("spikefst")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_DECODE = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _add_compress_flags(p: argparse.ArgumentParser) -> None:
    # The CLI compresses with ioo_koo unless told otherwise; the library's
    # default mode is dense.
    p.add_argument("--mode", default="ioo_koo", choices=MODES)
    p.add_argument("--koo-strategy", default=CompressConfig.koo_strategy, choices=["max", "min"])
    p.add_argument("--nb-threshold", type=float, default=CompressConfig.nb_threshold,
                   help="peak-probability gate for one-hot rewrites (best known: 0.99)")
    p.add_argument("--lsd-threshold", type=float, default=CompressConfig.lsd_threshold)
    p.add_argument("--swd-window", type=int, default=CompressConfig.swd_window)


def _compress_config(args, mode: str | None = None) -> CompressConfig:
    return CompressConfig(
        mode=mode if mode is not None else args.mode,
        koo_strategy=args.koo_strategy,
        nb_threshold=args.nb_threshold,
        lsd_threshold=args.lsd_threshold,
        swd_window=args.swd_window,
    )


def _add_decoder_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--beam", type=float, default=DecoderConfig.beam)
    p.add_argument("--max-active", type=int, default=DecoderConfig.max_active)
    p.add_argument("--acoustic-scale", type=float, default=DecoderConfig.acoustic_scale)


def _comma_list(cast, choices=None):
    """An argparse type: comma-separated *cast* values, each one of
    *choices* when given, so a bad one is a usage error."""
    def parse(spec: str) -> list:
        try:
            values = [cast(x.strip()) for x in spec.split(",") if x.strip()]
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated {cast.__name__} values, got {spec!r}") from None
        for value in values:
            if choices is not None and value not in choices:
                raise argparse.ArgumentTypeError(
                    f"invalid choice: {value!r} (choose from {', '.join(map(repr, choices))})")
        return values
    return parse


def _decoder_config(args) -> DecoderConfig:
    return DecoderConfig(beam=args.beam, max_active=args.max_active,
                         acoustic_scale=args.acoustic_scale)


def _load_graph(graph_dir: str) -> Fst:
    d = Path(graph_dir)
    tokens = SymbolTable.from_file(d / "tokens.txt")
    words = SymbolTable.from_file(d / "words.txt")
    return read_fst_text(d / "tlg.fst.txt", isyms=tokens, osyms=words)


def _iter_corpus(path: str):
    """(utt_id, file) pairs: a directory of *.spkf files, or one file."""
    p = Path(path)
    if p.is_dir():
        files = sorted(p.glob("*.spkf"))
        if not files:
            raise ValidationError(f"{path}: no .spkf files found")
        return [(f.stem, f) for f in files]
    return [(p.stem, p)]


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------

def cmd_build_graph(args) -> int:
    lex = Lexicon.from_file(args.lexicon)
    model = load_arpa(args.arpa)
    t = build_token_fst(lex.token_table)
    l = build_lexicon_fst(lex, add_disambig=True)
    g = build_grammar_fst(model, lex.word_table)
    report = BuildReport()
    tlg = build_tlg(t, l, g, use_pushing=args.push, report=report)

    out = Path(args.out_dir)
    write_fst_text(tlg, out / "tlg.fst.txt")
    lex.token_table.to_file(out / "tokens.txt")
    lex.word_table.to_file(out / "words.txt")
    manifest = {
        "pushed": args.push,
        "lm_order": model.order,
        "stages": report.stages,
        "tokens": len(lex.token_table),
        "words": len(lex.word_table),
    }
    write_file(out / "manifest.json", json.dumps(manifest, indent=2) + "\n")
    log.info("wrote %s (%d states, %d arcs)", out / "tlg.fst.txt",
             tlg.num_states, tlg.num_arcs)
    return EXIT_OK


def _blank_run_from_ratio(ratio: float, spike_len, n_labels_hint: int) -> tuple[int, int]:
    # Mean blank per run so that blank/(blank+spike) ~= ratio over a
    # sentence with n labels and n+1 blank runs.
    mean_spike = (spike_len[0] + spike_len[1]) / 2.0
    total_spike = max(1, n_labels_hint) * mean_spike
    total_blank = ratio / (1.0 - ratio) * total_spike
    per_run = total_blank / (n_labels_hint + 1)
    lo = max(0, int(math.floor(per_run * 0.5)))
    hi = max(lo, int(math.ceil(per_run * 1.5)))
    return lo, hi


def cmd_synth(args) -> int:
    token_table = SymbolTable.from_file(args.tokens) if args.tokens else None
    if token_table is not None:
        vocab = posterior_vocab_size(token_table)
    elif args.vocab_size:
        vocab = args.vocab_size
    else:
        raise ValidationError("synth needs --tokens or --vocab-size")
    labels = load_labels(args.labels, token_table)
    spike = (args.spike_min, args.spike_max)
    if args.blank_ratio is not None:
        if not (0.0 < args.blank_ratio < 1.0):
            raise ValidationError("--blank-ratio must be in (0, 1)")
        mean_labels = max(1, round(sum(len(l.tokens) for l in labels) / max(1, len(labels))))
        blank = _blank_run_from_ratio(args.blank_ratio, spike, mean_labels)
    else:
        blank = (args.blank_min, args.blank_max)
    cfg = SynthConfig(vocab_size=vocab, spike_len=spike, blank_run=blank,
                      peak=args.peak, noise=args.noise)
    out = Path(args.out_dir)
    for i, seq in enumerate(labels):
        mat = synth_posteriors(seq, cfg, seed=args.seed + i)
        save_posteriors(mat, out / f"utt{i:05d}.spkf")
    log.info("wrote %d posterior files to %s", len(labels), out)
    return EXIT_OK


def cmd_compress(args) -> int:
    cfg = _compress_config(args)
    out = Path(args.out)
    pairs = _iter_corpus(args.input)
    multi = Path(args.input).is_dir()
    for utt, path in pairs:
        comp = compress(load_posteriors(path), cfg)
        save_posteriors(comp, (out / f"{utt}.spkf") if multi else out)
    log.info("compressed %d utterances with mode %s", len(pairs), cfg.label())
    print(json.dumps({"utterances": len(pairs), "mode": cfg.label()}), file=sys.stderr)
    return EXIT_OK


def cmd_decode(args) -> int:
    graph = _load_graph(args.graph_dir)
    cfg = _decoder_config(args)
    utts = [(u, load_posteriors(p)) for u, p in _iter_corpus(args.input)]
    batch = decode_batch(graph, utts, cfg)

    lines = []
    hyp_lines = []
    for utt, res in zip(batch.utt_ids, batch.results):
        if res is None:
            continue
        syms = word_syms(graph, res.words)
        record = {
            "utt": utt,
            "words": syms,
            "cost": res.total_cost,
            "frames": res.frames_processed,
            "wall_time_ms": res.wall_time_ms,
        }
        if args.alignment:
            record["alignment"] = [[f, t] for f, t in res.tokens]
        lines.append(json.dumps(record))
        hyp_lines.append(f"{utt}\t{' '.join(syms)}")
    for utt, err in batch.failures:
        log.error("decode failure for %s: %s", utt, err)

    text = "\n".join(lines) + ("\n" if lines else "")
    if args.out:
        write_file(args.out, text)
    else:
        sys.stdout.write(text)
    if args.hyps:
        write_file(args.hyps, "\n".join(hyp_lines) + ("\n" if hyp_lines else ""))
    summary = {
        "utterances": len(batch.utt_ids),
        "failures": len(batch.failures),
        "wall_time_ms": batch.wall_time_ms,
    }
    print(json.dumps(summary), file=sys.stderr)
    return EXIT_DECODE if batch.failures else EXIT_OK


def cmd_score(args) -> int:
    refs = read_trans_file(args.refs)
    hyps = read_trans_file(args.hyps)
    report = score_corpus(refs, hyps, unit=args.unit)
    payload = {
        "unit": report.unit,
        "rate": report.rate,
        "percent": report.percent,
        "edits": report.total_edits,
        **report.breakdown,
        "ref_len": report.total_ref_len,
        "utterances": len(report.per_utt),
    }
    out = json.dumps(payload, indent=2) + "\n"
    if args.out:
        write_file(args.out, out)
    sys.stdout.write(out)
    return EXIT_OK


_BENCH_DEFAULT_MODES = "dense,ioo,ioo_koo,discard,average,lsd,swd"


def cmd_bench(args) -> int:
    graph = _load_graph(args.graph_dir)
    refs = read_trans_file(args.refs)
    utts = [(u, load_posteriors(p)) for u, p in _iter_corpus(args.input)]
    modes = [_compress_config(args, mode=name) for name in args.modes]
    report = bench(graph, utts, refs, modes, _decoder_config(args),
                   repeats=args.repeats, unit=args.unit)
    out = Path(args.out_dir)
    write_file(out / "bench.csv", report.to_csv())
    write_file(out / "bench.json", report.to_json() + "\n")
    sys.stdout.write(report.to_csv())
    return EXIT_OK


def cmd_sweep(args) -> int:
    graph = _load_graph(args.graph_dir)
    refs = read_trans_file(args.refs)
    utts = [(u, load_posteriors(p)) for u, p in _iter_corpus(args.input)]
    grid = [
        DecoderConfig(beam=b, max_active=ma, acoustic_scale=args.acoustic_scale)
        for b in args.beams
        for ma in args.max_actives
    ]
    points = sweep_params(graph, utts, refs, grid, unit=args.unit)
    lines = ["beam,max_active,cer,mean_wall_ms,speedup_vs_first,max_live_tokens,failures"]
    for pt in points:
        lines.append(
            f"{pt.beam:g},{pt.max_active},{pt.cer:.6f},"
            f"{pt.mean_wall_ms:.3f},{pt.speedup_vs_first:.3f},{pt.max_live_tokens},{pt.failures}"
        )
    text = "\n".join(lines) + "\n"
    if args.out:
        write_file(args.out, text)
    sys.stdout.write(text)
    return EXIT_OK


# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="spikefst", description=__doc__)
    parser.add_argument("--version", action="version", version=f"spikefst {__version__}")
    common = _Parser(add_help=False)
    common.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_parser(name, **kwargs):
        return sub.add_parser(name, parents=[common], **kwargs)

    p = add_parser("build-graph", help="compile lexicon + ARPA LM into a decoding graph")
    p.add_argument("--lexicon", required=True)
    p.add_argument("--arpa", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--push", action="store_true",
                   help="push weights toward the start between det and min")
    p.set_defaults(fn=cmd_build_graph)

    p = add_parser("synth", help="generate spiky synthetic posteriors from labels")
    p.add_argument("--labels", required=True, help="one utterance of tokens per line")
    p.add_argument("--tokens", default=None, help="token symbol table (resolves label symbols)")
    p.add_argument("--vocab-size", type=int, default=None)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--spike-min", type=int, default=1)
    p.add_argument("--spike-max", type=int, default=2)
    p.add_argument("--blank-min", type=int, default=3)
    p.add_argument("--blank-max", type=int, default=8)
    p.add_argument("--blank-ratio", type=float, default=None,
                   help="target blank-argmax fraction; overrides --blank-min/max")
    p.add_argument("--peak", type=float, default=0.95)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0, help="utterance i is drawn with seed + i")
    p.set_defaults(fn=cmd_synth)

    p = add_parser("compress", help="compress posterior files")
    p.add_argument("--input", required=True, help=".spkf file or directory")
    p.add_argument("--out", required=True, help="output file or directory")
    _add_compress_flags(p)
    p.set_defaults(fn=cmd_compress)

    p = add_parser("decode", help="beam-search decode posteriors through a graph")
    p.add_argument("--graph-dir", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", default=None, help="results JSONL (default stdout)")
    p.add_argument("--hyps", default=None, help="also write utt<TAB>words text")
    p.add_argument("--alignment", action="store_true", help="include (frame, token) pairs")
    _add_decoder_flags(p)
    p.set_defaults(fn=cmd_decode)

    p = add_parser("score", help="CER/WER of hypothesis vs reference transcripts")
    p.add_argument("--refs", required=True)
    p.add_argument("--hyps", required=True)
    p.add_argument("--unit", default="word", choices=["word", "char"])
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_score)

    p = add_parser("bench", help="dense-vs-compressed speed/accuracy table")
    p.add_argument("--graph-dir", required=True)
    p.add_argument("--input", required=True, help="directory of dense .spkf files")
    p.add_argument("--refs", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--modes", type=_comma_list(str, MODES), default=_BENCH_DEFAULT_MODES)
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--unit", default="word", choices=["word", "char"])
    _add_compress_flags(p)
    _add_decoder_flags(p)
    p.set_defaults(fn=cmd_bench)

    p = add_parser("sweep", help="decoder-parameter grid: CER and speed per point")
    p.add_argument("--graph-dir", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--refs", required=True)
    p.add_argument("--beams", type=_comma_list(float), default="8,16,32")
    p.add_argument("--max-actives", type=_comma_list(int), default=[DecoderConfig.max_active])
    p.add_argument("--acoustic-scale", type=float, default=DecoderConfig.acoustic_scale)
    p.add_argument("--unit", default="word", choices=["word", "char"])
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        return args.fn(args)
    except SpikefstError as exc:
        log.error("%s", exc)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
