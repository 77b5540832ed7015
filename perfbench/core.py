"""Graph set-up, corpus passes, metrics and the correctness gate.

The package is reached only through public functions of
``spikefst.posterior``, ``spikefst.compress``, ``spikefst.graph``,
``spikefst.wfst``, ``spikefst.decoder`` and ``spikefst.scoring``.  The
package's own ``bench`` module is not used, so rewriting it cannot move
these numbers.
"""

from __future__ import annotations

import gc
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from spikefst.compress import CompressConfig, compress
from spikefst.decoder import DecoderConfig, decode, decode_batch
from spikefst.errors import DecodeError
from spikefst.graph import (
    Lexicon,
    build_grammar_fst,
    build_lexicon_fst,
    build_tlg,
    build_token_fst,
    disambig_ids,
    parse_arpa,
    relabel_input_epsilon,
)
from spikefst.posterior import load_posteriors, save_posteriors
from spikefst.scoring import score_corpus
from spikefst.wfst import (
    arcsort,
    compose,
    determinize,
    minimize,
    push_weights,
    read_fst_text,
    rm_epsilon,
    trim,
    write_fst_text,
)

from tracing import NO_TRACE, Tracer
from workloads import BEAM, Workload, generate

MODES = {"dense": CompressConfig(mode="dense"),
         "ioo_koo": CompressConfig(mode="ioo_koo", koo_strategy="max")}
# Timed rounds per run, whatever --seconds says.
MIN_ROUNDS = 3


def best_decile(xs) -> float:
    """10th percentile of repeated timings of one piece of work.

    Every timing the benchmark reports is summarized this way.  On a
    shared host the clock speed swings by 1.5-1.9x for seconds to
    minutes at a time, so the median of a run moves with the neighbours'
    load; the fastest decile recurs in every run and moves with the
    program."""
    return float(np.percentile(np.asarray(xs, dtype=np.float64), 10))


class GateError(Exception):
    """A correctness check of the benchmark failed."""


# ----------------------------------------------------------------------
# Graph set-up
# ----------------------------------------------------------------------

def replay_tlg(t, l, g, tracer, counts: dict):
    """``build_tlg``'s stage sequence, one public call per span.

    The graph is unpushed, but the push stage is timed on the same
    machine so its cost is reported; its result is dropped and the build
    goes on from the determinized machine, as ``build_tlg`` does.
    """
    def stage(name, fn, *args):
        with tracer.span(name):
            out = fn(*args)
        counts[name] = (out.num_states, out.num_arcs)
        return out

    lg = stage("wfst.compose_lg", lambda: compose(arcsort(l, "olabel"), g))
    lg = stage("wfst.rm_epsilon", rm_epsilon, lg)
    lg = stage("wfst.determinize", determinize, lg)
    stage("wfst.push", lambda: push_weights(trim(lg)))
    lg = stage("wfst.minimize", minimize, lg)
    lg = stage("graph.rm_disambig", relabel_input_epsilon, lg, disambig_ids(l.isyms))
    return stage("wfst.compose_tlg",
                 lambda: arcsort(trim(compose(t, arcsort(lg, "ilabel"))), "ilabel"))


def build_graph(workdir: Path, tracer=NO_TRACE, counts: dict | None = None):
    """Lexicon and ARPA text to a decodable graph, as ``build-graph`` then
    ``decode`` would do it.  With *counts*, the TLG stages are replayed
    one call at a time and their sizes recorded; otherwise ``build_tlg``
    runs whole.  Returns the graph and its AT&T text."""
    with tracer.span("graph.parse_arpa"):
        model = parse_arpa((workdir / "lm.arpa").read_text())
    with tracer.span("graph.tlg_inputs"):
        lex = Lexicon.from_file(workdir / "lexicon.txt")
        t = build_token_fst(lex.token_table)
        l = build_lexicon_fst(lex, add_disambig=True)
        g = build_grammar_fst(model, lex.word_table)
    tlg = build_tlg(t, l, g) if counts is None else replay_tlg(t, l, g, tracer, counts)
    path = workdir / "tlg.fst.txt"
    with tracer.span("wfst.write_text"):
        write_fst_text(tlg, path)
    with tracer.span("wfst.read_text"):
        graph = read_fst_text(path, lex.token_table, lex.word_table)
    if counts is not None:
        counts["graph"] = (graph.num_states, graph.num_arcs)
        tlg_text = path.read_text()
        write_fst_text(build_tlg(t, l, g), path)
        if path.read_text() != tlg_text:
            raise GateError("stage replay differs from build_tlg")
    return graph, path.read_text()


# ----------------------------------------------------------------------
# Corpus passes
# ----------------------------------------------------------------------

@dataclass
class Pass:
    """One corpus pass; only the first of each mode is kept whole."""

    seconds: float
    rows: int
    outcome: list  # per utterance: (words, total_cost), or None on failure
    rate: float
    histograms: list[tuple[int, ...]]
    failures: int
    compressed: list = field(repr=False, default_factory=list)


def _words(graph, ids) -> str:
    return " ".join(graph.osyms.find_symbol(i) for i in ids)


def corpus_pass(mode: str, files, graph, cfg: DecoderConfig, refs, tracer=NO_TRACE) -> Pass:
    """The user path over the corpus: load, compress, decode_batch, score."""
    t0 = time.perf_counter()
    with tracer.span(f"pass.{mode}"):
        mats = []
        for utt, path in files:
            with tracer.span("posterior.load", utt):
                mats.append((utt, load_posteriors(path)))
        comp = []
        for utt, m in mats:
            with tracer.span(f"compress.{mode}", utt):
                comp.append((utt, compress(m, MODES[mode])))
        with tracer.span(f"decoder.{mode}"):
            batch = decode_batch(graph, comp, cfg, jobs=1)
        hyps = {u: _words(graph, r.words) for u, r in batch.ok()}
        with tracer.span(f"scoring.{mode}"):
            report = score_corpus({u: refs[u] for u in hyps}, hyps, unit="word")
    seconds = time.perf_counter() - t0
    return Pass(
        seconds=seconds, rows=sum(c.frames for _, c in comp),
        outcome=[None if r is None else (r.words, r.total_cost) for r in batch.results],
        rate=report.rate,
        histograms=[r.tokens_alive_histogram for r in batch.results if r is not None],
        failures=len(batch.failures), compressed=comp,
    )


def latency_pass(compressed, graph, cfg: DecoderConfig, tracer=NO_TRACE):
    """One ``decode`` call per compressed utterance.  Returns per call
    (frames, seconds, (words, total_cost) or None)."""
    out = []
    with tracer.span("pass.latency"):
        for utt, c in compressed:
            t0 = time.perf_counter()
            try:
                with tracer.span("decoder.decode", utt):
                    r = decode(graph, c, cfg)
                outcome = (r.words, r.total_cost)
            except DecodeError:
                outcome = None
            out.append((c.frames, time.perf_counter() - t0, outcome))
    return out


class Rounds:
    """Timed passes of one run.  The first pass of each mode, or the one
    given as *reference*, is what every later pass must reproduce: the
    same words and total_cost per utterance, as the decoder's
    determinism contract requires.  Later passes keep only their time."""

    def __init__(self, reference: dict[str, Pass] | None = None):
        self.first: dict[str, Pass] = dict(reference or {})
        self.seconds: dict[str, list[float]] = {m: [] for m in MODES}
        self.calls: list[list[float]] = []  # seconds of each decode call, per utterance
        self.attempted = 0
        self.failed = 0

    def _pass(self, mode: str, files, graph, cfg, refs, tracer) -> float:
        p = corpus_pass(mode, files, graph, cfg, refs, tracer)
        if p.outcome != self.first.setdefault(mode, p).outcome:
            raise GateError(f"a {mode} pass differs from the first {mode} pass")
        self.seconds[mode].append(p.seconds)
        self.attempted += len(p.outcome)
        self.failed += p.failures
        return p.seconds

    def _single(self, graph, cfg, tracer) -> float:
        ref = self.first["ioo_koo"]
        calls = latency_pass(ref.compressed, graph, cfg, tracer)
        if [o for _, _, o in calls] != ref.outcome:
            raise GateError("single-utterance decode differs from decode_batch")
        if not self.calls:
            self.calls = [[] for _ in calls]
        for times, (_, sec, _) in zip(self.calls, calls):
            times.append(sec)
        self.attempted += len(calls)
        self.failed += sum(o is None for _, _, o in calls)
        return sum(sec for _, sec, _ in calls)

    def run(self, files, graph, cfg, refs, seconds: float, tracer=NO_TRACE,
            before_round=None) -> None:
        """Rounds until *seconds* have passed, and at least MIN_ROUNDS.
        A round is *before_round* if given, one dense pass, then ioo_koo
        passes and then single decode passes, each for about a quarter of
        the dense pass's time.  Short rounds give every timing many
        samples spread over the whole run, since the machine's speed
        drifts over seconds."""
        deadline = time.perf_counter() + seconds
        done = 0
        while done < MIN_ROUNDS or time.perf_counter() < deadline:
            if before_round is not None:
                before_round()
            gc.collect()
            budget = self._pass("dense", files, graph, cfg, refs, tracer) / 4
            for step in (lambda: self._pass("ioo_koo", files, graph, cfg, refs, tracer),
                         lambda: self._single(graph, cfg, tracer)):
                spent = 0.0
                while spent < budget:
                    spent += step()
            done += 1


# ----------------------------------------------------------------------
# Run
# ----------------------------------------------------------------------

def _live_stats(histograms, max_active: int) -> dict:
    live = np.concatenate([np.asarray(h, dtype=np.int64) for h in histograms if h]
                          or [np.zeros(0, np.int64)])
    if live.size == 0:
        return {"mean": 0.0, "peak": 0, "bound_frac": 0.0}
    return {"mean": float(live.mean()), "peak": int(live.max()),
            "bound_frac": float(np.count_nonzero(live >= max_active) / live.size)}


@dataclass
class Result:
    metrics: dict[str, tuple[float, str]]
    attempted: int
    failed: int
    notes: dict


def prepare(w: Workload, seed: int, workdir: Path):
    """Write the workload's lexicon, ARPA text and corpus files (outside
    every clock).  Returns the corpus file list and the references."""
    inputs = generate(w, seed)
    (workdir / "lexicon.txt").write_text(inputs.lexicon_text)
    (workdir / "lm.arpa").write_text(inputs.arpa_text)
    files = []
    for utt, mat in inputs.utts:
        path = workdir / f"{utt}.spkf"
        save_posteriors(mat, path, "binary")
        files.append((utt, path))
    return files, inputs.refs


def _quality(rounds: Rounds) -> dict[str, float]:
    """CER and parity from the first pass of each mode; failures over
    every decode attempted."""
    dense, ioo = rounds.first["dense"], rounds.first["ioo_koo"]
    mismatched = sum(a != b for a, b in zip(
        [o and o[0] for o in dense.outcome], [o and o[0] for o in ioo.outcome]))
    return {
        "dense_cer": dense.rate,
        "ioo_koo_cer": ioo.rate,
        "parity_mismatch_rate": mismatched / len(dense.outcome),
        "fail_rate": rounds.failed / rounds.attempted,
    }


def run_untraced(files, refs, workdir: Path, seconds: float) -> Result:
    """Time rounds of both passes and the single-utterance pass, with
    graph builds spread over the run.  Reports the end-to-end metrics."""
    setup_times, texts = [], set()

    def timed_build():
        gc.collect()  # each build starts from a collected heap
        t0 = time.perf_counter()
        graph, text = build_graph(workdir)
        setup_times.append(time.perf_counter() - t0)
        texts.add(text)
        return graph

    start = time.perf_counter()

    def spread_builds():
        # Later builds are spread over the run like every other timing,
        # but take at most a fifth of it, so a slow build does not starve
        # the passes of samples.
        if sum(setup_times) < 0.2 * (time.perf_counter() - start):
            timed_build()

    # Every round decodes with the first graph, so the decoder's lazy
    # per-graph set-up is paid once, as by a user.
    graph = timed_build()
    cfg = DecoderConfig(beam=BEAM)
    rounds = Rounds()
    rounds.run(files, graph, cfg, refs, seconds, before_round=spread_builds)
    if len(texts) != 1:
        raise GateError("repeated graph builds differ")

    frames = rounds.first["dense"].rows
    # One latency per utterance, then percentiles across utterances.
    utt_ms = [best_decile(times) * 1e3 for times in rounds.calls]
    q = _quality(rounds)
    dense_s = best_decile(rounds.seconds["dense"])
    ioo_s = best_decile(rounds.seconds["ioo_koo"])
    metrics = {
        "setup_s": (best_decile(setup_times), "s"),
        "dense_fps": (frames / dense_s, "frames/s"),
        "ioo_koo_fps": (frames / ioo_s, "frames/s"),
        "ioo_koo_latency_p50_ms": (float(np.percentile(utt_ms, 50)), "ms"),
        "ioo_koo_latency_p90_ms": (float(np.percentile(utt_ms, 90)), "ms"),
        "dense_word_acc": (1.0 - q["dense_cer"], "ratio"),
        "ioo_koo_word_acc": (1.0 - q["ioo_koo_cer"], "ratio"),
        "parity_rate": (1.0 - q["parity_mismatch_rate"], "ratio"),
        "success_rate": (1.0 - q["fail_rate"], "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }
    notes = {
        "speedup_ioo_koo_over_dense": dense_s / ioo_s,
        **q,
        "setup_runs_s": setup_times,
        "dense_pass_s": rounds.seconds["dense"],
        "ioo_koo_pass_s": rounds.seconds["ioo_koo"],
        "latency_utterances": len(utt_ms),
        "latency_repeats_per_utterance": len(rounds.calls[0]),
    }
    return Result(metrics, rounds.attempted, rounds.failed, notes)


def run_traced(files, refs, workdir: Path, seconds: float, tracer: Tracer) -> Result:
    """Half the time untraced, half traced; per-layer self times come
    from the traced half, and the difference between the halves is the
    tracing overhead."""
    counts: dict[str, tuple[int, int]] = {}
    graph, _ = build_graph(workdir, tracer, counts)
    setup_spans = {s["name"]: s["end"] - s["start"] for s in tracer.spans}

    cfg = DecoderConfig(beam=BEAM)
    plain = Rounds()
    plain.run(files, graph, cfg, refs, seconds / 2)
    traced = Rounds(reference=plain.first)
    traced.run(files, graph, cfg, refs, seconds / 2, tracer)

    def layer(mode: str, name: str) -> float:
        return best_decile([row.get(name, 0.0)
                            for row in tracer.layer_self_time(f"pass.{mode}")])

    dense, ioo = plain.first["dense"], plain.first["ioo_koo"]
    frames, rows_out = dense.rows, ioo.rows
    blank_rows = frames - sum(c.nonblank_count for _, c in dense.compressed)
    slope_ms, intercept_ms = np.polyfit([c.frames for _, c in ioo.compressed],
                                        [best_decile(t) * 1e3 for t in traced.calls], 1)

    m: dict[str, tuple[float, str]] = {}
    m["posterior.load_s"] = (best_decile([
        row["posterior.load"] for mode in MODES
        for row in tracer.layer_self_time(f"pass.{mode}")]), "s")
    m["posterior.frames"] = (frames, "count")
    m["posterior.blank_frac"] = (blank_rows / frames, "ratio")
    for mode in MODES:
        m[f"compress.{mode}_s"] = (layer(mode, f"compress.{mode}"), "s")
    m["compress.ioo_koo_us_per_src_frame"] = (m["compress.ioo_koo_s"][0] / frames * 1e6, "us")
    m["compress.rows_out"] = (rows_out, "count")
    m["compress.frame_reduction"] = (frames / rows_out, "ratio")
    for mode, decoded in (("dense", frames), ("ioo_koo", rows_out)):
        m[f"decoder.{mode}_s"] = (layer(mode, f"decoder.{mode}"), "s")
        m[f"decoder.{mode}_us_per_frame"] = (m[f"decoder.{mode}_s"][0] / decoded * 1e6, "us")
    m["decoder.per_call_ms"] = (float(intercept_ms), "ms")
    m["decoder.per_frame_us"] = (float(slope_ms) * 1e3, "us")
    for mode, p in (("dense", dense), ("ioo_koo", ioo)):
        live = _live_stats(p.histograms, cfg.max_active)
        m[f"decoder.{mode}_live_mean"] = (live["mean"], "count")
        m[f"decoder.{mode}_live_peak"] = (live["peak"], "count")
        m[f"decoder.{mode}_max_active_bound_frac"] = (live["bound_frac"], "ratio")
    for mode, p in (("dense", dense), ("ioo_koo", ioo)):
        m[f"decoder.{mode}_failures"] = (p.failures, "count")
    q = _quality(plain)
    m["decoder.fail_rate"] = (q["fail_rate"], "ratio")
    for mode in MODES:
        m[f"scoring.{mode}_s"] = (layer(mode, f"scoring.{mode}"), "s")
    m["scoring.dense_cer"] = (q["dense_cer"], "ratio")
    m["scoring.ioo_koo_cer"] = (q["ioo_koo_cer"], "ratio")
    m["scoring.parity_mismatch_rate"] = (q["parity_mismatch_rate"], "ratio")

    for name in ("graph.parse_arpa", "graph.tlg_inputs", "wfst.compose_lg",
                 "wfst.rm_epsilon", "wfst.determinize", "wfst.push", "wfst.minimize",
                 "graph.rm_disambig", "wfst.compose_tlg", "wfst.write_text",
                 "wfst.read_text"):
        m[f"{name}_s"] = (setup_spans[name], "s")
    for stage in ("compose_lg", "rm_epsilon", "determinize", "push", "minimize"):
        states, arcs = counts[f"wfst.{stage}"]
        m[f"graph.states.{stage}"] = (states, "count")
        m[f"graph.arcs.{stage}"] = (arcs, "count")
    m["graph.states"] = (counts["graph"][0], "count")
    m["graph.arcs"] = (counts["graph"][1], "count")

    base = sum(best_decile(plain.seconds[mode]) for mode in MODES)
    over = sum(best_decile(traced.seconds[mode]) for mode in MODES) - base
    m["trace.overhead_s"] = (over, "s")
    m["trace.overhead_frac"] = (over / base, "ratio")

    notes = {
        "untraced_passes": {mode: len(plain.seconds[mode]) for mode in MODES},
        "traced_passes": {mode: len(traced.seconds[mode]) for mode in MODES},
        "single_decode_fit_utterances": len(traced.calls),
        "speedup_ioo_koo_over_dense": (best_decile(plain.seconds["dense"])
                                       / best_decile(plain.seconds["ioo_koo"])),
    }
    return Result(m, plain.attempted + traced.attempted, plain.failed + traced.failed, notes)
