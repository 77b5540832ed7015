"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately use different algorithm families from the
production code: exhaustive path enumeration and string-indexed dynamic
programs instead of subset constructions and token passing, plain
recursion instead of the tabular edit-distance, groupby instead of the
run-length scanner, dict-stored tokens with no cutoff bound instead of
the decoder's list-indexed costs, and enumerated simple epsilon paths
instead of the decoder's label-correcting epsilon closure.

``stochastic_oracle``, ``segment_blocks_oracle``, ``koo_select_oracle``,
``trim_oracle``, ``determinize_oracle``, ``minimize_oracle``,
``read_fst_text_oracle`` and ``write_fst_text_oracle`` are different: they keep earlier, plainer
versions of fast paths in the package, so that a rewrite can be held to
the same arrays, the same machines and the same error messages.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import Counter, deque
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple

import numpy as np

from spikefst import LabelSequence, PosteriorMatrix, SynthConfig, synth_posteriors
from spikefst.decoder import DecodeResult
from spikefst.errors import DataFormatError, DecodeError, FstError, ValidationError
from spikefst.graph import Lexicon, build_grammar_fst, build_lexicon_fst, build_token_fst, parse_arpa
from spikefst.posterior import CUSTOM_BLANK, ROW_SUM_TOL
from spikefst.wfst import EPSILON, ONE, ZERO, Arc, Fst, wplus, wtimes
from spikefst.wfst.ops import _QUANT, _relax


# ----------------------------------------------------------------------
# Label oracles
# ----------------------------------------------------------------------

def collapse_oracle(labels) -> list[int]:
    """CTC collapse via groupby: squeeze runs, then drop blanks."""
    return [k for k, _ in itertools.groupby(int(x) for x in labels) if k != 0]


def recursive_levenshtein(a, b) -> int:
    """Textbook exhaustive recursion on suffixes (memoized)."""
    a = tuple(a)
    b = tuple(b)

    @lru_cache(maxsize=None)
    def rec(i: int, j: int) -> int:
        if i == len(a):
            return len(b) - j
        if j == len(b):
            return len(a) - i
        if a[i] == b[j]:
            return rec(i + 1, j + 1)
        return 1 + min(rec(i + 1, j), rec(i, j + 1), rec(i + 1, j + 1))

    return rec(0, 0)


def stochastic_oracle(v: np.ndarray) -> None:
    """``check_stochastic`` as three full scans: finiteness, entry range,
    then row sums."""
    if not np.all(np.isfinite(v)):
        raise ValidationError("posterior matrix contains non-finite values")
    if np.any(v < -1e-12) or np.any(v > 1.0 + 1e-12):
        raise ValidationError("posterior entries must lie in [0, 1]")
    if v.shape[0] > 0:
        sums = v.sum(axis=1)
        bad = np.flatnonzero(np.abs(sums - 1.0) > ROW_SUM_TOL)
        if bad.size:
            raise ValidationError(
                f"row {bad[0]} sums to {sums[bad[0]]:.6f}, expected 1 +/- {ROW_SUM_TOL}"
            )


def segment_blocks_oracle(labels):
    """``segment_blocks`` through ``np.diff`` with -1 sentinels at both ends."""
    labels = np.asarray(labels)
    edges = np.flatnonzero(np.diff(labels, prepend=-1, append=-1))
    starts, ends = edges[:-1], edges[1:]
    return labels[starts], starts, ends


def koo_select_oracle(p: PosteriorMatrix, tokens, starts, ends, strategy: str = "max"):
    """``koo_select`` with two ``reduceat`` passes: each run's extreme, then
    the lowest slot that holds it."""
    extreme = {"max": np.maximum, "min": np.minimum}[strategy]
    lengths = np.asarray(ends) - starts
    offsets = np.cumsum(lengths) - lengths
    slots = np.arange(lengths.sum())
    frames = slots + np.repeat(starts - offsets, lengths)
    probs = p.values[frames, np.repeat(tokens, lengths)]
    best = np.repeat(extreme.reduceat(probs, offsets), lengths)
    first = np.minimum.reduceat(np.where(probs == best, slots, slots.size), offsets)
    return frames[first]


def compress_oracle(p: PosteriorMatrix, cfg) -> tuple[np.ndarray, tuple[int, ...], int]:
    """Every compression mode as a per-run loop over groupby runs, one row
    appended at a time.  Returns ``(values, source_map, nonblank_count)``."""
    vals = p.values
    T, V = vals.shape
    labels = [int(x) for x in np.argmax(vals, axis=1)]

    def onehot(tok: int) -> np.ndarray:
        row = np.zeros(V)
        row[tok] = 1.0
        return row

    runs, t = [], 0
    for tok, grp in itertools.groupby(labels):
        n = len(list(grp))
        runs.append((tok, t, t + n))
        t += n
    content = [t for t in range(T) if labels[t] != 0]
    rows: list[np.ndarray] = []
    srcs: list[int] = []
    nonblank = 0

    if cfg.mode == "dense":
        return vals, tuple(range(T)), len(content)
    if cfg.mode in ("ioo", "ioo_koo", "ioo_nb"):
        rows.append(onehot(0))
        srcs.append(-1)
        for i, (tok, s, e) in enumerate(runs):
            if tok == 0:
                if i > 0:
                    rows.append(onehot(0))
                    srcs.append(-1)
                continue
            if cfg.mode == "ioo_koo":
                probs = [float(vals[f, tok]) for f in range(s, e)]
                extreme = max if cfg.koo_strategy == "max" else min
                picks = [s + probs.index(extreme(probs))]
            else:
                picks = range(s, e)
            for f in picks:
                hot = cfg.mode == "ioo_nb" and (
                    cfg.nb_threshold is None or vals[f, tok] >= cfg.nb_threshold)
                rows.append(onehot(tok) if hot else vals[f])
                srcs.append(f)
                nonblank += 1
    elif cfg.mode == "aed_ioo":
        rows.append(onehot(0))
        srcs.append(-1)
        for f in range(T):
            rows += [vals[f], onehot(0)]
            srcs += [f, -1]
        nonblank = T
    elif cfg.mode == "average":
        for tok, s, e in runs:
            if tok == 0:
                rows.append(vals[s:e].mean(axis=0))
                srcs.append(s)
            else:
                rows += [vals[f] for f in range(s, e)]
                srcs += list(range(s, e))
        nonblank = len(content)
    else:
        if cfg.mode == "discard":
            keep = content
        elif cfg.mode == "lsd":
            keep = [f for f in range(T) if vals[f, 0] < cfg.lsd_threshold]
        else:  # swd
            w = cfg.swd_window
            keep = [f for f in range(T) if any(abs(f - u) <= w for u in content)]
        rows = [vals[f] for f in keep]
        srcs = keep
        nonblank = sum(1 for f in keep if labels[f] != 0)
    return np.array(rows, dtype=np.float64).reshape(len(rows), V), tuple(srcs), nonblank


# ----------------------------------------------------------------------
# FST oracles
# ----------------------------------------------------------------------

def trim_oracle(f: Fst) -> Fst:
    """``trim`` that remaps and rebuilds every arc, whether or not a state
    is dropped."""
    arcs = [f.arcs(s) for s in range(f.num_states)]
    fwd = {f.start}
    stack = [f.start]
    while stack:
        s = stack.pop()
        for a in arcs[s]:
            if a.nextstate not in fwd:
                fwd.add(a.nextstate)
                stack.append(a.nextstate)
    rev: list[list[int]] = [[] for _ in arcs]
    for s, row in enumerate(arcs):
        for a in row:
            rev[a.nextstate].append(s)
    bwd = set(f.finals)
    stack = list(f.finals)
    while stack:
        s = stack.pop()
        for prev in rev[s]:
            if prev not in bwd:
                bwd.add(prev)
                stack.append(prev)
    live = fwd & bwd
    if f.start not in live:
        return Fst([[]], 0, {}, f.isyms, f.osyms)
    order = sorted(live)
    remap = {s: i for i, s in enumerate(order)}
    out_arcs = [
        [Arc(a.ilabel, a.olabel, a.weight, remap[a.nextstate])
         for a in arcs[s] if a.nextstate in live]
        for s in order
    ]
    finals = {remap[s]: f.finals[s] for s in order if s in f.finals}
    return Fst(out_arcs, remap[f.start], finals, f.isyms, f.osyms)


class _OracleElem(NamedTuple):
    state: int
    weight: float
    out: tuple[int, ...]


def _close_elems_oracle(eps: list, elems: list[_OracleElem], limit: int) -> list[_OracleElem]:
    seeds: dict[tuple[int, tuple[int, ...]], float] = {}
    for e in elems:
        key = (e.state, e.out)
        if e.weight < seeds.get(key, ZERO):
            seeds[key] = e.weight
    if not any(eps[s] for s, _ in seeds):
        return [_OracleElem(s, w, z) for (s, z), w in seeds.items()]
    best = _relax(
        seeds,
        lambda key: [((t, key[1] + z), w) for t, w, z in eps[key[0]]],
        limit,
        "determinize: epsilon closure diverged (cyclic epsilon output?)",
    )
    return [_OracleElem(s, w, z) for (s, z), w in best.items()]


def _subset_key_oracle(elems: list[_OracleElem]) -> tuple:
    return tuple(sorted((e.state, e.out, round(e.weight, _QUANT)) for e in elems))


def determinize_oracle(f: Fst) -> Fst:
    """``determinize`` with ``NamedTuple`` subset elements, the arcs of each
    element scanned on every visit, and the closure called on every
    label's group."""
    budget = max(64, 10 * max(1, f.num_states))
    close_limit = 64 * (f.num_states + 2) * (f.num_arcs + 2)
    eps = [
        [(a.nextstate, a.weight, () if a.olabel == EPSILON else (a.olabel,))
         for a in row if a.ilabel == EPSILON]
        for row in map(f.arcs, range(f.num_states))
    ]
    start_elems = _close_elems_oracle(eps, [_OracleElem(f.start, ONE, ())], close_limit)
    ids: dict[tuple, int] = {_subset_key_oracle(start_elems): 0}
    arcs: list[list[Arc]] = [[]]
    finals: dict[int, float] = {}
    queue = deque([(0, start_elems)])
    while queue:
        src, elems = queue.popleft()
        _set_subset_final_oracle(f, arcs, finals, src, elems)
        by_label: dict[int, list[_OracleElem]] = {}
        for e in elems:
            for a in f.arcs(e.state):
                if a.ilabel == EPSILON:
                    continue
                z = e.out + ((a.olabel,) if a.olabel != EPSILON else ())
                by_label.setdefault(a.ilabel, []).append(
                    _OracleElem(a.nextstate, wtimes(e.weight, a.weight), z))
        for label in sorted(by_label):
            cands = _close_elems_oracle(eps, by_label[label], close_limit)
            w_min = min(e.weight for e in cands)
            head = cands[0].out[:1]
            if any(e.out[:1] != head for e in cands):
                head = ()
            emit = head[0] if head else EPSILON
            nxt = [_OracleElem(e.state, e.weight - w_min, e.out[len(head):]) for e in cands]
            key = _subset_key_oracle(nxt)
            dst = ids.get(key)
            if dst is None:
                dst = ids[key] = len(arcs)
                arcs.append([])
                if len(arcs) > budget:
                    raise FstError(
                        f"determinize: state budget {budget} exceeded; "
                        "machine is likely not determinizable"
                    )
                queue.append((dst, nxt))
            arcs[src].append(Arc(label, emit, w_min, dst))
    return Fst(arcs, 0, finals, f.isyms, f.osyms)


def _set_subset_final_oracle(f: Fst, arcs: list[list[Arc]], finals: dict[int, float],
                             state: int, elems: list[_OracleElem]) -> None:
    plain = ZERO
    pending: dict[tuple[int, ...], float] = {}
    for e in elems:
        wf = wtimes(e.weight, f.final_weight(e.state))
        if wf == ZERO:
            continue
        if e.out:
            pending[e.out] = wplus(pending.get(e.out, ZERO), wf)
        else:
            plain = wplus(plain, wf)
    if plain != ZERO:
        finals[state] = plain
    for z in sorted(pending):
        src = state
        for i, sym in enumerate(z):
            nxt = len(arcs)
            arcs.append([])
            arcs[src].append(Arc(EPSILON, sym, pending[z] if i == 0 else ONE, nxt))
            src = nxt
        finals[src] = ONE


def minimize_oracle(f: Fst) -> Fst:
    """``minimize`` that re-rounds and re-sorts every state's full
    signature in each refinement round."""
    g = trim_oracle(f)
    for s, row in enumerate(map(g.arcs, range(g.num_states))):
        seen = set()
        for a in row:
            if a.ilabel in seen:
                raise FstError(
                    f"minimize: state {s} has duplicate input label {a.ilabel}; "
                    "input must be deterministic"
                )
            seen.add(a.ilabel)

    def intern_all(keys: list) -> list[int]:
        ids: dict = {}
        return [ids.setdefault(k, len(ids)) for k in keys]

    block = intern_all([
        (True, round(g.final_weight(s), _QUANT)) if g.is_final(s) else (False, 0.0)
        for s in range(g.num_states)
    ])
    while True:
        sigs = []
        for s in range(g.num_states):
            sigs.append((block[s], tuple(sorted(
                (a.ilabel, a.olabel, round(a.weight, _QUANT), block[a.nextstate])
                for a in g.arcs(s)))))
        new_block = intern_all(sigs)
        if new_block == block:
            break
        block = new_block

    class_rep: dict[int, int] = {}
    order: list[int] = []
    queue = deque([g.start])
    seen_cls = {block[g.start]}
    while queue:
        s = queue.popleft()
        cls = block[s]
        if cls not in class_rep:
            class_rep[cls] = len(order)
            order.append(s)
        for a in g.arcs(s):
            if block[a.nextstate] not in seen_cls:
                seen_cls.add(block[a.nextstate])
                queue.append(a.nextstate)
    arcs: list[list[Arc]] = []
    finals: dict[int, float] = {}
    for new_id, rep in enumerate(order):
        arcs.append([Arc(a.ilabel, a.olabel, a.weight, class_rep[block[a.nextstate]])
                     for a in g.arcs(rep)])
        if g.is_final(rep):
            finals[new_id] = g.final_weight(rep)
    return Fst(arcs, 0, finals, g.isyms, g.osyms)


def read_fst_text_oracle(path, isyms=None, osyms=None) -> Fst:
    """``read_fst_text`` through ``list(map(int, ...))``, ``min(ids)`` and
    a state-growing closure."""
    arcs: list[list[Arc]] = []
    finals: dict[int, float] = {}
    start = -1

    def ensure(state: int) -> None:
        while len(arcs) <= state:
            arcs.append([])

    for ln, line in enumerate(Path(path).read_text().splitlines(), start=1):
        parts = line.split()
        if not parts:
            continue
        try:
            if len(parts) in (4, 5):
                ids = list(map(int, parts[:4]))
            elif len(parts) in (1, 2):
                ids = [int(parts[0])]
            else:
                raise ValueError("bad field count")
            w = float(parts[len(ids)]) if len(parts) > len(ids) else 0.0
        except ValueError:
            raise DataFormatError(f"{path}: line {ln}: malformed FST line {line!r}") from None
        if min(ids) < 0:
            raise DataFormatError(f"{path}: line {ln}: negative state id or label in {line!r}")
        if math.isnan(w):
            raise DataFormatError(f"{path}: line {ln}: NaN weight in {line!r}")
        if len(ids) == 4:
            src, dst, il, ol = ids
            ensure(max(src, dst))
            arcs[src].append(Arc(il, ol, w, dst))
        else:
            ensure(ids[0])
            finals[ids[0]] = w
        if start < 0:
            start = ids[0]
    if start < 0:
        arcs, start = [[]], 0
    return Fst(arcs, start, finals, isyms, osyms)


def write_fst_text_oracle(f: Fst, path) -> None:
    """``write_fst_text`` with one f-string per line."""
    lines: list[str] = []
    finals = sorted(f.finals)
    if not f.arcs(f.start) and f.is_final(f.start):
        lines.append(f"{f.start} {f.final_weight(f.start):.9g}")
        finals = [s for s in finals if s != f.start]
    elif not f.arcs(f.start) and (f.num_arcs or f.finals):
        raise FstError("start state has no arcs and is not final: trim before writing")
    for s in [f.start] + [s for s in range(f.num_states) if s != f.start]:
        for a in f.arcs(s):
            lines.append(f"{s} {a.nextstate} {a.ilabel} {a.olabel} {a.weight:.9g}")
    for s in finals:
        lines.append(f"{s} {f.final_weight(s):.9g}")
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))


def machine_parts(f: Fst):
    """Start, per-state arc lists in order, and finals in order: what two
    machines must share to be the same machine."""
    return f.start, [f.arcs(s) for s in range(f.num_states)], list(f.finals.items())


def same_outcome(fn, oracle, *args):
    """Run *fn* and *oracle* on *args*; both must return the same machine
    (by :func:`machine_parts`) or raise the same exception type and
    message.  Returns the machine, or None when both raised."""
    try:
        want = oracle(*args)
    except Exception as exc:  # the oracle's failure is the expected outcome
        try:
            fn(*args)
        except Exception as got:
            assert (type(got), str(got)) == (type(exc), str(exc))
            return None
        raise AssertionError(f"oracle raised {exc!r}, the package did not") from None
    got = fn(*args)
    assert machine_parts(got) == machine_parts(want)
    return got


def enum_weight_map(f: Fst, max_label_len: int = 6, max_steps: int | None = None):
    """Exhaustive path enumeration: {(istring, ostring): min weight} over
    accepting paths with at most *max_label_len* input symbols.  Only safe
    on machines whose epsilon structure cannot loop (acyclic tests)."""
    if max_steps is None:
        max_steps = 4 * max(1, f.num_states) + max_label_len
    out: dict[tuple[tuple[int, ...], tuple[int, ...]], float] = {}

    def visit(state: int, ils: tuple[int, ...], ols: tuple[int, ...], w: float, steps: int):
        if f.is_final(state):
            key = (ils, ols)
            cand = w + f.final_weight(state)
            if cand < out.get(key, math.inf):
                out[key] = cand
        if steps >= max_steps:
            return
        for a in f.arcs(state):
            nils = ils + ((a.ilabel,) if a.ilabel != EPSILON else ())
            if len(nils) > max_label_len:
                continue
            nols = ols + ((a.olabel,) if a.olabel != EPSILON else ())
            visit(a.nextstate, nils, nols, w + a.weight, steps + 1)

    visit(f.start, (), (), 0.0, 0)
    return out


def maps_match(m1, m2, tol: float = 1e-9) -> bool:
    if set(m1) != set(m2):
        return False
    return all(abs(m1[k] - m2[k]) <= tol for k in m1)


def fst_of(n: int, arcs, finals: dict, start: int = 0, isyms=None, osyms=None) -> Fst:
    """A machine of *n* states from ``(src, ilabel, olabel, weight, dst)`` tuples."""
    rows: list[list[Arc]] = [[] for _ in range(n)]
    for src, *arc in arcs:
        rows[src].append(Arc(*arc))
    return Fst(rows, start, finals, isyms, osyms)


def random_acyclic_fst(rng: np.random.Generator, max_states: int = 8,
                       n_ilabels: int = 3, n_olabels: int = 3,
                       eps_prob: float = 0.0, acceptor: bool = False) -> Fst:
    """Random acyclic machine with all arcs forward in state order and a
    guaranteed accepting path.  Weights are short decimals so summed path
    weights compare exactly at 1e-9."""
    n = int(rng.integers(2, max_states + 1))
    arcs = []
    finals = {}

    def rand_weight() -> float:
        return round(float(rng.uniform(0.0, 2.0)), 3)

    def rand_labels() -> tuple[int, int]:
        if eps_prob > 0 and rng.random() < eps_prob:
            return EPSILON, EPSILON
        il = int(rng.integers(1, n_ilabels + 1))
        ol = il if acceptor else int(rng.integers(1, n_olabels + 1))
        return il, ol

    # Spine guarantees an accepting path through every state.
    for s in range(n - 1):
        il, ol = rand_labels()
        arcs.append((s, il, ol, rand_weight(), s + 1))
    extra = int(rng.integers(0, n + 3))
    for _ in range(extra):
        src = int(rng.integers(0, n - 1))
        dst = int(rng.integers(src + 1, n))
        il, ol = rand_labels()
        arcs.append((src, il, ol, rand_weight(), dst))
    finals[n - 1] = rand_weight()
    for s in range(1, n - 1):
        if rng.random() < 0.25:
            finals[s] = rand_weight()
    return fst_of(n, arcs, finals)


def viterbi_oracle(graph: Fst, values: np.ndarray, acoustic_scale: float = 1.0) -> float:
    """Exhaustive best-alignment dynamic program: min cost over all paths
    consuming every frame and ending in a final state; inf when none."""

    def eps_close(costs: dict[int, float]) -> dict[int, float]:
        for _ in range(graph.num_states + 2):
            changed = False
            for s in list(costs):
                for a in graph.arcs(s):
                    if a.ilabel == EPSILON:
                        c = costs[s] + a.weight
                        if c < costs.get(a.nextstate, math.inf) - 1e-15:
                            costs[a.nextstate] = c
                            changed = True
            if not changed:
                break
        return costs

    cur = eps_close({graph.start: 0.0})
    for t in range(values.shape[0]):
        nxt: dict[int, float] = {}
        for s, c in cur.items():
            for a in graph.arcs(s):
                if a.ilabel == EPSILON:
                    continue
                p = values[t, a.ilabel - 1]
                if p <= 0.0:
                    continue
                nc = c + a.weight + acoustic_scale * -math.log(p)
                if nc < nxt.get(a.nextstate, math.inf):
                    nxt[a.nextstate] = nc
        if not nxt:
            return math.inf
        cur = eps_close(nxt)
    return min(
        (c + graph.final_weight(s) for s, c in cur.items() if graph.is_final(s)),
        default=math.inf,
    )


def fixpoint_oracle(graph: Fst, frames, cfg):
    """Dict-stored token passing that follows epsilon arcs at search time:
    after each frame's emitting arcs, epsilon sources holding a token are
    swept in sorted order until a sweep changes nothing, and pruning then
    filters the dict.  This is how ``decode`` searched before it compiled
    epsilon closures into its table; the two differ only in how ties
    between equal-cost routes through epsilon arcs break, and in float
    rounding when an epsilon weight is added, so on graphs from
    ``build_tlg`` they give the same results.  Returns a ``DecodeResult``
    with zero wall time; carries ``inf``-cost tokens."""
    values = frames.values
    source_map = getattr(frames, "source_map", None)
    arcs = [a for s in range(graph.num_states) for a in graph.arcs(s)]
    max_ilabel = max((a.ilabel for a in arcs), default=0)
    if max_ilabel > values.shape[1]:
        raise ValidationError(
            f"graph consumes input label {max_ilabel} but posteriors have only "
            f"{values.shape[1]} columns (label k reads column k-1)"
        )
    emit, eps, aid = [], {}, 0
    for s in range(graph.num_states):
        s_emit, s_eps = [], []
        for a in graph.arcs(s):
            if a.ilabel == EPSILON:
                s_eps.append((a.weight, a.nextstate, aid))
            else:
                s_emit.append((a.ilabel - 1, a.weight, a.nextstate, aid))
            aid += 1
        emit.append(s_emit)
        if s_eps:
            eps[s] = s_eps
    max_passes = graph.num_states + 8

    def eps_fixpoint(active: dict) -> None:
        for _ in range(max_passes):
            changed = False
            for s in sorted(eps.keys() & active.keys()):
                cost, trace = active[s]
                for w, ns, a in eps[s]:
                    nc = cost + w
                    entry = active.get(ns)
                    if entry is None or nc < entry[0]:
                        active[ns] = (nc, (trace, (a,), -1))
                        changed = True
            if not changed:
                return
        raise FstError("non-emitting arcs did not reach a fixpoint (negative cycle?)")

    with np.errstate(divide="ignore"):
        rows = (cfg.acoustic_scale * np.where(values > 0.0, -np.log(values), math.inf)).tolist()
    active = {graph.start: (0.0, None)}
    eps_fixpoint(active)
    histogram = []
    for t, row in enumerate(rows):
        nxt: dict = {}
        for s in sorted(active):
            cost, trace = active[s]
            for col, w, ns, a in emit[s]:
                ac = row[col]
                if ac == math.inf:
                    continue
                nc = cost + w + ac
                entry = nxt.get(ns)
                if entry is None or nc < entry[0]:
                    nxt[ns] = (nc, (trace, (a,), t))
        if not nxt:
            raise DecodeError(t)
        eps_fixpoint(nxt)
        cutoff = min(e[0] for e in nxt.values()) + cfg.beam
        active = {s: e for s, e in nxt.items() if e[0] <= cutoff}
        if len(active) > cfg.max_active:
            kept = heapq.nsmallest(cfg.max_active, [(e[0], s) for s, e in active.items()])
            active = {s: nxt[s] for _, s in kept}
        if not active:
            raise DecodeError(t)
        histogram.append(len(active))

    return _oracle_result(graph, arcs, active, values.shape[0], source_map, histogram)


def eps_paths_oracle(graph: Fst) -> dict[int, dict[int, tuple[float, tuple[int, ...]]]]:
    """Every state's cheapest input-epsilon path to each other state it
    reaches, ``{s: {f: (weight, arc ids)}}``, by enumerating every simple
    epsilon path.  Weights are summed from the first arc on; among equal
    weights the path with fewer arcs wins, then the one with lower arc ids
    (the graph's arcs numbered in state order) in path order.  Raises
    ``FstError`` if some epsilon cycle has negative weight."""
    eps: dict[int, list[tuple[int, Arc]]] = {}
    aid = 0
    for s in range(graph.num_states):
        for a in graph.arcs(s):
            if a.ilabel == EPSILON:
                eps.setdefault(s, []).append((aid, a))
            aid += 1
    out: dict[int, dict[int, tuple[float, tuple[int, ...]]]] = {}

    def walk(on_path, weights, ids, best):
        for i, a in eps.get(on_path[-1], ()):
            if a.nextstate in on_path:
                cycle = weights[on_path.index(a.nextstate):] + [a.weight]
                if sum(cycle) < 0:
                    raise FstError("non-emitting arcs did not reach a fixpoint (negative cycle?)")
                continue
            key = (sum(weights + [a.weight]), len(ids) + 1, ids + (i,))
            if key < best.get(a.nextstate, (math.inf,)):
                best[a.nextstate] = key
            walk(on_path + [a.nextstate], weights + [a.weight], ids + (i,), best)

    for s in eps:
        best: dict = {}
        walk([s], [], (), best)
        out[s] = {f: (v, ids) for f, (v, _, ids) in best.items()}
    return out


def search_oracle(graph: Fst, frames, cfg):
    """Dict-stored token passing with no cutoff bound, over the epsilon
    contract of ``decoder.py`` computed from ``eps_paths_oracle``: each
    live state, in sorted order, relaxes its emitting arcs in arc order,
    then one continuation per emitting arc into an epsilon state s and
    per state f that s reaches, ordered by s, then arc order, then f, at
    cost ``c + (u + v) + acoustic``.  A pure-blank row (cost 0 on column
    0, ``inf`` elsewhere) followed by a row that is not is no step of its
    own: the next row's step takes, per live state, each blank move
    ``s -> m`` in move order and then each move of ``m``, at cost
    ``c + (wb + w) + acoustic``, with no prune in between.  Candidates are
    stored in a state -> (cost, trace) dict and pruned after each step.
    Returns a ``DecodeResult`` with zero wall time and raises the same
    errors as ``decode`` (``inf``-cost tokens aside: this search carries
    them, ``decode`` drops them)."""
    values = frames.values
    source_map = getattr(frames, "source_map", None)
    arcs = [a for s in range(graph.num_states) for a in graph.arcs(s)]
    max_ilabel = max((a.ilabel for a in arcs), default=0)
    if max_ilabel > values.shape[1]:
        raise ValidationError(
            f"graph consumes input label {max_ilabel} but posteriors have only "
            f"{values.shape[1]} columns (label k reads column k-1)"
        )
    closure = eps_paths_oracle(graph)
    moves = []  # per state: (column, weight, next, arc ids) in contract order
    aid = 0
    for s in range(graph.num_states):
        direct, via = [], []
        for a in graph.arcs(s):
            if a.ilabel != EPSILON:
                direct.append((a.ilabel - 1, a.weight, a.nextstate, (aid,)))
                for f, (v, ids) in sorted(closure.get(a.nextstate, {}).items()):
                    via.append((a.nextstate, len(via),
                                (a.ilabel - 1, a.weight + v, f, (aid,) + ids)))
            aid += 1
        moves.append(direct + [m for _, _, m in sorted(via)])

    with np.errstate(divide="ignore"):
        rows = (cfg.acoustic_scale * np.where(values > 0.0, -np.log(values), math.inf)).tolist()
    pure = [row[0] == 0.0 and all(c == math.inf for c in row[1:]) for row in rows]
    active = {graph.start: (0.0, None)}
    for f, (v, ids) in closure.get(graph.start, {}).items():
        active[f] = (v, (None, ids, -1))
    histogram = []
    for t, row in enumerate(rows):
        if pure[t] and t + 1 < len(rows) and not pure[t + 1]:
            continue  # searched together with row t + 1
        folded = t > 0 and pure[t - 1] and not pure[t]
        nxt: dict = {}
        for s in sorted(active):
            cost, trace = active[s]
            if folded:
                # a blank move s -> m on row t - 1, then a move of m on row t
                cands = [(col, bw + w, ns, ids, (trace, bids, t - 1))
                         for bcol, bw, m, bids in moves[s] if bcol == 0
                         for col, w, ns, ids in moves[m]]
            else:
                cands = [(col, w, ns, ids, trace) for col, w, ns, ids in moves[s]]
            for col, w, ns, ids, prev in cands:
                ac = row[col]
                if ac == math.inf:
                    continue
                nc = cost + w + ac
                entry = nxt.get(ns)
                if entry is None or nc < entry[0]:
                    nxt[ns] = (nc, (prev, ids, t))
        if not nxt:
            raise DecodeError(t)
        cutoff = min(e[0] for e in nxt.values()) + cfg.beam
        active = {s: e for s, e in nxt.items() if e[0] <= cutoff}
        if len(active) > cfg.max_active:
            kept = heapq.nsmallest(cfg.max_active, [(e[0], s) for s, e in active.items()])
            active = {s: nxt[s] for _, s in kept}
        if not active:
            raise DecodeError(t)
        histogram.append(len(active))
    return _oracle_result(graph, arcs, active, values.shape[0], source_map, histogram)


def _oracle_result(graph: Fst, arcs, active: dict, n_frames: int, source_map,
                   histogram) -> DecodeResult:
    """The best final token of *active*, ``{state: (cost, trace)}`` with
    traces ``(prev, arc ids, frame or -1)``, as a ``DecodeResult`` with
    zero wall time."""
    best_state, best_total = -1, math.inf
    for s in sorted(active):
        wf = graph.final_weight(s)
        if wf == math.inf:
            continue
        total = active[s][0] + wf
        if total < best_total:
            best_state, best_total = s, total
    if best_state < 0:
        raise DecodeError(n_frames, "no final state reachable at end of input")
    steps = []
    node = active[best_state][1]
    while node is not None:
        node, ids, frame = node
        steps += [(arcs[i], frame) for i in reversed(ids)]
    steps.reverse()
    tokens = []
    for a, frame in steps:
        if a.ilabel != EPSILON:
            src = frame if source_map is None else source_map[frame]
            tokens.append((src if src != CUSTOM_BLANK else -1, a.ilabel))
    return DecodeResult(
        words=tuple(a.olabel for a, _ in steps if a.olabel != EPSILON),
        tokens=tuple(tokens),
        total_cost=best_total,
        frames_processed=n_frames,
        wall_time_ms=0.0,
        tokens_alive_histogram=tuple(histogram),
        path_graph_costs=tuple(a.weight for a, _ in steps),
    )


def random_decodable_graph(rng: np.random.Generator, max_states: int = 50,
                           vocab: int = 5) -> Fst:
    """Random emitting graph where every state has an emitting arc and a
    final weight, so any frame count has at least one alignment."""
    n = int(rng.integers(3, max_states + 1))
    arcs = []
    finals = {}
    for s in range(n):
        for _ in range(int(rng.integers(1, 4))):
            il = int(rng.integers(1, vocab + 1))
            ol = int(rng.integers(0, vocab + 1))
            dst = int(rng.integers(0, n))
            arcs.append((s, il, ol, round(float(rng.uniform(0.0, 3.0)), 3), dst))
        if s + 1 < n and rng.random() < 0.3:
            # sparse forward-only non-emitting arcs: no epsilon cycles
            arcs.append((s, EPSILON, 0, round(float(rng.uniform(0.0, 1.0)), 3), s + 1))
        finals[s] = round(float(rng.uniform(0.0, 1.0)), 3)
    return fst_of(n, arcs, finals)


def random_posteriors(rng: np.random.Generator, frames: int, vocab: int) -> PosteriorMatrix:
    raw = rng.dirichlet(np.ones(vocab), size=frames) if frames else np.empty((0, vocab))
    return PosteriorMatrix(raw)


def random_search_case(rng: np.random.Generator, vocab: int = 4):
    """A small graph and input built to stress the search's edge cases:
    quantised weights (so costs tie), epsilon:word chains, finals reached
    only through epsilon arcs, non-negative epsilon cycles, and rows that
    are Dirichlet, two-way ties or one-hot (column 0 most often, as for
    inserted blanks).  Most graphs also carry an epsilon diamond whose
    tie is decided by the order of a state's continuation entries (see
    ``decoder.py``).  Returns ``(graph, PosteriorMatrix)``; many cases
    have no surviving path."""
    n = int(rng.integers(2, 13))
    arcs = []
    finals = {}

    def q() -> float:
        return float(rng.choice((0.0, 0.5, 1.0, 1.5, 4.0, 12.0)))

    for s in range(n):
        for _ in range(int(rng.integers(1, 5))):
            il = 1 if rng.random() < 0.4 else int(rng.integers(1, vocab + 1))
            arcs.append((s, il, int(rng.integers(0, 4)) * 10, q(), int(rng.integers(0, n))))
        for _ in range(int(rng.integers(0, 3))):  # epsilon:word chain link or jump
            dst = s + 1 if s + 1 < n and rng.random() < 0.6 else int(rng.integers(0, n))
            arcs.append((s, EPSILON, int(rng.integers(0, 4)) * 10 + 1, q() % 2, dst))
        if rng.random() < 0.5:
            finals[s] = q()
    size = n
    if rng.random() < 0.5:  # a final state entered only by epsilon arcs
        f, size = size, size + 1
        for s in rng.choice(n, size=int(rng.integers(1, 3)), replace=False):
            arcs.append((int(s), EPSILON, 99, q(), f))
        finals[f] = q()
    if rng.random() < 0.8:
        # a < x < b < y, one frame from s: x is entered cheaply only through
        # a, and a-x-y ties b-y, so the word on y depends on whether the
        # continuation through a comes before the one through b
        s = int(rng.integers(0, n))
        a, x, b, y = range(size, size + 4)
        il = 1 if rng.random() < 0.6 else int(rng.integers(1, vocab + 1))
        w, w1, w2 = (q() % 2 for _ in range(3))
        arcs += [(s, il, 0, w, a), (s, il, 0, w, b), (s, il, 0, w + 12.0, x),
                 (a, EPSILON, 0, w1, x), (x, EPSILON, 41, w2, y),
                 (b, EPSILON, 51, w1 + w2, y), (y, 1, 0, 0.0, y),
                 (y, il, 0, 0.0, int(rng.integers(0, n)))]
        finals[y] = 0.0
        size += 4

    rows = []
    for _ in range(int(rng.integers(0, 10))):
        kind = rng.random()
        row = np.zeros(vocab)
        if kind < 0.35:
            row[0 if rng.random() < 0.6 else int(rng.integers(0, vocab))] = 1.0
        elif kind < 0.6:
            row[rng.choice(vocab, size=2, replace=False)] = 0.5
        else:
            row = rng.dirichlet(np.ones(vocab))
        rows.append(row)
    g = fst_of(size, arcs, finals)
    return g, PosteriorMatrix(np.array(rows).reshape(len(rows), vocab))


def spiky_search_case(rng: np.random.Generator, vocab: int = 4):
    """A ``random_search_case`` graph on spiky rows.  Each row puts
    0.9-0.99 on one column (column 0 most often, as for blanks) and
    spreads the rest by a Dirichlet draw, so every other column costs
    more than -log(0.1) and, at small beams, most live states read only
    the peak column's arcs.  One more epsilon diamond is planted, like
    ``random_search_case``'s, but with x entered on a non-blank column,
    so on a blank-peaked row the arc into x misses the bound while the
    continuations through a and b, on the blank column, tie at y.
    Returns ``(graph, PosteriorMatrix)``."""
    g, frames = random_search_case(rng, vocab)
    n = g.num_states
    s = int(rng.integers(0, n))
    a, x, b, y = range(n, n + 4)
    w1, w2 = (float(rng.choice((0.0, 0.5, 1.0))) for _ in range(2))
    arcs = [(src, *arc) for src, arc in g.all_arcs()] + [
        (s, 1, 0, 0.0, a), (s, 1, 0, 0.0, b), (s, int(rng.integers(2, vocab + 1)), 0, 0.0, x),
        (a, EPSILON, 0, w1, x), (x, EPSILON, 41, w2, y), (b, EPSILON, 51, w1 + w2, y),
        (y, 1, 0, 0.0, y)]
    g = fst_of(n + 4, arcs, {**g.finals, y: 0.0})

    n = frames.values.shape[0]
    peak = rng.uniform(0.9, 0.99, size=n)
    rows = (1.0 - peak)[:, None] * rng.dirichlet(np.ones(vocab), size=n)
    cols = np.where(rng.random(n) < 0.6, 0, rng.integers(0, vocab, size=n))
    rows[np.arange(n), cols] += peak
    return g, PosteriorMatrix(rows)


# ----------------------------------------------------------------------
# Toy language: lexicon + bigram LM + corpora
# ----------------------------------------------------------------------

# 25 words over 10 letter-tokens.  Deliberate structure: confusable pairs
# differing in one token (kasa/kase, tina/tino, mina/mino, sota/soto,
# tesa/tesu) and doubled-token pairs whose collapse merges without a
# separating blank (ata/atta, oto/otto).
TOY_WORDS: dict[str, str] = {
    "ka": "k a", "se": "s e", "ti": "t i", "no": "n o", "mu": "m u",
    "kasa": "k a s a", "kase": "k a s e",
    "tina": "t i n a", "tino": "t i n o",
    "mina": "m i n a", "mino": "m i n o",
    "sota": "s o t a", "soto": "s o t o",
    "tesa": "t e s a", "tesu": "t e s u",
    "musu": "m u s u", "nako": "n a k o", "kata": "k a t a",
    "ata": "a t a", "atta": "a t t a",
    "oto": "o t o", "otto": "o t t o",
    "ik": "i k", "us": "u s", "em": "e m",
}

# Frequent words dominate the LM training text; their confusable partners
# stay rare, which is what lets the language model rescue weak frames.
TOY_FREQUENT = [
    "kasa", "tina", "mina", "sota", "tesa", "musu", "nako", "kata",
    "atta", "otto", "ka", "se", "ti", "no", "mu",
]
TOY_RARE = ["kase", "tino", "mino", "soto", "tesu", "ata", "oto", "ik", "us", "em"]

# word -> (confusable partner, index of the token where they differ)
WORD_CONFUSABLES = {
    "kasa": ("kase", 3),
    "tina": ("tino", 3),
    "mina": ("mino", 3),
    "sota": ("soto", 3),
    "tesa": ("tesu", 3),
}


def toy_lexicon_text() -> str:
    return "".join(f"{w}\t{p}\n" for w, p in sorted(TOY_WORDS.items()))


def sample_sentences(rng: np.random.Generator, n: int, lo: int = 2, hi: int = 5,
                     rare_rate: float = 0.02) -> list[list[str]]:
    out = []
    for _ in range(n):
        length = int(rng.integers(lo, hi + 1))
        words = []
        for _ in range(length):
            pool = TOY_RARE if rng.random() < rare_rate else TOY_FREQUENT
            words.append(pool[int(rng.integers(0, len(pool)))])
        out.append(words)
    return out


def make_bigram_arpa(sentences: list[list[str]], discount: float = 0.4) -> str:
    """Absolutely-discounted bigram model in ARPA text form."""
    uni = Counter()
    bi = Counter()
    ctx = Counter()
    for words in sentences:
        seq = ["<s>"] + list(words) + ["</s>"]
        for w in seq[1:]:
            uni[w] += 1
        for a, b in zip(seq, seq[1:]):
            bi[(a, b)] += 1
            ctx[a] += 1
    total = sum(uni.values())
    p_uni = {w: c / total for w, c in uni.items()}

    followers: dict[str, list[str]] = {}
    for (a, b), _ in bi.items():
        followers.setdefault(a, []).append(b)

    def bow(word: str) -> float:
        # Clamped to <= 1 so backoff arcs never get a negative cost; small
        # vocabularies push the exact normalizer above 1 routinely.
        if word not in followers:
            return 1.0
        seen = followers[word]
        left = discount * len(seen) / ctx[word]
        unseen = 1.0 - sum(p_uni.get(w, 0.0) for w in seen)
        return min(1.0, left / unseen) if unseen > 1e-12 else 0.01

    uni_lines = []
    vocab = ["<s>"] + sorted(uni)
    for w in vocab:
        logp = -99.0 if w == "<s>" else math.log10(p_uni[w])
        uni_lines.append(f"{logp:.6f}\t{w}\t{math.log10(bow(w)):.6f}")
    bi_lines = []
    for (a, b), c in sorted(bi.items()):
        logp = math.log10((c - discount) / ctx[a]) if c > discount else math.log10(0.01 / ctx[a])
        bi_lines.append(f"{logp:.6f}\t{a} {b}")

    return (
        "\\data\\\n"
        f"ngram 1={len(uni_lines)}\n"
        f"ngram 2={len(bi_lines)}\n\n"
        "\\1-grams:\n" + "\n".join(uni_lines) + "\n\n"
        "\\2-grams:\n" + "\n".join(bi_lines) + "\n\n"
        "\\end\\\n"
    )


def bigram_route_log10(model, words: list[str]) -> float:
    """What an epsilon-backoff grammar machine computes for a sentence:
    per transition, the better of the direct bigram route and the
    backoff-then-unigram route (both land in the same context state, so
    the global best path decomposes per transition)."""
    uni, bi = model.grams[0], model.grams[1]

    def trans(h: str, w: str) -> float:
        routes = []
        if (h, w) in bi:
            routes.append(bi[(h, w)][0])
        bow = uni.get((h,), (0.0, 0.0))[1]
        if (w,) in uni:
            routes.append(bow + uni[(w,)][0])
        return max(routes)

    total = 0.0
    h = "<s>"
    for w in list(words) + ["</s>"]:
        total += trans(h, w)
        h = w
    return total


class ToyLang:
    """Lexicon, bigram model, and component machines for one toy language."""

    def __init__(self, seed: int = 7, n_train: int = 400):
        rng = np.random.default_rng(seed)
        self.lexicon = Lexicon(
            [(w, tuple(p.split())) for w, p in sorted(TOY_WORDS.items())]
        )
        # one singleton sentence per word guarantees full unigram coverage
        self.train_sentences = sample_sentences(rng, n_train) + [
            [w] for w in sorted(TOY_WORDS)
        ]
        self.arpa_text = make_bigram_arpa(self.train_sentences)
        self.model = parse_arpa(self.arpa_text)
        self.token_fst = build_token_fst(self.lexicon.token_table)
        self.lexicon_fst = build_lexicon_fst(self.lexicon, add_disambig=True)
        self.grammar_fst = build_grammar_fst(self.model, self.lexicon.word_table)

    def word_ids(self, words: list[str]) -> list[int]:
        return [self.lexicon.word_table.find_id(w) for w in words]

    def word_syms(self, ids) -> list[str]:
        return [self.lexicon.word_table.find_symbol(i) for i in ids]

    def labels_for(self, words: list[str]) -> LabelSequence:
        """Posterior-space token indices (graph id - 1) for a sentence."""
        toks: list[int] = []
        for w in words:
            toks.extend(self.lexicon.token_table.find_id(t) - 1
                        for t in TOY_WORDS[w].split())
        return LabelSequence(tuple(toks))

    @property
    def vocab_size(self) -> int:
        from spikefst.graph import posterior_vocab_size

        return posterior_vocab_size(self.lexicon.token_table)


def large_build_inputs() -> tuple[Fst, Fst, Fst]:
    """Token, lexicon and grammar machines of a graph about 40 times the
    size of ``ToyLang``'s (numpy seed 3): 200 words of 2-6 tokens drawn
    from 20, every pronunciation distinct, and a bigram model over 2 000
    sentences of 2-7 Zipf-drawn words plus one singleton per word."""
    rng = np.random.default_rng(3)
    tokens = [f"t{k:02d}" for k in range(20)]
    prons: dict[tuple[str, ...], str] = {}
    while len(prons) < 200:
        pron = tuple(tokens[k] for k in rng.integers(0, 20, size=int(rng.integers(2, 7))))
        prons.setdefault(pron, f"w{len(prons):03d}")
    lexicon = Lexicon([(w, pron) for pron, w in prons.items()])
    words = list(prons.values())
    zipf = 1.0 / np.arange(1, len(words) + 1)
    zipf /= zipf.sum()
    sentences = [[words[k] for k in rng.choice(len(words), size=int(rng.integers(2, 8)), p=zipf)]
                 for _ in range(2000)] + [[w] for w in words]
    model = parse_arpa(make_bigram_arpa(sentences))
    return (build_token_fst(lexicon.token_table), build_lexicon_fst(lexicon, add_disambig=True),
            build_grammar_fst(model, lexicon.word_table))


def make_corpus(lang: ToyLang, rng: np.random.Generator, n_utts: int,
                cfg: SynthConfig | None = None, lo: int = 2, hi: int = 5,
                rare_rate: float = 0.0):
    """(utt_id, words, PosteriorMatrix) triples of clean synthetic speech."""
    if cfg is None:
        cfg = SynthConfig(vocab_size=lang.vocab_size, peak=0.95, noise=0.04)
    sentences = sample_sentences(rng, n_utts, lo=lo, hi=hi, rare_rate=rare_rate)
    corpus = []
    for i, words in enumerate(sentences):
        labels = lang.labels_for(words)
        mat = synth_posteriors(labels, cfg, seed=int(rng.integers(0, 2**31)))
        corpus.append((f"utt{i:04d}", words, mat))
    return corpus


def corrupt_spikes(lang: ToyLang, p: PosteriorMatrix, words: list[str],
                   rng: np.random.Generator, rate: float = 0.5,
                   peak_range=(0.55, 0.98)) -> tuple[PosteriorMatrix, int]:
    """Flip the distinguishing spike of confusable words to the partner
    token with a weak peak, keeping the true token as a strong runner-up.

    The corrupted token string still spells a real word (the partner), so
    a one-hot rewrite of the weak frame forces a clean substitution while
    the soft original lets the language model recover the truth.  Returns
    the corrupted matrix and the number of corrupted spikes.
    """
    tt = lang.lexicon.token_table
    values = np.array(p.values)
    labels = np.argmax(values, axis=1)
    V = values.shape[1]

    # non-blank argmax runs, one per label token in a clean matrix
    runs: list[tuple[int, int, int]] = []  # (token, start, end)
    t = 0
    while t < len(labels):
        tok = int(labels[t])
        end = t
        while end + 1 < len(labels) and labels[end + 1] == tok:
            end += 1
        if tok != 0:
            runs.append((tok, t, end))
        t = end + 1

    n_corrupted = 0
    idx = 0
    for w in words:
        pron = TOY_WORDS[w].split()
        if w in WORD_CONFUSABLES and rng.random() < rate:
            partner, pos = WORD_CONFUSABLES[w]
            true_tok = tt.find_id(pron[pos]) - 1
            wrong_tok = tt.find_id(TOY_WORDS[partner].split()[pos]) - 1
            tok, start, end = runs[idx + pos]
            assert tok == true_tok
            peak = float(rng.uniform(*peak_range))
            truth = (1.0 - peak) * 0.85
            rest = (1.0 - peak - truth) / (V - 2)
            row = np.full(V, rest)
            row[wrong_tok] = peak
            row[true_tok] = truth
            values[start:end + 1] = row
            n_corrupted += 1
        idx += len(pron)
    return PosteriorMatrix(values), n_corrupted
