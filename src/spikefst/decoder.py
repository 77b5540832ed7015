"""Frame-synchronous Viterbi beam search over a static decoding graph.

Token passing: one live token per graph state, advanced one posterior
frame at a time.  Each frame relaxes the live tokens through their
compiled entries (input label k consumes posterior column k-1; blank is
input 1, column 0), then prunes by beam width and the live-token cap.
Costs are negative natural logs plus graph weights, so lower is better
and the result is the min-cost path to a final state.

The search runs over a per-graph table compiled on the first decode of
that graph and kept while the graph lives; a graph never changes, so its
table never goes stale.  Input-epsilon (non-emitting) arcs are compiled
away there (Mohri, Pereira & Riley, 2002).  A state's entries are,
first, one per emitting arc ``p -x/u-> s`` in arc order; then one
continuation per such arc and per state ``f`` that ``s`` reaches
through epsilon arcs, at weight ``u + v``, ``v`` being the cheapest
epsilon path's weight.  Continuations are ordered by ``s``, the
epsilon state they pass through, then by arc order, then by ``f``.
Among epsilon paths of equal weight the one with fewer arcs wins, then
the one whose arc ids (the graph's arcs in state order) are lower,
compared in path order.  A candidate costs
``c + (u + v) + acoustic``, and traceback reports every arc an entry
crosses with its own weight.  The start state's epsilon closure gives
the initial tokens.  A negative-weight epsilon cycle anywhere in the
graph raises :class:`FstError` when the table is compiled, whether or
not a token would reach it.

Token costs live in two lists indexed by state, swapped each step, with
``inf`` for "no token".  A live state's cost is reset to ``inf`` as it
is expanded, and a reached state that pruning drops is reset when it is
dropped, so the list is all ``inf`` again when it is reused.  A
candidate is stored only when it is strictly cheaper than the state's
current cost, so zero-probability (``inf``) candidates are never stored.

Every entry carries its *origin*, ``(p, *arcs crossed)``: the state it
leaves and the arcs it crosses, built once when the table is compiled.
Storing a candidate writes its cost and its entry's origin, so a store
creates no object.  A step's origins live in a state ->
origin dict, the step table, whose keys are the states reached.  Step
tables are kept for traceback, which starts at the best final state and
reads the tables from the last back, each origin naming the state to
read in the table before it.  The first table holds the initial tokens:
``(start,)`` for the start state and ``(start, *arcs)`` for each state
of its epsilon closure.

Kept tables grow with steps times reached states, so every
``_SETTLE_EVERY`` steps the live tokens' ancestors are walked back
through the tables, no further than the step of the previous try, to
the latest step where they meet in one state.  The path up to that
state is the *settled prefix*: it is resolved into a flat list of arcs,
and the tables it crosses are dropped.  If the ancestors do not meet,
nothing is dropped.  A decode thus holds its acoustic rows plus the
step tables since the last settled step (Kaldi's partial traceback,
Povey et al., 2011).

Before the expansion, the entries of the previous frame's best token
are relaxed; the cheapest of those costs plus the beam bounds this
frame's cutoff from above (those candidates are among the frame's), so a
candidate above the bound could never survive pruning and is dropped
instead of stored.  A state's cost only falls during a step, so every
reached state ends at or below the bound, and when the cutoff is at or
above the bound the beam prune would keep every reached state: it runs
only when the cutoff is below the bound, that is when another token
gives a candidate strictly cheaper than every one of the previous best's.

Each row's cheapest column ``h`` and second-cheapest cost are found
once per call.  A live state ``s`` reads the table's per-column view of
its entries, only those on column ``h``, when ``cost[s] + minw[s] +
second > bound``, ``minw[s]`` being its cheapest entry weight: every
entry off column ``h`` then costs at least that much and could not be
stored, and the view keeps entry order, so the same candidates are
stored in the same order.  On a row with one finite cost (an inserted
blank, an ``ioo_nb`` one-hot row) ``second`` is ``inf``, so every state
reads the view while the bound is finite, and when it is ``inf`` no
off-column candidate, itself of cost ``inf``, is ever stored.

A blank row carries only position.  A row is *pure blank* when its
acoustic cost is 0 on column 0 and ``inf`` on every other column, as an
``ioo`` inserted blank is; the decision reads the row's values, never a
source map.  A pure-blank row followed by a row that is not is folded
into that row: the two take one search step over the table's
through-blank entries.  For each state ``s``, each of its column-0
entries ``s -> m`` of weight ``wb`` and each entry of ``m`` on column
``x`` of weight ``wx``, in that order, ``s`` has one through-blank entry
on column ``x`` of weight ``wb + wx`` (so costs equal the unfolded
search's up to float order).  A folded step reads only those, since the
blank row must be consumed by a blank arc, and no prune happens between
the two rows; the bound, the per-column views and ``minw`` work as on
any step, over the through-blank entries and the second row's costs.
A trailing pure-blank row, and each but the last of a run of them, keep
an ordinary step.  A through-blank entry's origin is ``s`` followed by
its blank arcs and then its arcs, so every step stores one origin per
reached state and no step stores a row.  Traceback needs none:
a direct entry crosses one emitting arc, a through-blank entry two and
the start closure none, so the path crosses exactly one emitting arc
per row, in row order.  Its k-th emitting arc is row k's token, which
the source map turns into a source frame (-1 for an inserted blank).
``frames_processed`` is the row count, ``tokens_alive_histogram`` has one
entry per search step, and a :class:`DecodeError` at a folded step
names its second row.

Decoding is deterministic: live states are expanded in sorted order,
each through its entries in table order, and a token is replaced only
by a strictly cheaper one, so equal-cost ties keep the path through the
lower-numbered predecessor state, then through its earlier entry.  On a
folded step that is the lower ``s``, then its earlier blank entry, then
``m``'s earlier entry.
"""

from __future__ import annotations

import heapq
import math
import time
import weakref
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .errors import DecodeError, FstError, ValidationError, integer
from .posterior import CompressedPosteriors
from .wfst import EPSILON, ZERO, Arc, Fst


@dataclass(frozen=True)
class DecoderConfig:
    """Search knobs: cost width kept around the best token per frame,
    live-token cap, and the multiplier on acoustic costs."""

    beam: float = 16.0
    max_active: int = 5000
    acoustic_scale: float = 1.0

    def __post_init__(self):
        if not (self.beam > 0 and self.acoustic_scale > 0):
            raise ValidationError("beam and acoustic_scale must be positive")
        if not math.isfinite(self.acoustic_scale):
            raise ValidationError("acoustic_scale must be finite")
        object.__setattr__(self, "max_active", integer(self.max_active, "max_active"))
        if self.max_active < 1:
            raise ValidationError("max_active must be >= 1")


@dataclass(frozen=True)
class DecodeResult:
    words: tuple[int, ...]
    tokens: tuple[tuple[int, int], ...]  # (source frame or -1, token id) per emission
    total_cost: float
    frames_processed: int
    wall_time_ms: float
    tokens_alive_histogram: tuple[int, ...]
    path_graph_costs: tuple[float, ...]  # weight of each arc on the path

    def same_search(self, other: "DecodeResult") -> bool:
        """Equality ignoring wall time (search output is deterministic)."""
        return replace(self, wall_time_ms=0.0) == replace(other, wall_time_ms=0.0)


class _Entries(NamedTuple):
    """One set of search entries: ``emit[state]`` holds the state's
    entries, ``by_column[col][state]`` the same restricted to one column
    in entry order, and ``minw[state]`` its cheapest entry weight
    (``inf`` if it has none)."""

    emit: tuple[tuple[tuple, ...], ...]
    by_column: tuple[list[tuple[tuple, ...]], ...]
    minw: list[float]

    @classmethod
    def of(cls, emit: list, max_ilabel: int) -> "_Entries":
        by_column = tuple([()] * len(emit) for _ in range(max_ilabel))
        for s, entries in enumerate(emit):
            for e in entries:
                by_column[e[0]][s] += (e,)
        minw = [min((e[1] for e in entries), default=math.inf) for entries in emit]
        return cls(tuple(emit), by_column, minw)


@dataclass(frozen=True)
class _Table:
    """Search-time view of a graph, epsilon arcs compiled away (see the
    module doc).  ``direct`` holds the entries ``(column, weight, next,
    origin)`` of an ordinary step and ``thru`` the through-blank entries
    of a folded step in the same shape, an origin being ``(state, *arcs
    crossed)``; ``start`` holds the initial tokens, the start state and
    its epsilon closure, as ``(state, cost, origin)``."""

    max_ilabel: int
    direct: _Entries
    thru: _Entries
    start: tuple[tuple[int, float, tuple], ...]


# steps between tries to settle a prefix of the search; see the module doc
_SETTLE_EVERY = 256

_tables: weakref.WeakKeyDictionary[Fst, _Table] = weakref.WeakKeyDictionary()


def _eps_closure(eps: dict, s: int, n: int) -> dict:
    """Cheapest epsilon path from *s* to each other state it reaches, as
    ``{state: (weight, arc count, arc ids, arcs)}`` in state order; the
    tuple order is the tie rule.  Without a negative cycle no stored path
    repeats a state, so a path of *n* arcs means there is one."""
    best = {s: (0.0, 0, (), ())}
    todo = [s]
    while todo:
        q = todo.pop()
        v, k, ids, path = best[q]
        for aid, a in eps.get(q, ()):
            cand = (v + a.weight, k + 1, ids + (aid,), path + (a,))
            if cand < best.get(a.nextstate, (math.inf,)):
                if k + 1 >= n:
                    raise FstError("non-emitting arcs did not reach a fixpoint (negative cycle?)")
                best[a.nextstate] = cand
                todo.append(a.nextstate)
    return {f: best[f] for f in sorted(best) if f != s}


def _table(graph: Fst) -> _Table:
    table = _tables.get(graph)
    if table is None:
        table = _tables[graph] = _compile(graph)
    return table


def _compile(graph: Fst) -> _Table:
    n = graph.num_states
    arcs = [(s, a) for s in range(n) for a in graph.arcs(s)]  # index = arc id
    eps: dict[int, list[tuple[int, Arc]]] = {}
    for aid, (s, a) in enumerate(arcs):
        if a.ilabel < 0:
            raise ValidationError(f"state {s} has an arc with input label {a.ilabel} < 0")
        if a.ilabel == EPSILON:
            eps.setdefault(s, []).append((aid, a))
    closure = {s: _eps_closure(eps, s, n) for s in eps}
    emit = []
    for s in range(n):
        out = [a for a in graph.arcs(s) if a.ilabel != EPSILON]
        entries = [(a.ilabel - 1, a.weight, a.nextstate, (s, a)) for a in out]
        for a in sorted(out, key=lambda a: a.nextstate):  # stable: arc order within one state
            for f, (v, _, _, via) in closure.get(a.nextstate, {}).items():
                entries.append((a.ilabel - 1, a.weight + v, f, (s, a, *via)))
        emit.append(tuple(entries))
    max_ilabel = max((a.ilabel for _, a in arcs), default=0)
    direct = _Entries.of(emit, max_ilabel)
    # one through-blank entry per blank entry s -> m and per entry of m
    thru = [tuple((x, wb + wx, f, origin + xorigin[1:])
                  for col, wb, m, origin in entries if col == 0
                  for x, wx, f, xorigin in emit[m])
            for entries in emit]
    start = graph.start
    return _Table(
        max_ilabel=max_ilabel,
        direct=direct,
        thru=_Entries.of(thru, max_ilabel),
        start=((start, 0.0, (start,)),
               *((f, v, (start, *via)) for f, (v, _, _, via) in closure.get(start, {}).items())),
    )


def _walk(steps: list[dict], s: int) -> list[Arc]:
    """The arcs crossed from the origins of the first of *steps* to
    state *s* of the last."""
    origins = []
    for step in reversed(steps):
        origin = step[s]
        origins.append(origin)
        s = origin[0]
    return [a for origin in reversed(origins) for a in origin[1:]]


def _settle(steps: list[dict], live: list[int], floor: int, prefix: list[Arc]) -> int:
    """Walk the ancestors of the *live* tokens back through *steps*, no
    further than step *floor*.  If they meet in one state, append the
    arcs up to it to *prefix*, drop the steps they cross and return 0;
    otherwise return the last step's index, the next try's floor."""
    k = len(steps) - 1
    states = live
    while len(states) > 1 and k > floor:
        step = steps[k]
        states = {step[s][0] for s in states}
        k -= 1
    if len(states) > 1:
        return len(steps) - 1
    (s,) = states
    prefix += _walk(steps[:k + 1], s)
    del steps[:k + 1]
    return 0


def decode(graph: Fst, frames, cfg: DecoderConfig) -> DecodeResult:
    """Best-path search of *frames*, a :class:`PosteriorMatrix`
    compressed or not, through *graph*.  A compressed one's source map
    turns each emission's row back into its source frame.

    Raises :class:`DecodeError` naming the frame if every token is pruned
    away (a folded step's second row), or frame T if no final state is
    reachable at the end.  A zero probability under a required arc is an
    infinite cost, not an error; tokens of infinite cost are not carried,
    so a graph whose every path crosses an infinite-weight arc fails at
    the frame where the last finite token dies.
    """
    t0 = time.perf_counter()
    values = frames.values
    n_frames, vocab = values.shape
    source_map = frames.source_map if isinstance(frames, CompressedPosteriors) else range(n_frames)
    table = _table(graph)
    if table.max_ilabel > vocab:
        raise ValidationError(
            f"graph consumes input label {table.max_ilabel} but posteriors have only "
            f"{vocab} columns (label k reads column k-1)"
        )

    # fmax sends every entry that is not positive (NaN too) to 0, cost inf
    acoustic = np.fmax(values, 0.0)
    with np.errstate(divide="ignore"):
        np.log(acoustic, out=acoustic)
    np.negative(acoustic, out=acoustic)
    if cfg.acoustic_scale != 1.0:  # a scale of 1.0 is exact, so skip the pass
        acoustic *= cfg.acoustic_scale
    rows = acoustic.tolist()
    cheapest = acoustic.argmin(axis=1).tolist()
    seconds = np.partition(acoustic, 1, axis=1)[:, 1]
    # row t is folded into row t + 1 when it is pure blank and row t + 1 is not
    pure = (acoustic[:, 0] == 0.0) & (seconds == np.inf)
    lead = (pure[:-1] & ~pure[1:]).tolist() + [False]
    seconds = seconds.tolist()

    inf = math.inf
    beam, max_active = cfg.beam, cfg.max_active
    # cost[s] is the live token's cost or inf; steps[i][s] is the origin
    # of state s's token after step i, steps[0] holding the initial tokens
    cost, nxt = [inf] * graph.num_states, [inf] * graph.num_states
    first = {}
    for s, v, origin in table.start:
        cost[s] = v
        first[s] = origin
    steps = [first]
    prefix: list[Arc] = []  # the settled prefix's arcs; see the module doc
    floor = 0
    live = sorted(first)
    best = min(live, key=cost.__getitem__)
    histogram: list[int] = []

    for t, row in enumerate(rows):
        if lead[t]:
            continue
        folded = t > 0 and lead[t - 1]
        emit, by_column, minw = table.thru if folded else table.direct
        # a column no entry reads has no view; the full entry lists stand in
        h, second = cheapest[t], seconds[t]
        hot = by_column[h] if h < len(by_column) else emit
        # the best token's candidates bound the cutoff from above; see the module doc
        c = cost[best]
        bound = inf
        for col, w, _, _ in emit[best]:
            nc = c + w + row[col]
            if nc < bound:
                bound = nc
        bound += beam
        nback: dict[int, tuple] = {}
        for s in live:
            c = cost[s]
            cost[s] = inf
            # only entries on the cheapest column can pass the bound; see the module doc
            for col, w, ns, origin in (hot if c + minw[s] + second > bound else emit)[s]:
                nc = c + w + row[col]
                if nc <= bound and nc < nxt[ns]:
                    nxt[ns] = nc
                    nback[ns] = origin
        if not nback:
            raise DecodeError(t)
        reached = sorted(nback)
        best = min(reached, key=nxt.__getitem__)
        cutoff = nxt[best] + beam
        # every reached state is at or below bound; see the module doc
        live = [s for s in reached if nxt[s] <= cutoff] if cutoff < bound else reached
        if len(live) > max_active:
            live = sorted(s for _, s in heapq.nsmallest(max_active, [(nxt[s], s) for s in live]))
        if len(live) < len(reached):
            for s in nback.keys() - live:
                nxt[s] = inf
        histogram.append(len(live))
        steps.append(nback)
        cost, nxt = nxt, cost
        if len(histogram) % _SETTLE_EVERY == 0:
            floor = _settle(steps, live, floor, prefix)

    best_state = -1
    best_total = ZERO
    finals = graph.finals
    for s in live:
        wf = finals.get(s, ZERO)
        if wf == ZERO:
            continue
        total = cost[s] + wf
        if total < best_total:
            best_total = total
            best_state = s
    if best_state < 0:
        raise DecodeError(n_frames, "no final state reachable at end of input")

    path = prefix + _walk(steps, best_state)
    words = tuple(a.olabel for a in path if a.olabel != EPSILON)
    # one emitting arc per row, in row order; see the module doc
    tokens = tuple(zip(source_map, [a.ilabel for a in path if a.ilabel != EPSILON]))
    wall_ms = (time.perf_counter() - t0) * 1000.0
    return DecodeResult(
        words=words,
        tokens=tokens,
        total_cost=best_total,
        frames_processed=n_frames,
        wall_time_ms=wall_ms,
        tokens_alive_histogram=tuple(histogram),
        path_graph_costs=tuple(a.weight for a in path),
    )


@dataclass
class BatchResult:
    """Per-utterance outcomes in input order; failures are collected, not
    fatal.  ``results`` holds None where decoding failed."""

    utt_ids: list[str]
    results: list[DecodeResult | None]
    failures: list[tuple[str, str]] = field(default_factory=list)
    wall_time_ms: float = 0.0

    def ok(self) -> list[tuple[str, DecodeResult]]:
        return [(u, r) for u, r in zip(self.utt_ids, self.results) if r is not None]


def decode_batch(graph: Fst, utts, cfg: DecoderConfig, jobs: int = 1) -> BatchResult:
    """Decode a corpus of (utt_id, frames) pairs sharing one graph, in
    input order.  The search is pure Python and bound by the interpreter
    lock, so it runs serially; *jobs* must be 1."""
    if jobs != 1:
        raise ValidationError(f"decode_batch runs serially; jobs must be 1, got {jobs}")
    t0 = time.perf_counter()
    batch = BatchResult(utt_ids=[], results=[])
    for utt_id, frames in utts:
        batch.utt_ids.append(utt_id)
        try:
            batch.results.append(decode(graph, frames, cfg))
        except DecodeError as exc:
            batch.results.append(None)
            batch.failures.append((utt_id, str(exc)))
    batch.wall_time_ms = (time.perf_counter() - t0) * 1000.0
    return batch
