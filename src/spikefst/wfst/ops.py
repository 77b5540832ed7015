"""Algorithms over tropical-weight transducers.

Each result is built whole, as per-state arc lists handed to the
``Fst`` constructor.  Weight bookkeeping follows (min, +): any
transformation that claims equivalence preserves, for every accepted
(input, output) string pair, the minimum accepting-path weight.
``_relax`` is the one shortest-distance search: epsilon removal,
determinization's epsilon closure and weight pushing all run through it.
"""

from __future__ import annotations

from collections import deque

from ..errors import FstError
from .fst import EPSILON, ONE, ZERO, Arc, Fst, make_arc, trim, wplus, wtimes

# Residual-weight granularity used only when hashing subset/partition
# keys; stored weights stay exact.
_QUANT = 10


def _relax(seeds: dict, moves, limit: int, what: str) -> dict:
    """Single-source shortest distances from *seeds* (key -> weight).

    FIFO label-correcting relaxation in the tropical semiring (Mohri,
    2002).  Keys are any hashable; ``moves(key)`` yields ``(next key,
    weight)``.  A key re-enters the queue each time its distance improves
    by more than 1e-15, so negative weights are fine as long as no cycle
    is negative.  More than *limit* improvements raise ``FstError(what)``.
    """
    dist = dict(seeds)
    queue = deque(dist)
    steps = 0
    while queue:
        key = queue.popleft()
        base = dist[key]
        for nxt, w in moves(key):
            nd = wtimes(base, w)
            if nd < dist.get(nxt, ZERO) - 1e-15:
                dist[nxt] = nd
                queue.append(nxt)
                steps += 1
                if steps > limit:
                    raise FstError(what)
    return dist


def rm_epsilon(f: Fst) -> Fst:
    """Remove eps:eps arcs, folding their weights into the arcs and final
    weights reachable through them; string weights are preserved."""
    eps = [
        [(t, w) for il, ol, w, t in row if il == EPSILON and ol == EPSILON]
        for row in f._arcs
    ]
    limit = 4 * (f.num_states + 1) * max(1, f.num_arcs)
    arcs: list[list[Arc]] = []
    finals: dict[int, float] = {}
    for s in range(f.num_states):
        closure = _relax(
            {s: ONE}, eps.__getitem__, limit,
            "epsilon-closure did not converge (negative cycle?)",
        )
        best_arc: dict[tuple[int, int, int], float] = {}
        final = ZERO
        for q, w in closure.items():
            for il, ol, wa, t in f._arcs[q]:
                if il == EPSILON and ol == EPSILON:
                    continue
                key = (il, ol, t)
                cand = wtimes(w, wa)
                if cand < best_arc.get(key, ZERO):
                    best_arc[key] = cand
            final = wplus(final, wtimes(w, f.final_weight(q)))
        arcs.append([make_arc((il, ol, w, dst)) for (il, ol, dst), w in sorted(best_arc.items())])
        if final != ZERO:
            finals[s] = final
    return trim(Fst(arcs, f.start, finals, f.isyms, f.osyms))


# ----------------------------------------------------------------------
# Composition
# ----------------------------------------------------------------------

def compose(a: Fst, b: Fst) -> Fst:
    """Relation composition a . b with the standard three-state epsilon
    filter, so interleavings of a-side and b-side epsilon moves are not
    duplicated.

    Filter states: 0 = last move matched (or start), 1 = a moved alone,
    2 = b moved alone.  A real match is allowed anywhere and resets to 0;
    a-alone is barred in 2, b-alone is barred in 1, and a simultaneous
    epsilon pairing is allowed only in 0.
    """
    if a.osyms is not None and b.isyms is not None and a.osyms != b.isyms:
        raise FstError("compose: output symbols of a do not match input symbols of b")

    # Per b state: (olabel, weight, nextstate) of its arcs, by input label.
    b_by_label: list[dict[int, list[tuple]]] = [{} for _ in range(b.num_states)]
    for sb, row in enumerate(b._arcs):
        for il, ol, w, t in row:
            b_by_label[sb].setdefault(il, []).append((ol, w, t))

    key0 = (a.start, b.start, 0)
    ids: dict[tuple[int, int, int], int] = {key0: 0}
    arcs: list[list[Arc]] = [[]]
    finals: dict[int, float] = {}
    queue = deque([key0])

    def new_state(key: tuple[int, int, int]) -> int:
        sid = ids[key] = len(arcs)
        arcs.append([])
        queue.append(key)
        return sid

    # An exact tuple unpacks faster than an Arc, and each row of a is read
    # once per b state it meets.
    a_arcs = [list(map(tuple, row)) for row in a._arcs]
    a_finals, b_finals = a._finals, b._finals
    while queue:
        key = queue.popleft()
        sa, sb, filt = key
        src = ids[key]
        add = arcs[src].append
        grouped = b_by_label[sb]
        for il, ol, wa, ta in a_arcs[sa]:
            if ol != EPSILON:
                for ob, wb, tb in grouped.get(ol, ()):
                    nxt = (ta, tb, 0)
                    dst = ids.get(nxt)
                    add(make_arc((il, ob, wa + wb, new_state(nxt) if dst is None else dst)))
            else:
                if filt != 2:  # a moves alone
                    nxt = (ta, sb, 1)
                    dst = ids.get(nxt)
                    add(make_arc((il, EPSILON, wa, new_state(nxt) if dst is None else dst)))
                if filt == 0:  # simultaneous epsilon pairing
                    for ob, wb, tb in grouped.get(EPSILON, ()):
                        nxt = (ta, tb, 0)
                        dst = ids.get(nxt)
                        add(make_arc((il, ob, wa + wb, new_state(nxt) if dst is None else dst)))
        if filt != 1:  # b moves alone
            for ob, wb, tb in grouped.get(EPSILON, ()):
                nxt = (sa, tb, 2)
                dst = ids.get(nxt)
                add(make_arc((EPSILON, ob, wb, new_state(nxt) if dst is None else dst)))
        wf = a_finals.get(sa, ZERO) + b_finals.get(sb, ZERO)
        if wf != ZERO:
            finals[src] = wf
    return trim(Fst(arcs, 0, finals, a.isyms, b.osyms))


# ----------------------------------------------------------------------
# Determinization
# ----------------------------------------------------------------------

# A subset element is a plain ``(state, weight, out)`` tuple: a state of
# the input machine, its residual weight, and the output symbols it still
# owes (delayed output).


def _close_elems(eps: list, elems: list[tuple], limit: int) -> list[tuple]:
    """Input-epsilon closure of weighted subset elements, accumulating any
    epsilon-arc outputs into the delayed-output strings.  ``eps[s]`` lists
    ``(nextstate, weight, output)`` for the input-epsilon arcs of state s,
    the output being ``()`` or a one-symbol tuple.  Elements are merged by
    (state, output) at their minimum weight, in first-seen order."""
    seeds: dict[tuple[int, tuple[int, ...]], float] = {}
    for s, w, z in elems:
        if w < seeds.get((s, z), ZERO):
            seeds[s, z] = w
    if not any(eps[s] for s, _ in seeds):
        # Nothing to close: exactly what the relaxation returns with no move.
        return [(s, w, z) for (s, z), w in seeds.items()]
    best = _relax(
        seeds,
        lambda key: [((t, key[1] + z), w) for t, w, z in eps[key[0]]],
        limit,
        "determinize: epsilon closure diverged (cyclic epsilon output?)",
    )
    return [(s, w, z) for (s, z), w in best.items()]


def _subset_key(elems: list[tuple]) -> tuple:
    if len(elems) == 1:
        (s, w, z), = elems
        return ((s, z, round(w, _QUANT)),)
    return tuple(sorted([(s, z, round(w, _QUANT)) for s, w, z in elems]))


def determinize(f: Fst) -> Fst:
    """Weighted subset construction producing an input-deterministic
    machine with the same weighted transduction.

    Subset elements carry a residual weight and a delayed output string,
    so outputs that differ across merged paths (homophones) are emitted
    only once the input disambiguates them.  A hard state budget of 10 x
    input states (at least 64) turns divergence into a diagnostic instead
    of a hang.
    """
    budget = max(64, 10 * max(1, f.num_states))
    close_limit = 64 * (f.num_states + 2) * (f.num_arcs + 2)
    eps = []
    moves = []  # per state: (ilabel, nextstate, weight, output) of each emitting arc
    for row in f._arcs:
        eps.append([(t, w, () if ol == EPSILON else (ol,))
                    for il, ol, w, t in row if il == EPSILON])
        moves.append([(il, t, w, () if ol == EPSILON else (ol,))
                      for il, ol, w, t in row if il != EPSILON])

    start_elems = _close_elems(eps, [(f.start, ONE, ())], close_limit)
    ids: dict[tuple, int] = {_subset_key(start_elems): 0}
    arcs: list[list[Arc]] = [[]]
    finals: dict[int, float] = {}
    queue: deque[tuple[int, list[tuple]]] = deque([(0, start_elems)])

    while queue:
        src, elems = queue.popleft()
        _set_subset_final(f, arcs, finals, src, elems)
        by_label: dict[int, list[tuple]] = {}
        for s, w, z in elems:
            for il, t, wa, za in moves[s]:
                group = by_label.get(il)
                if group is None:
                    by_label[il] = group = []
                group.append((t, w + wa, z + za))
        for label in sorted(by_label):
            cands = by_label[label]
            t, w, _ = cands[0]
            # A lone element with no epsilon arc at its state and a finite
            # weight is its own merge and closure.
            if len(cands) > 1 or eps[t] or w == ZERO:
                cands = _close_elems(eps, cands, close_limit)
                if not cands:
                    continue  # every element weighs ZERO: no path on this label
            w_min = min([w for _, w, _ in cands])
            # the arc emits the first output symbol, if every element shares it
            head = cands[0][2][:1]
            if any(z[:1] != head for _, _, z in cands):
                head = ()
            emit = head[0] if head else EPSILON
            cut = len(head)
            nxt = [(t, w - w_min, z[cut:]) for t, w, z in cands]
            key = _subset_key(nxt)
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
            arcs[src].append(make_arc((label, emit, w_min, dst)))
    return Fst(arcs, 0, finals, f.isyms, f.osyms)


def _set_subset_final(f: Fst, arcs: list[list[Arc]], finals: dict[int, float],
                      state: int, elems: list[tuple]) -> None:
    """Final weight for a subset; delayed outputs still pending at a final
    element are flushed through a chain of input-epsilon emission arcs."""
    if not any(s in f._finals for s, _, _ in elems):
        return
    plain = ZERO
    pending: dict[tuple[int, ...], float] = {}
    for s, w, z in elems:
        wf = wtimes(w, f.final_weight(s))
        if wf == ZERO:
            continue
        if z:
            pending[z] = wplus(pending.get(z, ZERO), wf)
        else:
            plain = wplus(plain, wf)
    if plain != ZERO:
        finals[state] = plain
    for z in sorted(pending):
        src = state
        for i, sym in enumerate(z):
            nxt = len(arcs)
            arcs.append([])
            arcs[src].append(make_arc((EPSILON, sym, pending[z] if i == 0 else ONE, nxt)))
            src = nxt
        finals[src] = ONE


# ----------------------------------------------------------------------
# Minimization
# ----------------------------------------------------------------------

def minimize(f: Fst) -> Fst:
    """Merge states with identical weighted behavior (Moore partition
    refinement over label-and-weight-encoded signatures).

    Requires an input-deterministic machine, so a state's arcs sorted by
    input label are in one fixed order: each state's ``(ilabel, olabel,
    weight)`` picture, weights rounded for hashing, is built once, and a
    refinement round only maps each arc's next state to its block.
    Weights are not rearranged, so two states merge only when their
    outgoing pictures match exactly; run push_weights first to reach the
    canonical minimum.
    """
    g = trim(f)
    pictures = []
    dests = []
    for s, row in enumerate(g._arcs):
        seen = set()
        for a in row:
            if a.ilabel in seen:
                raise FstError(
                    f"minimize: state {s} has duplicate input label {a.ilabel}; "
                    "input must be deterministic"
                )
            seen.add(a.ilabel)
        row = sorted(row)
        pictures.append(tuple([(il, ol, round(w, _QUANT)) for il, ol, w, _ in row]))
        dests.append([a.nextstate for a in row])

    def intern_all(keys: list) -> list[int]:
        ids: dict = {}
        return [ids.setdefault(k, len(ids)) for k in keys]

    block = intern_all([
        (True, round(g.final_weight(s), _QUANT), pictures[s]) if g.is_final(s)
        else (False, 0.0, pictures[s])
        for s in range(g.num_states)
    ])
    while True:
        new_block = intern_all([
            (block[s], tuple([block[t] for t in ts])) for s, ts in enumerate(dests)
        ])
        if new_block == block:
            break
        block = new_block

    # Rebuild one state per class, numbered in BFS order from the start.
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
        for a in g._arcs[s]:
            if block[a.nextstate] not in seen_cls:
                seen_cls.add(block[a.nextstate])
                queue.append(a.nextstate)
    if order == list(range(g.num_states)):
        # One state per class, already numbered in BFS order: the rebuild
        # would copy g arc for arc (trim puts its finals in state order).
        return g

    arcs: list[list[Arc]] = []
    finals: dict[int, float] = {}
    for new_id, rep in enumerate(order):
        arcs.append([make_arc((il, ol, w, class_rep[block[t]])) for il, ol, w, t in g._arcs[rep]])
        if g.is_final(rep):
            finals[new_id] = g.final_weight(rep)
    return Fst(arcs, 0, finals, g.isyms, g.osyms)


# ----------------------------------------------------------------------
# Weight pushing
# ----------------------------------------------------------------------

def _distance_to_final(f: Fst) -> list[float]:
    """Per-state shortest distance to a final state, its final weight
    included.  Label-correcting, so negative arc weights are fine as long
    as there is no negative cycle."""
    n = f.num_states
    edges: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for s, a in f.all_arcs():
        edges[a.nextstate].append((s, a.weight))
    dist = _relax(
        dict(sorted(f.finals.items())), edges.__getitem__, 8 * (n + 1) * max(1, f.num_arcs),
        "push_weights: distances to a final state did not converge (negative cycle?)",
    )
    return [dist.get(s, ZERO) for s in range(n)]


def push_weights(f: Fst) -> Fst:
    """Reweight so cost sits as early along each path as possible.

    Every arc weight becomes w + d(next) - d(src), where d is the
    shortest distance to a final state; the displaced total d(start) is
    re-applied at the start state, so each complete path keeps its exact
    original weight.  Requires every state to be co-accessible.
    """
    dist = _distance_to_final(f)
    dead = [s for s in range(f.num_states) if dist[s] == ZERO]
    if dead:
        raise FstError(
            f"push_weights: state {dead[0]} cannot reach a final state; trim first"
        )
    head = dist[f.start]
    arcs: list[list[Arc]] = []
    finals: dict[int, float] = {}
    for s, row in enumerate(f._arcs):
        lead = head if s == f.start else ONE
        arcs.append([
            make_arc((il, ol, wtimes(lead, w + dist[t] - dist[s]), t)) for il, ol, w, t in row
        ])
        if f.is_final(s):
            finals[s] = wtimes(lead, f.final_weight(s) - dist[s])
    return Fst(arcs, f.start, finals, f.isyms, f.osyms)
