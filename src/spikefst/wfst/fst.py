"""Weighted finite-state transducers over the tropical semiring.

Weights are plain floats with (min, +) algebra: ZERO is +inf (no path),
ONE is 0.0 (free move), path weight is the sum of arc weights plus the
final weight, and the best path is the minimum.  Label 0 is epsilon on
both tapes.  An :class:`Fst` and its symbol tables are values: each is
built whole, a machine as per-state arc lists handed to its one validated
constructor, and never changes afterwards, so the algorithms here and in
:mod:`spikefst.wfst.ops` each return a new machine, and anything derived
from a machine stays valid for as long as the machine lives.
"""

from __future__ import annotations

import math
from operator import itemgetter
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple

from ..errors import DataFormatError, FstError, read_file, write_file

EPSILON = 0
EPSILON_SYM = "<eps>"

ZERO = math.inf  # absorbing weight: no path
ONE = 0.0        # identity weight: free move


def wplus(a: float, b: float) -> float:
    return a if a <= b else b


def wtimes(a: float, b: float) -> float:
    return a + b


class Arc(NamedTuple):
    ilabel: int
    olabel: int
    weight: float
    nextstate: int


class SymbolTable:
    """An immutable symbol <-> id map: ``SymbolTable(symbols)`` numbers
    ``<eps>`` 0 and *symbols* 1, 2, ... and refuses a repeated symbol; a
    table whose ids have gaps comes only from :meth:`from_file`."""

    def __init__(self, symbols: Iterable[str] = ()):
        self._sym2id: dict[str, int] = {}
        for key, sym in enumerate([EPSILON_SYM, *symbols]):
            if sym in self._sym2id:
                raise FstError(f"symbol {sym!r} already bound to id {self._sym2id[sym]}")
            self._sym2id[sym] = key
        self._id2sym = dict(enumerate(self._sym2id))

    def find_id(self, symbol: str) -> int:
        return self._sym2id[symbol]

    def find_symbol(self, key: int) -> str:
        return self._id2sym[key]

    def __contains__(self, symbol: str) -> bool:
        return symbol in self._sym2id

    def __len__(self) -> int:
        return len(self._sym2id)

    def __eq__(self, other) -> bool:
        return isinstance(other, SymbolTable) and self._sym2id == other._sym2id

    def items(self):
        return sorted(self._id2sym.items())

    @classmethod
    def from_file(cls, path) -> "SymbolTable":
        table = cls.__new__(cls)
        table._sym2id = {}
        table._id2sym = {}
        for ln, line in enumerate(read_file(path).splitlines(), start=1):
            if not line.strip():
                continue
            parts = line.split()
            if len(parts) != 2:
                raise DataFormatError(f"{path}: line {ln}: expected 'symbol<TAB>id'")
            sym = parts[0]
            try:
                key = int(parts[1])
            except ValueError:
                raise DataFormatError(
                    f"{path}: line {ln}: id {parts[1]!r} is not an integer") from None
            if key < 0:
                raise DataFormatError(f"{path}: line {ln}: id {key} is negative")
            if sym in table._sym2id:
                raise DataFormatError(
                    f"{path}: line {ln}: symbol {sym!r} already bound to id {table._sym2id[sym]}")
            if key in table._id2sym:
                raise DataFormatError(
                    f"{path}: line {ln}: id {key} already bound to {table._id2sym[key]!r}")
            table._sym2id[sym] = key
            table._id2sym[key] = sym
        if 0 not in table._id2sym:
            raise DataFormatError(f"{path}: no symbol bound to id 0 (epsilon)")
        return table

    def to_file(self, path) -> None:
        write_file(path, "".join(f"{sym}\t{key}\n" for key, sym in self.items()))


class Fst:
    """An immutable WFST: per-state arc tuples, a start state and final
    weights, checked whole when it is built.

    ``Fst(arcs, start, finals)`` takes per-state arc lists and a
    ``{state: weight}`` map and raises :class:`FstError` for a start state,
    a final state or an arc's next state out of range, or a NaN weight.  A
    final weight of ZERO leaves its state non-final.  Nothing can change a
    machine afterwards: the rows are tuples, ``finals`` is a read-only view,
    and ``start``, ``isyms`` and ``osyms`` have no setter.
    """

    def __init__(self, arcs, start: int, finals: dict[int, float],
                 isyms: SymbolTable | None = None, osyms: SymbolTable | None = None):
        self._arcs: tuple[tuple[Arc, ...], ...] = tuple(map(tuple, arcs))
        n = len(self._arcs)

        def check_state(state: int) -> None:
            if not 0 <= state < n:
                raise FstError(f"state {state} out of range [0, {n})")

        check_state(start)
        for src, row in enumerate(self._arcs):
            for a in row:
                if not 0 <= a.nextstate < n or a.weight != a.weight:  # NaN != NaN
                    check_state(a.nextstate)
                    raise FstError(f"NaN weight on arc {src} -> {a.nextstate}")
        for s, w in finals.items():
            check_state(s)
            if w != w:
                raise FstError(f"NaN final weight at state {s}")
        self._start = start
        self._finals = {s: w for s, w in finals.items() if w != ZERO}
        self._isyms = isyms
        self._osyms = osyms

    @property
    def start(self) -> int:
        return self._start

    @property
    def isyms(self) -> SymbolTable | None:
        return self._isyms

    @property
    def osyms(self) -> SymbolTable | None:
        return self._osyms

    @property
    def finals(self) -> Mapping[int, float]:
        """Final weights by state, read-only; a state absent is not final."""
        return MappingProxyType(self._finals)

    @property
    def num_states(self) -> int:
        return len(self._arcs)

    @property
    def num_arcs(self) -> int:
        return sum(map(len, self._arcs))

    def arcs(self, state: int) -> tuple[Arc, ...]:
        return self._arcs[state]

    def all_arcs(self) -> Iterable[tuple[int, Arc]]:
        for s, arcs in enumerate(self._arcs):
            for a in arcs:
                yield s, a

    def final_weight(self, state: int) -> float:
        return self._finals.get(state, ZERO)

    def is_final(self, state: int) -> bool:
        return state in self._finals

    def __repr__(self) -> str:
        return (
            f"Fst(states={self.num_states}, arcs={self.num_arcs}, "
            f"finals={len(self._finals)}, start={self._start})"
        )


def arcsort(f: Fst, by: str = "ilabel") -> Fst:
    """Sort each state's arcs by label; ties keep a stable full-key order."""
    if by not in ("ilabel", "olabel"):
        raise FstError(f"arcsort key must be 'ilabel' or 'olabel', got {by!r}")
    # An Arc compares as (ilabel, olabel, weight, nextstate).
    key = None if by == "ilabel" else itemgetter(1, 0, 2, 3)
    return Fst([sorted(row, key=key) for row in f._arcs], f.start, f._finals,
               f.isyms, f.osyms)


def trim(f: Fst) -> Fst:
    """Keep only states on some start-to-final path (accessible and
    co-accessible); an empty-language machine keeps a lone start state."""
    arcs = f._arcs
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
    bwd = set(f._finals)
    stack = list(f._finals)
    while stack:
        s = stack.pop()
        for prev in rev[s]:
            if prev not in bwd:
                bwd.add(prev)
                stack.append(prev)
    live = fwd & bwd
    if f.start not in live:
        return Fst([()], 0, {}, f.isyms, f.osyms)
    if len(live) == len(arcs):
        # Nothing to drop: the machine itself, or its rows with the finals
        # put in state order.
        finals = dict(sorted(f._finals.items()))
        if list(finals) == list(f._finals):
            return f
        return Fst(arcs, f.start, finals, f.isyms, f.osyms)
    order = sorted(live)
    remap = {s: i for i, s in enumerate(order)}
    out_arcs = [
        [Arc(a.ilabel, a.olabel, a.weight, remap[a.nextstate])
         for a in arcs[s] if a.nextstate in live]
        for s in order
    ]
    finals = {remap[s]: f._finals[s] for s in order if s in f._finals}
    return Fst(out_arcs, remap[f.start], finals, f.isyms, f.osyms)


# ----------------------------------------------------------------------
# AT&T text format
# ----------------------------------------------------------------------

def write_fst_text(f: Fst, path) -> None:
    """Arc lines "src dst ilabel olabel weight", then final lines
    "state weight"; the first line's src is the start state."""
    lines: list[str] = []
    finals = sorted(f._finals)
    if not f._arcs[f.start] and f.is_final(f.start):
        # The start state is identified by the first line, so its final
        # line must lead when it has no arcs.
        lines.append(f"{f.start} {f.final_weight(f.start):.9g}")
        finals = [s for s in finals if s != f.start]
    elif not f._arcs[f.start] and (f.num_arcs or f._finals):
        raise FstError("start state has no arcs and is not final: trim before writing")
    for s in [f.start] + [s for s in range(f.num_states) if s != f.start]:
        for a in f._arcs[s]:
            lines.append(f"{s} {a.nextstate} {a.ilabel} {a.olabel} {a.weight:.9g}")
    for s in finals:
        lines.append(f"{s} {f.final_weight(s):.9g}")
    write_file(path, "\n".join(lines) + ("\n" if lines else ""))


def read_fst_text(path, isyms: SymbolTable | None = None,
                  osyms: SymbolTable | None = None) -> Fst:
    """Read arc lines "src dst ilabel olabel [weight]" and final lines
    "state [weight]" (weights default to ONE); the first line's src is
    the start state.  A malformed line, a negative id or label, or a NaN
    weight raises ``DataFormatError`` naming the line."""
    arcs: list[list[Arc]] = []
    finals: dict[int, float] = {}
    start = -1
    for ln, line in enumerate(read_file(path).splitlines(), start=1):
        parts = line.split()
        n = len(parts)
        if not n:
            continue
        try:
            if n == 4 or n == 5:
                src, dst, il, ol = int(parts[0]), int(parts[1]), int(parts[2]), int(parts[3])
                w = float(parts[4]) if n == 5 else ONE
            elif n == 1 or n == 2:
                src = dst = il = ol = int(parts[0])  # a final line has one id
                w = float(parts[1]) if n == 2 else ONE
            else:
                raise ValueError("bad field count")
        except ValueError:
            raise DataFormatError(f"{path}: line {ln}: malformed FST line {line!r}") from None
        if src < 0 or dst < 0 or il < 0 or ol < 0:
            raise DataFormatError(f"{path}: line {ln}: negative state id or label in {line!r}")
        if w != w:  # NaN
            raise DataFormatError(f"{path}: line {ln}: NaN weight in {line!r}")
        if start < 0:
            start = src
        top = src if src > dst else dst
        if top >= len(arcs):
            arcs.extend([] for _ in range(top + 1 - len(arcs)))
        if n > 2:
            arcs[src].append(Arc(il, ol, w, dst))
        else:
            finals[src] = w
    if start < 0:
        # An empty file denotes the empty-language machine.
        arcs, start = [[]], 0
    return Fst(arcs, start, finals, isyms, osyms)
