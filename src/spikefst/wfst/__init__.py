"""Minimal weighted finite-state transducer core (tropical semiring)."""

from .fst import (
    EPSILON,
    EPSILON_SYM,
    ONE,
    ZERO,
    Arc,
    Fst,
    SymbolTable,
    arcsort,
    read_fst_text,
    trim,
    wplus,
    write_fst_text,
    wtimes,
)
from .ops import (
    compose,
    determinize,
    minimize,
    push_weights,
    rm_epsilon,
)

__all__ = [
    "EPSILON",
    "EPSILON_SYM",
    "ONE",
    "ZERO",
    "Arc",
    "Fst",
    "SymbolTable",
    "arcsort",
    "compose",
    "determinize",
    "minimize",
    "push_weights",
    "read_fst_text",
    "rm_epsilon",
    "trim",
    "wplus",
    "write_fst_text",
    "wtimes",
]
