"""Exception types shared across the package, and the one file read
that every loader goes through."""

from pathlib import Path


class SpikefstError(Exception):
    """Base class for all package errors."""


class ValidationError(SpikefstError):
    """Invalid in-memory value (shape, range, or invariant violation)."""


class DataFormatError(SpikefstError):
    """Malformed or unreadable input file (posteriors, FST text, lexicon,
    symbol tables)."""


def read_file(path, binary: bool = False):
    """The bytes of *path*, or its text decoded as UTF-8.  A file that
    cannot be read or decoded raises :class:`DataFormatError` naming it."""
    try:
        return Path(path).read_bytes() if binary else Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise DataFormatError(f"{path}: cannot read: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: byte {exc.start} is not UTF-8 text") from None


class ArpaError(DataFormatError):
    """Malformed ARPA language-model file; carries the offending line number."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"parse_arpa: line {line}: {message}")


class FstError(SpikefstError):
    """FST operation failure (budget exceeded, bad precondition, no path)."""


class GraphError(SpikefstError):
    """Decoding-graph construction failure; names the pipeline stage."""


class DecodeError(SpikefstError):
    """Beam search lost every live token; carries the frame where it died."""

    def __init__(self, frame: int, message: str = "no live tokens survive pruning"):
        self.frame = frame
        super().__init__(f"decode failed at frame {frame}: {message}")
