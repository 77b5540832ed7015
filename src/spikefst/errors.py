"""Exception types shared across the package, and the one file read and
the one file write that every loader and every writer goes through."""

import os
from pathlib import Path


class SpikefstError(Exception):
    """Base class for all package errors."""


class ValidationError(SpikefstError):
    """Invalid in-memory value (shape, range, or invariant violation)."""


class DataFormatError(SpikefstError):
    """Malformed or unreadable input file (posteriors, FST text, lexicon,
    symbol tables), or an output path that cannot be written."""


def read_file(path, binary: bool = False):
    """The bytes of *path*, or its text decoded as UTF-8.  A file that
    cannot be read or decoded raises :class:`DataFormatError` naming it."""
    try:
        return Path(path).read_bytes() if binary else Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise DataFormatError(f"{path}: cannot read: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: byte {exc.start} is not UTF-8 text") from None


def write_file(path, data) -> None:
    """Write *data*, text as UTF-8 or bytes, to a temporary file beside
    *path* and rename it into place, making the parent directories first.
    A failed write leaves no temporary file and the target as it was, and
    raises :class:`DataFormatError` naming *path*, and so does text that
    UTF-8 cannot encode (a lone surrogate), before any file is made.  A new
    file gets the mode a plain ``open`` would give it."""
    path = Path(path)
    if isinstance(data, str):
        try:
            data = data.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise DataFormatError(
                f"{path}: cannot write: character {exc.start} has no UTF-8 encoding") from None
    tmp = path.parent / f".{path.name}.{os.urandom(4).hex()}"
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with open(fd, "wb") as f:
                f.write(data)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise DataFormatError(f"{path}: cannot write: {exc.strerror or exc}") from None


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
