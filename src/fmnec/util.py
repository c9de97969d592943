"""Shared plumbing: atomic writes, text reading, seed derivation, line parsing."""

from __future__ import annotations

import hashlib
import os
import secrets
from contextlib import contextmanager

from .errors import DataFormatError


G17 = "%.17g"  # a score's text in a predictions file: 17 significant digits round-trip


def derive_seed(seed: int, *parts: str) -> int:
    """Derive a child seed from a base seed and string tags.

    Uses a keyed digest instead of ``hash()`` so the derivation is stable
    across processes and platforms; reproducibility of per-component RNG
    streams depends on it.
    """
    digest = hashlib.blake2b(digest_size=8)
    digest.update(str(int(seed)).encode("ascii"))
    for part in parts:
        raw = str(part).encode("utf-8")
        digest.update(len(raw).to_bytes(4, "little"))
        digest.update(raw)
    return int.from_bytes(digest.digest(), "little") >> 1


def first_bad_token(strings) -> str | None:
    """The first string that is empty or holds whitespace; None when all are fine.

    str.split() splits on exactly the characters str.isspace() accepts, so
    the strings joined by spaces split back into themselves iff every one is
    non-empty and whitespace-free; only a failing join is scanned one by one.
    """
    if " ".join(strings).split() == list(strings):
        return None
    return next(s for s in strings if s.split() != [s])


@contextmanager
def atomic_write(path):
    """Open a text file for writing via a temp file renamed into place.

    Interrupted writers and failed renames never leave a partial file at the
    target path, nor the temp file beside it; a failed rename raises an
    ``OSError`` naming the target.  The file gets the mode ``open(path, "w")``
    would give it: 0o666 less the umask.
    """
    path = os.fspath(path)
    tmp = os.path.join(os.path.dirname(path), f".tmp.{secrets.token_hex(8)}~")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
        try:
            os.replace(tmp, path)
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, path) from None
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


@contextmanager
def open_text(path):
    """Open a UTF-8 text file for reading; a leading byte-order mark is dropped.

    A decode error anywhere in the file is the error raised: it becomes a
    ``DataFormatError`` naming the first line that is not valid UTF-8, and a
    ``DataFormatError`` raised while the file is open yields to it, as if the
    whole file had been decoded first.  The file is scanned for that line only
    once reading has failed, so valid input costs nothing extra.
    """
    with open(path, encoding="utf-8-sig") as fh:
        try:
            yield fh
        except (UnicodeDecodeError, DataFormatError) as exc:
            line = _first_undecodable_line(path)
            if line is None and isinstance(exc, DataFormatError):
                raise
            raise DataFormatError("not valid UTF-8 text", path=str(path), line=line) from None


def _first_undecodable_line(path) -> int | None:
    with open(path, "rb") as fh:
        data = fh.read()
    # text-mode line numbers count \n, \r and \r\n, exactly as bytes.splitlines does
    for lineno, raw in enumerate(data.splitlines(), 1):
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError:
            return lineno
    return None


class LineCursor:
    """Sequential view over lines (a list, an open file or any iterable) that
    tracks position for error messages; it holds no line it has handed out."""

    def __init__(self, lines, path=None, lineno: int = 0):
        self._lines = iter(lines)
        self._next = next(self._lines, None)  # None at the end
        self.path = path
        self.lineno = lineno  # 1-based number of the last line handed out

    def take(self, what: str) -> str:
        """The next line without its newline; ``what`` names it if the file has ended."""
        line = self._next
        if line is None:
            raise self.error(f"unexpected end of file while reading {what}")
        self._next = next(self._lines, None)
        self.lineno += 1
        return line.rstrip("\n")

    def at_end(self) -> bool:
        return self._next is None

    def error(self, message: str) -> DataFormatError:
        return DataFormatError(message, path=self.path, line=self.lineno or None)


def format_table(rows: list[list[str]]) -> str:
    """Align rows into columns: first column left-aligned, the rest right-aligned."""
    widths = [max(len(row[col]) for row in rows) for col in range(len(rows[0]))]
    lines = []
    for row in rows:
        cells = [row[0].ljust(widths[0])]
        cells += [row[col].rjust(widths[col]) for col in range(1, len(row))]
        lines.append("  ".join(cells).rstrip())
    return "\n".join(lines)
