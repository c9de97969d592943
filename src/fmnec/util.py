"""Shared plumbing: atomic writes, text reading, seed derivation, line parsing, forked children."""

from __future__ import annotations

import hashlib
import os
import pickle
import secrets
import sys
import warnings
from contextlib import contextmanager
from itertools import islice

from .errors import DataFormatError


def format_g17(value: float) -> str:
    """Render a float with 17 significant digits (lossless text round-trip)."""
    return f"{value:.17g}"


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
    """Open a UTF-8 text file for reading.

    A decode error anywhere in the file becomes a ``DataFormatError`` naming
    the first line that is not valid UTF-8.  The file is scanned for that
    line only once decoding has failed, so valid input costs nothing extra.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError:
            raise DataFormatError(
                "not valid UTF-8 text", path=str(path), line=_first_undecodable_line(path)
            ) from None


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
        lines = self.take_lines(1)
        if not lines:
            raise self.error(f"unexpected end of file while reading {what}")
        return lines[0].rstrip("\n")

    def take_lines(self, count: int) -> list[str]:
        """The next ``count`` lines unstripped, fewer only at the end of the file."""
        if count <= 0 or self._next is None:
            return []
        lines = [self._next, *islice(self._lines, count - 1)]
        self._next = next(self._lines, None)
        self.lineno += len(lines)
        return lines

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


def process_count(job_count: int) -> int:
    """Processes to run jobs on: one per usable CPU, at most one per job, and
    only this one in a multiprocessing daemon (a Pool worker), which its pool
    may end with no chance to end the daemon's own children."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    mp = sys.modules.get("multiprocessing")
    return 1 if mp is not None and mp.current_process().daemon else min(job_count, cpus)


def sendable(exc: Exception, what: str) -> Exception:
    """``exc``, or a stated RuntimeError if pickle cannot send it; applied at any process count."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:  # unpickling runs the exception's own __init__: anything goes
        return RuntimeError(f"{what} raised {type(exc).__name__}, "
                            f"which cannot be sent between processes: {exc}")
    return exc


class Forked:
    """A forked process that runs ``fn(*args)``, a list, then pickles its items into a pipe.
    ``what`` names the process in the error of one that dies before sending them."""

    def __init__(self, what: str, fn, *args):
        self.what = what
        self.status = None  # the wait status, once reaped
        read_end, write_end = os.pipe()
        # Python >= 3.12 warns that forking with threads alive may deadlock the child.
        # Ours are OpenBLAS's, which stops its pool around fork (pthread_atfork); the
        # child runs single-threaded numpy on data it only reads, and its results came
        # out bit-identical with them alive.
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "This process", DeprecationWarning)
            self.pid = os.fork()
        if self.pid == 0:  # the child ends here, whatever happens: no traceback, no stdio flush
            code = 1
            try:
                os.close(read_end)
                # every item is made before the first write: a full pipe must not stall the work
                results = fn(*args)
                with open(write_end, "wb") as out:
                    for result in results:
                        pickle.dump(result, out)
                code = 0
            finally:
                os._exit(code)
        os.close(write_end)  # the child holds the only write end: its exit ends the pipe
        self.reader = open(read_end, "rb")

    def receive(self):
        """The next item, read with no copy beyond the arrays it holds."""
        try:
            return pickle.load(self.reader)
        except (EOFError, pickle.UnpicklingError):
            self.reader.close()
            self.status = os.waitpid(self.pid, 0)[1]
            raise ChildProcessError(
                f"{self.what} exited with code {os.waitstatus_to_exitcode(self.status)} "
                "before sending its results"
            ) from None

    def close(self) -> None:
        if self.status is None:  # not reaped, so the pid is still this child's
            import signal  # only here: commands that fork nothing never load it
            self.reader.close()
            os.kill(self.pid, signal.SIGTERM)  # a child still working has lost its caller
            self.status = os.waitpid(self.pid, 0)[1]
