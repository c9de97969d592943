"""Degree-2 factorization machine: sparse instances, parameters, prediction.

The model scores a sparse instance x as

    score(x) = w0 + sum_i w[i] x[i] + sum_{i<j} <V[i], V[j]> x[i] x[j]

where every feature i owns a k-dimensional factor row V[i] and the weight
of each feature pair is the inner product of the two rows.  ``predict_raw``
evaluates the interaction term through the factored identity

    0.5 * sum_f [ (sum_i V[i,f] x[i])^2 - sum_i (V[i,f] x[i])^2 ]

touching only nonzero entries, so the cost is O(nnz * k) instead of
quadratic in nnz.  The same identity scores a whole batch at once
(``_Batch``): the nonzeros of every instance are stacked into flat arrays
and summed per row with ``np.bincount``, so ``predict_raw`` and the
one-vs-all scorer share one kernel.  ``predict_raw_naive`` is the literal
pairwise double loop, kept as an independent cross-check oracle.
"""

from __future__ import annotations

import numpy as np

from .errors import DataFormatError, DimensionMismatchError
from .util import G17, LineCursor, atomic_write, open_text

MODEL_FORMAT_HEADER = "FMMODEL v1"


class SparseVector:
    """A sparse instance: parallel arrays of feature indices and values.

    Invariants: indices are non-negative and strictly increasing; values are
    finite and nonzero (zero entries are omitted rather than stored).  Both
    arrays are read-only.  The public constructor enforces the invariants on
    whatever it is given.  An internal builder may skip that check through
    ``_unchecked`` only when its indices come from a ``FeatureSpace``, which
    makes them hold by construction.
    """

    __slots__ = ("indices", "values")

    def __init__(self, indices, values):
        idx = np.array(indices, dtype=np.int64)
        val = np.array(values, dtype=np.float64)
        if idx.ndim != 1 or val.ndim != 1 or idx.size != val.size:
            raise ValueError("indices and values must be equal-length 1-d sequences")
        if idx.size:
            if int(idx[0]) < 0:
                raise ValueError("feature indices must be non-negative")
            if np.any(np.diff(idx) <= 0):
                raise ValueError("feature indices must be strictly increasing (no duplicates)")
            if not np.all(np.isfinite(val)):
                raise ValueError("feature values must be finite")
            if np.any(val == 0.0):
                raise ValueError("zero-valued entries must be omitted")
        idx.setflags(write=False)
        val.setflags(write=False)
        self.indices = idx
        self.values = val

    @classmethod
    def _unchecked(cls, indices: np.ndarray, values: np.ndarray) -> "SparseVector":
        """Wrap int64 and float64 arrays that nothing writes and that already
        meet the invariants; the caller guarantees them, nothing here checks."""
        indices.setflags(write=False)
        values.setflags(write=False)
        x = cls.__new__(cls)
        x.indices = indices
        x.values = values
        return x

    @classmethod
    def empty(cls) -> "SparseVector":
        return cls([], [])

    @classmethod
    def from_pairs(cls, pairs) -> "SparseVector":
        """Build from (index, value) pairs in any order; duplicate indices are an error."""
        items = sorted(pairs)
        if not items:
            return cls([], [])
        idx, val = zip(*items)
        return cls(idx, val)

    @classmethod
    def from_dict(cls, mapping) -> "SparseVector":
        return cls.from_pairs(mapping.items())

    @property
    def nnz(self) -> int:
        return int(self.indices.size)

    def to_pairs(self) -> list[tuple[int, float]]:
        return list(zip(self.indices.tolist(), self.values.tolist()))

    def __len__(self) -> int:
        return self.nnz

    def __eq__(self, other):
        if not isinstance(other, SparseVector):
            return NotImplemented
        return np.array_equal(self.indices, other.indices) and np.array_equal(
            self.values, other.values
        )

    def __repr__(self):
        inner = ", ".join(f"{i}: {v:g}" for i, v in self.to_pairs())
        return f"SparseVector({{{inner}}})"


class FMModel:
    """Factorization-machine parameters: bias w0, linear weights w, factor matrix V.

    ``w`` has shape (n,), ``V`` shape (n, k).  k = 0 degenerates to a plain
    linear model: V holds no columns and the interaction term is identically
    zero.  Readers treat models as immutable values; only the trainer mutates
    a model, and only one it owns.
    """

    __slots__ = ("w0", "w", "V")

    def __init__(self, w0: float, w, V):
        w = np.array(w, dtype=np.float64)
        V = np.array(V, dtype=np.float64, order="C")  # the trainer views each row as one item
        if w.ndim != 1:
            raise ValueError("w must be a 1-d vector")
        if V.ndim != 2:
            raise ValueError("V must be a 2-d matrix")
        if V.shape[0] != w.shape[0]:
            raise ValueError(f"V has {V.shape[0]} rows for {w.shape[0]} linear weights")
        w0 = float(w0)
        if not _finite_parameters(w0, w, V):
            raise ValueError("model parameters must be finite")
        self.w0 = w0
        self.w = w
        self.V = V

    @property
    def n(self) -> int:
        return int(self.w.shape[0])

    @property
    def k(self) -> int:
        return int(self.V.shape[1])

    def copy(self) -> "FMModel":
        return FMModel(self.w0, self.w.copy(), self.V.copy())

    def __eq__(self, other):
        if not isinstance(other, FMModel):
            return NotImplemented
        return (
            self.w0 == other.w0
            and np.array_equal(self.w, other.w)
            and np.array_equal(self.V, other.V)
        )

    def __repr__(self):
        return f"FMModel(n={self.n}, k={self.k})"

    def predict_raw(self, x: SparseVector) -> float:
        """Raw score through the factored interaction identity, O(nnz * k)."""
        return float(_Batch([x]).scores(self)[0])

    def predict_raw_naive(self, x: SparseVector) -> float:
        """Raw score through the literal pairwise double loop (cross-check oracle)."""
        _check_dimension(int(x.indices[-1]) if x.nnz else -1, self.n)
        idx = x.indices.tolist()
        vals = x.values.tolist()
        score = self.w0
        for i, v in zip(idx, vals):
            score += float(self.w[i]) * v
        for a in range(len(idx)):
            for b in range(a + 1, len(idx)):
                score += self.interaction_weight(idx[a], idx[b]) * vals[a] * vals[b]
        return score

    def interaction_weight(self, i: int, j: int) -> float:
        """Pairwise weight of features i and j: the inner product <V[i], V[j]>."""
        n = self.n
        if not (0 <= i < n and 0 <= j < n):
            raise DimensionMismatchError(f"feature pair ({i}, {j}) out of range for n={n}")
        return float(self.V[i] @ self.V[j])


def _finite_parameters(w0: float, w: np.ndarray, V: np.ndarray) -> bool:
    return bool(np.isfinite(w0) and np.isfinite(w).all() and np.isfinite(V).all())


def _check_dimension(top: int, n: int) -> None:
    if top >= n:
        raise DimensionMismatchError(f"feature index {top} out of range for n={n}")


class _Batch:
    """Instances stacked once into flat arrays, scored against any model.

    Entry j is the nonzero ``values[j]`` of feature ``indices[j]`` in row
    ``rows[j]``.  Every per-row sum is one ``np.bincount`` over ``rows``, so
    empty rows score exactly ``w0`` and a single nonzero has an exactly-zero
    interaction term.
    """

    __slots__ = ("size", "rows", "indices", "values", "top")

    def __init__(self, xs):
        xs = list(xs)
        self.size = len(xs)
        nnz = np.fromiter((x.nnz for x in xs), dtype=np.int64, count=self.size)
        self.rows = np.repeat(np.arange(self.size), nnz)
        self.indices = np.concatenate([x.indices for x in xs] or [np.empty(0, np.int64)])
        self.values = np.concatenate([x.values for x in xs] or [np.empty(0)])
        self.top = int(self.indices.max()) if self.indices.size else -1

    def _sum(self, weights) -> np.ndarray:
        return np.bincount(self.rows, weights=weights, minlength=self.size)

    def scores(self, model: FMModel) -> np.ndarray:
        """Raw score of every row: w0 + <w, x> + 0.5 * sum_f [(XV)_f^2 - (X^2 V^2)_f]."""
        _check_dimension(self.top, model.n)
        idx, vals = self.indices, self.values
        out = model.w0 + self._sum(model.w[idx] * vals)
        if model.k:
            pairs = np.zeros(self.size)
            for f in range(model.k):
                column = model.V[idx, f] * vals
                total = self._sum(column)
                pairs += total * total - self._sum(column * column)
            out += 0.5 * pairs
        return out


def write_fm_model(fh, model: FMModel) -> None:
    """Emit the FMMODEL v1 text block: header, "n k", w0, w line, V rows."""
    fh.write(MODEL_FORMAT_HEADER + "\n")
    fh.write(f"{model.n} {model.k}\n")
    fh.write(G17 % model.w0 + "\n")
    fh.write(" ".join([G17] * model.n) % tuple(model.w.tolist()) + "\n")
    row = " ".join([G17] * model.k) + "\n"
    fh.writelines(row % tuple(values) for values in model.V.tolist())


def read_fm_model(cursor: LineCursor) -> FMModel:
    """Parse one FMMODEL v1 block starting at the cursor position."""
    header = cursor.take("model header")
    if header != MODEL_FORMAT_HEADER:
        raise cursor.error(f"expected {MODEL_FORMAT_HEADER!r} header, got {header!r}")
    dims = cursor.take("model dimensions").split()
    try:
        n, k = (int(part) for part in dims)
    except ValueError:
        raise cursor.error("dimension line must hold two integers: n k") from None
    if n < 0 or k < 0:
        raise cursor.error("model dimensions must be non-negative")
    w0 = _take_floats(cursor, "bias", 1)[0]
    w = _take_block(cursor, "linear weights", 1, n)
    # rows are read before anything is allocated, so a bogus k costs nothing
    V = _take_block(cursor, "factor row {}", n, k)
    try:
        return FMModel(w0, w, V.reshape(n, k))
    except ValueError as exc:
        raise cursor.error(str(exc)) from None


def _take_block(cursor: LineCursor, what: str, rows: int, count: int) -> np.ndarray:
    """``rows`` lines of ``count`` floats each, as one flat array; line i is
    named ``what.format(i)`` in errors.

    One ``np.loadtxt`` parses the block; it gives ``float``'s bits on every
    token it accepts, but rejects some ``float`` accepts (``1_0``, non-ASCII
    digits) and skips blank lines.  A rejected or misshapen block is read again
    line by line with ``float`` from its own lines, which names a bad line.  An
    all-blank block never reaches loadtxt: it is the empty block (no rows, or
    k = 0) or an error.
    """
    start = cursor.lineno
    lines = cursor.take_lines(rows)
    if len(lines) == rows:
        if not any(map(str.split, lines)):  # loadtxt would warn "input contained no data"
            if not (rows and count):
                return np.empty(0)
        else:
            try:
                values = np.loadtxt(lines, dtype=np.float64, comments=None, ndmin=2)
                if values.shape == (rows, count):
                    return values.reshape(-1)
            except ValueError:
                pass
    # a short block ends the file, so the block's own lines end where the file does
    block = LineCursor(lines, cursor.path, start)
    return np.array(
        [v for i in range(rows) for v in _take_floats(block, what.format(i), count)]
    )


def _take_floats(cursor: LineCursor, what: str, count: int) -> list[float]:
    parts = cursor.take(what).split()
    if len(parts) != count:
        raise cursor.error(f"expected {count} values for {what}, got {len(parts)}")
    try:
        return [float(part) for part in parts]
    except ValueError:
        raise cursor.error(f"non-numeric value in {what}") from None


def save_fm_model(model: FMModel, path) -> None:
    with atomic_write(path) as fh:
        write_fm_model(fh, model)


def load_fm_model(path) -> FMModel:
    return _load_model_file(path, read_fm_model)


def _load_model_file(path, read_block):
    """The one block ``read_block`` parses from the file; nothing may follow it.

    The file is parsed as it is read, so a load holds one block of text at a
    time.  An undecodable line anywhere in the file is still the error reported,
    ahead of any parse error, as if the whole file had been decoded first.
    """
    with open_text(path) as fh:
        cursor = LineCursor(fh, path=str(path))
        try:
            model = read_block(cursor)
            if not cursor.at_end():
                raise cursor.error("trailing content after model block")
        except DataFormatError:
            for _ in fh:  # a decode error in the rest of the file takes precedence
                pass
            raise
    return model
