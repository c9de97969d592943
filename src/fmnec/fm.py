"""Degree-2 factorization machine: sparse instances, parameters, prediction.

The model scores a sparse instance x as

    score(x) = w0 + sum_i w[i] x[i] + sum_{i<j} <V[i], V[j]> x[i] x[j]

where every feature i owns a k-dimensional factor row V[i] and the weight
of each feature pair is the inner product of the two rows.  ``predict_raw``
evaluates the interaction term through the factored identity

    0.5 * sum_f [ (sum_i V[i,f] x[i])^2 - sum_i (V[i,f] x[i])^2 ]

touching only nonzero entries, so the cost is O(nnz * k) instead of quadratic in nnz.  A
``_Batch`` holds many instances as CSR arrays (row bounds, every nonzero in one flat array)
and one label per row: the one shape that SGD trains on and the identity scores, all rows at
once, so ``predict_raw`` and the one-vs-all scorer share one kernel.  ``predict_raw_naive``
is the literal pairwise double loop, kept as an independent cross-check oracle.  A model is
saved and loaded as one label of a ``multiclass`` model file.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError


class SparseVector:
    """A sparse instance: parallel arrays of feature indices and values.

    Invariants: indices are non-negative and strictly increasing; values are
    finite and nonzero (zero entries are omitted rather than stored).  Both
    arrays are read-only.  The constructor enforces the invariants on
    whatever it is given.
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
    def empty(cls) -> "SparseVector":
        return cls([], [])

    @property
    def nnz(self) -> int:
        return int(self.indices.size)

    def __eq__(self, other):
        if not isinstance(other, SparseVector):
            return NotImplemented
        return np.array_equal(self.indices, other.indices) and np.array_equal(
            self.values, other.values
        )

    def __repr__(self):
        inner = ", ".join(f"{i}: {v:g}" for i, v in zip(self.indices.tolist(), self.values.tolist()))
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
        return float(_Batch.of([x]).scores(self)[0])

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
    """Instances stacked once into flat CSR arrays, and their labels (tags, or -1 and +1).

    Row r holds entries ``bounds[r]`` to ``bounds[r + 1]``; entry j is the nonzero ``values[j]``
    of feature ``indices[j]``, and ``values`` is None when every value is 1.0.  Scores sum per
    row with one ``np.bincount`` over the entries' rows, so empty rows score exactly ``w0`` and
    a single nonzero has an exactly-zero interaction term.
    """

    __slots__ = ("bounds", "indices", "values", "top", "labels")

    def __init__(self, counts, indices, values=None, labels=None):
        self.bounds = np.concatenate(([0], np.cumsum(counts, dtype=np.int64)))
        self.indices = indices
        self.values = values
        self.top = int(indices.max()) if indices.size else -1
        self.labels = labels

    @classmethod
    def of(cls, data, labeled=False) -> "_Batch":
        """``data`` itself if it is a batch, else the batch of its ``SparseVector``s, or with
        ``labeled`` of its ``(SparseVector, label)`` pairs; all-1.0 values are dropped."""
        if isinstance(data, cls):
            return data
        data = list(data)
        xs, labels = ([x for x, _ in data], [y for _, y in data]) if labeled else (data, None)
        values = np.concatenate([x.values for x in xs] or [np.empty(0)])
        return cls([x.nnz for x in xs],
                   np.concatenate([x.indices for x in xs] or [np.empty(0, np.int64)]),
                   None if (values == 1.0).all() else values, labels)

    def __len__(self) -> int:
        return len(self.bounds) - 1

    def scores(self, model: FMModel) -> np.ndarray:
        """Raw score of every row: w0 + <w, x> + 0.5 * sum_f [(XV)_f^2 - (X^2 V^2)_f].  With
        no values (all 1.0) the products by 1.0, which are exact, are skipped."""
        _check_dimension(self.top, model.n)
        idx, vals, size = self.indices, self.values, len(self)
        rows = np.repeat(np.arange(size), np.diff(self.bounds))  # only a scored batch needs it

        def per_row(weights):
            return np.bincount(rows, weights=weights, minlength=size)

        out = model.w0 + per_row(model.w[idx] if vals is None else model.w[idx] * vals)
        if model.k and idx.size:  # with no entries every pair term is 0: k may be huge
            pairs = np.zeros(size)
            for f in range(model.k):
                # a contiguous copy of the column gathers faster than V's strided one
                column = model.V[:, f].copy()[idx] if vals is None else model.V[idx, f] * vals
                total = per_row(column)
                pairs += total * total - per_row(column * column)
            out += 0.5 * pairs
        return out
