"""Feature templates for entity-mention candidates.

For one candidate the extractor emits:

* ``ctx=<token>``  for every distinct context token; left and right contexts
  are pooled into a single unordered bag,
* ``cap=1`` or ``cap=0``  whether the first character of the first span
  token is an uppercase letter,
* ``all-low=1|0``   every span character is a lowercase letter,
* ``all-cap1=1|0``  every span character is an uppercase letter,
* ``all-cap2=1|0``  every span character is an uppercase letter or ``.``,
* exactly one of ``num-tokens=1``, ``num-tokens=2``, ``num-tokens>2``,
* ``dummy``  always on, giving every context feature a constant interaction
  partner.

Character classes are judged per character over all span tokens joined
(without the joining spaces), so digits and punctuation break the
``all-low``/``all-cap1`` predicates while ``.`` is admitted by ``all-cap2``.

``FeatureSpace.fit`` and ``vectorize_batch`` read ``Candidate``s or the rows of a candidates
file; ``vectorize_batch`` maps them straight to CSR arrays, which every command scores and
trains on, and ``vectorize_candidate`` is its one-row case.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import chain, islice, repeat

import numpy as np

from .errors import ConfigError, DataFormatError
from .fm import SparseVector
from .util import atomic_write, first_bad_token, open_text


@dataclass(frozen=True)
class Candidate:
    """An entity-mention candidate inside one sentence."""

    span_tokens: tuple[str, ...]
    left_context: tuple[str, ...] = ()
    right_context: tuple[str, ...] = ()
    gold_tag: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "span_tokens", tuple(self.span_tokens))
        object.__setattr__(self, "left_context", tuple(self.left_context))
        object.__setattr__(self, "right_context", tuple(self.right_context))
        if not self.span_tokens:
            raise ValueError("candidate span must be non-empty")
        bad = first_bad_token((*self.span_tokens, *self.left_context, *self.right_context))
        if bad is not None:
            raise ValueError(f"tokens must be non-empty and whitespace-free: {bad!r}")
        if self.gold_tag is not None and first_bad_token((self.gold_tag,)) is not None:
            raise ValueError(f"gold tag must be non-empty and whitespace-free: {self.gold_tag!r}")

    @classmethod
    def _unchecked(cls, span_tokens, left_context, right_context, gold_tag) -> "Candidate":
        """Build from tokens and a tag that already meet the invariants; nothing here checks."""
        candidate = cls.__new__(cls)
        vars(candidate).update(span_tokens=tuple(span_tokens), left_context=tuple(left_context),
                               right_context=tuple(right_context), gold_tag=gold_tag)
        return candidate

    @property
    def surface(self) -> str:
        return " ".join(self.span_tokens)


def extract_features(candidate: Candidate) -> set[str]:
    """Feature names for one candidate (a set, so order never matters)."""
    span, context = _parts(candidate)
    return {*map(_ctx_name, context), *_shape_names(_shape(span.split()))}


def _parts(row) -> tuple[str, tuple[str, ...] | list[str]]:
    """The span text and the context tokens, left then right (one bag of ``ctx=`` names), of
    a ``Candidate`` or of a ``corpus.candidate_rows`` row."""
    if isinstance(row, Candidate):
        return row.surface, row.left_context + row.right_context
    return row[2], f"{row[3]} {row[4]}".split()


_CTX = "ctx="
_ctx_name = _CTX.__add__  # the feature name of a context token


def _shape(span_tokens) -> tuple[bool, bool, bool, bool, int]:
    """The span predicates: cap, all-low, all-cap1, all-cap2 and the token count, 3 for > 2."""
    chars = "".join(span_tokens)
    upper = all(map(str.isupper, chars))
    return (
        span_tokens[0][0].isupper(),
        all(map(str.islower, chars)),
        upper,
        upper or all(map(str.isupper, chars.replace(".", ""))),
        min(len(span_tokens), 3),
    )


def _shape_names(shape) -> tuple[str, ...]:
    """The names of a ``_shape`` tuple, ``dummy`` included."""
    cap, low, cap1, cap2, count = shape
    return (f"cap={int(cap)}", f"all-low={int(low)}", f"all-cap1={int(cap1)}",
            f"all-cap2={int(cap2)}", ("num-tokens=1", "num-tokens=2", "num-tokens>2")[count - 1],
            "dummy")


class FeatureSpace:
    """Frozen bijection between feature names and dense column indices."""

    _CHUNK = 256  # rows per step of vectorize_batch: its temporaries stay small

    def __init__(self, names):
        names = list(names)
        index = {name: pos for pos, name in enumerate(names)}
        if len(index) != len(names) or first_bad_token(names) is not None:
            raise ValueError(_first_name_error(names)[1])
        self.name_to_index = index
        self.index_to_name = names
        # context token -> its ctx= name's index: no name is built per occurrence
        self._ctx_index = {n[len(_CTX):]: i for n, i in index.items() if n.startswith(_CTX)}

    @classmethod
    def fit(cls, rows) -> "FeatureSpace":
        """Index the union of features over training rows (see ``_parts``).

        Indices are assigned in lexicographic name order, so fitting is
        reproducible regardless of row order.
        """
        tokens, spans = set(), set()
        for span, context in map(_parts, rows):
            tokens.update(context)
            spans.add(span)
        if not spans:
            raise ConfigError("cannot fit a feature space on zero candidates")
        # extract_features' names, collected as their parts
        shapes = {_shape(span.split()) for span in spans}
        return cls(sorted(set(map(_ctx_name, tokens)).union(*map(_shape_names, shapes))))

    def vectorize(self, names) -> SparseVector:
        """Binary vector over the known names; unknown names are silently dropped."""
        index = self.name_to_index
        idx = np.array(sorted({index[nm] for nm in names if nm in index}), dtype=np.int64)
        return SparseVector(idx, np.ones(idx.size))

    def vectorize_candidate(self, candidate: Candidate) -> SparseVector:
        """``vectorize(extract_features(candidate))``: the one-row ``vectorize_batch``."""
        indices = self.vectorize_batch((candidate,))[1]
        return SparseVector(indices, np.ones(indices.size))

    def vectorize_batch(self, rows) -> tuple[np.ndarray, np.ndarray]:
        """The vectors of an iterable of rows (see ``_parts``) as CSR arrays: each row's nonzero
        count, then every row's sorted distinct indices, concatenated (every value is 1.0),
        built ``_CHUNK`` rows at a time."""
        get, m, rows = self.name_to_index.get, len(self) + 1, iter(rows)  # m - 1: unknown name
        shapes = {}  # _shape tuple -> its row in the table of its names' indices
        shape_row = cache(lambda span: shapes.setdefault(_shape(span.split()), len(shapes)))
        counts, indices = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)]
        while chunk := list(islice(rows, self._CHUNK)):
            spans, contexts = zip(*map(_parts, chunk))
            ids = list(map(shape_row, spans))
            table = np.array([[get(name, m - 1) for name in _shape_names(shape)]
                              for shape in shapes])
            found = np.fromiter(map(self._ctx_index.get, chain.from_iterable(contexts),
                                    repeat(m - 1)), np.int64)
            # entry (row, index) as row * m + index: one sort orders each row, repeats adjacent
            offsets = np.arange(len(chunk)) * m
            keys = np.sort(np.concatenate([np.repeat(offsets, list(map(len, contexts))) + found,
                                           offsets[:, None] + table[ids]], axis=None))
            keys = keys[(np.diff(keys, prepend=-1) > 0) & (keys % m < m - 1)]
            counts.append(np.bincount(keys // m, minlength=len(chunk)))
            indices.append(keys % m)
        return np.concatenate(counts), np.concatenate(indices)

    def __len__(self) -> int:
        return len(self.index_to_name)

    def __contains__(self, name) -> bool:
        return name in self.name_to_index

    def __eq__(self, other):
        if not isinstance(other, FeatureSpace):
            return NotImplemented
        return self.index_to_name == other.index_to_name

    def save(self, path) -> None:
        """One feature name per line; the line number (from 0) is the column index."""
        with atomic_write(path) as fh:
            for name in self.index_to_name:
                fh.write(name + "\n")

    @classmethod
    def load(cls, path) -> "FeatureSpace":
        with open_text(path) as fh:
            names = [line.rstrip("\n") for line in fh]
        try:
            return cls(names)
        except ValueError:
            pos, message = _first_name_error(names)
            raise DataFormatError(message, path=str(path), line=pos + 1) from None


def _first_name_error(names) -> tuple[int, str]:
    """Position and message of the first name that breaks the token rule or repeats."""
    seen = set()
    for pos, name in enumerate(names):
        if first_bad_token((name,)) is not None:
            return pos, f"feature names must be non-empty and whitespace-free: {name!r}"
        if name in seen:
            return pos, f"duplicate feature name {name!r}"
        seen.add(name)
