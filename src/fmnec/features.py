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
"""

from __future__ import annotations

from dataclasses import dataclass

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
    feats = {f"ctx={token}" for token in candidate.left_context}
    feats.update(f"ctx={token}" for token in candidate.right_context)
    chars = "".join(candidate.span_tokens)
    feats.add(f"cap={int(candidate.span_tokens[0][0].isupper())}")
    upper = all(map(str.isupper, chars))
    feats.add(f"all-low={int(all(map(str.islower, chars)))}")
    feats.add(f"all-cap1={int(upper)}")
    feats.add(f"all-cap2={int(upper or all(map(str.isupper, chars.replace('.', ''))))}")
    count = len(candidate.span_tokens)
    if count == 1:
        feats.add("num-tokens=1")
    elif count == 2:
        feats.add("num-tokens=2")
    else:
        feats.add("num-tokens>2")
    feats.add("dummy")
    return feats


class FeatureSpace:
    """Frozen bijection between feature names and dense column indices."""

    def __init__(self, names):
        names = list(names)
        index = {name: pos for pos, name in enumerate(names)}
        if len(index) != len(names) or first_bad_token(names) is not None:
            raise ValueError(_first_name_error(names)[1])
        self.name_to_index = index
        self.index_to_name = names
        self._ones = np.ones(len(names))  # every vector's values are a slice of it
        self._ones.setflags(write=False)

    @classmethod
    def fit(cls, candidates) -> "FeatureSpace":
        """Index the union of features over training candidates.

        Indices are assigned in lexicographic name order, so fitting is
        reproducible regardless of candidate order.
        """
        candidates = list(candidates)
        if not candidates:
            raise ConfigError("cannot fit a feature space on zero candidates")
        names = set()
        for candidate in candidates:
            names.update(extract_features(candidate))
        return cls(sorted(names))

    def vectorize(self, names) -> SparseVector:
        """Binary vector over the known names; unknown names are silently dropped."""
        index = self.name_to_index
        # distinct indices in [0, len(self)), sorted here, and every value is
        # 1.0: the vector's invariants hold by construction
        idx = np.array(sorted({index[nm] for nm in names if nm in index}), dtype=np.int64)
        return SparseVector._unchecked(idx, self._ones[: idx.size])

    def vectorize_candidate(self, candidate: Candidate) -> SparseVector:
        return self.vectorize(extract_features(candidate))

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
