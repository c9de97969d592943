"""Column-format corpus ingestion, candidate extraction, and statistics.

Input files hold one token per line in whitespace-separated columns, with
blank lines between sentences and ``-DOCSTART-`` document markers skipped.
Candidates are the maximal B-X/I-X entity spans plus every capitalized
non-entity token (gold tag O); the unknown filter then drops evaluation
candidates whose surface form already occurs among training candidates.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from dataclasses import dataclass

from .errors import ConfigError, DataFormatError
from .features import Candidate
from .util import atomic_write, first_bad_token, format_table, open_text

# gold tag of the capitalized non-entity candidates; scored like any tag, but
# reports leave it out of the micro averages and the PR curves
NEGATIVE_TAG = "O"


@dataclass(frozen=True)
class Sentence:
    """One sentence as a tuple of (surface, BIO tag) pairs.  Words and tags meet Candidate's
    token rule and every tag is typed; the tags are stored repaired by repair_bio, interned."""

    tokens: tuple[tuple[str, str], ...]

    def __post_init__(self):
        words = [word for word, _ in self.tokens]
        tags = [tag for _, tag in self.tokens]
        if "B-" in tags or "I-" in tags:
            untyped = next(tag for tag in tags if tag in ("B-", "I-"))
            raise ValueError(f"BIO tag {untyped!r} has no entity type")
        bad = first_bad_token((*words, *tags))
        if bad is not None:
            raise ValueError(f"tokens must be non-empty and whitespace-free: {bad!r}")
        object.__setattr__(self, "tokens", tuple(zip(words, map(sys.intern, repair_bio(tags)))))

    @property
    def words(self) -> list[str]:
        return [word for word, _ in self.tokens]

    @property
    def tags(self) -> list[str]:
        return [tag for _, tag in self.tokens]


def repair_bio(tags) -> list[str]:
    """Promote orphan I-X tags (sequence start or type break) to B-X."""
    fixed = []
    prev = "O"
    for tag in tags:
        if tag.startswith("I-") and prev not in (f"B-{tag[2:]}", f"I-{tag[2:]}"):
            tag = "B-" + tag[2:]
        fixed.append(tag)
        prev = tag
    return fixed


def parse_column_file(path, token_column: int = 0, tag_column: int = 3) -> list[Sentence]:
    """Read sentences from a whitespace-column token file; ``Sentence`` repairs the tags.

    Equal tokens are one ``str`` object each: a corpus repeats a few thousand
    distinct strings a hundred thousand times.
    """
    sentences: list[Sentence] = []
    current: list[tuple[str, str]] = []
    shared = {}.setdefault
    with open_text(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line:
                if current:
                    sentences.append(Sentence(current))
                    current = []
                continue
            if line.startswith("-DOCSTART-"):
                continue
            cols = line.split()
            try:
                word, tag = cols[token_column], cols[tag_column]
            except IndexError:
                col = next(c for c in (token_column, tag_column) if not -len(cols) <= c < len(cols))
                raise DataFormatError(f"row has {len(cols)} columns, column {col} requested",
                                      path=str(path), line=lineno) from None
            if tag in ("B-", "I-"):
                raise DataFormatError(
                    f"BIO tag {tag!r} has no entity type", path=str(path), line=lineno
                )
            current.append((shared(word, word), tag))
    if current:
        sentences.append(Sentence(current))
    return sentences


def extract_candidates(sentences) -> list[Candidate]:
    """Entity-span candidates plus capitalized non-entity tokens (gold tag O).

    A ``Sentence``'s tags are repaired, so a span is a B-X tag plus the I-X
    tags right after it; every other tag counts as O.  Contexts are all
    remaining sentence tokens on each side of the span.
    """
    out = []
    shared = {}.setdefault  # one str per entity type, not one per span
    build = Candidate._unchecked  # a Sentence's words and tags meet Candidate's rules
    for sentence in sentences:
        words, tags = sentence.words, sentence.tags
        pos = 0
        while pos < len(words):
            tag = tags[pos]
            if tag.startswith("B-"):
                end = pos + 1
                while end < len(words) and tags[end] == "I-" + tag[2:]:
                    end += 1
                label = tag[2:]
                out.append(build(words[pos:end], words[:pos], words[end:], shared(label, label)))
                pos = end
            else:
                if words[pos][0].isupper():
                    out.append(build((words[pos],), words[:pos], words[pos + 1 :], NEGATIVE_TAG))
                pos += 1
    return out


def filter_unknown(eval_candidates, training_candidates) -> list[Candidate]:
    """Drop eval candidates whose surface occurs in training (case-insensitive)."""
    seen = {candidate.surface.lower() for candidate in training_candidates}
    return [c for c in eval_candidates if c.surface.lower() not in seen]


@dataclass(frozen=True)
class TagCount:
    tokens: int
    types: int


def corpus_stats(candidates) -> dict[str, TagCount]:
    """Per-tag candidate counts: occurrences (tokens) and distinct lowercased
    surface forms (types)."""
    tokens: dict[str, int] = defaultdict(int)
    surfaces: dict[str, set] = defaultdict(set)
    for candidate in candidates:
        if candidate.gold_tag is None:
            raise ConfigError("corpus statistics need gold-tagged candidates")
        tokens[candidate.gold_tag] += 1
        surfaces[candidate.gold_tag].add(candidate.surface.lower())
    return {tag: TagCount(tokens[tag], len(surfaces[tag])) for tag in tokens}


def format_stats_table(stats_by_split: dict[str, dict[str, TagCount]]) -> str:
    """Counts table: one row per tag, one column per split, cells "tokens (types)"; entity
    tags sorted lexicographically, the non-entity tag O last."""
    splits = list(stats_by_split)
    tags = {tag for stats in stats_by_split.values() for tag in stats}
    rows = [["tag", *splits]]
    for tag in sorted(tags, key=lambda t: (t == NEGATIVE_TAG, t)):
        row = [tag]
        for split in splits:
            tc = stats_by_split[split].get(tag)
            row.append(f"{tc.tokens:,} ({tc.types:,})" if tc else "-")
        rows.append(row)
    return format_table(rows)


def write_candidates_tsv(path, candidates) -> None:
    """Interchange file: tag, span, left context, right context (space-joined)."""
    with atomic_write(path) as fh:
        for c in candidates:
            fields = [
                c.gold_tag or "",
                c.surface,
                " ".join(c.left_context),
                " ".join(c.right_context),
            ]
            fh.write("\t".join(fields) + "\n")


def candidate_rows(path):
    """The rows of an interchange file, each checked as it is read: its line number, its tag
    (None when empty), and its span, left and right context text.  Blank lines are skipped."""
    with open_text(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            parts = raw.rstrip("\n").split("\t")
            if len(parts) != 4:
                if parts == [""]:
                    continue
                raise DataFormatError(f"expected 4 tab-separated fields, got {len(parts)}",
                                      path=str(path), line=lineno)
            tag, span, left, right = parts
            # split() tokens meet the token rule; the constructor words an empty span or bad tag
            if not span.split() or tag and first_bad_token((tag,)) is not None:
                try:
                    Candidate(span.split(), (), (), tag or None)
                except ValueError as exc:
                    raise DataFormatError(str(exc), path=str(path), line=lineno) from None
            yield lineno, tag or None, span, left, right


def read_candidates_tsv(path) -> list[Candidate]:
    """Candidates of an interchange file; equal tokens and tags are one ``str`` each."""
    return candidates_of(candidate_rows(path))


def candidates_of(rows) -> list[Candidate]:
    """The candidates of ``candidate_rows``' rows; equal tokens and tags are one ``str`` each."""
    shared = {}.setdefault

    def tokens_of(text):
        words = text.split()
        return tuple(map(shared, words, words))
    return [Candidate._unchecked(tokens_of(span), tokens_of(left), tokens_of(right),
                                 tag and shared(tag, tag))
            for _, tag, span, left, right in rows]
