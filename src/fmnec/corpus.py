"""Column-format corpus ingestion, candidate extraction, and statistics.

Input files hold one token per line in whitespace-separated columns, with
blank lines between sentences and ``-DOCSTART-`` document markers skipped.
Candidates are the maximal B-X/I-X entity spans plus every capitalized
non-entity token (gold tag O); the unknown filter then drops evaluation
candidates whose surface form already occurs among training candidates.
"""

from __future__ import annotations

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
    """One sentence as a tuple of (surface, BIO tag) pairs."""

    tokens: tuple[tuple[str, str], ...]
    _parsed = False  # True from parse_column_file alone: tags repaired, each token checked

    def __post_init__(self):
        object.__setattr__(self, "tokens", tuple(self.tokens))

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
    """Read sentences from a whitespace-column token file, repairing BIO tags.

    Equal tokens and equal tags are one ``str`` object each: a corpus
    repeats a few thousand distinct strings a hundred thousand times.
    """
    sentences: list[Sentence] = []
    current: list[tuple[str, str]] = []
    shared = {}.setdefault

    def flush():
        if current:
            words = [word for word, _ in current]
            tags = (shared(tag, tag) for tag in repair_bio(tag for _, tag in current))
            sentences.append(Sentence(zip(words, tags)))
            object.__setattr__(sentences[-1], "_parsed", True)
            current.clear()

    with open_text(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line:
                flush()
                continue
            if line.startswith("-DOCSTART-"):
                continue
            cols = line.split()
            for col in (token_column, tag_column):
                if col >= len(cols) or col < -len(cols):
                    raise DataFormatError(
                        f"row has {len(cols)} columns, column {col} requested",
                        path=str(path),
                        line=lineno,
                    )
            tag = cols[tag_column]
            if tag in ("B-", "I-"):
                raise DataFormatError(
                    f"BIO tag {tag!r} has no entity type", path=str(path), line=lineno
                )
            word = cols[token_column]
            current.append((shared(word, word), tag))
    flush()
    return sentences


def extract_candidates(sentences) -> list[Candidate]:
    """Entity-span candidates plus capitalized non-entity tokens (gold tag O).

    After ``repair_bio`` a span is a B-X tag plus the I-X tags right after it;
    every other tag counts as O.  Contexts are all remaining sentence tokens
    on each side of the span.
    """
    out = []
    shared = {}.setdefault  # one str per entity type, not one per span
    for sentence in sentences:
        words, tags, build = sentence.words, sentence.tags, Candidate._unchecked
        if not sentence._parsed:  # built by hand: every candidate gets the public constructor
            tags, build = repair_bio(tags), Candidate
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


def read_candidates_tsv(path) -> list[Candidate]:
    """Candidates of an interchange file; equal tokens and tags are one ``str`` each."""
    out = []
    shared = {}.setdefault

    def tokens_of(text):
        words = text.split()
        return tuple(map(shared, words, words))
    with open_text(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 4:
                raise DataFormatError(
                    f"expected 4 tab-separated fields, got {len(parts)}",
                    path=str(path),
                    line=lineno,
                )
            tag, span, left, right = parts
            tokens = tokens_of(span)
            # split() tokens meet the token rule: only an empty span or a bad tag needs the check
            trusted = tokens and (not tag or first_bad_token((tag,)) is None)
            try:
                build = Candidate._unchecked if trusted else Candidate
                out.append(build(tokens, tokens_of(left), tokens_of(right),
                                 shared(tag, tag) if tag else None))
            except ValueError as exc:
                raise DataFormatError(str(exc), path=str(path), line=lineno) from None
    return out
