"""Seeded synthetic column corpus shaped like CoNLL-2003 English.

Writes ``train.txt``, ``dev.txt`` and ``test.txt`` in the four-column
layout ``token POS chunk tag`` (IOB1 tags, as in the original data, so the
reader's BIO repair runs), with ``-DOCSTART-`` markers and blank lines
between sentences.  Nothing is downloaded; the same seed and scale give
byte-identical files.

Shape of the data at ``scale=1``:

* 14,041 / 3,250 / 3,453 sentences of about 14.5 tokens (CoNLL-2003
  train / testa / testb sentence counts);
* lowercase filler words drawn from a Zipfian vocabulary;
* four entity types with per-type surface shapes (PER mostly two tokens,
  LOC one, ORG one to three tokens or an acronym, MISC one token, some
  dotted) and Zipfian surface pools sized so that training PER lands near
  the criterion-7 reference of 6,516 tokens over 3,489 types;
* capitalized ``O`` tokens: sentence-initial filler plus a small
  capitalized vocabulary;
* context cue words that correlate with the entity type, and cue pairs
  whose meaning flips when both occur (an XOR that only the pairwise FM
  term can model);
* dev/test entity mentions drawn mostly from surface pools that training
  never uses, so the unknown filter keeps a real share of candidates.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import os
import random
from collections import Counter, defaultdict

TYPES = ("PER", "LOC", "ORG", "MISC")
# CoNLL-2003 sentence counts (train, testa, testb) at scale 1
SPLIT_SENTENCES = {"train": 14041, "dev": 3250, "test": 3453}
# training mentions per type at scale 1 (PER is the criterion-7 reference)
MENTIONS = {"PER": 6516, "LOC": 7140, "ORG": 6321, "MISC": 3438}
# surface pool size per type and the Zipf exponent of draws from it; the
# PER pool is sized so 6,516 draws give about 3,489 distinct surfaces
POOL_SIZE = {"PER": 7000, "LOC": 3000, "ORG": 4500, "MISC": 1800}
POOL_EXPONENT = 0.6
HELD_OUT_SHARE = 0.6  # dev/test mentions drawn from pools unseen in training
FILLER_VOCAB = 12000
CAP_O_VOCAB = 300
CAP_O_RATE = 0.035  # share of filler tokens replaced by a capitalized O word
CUE_RATE = 0.85  # chance a mention carries a type cue on each side
PAIR_RATE = 0.3  # chance a PER/LOC mention carries an XOR cue pair
MEAN_LENGTH = 14.5
DOC_SENTENCES = 15  # one -DOCSTART- marker per this many sentences

_ONSETS = ("b", "d", "f", "g", "h", "k", "l", "m", "n", "p", "r", "s", "t", "v", "z",
           "br", "ch", "dr", "gr", "kl", "pr", "sh", "st", "tr", "w")
_VOWELS = ("a", "e", "i", "o", "u", "ai", "ea", "io", "ou")
_CODAS = ("", "", "", "n", "r", "s", "l", "m", "t", "nd", "rk", "st")
_SYLLABLES = tuple(a + b + c for a in _ONSETS for b in _VOWELS for c in _CODAS)
_LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"


class _Words:
    """Unique pseudo-words built from syllables; no two calls repeat a word."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used: set[str] = set()

    def make(self, syllables_lo=1, syllables_hi=3) -> str:
        while True:
            count = self.rng.randint(syllables_lo, syllables_hi)
            word = "".join(self.rng.choices(_SYLLABLES, k=count))
            if word not in self.used:
                self.used.add(word)
                return word

    def many(self, count, lo=1, hi=3) -> list[str]:
        return [self.make(lo, hi) for _ in range(count)]


def _zipf_cdf(size: int, exponent: float) -> list[float]:
    """Cumulative Zipf weights over ranks 1..size (for ``choices``)."""
    return list(itertools.accumulate(1.0 / rank**exponent for rank in range(1, size + 1)))


def _poisson(rng: random.Random, mean: float) -> int:
    """Knuth's multiplication method; exact for the small means used here."""
    limit = math.exp(-mean)
    count, product = 0, rng.random()
    while product > limit:
        count += 1
        product *= rng.random()
    return count


def _surface(kind: str, words: _Words, rng: random.Random, first_names) -> tuple[str, ...]:
    if kind == "PER":
        last = words.make(2, 3).capitalize()
        roll = rng.random()
        if roll < 0.3:
            return (last,)
        first = rng.choice(first_names)
        if roll < 0.95:
            return (first, last)
        return (first, words.make(1, 2).capitalize(), last)
    if kind == "LOC":
        if rng.random() < 0.85:
            return (words.make(2, 3).capitalize(),)
        return (words.make(1, 2).capitalize(), words.make(2, 3).capitalize())
    if kind == "ORG":
        roll = rng.random()
        if roll < 0.2:
            return ("".join(rng.choices(_LETTERS, k=rng.randint(2, 4))),)
        count = 1 if roll < 0.6 else (2 if roll < 0.9 else 3)
        return tuple(words.make(1, 3).capitalize() for _ in range(count))
    roll = rng.random()  # MISC
    if roll < 0.15:
        return ("".join(letter + "." for letter in rng.choices(_LETTERS, k=2)),)
    if roll < 0.85:
        return (words.make(2, 3).capitalize() + "ian",)
    return (words.make(1, 2).capitalize(), words.make(2, 3).capitalize())


class _Lexicon:
    """Every word list and surface pool the sentences draw from."""

    def __init__(self, rng: random.Random):
        words = _Words(rng)
        self.filler = words.many(FILLER_VOCAB, 1, 3)
        self.filler_cdf = _zipf_cdf(FILLER_VOCAB, 1.05)
        self.cap_o = [w.capitalize() for w in words.many(CAP_O_VOCAB, 1, 3)]
        self.cap_o_cdf = _zipf_cdf(CAP_O_VOCAB, 1.0)
        self.cues = {kind: words.many(24, 1, 2) for kind in TYPES}
        self.cue_cdf = _zipf_cdf(24, 1.0)
        self.pairs = [tuple(words.many(2, 1, 2)) for _ in range(12)]
        first_names = [w.capitalize() for w in words.many(500, 1, 2)]
        # pools[kind][0] feeds every split, pools[kind][1] only dev and test
        self.pools = {}
        for kind in TYPES:
            seen: set[tuple[str, ...]] = set()
            pool_pair = []
            for _ in range(2):
                pool = []
                while len(pool) < POOL_SIZE[kind]:
                    surface = _surface(kind, words, rng, first_names)
                    key = tuple(t.lower() for t in surface)
                    if key not in seen:
                        seen.add(key)
                        pool.append(surface)
                pool_pair.append(pool)
            self.pools[kind] = pool_pair
        self.pool_cdf = {kind: _zipf_cdf(POOL_SIZE[kind], POOL_EXPONENT) for kind in TYPES}
        self.type_cdf = list(itertools.accumulate(MENTIONS[kind] for kind in TYPES))
        self.mentions_per_sentence = sum(MENTIONS.values()) / SPLIT_SENTENCES["train"]


def _mention_block(lex: _Lexicon, rng: random.Random, kind: str, held_out: bool):
    """Tokens (word, tag) of one mention with its cue words around it."""
    pool = lex.pools[kind][1 if held_out else 0]
    surface = rng.choices(pool, cum_weights=lex.pool_cdf[kind])[0]
    block = [(token, f"I-{kind}") for token in surface]
    cues = lex.cues[kind]
    if rng.random() < CUE_RATE:
        block.insert(0, (rng.choices(cues, cum_weights=lex.cue_cdf)[0], "O"))
    if rng.random() < CUE_RATE:
        block.append((rng.choices(cues, cum_weights=lex.cue_cdf)[0], "O"))
    if kind in ("PER", "LOC") and rng.random() < PAIR_RATE:
        a, b = rng.choice(lex.pairs)
        # PER carries exactly one word of a pair, LOC carries both
        if kind == "LOC":
            block = [(a, "O"), *block, (b, "O")]
        elif rng.random() < 0.5:
            block.insert(0, (a, "O"))
        else:
            block.append((b, "O"))
    return block


def _sentence(lex: _Lexicon, rng: random.Random, held_out_share: float) -> list[tuple[str, str]]:
    length = max(3, _poisson(rng, MEAN_LENGTH))
    blocks = []
    for _ in range(_poisson(rng, lex.mentions_per_sentence)):
        kind = rng.choices(TYPES, cum_weights=lex.type_cdf)[0]
        blocks.append(_mention_block(lex, rng, kind, rng.random() < held_out_share))
    used = sum(len(b) for b in blocks)
    fillers = max(1, length - used)
    slots = []
    for word in rng.choices(lex.filler, cum_weights=lex.filler_cdf, k=fillers):
        if rng.random() < CAP_O_RATE:
            word = rng.choices(lex.cap_o, cum_weights=lex.cap_o_cdf)[0]
        slots.append(word)
    # blocks go between filler slots; two mentions never touch, so IOB1
    # needs no B- tags
    gaps = sorted(rng.randint(0, fillers) for _ in blocks)
    tokens: list[tuple[str, str]] = []
    for slot in range(fillers + 1):
        while gaps and gaps[0] == slot:
            gaps.pop(0)
            if tokens and tokens[-1][1] != "O":
                tokens.append((rng.choices(lex.filler, cum_weights=lex.filler_cdf)[0], "O"))
            tokens.extend(blocks.pop(0))
        if slot < fillers:
            tokens.append((slots[slot], "O"))
    first, tag = tokens[0]
    if tag == "O":
        tokens[0] = (first.capitalize(), tag)
    return tokens


def _write_split(path, sentences) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("-DOCSTART- -X- -X- O\n\n")
        for count, sentence in enumerate(sentences, 1):
            for word, tag in sentence:
                pos = "NNP" if word[0].isupper() else "NN"
                fh.write(f"{word} {pos} I-NP {tag}\n")
            fh.write("\n")
            if count % DOC_SENTENCES == 0 and count < len(sentences):
                fh.write("-DOCSTART- -X- -X- O\n\n")


def _tally(sentences) -> dict:
    """Generated mention counts per tag: tokens (occurrences) and types
    (distinct lowercased surfaces), plus the corpus token count."""
    occurrences: Counter = Counter()
    surfaces: dict[str, set] = defaultdict(set)
    tokens = 0
    for sentence in sentences:
        tokens += len(sentence)
        pos = 0
        while pos < len(sentence):
            tag = sentence[pos][1]
            if tag == "O":
                pos += 1
                continue
            end = pos
            while end < len(sentence) and sentence[end][1] == tag:
                end += 1
            kind = tag[2:]
            occurrences[kind] += 1
            surfaces[kind].add(" ".join(w for w, _ in sentence[pos:end]).lower())
            pos = end
    per_tag = {kind: {"tokens": occurrences[kind], "types": len(surfaces[kind])} for kind in TYPES}
    return {"sentences": len(sentences), "tokens": tokens, "per_tag": per_tag}


def file_digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def generate(out_dir, seed: int, scale: float = 1.0, test_scale: float | None = None) -> dict:
    """Write train/dev/test files under ``out_dir``; return tallies and digests.

    ``scale`` multiplies every split's sentence count; ``test_scale``, when
    given, sets the test split's multiplier on its own (a large held-out
    set without a larger training corpus).
    """
    if scale <= 0 or (test_scale is not None and test_scale <= 0):
        raise ValueError("scales must be positive")
    rng = random.Random(seed)
    lex = _Lexicon(rng)
    os.makedirs(out_dir, exist_ok=True)
    record = {"seed": seed, "scale": scale, "splits": {}}
    for split, base in SPLIT_SENTENCES.items():
        factor = test_scale if (split == "test" and test_scale is not None) else scale
        count = max(1, round(base * factor))
        held_out = 0.0 if split == "train" else HELD_OUT_SHARE
        sentences = [_sentence(lex, rng, held_out) for _ in range(count)]
        path = os.path.join(out_dir, f"{split}.txt")
        _write_split(path, sentences)
        record["splits"][split] = {**_tally(sentences), "sha256": file_digest(path)}
    return record

