"""Shared builders for the test suite: random models, XOR fixtures, corpora, CPU counts."""

from __future__ import annotations

import os

import numpy as np
import pytest

from fmnec import FMModel, SparseVector
from fmnec.util import atomic_write

XOR_PATTERNS = [((), -1), ((0,), 1), ((1,), 1), ((0, 1), -1)]


def random_model(rng, n, k, scale=0.5):
    return FMModel(float(rng.normal()), rng.normal(0, scale, n), rng.normal(0, scale, (n, k)))


def random_instance(rng, n, max_nnz, min_nnz=0, binary=False):
    """A random sparse vector; ``binary`` gives every entry the value 1.0."""
    nnz = int(rng.integers(min_nnz, max_nnz + 1))
    idx = np.sort(rng.choice(n, size=nnz, replace=False))
    if binary:
        return SparseVector(idx, np.ones(nnz))
    vals = rng.uniform(0.1, 2.0, nnz) * rng.choice([-1.0, 1.0], nnz)
    return SparseVector(idx, vals)


def xor_clean_instances():
    """The four XOR patterns over two indicator features, one (vector, label) pair each."""
    return [(SparseVector(list(feats), [1.0] * len(feats)), y) for feats, y in XOR_PATTERNS]


def make_xor_split(seed=7, copies=250, noise=0.1, split=0.8):
    """Noisy XOR (vector, label) pairs, shuffled and split into train/test lists."""
    rng = np.random.default_rng(seed)
    instances = []
    for feats, y in XOR_PATTERNS:
        for _ in range(copies):
            label = -y if rng.random() < noise else y
            instances.append((SparseVector(list(feats), [1.0] * len(feats)), label))
    order = rng.permutation(len(instances))
    instances = [instances[i] for i in order]
    cut = int(split * len(instances))
    return instances[:cut], instances[cut:]


def make_xor_tagged(copies, seed, positive="ENT", negative="O"):
    """(vector, tag) pairs realizing clean XOR, for multiclass and sweep tests."""
    rng = np.random.default_rng(seed)
    data = []
    for feats, y in XOR_PATTERNS:
        for _ in range(copies):
            tag = positive if y > 0 else negative
            data.append((SparseVector(list(feats), [1.0] * len(feats)), tag))
    order = rng.permutation(len(data))
    return [data[i] for i in order]


def accuracy(model, data):
    hits = sum((1 if model.predict_raw(x) > 0 else -1) == y for x, y in data)
    return hits / len(data)


def write_xor_corpus(path, copies, noise, seed, start_id=0):
    """Column-format corpus whose candidates realize a noisy XOR.

    Each sentence holds one unique capitalized candidate token plus zero, one,
    or two lowercase context words (``alpha``/``beta``); a candidate is tagged
    B-PER when exactly one context word is present, O otherwise, with labels
    flipped at the noise rate.  Running the corpus through the pipeline yields
    a two-tag task a linear model cannot solve.
    """
    rng = np.random.default_rng(seed)
    contexts = [((), -1), (("alpha",), 1), (("beta",), 1), (("alpha", "beta"), -1)]
    items = []
    ident = start_id
    for ctx, y in contexts:
        for _ in range(copies):
            label = -y if rng.random() < noise else y
            items.append((ctx, label, f"Xq{ident:05d}"))
            ident += 1
    order = rng.permutation(len(items))
    with atomic_write(path) as fh:
        fh.write("-DOCSTART- -X- -X- O\n\n")
        for i in order:
            ctx, label, surface = items[i]
            tag = "B-PER" if label > 0 else "O"
            fh.write(f"{surface} NNP I-NP {tag}\n")
            for word in ctx:
                fh.write(f"{word} NN I-NP O\n")
            fh.write("\n")
    return ident


TYPE_CUES = {"PER": "mr", "LOC": "in", "ORG": "shares", "O": "said"}
FILLERS = ("the", "a", "of", "on", "today", "new", "report")


def write_tagged_corpus(path, sentences, seed, start_id=0):
    """Column-format corpus of one candidate per sentence: PER, LOC, two-token ORG, or a
    capitalized O token.  Its type's cue word stands next to it with p = 0.8, among
    filler words; one surface in four comes from a pool of 20, so the unknown filter
    drops some evaluation candidates.  Returns the next unused surface id."""
    rng = np.random.default_rng(seed)
    types = list(TYPE_CUES)
    with atomic_write(path) as fh:
        fh.write("-DOCSTART- -X- -X- O\n\n")
        for ident in range(start_id, start_id + sentences):
            kind = types[int(rng.integers(len(types)))]
            surface = f"Zp{int(rng.integers(20)):02d}" if rng.random() < 0.25 else f"Xq{ident:05d}"
            tokens = [(surface, kind if kind == "O" else "B-" + kind)]
            if kind == "ORG":
                tokens.append(("Group", "I-ORG"))
            if rng.random() < 0.8:
                cue = (TYPE_CUES[kind], "O")
                tokens = [cue, *tokens] if rng.random() < 0.5 else [*tokens, cue]
            fillers = [(FILLERS[int(i)], "O") for i in rng.integers(len(FILLERS), size=3)]
            cut = int(rng.integers(4))
            for word, tag in fillers[:cut] + tokens + fillers[cut:]:
                fh.write(f"{word} NN I-NP {tag}\n")
            fh.write("\n")
    return start_id + sentences


def usable_cpus(monkeypatch, count):
    """Make ``os.sched_getaffinity`` report ``count`` usable CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def assert_reaped(pids, count):
    """``count`` children were forked, and every one of them has been waited for."""
    assert len(pids) == count
    for pid in pids:
        with pytest.raises(ChildProcessError):  # waited for: no longer a child of this process
            os.waitpid(pid, os.WNOHANG)
