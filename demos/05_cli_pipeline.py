#!/usr/bin/env python3
"""The command-line pipeline end to end on a generated corpus.

Writes a synthetic column-format corpus, then drives the installed CLI
through prepare -> stats -> train -> predict -> eval -> sweep-k.
Every output lands under ./demo_output; rerunning the script reproduces the
files byte for byte.
"""

import os
import subprocess
import sys

import numpy as np

ROOT = "demo_output"
CONTEXT_PATTERNS = [((), "O"), (("alpha",), "B-PER"), (("beta",), "B-PER"), (("alpha", "beta"), "O")]


def write_corpus(path, copies, seed, start_id=0):
    """One sentence per candidate: a unique capitalized token plus its context
    words; the tag realizes a noisy XOR over the two context indicators."""
    rng = np.random.default_rng(seed)
    rows = []
    ident = start_id
    for ctx, tag in CONTEXT_PATTERNS:
        for _ in range(copies):
            noisy = tag
            if rng.random() < 0.1:
                noisy = "B-PER" if tag == "O" else "O"
            rows.append((f"Cand{ident:05d}", ctx, noisy))
            ident += 1
    order = rng.permutation(len(rows))
    with open(path, "w") as fh:
        for i in order:
            surface, ctx, tag = rows[i]
            fh.write(f"{surface} NNP I-NP {tag}\n")
            for word in ctx:
                fh.write(f"{word} NN I-NP O\n")
            fh.write("\n")
    return ident


def run(*args):
    cmd = [sys.executable, "-m", "fmnec.cli", *args]
    print("\n$ fmnec " + " ".join(args))
    subprocess.run(cmd, check=True)


os.makedirs(ROOT, exist_ok=True)
next_id = write_corpus(os.path.join(ROOT, "train.txt"), copies=60, seed=5)
write_corpus(os.path.join(ROOT, "test.txt"), copies=15, seed=6, start_id=next_id)

prepared = os.path.join(ROOT, "prepared")
modeldir = os.path.join(ROOT, "model")
evaldir = os.path.join(ROOT, "eval")

run("prepare", "--train", f"{ROOT}/train.txt", "--test", f"{ROOT}/test.txt",
    "--out", prepared)
run("stats", f"{prepared}/train.candidates.tsv", f"{prepared}/test.candidates.tsv")
run("train", "--candidates", f"{prepared}/train.candidates.tsv",
    "--k", "2", "--epochs", "30", "--lr", "0.02",
    "--reg-w", "0.001", "--reg-v", "0.001", "--seed", "7", "--out", modeldir)
run("predict", "--model", f"{modeldir}/ova_model.txt",
    "--space", f"{modeldir}/feature_space.txt",
    "--candidates", f"{prepared}/test.candidates.tsv",
    "--out", f"{ROOT}/predictions.tsv")
run("eval", "--model", f"{modeldir}/ova_model.txt",
    "--space", f"{modeldir}/feature_space.txt",
    "--candidates", f"{prepared}/test.candidates.tsv",
    "--pr-curves", "--out", evaldir)
run("sweep-k", "--train", f"{prepared}/train.candidates.tsv",
    "--dev", f"{prepared}/test.candidates.tsv",
    "--k-values", "0,1,2,4", "--epochs", "20", "--lr", "0.02",
    "--out", f"{ROOT}/k_sweep.tsv")

print("\nartifacts under", ROOT + ":")
for dirpath, _, names in sorted(os.walk(ROOT)):
    for name in sorted(names):
        print("  ", os.path.join(dirpath, name))
