"""Golden outputs: every command's files, stdout, stderr and exit code, as sha256 digests.

``golden.json`` holds the digests of ``run_commands`` on a fixed corpus.  They pin
the bits of every model, prediction and report, so a change meant to keep them
must leave this test green at 1 and at 2 usable CPUs.  Only a change that alters
the numbers on purpose replaces the file, with the digests a failing run writes
next to its outputs, and says so in CHANGES.md.
"""

import hashlib
import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fmnec
from fmnec.cli import main

from helpers import usable_cpus, write_tagged_corpus

GOLDEN = Path(__file__).with_name("golden.json")
TRAIN = ["--epochs", "3", "--seed", "3", "--reg-w", "0.001", "--reg-v", "0.001"]
COMMANDS = [
    ["prepare", "--train", "train.txt", "--dev", "dev.txt", "--test", "test.txt",
     "--out", "prepared"],
    ["stats", "prepared/train.candidates.tsv", "prepared/dev.candidates.tsv"],
    ["train", "--candidates", "prepared/train.candidates.tsv", *TRAIN, "--out", "hinge5"],
    ["train", "--candidates", "prepared/train.candidates.tsv", *TRAIN, "--loss", "logistic",
     "--out", "logistic5"],
    ["train", "--candidates", "prepared/train.candidates.tsv", *TRAIN, "--k", "0",
     "--out", "hinge0"],
    ["predict", "--model", "logistic5/ova_model.txt", "--space", "logistic5/feature_space.txt",
     "--candidates", "prepared/test.candidates.tsv", "--out", "predictions.tsv"],
    ["eval", "--model", "hinge5/ova_model.txt", "--space", "hinge5/feature_space.txt",
     "--candidates", "prepared/test.candidates.tsv", "--pr-curves", "--out", "eval"],
    ["sweep-k", "--train", "prepared/train.candidates.tsv",
     "--dev", "prepared/dev.candidates.tsv", "--k-values", "0,5,16", *TRAIN,
     "--out", "sweep.tsv"],
    # scoring on more candidates than one step of the batch vectorizer takes
    ["prepare", "--train", "large.txt", "--out", "large"],
    ["predict", "--model", "hinge5/ova_model.txt", "--space", "hinge5/feature_space.txt",
     "--candidates", "large/train.candidates.tsv", "--out", "large_predictions.tsv"],
    ["eval", "--model", "logistic5/ova_model.txt", "--space", "logistic5/feature_space.txt",
     "--candidates", "large/train.candidates.tsv", "--pr-curves", "--out", "large_eval"],
    # errors: a run that diverges (exit 1), a repeated k (exit 1), a bad line (exit 2)
    ["train", "--candidates", "prepared/train.candidates.tsv", *TRAIN, "--lr", "1e200",
     "--reg-w", "0", "--reg-v", "0", "--loss", "logistic", "--out", "diverged"],
    ["sweep-k", "--train", "prepared/train.candidates.tsv",
     "--dev", "prepared/dev.candidates.tsv", "--k-values", "5,0,5", "--out", "repeated.tsv"],
    ["stats", "bad.tsv"],
]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_commands(root: Path, capfd) -> dict:
    """Each command's exit code and stdout and stderr digests, run from the working
    directory ``root``, then the digest of every file the commands wrote there."""
    next_id = write_tagged_corpus(root / "train.txt", 240, seed=1)
    next_id = write_tagged_corpus(root / "dev.txt", 60, seed=2, start_id=next_id)
    next_id = write_tagged_corpus(root / "test.txt", 60, seed=3, start_id=next_id)
    write_tagged_corpus(root / "large.txt", 2200, seed=4, start_id=next_id)
    (root / "bad.tsv").write_text("PER\tXq1\t\t\nLOC\tXq2\tin\n")
    inputs = set(os.listdir(root))
    logger = logging.getLogger("fmnec")
    handler = logging.StreamHandler(sys.stderr)  # the log lines a command prints
    handler.setFormatter(logging.Formatter("%(message)s"))
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    runs = []
    try:
        for argv in COMMANDS:
            code = main(argv)
            out, err = (text.replace(str(root), "$ROOT") for text in capfd.readouterr())
            runs.append({"argv": " ".join(argv), "exit": code,
                         "stdout": sha256(out.encode()), "stderr": sha256(err.encode())})
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)
    files = {path.relative_to(root).as_posix(): sha256(path.read_bytes())
             for path in sorted(root.rglob("*"))
             if path.is_file() and path.relative_to(root).parts[0] not in inputs}
    return {"commands": runs, "files": files}


@pytest.mark.parametrize("cpus", [1, 2])
def test_outputs_match_the_golden_digests(monkeypatch, capfd, tmp_path, cpus):
    usable_cpus(monkeypatch, cpus)
    monkeypatch.chdir(tmp_path)
    digests = run_commands(tmp_path, capfd)
    actual = tmp_path / "golden.json"
    actual.write_text(json.dumps(digests, indent=1) + "\n")
    assert digests == json.loads(GOLDEN.read_text()), f"this run's digests are in {actual}"


@pytest.mark.parametrize("hash_seed", ["0", "1"])
def test_entry_point_reproduces_the_golden_digests(monkeypatch, capfd, tmp_path, hash_seed):
    # python -m fmnec.cli runs run(), which freezes the heap before main; string hashing
    # differs between the seeds, and neither may change a byte
    usable_cpus(monkeypatch, 1)
    monkeypatch.chdir(tmp_path)
    golden = json.loads(GOLDEN.read_text())
    next_id = write_tagged_corpus(tmp_path / "train.txt", 240, seed=1)  # run_commands' corpora
    next_id = write_tagged_corpus(tmp_path / "dev.txt", 60, seed=2, start_id=next_id)
    write_tagged_corpus(tmp_path / "test.txt", 60, seed=3, start_id=next_id)
    for argv in COMMANDS[0], COMMANDS[2], COMMANDS[3]:  # prepare, then the two models scored
        assert main(argv) == 0
    capfd.readouterr()
    src = os.path.dirname(os.path.dirname(os.path.abspath(fmnec.__file__)))
    env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": hash_seed}
    for index in 5, 6:  # predict, eval --pr-curves
        done = subprocess.run([sys.executable, "-m", "fmnec.cli", *COMMANDS[index]], env=env,
                              capture_output=True, text=True, timeout=120)
        assert {"argv": " ".join(COMMANDS[index]), "exit": done.returncode,
                "stdout": sha256(done.stdout.encode()),
                "stderr": sha256(done.stderr.encode())} == golden["commands"][index]
    written = {name: digest for name, digest in golden["files"].items()
               if name == "predictions.tsv" or name.startswith("eval/")}
    assert len(written) > 2
    assert {name: sha256((tmp_path / name).read_bytes()) for name in written} == written
