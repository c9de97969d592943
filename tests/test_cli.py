import argparse
import dataclasses
import math
import os
import random
import re
import shutil
import subprocess
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fmnec
from fmnec import (
    Candidate,
    ConfigError,
    DataFormatError,
    FeatureSpace,
    FMModel,
    OvAModel,
    TrainConfig,
    cli,
    load_ova_model,
    read_candidates_tsv,
    save_ova_model,
)
from fmnec.cli import main
from fmnec.corpus import candidate_rows
from fmnec.fm import _Batch

from helpers import b64_line, usable_cpus, write_xor_corpus


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    train = root / "train.txt"
    test = root / "test.txt"
    next_id = write_xor_corpus(train, copies=40, noise=0.1, seed=7)
    write_xor_corpus(test, copies=10, noise=0.1, seed=8, start_id=next_id)
    return train, test


@pytest.fixture(scope="module")
def pipeline(corpus, tmp_path_factory):
    """prepare + train once; reused by the read-only command tests."""
    train, test = corpus
    out = tmp_path_factory.mktemp("pipeline")
    prepared = out / "prepared"
    modeldir = out / "model"
    assert main([
        "prepare", "--train", str(train), "--test", str(test), "--out", str(prepared),
    ]) == 0
    assert main([
        "train", "--candidates", str(prepared / "train.candidates.tsv"),
        "--k", "2", "--epochs", "15", "--lr", "0.02", "--reg-w", "0.001",
        "--reg-v", "0.001", "--seed", "3", "--out", str(modeldir),
    ]) == 0
    return {
        "prepared": prepared,
        "model": modeldir / "ova_model.txt",
        "space": modeldir / "feature_space.txt",
        "test_candidates": prepared / "test.candidates.tsv",
    }


class TestPrepare:
    def test_writes_candidates_files(self, pipeline):
        prepared = pipeline["prepared"]
        assert (prepared / "train.candidates.tsv").is_file()
        assert (prepared / "test.candidates.tsv").is_file()
        train_cands = read_candidates_tsv(prepared / "train.candidates.tsv")
        assert {c.gold_tag for c in train_cands} == {"PER", "O"}

    def test_unknown_filter_keeps_fresh_surfaces(self, pipeline):
        # every synthetic surface is unique, so nothing is filtered
        test_cands = read_candidates_tsv(pipeline["test_candidates"])
        assert len(test_cands) == 40

    def test_prints_stats_table(self, corpus, tmp_path, capsys):
        train, _ = corpus
        assert main(["prepare", "--train", str(train), "--out", str(tmp_path / "p")]) == 0
        out = capsys.readouterr().out
        assert "tag" in out and "training" in out
        assert "PER" in out and "O" in out


class TestStats:
    def test_prints_counts(self, pipeline, capsys):
        path = pipeline["prepared"] / "train.candidates.tsv"
        assert main(["stats", str(path)]) == 0
        assert "PER" in capsys.readouterr().out


class TestTrainCommand:
    def test_wrote_model_and_space(self, pipeline):
        assert pipeline["model"].is_file()
        assert pipeline["space"].is_file()
        assert pipeline["model"].read_text().startswith("FMOVA v2\n")

    def test_k0_writes_empty_factor_rows(self, corpus, tmp_path):
        train, _ = corpus
        prepared = tmp_path / "p"
        assert main(["prepare", "--train", str(train), "--out", str(prepared)]) == 0
        out = tmp_path / "m"
        assert main([
            "train", "--candidates", str(prepared / "train.candidates.tsv"),
            "--k", "0", "--epochs", "2", "--out", str(out),
        ]) == 0
        lines = (out / "ova_model.txt").read_text().splitlines()
        n_features, k = lines[4].split()  # dimension line of the first member block
        assert k == "0" and int(n_features) > 0
        # the V line, right after the w line, is empty, and the next label follows
        assert lines[7] == "" and lines[8] == "PER"

    def test_logs_epoch_losses(self, pipeline, caplog):
        # training happened in the fixture; re-run two epochs to observe logs
        import logging

        with caplog.at_level(logging.INFO, logger="fmnec"):
            out = pipeline["prepared"].parent / "logged"
            assert main([
                "train", "--candidates", str(pipeline["prepared"] / "train.candidates.tsv"),
                "--k", "0", "--epochs", "2", "--out", str(out),
            ]) == 0
        messages = [r.message for r in caplog.records if "mean loss" in r.message]
        assert any("epoch 1" in m for m in messages)
        assert any("epoch 2" in m for m in messages)


class TestPredictCommand:
    def test_predictions_file(self, pipeline, tmp_path):
        out = tmp_path / "pred.tsv"
        assert main([
            "predict", "--model", str(pipeline["model"]), "--space", str(pipeline["space"]),
            "--candidates", str(pipeline["test_candidates"]), "--out", str(out),
        ]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "# pred\tgold\tO\tPER"
        body = [line.split("\t") for line in lines[1:]]
        assert len(body) == 40
        assert all(row[0] in ("O", "PER") for row in body)
        # every score cell is the score's 17-significant-digit text
        model = load_ova_model(pipeline["model"])
        space = FeatureSpace.load(pipeline["space"])
        candidates = read_candidates_tsv(pipeline["test_candidates"])
        scores = model.predict_scores([space.vectorize_candidate(c) for c in candidates])
        assert [row[1] for row in body] == [c.gold_tag for c in candidates]
        assert [row[2:] for row in body] == [[f"{v:.17g}" for v in r] for r in scores.tolist()]


class TestPredictWithoutGold:
    def test_untagged_candidates_are_fine(self, pipeline, tmp_path):
        # strip the gold column: prediction must not require it
        stripped = tmp_path / "untagged.tsv"
        rows = pipeline["test_candidates"].read_text().splitlines()
        stripped.write_text("".join("\t".join(["", *row.split("\t")[1:]]) + "\n" for row in rows))
        out = tmp_path / "pred.tsv"
        assert main([
            "predict", "--model", str(pipeline["model"]), "--space", str(pipeline["space"]),
            "--candidates", str(stripped), "--out", str(out),
        ]) == 0
        body = [line.split("\t") for line in out.read_text().splitlines()[1:]]
        assert all(row[1] == "" for row in body)  # gold column stays empty

    def test_eval_requires_gold(self, pipeline, tmp_path):
        stripped = tmp_path / "untagged.tsv"
        rows = pipeline["test_candidates"].read_text().splitlines()
        stripped.write_text("".join("\t".join(["", *row.split("\t")[1:]]) + "\n" for row in rows))
        assert main([
            "eval", "--model", str(pipeline["model"]), "--space", str(pipeline["space"]),
            "--candidates", str(stripped), "--out", str(tmp_path / "e"),
        ]) == 2


class TestEvalCommand:
    def test_report_files(self, pipeline, tmp_path, capsys):
        out = tmp_path / "eval"
        assert main([
            "eval", "--model", str(pipeline["model"]), "--space", str(pipeline["space"]),
            "--candidates", str(pipeline["test_candidates"]),
            "--pr-curves", "--out", str(out),
        ]) == 0
        for name in ("report.txt", "report.tsv", "confusion.tsv", "pr_PER.tsv"):
            assert (out / name).is_file(), name
        stdout = capsys.readouterr().out
        assert "micro" in stdout
        tsv = (out / "report.tsv").read_text().splitlines()
        assert tsv[0] == "tag\tprecision\trecall\tf1"
        assert tsv[-1].startswith("micro\t")


class TestSweepAndCurves:
    def test_sweep_k(self, pipeline, tmp_path, capsys):
        out = tmp_path / "sweep.tsv"
        assert main([
            "sweep-k", "--train", str(pipeline["prepared"] / "train.candidates.tsv"),
            "--dev", str(pipeline["test_candidates"]),
            "--k-values", "0,2", "--epochs", "10", "--lr", "0.02", "--out", str(out),
        ]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "k\tmicro_f1"
        assert [line.split("\t")[0] for line in lines[1:]] == ["0", "2"]
        assert "k=0" in capsys.readouterr().out

    def test_pr_curve_command(self, pipeline, tmp_path):
        out = tmp_path / "curves"
        assert main([
            "eval", "--model", str(pipeline["model"]), "--space", str(pipeline["space"]),
            "--candidates", str(pipeline["test_candidates"]),
            "--pr-curves", "--out", str(out),
        ]) == 0
        lines = (out / "pr_PER.tsv").read_text().splitlines()
        assert lines[0] == "recall\tprecision"
        assert len(lines) == 41  # one point per ranked candidate

    def test_every_tag_gets_its_own_curve_file(self, tmp_path):
        # percent-encoding gives "A/B" and "A_B" distinct file names, free of "/"
        rows = []
        for i in range(12):
            tag = ("A/B", "A_B", "O")[i % 3]
            rows.append(f"{tag}\tW{i}\tctx{i % 3}\tsaid\n")
        candidates = tmp_path / "c.tsv"
        candidates.write_text("".join(rows))
        assert main(["train", "--candidates", str(candidates), "--epochs", "2",
                     "--out", str(tmp_path / "m")]) == 0
        out = tmp_path / "e"
        assert main([
            "eval", "--model", str(tmp_path / "m" / "ova_model.txt"),
            "--space", str(tmp_path / "m" / "feature_space.txt"),
            "--candidates", str(candidates), "--pr-curves", "--out", str(out),
        ]) == 0
        curves = sorted(name for name in os.listdir(out) if name.startswith("pr_"))
        assert curves == ["pr_A%2FB.tsv", "pr_A_B.tsv"]


class TestExitCodes:
    def test_missing_input_is_config_error(self, tmp_path):
        assert main(["train", "--candidates", str(tmp_path / "nope.tsv"),
                     "--out", str(tmp_path / "m")]) == 1

    def test_corrupt_candidates_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("only\ttwo\n")
        assert main(["train", "--candidates", str(bad), "--out", str(tmp_path / "m")]) == 2

    def test_unknown_flag_is_usage_error(self):
        assert main(["train", "--nonsense"]) == 1

    def test_no_shuffle_is_usage_error(self, pipeline, tmp_path):
        assert main([
            "train", "--candidates", str(pipeline["prepared"] / "train.candidates.tsv"),
            "--no-shuffle", "--out", str(tmp_path / "m"),
        ]) == 1

    def test_missing_subcommand_is_usage_error(self):
        assert main([]) == 1

    def test_bad_k_values_is_config_error(self, pipeline, tmp_path):
        assert main([
            "sweep-k", "--train", str(pipeline["prepared"] / "train.candidates.tsv"),
            "--dev", str(pipeline["test_candidates"]),
            "--k-values", "a,b", "--out", str(tmp_path / "s.tsv"),
        ]) == 1

    def test_model_space_mismatch_is_config_error(self, pipeline, tmp_path):
        space = tmp_path / "space.txt"
        space.write_text("dummy\n")  # one feature, model expects more
        assert main([
            "eval", "--model", str(pipeline["model"]), "--space", str(space),
            "--candidates", str(pipeline["test_candidates"]), "--out", str(tmp_path / "e"),
        ]) == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "prepare" in capsys.readouterr().out

    def test_invalid_lr_is_usage_or_config_error(self, pipeline, tmp_path):
        code = main([
            "train", "--candidates", str(pipeline["prepared"] / "train.candidates.tsv"),
            "--lr", "0", "--out", str(tmp_path / "m"),
        ])
        assert code == 1

    def test_eval_without_entity_gold_writes_nothing(self, pipeline, tmp_path):
        # only gold-O candidates: the PR curves fail after the reports are built
        rows = [
            line for line in pipeline["test_candidates"].read_text().splitlines(keepends=True)
            if line.startswith("O\t")
        ]
        candidates = tmp_path / "o.tsv"
        candidates.write_text("".join(rows))
        out = tmp_path / "e"
        assert main([
            "eval", "--model", str(pipeline["model"]), "--space", str(pipeline["space"]),
            "--candidates", str(candidates), "--pr-curves", "--out", str(out),
        ]) == 1
        for name in ("report.txt", "report.tsv", "confusion.tsv", "pr_PER.tsv"):
            assert not (out / name).exists(), name

    def test_prepare_with_bad_dev_writes_nothing(self, corpus, tmp_path):
        train, _ = corpus
        dev = tmp_path / "dev.txt"
        dev.write_text("John NNP B-NP B-PER\nSmith\n")
        out = tmp_path / "p"
        assert main(["prepare", "--train", str(train), "--dev", str(dev),
                     "--out", str(out)]) == 2
        for name in ("train.candidates.tsv", "dev.candidates.tsv"):
            assert not (out / name).exists(), name

    def test_divergent_training_is_config_error(self, pipeline, tmp_path, capsys):
        out = tmp_path / "m"
        assert main([
            "train", "--candidates", str(pipeline["prepared"] / "train.candidates.tsv"),
            "--k", "2", "--lr", "1e200", "--loss", "logistic", "--reg-w", "0", "--reg-v", "0",
            "--epochs", "3", "--out", str(out),
        ]) == 1
        assert "diverged" in capsys.readouterr().err
        assert not (out / "ova_model.txt").exists()

    def test_nan_hinge_training_is_config_error(self, pipeline, tmp_path, capsys):
        out = tmp_path / "m"
        assert main([
            "train", "--candidates", str(pipeline["prepared"] / "train.candidates.tsv"),
            "--k", "2", "--epochs", "2", "--init-sd", "1e300", "--out", str(out),
        ]) == 1
        assert "training diverged at epoch 1: the mean loss (nan)" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["predict", "eval"])
    def test_model_whose_scores_overflow_is_data_error(self, pipeline, tmp_path, capsys,
                                                       command):
        # finite factors of 1e200 load fine, but their squares overflow every score
        n = len(FeatureSpace.load(pipeline["space"]))
        huge = FMModel(0.0, np.zeros(n), np.full((n, 2), 1e200))
        model = tmp_path / "huge.txt"
        save_ova_model(OvAModel(["O", "PER"], [huge, huge]), model)
        out = tmp_path / "out"
        assert main([
            command, "--model", str(model), "--space", str(pipeline["space"]),
            "--candidates", str(pipeline["test_candidates"]), "--out", str(out),
        ]) == 2
        assert capsys.readouterr().err == (
            f"error: {model}: the model's scores overflow: its parameters are too large\n")
        assert not out.exists()


def _run_cli(*argv, timeout=None):
    """Run ``fmnec`` in a child process so that a crash shows as a traceback."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(fmnec.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, "-m", "fmnec.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=timeout)


class TestNonUtf8Input:
    @pytest.fixture()
    def bad_file(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"PER\tJohn\tsaid\thello\nO\tMary\xff\t\t\n")
        return path

    def test_stats_is_data_error(self, bad_file):
        result = _run_cli("stats", str(bad_file))
        assert result.returncode == 2
        assert f"{bad_file}:2: not valid UTF-8" in result.stderr
        assert "Traceback" not in result.stderr

    def test_prepare_is_data_error(self, bad_file, tmp_path):
        result = _run_cli("prepare", "--train", str(bad_file), "--out", str(tmp_path / "p"))
        assert result.returncode == 2
        assert f"{bad_file}:2: not valid UTF-8" in result.stderr
        assert "Traceback" not in result.stderr


@pytest.mark.parametrize("command", ["stats", "train", "sweep-k"])
def test_untagged_candidate_is_reported_at_its_line(tmp_path, capsys, command):
    path = tmp_path / "mixed.tsv"
    path.write_text("PER\tAnna\tmr\t\n\nLOC\tRome\tin\t\n\tBonn\tin\t\nO\tThe\t\tday\n")
    argv = {"stats": ["stats", str(path)],
            "train": ["train", "--candidates", str(path), "--out", str(tmp_path / "m")],
            "sweep-k": ["sweep-k", "--train", str(path), "--dev", str(path), "--k-values", "0",
                        "--out", str(tmp_path / "s.tsv")]}[command]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {path}:4: every candidate needs a gold tag here\n"


def test_untyped_bio_tag_is_data_error(tmp_path):
    corpus = tmp_path / "f.txt"
    corpus.write_text("John NNP B-NP B-\n")
    result = _run_cli("prepare", "--train", str(corpus), "--out", str(tmp_path / "o"))
    assert result.returncode == 2
    assert f"{corpus}:1: BIO tag 'B-' has no entity type" in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("command", ["train", "sweep-k"])
def test_unallocatable_k_is_config_error(pipeline, tmp_path, command):
    # n * 2**62 doubles overflow numpy's size limit, so nothing is allocated
    train = str(pipeline["prepared"] / "train.candidates.tsv")
    if command == "train":
        argv = ["train", "--candidates", train, "--k", str(2**62)]
    else:
        argv = ["sweep-k", "--train", train, "--dev", str(pipeline["test_candidates"]),
                "--k-values", str(2**62)]
    out = tmp_path / "out"
    result = _run_cli(*argv, "--epochs", "1", "--out", str(out))
    assert result.returncode == 1
    assert result.stderr.count("\n") == 1
    assert f"k={2**62}; lower k" in result.stderr
    assert "Traceback" not in result.stderr
    assert not out.exists()


@pytest.mark.parametrize("command, flags, message", [
    ("train", ["--lr", "-1"], "learning_rate must be finite and positive"),
    ("sweep-k", ["--lr", "-1"], "learning_rate must be finite and positive"),
    ("sweep-k", ["--k-values", "x"], "--k-values must be comma-separated integers: 'x'"),
    ("sweep-k", ["--k-values", "-1"], "k must be >= 0"),
    ("sweep-k", ["--k-values", ","], "no k values to sweep"),
    ("sweep-k", ["--k-values", "5,0,5"], "k=5 appears twice in the k values"),
])
def test_bad_config_is_reported_before_any_input_is_read(tmp_path, command, flags, message):
    # the inputs do not exist: reading them first would report that instead
    missing = str(tmp_path / "missing.tsv")
    if command == "train":
        argv = ["train", "--candidates", missing, "--out", str(tmp_path / "m")]
    else:
        argv = ["sweep-k", "--train", missing, "--dev", missing, "--k-values", "0,2",
                "--out", str(tmp_path / "k.tsv")]
    result = _run_cli(*argv, *flags)
    assert result.returncode == 1
    assert result.stderr == f"error: {message}\n"


@pytest.mark.parametrize("flags", [["--k", "5"], ["--k=-5"]])
def test_sweep_k_has_no_k_flag(tmp_path, flags):
    # --k-values alone sets k: --k is a usage error, reported before the missing inputs
    missing = str(tmp_path / "missing.tsv")
    result = _run_cli("sweep-k", "--train", missing, "--dev", missing, "--k-values", "0,2",
                      "--out", str(tmp_path / "k.tsv"), *flags)
    assert result.returncode == 1
    assert result.stderr.startswith("usage: fmnec sweep-k ")
    assert result.stderr.endswith(
        f"fmnec sweep-k: error: unrecognized arguments: {' '.join(flags)}\n")
    assert "missing.tsv" not in result.stderr
    assert list(tmp_path.iterdir()) == []


def _complete_argv(command, tmp_path):
    """A complete command line whose inputs are missing, so nothing is read or written."""
    missing = str(tmp_path / "missing")
    required = {
        "prepare": ["--train", missing], "stats": [missing],
        "train": ["--candidates", missing], "predict": ["--model", missing, "--space", missing,
                                                        "--candidates", missing],
        "eval": ["--model", missing, "--space", missing, "--candidates", missing],
        "sweep-k": ["--train", missing, "--dev", missing, "--k-values", "0"],
    }[command]
    return [command, *required, *([] if command == "stats" else ["--out", str(tmp_path / "out")])]


@pytest.mark.parametrize("command", ["prepare", "stats", "train", "predict", "eval", "sweep-k"])
def test_unknown_flag_is_reported_by_its_command(tmp_path, capsys, command):
    # each command line is complete but for the flag; the missing inputs are never read
    assert main([*_complete_argv(command, tmp_path), "--bogus", "1"]) == 1
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert err.startswith(f"usage: fmnec {command} ")
    assert err.endswith(f"fmnec {command}: error: unrecognized arguments: --bogus 1\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["prepare", "stats", "train", "predict", "eval", "sweep-k"])
def test_unknown_flag_before_the_command_is_reported_by_fmnec(tmp_path, capsys, command):
    # fmnec's own arguments are those before the command name
    assert main(["--bogus", *_complete_argv(command, tmp_path)]) == 1
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert err.startswith("usage: fmnec [-h] [--version] command ...\n")
    assert err.endswith("fmnec: error: unrecognized arguments: --bogus\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["train", "predict", "eval", "sweep-k", "prepare"])
def test_abbreviated_flag_is_usage_error(corpus, pipeline, tmp_path, command):
    # each command line would run, and write, with the flag spelled out
    train = str(pipeline["prepared"] / "train.candidates.tsv")
    test = str(pipeline["test_candidates"])
    model, space = str(pipeline["model"]), str(pipeline["space"])
    out = tmp_path / "out"
    argv = {
        "train": ["train", "--cand", train, "--epochs", "1"],
        "predict": ["predict", "--mod", model, "--space", space, "--candidates", test],
        "eval": ["eval", "--model", model, "--space", space, "--candidates", test, "--pr-curve"],
        "sweep-k": ["sweep-k", "--train", train, "--dev", test, "--k-val", "0", "--epochs", "1"],
        "prepare": ["prepare", "--train", str(corpus[0]), "--tok", "0"],
    }[command]
    result = _run_cli(*argv, "--out", str(out))
    assert result.returncode == 1
    assert result.stderr.startswith("usage: fmnec ")
    assert ": error: " in result.stderr.splitlines()[-1]
    assert "Traceback" not in result.stderr
    assert list(tmp_path.iterdir()) == []


def _subparsers():
    parser = cli.build_parser()
    [action] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


@pytest.mark.parametrize("command, flagless", [("train", set()), ("sweep-k", {"k"})])
def test_every_train_config_field_is_one_flag(command, flagless):
    # a field added without a flag would silently take its default
    dests = [action.dest for action in _subparsers()[command]._actions]
    names = [field.name for field in dataclasses.fields(TrainConfig)]
    assert {name: dests.count(name) for name in names} == {
        name: int(name not in flagless) for name in names}


def test_train_config_takes_every_given_flag():
    parse = _subparsers()["train"].parse_args
    base = ["--candidates", "c.tsv", "--out", "m"]
    assert cli._train_config(parse(base)) == TrainConfig()
    flags = ["--k", "3", "--lr", "0.5", "--reg-w", "0.25", "--reg-v", "0.125", "--epochs", "7",
             "--init-sd", "0.75", "--seed", "9", "--loss", "logistic"]
    assert cli._train_config(parse(base + flags)) == TrainConfig(
        k=3, learning_rate=0.5, reg_w=0.25, reg_v=0.125, epochs=7, init_sd=0.75, seed=9,
        loss="logistic")


def test_growing_decay_is_config_error(pipeline, tmp_path):
    # lr * reg = 500: each decay step would scale the touched weights by -499
    out = tmp_path / "m"
    result = _run_cli("train", "--candidates", str(pipeline["prepared"] / "train.candidates.tsv"),
                      "--lr", "50", "--reg-w", "10", "--reg-v", "10", "--epochs", "2",
                      "--out", str(out))
    assert result.returncode == 1
    assert result.stderr.count("\n") == 1
    assert "learning_rate * reg_w and learning_rate * reg_v must be < 2" in result.stderr
    assert "mean loss" not in result.stderr
    assert not out.exists()


@pytest.mark.parametrize("init_sd, message", [
    ("inf", "init_sd must be finite"),
    ("1e308", "init_sd=1e+308 overflows float64 in a factor draw"),  # finite, but not its draws
], ids=["inf", "1e308"])
def test_infinite_init_sd_is_config_error(pipeline, tmp_path, init_sd, message):
    out = tmp_path / "m"
    result = _run_cli("train", "--candidates", str(pipeline["prepared"] / "train.candidates.tsv"),
                      "--init-sd", init_sd, "--epochs", "1", "--out", str(out))
    assert result.returncode == 1
    assert message in result.stderr
    assert "Traceback" not in result.stderr
    assert not out.exists()


@pytest.mark.parametrize("command", ["sweep-k", "train", "predict"])
def test_bad_out_is_config_error_before_any_work(pipeline, tmp_path, command):
    # sweep-k into a missing directory, train over an existing file,
    # predict onto an existing directory
    train = str(pipeline["prepared"] / "train.candidates.tsv")
    if command == "sweep-k":
        out = tmp_path / "missing_dir" / "k.tsv"
        argv = ["sweep-k", "--train", train, "--dev", str(pipeline["test_candidates"]),
                "--k-values", "0,2", "--epochs", "1"]
    elif command == "train":
        out = tmp_path / "model"
        out.write_text("not a directory\n")
        argv = ["train", "--candidates", train, "--epochs", "1"]
    else:
        out = tmp_path / "predictions"
        out.mkdir()
        argv = ["predict", "--model", str(pipeline["model"]), "--space", str(pipeline["space"]),
                "--candidates", str(pipeline["test_candidates"])]
    before = sorted(tmp_path.rglob("*"))
    result = _run_cli(*argv, "--out", str(out))
    assert result.returncode == 1
    assert result.stderr.count("\n") == 1
    assert str(out) in result.stderr
    assert " epoch " not in result.stderr
    assert sorted(tmp_path.rglob("*")) == before


def test_dead_training_worker_is_one_line(pipeline, tmp_path):
    # at 2 usable CPUs the caller and a forked worker each start one of sweep-k's jobs, k=1
    # and k=0; the worker records its k and dies, so the error names that k
    died = tmp_path / "died"
    script = (
        "import os, sys, time\n"
        "from fmnec import cli, multiclass\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "caller, real = os.getpid(), multiclass._train_labels\n"
        "def train_labels(data, n, config, *args, **kwargs):\n"
        "    if os.getpid() != caller:\n"
        f"        open({str(died)!r}, 'w').write(str(config.k))\n"
        "        os._exit(3)\n"
        "    deadline = time.monotonic() + 10\n"
        f"    while not os.path.exists({str(died)!r}) and time.monotonic() < deadline:\n"
        "        time.sleep(0.005)\n"
        "    return real(data, n, config, *args, **kwargs)\n"
        "multiclass._train_labels = train_labels\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(fmnec.__file__)))
    out = tmp_path / "sweep.tsv"
    result = subprocess.run(
        [sys.executable, "-c", script, "sweep-k", "--epochs", "1", "--k-values", "0,1",
         "--train", str(pipeline["prepared"] / "train.candidates.tsv"),
         "--dev", str(pipeline["test_candidates"]), "--out", str(out)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    assert result.stderr.splitlines() == [
        "error: a training worker exited with code 3 before sending its results: "
        f"no model for k={died.read_text()}"
    ]
    assert not out.exists()


def test_v1_model_file_is_refused(pipeline, tmp_path, capsys):
    # the decimal format model files had before: retrain to read them
    model = load_ova_model(pipeline["model"])
    lines = ["FMOVA v1", str(len(model.labels))]
    for label, member in zip(model.labels, model.models):
        lines += [label, "FMMODEL v1", f"{member.n} {member.k}", f"{member.w0:.17g}",
                  " ".join(f"{v:.17g}" for v in member.w.tolist()),
                  *(" ".join(f"{v:.17g}" for v in row) for row in member.V.tolist())]
    v1 = tmp_path / "v1_model.txt"
    v1.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    assert main(_scoring_argv("predict", v1, pipeline["space"], pipeline["test_candidates"],
                              out)) == 2
    assert capsys.readouterr() == ("", f"error: {v1}:1: expected 'FMOVA v2' header, "
                                       "got 'FMOVA v1'\n")
    assert not out.exists()


def test_huge_k_over_no_features_scores_at_once(tmp_path):
    # with n = 0 no batch has an entry, so no factor column is gathered, however large k is;
    # a loop over the k columns would run for hours, and the timeout fails the test
    model, space, candidates = tmp_path / "m.txt", tmp_path / "space.txt", tmp_path / "c.tsv"
    model.write_text(f"FMOVA v2\n1\nA\nFMMODEL v2\n0 {10**9}\n{b64_line(0.5)}\n\n\n")
    space.write_text("")
    candidates.write_text("A\tJohn\tsaid\tyesterday\n")
    out = tmp_path / "out"
    result = _run_cli(*_scoring_argv("predict", model, space, candidates, out), timeout=10)
    assert (result.returncode, result.stderr) == (0, "")
    assert out.read_text() == "# pred\tgold\tA\nA\tA\t0.5\n"


def test_cli_import_does_not_load_multiprocessing():
    # predict and eval train nothing, so they must not pay for the imports
    # that only forking training workers needs
    src = os.path.dirname(os.path.dirname(os.path.abspath(fmnec.__file__)))
    script = ("import sys, fmnec.cli\n"
              "print(sorted({'multiprocessing', 'signal'} & set(sys.modules)))")
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": src}, check=True)
    assert result.stdout == "[]\n"


def _scoring_argv(command, model, space, candidates, out):
    """predict, or eval with its PR curves, on the given files."""
    argv = [command, "--model", str(model), "--space", str(space),
            "--candidates", str(candidates), "--out", str(out)]
    return argv + ["--pr-curves"] if command == "eval" else argv


def main_without_fork(argv):
    os.fork = None  # in a Pool worker: any attempt to fork fails
    return main(argv)


# (model, space, candidates, exit code, message): each case holds two or more
# faults, and the error is the one a sequential read meets first
LOAD_ERRORS = {
    "bad model, bad candidates": ("bad_model", "space", "bad_candidates", 2,
                                  "{bad_model}:6: expected 1 values for bias, got 2"),
    "bad model, bad space": ("bad_model", "bad_space", "bad_candidates", 2,
                             "{bad_model}:6: expected 1 values for bias, got 2"),
    "bad space, bad candidates": ("model", "bad_space", "bad_candidates", 2,
                                  "{bad_space}:1: feature names must be non-empty and "
                                  "whitespace-free: 'a b'"),
    "size mismatch, missing candidates": ("model", "small_space", "missing", 1,
                                          "model dimension {n} does not match feature space "
                                          "size 1"),
    "missing candidates": ("model", "space", "missing", 1, "input file not found: {missing}"),
    "empty candidates": ("model", "space", "empty", 1, "candidates file is empty: {empty}"),
    "bad candidates": ("model", "space", "bad_candidates", 2,
                       "{bad_candidates}:1: expected 4 tab-separated fields, got 2"),
    "no gold tags": ("model", "space", "untagged", 2,
                     "{untagged}:1: every candidate needs a gold tag here"),
    "no gold tag after a blank line": ("model", "space", "late_untagged", 2,
                                       "{late_untagged}:3: every candidate needs a gold tag "
                                       "here"),
}


class TestLoadOrder:
    """predict and eval read the model, the space and the candidates in that order."""

    @pytest.fixture()
    def files(self, pipeline, tmp_path):
        lines = pipeline["model"].read_text().splitlines(keepends=True)
        lines[5] = b64_line(0.5, 0.5) + "\n"  # the first member's bias line
        rows = pipeline["test_candidates"].read_text().splitlines()
        written = {
            "bad_model": "".join(lines), "bad_space": "a b\n", "small_space": "dummy\n",
            "bad_candidates": "only\ttwo\n", "empty": "",
            "untagged": "".join("\t".join(["", *row.split("\t")[1:]]) + "\n" for row in rows),
            "late_untagged": f"{rows[0]}\n\n" + "\t".join(["", *rows[1].split("\t")[1:]]) + "\n",
        }
        for name, text in written.items():
            (tmp_path / name).write_text(text)
        return {"model": pipeline["model"], "space": pipeline["space"],
                "candidates": pipeline["test_candidates"], "missing": tmp_path / "missing",
                "n": load_ova_model(pipeline["model"]).n,
                **{name: tmp_path / name for name in written}}

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("command, case", [
        *((command, case) for case in LOAD_ERRORS if "no gold tag" not in case
          for command in ("predict", "eval")),
        ("eval", "no gold tags"),
        ("eval", "no gold tag after a blank line"),
    ])
    def test_error_is_the_first_of_a_sequential_read(self, files, monkeypatch, forks, capfd,
                                                     tmp_path, cpus, command, case):
        model, space, candidates, code, message = LOAD_ERRORS[case]
        usable_cpus(monkeypatch, cpus)
        out = tmp_path / "out"
        assert main(_scoring_argv(command, files[model], files[space], files[candidates],
                                  out)) == code
        assert capfd.readouterr() == ("", f"error: {message.format(**files)}\n")
        assert not out.exists()
        assert forks == []

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_load_error_propagates_as_raised(self, files, monkeypatch, forks, tmp_path, cpus):
        # cli looks load_ova_model up at call time, so this stand-in is what predict runs
        error = ValueError(lambda: 0)  # pickle cannot send a lambda; nothing needs to

        def load_ova_model(path):
            raise error

        monkeypatch.setattr(cli, "load_ova_model", load_ova_model)
        usable_cpus(monkeypatch, cpus)
        out = tmp_path / "p.tsv"
        with pytest.raises(ValueError) as err:
            main(_scoring_argv("predict", files["model"], files["space"], files["candidates"],
                               out))
        assert err.value is error
        assert not out.exists()
        assert forks == []

    def test_an_interrupt_in_a_load_writes_nothing(self, files, monkeypatch, forks, tmp_path):
        def interrupted(path):
            raise KeyboardInterrupt

        monkeypatch.setattr(FeatureSpace, "load", interrupted)
        usable_cpus(monkeypatch, 2)
        out = tmp_path / "p.tsv"
        with pytest.raises(KeyboardInterrupt):
            main(_scoring_argv("predict", files["model"], files["space"], files["candidates"],
                               out))
        assert not out.exists()
        assert forks == []

    @pytest.mark.filterwarnings("ignore:This process:DeprecationWarning")  # the Pool's own fork
    def test_daemonic_caller_scores_as_the_main_process(self, files, monkeypatch, tmp_path):
        # a Pool worker is a daemon, which may not start children; predict needs none
        import multiprocessing

        usable_cpus(monkeypatch, 2)
        argvs = [_scoring_argv("predict", files["model"], files["space"], files["candidates"],
                               tmp_path / name) for name in ("pool.tsv", "here.tsv")]
        with multiprocessing.get_context("fork").Pool(1) as pool:
            assert pool.apply(main_without_fork, (argvs[0],)) == 0
        assert main(argvs[1]) == 0
        assert (tmp_path / "pool.tsv").read_bytes() == (tmp_path / "here.tsv").read_bytes()


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("command, written", [
    ("predict", ["predictions.tsv"]),
    ("eval", ["eval/confusion.tsv", "eval/pr_PER.tsv", "eval/report.tsv", "eval/report.txt"]),
])
def test_scoring_starts_no_process(pipeline, monkeypatch, capfd, tmp_path, cpus, command,
                                   written):
    usable_cpus(monkeypatch, cpus)
    monkeypatch.setattr(os, "fork", None)  # starting a process would fail
    target = tmp_path / ("predictions.tsv" if command == "predict" else "eval")
    assert main(_scoring_argv(command, pipeline["model"], pipeline["space"],
                              pipeline["test_candidates"], target)) == 0
    assert sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*.*")) == written
    assert ("micro" in capfd.readouterr().out) == (command == "eval")


def _mutated(data: bytes, rng: random.Random) -> bytes:
    """``data`` after one to three seeded byte-level edits."""
    for _ in range(rng.randint(1, 3)):
        pos = rng.randrange(len(data) + 1)
        lines = data.splitlines(keepends=True) or [b""]
        line = rng.randrange(len(lines))
        edit = rng.choice(["flip", "insert", "number", "delete", "duplicate", "truncate"])
        if edit == "flip" and pos < len(data):
            data = data[:pos] + bytes([data[pos] ^ 1 << rng.randrange(8)]) + data[pos + 1:]
        elif edit == "insert":
            byte = rng.choice([b"\t", b"\n", b"\x00", b"\xff", b"\xc3", b" "])
            data = data[:pos] + byte + data[pos:]
        elif edit == "number" and data.split():  # one whitespace-free token becomes a number
            token = rng.choice(list(re.finditer(rb"\S+", data)))
            data = (data[:token.start()] + rng.choice([b"nan", b"1e999", b"-1e999", b"inf"])
                    + data[token.end():])
        elif edit in ("delete", "duplicate"):
            lines[line:line + 1] = [] if edit == "delete" else [lines[line]] * 2
            data = b"".join(lines)
        elif edit == "truncate":
            data = data[:pos]
    return data


def _tsv_rows(path):
    """The rows of a written TSV file; every row has the first row's field count."""
    rows = [line.split("\t") for line in path.read_text(encoding="utf-8").splitlines()]
    assert rows and {len(row) for row in rows} == {len(rows[0])}, path
    return rows


def _loads_prepared(target):
    for path in target.iterdir():
        read_candidates_tsv(path)


def _loads_predictions(target):
    for row in _tsv_rows(target)[1:]:
        assert all(math.isfinite(float(value)) for value in row[2:])


def _loads_report(target):
    assert "micro" in (target / "report.txt").read_text(encoding="utf-8")
    for path in target.glob("*.tsv"):
        _tsv_rows(path)


def _loads_model(target):
    model = load_ova_model(target / "ova_model.txt")
    assert model.n == len(FeatureSpace.load(target / "feature_space.txt"))


@pytest.mark.parametrize("case", ["prepare", "predict", "eval", "space", "train"])
def test_mutated_input_fails_clean(corpus, pipeline, monkeypatch, tmp_path, capsys, case):
    """Seeded mutations of the column file (prepare), the model file (predict), the
    candidates file (eval --pr-curves), the space file (predict) and the training
    candidates (train, one epoch): each run exits 0, 1 or 2 and raises nothing; a failing
    run prints one error line and writes nothing, and what a passing run writes loads."""
    usable_cpus(monkeypatch, 1)  # train starts no worker process per mutation
    mutant, work = tmp_path / "input", tmp_path / "work"
    work.mkdir()
    target = work / ("predictions.tsv" if case in ("predict", "space") else "out")
    model, space, candidates = pipeline["model"], pipeline["space"], pipeline["test_candidates"]
    source, argv, loads = {
        "prepare": (corpus[0], ["prepare", "--train", str(mutant), "--out", str(target)],
                    _loads_prepared),
        "predict": (model, _scoring_argv("predict", mutant, space, candidates, target),
                    _loads_predictions),
        "eval": (candidates, _scoring_argv("eval", model, space, mutant, target),
                 _loads_report),
        "space": (space, _scoring_argv("predict", model, mutant, candidates, target),
                  _loads_predictions),
        "train": (candidates, ["train", "--candidates", str(mutant), "--epochs", "1",
                               "--out", str(target)], _loads_model),
    }[case]
    original = source.read_bytes()
    codes = []
    for copy in range(300):
        mutant.write_bytes(_mutated(original, random.Random(f"{case} {copy}")))
        codes.append(main(argv))
        stdout, err = capsys.readouterr()
        assert codes[-1] in (0, 1, 2)
        if codes[-1]:
            assert stdout == "" and err.startswith("error: ") and err.count("\n") == 1, err
            assert list(work.iterdir()) == []
        else:
            loads(target)
            if target.is_dir():
                shutil.rmtree(target)
            else:
                target.unlink()
    assert 0 in codes and 2 in codes  # the mutations reach both outcomes


# rows of a candidates file: mostly well-formed ones whose tokens and spans repeat, and any
# four or other number of fields over an alphabet with whitespace, so rows fail in every way
# the format has: wrong arity, an empty span, a bad tag, and blank lines in between
row_tokens = st.text(alphabet="aZ.\u00df", min_size=1, max_size=3)
good_rows = st.builds(lambda tag, *fields: "\t".join([tag, *map(" ".join, fields)]),
                      st.sampled_from(["PER", "O", ""]), st.lists(row_tokens, min_size=1,
                      max_size=3), st.lists(row_tokens, max_size=4), st.lists(row_tokens, max_size=4))
any_rows = st.lists(st.text(alphabet="aZ. \x85\u3000", max_size=4), min_size=1,
                    max_size=5).map("\t".join)
ROW_SPACE = FeatureSpace.fit([Candidate(["Za"], ["a", "Z."], ["aa"]), Candidate(["a", "b"], ["\u00df"])])


class TestRowPath:
    """Commands read a candidates file's rows straight into the labeled batch; the rows give
    what the file's Candidates give."""

    @given(st.lists(st.one_of(good_rows, good_rows, good_rows, any_rows), max_size=12),
           st.sampled_from([1, 2, 1024]))
    @settings(max_examples=300, deadline=None)
    def test_rows_give_the_candidates_batch(self, tmp_path_factory, lines, chunk):
        path = tmp_path_factory.mktemp("rows") / "c.tsv"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        with mock.patch.object(FeatureSpace, "_CHUNK", chunk):  # rows across steps too
            try:
                candidates = read_candidates_tsv(path)
            except DataFormatError as exc:
                with pytest.raises(DataFormatError) as err:
                    cli._batch(ROW_SPACE, path)
                assert str(err.value) == str(exc)  # the message and its path:line
                return
            if not candidates:
                with pytest.raises(ConfigError, match="candidates file is empty"):
                    cli._batch(ROW_SPACE, path)
                return
            batch = cli._batch(ROW_SPACE, path)
            counts, indices = ROW_SPACE.vectorize_batch(candidates)
        assert batch.labels == [c.gold_tag for c in candidates]
        assert batch.bounds.tolist() == _Batch(counts, indices).bounds.tolist()
        assert batch.indices.dtype == np.int64 and batch.indices.tolist() == indices.tolist()
        assert FeatureSpace.fit(candidate_rows(path)) == FeatureSpace.fit(candidates)
        if None in batch.labels:  # untagged: the first row whose tag field is empty
            with pytest.raises(DataFormatError) as err:
                cli._batch(ROW_SPACE, path, need_gold=True)
            line = next(pos for pos, text in enumerate(lines, 1) if text.startswith("\t"))
            assert str(err.value) == f"{path}:{line}: every candidate needs a gold tag here"

    @pytest.mark.parametrize("command", ["train", "predict", "eval", "sweep-k"])
    def test_commands_build_no_candidate(self, pipeline, monkeypatch, tmp_path, command):
        def built(*args, **kwargs):
            raise AssertionError("a Candidate was built")

        monkeypatch.setattr(Candidate, "__init__", built)
        monkeypatch.setattr(Candidate, "_unchecked", classmethod(built))
        usable_cpus(monkeypatch, 1)
        train = str(pipeline["prepared"] / "train.candidates.tsv")
        argv = {
            "train": ["train", "--candidates", train, "--epochs", "1", "--out", str(tmp_path)],
            "sweep-k": ["sweep-k", "--train", train, "--dev", str(pipeline["test_candidates"]),
                        "--k-values", "0,2", "--epochs", "1", "--out", str(tmp_path / "s.tsv")],
        }.get(command) or _scoring_argv(command, pipeline["model"], pipeline["space"],
                                         pipeline["test_candidates"], tmp_path / "out")
        assert main(argv) == 0

    def test_peak_is_the_arrays_and_one_step(self, tmp_path):
        # rows are vectorized a step (_CHUNK rows) at a time: the peak is the batch's arrays
        # (twice, as the steps' pieces are joined) and one step's temporaries, which a file
        # of 1,024 rows, at least one step, bounds; not the whole file's temporaries
        words = [f"w{i}" for i in range(400)]
        rnd = random.Random(3)
        rows = [f"{rnd.choice(['PER', 'LOC', 'O'])}\tXq{i} Co\t{' '.join(rnd.sample(words, 15))}"
                f"\t{' '.join(rnd.sample(words, 15))}\n" for i in range(20_000)]
        space = FeatureSpace.fit([Candidate(["Xq0", "Co"], words[:300])])

        def peak(text):
            path = tmp_path / "c.tsv"
            path.write_text(text)
            tracemalloc.start()
            try:
                batch = cli._batch(space, path)
                return batch, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        step = peak("".join(rows[:1024]))[1]
        batch, whole = peak("".join(rows))
        arrays = batch.bounds.nbytes + batch.indices.nbytes
        assert len(batch) == 20_000 and batch.indices.size > 20 * 20_000
        assert whole < 2 * arrays + 2 * step
