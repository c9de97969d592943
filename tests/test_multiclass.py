import fcntl
import multiprocessing
import os
import resource
import signal
import subprocess
import sys
import time
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

import fmnec
from fmnec import (
    Candidate,
    ConfigError,
    DataFormatError,
    DimensionMismatchError,
    FeatureSpace,
    FMModel,
    OvAModel,
    SparseVector,
    TrainConfig,
    load_ova_model,
    save_ova_model,
    sweep_k,
    train_binary,
    train_ova,
)

from fmnec import multiclass, train
from fmnec.fm import _Batch
from fmnec.util import derive_seed

from helpers import (
    assert_reaped,
    b64_line,
    make_xor_tagged,
    random_instance,
    random_model,
    usable_cpus,
)

ZERO = b64_line(0.0)


def bias_model(w0, n=0, k=0):
    return FMModel(w0, np.zeros(n), np.zeros((n, k)))


def cfg(**kwargs):
    defaults = dict(k=0, learning_rate=0.1, reg_w=0.0, reg_v=0.0, epochs=30, init_sd=0.1, seed=0)
    defaults.update(kwargs)
    return TrainConfig(**defaults)


class TestOvAModelValidation:
    def test_rejects_unsorted_labels(self):
        with pytest.raises(ConfigError):
            OvAModel(["PER", "LOC"], [bias_model(0.0), bias_model(0.0)])

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ConfigError):
            OvAModel(["LOC", "LOC"], [bias_model(0.0), bias_model(0.0)])

    def test_rejects_mismatched_dimensions(self):
        with pytest.raises(ConfigError):
            OvAModel(["A", "B"], [bias_model(0.0, n=1), bias_model(0.0, n=2)])

    def test_rejects_fewer_models_than_labels(self):
        with pytest.raises(ConfigError, match="exactly one binary model required per label"):
            OvAModel(["A", "B"], [bias_model(0.0)])

    def test_rejects_empty(self):
        with pytest.raises(ConfigError):
            OvAModel([], [])


class TestTrainOva:
    def test_labels_sorted_lexicographically(self):
        data = [
            (SparseVector([0], [1.0]), "PER"),
            (SparseVector([1], [1.0]), "LOC"),
            (SparseVector.empty(), "O"),
        ]
        model = train_ova(data, 2, cfg(epochs=2))
        assert model.labels == ["LOC", "O", "PER"]
        assert len(model.models) == 3

    def test_indicator_feature_drives_sign(self):
        # tag is PER exactly when feature 7 is active; k=0 keeps it linear
        data = []
        for i in range(40):
            if i % 2:
                data.append((SparseVector([7], [1.0]), "PER"))
            else:
                data.append((SparseVector([i % 5], [1.0]), "LOC"))
        model = train_ova(data, 8, cfg(epochs=50))
        probe = SparseVector([7], [1.0])
        scores = dict(zip(model.labels, model.predict_scores([probe])[0]))
        assert scores["PER"] > 0
        assert scores["LOC"] < 0

    def test_single_label_degenerates(self):
        data = [(SparseVector([0], [1.0]), "O"), (SparseVector([1], [1.0]), "O")]
        model = train_ova(data, 2, cfg(epochs=5))
        assert model.labels == ["O"]
        assert model.predict_label([SparseVector([1], [1.0]), SparseVector.empty()]) == ["O", "O"]

    def test_divergence_names_label_and_epoch(self):
        config = TrainConfig(k=2, learning_rate=1e200, loss="logistic", reg_w=0, reg_v=0, epochs=3)
        with np.errstate(all="ignore"), pytest.raises(ConfigError, match="label ENT: .*epoch 1"):
            train_ova(make_xor_tagged(10, 1), 2, config)

    def test_nan_hinge_scores_diverge_at_epoch_1(self):
        # factors of ~1e300 overflow the two-feature scores to NaN
        config = TrainConfig(k=2, init_sd=1e300, epochs=2)
        with pytest.raises(ConfigError, match=r"epoch 1: the mean loss \(nan\)"):
            train_ova(make_xor_tagged(10, 1), 2, config)

    def test_empty_data_rejected(self):
        with pytest.raises(ConfigError):
            train_ova([], 2, cfg())

    def test_untagged_instance_rejected(self):
        data = [(SparseVector([0], [1.0]), None)]
        with pytest.raises(ConfigError):
            train_ova(data, 1, cfg())

    @pytest.mark.parametrize("bad", ["A\nB", "", "A B", "\u00a0"])
    def test_whitespace_tag_rejected_before_training(self, bad):
        # a tag is one line of the model file, so "A\nB" would save a model
        # that cannot be loaded; the whole tag set is checked up front
        data = [(SparseVector([0], [1.0]), "C"), (SparseVector([1], [1.0]), bad)]
        epochs = []
        with pytest.raises(ConfigError, match="whitespace-free"):
            train_ova(data, 2, cfg(), on_epoch=lambda *args: epochs.append(args))
        assert epochs == []

    def test_deterministic(self):
        data = make_xor_tagged(copies=10, seed=1)
        a = train_ova(data, 2, cfg(k=2, epochs=10, seed=5))
        b = train_ova(data, 2, cfg(k=2, epochs=10, seed=5))
        assert a == b

    def test_independent_of_tag_encounter_order(self):
        data = make_xor_tagged(copies=10, seed=1)
        flipped = list(reversed(data))
        a = train_ova(data, 2, cfg(k=2, epochs=10, seed=5))
        b = train_ova(flipped, 2, cfg(k=2, epochs=10, seed=5))
        # same label set, same per-label seeds; only the in-epoch visiting
        # order differs, so the label order and dimensions must agree
        assert a.labels == b.labels
        assert (a.n, a.k) == (b.n, b.k)


class TestPredictScores:
    def make(self):
        return OvAModel(["LOC", "O", "PER"], [bias_model(0.2), bias_model(-1.0), bias_model(0.9)])

    def test_empty_instance_returns_biases(self):
        scores = self.make().predict_scores([SparseVector.empty()])
        assert scores.tolist() == [[0.2, -1.0, 0.9]]

    def test_label_order(self):
        model = OvAModel(["LOC", "O", "PER"], [bias_model(1.0), bias_model(2.0), bias_model(3.0)])
        assert model.predict_scores([SparseVector.empty()]).tolist() == [[1.0, 2.0, 3.0]]

    def test_pure(self):
        model = self.make()
        xs = [SparseVector.empty()]
        assert np.array_equal(model.predict_scores(xs), model.predict_scores(xs))

    def test_one_row_per_instance(self):
        model = OvAModel(["A", "B"], [bias_model(0.5, n=3, k=2), bias_model(-0.5, n=3, k=2)])
        assert model.predict_scores([SparseVector.empty()] * 4).shape == (4, 2)
        assert model.predict_scores([]).shape == (0, 2)
        assert model.predict_label([]) == []

    def test_out_of_range_index_rejected(self):
        model = OvAModel(["A", "B"], [bias_model(0.0, n=3), bias_model(0.0, n=3)])
        with pytest.raises(DimensionMismatchError, match="feature index 3 out of range for n=3"):
            model.predict_scores([SparseVector([0], [1.0]), SparseVector([1, 3], [1.0, 1.0])])


    def test_a_feature_space_batch_scores_as_its_vectors(self):
        rng = np.random.default_rng(11)
        words = ["mr", "in", "Bonn", "said", "ANN", "U.N.", "the", *(f"w{i}" for i in range(30))]

        def some(low, high):
            return [str(w) for w in rng.choice(words, int(rng.integers(low, high)))]

        candidates = [Candidate(some(1, 4), some(0, 6), some(0, 6)) for _ in range(700)]
        space = FeatureSpace.fit(candidates[:40])  # the later candidates hold unknown words
        model = OvAModel(["A", "B", "C"], [random_model(rng, len(space), 4) for _ in range(3)])
        batch = _Batch(*space.vectorize_batch(candidates))
        xs = list(map(space.vectorize_candidate, candidates))
        scores = model.predict_scores(batch)
        assert np.array_equal(scores.view(np.int64), model.predict_scores(xs).view(np.int64))
        assert scores.tolist() == [[m.predict_raw(x) for m in model.models] for x in xs]
        assert model.predict_label(batch) == model.predict_label(xs)


class TestPredictLabel:
    def test_argmax(self):
        model = OvAModel(
            ["LOC", "O", "PER"], [bias_model(0.2), bias_model(-1.0), bias_model(0.9)]
        )
        assert model.predict_label([SparseVector.empty()]) == ["PER"]

    def test_tie_breaks_lexicographically(self):
        model = OvAModel(
            ["LOC", "O", "PER"], [bias_model(0.5), bias_model(-1.0), bias_model(0.5)]
        )
        assert model.predict_label([SparseVector.empty()]) == ["LOC"]

    def test_constant_shift_invariance(self):
        rng = np.random.default_rng(0)
        labels = ["A", "B", "C", "D"]
        for _ in range(20):
            biases = rng.normal(size=4)
            shift = float(rng.normal())
            base = OvAModel(labels, [bias_model(float(b)) for b in biases])
            shifted = OvAModel(labels, [bias_model(float(b) + shift) for b in biases])
            xs = [SparseVector.empty()]
            assert base.predict_label(xs) == shifted.predict_label(xs)

    def test_result_is_a_known_label(self):
        model = OvAModel(["X", "Y"], [bias_model(-3.0), bias_model(-5.0)])
        [label] = model.predict_label([SparseVector.empty()])
        assert label in model.labels

    def test_best_labels_reuses_scores(self):
        model = OvAModel(["A", "B", "C"], [bias_model(0.0)] * 3)
        scores = np.array([[0.0, 2.0, 1.0], [3.0, 3.0, 3.0], [-1.0, -2.0, -0.5]])
        assert model.best_labels(scores) == ["B", "A", "C"]


class TestOvaFile:
    def test_round_trip(self, tmp_path):
        data = make_xor_tagged(copies=8, seed=2)
        trained = train_ova(data, 2, cfg(k=2, epochs=5))
        # a binary model is saved as a one-label model
        binary = OvAModel(["A"], [random_model(np.random.default_rng(7), 13, 4)])
        path = tmp_path / "ova.txt"
        for model in (trained, binary):
            save_ova_model(model, path)
            assert load_ova_model(path) == model

    def test_layout(self, tmp_path):
        model = OvAModel(["A", "B"], [bias_model(0.0, n=1, k=1), bias_model(0.5, n=1, k=1)])
        path = tmp_path / "ova.txt"
        save_ova_model(model, path)
        zero = b64_line(0.0)
        assert path.read_text().splitlines() == [
            "FMOVA v2", "2",
            "A", "FMMODEL v2", "1 1", zero, zero, zero,
            "B", "FMMODEL v2", "1 1", b64_line(0.5), zero, zero,
        ]
        save_ova_model(OvAModel(["A"], [FMModel(0.5, [1.0, -1.0], [[2.0, 3.0], [4.0, 5.0]])]),
                       path)
        lines = path.read_text().splitlines()
        assert lines == ["FMOVA v2", "1", "A", "FMMODEL v2", "2 2", b64_line(0.5),
                         b64_line(1.0, -1.0), b64_line(2.0, 3.0, 4.0, 5.0)]  # V row-major
        assert lines[5] == "AAAAAAAA4D8="  # 0.5 is 00 00 00 00 00 00 e0 3f, little-endian

    @pytest.mark.parametrize(
        "content",
        [
            f"NOPE v2\n1\nA\nFMMODEL v2\n0 0\n{ZERO}\n\n\n",
            "FMOVA v2\nzero\n",
            "FMOVA v2\n0\n",
            f"FMOVA v2\n2\nB\nFMMODEL v2\n0 0\n{ZERO}\n\n\nA\nFMMODEL v2\n0 0\n{ZERO}\n\n\n",
            f"FMOVA v2\n2\nA\nFMMODEL v2\n0 0\n{ZERO}\n\n\n",
            f"FMOVA v2\n1\nA B\nFMMODEL v2\n0 0\n{ZERO}\n\n\n",
        ],
        ids=["header", "count", "no-labels", "unsorted", "missing-second-block",
             "whitespace-in-label"],
    )
    def test_rejects_malformed(self, tmp_path, content):
        path = tmp_path / "ova.txt"
        path.write_text(content)
        with pytest.raises(DataFormatError):
            load_ova_model(path)

    @pytest.mark.parametrize(
        "line, text, message",
        [
            (14, "0.5 zero", "invalid base64 in factor matrix"),
            (14, b64_line(*range(11)), "expected 10 values for factor matrix, got 11"),
            (13, b64_line(*range(4)), "expected 5 values for linear weights, got 4"),
            (6, b64_line(0.0, 0.0), "expected 1 values for bias, got 2"),
            (1, "FMOVA v1", "expected 'FMOVA v2' header, got 'FMOVA v1'"),
            # None: the file ends before this line, so the last line read is named
            (14, None, "end of file while reading factor matrix"),
        ],
        ids=["bad-base64", "one-over", "one-short", "two-biases", "v1-header", "no-V-line"],
    )
    def test_bad_value_names_its_line(self, tmp_path, line, text, message):
        # layout: 1 header, 2 count, 3 "A", 4-8 A's block (w0 on 6, w on 7, V on 8),
        # 9 "B", then B's block: w0 on 12, w on 13, V on 14
        rng = np.random.default_rng(3)
        models = [FMModel(0.0, rng.normal(size=5), rng.normal(size=(5, 2))) for _ in "AB"]
        path = tmp_path / "ova.txt"
        save_ova_model(OvAModel(["A", "B"], models), path)
        lines = path.read_text().splitlines()
        assert lines[8] == "B"
        if text is None:
            lines, line = lines[: line - 1], line - 1
        else:
            lines[line - 1] = text
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFormatError, match=message) as err:
            load_ova_model(path)
        assert err.value.line == line

    def test_load_holds_about_one_array_line(self, tmp_path):
        # the file is parsed as it is read: the peak is the arrays plus a few copies of
        # one label's factor matrix line (the line, its stripped copy, its bytes), not
        # the six labels' whole file
        rng = np.random.default_rng(5)
        n, k = 3000, 8
        models = [FMModel(rng.normal(), rng.normal(size=n), rng.normal(size=(n, k)))
                  for _ in range(6)]
        path = tmp_path / "ova.txt"
        save_ova_model(OvAModel([f"T{i}" for i in range(6)], models), path)
        with open(path, "rb") as fh:
            lines = fh.readlines()
        line = len(lines[7])  # T0's factor matrix
        assert sum(map(len, lines)) > 6 * line
        arrays = sum(m.w.nbytes + m.V.nbytes for m in models)
        tracemalloc.start()
        try:
            loaded = load_ova_model(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert loaded == OvAModel([f"T{i}" for i in range(6)], models)
        assert peak < arrays + 3 * line


def tagged(label_count, n=12, size=40, seed=0):
    """Binary instances of 3 random features, tags T0, T1, ... taken in turn."""
    rng = np.random.default_rng(seed)
    return [(SparseVector(np.sort(rng.choice(n, 3, replace=False)), np.ones(3)),
             f"T{i % label_count}") for i in range(size)]


def train_recorded(data, n, config):
    """The model's parameter bytes and every on_epoch call, or the error and the calls before it."""
    calls = []
    try:
        model = train_ova(data, n, config, on_epoch=lambda *args: calls.append(args))
    except ConfigError as exc:
        return str(exc), calls
    return [(m.w0, m.w.tobytes(), m.V.tobytes()) for m in model.models], calls


def sweep_recorded(monkeypatch, data, dev, n, k_values, config):
    """sweep_k's results, and (k, parameter bytes) of every model in the order it was scored."""
    scored = []
    real = OvAModel.predict_label

    def predict_label(model, xs):
        scored.append((model.k, [(m.w0, m.w.tobytes(), m.V.tobytes()) for m in model.models]))
        return real(model, xs)

    monkeypatch.setattr(OvAModel, "predict_label", predict_label)
    results = sweep_k(data, dev, n, k_values, config)
    monkeypatch.setattr(OvAModel, "predict_label", real)
    return results, scored


def patch_train_labels(monkeypatch, log, effects, where="worker", meet=0):
    """Run ``effects[k](on_epoch)`` before training the job of that k ``where`` ("caller",
    "worker" or "anywhere").  Every process appends a line to the file ``log`` for each job it
    starts; the function returned reads them back as (``where``, pid, k) in the order of each
    process.  With ``meet`` processes, the first job of each waits until that many have
    started one, so that every process trains at least one job."""
    real = multiclass._train_labels
    caller = os.getpid()

    def trained():
        lines = log.read_text().splitlines() if log.exists() else []
        return [(here, int(pid), int(k)) for here, pid, k in map(str.split, lines)]

    def train_labels(data, n, config, seeds, signs, on_epoch=None):
        here = "caller" if os.getpid() == caller else "worker"
        with open(log, "a") as fh:  # one short append: lines of different processes never mix
            fh.write(f"{here} {os.getpid()} {config.k}\n")
        if [pid for _, pid, _ in trained()].count(os.getpid()) == 1:
            deadline = time.monotonic() + 10
            while len({pid for _, pid, _ in trained()}) < meet:
                assert time.monotonic() < deadline, f"{meet} processes did not start a job in 10 s"
                time.sleep(0.005)
        effect = effects.get(config.k)
        if effect is not None and where in ("anywhere", here):
            effect(on_epoch)
        return real(data, n, config, seeds, signs, on_epoch=on_epoch)

    monkeypatch.setattr(multiclass, "_train_labels", train_labels)
    return trained


def train_without_fork(data, n, configs):
    os.fork = None  # in a Pool worker: any attempt to fork fails
    return list(multiclass._train_configs(data, n, configs))


def raising(exc):
    def effect(on_epoch):
        on_epoch(0, 0, 0.5)
        raise exc
    return effect


UNPICKLABLE = lambda: 0  # noqa: E731 -- pickle cannot send a lambda


class Needs2(Exception):
    """Pickles, but unpickling calls ``Needs2(message)``, which fails."""

    def __init__(self, a, b):
        super().__init__(f"{a}/{b}")


class TestTrainingJobCalls:
    """A job is one config: ``_train_jobs`` makes one ``_train_labels`` call per config, with
    every label under its derived seed, and each label reports every epoch.  At one CPU every
    job runs here, so a recorder sees each of them."""

    def record(self, monkeypatch):
        calls = []
        real = multiclass._train_labels

        def train_labels(data, n, config, seeds, signs, on_epoch=None):
            epochs = []

            def report(label, epoch, mean_loss):
                epochs.append((label, epoch))
                on_epoch(label, epoch, mean_loss)

            calls.append((len(data), config.k, seeds, signs.shape, epochs))
            return real(data, n, config, seeds, signs, on_epoch=report)

        usable_cpus(monkeypatch, 1)
        monkeypatch.setattr(multiclass, "_train_labels", train_labels)
        return calls

    def test_train_ova_makes_one_call(self, monkeypatch):
        calls = self.record(monkeypatch)
        train_ova(tagged(3, size=40), 12, cfg(epochs=4))
        seeds = [derive_seed(0, "ova-label", f"T{i}") for i in range(3)]
        assert calls == [(40, 0, seeds, (3, 40), [(l, e) for e in range(4) for l in range(3)])]

    def test_sweep_k_makes_one_call_per_k(self, monkeypatch):
        calls = self.record(monkeypatch)
        sweep_k(tagged(2, size=30), tagged(2, size=10, seed=1), 12, [0, 2, 5], cfg(epochs=3))
        seeds = [derive_seed(0, "ova-label", f"T{i}") for i in range(2)]
        epochs = [(l, e) for e in range(3) for l in range(2)]
        assert calls == [(30, k, seeds, (2, 30), epochs) for k in (5, 2, 0)]


class TestLockstep:
    """The labels of a config train in lockstep, each on its own visiting order."""

    @pytest.mark.parametrize("cpus", [1, 2, 8])
    @pytest.mark.parametrize("values", ["binary", "real"])
    @pytest.mark.parametrize("loss", ["hinge", "logistic"])
    def test_each_label_trains_as_it_does_alone(self, monkeypatch, cpus, values, loss):
        # alone with train_binary under its derived config, in train_ova, and in sweep_k
        rng = np.random.default_rng(8)
        data = [(random_instance(rng, 12, 5, binary=values == "binary"), f"T{i % 3}")
                for i in range(45)]
        config = cfg(loss=loss, epochs=3, reg_w=1e-3, reg_v=1e-3)
        usable_cpus(monkeypatch, cpus)
        _, scored = sweep_recorded(monkeypatch, data, data[:9], 12, [0, 2, 16], config)
        assert [k for k, _ in scored] == [16, 2, 0]
        for k, models in scored:
            k_config = replace(config, k=k)
            alone = [train_binary([(x, 1 if tag == label else -1) for x, tag in data], 12,
                                  replace(k_config, seed=derive_seed(0, "ova-label", label)))
                     for label in ("T0", "T1", "T2")]
            assert models == [(m.w0, m.w.tobytes(), m.V.tobytes()) for m in alone]
            assert train_recorded(data, 12, k_config)[0] == models

    # a label that diverges ends the training of every later one: the on_epoch calls and the
    # message of the per-label loop that trained one label after another, kept verbatim;
    # feature 0's values of 1e30 blow up label B's factors
    PER_LABEL_DIVERGENCE = {
        "hinge": ("label B: training diverged at epoch 3: the mean loss (nan) or the parameters "
                  "are not finite; lower the learning rate",
                  [("A", 0, 0.16666666666666666), ("A", 1, 0.0), ("A", 2, 0.0), ("A", 3, 0.0),
                   ("A", 4, 0.0), ("B", 0, 1.9667515692061638e+59),
                   ("B", 1, 2.9168252526839083e+301)]),
        "logistic": ("label B: training diverged at epoch 4: the mean loss (nan) or the "
                     "parameters are not finite; lower the learning rate",
                     [("A", 0, 0.16773481134636137), ("A", 1, 0.0), ("A", 2, 0.0), ("A", 3, 0.0),
                      ("A", 4, 0.0), ("B", 0, 1.0007100823653568e+59),
                      ("B", 1, 1.0825607440843386e+179), ("B", 2, 9.021339534036148e+178)]),
    }

    @pytest.mark.parametrize("cpus", [1, 2, 3])  # the labels in 1, 2 or 3 lockstep groups
    @pytest.mark.parametrize("loss", ["hinge", "logistic"])
    def test_divergence_gives_the_per_label_message_and_calls(self, monkeypatch, loss, cpus):
        data = [(SparseVector([0, 1], [1e30, 3.0]), "A"), (SparseVector([1, 2], [2.0, 1.0]), "B"),
                (SparseVector([0, 2], [-1e30, 1.0]), "C")] * 2
        config = TrainConfig(k=1, learning_rate=1.0, reg_w=0, reg_v=0, epochs=5, seed=3, loss=loss)
        usable_cpus(monkeypatch, cpus)
        with np.errstate(all="ignore"):
            assert train_recorded(data, 3, config) == self.PER_LABEL_DIVERGENCE[loss]

    def test_the_first_label_to_diverge_in_label_order_raises(self, monkeypatch):
        # T2 diverges in epoch 1 and T1 in epoch 2: T1's error comes after T0's three
        # epochs and T1's first; no later label trains on past its error
        real, lives = train._sgd, []

        def sgd(params, live, batch, orders, signs, config):
            totals = real(params, live, batch, orders, signs, config)
            for label in [2, 1][len(lives):len(lives) + 1]:
                params[1][label, 0] = np.inf
            lives.append(live.tolist())
            return totals

        monkeypatch.setattr(train, "_sgd", sgd)
        usable_cpus(monkeypatch, 1)  # the three labels train in one lockstep group
        calls = []
        with pytest.raises(ConfigError, match="^label T1: training diverged at epoch 2: "):
            train_ova(tagged(3), 12, cfg(epochs=3), on_epoch=lambda *args: calls.append(args[:2]))
        assert calls == [("T0", 0), ("T0", 1), ("T0", 2), ("T1", 0)]
        assert lives == [[0, 1, 2], [0, 1], [0]]


class TestParallelTraining:
    """Configs train on one process per usable CPU; nothing observable may depend on it."""

    @pytest.mark.parametrize("k", [0, 2])
    @pytest.mark.parametrize("loss", ["hinge", "logistic"])
    @pytest.mark.parametrize("label_count", [1, 2, 5])
    @pytest.mark.parametrize("cpus", [1, 2, 3, 8])
    def test_same_models_and_epoch_calls_as_one_cpu(self, monkeypatch, forks, cpus, label_count,
                                                    loss, k):
        data = tagged(label_count)
        config = cfg(k=k, loss=loss, epochs=3, reg_w=1e-3, reg_v=1e-3)
        usable_cpus(monkeypatch, 1)
        serial = train_recorded(data, 12, config)
        usable_cpus(monkeypatch, cpus)
        assert train_recorded(data, 12, config) == serial
        assert len(serial[1]) == 3 * label_count
        assert_reaped(forks, min(cpus, label_count) - 1)  # a lockstep group of labels per CPU

    @pytest.mark.parametrize("cpus", [2, 3, 8])
    def test_divergence_same_message_and_calls_as_one_cpu(self, monkeypatch, cpus):
        config = TrainConfig(k=2, learning_rate=1e200, loss="logistic", reg_w=0, reg_v=0, epochs=3)
        data = make_xor_tagged(10, 1)
        usable_cpus(monkeypatch, 1)
        with np.errstate(all="ignore"):
            serial = train_recorded(data, 2, config)
            usable_cpus(monkeypatch, cpus)
            assert train_recorded(data, 2, config) == serial
        assert serial[0].startswith("label ENT: training diverged at epoch 1")

    @pytest.mark.parametrize("cpus", [1, 2, 3, 8])
    def test_first_failure_in_job_order_raises(self, monkeypatch, forks, tmp_path, cpus):
        # cpus + 1 configs, k = cpus .. 0 in job order, so the caller has a second job, which
        # fails at once. With meet, the processes' first jobs are the first cpus configs; each
        # worker fails in its first once the caller has started its second, so a later
        # failure in the caller comes first in time. The first failing job wins, after the two
        # epochs of each label of every job before it and the one epoch it reported.
        caller = os.getpid()

        def fail(on_epoch):
            deadline = time.monotonic() + 10
            while os.getpid() != caller and [p for _, p, _ in trained()].count(caller) < 2:
                assert time.monotonic() < deadline, "the caller did not start a second job"
                time.sleep(0.005)
            if os.getpid() != caller:
                raising(ConfigError("one"))(on_epoch)
            if [p for _, p, _ in trained()].count(caller) == 2:
                raising(ValueError("two"))(on_epoch)

        effects = {k: fail for k in range(cpus + 1)}
        trained = patch_train_labels(monkeypatch, tmp_path / "log", effects, "anywhere",
                                     meet=cpus)
        usable_cpus(monkeypatch, cpus)
        calls = []
        configs = [cfg(k=k, epochs=2) for k in range(cpus + 1)]
        with pytest.raises(ValueError) as err:
            list(multiclass._train_configs(tagged(2), 12, configs,
                                           on_epoch=lambda *args: calls.append(args)))
        workers = sorted((k for here, _, k in trained() if here == "worker"), reverse=True)
        assert len(workers) == cpus - 1  # one job each: the one that failed
        assert [here for here, _, _ in trained()].count("caller") == 2
        first = workers[0] if workers else 0
        expected = ConfigError("one") if workers else ValueError("two")
        assert (type(err.value), str(err.value)) == (type(expected), str(expected))
        before = [(f"T{i}", epoch) for i in range(2) for epoch in (0, 1)] * (cpus - first)
        assert [(label, epoch) for label, epoch, _ in calls] == before + [("T0", 0)]
        assert_reaped(forks, cpus - 1)

    @pytest.mark.parametrize("cpus", [2, 3, 8])
    def test_every_job_is_trained_once(self, monkeypatch, forks, tmp_path, cpus):
        # 6 jobs, one per k; every process takes at least one, the rest as it finishes
        workers = min(cpus, 6) - 1
        trained = patch_train_labels(monkeypatch, tmp_path / "log", {}, meet=workers + 1)
        usable_cpus(monkeypatch, cpus)
        sweep_k(tagged(3, size=60), tagged(3, size=30, seed=1), 12, range(6), cfg(epochs=1))
        jobs = trained()
        assert sorted(k for _, _, k in jobs) == list(range(6))
        assert len({pid for _, pid, _ in jobs}) == workers + 1
        assert_reaped(forks, workers)

    @pytest.mark.parametrize("k_values, workers", [
        ([0, 5, 16], {1: 0, 2: 1, 3: 2, 8: 5}),  # at 8 CPUs, 2 groups of labels per k
        ([16, 0], {1: 0, 2: 1, 3: 1, 8: 5}),  # at 3, one CPU idle; at 8, a group per label
    ])
    @pytest.mark.parametrize("cpus", [1, 2, 3, 8])
    def test_sweep_same_models_and_results_as_one_cpu(self, monkeypatch, forks, cpus, k_values,
                                                      workers):
        data, dev = tagged(3, size=60), tagged(3, size=30, seed=1)
        config = cfg(epochs=2, reg_w=1e-3, reg_v=1e-3)
        usable_cpus(monkeypatch, 1)
        per_k = {k: train_recorded(data, 12, cfg(k=k, epochs=2, reg_w=1e-3, reg_v=1e-3))[0]
                 for k in k_values}
        serial = sweep_recorded(monkeypatch, data, dev, 12, k_values, config)
        usable_cpus(monkeypatch, cpus)
        results, scored = sweep_recorded(monkeypatch, data, dev, 12, k_values, config)
        assert (results, scored) == serial
        assert [k for k, _ in results] == k_values
        # longest k first, each model scored as soon as its labels are in
        assert scored == [(k, per_k[k]) for k in sorted(k_values, reverse=True)]
        assert_reaped(forks, workers[cpus])  # one fork per worker, not per job

    @pytest.mark.parametrize("k_values, k", [([5, 5], 5), ([0, 5, 16, 0], 0)])
    def test_sweep_rejects_a_repeated_k(self, monkeypatch, k_values, k):
        monkeypatch.setattr(os, "fork", None)  # starting a process would fail
        with pytest.raises(ConfigError, match=f"^k={k} appears twice in the k values$"):
            sweep_k(tagged(3, size=60), tagged(3, size=30, seed=1), 12, k_values, cfg(epochs=2))

    @pytest.mark.parametrize("cpus", [2, 3, 8])
    def test_diverging_sweep_same_error_as_one_cpu(self, monkeypatch, forks, cpus):
        config = TrainConfig(k=2, learning_rate=1e200, loss="logistic", reg_w=0, reg_v=0, epochs=3)
        data = make_xor_tagged(10, 1)
        errors = []
        for count in (1, cpus):
            usable_cpus(monkeypatch, count)
            with np.errstate(all="ignore"), pytest.raises(ConfigError) as err:
                sweep_k(data, data, 2, [0, 2], config)
            errors.append(str(err.value))
        assert errors[0] == errors[1]
        assert errors[0].startswith("label ENT: training diverged at epoch 1")
        assert_reaped(forks, 3 if cpus == 8 else 1)  # at 8 CPUs, one job per (k, label)

    @pytest.mark.parametrize("serial", ["one cpu", "one label", "no sched_getaffinity"])
    def test_serial_cases_start_no_process(self, monkeypatch, tmp_path, serial):
        trained = patch_train_labels(monkeypatch, tmp_path / "log", {})
        if serial == "no sched_getaffinity":
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            usable_cpus(monkeypatch, 1 if serial == "one cpu" else 4)
        monkeypatch.setattr(os, "fork", None)  # starting a process would fail
        if serial == "one label":  # train_ova: one job, however many CPUs
            train_ova(tagged(1), 12, cfg(epochs=1))
        else:
            sweep_k(tagged(3), tagged(3, seed=1), 12, [0, 1, 2], cfg(epochs=1))
        ks = [0] if serial == "one label" else [2, 1, 0]
        assert [(here, k) for here, _, k in trained()] == [("caller", k) for k in ks]

    @pytest.mark.parametrize("fits", [True, False])
    def test_job_records_that_overflow_the_pipe_train_in_this_process(self, monkeypatch, forks,
                                                                      fits):
        # the job indices go into the queue before any fork, so that write must not
        # block: with pipes of one page, 2-byte records for one job too many stay here
        real_pipe = os.pipe

        def pipe():  # the kernel rounds a pipe's size up to whole pages
            read_end, write_end = real_pipe()
            fcntl.fcntl(write_end, fcntl.F_SETPIPE_SZ, 1)
            return read_end, write_end

        def train_labels(data, n, config, seeds, signs, on_epoch=None):
            return [FMModel(0.0, np.zeros(n), np.zeros((n, config.k)))] * len(seeds), None

        def blocked(signum, frame):
            raise TimeoutError("the write of the job queue blocked")

        monkeypatch.setattr(os, "pipe", pipe)
        monkeypatch.setattr(multiclass, "_train_labels", train_labels)
        usable_cpus(monkeypatch, 2)
        count = resource.getpagesize() // 2 + (0 if fits else 1)
        previous = signal.signal(signal.SIGALRM, blocked)
        signal.alarm(10)
        try:
            models = list(multiclass._train_configs(tagged(1, size=2), 12, [cfg(epochs=1)] * count))
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert len(models) == count
        assert_reaped(forks, 1 if fits else 0)

    @pytest.mark.filterwarnings("ignore:This process:DeprecationWarning")  # the Pool's own fork
    def test_daemonic_caller_trains_serially(self, monkeypatch):
        # a Pool worker is a daemon, which its pool may end with no chance to
        # end the daemon's own children; there the jobs must not fork
        data = make_xor_tagged(5, 1)
        configs = [cfg(k=1, epochs=2), cfg(k=0, epochs=2)]
        usable_cpus(monkeypatch, 2)
        with multiprocessing.get_context("fork").Pool(1) as pool:
            models = pool.apply(train_without_fork, (data, 2, configs))
        assert models == list(multiclass._train_configs(data, 2, configs))

    def test_no_worker_outlives_an_interrupt_in_the_caller(self, monkeypatch, forks, tmp_path):
        # the caller's first job is interrupted while both workers train theirs for a
        # minute: sweep_k ends both workers and returns at once
        caller = os.getpid()

        def effect(on_epoch):
            if os.getpid() == caller:
                raise KeyboardInterrupt
            time.sleep(60)

        effects = {k: effect for k in range(3)}
        patch_train_labels(monkeypatch, tmp_path / "log", effects, "anywhere", meet=3)
        usable_cpus(monkeypatch, 3)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            sweep_k(tagged(3), tagged(3, seed=1), 12, [0, 1, 2], cfg(epochs=1))
        assert time.monotonic() - start < 20
        assert_reaped(forks, 2)

    def test_a_worker_that_finishes_is_reaped_not_killed(self, monkeypatch, forks):
        # its exit with status 0 ends its results; only a worker still training gets SIGTERM
        kills = []
        real_kill = os.kill
        monkeypatch.setattr(os, "kill", lambda pid, sig: (kills.append(sig), real_kill(pid, sig)))
        usable_cpus(monkeypatch, 2)
        sweep_k(tagged(4), tagged(4, seed=1), 12, [0, 1, 2, 3], cfg(epochs=2))
        assert signal.SIGTERM not in kills
        assert_reaped(forks, 1)

    def test_worker_exception_comes_back_whole(self, monkeypatch, forks, capfd, tmp_path):
        error = DimensionMismatchError("feature index 99 out of range for n=12")
        effects = {k: raising(error) for k in range(2)}  # whichever the worker trains
        patch_train_labels(monkeypatch, tmp_path / "log", effects, meet=2)
        usable_cpus(monkeypatch, 2)
        message = "^feature index 99 out of range for n=12$"
        with pytest.raises(DimensionMismatchError, match=message):
            sweep_k(tagged(2), tagged(2, seed=1), 12, [0, 1], cfg(epochs=1))
        assert "Traceback" not in capfd.readouterr().err
        assert_reaped(forks, 1)

    @pytest.mark.parametrize("exc", [ValueError(UNPICKLABLE), Needs2(1, 2)],
                             ids=["unpicklable", "not-unpicklable"])
    @pytest.mark.parametrize("cpus", [1, 2])
    def test_unsendable_exception_is_one_stated_error_at_any_cpu_count(self, monkeypatch, forks,
                                                                       capfd, tmp_path, cpus, exc):
        # every job raises in the caller at 1 CPU, and in the worker at 2: with meet, the
        # worker starts one of the first two jobs and fails there; the caller raises nothing
        where = "caller" if cpus == 1 else "worker"
        effects = {k: raising(exc) for k in range(3)}
        trained = patch_train_labels(monkeypatch, tmp_path / "log", effects, where, meet=cpus)
        usable_cpus(monkeypatch, cpus)
        with pytest.raises(RuntimeError) as err:
            sweep_k(tagged(3), tagged(3, seed=1), 12, [0, 1, 2], cfg(epochs=1))
        [k] = [k for here, _, k in trained() if here == where]
        assert type(err.value) is RuntimeError
        assert str(err.value) == (f"training with k={k} raised {type(exc).__name__}, "
                                  f"which cannot be sent between processes: {exc}")
        assert "Traceback" not in capfd.readouterr().err
        assert_reaped(forks, cpus - 1)

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_dead_worker_names_the_k_no_process_delivered(self, monkeypatch, forks, capfd,
                                                          tmp_path, cpus):
        # the first worker to start a job dies in it; the caller and any other worker
        # deliver every other job, so the error names that job's k alone
        def die(on_epoch):
            try:
                fd = os.open(tmp_path / "died", os.O_WRONLY | os.O_CREAT | os.O_EXCL)
            except FileExistsError:
                return
            os.write(fd, str(os.getpid()).encode())
            os._exit(3)

        effects = {k: die for k in range(4)}
        trained = patch_train_labels(monkeypatch, tmp_path / "log", effects, meet=cpus)
        usable_cpus(monkeypatch, cpus)
        with pytest.raises(ChildProcessError) as err:
            sweep_k(tagged(4), tagged(4, seed=1), 12, [0, 1, 2, 3], cfg(epochs=1))
        dead = int((tmp_path / "died").read_text())
        [k] = [k for _, pid, k in trained() if pid == dead]
        assert str(err.value) == ("a training worker exited with code 3 before sending its "
                                  f"results: no model for k={k}")
        assert capfd.readouterr().err == ""
        assert_reaped(forks, cpus - 1)

    def test_fork_warning_of_python_3_12_is_silenced(self, monkeypatch):
        # Python >= 3.12 warns from os.fork when the process has other threads
        real_fork = os.fork

        def fork():
            warnings.warn(f"This process (pid={os.getpid()}) is multi-threaded, use of fork() "
                          "may lead to deadlocks in the child.", DeprecationWarning, stacklevel=2)
            return real_fork()

        monkeypatch.setattr(os, "fork", fork)
        usable_cpus(monkeypatch, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sweep_k(tagged(2), tagged(2, seed=1), 12, [0, 1], cfg(epochs=1))

    def test_buffered_output_is_written_once(self):
        # a fork child that flushed the stdout buffer it inherited would write it again
        script = (
            "import os, sys\n"
            "from fmnec import SparseVector, TrainConfig, sweep_k\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "sys.stdout.write('unflushed marker\\n')\n"
            "data = [(SparseVector([0], [1.0]), 'A'), (SparseVector([1], [1.0]), 'B')]\n"
            "sweep_k(data, data, 2, [0, 1], TrainConfig(epochs=1))\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(fmnec.__file__)))
        env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
        out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                             env={**env, "PYTHONPATH": src}, check=True).stdout
        assert out.count("unflushed marker") == 1
