import numpy as np
import pytest

from fmnec import (
    ConfigError,
    DataFormatError,
    DimensionMismatchError,
    FMModel,
    OvAModel,
    SparseVector,
    TrainConfig,
    load_ova_model,
    save_ova_model,
    train_ova,
)

from helpers import make_xor_tagged


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
        model = train_ova(data, 2, cfg(k=2, epochs=5))
        path = tmp_path / "ova.txt"
        save_ova_model(model, path)
        assert load_ova_model(path) == model

    def test_layout(self, tmp_path):
        model = OvAModel(["A", "B"], [bias_model(0.0, n=1, k=1), bias_model(0.0, n=1, k=1)])
        path = tmp_path / "ova.txt"
        save_ova_model(model, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "FMOVA v1"
        assert lines[1] == "2"
        assert lines[2] == "A"
        assert lines[3] == "FMMODEL v1"

    @pytest.mark.parametrize(
        "content",
        [
            "NOPE v1\n1\nA\nFMMODEL v1\n0 0\n0\n\n",
            "FMOVA v1\nzero\n",
            "FMOVA v1\n0\n",
            "FMOVA v1\n2\nB\nFMMODEL v1\n0 0\n0\n\nA\nFMMODEL v1\n0 0\n0\n\n",  # unsorted
            "FMOVA v1\n2\nA\nFMMODEL v1\n0 0\n0\n\n",  # missing second block
            "FMOVA v1\n1\nA B\nFMMODEL v1\n0 0\n0\n\n",  # whitespace in a label
        ],
    )
    def test_rejects_malformed(self, tmp_path, content):
        path = tmp_path / "ova.txt"
        path.write_text(content)
        with pytest.raises(DataFormatError):
            load_ova_model(path)

    @pytest.mark.parametrize(
        "line, text, message",
        [
            (21, "0.5 zero", "non-numeric value in factor row 3"),
            (21, "0.5 0.25 1", "expected 2 values for factor row 3, got 3"),
            (17, "1 2 3 4 five", "non-numeric value in linear weights"),
            (7, "1 2 0x10 4 5", "non-numeric value in linear weights"),
            # None: the file ends before this line, so the last line read is named
            (21, None, "end of file while reading factor row 3"),
        ],
    )
    def test_bad_value_names_its_line(self, tmp_path, line, text, message):
        # layout: 1 header, 2 count, 3 "A", 4-12 A's block (w on 7, V rows on
        # 8-12), 13 "B", then B's block: w on 17, factor row i on 18 + i
        rng = np.random.default_rng(3)
        models = [FMModel(0.0, rng.normal(size=5), rng.normal(size=(5, 2))) for _ in "AB"]
        path = tmp_path / "ova.txt"
        save_ova_model(OvAModel(["A", "B"], models), path)
        lines = path.read_text().splitlines()
        assert lines[12] == "B"
        if text is None:
            lines, line = lines[: line - 1], line - 1
        else:
            lines[line - 1] = text
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFormatError, match=message) as err:
            load_ova_model(path)
        assert err.value.line == line
