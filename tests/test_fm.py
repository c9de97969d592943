import numpy as np
import pytest

from fmnec import (
    DimensionMismatchError,
    FMModel,
    SparseVector,
    load_fm_model,
    save_fm_model,
)

from helpers import random_instance, random_model


class TestSparseVector:
    def test_empty(self):
        x = SparseVector.empty()
        assert x.nnz == 0
        assert len(x) == 0

    def test_from_pairs_sorts(self):
        x = SparseVector.from_pairs([(7, 2.0), (0, 1.0)])
        assert x.to_pairs() == [(0, 1.0), (7, 2.0)]

    def test_from_dict(self):
        x = SparseVector.from_dict({3: 2.0, 1: -1.0})
        assert x.to_pairs() == [(1, -1.0), (3, 2.0)]

    @pytest.mark.parametrize(
        "indices,values",
        [
            ([1, 0], [1.0, 1.0]),      # unsorted
            ([2, 2], [1.0, 1.0]),      # duplicate
            ([-1], [1.0]),             # negative index
            ([0], [0.0]),              # explicit zero
            ([0], [float("nan")]),     # non-finite
            ([0, 1], [1.0]),           # ragged
        ],
    )
    def test_rejects_invalid(self, indices, values):
        with pytest.raises(ValueError):
            SparseVector(indices, values)

    def test_from_pairs_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            SparseVector.from_pairs([(4, 1.0), (4, 2.0)])

    def test_equality(self):
        a = SparseVector([0, 2], [1.0, 3.0])
        assert a == SparseVector([0, 2], [1.0, 3.0])
        assert a != SparseVector([0, 2], [1.0, 4.0])

    def test_arrays_are_read_only(self):
        x = SparseVector([0], [1.0])
        with pytest.raises(ValueError):
            x.values[0] = 2.0


class TestFMModelConstruction:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            FMModel(0.0, [1.0, 2.0], [[1.0]])  # V rows != len(w)
        with pytest.raises(ValueError):
            FMModel(0.0, [[1.0]], [[1.0]])  # w not 1-d
        with pytest.raises(ValueError):
            FMModel(float("inf"), [1.0], [[1.0]])

    def test_dims(self):
        m = FMModel(0.0, np.zeros(3), np.zeros((3, 2)))
        assert (m.n, m.k) == (3, 2)

    def test_copy_is_deep(self):
        m = FMModel(1.0, [1.0], [[1.0]])
        c = m.copy()
        c.w[0] = 9.0
        assert m.w[0] == 1.0


class TestPredictRaw:
    def test_empty_instance_keeps_only_bias(self):
        m = random_model(np.random.default_rng(0), 5, 3)
        m.w0 = 1.0
        assert m.predict_raw(SparseVector.empty()) == 1.0

    def test_two_active_features_interact(self):
        m = FMModel(0.5, [1.0, -1.0], [[2.0], [3.0]])
        x = SparseVector([0, 1], [1.0, 1.0])
        # linear part cancels, interaction <2,3> = 6, bias 0.5
        assert m.predict_raw(x) == pytest.approx(6.5, abs=1e-12)

    def test_single_active_feature_has_no_interaction(self):
        V = np.random.default_rng(1).normal(size=(4, 2))
        w = np.zeros(4)
        w[3] = 0.25
        m = FMModel(1.0, w, V)
        assert m.predict_raw(SparseVector([3], [2.0])) == 1.0 + 0.25 * 2.0

    def test_single_feature_neutrality_exact(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            m = random_model(rng, 10, 4)
            i = int(rng.integers(0, 10))
            v = float(rng.uniform(0.5, 2.0))
            assert m.predict_raw(SparseVector([i], [v])) == m.w0 + m.w[i] * v

    def test_index_out_of_range(self):
        m = FMModel(0.0, [0.0], [[0.0]])
        with pytest.raises(DimensionMismatchError):
            m.predict_raw(SparseVector([1], [1.0]))

    def test_k0_scaling_is_linear(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            m = random_model(rng, 8, 0)
            x = random_instance(rng, 8, 5, min_nnz=1)
            alpha = float(rng.uniform(-3, 3))
            if alpha == 0.0:
                continue
            scaled = SparseVector(x.indices, alpha * x.values)
            lhs = m.predict_raw(scaled) - m.w0
            rhs = alpha * (m.predict_raw(x) - m.w0)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


class TestPredictRawNaive:
    def test_hand_value(self):
        m = FMModel(0.0, [0.0, 0.0], [[2.0], [3.0]])
        x = SparseVector([0, 1], [1.0, 1.0])
        assert m.predict_raw_naive(x) == pytest.approx(6.0, abs=1e-12)

    def test_agrees_with_fast_path(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            n = int(rng.integers(1, 40))
            k = int(rng.integers(0, 8))
            m = random_model(rng, n, k)
            x = random_instance(rng, n, min(n, 12))
            fast = m.predict_raw(x)
            naive = m.predict_raw_naive(x)
            assert abs(fast - naive) <= 1e-9 * (1 + abs(naive))

    def test_same_errors_as_fast_path(self):
        m = FMModel(0.0, [0.0], [[0.0]])
        with pytest.raises(DimensionMismatchError):
            m.predict_raw_naive(SparseVector([3], [1.0]))


class TestInteractionWeight:
    def test_hand_inner_product(self):
        m = FMModel(0.0, [0.0, 0.0], [[2.0], [3.0]])
        assert m.interaction_weight(0, 1) == 6.0

    def test_self_weight_is_squared_norm(self):
        rng = np.random.default_rng(5)
        m = random_model(rng, 6, 3)
        for i in range(6):
            assert m.interaction_weight(i, i) >= 0.0
            assert m.interaction_weight(i, i) == pytest.approx(float(m.V[i] @ m.V[i]))

    def test_k0_empty_sum(self):
        m = FMModel(0.0, np.zeros(4), np.zeros((4, 0)))
        assert m.interaction_weight(1, 3) == 0.0

    def test_symmetry_exact(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            m = random_model(rng, 9, 5)
            i, j = rng.integers(0, 9, size=2)
            assert m.interaction_weight(int(i), int(j)) == m.interaction_weight(int(j), int(i))

    def test_out_of_range(self):
        m = FMModel(0.0, [0.0], [[0.0]])
        with pytest.raises(DimensionMismatchError):
            m.interaction_weight(0, 1)


class TestModelFile:
    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        m = random_model(rng, 13, 4)
        path = tmp_path / "model.txt"
        save_fm_model(m, path)
        loaded = load_fm_model(path)
        assert loaded == m

    def test_layout(self, tmp_path):
        m = FMModel(0.5, [1.0, -1.0], [[2.0], [3.0]])
        path = tmp_path / "model.txt"
        save_fm_model(m, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "FMMODEL v1"
        assert lines[1] == "2 1"
        assert lines[2] == "0.5"
        assert lines[3] == "1 -1"
        assert lines[4:] == ["2", "3"]

    def test_k0_round_trip(self, tmp_path):
        m = FMModel(-0.25, [0.5, 0.75], np.zeros((2, 0)))
        path = tmp_path / "model.txt"
        save_fm_model(m, path)
        loaded = load_fm_model(path)
        assert loaded == m
        assert loaded.k == 0

    def test_predictions_survive_round_trip(self, tmp_path):
        rng = np.random.default_rng(8)
        m = random_model(rng, 20, 6)
        path = tmp_path / "model.txt"
        save_fm_model(m, path)
        loaded = load_fm_model(path)
        for _ in range(25):
            x = random_instance(rng, 20, 10)
            assert loaded.predict_raw(x) == m.predict_raw(x)

    @pytest.mark.parametrize(
        "content",
        [
            "WRONG v1\n1 1\n0\n0\n0\n",
            "FMMODEL v1\n1\n0\n0\n0\n",        # bad dimension line
            "FMMODEL v1\n1 1\n0\n0\n",          # truncated V
            "FMMODEL v1\n1 1\nzero\n0\n0\n",    # non-numeric
            "FMMODEL v1\n1 1\n0\n0 0\n0\n",     # wrong w arity
            "FMMODEL v1\n0 99999999999999999999\n0\n\n",  # k too large for any array
        ],
    )
    def test_rejects_malformed(self, tmp_path, content):
        from fmnec import DataFormatError

        path = tmp_path / "model.txt"
        path.write_text(content)
        with pytest.raises(DataFormatError):
            load_fm_model(path)

    def test_rejects_trailing_content(self, tmp_path):
        m = FMModel(0.0, [0.0], [[0.0]])
        path = tmp_path / "model.txt"
        save_fm_model(m, path)
        path.write_text(path.read_text() + "extra\n")
        from fmnec import DataFormatError

        with pytest.raises(DataFormatError):
            load_fm_model(path)
