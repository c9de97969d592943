import base64
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fmnec import (
    DataFormatError,
    DimensionMismatchError,
    FMModel,
    OvAModel,
    SparseVector,
    load_ova_model,
    save_ova_model,
)
from fmnec.fm import _Batch
from fmnec.util import LineCursor

from helpers import b64_line, random_instance, random_model


class TestSparseVector:
    def test_empty(self):
        x = SparseVector.empty()
        assert x.nnz == 0
        assert x.indices.tolist() == [] and x.values.tolist() == []

    def test_repr(self):
        assert repr(SparseVector([1, 3], [-1.0, 2.5])) == "SparseVector({1: -1, 3: 2.5})"
        assert repr(SparseVector.empty()) == "SparseVector({})"

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
        with pytest.raises(ValueError, match="V must be a 2-d matrix"):
            FMModel(0.0, [1.0], [1.0])
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


def parent_kernel(model, xs):
    """The batch scores as the kernel computed them before batches were built from CSR
    arrays: every value multiplied in, each column gathered from V in place."""
    rows = np.repeat(np.arange(len(xs)), [x.nnz for x in xs])
    idx = np.concatenate([x.indices for x in xs] or [np.empty(0, np.int64)])
    vals = np.concatenate([x.values for x in xs] or [np.empty(0)])

    def per_row(weights):
        return np.bincount(rows, weights=weights, minlength=len(xs))

    out = model.w0 + per_row(model.w[idx] * vals)
    if model.k:
        pairs = np.zeros(len(xs))
        for f in range(model.k):
            column = model.V[idx, f] * vals
            total = per_row(column)
            pairs += total * total - per_row(column * column)
        out += 0.5 * pairs
    return out


def bits(scores):
    return np.asarray(scores, dtype=np.float64).view(np.int64)


class TestBatchScores:
    """A batch built from CSR arrays scores each row with the bits of the kernel before it,
    of the batch of a ``SparseVector`` list, and close to the pairwise oracle."""

    @given(st.integers(0, 2**32 - 1), st.integers(1, 30), st.integers(0, 6), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_csr_batch_keeps_the_bits(self, seed, n, k, binary):
        rng = np.random.default_rng(seed)
        model = random_model(rng, n, k)
        xs = [random_instance(rng, n, min(n, 8), binary=binary)
              for _ in range(int(rng.integers(0, 12)))]
        counts = np.array([x.nnz for x in xs], dtype=np.int64)
        indices = np.concatenate([x.indices for x in xs] or [np.empty(0, np.int64)])
        values = np.concatenate([x.values for x in xs] or [np.empty(0)])
        scores = _Batch(counts, indices, None if binary else values).scores(model)
        assert scores.shape == (len(xs),)
        for other in (_Batch(counts, indices, values), _Batch.of(xs)):
            assert np.array_equal(bits(other.scores(model)), bits(scores))
        assert (_Batch.of(xs).values is None) == (binary or not indices.size)  # all 1.0: dropped
        assert np.array_equal(bits(parent_kernel(model, xs)), bits(scores))
        for score, x in zip(scores.tolist(), xs):
            assert score == model.predict_raw(x)
            naive = model.predict_raw_naive(x)
            assert abs(score - naive) <= 1e-9 * (1 + abs(naive))

    @pytest.mark.parametrize("k", [0, 3])
    def test_empty_row_is_w0_and_a_lone_feature_does_not_interact(self, k):
        model = random_model(np.random.default_rng(5), 6, k)
        binary = _Batch(np.array([0, 1, 0, 1]), np.array([2, 5]))
        assert bits(binary.scores(model)).tolist() == bits(
            [model.w0, model.w0 + model.w[2], model.w0, model.w0 + model.w[5]]).tolist()
        valued = _Batch(np.array([1, 0]), np.array([4]), np.array([-1.5]))
        assert bits(valued.scores(model)).tolist() == bits(
            [model.w0 + model.w[4] * -1.5, model.w0]).tolist()


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


ZERO = b64_line(0.0)
ONE_LABEL = "FMOVA v2\n1\nA\n"  # a binary model is saved as the one label of a model file


def save_one(model, path):
    save_ova_model(OvAModel(["A"], [model]), path)


def load_one(path):
    [model] = load_ova_model(path).models
    return model


class TestModelFile:
    def test_k0_round_trip(self, tmp_path):
        m = FMModel(-0.25, [0.5, 0.75], np.zeros((2, 0)))
        path = tmp_path / "model.txt"
        save_one(m, path)
        assert path.read_text().splitlines()[7] == ""  # an empty array is an empty line
        loaded = load_one(path)
        assert loaded == m
        assert loaded.k == 0

    def test_predictions_survive_round_trip(self, tmp_path):
        rng = np.random.default_rng(8)
        m = random_model(rng, 20, 6)
        path = tmp_path / "model.txt"
        save_one(m, path)
        loaded = load_one(path)
        for _ in range(25):
            x = random_instance(rng, 20, 10)
            assert loaded.predict_raw(x) == m.predict_raw(x)

    @pytest.mark.parametrize(
        "content",
        [
            f"WRONG v2\n1 1\n{ZERO}\n{ZERO}\n{ZERO}\n",
            f"FMMODEL v1\n1 1\n0\n0\n0\n",  # the decimal format this one replaced
            f"FMMODEL v2\n1\n{ZERO}\n{ZERO}\n{ZERO}\n",  # bad dimension line
            f"FMMODEL v2\n1 1\n{ZERO}\n{ZERO}\n",  # no V line
            f"FMMODEL v2\n0 99999999999999999999\n{ZERO}\n\n\n",  # k too large for any array
            f"FMMODEL v2\n-1 1\n{ZERO}\n{ZERO}\n{ZERO}\n",  # negative n
            f"FMMODEL v2\n1 -1\n{ZERO}\n{ZERO}\n{ZERO}\n",  # negative k
        ],
        ids=["header", "v1", "dimensions", "no-V-line", "huge-k", "negative-n", "negative-k"],
    )
    def test_rejects_malformed(self, tmp_path, content):
        path = tmp_path / "model.txt"
        path.write_text(ONE_LABEL + content)
        with pytest.raises(DataFormatError):
            load_one(path)

    @pytest.mark.parametrize("dims", ["-1 1", "1 -1"])
    def test_names_negative_dimensions(self, tmp_path, dims):
        # the list above checks only the type, which a later check would raise too
        path = tmp_path / "model.txt"
        path.write_text(f"{ONE_LABEL}FMMODEL v2\n{dims}\n{ZERO}\n{ZERO}\n{ZERO}\n")
        with pytest.raises(DataFormatError) as err:
            load_one(path)
        assert str(err.value) == f"{path}:5: model dimensions must be non-negative"

    def test_rejects_trailing_content(self, tmp_path):
        m = FMModel(0.0, [0.0], [[0.0]])
        path = tmp_path / "model.txt"
        save_one(m, path)
        path.write_text(path.read_text() + "extra\n")
        with pytest.raises(DataFormatError):
            load_one(path)

# -0.0, the smallest subnormal, the largest subnormal, and the largest finite float
EDGE_FLOATS = [-0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1.7976931348623157e308,
               -1.7976931348623157e308]


@st.composite
def finite_models(draw):
    n, k = draw(st.integers(0, 4)), draw(st.integers(0, 3))
    value = st.one_of(st.sampled_from(EDGE_FLOATS),
                      st.floats(allow_nan=False, allow_infinity=False))
    values = draw(st.lists(value, min_size=1 + n + n * k, max_size=1 + n + n * k))
    return FMModel(values[0], values[1:1 + n], np.reshape(values[1 + n:], (n, k)))


def int_bits(model):
    """w0, w and V as the int64 views of their float64 bits: -0.0 differs from 0.0."""
    return [np.array(a, np.float64).view(np.int64).tolist() for a in ([model.w0], model.w, model.V)]


def load_text(tmp_path, text):
    """The loaded model of a model file, or its DataFormatError message."""
    path = tmp_path / "m.txt"
    path.write_text(text, encoding="utf-8")
    try:
        return load_one(path)
    except DataFormatError as exc:
        return str(exc).replace(str(tmp_path) + "/", "")


def model_text(*lines):
    return ONE_LABEL + "".join(line + "\n" for line in ("FMMODEL v2", *lines))


# each file holds one fault; n = 2 and k = 1, so w0 is on line 6, w on 7 and V on 8
FAULTS = {
    "outside-alphabet": (["2 1", ZERO, "AAAAAAAA8D8AAAAA*AAAQA==", ZERO + ZERO],
                         "m.txt:7: invalid base64 in linear weights"),
    "non-ascii": (["2 1", ZERO, "AAAAAAAA8D8AAAAA\u0661AAAQA==", ZERO + ZERO],
                  "m.txt:7: invalid base64 in linear weights"),
    "space-inside": (["2 1", ZERO, "AAAAAAAA8D8A AAAAAAAAQA==", ZERO + ZERO],
                     "m.txt:7: invalid base64 in linear weights"),
    "bad-padding": (["2 1", ZERO, b64_line(1.0, 2.0).rstrip("="), b64_line(0.0, 0.0)],
                    "m.txt:7: invalid base64 in linear weights"),
    "one-value-short": (["2 1", ZERO, b64_line(1.0), b64_line(0.0, 0.0)],
                        "m.txt:7: expected 2 values for linear weights, got 1"),
    "one-value-over": (["2 1", ZERO, b64_line(1.0, 2.0, 3.0), b64_line(0.0, 0.0)],
                       "m.txt:7: expected 2 values for linear weights, got 3"),
    "part-of-a-value": (["2 1", ZERO, base64.b64encode(bytes(9)).decode(), b64_line(0.0, 0.0)],
                        "m.txt:7: expected 2 values for linear weights, got 9 bytes"),
    "two-biases": (["2 1", b64_line(0.0, 0.0), b64_line(1.0, 2.0), b64_line(0.0, 0.0)],
                   "m.txt:6: expected 1 values for bias, got 2"),
    # a value that is not finite is named at the block's last line, where FMModel checks it
    "nan": (["2 1", ZERO, b64_line(1.0, 2.0), b64_line(0.0, np.nan)],
            "m.txt:8: model parameters must be finite"),
    "inf": (["2 1", b64_line(-np.inf), b64_line(1.0, 2.0), b64_line(0.0, 0.0)],
            "m.txt:8: model parameters must be finite"),
    "short-V-block": (["2 1", ZERO, b64_line(1.0, 2.0), ZERO],
                      "m.txt:8: expected 2 values for factor matrix, got 1"),
    "bad-V-value": (["2 1", ZERO, b64_line(1.0, 2.0), "AAAA!AAA"],
                    "m.txt:8: invalid base64 in factor matrix"),
    "no-V-rows": (["2 1", ZERO, b64_line(1.0, 2.0)],
                  "m.txt:7: unexpected end of file while reading factor matrix"),
    # the last line of the model is named, not the trailing one
    "trailing-line": (["2 1", ZERO, b64_line(1.0, 2.0), b64_line(0.0, 0.0), "extra"],
                      "m.txt:8: trailing content after model block"),
    "trailing-blank-line": (["2 1", ZERO, b64_line(1.0, 2.0), b64_line(0.0, 0.0), ""],
                            "m.txt:8: trailing content after model block"),
}


class TestModelValues:
    """Each array is one line of base64 of its float64 bytes: any finite values come back
    bit for bit, and a line that does not decode to its array's length is named."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @example(FMModel(-0.0, [], np.zeros((0, 3))))
    @example(FMModel(5e-324, [1.7976931348623157e308, -0.0], np.zeros((2, 0))))
    @given(finite_models())
    def test_finite_values_round_trip_bit_for_bit(self, tmp_path_factory, model):
        path = tmp_path_factory.getbasetemp() / "round_trip.txt"
        save_one(model, path)
        loaded = load_one(path)
        assert (loaded.n, loaded.k) == (model.n, model.k)
        assert int_bits(loaded) == int_bits(model)

    @pytest.mark.parametrize("lines, expected", FAULTS.values(), ids=FAULTS.keys())
    def test_fault_names_its_line(self, tmp_path, lines, expected):
        assert load_text(tmp_path, model_text(*lines)) == expected

    def test_huge_dimensions_allocate_nothing(self, tmp_path):
        # the line's length is checked against n k, a Python int, before any array exists
        text = model_text(f"{10**12} {10**6}", ZERO, b64_line(1.0, 2.0), ZERO)
        tracemalloc.start()
        try:
            got = load_text(tmp_path, text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == f"m.txt:7: expected {10**12} values for linear weights, got 2"
        assert peak < 1 << 20
        got = load_text(tmp_path, model_text(f"2 {10**15}", ZERO, b64_line(1.0, 2.0), ZERO))
        assert got == f"m.txt:8: expected {2 * 10**15} values for factor matrix, got 1"

    def test_empty_arrays(self, tmp_path):
        model = load_text(tmp_path, model_text("0 3", b64_line(0.5), "", ""))
        assert model.w.shape == (0,) and model.V.shape == (0, 3)
        model = load_text(tmp_path, model_text("2 0", b64_line(0.5), b64_line(1.0, 2.0), ""))
        assert model.w.tolist() == [1.0, 2.0] and model.V.shape == (2, 0)


class TestStreamedLoad:
    """A load parses the file as it reads it; messages and line numbers are
    those of a reader that took every line first."""

    @pytest.mark.parametrize("body, line", [
        # a bad bias on line 6, then an undecodable byte thousands of lines on:
        # far past the first chunk the text layer decodes
        (model_text("3000 1", "zero", b64_line(*[0.0] * 3000)) + "A\n" * 2000, 2008),
        # a whole model, then trailing content before the undecodable byte
        (model_text("3000 1", ZERO, *[b64_line(*[0.0] * 3000)] * 2) + "x\n" * 3000, 3009),
    ], ids=["bad-bias", "trailing-content"])
    def test_invalid_utf8_later_in_the_file_wins(self, tmp_path, body, line):
        path = tmp_path / "m.txt"
        path.write_bytes(body.encode("ascii") + b"\xff\n" + b"0\n" * 9)
        with pytest.raises(DataFormatError) as err:
            load_one(path)
        assert str(err.value) == f"{path}:{line}: not valid UTF-8 text"

    def test_cursor_takes_from_an_iterator(self):
        cursor = LineCursor(iter(["a\n", "b\n", "c\n"]), path="p", lineno=4)
        assert [cursor.take("x") for _ in range(3)] == ["a", "b", "c"]
        assert cursor.at_end() and cursor.lineno == 7
        with pytest.raises(DataFormatError) as err:
            cursor.take("d")
        assert str(err.value) == "p:7: unexpected end of file while reading d"
        assert str(cursor.error("m")) == "p:7: m"
