import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fmnec import (
    DataFormatError,
    DimensionMismatchError,
    FMModel,
    SparseVector,
    load_fm_model,
    save_fm_model,
)
from fmnec.fm import _Batch, read_fm_model
from fmnec.util import LineCursor

from helpers import random_instance, random_model


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
            "FMMODEL v1\n-1 1\n0\n0\n0\n",   # negative n
            "FMMODEL v1\n1 -1\n0\n0\n0\n",   # negative k
        ],
    )
    def test_rejects_malformed(self, tmp_path, content):
        from fmnec import DataFormatError

        path = tmp_path / "model.txt"
        path.write_text(content)
        with pytest.raises(DataFormatError):
            load_fm_model(path)

    @pytest.mark.parametrize("dims", ["-1 1", "1 -1"])
    def test_names_negative_dimensions(self, tmp_path, dims):
        # the list above checks only the type, which a later check would raise too
        path = tmp_path / "model.txt"
        path.write_text(f"FMMODEL v1\n{dims}\n0\n0\n0\n")
        with pytest.raises(DataFormatError) as err:
            load_fm_model(path)
        assert str(err.value) == f"{path}:2: model dimensions must be non-negative"

    def test_rejects_trailing_content(self, tmp_path):
        m = FMModel(0.0, [0.0], [[0.0]])
        path = tmp_path / "model.txt"
        save_fm_model(m, path)
        path.write_text(path.read_text() + "extra\n")
        from fmnec import DataFormatError

        with pytest.raises(DataFormatError):
            load_fm_model(path)


# pieces of model-file values: what float() and NumPy's text parser both accept,
# what only float() accepts (1_0, Arabic-Indic and full-width digits), what
# neither does (#, ","), and separators str.split() knows (\x1c, \u3000, \x85)
VALUE_PIECES = [*"0123456789+-.eE_", "inf", "nan", "\u0661", "\uff11", "\x1c", "\u3000",
                "\x85", "#", ",", " ", "\t"]


def expected_w(line, n):
    """What loading a k = 0 model whose w line is ``line`` gives: float()'s
    values, or the message of the line-by-line reader."""
    parts = line.split()
    if len(parts) != n:
        return f"m.txt:4: expected {n} values for linear weights, got {len(parts)}"
    try:
        values = [float(part) for part in parts]
    except ValueError:
        return "m.txt:4: non-numeric value in linear weights"
    if not all(np.isfinite(values)):
        return f"m.txt:{4 + n}: model parameters must be finite"
    return values


def load_text(tmp_path, text):
    """The loaded (w, V) of a model file, or its DataFormatError message."""
    path = tmp_path / "m.txt"
    path.write_text(text, encoding="utf-8")
    try:
        model = load_fm_model(path)
    except DataFormatError as exc:
        return str(exc).replace(str(tmp_path) + "/", "")
    return model.w, model.V


class TestModelValues:
    """The block reader parses whole blocks at once; it must give float()'s
    bits on every file that loads and the line-by-line message on every other."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(VALUE_PIECES), max_size=14).map("".join),
           st.one_of(st.none(), st.integers(0, 3)))
    def test_w_line_loads_as_float_does(self, tmp_path_factory, line, n):
        n = len(line.split()) if n is None else n
        text = f"FMMODEL v1\n{n} 0\n0.5\n{line}\n" + "\n" * n
        got = load_text(tmp_path_factory.mktemp("m"), text)
        expected = expected_w(line, n)
        if isinstance(expected, str):
            assert got == expected
        else:
            assert np.array(expected).tobytes() == got[0].tobytes()
            assert got[1].shape == (n, 0)

    @pytest.mark.parametrize("line, expected", [
        ("1_0 2", [10.0, 2.0]),             # float() accepts it, NumPy's parser does not
        ("\u0661 \uff12", [1.0, 2.0]),      # non-ASCII digits, likewise
        ("1\x852", [1.0, 2.0]),             # \x85 separates values, as in str.split()
        ("1 2#3", "m.txt:4: non-numeric value in linear weights"),  # "#" is no comment
        ("1,2 3", "m.txt:4: non-numeric value in linear weights"),
        (" \u3000", "m.txt:4: expected 2 values for linear weights, got 0"),
    ])
    def test_w_line_cases(self, tmp_path, line, expected):
        got = load_text(tmp_path, f"FMMODEL v1\n2 0\n0.5\n{line}\n\n\n")
        if isinstance(expected, str):
            assert got == expected
        else:
            assert got[0].tolist() == expected

    @pytest.mark.parametrize("rows, expected", [
        (["1 2", "", "3 4"], "m.txt:6: expected 2 values for factor row 1, got 0"),
        (["", "1 2", "3 4"], "m.txt:5: expected 2 values for factor row 0, got 0"),
        (["1 2", " \t", "3 4"], "m.txt:6: expected 2 values for factor row 1, got 0"),
        (["1 2", "3 4", "\x85"], "m.txt:7: expected 2 values for factor row 2, got 0"),
        (["1 2", "3", "4 5"], "m.txt:6: expected 2 values for factor row 1, got 1"),
        (["1 2", "3 x", "4 5"], "m.txt:6: non-numeric value in factor row 1"),
        (["1 2", "3 1_0", "4 \u0661"], [[1.0, 2.0], [3.0, 10.0], [4.0, 1.0]]),
        (["", "", ""], "m.txt:5: expected 2 values for factor row 0, got 0"),
        (["1 2 3 4 5 6", "", ""], "m.txt:5: expected 2 values for factor row 0, got 6"),
        (["1 2", "3 4"], "m.txt:6: unexpected end of file while reading factor row 2"),
    ])
    def test_factor_block_cases(self, tmp_path, rows, expected):
        text = "FMMODEL v1\n3 2\n0\n1 2 3\n" + "".join(row + "\n" for row in rows)
        got = load_text(tmp_path, text)
        if isinstance(expected, str):
            assert got == expected
        else:
            assert got[1].tolist() == expected

    def test_empty_blocks(self, tmp_path):
        w, V = load_text(tmp_path, "FMMODEL v1\n0 3\n0.5\n\n")
        assert w.shape == (0,) and V.shape == (0, 3)
        w, V = load_text(tmp_path, "FMMODEL v1\n2 0\n0.5\n1 2\n\n \t\n")
        assert w.tolist() == [1.0, 2.0] and V.shape == (2, 0)

    def test_k0_factor_line_must_be_blank(self, tmp_path):
        got = load_text(tmp_path, "FMMODEL v1\n2 0\n0.5\n1 2\n\n5\n")
        assert got == "m.txt:6: expected 0 values for factor row 1, got 1"

    def test_carriage_return_inside_a_line(self):
        # a file read in text mode never holds one, but a LineCursor may
        lines = ["FMMODEL v1\n", "2 1\n", "0\n", "1\r2\n", "3\n", "4\n"]
        model = read_fm_model(LineCursor(lines))
        assert model.w.tolist() == [1.0, 2.0] and model.V.tolist() == [[3.0], [4.0]]

    def test_written_values_are_g17(self, tmp_path):
        rng = np.random.default_rng(11)
        m = FMModel(0.1, rng.normal(size=4) * 1e-300, rng.normal(size=(4, 3)) * 1e300)
        path = tmp_path / "m.txt"
        save_fm_model(m, path)
        lines = path.read_text().splitlines()
        assert lines[3] == " ".join(f"{v:.17g}" for v in m.w.tolist())
        assert lines[4:] == [" ".join(f"{v:.17g}" for v in row) for row in m.V.tolist()]


class TestStreamedLoad:
    """A load parses the file as it reads it; messages and line numbers are
    those of a reader that took every line first."""

    @pytest.mark.parametrize("text, expected", [
        ("FMMODEL v1\n2 1\n0\n0 0\n0\n", "m.txt:5: unexpected end of file while reading factor row 1"),
        ("FMMODEL v1\n2 1\n0\n0 0\n", "m.txt:4: unexpected end of file while reading factor row 0"),
        ("FMMODEL v1\n3 2\n0\n0 0 0\n1 2\n3 x\n", "m.txt:6: non-numeric value in factor row 1"),
        # the last line of the model is named, not the trailing one
        ("FMMODEL v1\n1 1\n0\n0\n0\nextra\n", "m.txt:5: trailing content after model block"),
        ("FMMODEL v1\n1 1\n0\n0\n0\n\n", "m.txt:5: trailing content after model block"),
    ], ids=["short-V-block", "no-V-rows", "bad-V-value", "trailing-line", "trailing-blank-line"])
    def test_truncated_block_and_trailing_content(self, tmp_path, text, expected):
        assert load_text(tmp_path, text) == expected

    @pytest.mark.parametrize("body, line", [
        # a bad bias on line 3, then an undecodable byte thousands of lines on:
        # far past the first chunk the text layer decodes
        ("FMMODEL v1\n3000 1\nzero\n" + " ".join(["0"] * 3000) + "\n" + "0\n" * 2000, 2005),
        # a whole model, then trailing content before the undecodable byte
        ("FMMODEL v1\n3000 1\n0\n" + " ".join(["0"] * 3000) + "\n" + "0\n" * 3000 + "x\n" * 3000,
         6005),
    ], ids=["bad-bias", "trailing-content"])
    def test_invalid_utf8_later_in_the_file_wins(self, tmp_path, body, line):
        path = tmp_path / "m.txt"
        path.write_bytes(body.encode("ascii") + b"\xff\n" + b"0\n" * 9)
        with pytest.raises(DataFormatError) as err:
            load_fm_model(path)
        assert str(err.value) == f"{path}:{line}: not valid UTF-8 text"

    def test_cursor_takes_from_an_iterator(self):
        cursor = LineCursor(iter(["a\n", "b\n", "c\n"]), path="p", lineno=4)
        assert cursor.take("x") == "a"
        assert cursor.take_lines(5) == ["b\n", "c\n"]
        assert cursor.at_end() and cursor.lineno == 7
        assert str(cursor.error("m")) == "p:7: m"
