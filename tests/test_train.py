import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fmnec import (
    ConfigError,
    DimensionMismatchError,
    FMModel,
    SparseVector,
    TrainConfig,
    init_model,
    loss_value,
    sgd_step,
    train_binary,
)
from fmnec import train
from fmnec.train import _loss_and_slope
from fmnec.util import derive_seed

from helpers import accuracy, make_xor_tagged, random_instance, random_model, xor_clean_instances


def cfg(**kwargs):
    defaults = dict(k=2, learning_rate=0.1, reg_w=0.0, reg_v=0.0, epochs=1, init_sd=0.1, seed=0)
    defaults.update(kwargs)
    return TrainConfig(**defaults)


def reference_step(model, x, y, config):
    """The update of the ``fmnec.train`` docstring, one allocating expression per
    parameter group, with no shortcut for binary instances: the bits training must give."""
    idx, vals = x.indices, x.values
    w_act, V_act = model.w[idx], model.V[idx]
    scaled = V_act * vals[:, None]
    per_factor = scaled.sum(axis=0)
    score = model.w0 + float(w_act @ vals)
    if model.k and idx.size > 1:
        score += 0.5 * float(per_factor @ per_factor - (scaled * scaled).sum())
    _, g = _loss_and_slope(config.loss, score, y)
    lr = config.learning_rate
    model.w0 -= lr * g
    model.w[idx] = w_act - lr * (g * vals + config.reg_w * w_act)
    grad = vals[:, None] * per_factor[None, :] - scaled * vals[:, None]
    if g != 0.0:
        model.V[idx] = V_act - lr * (g * grad + config.reg_v * V_act)
    elif config.reg_v != 0.0:
        model.V[idx] = V_act - lr * (config.reg_v * V_act)


def parent_epoch(model, data, order, config, binary):
    """The SGD epoch as it ran on ``(SparseVector, label)`` pairs before training took CSR
    batches, kept verbatim: the bits ``train._epoch`` must give on every kind of data."""
    w, V, w0, k = model.w, model.V, model.w0, model.k
    lr, reg_w, reg_v, g = map(np.array, (config.learning_rate, config.reg_w, config.reg_v, 0.0))
    rows = V.view(np.dtype((np.void, 8 * k))).reshape(-1) if k else None  # V is C-ordered
    total = 0.0
    for t in order:
        x, y = data[t]
        idx, vals = x.indices, x.values
        w_act = w[idx]
        score = w0 + float(w_act.dot(vals))
        if k:
            V_act = V.take(idx, axis=0)
            scaled = V_act if binary else V_act * vals[:, None]
            per_factor = np.add.reduce(scaled, 0)
            if idx.size > 1:
                score += 0.5 * (float(per_factor.dot(per_factor))
                                - float(np.add.reduce((scaled * scaled).ravel())))
        loss, slope = _loss_and_slope(config.loss, score, y)
        total += loss
        w0 -= config.learning_rate * slope
        g[()] = slope
        w[idx] = w_act - lr * ((g if binary else g * vals) + reg_w * w_act)
        if k and (slope != 0.0 or config.reg_v != 0.0):
            step = reg_v * V_act
            if slope != 0.0:
                grad = (per_factor - V_act if binary
                        else vals[:, None] * per_factor[None, :] - scaled * vals[:, None])
                np.add(step, np.multiply(grad, g, grad), step)
            np.multiply(step, lr, step)
            rows.put(idx, np.subtract(V_act, step, step).view(rows.dtype))
    model.w0 = w0
    return total


def parent_train(data, n, config):
    """``train_binary`` as it ran ``parent_epoch``: one all-1.0 flag for the whole set."""
    model = init_model(n, config)
    binary = all((x.values == 1.0).all() for x, _ in data)
    rng = np.random.default_rng(derive_seed(config.seed, "shuffle"))
    losses = [parent_epoch(model, data, rng.permutation(len(data)), config, binary) / len(data)
              for _ in range(config.epochs)]
    return model, losses


def model_bits(model):
    return [np.array([model.w0]).view(np.int64).tolist(), model.w.view(np.int64).tolist(),
            model.V.view(np.int64).tolist()]


class TestTrainConfig:
    @pytest.mark.parametrize(
        "bad",
        [
            dict(learning_rate=0.0),
            dict(learning_rate=-1.0),
            dict(epochs=0),
            dict(init_sd=-0.1),
            dict(reg_w=-1e-4),
            dict(loss="squared"),
            dict(k=-1),
            dict(learning_rate=float("inf")),
            dict(init_sd=float("nan")),
            dict(init_sd=float("inf")),
            dict(reg_w=float("nan")),
            dict(reg_w=float("inf")),
            dict(reg_v=float("nan")),
            dict(reg_v=float("inf")),
            dict(learning_rate=50, reg_w=10, reg_v=10),
            dict(learning_rate=0.5, reg_w=4),
            dict(learning_rate=0.5, reg_v=4),
            dict(learning_rate=50, reg_w=10),
            dict(learning_rate=50, reg_v=10),
        ],
    )
    def test_rejects_invalid(self, bad):
        with pytest.raises(ConfigError):
            cfg(**bad)

    @pytest.mark.parametrize("field", ["k", "epochs", "seed"])
    @pytest.mark.parametrize("value", [2.5, "3", None, np.float64(3.0)])
    def test_rejects_a_non_integer(self, field, value):
        with pytest.raises(ConfigError, match=f"^{field} must be an integer$"):
            cfg(**{field: value})

    @pytest.mark.parametrize("field", ["k", "epochs", "seed"])
    @pytest.mark.parametrize("kind", [np.int64, np.int32, np.uint8])
    def test_numpy_integers_are_accepted(self, field, kind):
        assert cfg(**{field: kind(3)}) == cfg(**{field: 3})

    def test_label_validation(self):
        data = [(SparseVector([0], [1.0]), 1), (SparseVector([0], [1.0]), 0)]
        seen = []
        with pytest.raises(ValueError, match="label must be -1 or \\+1"):
            train_binary(data, 1, cfg(), on_epoch=lambda e, l: seen.append(e))
        assert seen == []
        m = FMModel(0.0, [0.0], [[0.1]])
        before = m.copy()
        with pytest.raises(ValueError, match="label must be -1 or \\+1"):
            sgd_step(m, (SparseVector([0], [1.0]), 0), cfg(k=1))
        assert m == before


class TestInitModel:
    def test_zero_sd_gives_zero_factors(self):
        m = init_model(3, cfg(k=2, init_sd=0.0))
        assert m.w0 == 0.0
        assert not m.w.any()
        assert not m.V.any()

    def test_deterministic(self):
        a = init_model(3, cfg(k=2, init_sd=0.1, seed=42))
        b = init_model(3, cfg(k=2, init_sd=0.1, seed=42))
        assert a == b

    def test_seed_changes_factors(self):
        a = init_model(3, cfg(k=2, init_sd=0.1, seed=1))
        b = init_model(3, cfg(k=2, init_sd=0.1, seed=2))
        assert a != b

    def test_sample_std_dev(self):
        m = init_model(1000, cfg(k=5, init_sd=0.1))
        assert 0.08 <= float(m.V.std()) <= 0.12

    def test_negative_dimension_rejected(self):
        with pytest.raises(ConfigError):
            init_model(-1, cfg())

    # both sizes fail before any memory is touched: 8 * 2**62 doubles overflow
    # numpy's size limit, and 8 * 10**17 doubles (5.55 EiB) exceed any address space
    @pytest.mark.parametrize("k", [2**62, 10**17])
    def test_unallocatable_k_is_config_error(self, k):
        with pytest.raises(ConfigError, match=f"n=8 features and k={k}"):
            init_model(8, cfg(k=k))

    @pytest.mark.parametrize("init_sd", [1e308, 1.7e308])
    def test_init_sd_whose_draws_overflow_is_config_error(self, init_sd):
        # finite, so TrainConfig accepts it; a draw beyond about 1.8 sd is not
        with pytest.raises(ConfigError, match=re.escape(f"init_sd={init_sd:g} overflows float64")):
            init_model(50, cfg(k=5, init_sd=init_sd))
        assert np.isfinite(init_model(50, cfg(k=5, init_sd=1e300)).V).all()


class TestLossValue:
    def test_hinge_examples(self):
        assert loss_value("hinge", 2.0, 1) == 0.0
        assert loss_value("hinge", 0.0, -1) == 1.0
        assert loss_value("hinge", -0.5, 1) == 1.5

    def test_logistic_matches_reference(self):
        for score, y in [(0.3, 1), (-2.0, -1), (4.0, 1)]:
            assert loss_value("logistic", score, y) == pytest.approx(
                math.log(1 + math.exp(-y * score))
            )

    def test_logistic_overflow_safe(self):
        assert loss_value("logistic", -1000.0, 1) == pytest.approx(1000.0)
        assert loss_value("logistic", 1000.0, 1) == 0.0

    @pytest.mark.parametrize("y", [1, -1])
    def test_hinge_nan_score_is_nan(self, y):
        # a NaN margin fails every comparison, so it must not pass as "past the margin"
        assert math.isnan(loss_value("hinge", float("nan"), y))

    def test_rejects_bad_label(self):
        with pytest.raises(ValueError):
            loss_value("hinge", 0.0, 2)

    def test_rejects_unknown_loss(self):
        with pytest.raises(ConfigError, match="loss must be one of"):
            loss_value("squared", 0.0, 1)


class TestSgdStep:
    def test_hand_example(self):
        # margin violated: w0 and w move by lr, factor gradient is exactly zero
        m = FMModel(0.0, [0.0], [[0.1]])
        sgd_step(m, (SparseVector([0], [1.0]), 1), cfg(k=1, learning_rate=0.1))
        assert m.w0 == pytest.approx(0.1)
        assert m.w[0] == pytest.approx(0.1)
        assert m.V[0, 0] == 0.1

    def test_satisfied_margin_no_update(self):
        rng = np.random.default_rng(0)
        m = random_model(rng, 6, 3)
        x = random_instance(rng, 6, 4, min_nnz=1)
        y = 1 if m.predict_raw(x) > 0 else -1  # pick the label the model already satisfies
        m.w0 += 5.0 * y  # push the margin well past 1
        before = m.copy()
        sgd_step(m, (x, y), cfg(k=3))
        assert m == before

    def test_locality(self):
        rng = np.random.default_rng(1)
        m = random_model(rng, 12, 3)
        before = m.copy()
        x = SparseVector([2, 7], [1.0, -1.5])
        sgd_step(m, (x, 1), cfg(k=3, reg_w=0.01, reg_v=0.01))
        untouched = [i for i in range(12) if i not in (2, 7)]
        assert np.array_equal(m.w[untouched], before.w[untouched])
        assert np.array_equal(m.V[untouched], before.V[untouched])

    @pytest.mark.parametrize("binary", [False, True], ids=["real", "binary"])
    @pytest.mark.parametrize("loss", ["hinge", "logistic"])
    @pytest.mark.parametrize("k", [0, 1, 5])
    @pytest.mark.parametrize("reg", [0.0, 1e-2])
    def test_bits_match_the_reference_update(self, binary, loss, k, reg):
        rng = np.random.default_rng(11)
        config = cfg(k=k, loss=loss, reg_w=reg, reg_v=reg, learning_rate=0.3)
        model = random_model(rng, 12, k)
        expected = model.copy()
        for _ in range(60):
            x = random_instance(rng, 12, 7, binary=binary)
            y = int(rng.choice([-1, 1]))
            sgd_step(model, (x, y), config)
            reference_step(expected, x, y, config)
        assert np.float64(model.w0).tobytes() == np.float64(expected.w0).tobytes()
        assert model.w.tobytes() == expected.w.tobytes()
        assert model.V.tobytes() == expected.V.tobytes()

    def test_dimension_mismatch(self):
        m = FMModel(0.0, [0.0], [[0.0]])
        with pytest.raises(DimensionMismatchError):
            sgd_step(m, (SparseVector([5], [1.0]), 1), cfg())

    @pytest.mark.parametrize("binary", [False, True], ids=["real", "binary"])
    def test_fortran_ordered_factors_train_to_the_same_bits(self, monkeypatch, binary):
        # the trainer writes V by whole rows, which FMModel keeps C-ordered whatever the
        # order of the array it is given
        rng = np.random.default_rng(4)
        config = cfg(k=3, reg_w=1e-2, reg_v=1e-2, epochs=2, loss="logistic")
        data = [(random_instance(rng, 12, 6, min_nnz=2, binary=binary), int(rng.choice([-1, 1])))
                for _ in range(30)]

        def fortran(model):
            return FMModel(model.w0, model.w, np.asfortranarray(model.V))

        def bits(model):
            return np.float64(model.w0).tobytes(), model.w.tobytes(), model.V.tobytes()

        c_model = random_model(rng, 12, 3)
        f_model = fortran(c_model)
        assert f_model.V.flags.c_contiguous
        for inst in data:
            sgd_step(c_model, inst, config)
            sgd_step(f_model, inst, config)
        assert bits(f_model) == bits(c_model)
        expected = train_binary(data, 12, config)
        real = train.init_model
        monkeypatch.setattr(train, "init_model", lambda n, config: fortran(real(n, config)))
        assert bits(train_binary(data, 12, config)) == bits(expected)

    # each check runs on real values and on binary instances (all values 1.0),
    # which take the trainer's branch without the products by the values
    def test_gradients_match_finite_differences(self):
        # analytic gradient recovered from the parameter delta at lr=1, no decay
        step_cfg = cfg(k=3, learning_rate=1.0)
        for binary in (False, True):
            rng = np.random.default_rng(2)
            checked = 0
            sizes = set()
            while checked < 30:
                model = random_model(rng, 10, 3)
                x = random_instance(rng, 10, 5, min_nnz=1, binary=binary)
                y = int(rng.choice([-1, 1]))
                if abs(1.0 - y * model.predict_raw(x)) <= 1e-3:
                    continue
                checked += 1
                sizes.add(x.nnz)
                before = model.copy()
                sgd_step(model, (x, y), step_cfg)

                def numeric(mutate):
                    h = 1e-6

                    def loss_at(delta):
                        probe = before.copy()
                        mutate(probe, delta)
                        return loss_value("hinge", probe.predict_raw(x), y)

                    return (loss_at(h) - loss_at(-h)) / (2 * h)

                def check(analytic, mutate):
                    fd = numeric(mutate)
                    assert abs(analytic - fd) <= 1e-5 * (1 + abs(fd)), f"binary={binary}"

                check(before.w0 - model.w0, lambda p, d: setattr(p, "w0", p.w0 + d))
                for i in x.indices.tolist():
                    check(before.w[i] - model.w[i],
                          lambda p, d, i=i: p.w.__setitem__(i, p.w[i] + d))
                    for f in range(3):
                        check(
                            before.V[i, f] - model.V[i, f],
                            lambda p, d, i=i, f=f: p.V.__setitem__((i, f), p.V[i, f] + d),
                        )
            assert 1 in sizes  # a lone feature's interaction is exactly 0

    def test_logistic_gradient_matches_finite_differences(self):
        step_cfg = cfg(k=2, learning_rate=1.0, loss="logistic")
        # binary draws include one-feature instances, whose factor gradient is exactly 0
        for binary, min_nnz in ((False, 2), (True, 1)):
            rng = np.random.default_rng(3)
            sizes = set()
            for _ in range(10):
                model = random_model(rng, 8, 2)
                x = random_instance(rng, 8, 4, min_nnz=min_nnz, binary=binary)
                sizes.add(x.nnz)
                y = int(rng.choice([-1, 1]))
                before = model.copy()
                sgd_step(model, (x, y), step_cfg)
                h = 1e-6
                i = int(x.indices[0])
                probe_hi, probe_lo = before.copy(), before.copy()
                probe_hi.V[i, 0] += h
                probe_lo.V[i, 0] -= h
                fd = (
                    loss_value("logistic", probe_hi.predict_raw(x), y)
                    - loss_value("logistic", probe_lo.predict_raw(x), y)
                ) / (2 * h)
                assert before.V[i, 0] - model.V[i, 0] == pytest.approx(fd, rel=1e-5, abs=1e-9)
            assert min_nnz in sizes


class TestParentBits:
    """Training on CSR rows gives the bits of the pair loop it replaced, on real values too
    (the golden outputs cover only the CLI's binary vectors)."""

    @given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.sampled_from([1, 3, 12]),
           st.integers(0, 6), st.sampled_from(["hinge", "logistic"]), st.integers(1, 4),
           st.sampled_from(["binary", "real", "mixed"]), st.sampled_from([0.0, 1e-2]))
    @settings(max_examples=150, deadline=None)
    def test_train_binary_and_sgd_step_keep_the_bits(self, seed, n, width, k, loss, epochs,
                                                     kind, reg):
        rng = np.random.default_rng(seed)
        # rows of up to ``width`` entries: with narrow rows, empty and one-entry rows come up
        # often; real values are negative or positive
        def binary():
            return kind == "binary" or (kind == "mixed" and rng.random() < 0.5)

        data = [(random_instance(rng, n, min(n, width), binary=binary()), int(rng.choice([-1, 1])))
                for _ in range(int(rng.integers(1, 15)))]
        config = cfg(k=k, loss=loss, epochs=epochs, reg_w=reg, reg_v=reg, learning_rate=0.3)
        expected, losses = parent_train(data, n, config)
        seen = []
        model = train_binary(data, n, config, on_epoch=lambda e, mean: seen.append(mean))
        assert model_bits(model) == model_bits(expected)
        assert np.array(seen).view(np.int64).tolist() == np.array(losses).view(np.int64).tolist()
        expected = random_model(rng, n, k)
        model = expected.copy()
        for x, y in data:
            sgd_step(model, (x, y), config)
            parent_epoch(expected, [(x, y)], [0], config, bool((x.values == 1.0).all()))
        assert model_bits(model) == model_bits(expected)


class TestTrainBinary:
    def test_separable_pair(self):
        data = [
            (SparseVector([0], [1.0]), 1),
            (SparseVector([1], [1.0]), -1),
        ]
        model = train_binary(data, 2, cfg(k=0, learning_rate=0.1, epochs=50, init_sd=0))
        assert accuracy(model, data) == 1.0

    def test_xor_linear_ceiling(self):
        data = xor_clean_instances()
        model = train_binary(data, 2, cfg(k=0, learning_rate=0.05, epochs=500, init_sd=0))
        assert accuracy(model, data) <= 0.75

    def test_xor_solved_with_factors(self):
        data = xor_clean_instances()
        best = 0.0
        for seed in range(5):
            config = cfg(k=2, learning_rate=0.05, epochs=500, init_sd=0.1, seed=seed)
            best = max(best, accuracy(train_binary(data, 2, config), data))
            if best == 1.0:
                break
        assert best == 1.0

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        data = [(random_instance(rng, 10, 5), int(rng.choice([-1, 1]))) for _ in range(30)]
        config = cfg(k=3, epochs=5, reg_w=1e-4, reg_v=1e-4, seed=11)
        assert train_binary(data, 10, config) == train_binary(data, 10, config)

    def test_learning_progress(self):
        rng = np.random.default_rng(6)
        data = [(random_instance(rng, 15, 6, min_nnz=1), int(rng.choice([-1, 1]))) for _ in range(50)]
        config = cfg(k=3, learning_rate=0.05, epochs=30, reg_w=1e-4, reg_v=1e-4, seed=2)

        def regularized_mean_loss(model):
            data_term = np.mean([loss_value("hinge", model.predict_raw(x), y) for x, y in data])
            penalty = 0.5 * (
                config.reg_w * float(model.w @ model.w)
                + config.reg_v * float((model.V * model.V).sum())
            )
            return data_term + penalty

        before = regularized_mean_loss(init_model(15, config))
        after = regularized_mean_loss(train_binary(data, 15, config))
        assert after <= before

    # one non-binary vector sends train_binary down the general products for
    # the whole set while sgd_step still takes the binary branch on the others
    @pytest.mark.parametrize("one_real", [False, True], ids=["binary", "one-real"])
    @pytest.mark.parametrize("loss", ["hinge", "logistic"])
    @pytest.mark.parametrize("k", [0, 1, 5])
    @pytest.mark.parametrize("reg", [0.0, 1e-3])
    def test_matches_sgd_step_chain(self, one_real, loss, k, reg):
        rng = np.random.default_rng(9)
        data = [(random_instance(rng, 12, 6, binary=True), int(rng.choice([-1, 1])))
                for _ in range(40)]
        if one_real:
            data[7] = (random_instance(rng, 12, 6, min_nnz=2), data[7][1])
        config = cfg(k=k, loss=loss, reg_w=reg, reg_v=reg, epochs=3, seed=5)
        expected = init_model(12, config)
        order = np.random.default_rng(derive_seed(config.seed, "shuffle"))
        for _ in range(config.epochs):
            for t in order.permutation(len(data)):
                sgd_step(expected, data[t], config)
        model = train_binary(data, 12, config)
        assert np.float64(model.w0).tobytes() == np.float64(expected.w0).tobytes()
        assert model.w.tobytes() == expected.w.tobytes()
        assert model.V.tobytes() == expected.V.tobytes()

    def test_a_long_row_costs_memory_in_proportion_to_its_length(self):
        # the rows' values of 1.0 are views of one vector: a vector for every length up
        # to the longest would take (longest row)**2 / 2 floats
        wide = SparseVector(np.arange(5000), np.ones(5000))
        data = [(wide, 1), (SparseVector([0], [1.0]), -1)]
        tracemalloc.start()
        try:
            train_binary(data, 5000, cfg(k=0, epochs=2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_epoch_callback_reports_mean_loss(self):
        data = [(SparseVector([0], [1.0]), 1)]
        seen = []
        train_binary(data, 1, cfg(k=0, epochs=3, init_sd=0), on_epoch=lambda e, l: seen.append((e, l)))
        assert [e for e, _ in seen] == [0, 1, 2]
        assert seen[0][1] == pytest.approx(1.0)  # first pass sees the untrained score 0

    def test_empty_dataset_rejected(self):
        with pytest.raises(ConfigError):
            train_binary([], 3, cfg())

    def test_out_of_range_index_rejected(self):
        data = [(SparseVector([9], [1.0]), 1)]
        with pytest.raises(DimensionMismatchError):
            train_binary(data, 3, cfg())

    def test_out_of_range_index_in_the_last_chunk_rejected(self):
        # the largest index of the whole set is the one reported
        data = [(SparseVector([i % 3], [1.0]), 1) for i in range(300)]
        data[10] = (SparseVector([1, 5], [1.0, 1.0]), -1)
        data[-1] = (SparseVector([2, 7], [1.0, 2.0]), -1)
        with pytest.raises(DimensionMismatchError, match="^feature index 7 out of range for n=3$"):
            train_binary(data, 3, cfg())

    def test_divergent_loss_raises(self):
        data = [(x, 1 if tag == "ENT" else -1) for x, tag in make_xor_tagged(10, 1)]
        config = cfg(k=2, learning_rate=1e200, loss="logistic", reg_w=0, reg_v=0, epochs=3)
        with np.errstate(all="ignore"), pytest.raises(ConfigError, match="diverged at epoch 1"):
            train_binary(data, 2, config)

    def test_non_finite_final_parameters_raise(self):
        # the only epoch sees a finite loss; its update overflows w[0] to inf
        data = [(SparseVector([0], [2.0]), 1)]
        config = cfg(k=0, learning_rate=1e308, epochs=1, init_sd=0)
        with np.errstate(all="ignore"), pytest.raises(ConfigError, match="not finite"):
            train_binary(data, 1, config)

    def test_non_finite_parameters_stop_their_epoch(self):
        # epoch 1 overflows w[0] to inf while its mean loss stays 1; the later
        # epochs would see finite losses, so only a per-epoch check stops here
        data = [(SparseVector([0], [2.0]), 1)]
        config = cfg(k=0, learning_rate=1e308, epochs=3, init_sd=0)
        seen = []
        with np.errstate(all="ignore"), pytest.raises(ConfigError, match="epoch 1: .*not finite"):
            train_binary(data, 1, config, on_epoch=lambda e, l: seen.append(e))
        assert seen == []
