import math

import numpy as np
import pytest

from fmnec import (
    ConfigError,
    DimensionMismatchError,
    FMModel,
    LabeledInstance,
    SparseVector,
    TrainConfig,
    init_model,
    loss_value,
    sgd_step,
    train_binary,
)

from helpers import accuracy, make_xor_tagged, random_instance, random_model, xor_clean_instances


def cfg(**kwargs):
    defaults = dict(k=2, learning_rate=0.1, reg_w=0.0, reg_v=0.0, epochs=1, init_sd=0.1, seed=0)
    defaults.update(kwargs)
    return TrainConfig(**defaults)


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
        ],
    )
    def test_rejects_invalid(self, bad):
        with pytest.raises(ConfigError):
            cfg(**bad)

    def test_label_validation(self):
        with pytest.raises(ValueError):
            LabeledInstance(SparseVector.empty(), 0)


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

    def test_rejects_bad_label(self):
        with pytest.raises(ValueError):
            loss_value("hinge", 0.0, 2)


class TestSgdStep:
    def test_hand_example(self):
        # margin violated: w0 and w move by lr, factor gradient is exactly zero
        m = FMModel(0.0, [0.0], [[0.1]])
        sgd_step(m, LabeledInstance(SparseVector([0], [1.0]), 1), cfg(k=1, learning_rate=0.1))
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
        sgd_step(m, LabeledInstance(x, y), cfg(k=3))
        assert m == before

    def test_locality(self):
        rng = np.random.default_rng(1)
        m = random_model(rng, 12, 3)
        before = m.copy()
        x = SparseVector([2, 7], [1.0, -1.5])
        sgd_step(m, LabeledInstance(x, 1), cfg(k=3, reg_w=0.01, reg_v=0.01))
        untouched = [i for i in range(12) if i not in (2, 7)]
        assert np.array_equal(m.w[untouched], before.w[untouched])
        assert np.array_equal(m.V[untouched], before.V[untouched])

    def test_dimension_mismatch(self):
        m = FMModel(0.0, [0.0], [[0.0]])
        with pytest.raises(DimensionMismatchError):
            sgd_step(m, LabeledInstance(SparseVector([5], [1.0]), 1), cfg())

    def test_gradients_match_finite_differences(self):
        # analytic gradient recovered from the parameter delta at lr=1, no decay
        rng = np.random.default_rng(2)
        step_cfg = cfg(k=3, learning_rate=1.0)
        checked = 0
        while checked < 30:
            model = random_model(rng, 10, 3)
            x = random_instance(rng, 10, 5, min_nnz=1)
            y = int(rng.choice([-1, 1]))
            if abs(1.0 - y * model.predict_raw(x)) <= 1e-3:
                continue
            checked += 1
            before = model.copy()
            sgd_step(model, LabeledInstance(x, y), step_cfg)

            def numeric(mutate):
                h = 1e-6

                def loss_at(delta):
                    probe = before.copy()
                    mutate(probe, delta)
                    return loss_value("hinge", probe.predict_raw(x), y)

                return (loss_at(h) - loss_at(-h)) / (2 * h)

            def check(analytic, mutate):
                fd = numeric(mutate)
                assert abs(analytic - fd) <= 1e-5 * (1 + abs(fd))

            check(before.w0 - model.w0, lambda p, d: setattr(p, "w0", p.w0 + d))
            for i in x.indices.tolist():
                check(before.w[i] - model.w[i], lambda p, d, i=i: p.w.__setitem__(i, p.w[i] + d))
                for f in range(3):
                    check(
                        before.V[i, f] - model.V[i, f],
                        lambda p, d, i=i, f=f: p.V.__setitem__((i, f), p.V[i, f] + d),
                    )

    def test_logistic_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        step_cfg = cfg(k=2, learning_rate=1.0, loss="logistic")
        for _ in range(10):
            model = random_model(rng, 8, 2)
            x = random_instance(rng, 8, 4, min_nnz=2)
            y = int(rng.choice([-1, 1]))
            before = model.copy()
            sgd_step(model, LabeledInstance(x, y), step_cfg)
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


class TestTrainBinary:
    def test_separable_pair(self):
        data = [
            LabeledInstance(SparseVector([0], [1.0]), 1),
            LabeledInstance(SparseVector([1], [1.0]), -1),
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
        data = [LabeledInstance(random_instance(rng, 10, 5), int(rng.choice([-1, 1]))) for _ in range(30)]
        config = cfg(k=3, epochs=5, reg_w=1e-4, reg_v=1e-4, seed=11)
        assert train_binary(data, 10, config) == train_binary(data, 10, config)

    def test_learning_progress(self):
        rng = np.random.default_rng(6)
        data = [LabeledInstance(random_instance(rng, 15, 6, min_nnz=1), int(rng.choice([-1, 1]))) for _ in range(50)]
        config = cfg(k=3, learning_rate=0.05, epochs=30, reg_w=1e-4, reg_v=1e-4, seed=2)

        def regularized_mean_loss(model):
            data_term = np.mean([loss_value("hinge", model.predict_raw(i.x), i.y) for i in data])
            penalty = 0.5 * (
                config.reg_w * float(model.w @ model.w)
                + config.reg_v * float((model.V * model.V).sum())
            )
            return data_term + penalty

        before = regularized_mean_loss(init_model(15, config))
        after = regularized_mean_loss(train_binary(data, 15, config))
        assert after <= before

    def test_epoch_callback_reports_mean_loss(self):
        data = [LabeledInstance(SparseVector([0], [1.0]), 1)]
        seen = []
        train_binary(data, 1, cfg(k=0, epochs=3, init_sd=0), on_epoch=lambda e, l: seen.append((e, l)))
        assert [e for e, _ in seen] == [0, 1, 2]
        assert seen[0][1] == pytest.approx(1.0)  # first pass sees the untrained score 0

    def test_empty_dataset_rejected(self):
        with pytest.raises(ConfigError):
            train_binary([], 3, cfg())

    def test_out_of_range_index_rejected(self):
        data = [LabeledInstance(SparseVector([9], [1.0]), 1)]
        with pytest.raises(DimensionMismatchError):
            train_binary(data, 3, cfg())

    def test_divergent_loss_raises(self):
        data = [LabeledInstance(x, 1 if tag == "ENT" else -1) for x, tag in make_xor_tagged(10, 1)]
        config = cfg(k=2, learning_rate=50, loss="logistic", reg_w=10, reg_v=10, epochs=3)
        with np.errstate(all="ignore"), pytest.raises(ConfigError, match="diverged at epoch 3"):
            train_binary(data, 2, config)

    def test_non_finite_final_parameters_raise(self):
        # the only epoch sees a finite loss; its update overflows w[0] to inf
        data = [LabeledInstance(SparseVector([0], [2.0]), 1)]
        config = cfg(k=0, learning_rate=1e308, epochs=1, init_sd=0)
        with np.errstate(all="ignore"), pytest.raises(ConfigError, match="not finite"):
            train_binary(data, 1, config)
