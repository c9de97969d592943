import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fmnec import (
    ConfigError,
    DimensionMismatchError,
    OvAModel,
    SparseVector,
    TrainConfig,
    evaluate,
    multiclass,
    pr_curve,
    sweep_k,
)
from fmnec.fm import _Batch
from fmnec.evaluate import (
    format_confusion_tsv,
    format_pr_curve_tsv,
    format_report,
    format_report_tsv,
    format_sweep_tsv,
)

from helpers import make_xor_tagged, usable_cpus


class TestEvaluate:
    def test_micro_hand_example(self):
        report = evaluate(["PER", "LOC", "O"], ["PER", "O", "LOC"])
        assert report.micro.precision == 0.5
        assert report.micro.recall == 0.5
        assert report.micro.f1 == 0.5

    def test_perfect_prediction(self):
        gold = ["PER", "LOC", "O", "MISC"]
        report = evaluate(gold, list(gold))
        assert report.micro == report.micro.__class__(1.0, 1.0, 1.0)
        for scores in report.per_tag.values():
            assert (scores.precision, scores.recall, scores.f1) == (1.0, 1.0, 1.0)

    def test_all_o_prediction_hits_zero_zero_rule(self):
        report = evaluate(["PER", "O", "LOC"], ["O", "O", "O"])
        assert report.micro.precision == 0.0  # 0/0 defined as 0
        assert report.micro.recall == 0.0
        assert report.micro.f1 == 0.0

    def test_per_tag_counts(self):
        gold = ["PER", "PER", "LOC", "O"]
        pred = ["PER", "LOC", "LOC", "PER"]
        report = evaluate(gold, pred)
        per = report.per_tag["PER"]
        assert per.precision == 1 / 2  # 1 of 2 PER predictions correct
        assert per.recall == 1 / 2  # 1 of 2 PER golds found
        loc = report.per_tag["LOC"]
        assert loc.precision == 1 / 2
        assert loc.recall == 1.0

    def test_confusion_row_sums_are_gold_counts(self):
        gold = ["A", "B", "A", "O", "B", "B"]
        pred = ["B", "B", "A", "A", "O", "B"]
        report = evaluate(gold, pred)
        for i, tag in enumerate(report.labels):
            assert report.confusion[i].sum() == gold.count(tag)
        assert report.confusion.sum() == len(gold)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(0)
        tags = ["PER", "LOC", "ORG", "O"]
        gold = [tags[i] for i in rng.integers(0, 4, size=40)]
        pred = [tags[i] for i in rng.integers(0, 4, size=40)]
        base = evaluate(gold, pred)
        order = rng.permutation(40)
        shuffled = evaluate([gold[i] for i in order], [pred[i] for i in order])
        assert base.micro == shuffled.micro
        assert base.per_tag == shuffled.per_tag
        assert np.array_equal(base.confusion, shuffled.confusion)

    def test_micro_precision_equals_recall_when_counts_match(self):
        rng = np.random.default_rng(1)
        tags = ["A", "B", "O"]
        for _ in range(20):
            gold = [tags[i] for i in rng.integers(0, 3, size=30)]
            pred = list(gold)
            rng.shuffle(pred)  # same multiset, so non-O counts match
            report = evaluate(gold, pred)
            assert report.micro.precision == report.micro.recall

    def test_f1_consistent_with_definition(self):
        report = evaluate(["A", "A", "B", "O"], ["A", "B", "B", "A"])
        for scores in [*report.per_tag.values(), report.micro]:
            p, r = scores.precision, scores.recall
            expected = 2 * p * r / (p + r) if p + r else 0.0
            assert scores.f1 == pytest.approx(expected, abs=1e-12)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            evaluate(["A"], ["A", "B"])

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            evaluate([], [])

    @pytest.mark.parametrize("gold, pred", [
        ([None], ["PER"]),
        (["PER"], [None]),
        (["PER", 1], ["PER", "O"]),
    ], ids=["missing-gold", "missing-pred", "int-gold"])
    def test_non_string_tag_rejected(self, gold, pred):
        with pytest.raises(ConfigError, match="^every gold and predicted tag must be a string$"):
            evaluate(gold, pred)


class TestPrCurve:
    def test_single_positive(self):
        assert pr_curve([(0.3, True)]) == [(1.0, 1.0)]

    def test_hand_example(self):
        points = pr_curve([(0.9, True), (0.8, False), (0.7, True)])
        assert points == [(1.0, 0.5), (0.5, 0.5), (2 / 3, 1.0)]

    def test_perfect_ranking_reaches_top_right(self):
        points = pr_curve([(0.9, True), (0.8, True), (0.1, False)])
        assert (1.0, 1.0) in points
        assert points[1] == (1.0, 1.0)

    def test_ties_keep_input_order(self):
        points = pr_curve([(0.5, False), (0.5, True)])
        assert points[0] == (0.0, 0.0)  # the tied negative came first

    def test_recall_non_decreasing(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            n = int(rng.integers(1, 50))
            scores = [(float(rng.normal()), bool(rng.random() < 0.4)) for _ in range(n)]
            if not any(flag for _, flag in scores):
                scores[0] = (scores[0][0], True)
            recalls = [r for _, r in pr_curve(scores)]
            assert all(b >= a for a, b in zip(recalls, recalls[1:]))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from([-1.0, 0.0, 0.5, 2.0, float("inf"), -float("inf")]),
                              st.booleans()), min_size=1, max_size=40))
    def test_same_points_as_a_prefix_loop(self, scores):
        assume(any(flag for _, flag in scores))
        ranked = sorted(range(len(scores)), key=lambda i: -scores[i][0])
        total = sum(flag for _, flag in scores)
        expected, tp = [], 0
        for depth, i in enumerate(ranked, 1):
            tp += scores[i][1]
            expected.append((tp / depth, tp / total))
        points = pr_curve(scores)
        assert points == expected
        assert all(type(v) is float for point in points for v in point)
        assert format_pr_curve_tsv(points) == "recall\tprecision\n" + "".join(
            f"{100.0 * r:.2f}\t{100.0 * p:.2f}\n" for p, r in expected
        )

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.floats(allow_nan=False, allow_infinity=False, width=16)
                              | st.just(-0.0), st.booleans()), min_size=1, max_size=60))
    def test_ranks_finite_scores_as_a_stable_sort_of_their_negations(self, scores):
        # few distinct half-precision values, so many scores tie; -0.0 ties with 0.0
        assume(any(flag for _, flag in scores))
        ranked = sorted(range(len(scores)), key=lambda i: -scores[i][0])
        tp = np.cumsum([scores[i][1] for i in ranked]).tolist()
        total = sum(flag for _, flag in scores)
        assert pr_curve(scores) == [(t / depth, t / total) for depth, t in enumerate(tp, 1)]

    def test_no_positives_rejected(self):
        with pytest.raises(ConfigError):
            pr_curve([(0.5, False)])


class TestSweepK:
    def setup_method(self):
        self.train = make_xor_tagged(copies=40, seed=1)
        self.dev = make_xor_tagged(copies=10, seed=2)
        self.config = TrainConfig(
            k=0, learning_rate=0.05, reg_w=0.0, reg_v=0.0, epochs=150, init_sd=0.1, seed=5
        )

    def test_linear_below_factorized_on_xor(self):
        results = dict(sweep_k(self.train, self.dev, 2, [0, 4], self.config))
        assert results[0] < results[4]

    def test_deterministic(self):
        a = sweep_k(self.train, self.dev, 2, [0, 2], self.config)
        b = sweep_k(self.train, self.dev, 2, [0, 2], self.config)
        assert a == b

    def test_result_per_k_in_input_order(self):
        results = sweep_k(self.train, self.dev, 2, [2, 0], self.config)
        assert [k for k, _ in results] == [2, 0]

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_each_scored_k_is_freed_before_the_next_is_built(self, monkeypatch, cpus):
        # a scored model kept alive while the next k's models arrive raises the peak memory
        built = []
        real = OvAModel.__post_init__

        def post_init(model):
            real(model)
            assert [ref() for ref in built] == [None] * len(built), "a scored k is still alive"
            built.append(weakref.ref(model))

        monkeypatch.setattr(OvAModel, "__post_init__", post_init)
        usable_cpus(monkeypatch, cpus)
        sweep_k(self.train, self.dev, 2, [0, 2, 4], replace(self.config, epochs=2))
        assert len(built) == 3

    def test_dev_set_is_stacked_once_and_may_come_stacked(self, monkeypatch):
        config = replace(self.config, epochs=20)
        scored = []
        real = OvAModel.predict_label

        def predict_label(model, xs):
            scored.append(xs)
            return real(model, xs)

        monkeypatch.setattr(OvAModel, "predict_label", predict_label)
        results = sweep_k(self.train, self.dev, 2, [0, 2, 4], config)
        assert len(scored) == 3 and all(xs is scored[0] for xs in scored)
        assert isinstance(scored[0], _Batch)
        xs = [x for x, _ in self.dev]
        batch = _Batch(np.array([x.nnz for x in xs]), np.concatenate([x.indices for x in xs]),
                       labels=[tag for _, tag in self.dev])
        stacked = sweep_k(self.train, batch, 2, [0, 2, 4], config)
        assert stacked == results
        assert len(scored) == 6 and all(xs is batch for xs in scored[3:])

    def test_rejects_empty_and_negative(self):
        with pytest.raises(ConfigError):
            sweep_k(self.train, self.dev, 2, [], self.config)
        with pytest.raises(ConfigError):
            sweep_k(self.train, self.dev, 2, [-1], self.config)

    @pytest.mark.parametrize("k", [2.5, "3"])
    def test_rejects_a_non_integer_k(self, k):
        with pytest.raises(ConfigError, match="^k must be an integer$"):
            sweep_k(self.train, self.dev, 2, [0, k], self.config)

    @pytest.mark.parametrize("dev, error, message", [
        ([], ConfigError, "nothing to evaluate"),
        ([(x, tag if i else None) for i, (x, tag) in enumerate(make_xor_tagged(2, 3))],
         ConfigError, "every dev instance needs a gold tag"),
        ([*make_xor_tagged(2, 3), (SparseVector([1, 5], [1.0, 1.0]), "O")],
         DimensionMismatchError, "feature index 5 out of range for n=2"),
    ], ids=["empty", "a row without a tag", "an index out of range"])
    def test_unusable_dev_set_is_refused_before_any_training(self, monkeypatch, forks, dev,
                                                             error, message):
        def train_labels(data, n, config, *args, **kwargs):
            raise AssertionError(f"the job of k={config.k} started")

        monkeypatch.setattr(multiclass, "_train_labels", train_labels)
        usable_cpus(monkeypatch, 2)
        with pytest.raises(error, match=f"^{message}$"):
            sweep_k(make_xor_tagged(5, 1), dev, 2, [0, 2, 4], replace(self.config, epochs=1))
        assert forks == []

    @pytest.mark.parametrize("k", [2**28 - 1, 2**28, 2**40])
    def test_no_features_and_a_huge_k_allocate_nothing(self, k):
        # with no rows in V there is no factor work, so nothing of size k is built
        data = [(SparseVector.empty(), "A"), (SparseVector.empty(), "B")]
        tracemalloc.start()
        try:
            assert sweep_k(data, data[:1], 0, [k], TrainConfig(epochs=1)) == [(k, 1.0)]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestFormatting:
    def make_report(self):
        return evaluate(["PER", "LOC", "O"], ["PER", "O", "LOC"])

    def test_report_table_has_micro_row(self):
        text = format_report(self.make_report())
        assert "micro" in text
        assert "50.00" in text
        assert "confusion matrix" in text

    def test_report_tsv(self):
        lines = format_report_tsv(self.make_report()).splitlines()
        assert lines[0] == "tag\tprecision\trecall\tf1"
        assert lines[-1] == "micro\t50.00\t50.00\t50.00"

    def test_confusion_tsv_shape(self):
        report = self.make_report()
        lines = format_confusion_tsv(report).splitlines()
        assert len(lines) == len(report.labels) + 1
        assert lines[0].split("\t")[1:] == report.labels

    def test_report_bytes(self):
        report = self.make_report()
        assert format_report(report) == (
            "tag         P       R      F1\n"
            "LOC      0.00    0.00    0.00\n"
            "PER    100.00  100.00  100.00\n"
            "micro   50.00   50.00   50.00\n"
            "\n"
            "confusion matrix (rows: gold, columns: predicted)\n"
            "     LOC  O  PER\n"
            "LOC    0  1    0\n"
            "O      1  0    0\n"
            "PER    0  0    1"
        )
        assert format_report_tsv(report) == (
            "tag\tprecision\trecall\tf1\n"
            "LOC\t0.00\t0.00\t0.00\n"
            "PER\t100.00\t100.00\t100.00\n"
            "micro\t50.00\t50.00\t50.00\n"
        )
        assert format_confusion_tsv(report) == (
            "gold\\pred\tLOC\tO\tPER\n"
            "LOC\t0\t1\t0\n"
            "O\t1\t0\t0\n"
            "PER\t0\t0\t1\n"
        )

    def test_pr_curve_tsv(self):
        lines = format_pr_curve_tsv([(1.0, 0.5), (0.5, 0.5)]).splitlines()
        assert lines[0] == "recall\tprecision"
        assert lines[1] == "50.00\t100.00"

    def test_sweep_tsv(self):
        lines = format_sweep_tsv([(0, 0.5), (5, 0.912)]).splitlines()
        assert lines == ["k\tmicro_f1", "0\t50.00", "5\t91.20"]
