"""End-to-end acceptance suite.

Run ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line per
criterion.  Criteria 1 through 6 and 8 are self-contained; criterion 7 needs
a user-supplied CoNLL-2003 copy (set ``CONLL2003_DIR``) and is skipped
otherwise.
"""

import contextlib
import os
import time
from fractions import Fraction

import numpy as np
import pytest

from fmnec import (
    FMModel,
    OvAModel,
    SparseVector,
    TrainConfig,
    evaluate,
    extract_features,
    load_ova_model,
    pr_curve,
    save_ova_model,
    sgd_step,
    train_binary,
    train_ova,
)
from fmnec import Candidate, loss_value
from fmnec.cli import main

from helpers import accuracy, make_xor_split, random_instance, random_model, write_xor_corpus


@contextlib.contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] {name}: FAIL")
        raise
    print(f"[criterion {number}] {name}: PASS")


def test_criterion_1_oracle_equivalence():
    with criterion(1, "factored prediction matches the pairwise oracle"):
        rng = np.random.default_rng(1001)
        started = time.perf_counter()
        for _ in range(1000):
            n = int(rng.integers(1, 201))
            k = int(rng.integers(0, 17))
            model = random_model(rng, n, k)
            x = random_instance(rng, n, min(n, 40))
            fast = model.predict_raw(x)
            naive = model.predict_raw_naive(x)
            assert abs(fast - naive) <= 1e-9 * (1 + abs(naive))
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0, f"oracle sweep took {elapsed:.1f}s"


def test_criterion_1_batch_scoring_matches_oracle():
    with criterion(1, "batch one-vs-all scores match the pairwise oracle"):
        rng = np.random.default_rng(1011)
        for _ in range(5):
            n = int(rng.integers(1, 201))
            k = int(rng.integers(0, 17))
            labels = sorted({f"tag{int(v):02d}" for v in rng.integers(0, 20, size=4)})
            model = OvAModel(labels, [random_model(rng, n, k) for _ in labels])
            xs = [random_instance(rng, n, min(n, 40)) for _ in range(200)]
            xs += [SparseVector.empty(), SparseVector.empty()]
            xs += [random_instance(rng, n, 1, min_nnz=1) for _ in range(20)]
            order = rng.permutation(len(xs))
            xs = [xs[i] for i in order]

            scores = model.predict_scores(xs)
            assert scores.shape == (len(xs), len(labels))
            naive = np.array([[m.predict_raw_naive(x) for m in model.models] for x in xs])
            assert np.all(np.abs(scores - naive) <= 1e-9 * (1 + np.abs(naive)))

            # per-row argmax; ties go to the lexicographically smallest tag
            expected = [
                min(lab for lab, s in zip(labels, row) if s == max(row))
                for row in scores.tolist()
            ]
            assert model.predict_label(xs) == expected


def test_criterion_2_gradient_checks():
    with criterion(2, "analytic gradients match central finite differences"):
        rng = np.random.default_rng(1002)
        started = time.perf_counter()
        # lr=1 and zero decay turn the sgd_step parameter delta into the gradient
        config = TrainConfig(
            k=3, learning_rate=1.0, reg_w=0.0, reg_v=0.0,
            epochs=1, init_sd=0.1, seed=0,
        )
        checked = 0
        while checked < 100:
            model = random_model(rng, 12, 3)
            x = random_instance(rng, 12, 6, min_nnz=1)
            y = int(rng.choice([-1, 1]))
            if abs(1.0 - y * model.predict_raw(x)) <= 1e-3:
                continue  # skip points near the hinge kink
            checked += 1
            before = model.copy()
            sgd_step(model, (x, y), config)

            def finite_difference(mutate):
                h = 1e-6

                def loss_at(delta):
                    probe = before.copy()
                    mutate(probe, delta)
                    return loss_value("hinge", probe.predict_raw(x), y)

                return (loss_at(h) - loss_at(-h)) / (2 * h)

            def check(analytic, mutate):
                fd = finite_difference(mutate)
                assert abs(analytic - fd) <= 1e-5 * (1 + abs(fd))

            check(before.w0 - model.w0, lambda p, d: setattr(p, "w0", p.w0 + d))
            for i in x.indices.tolist():
                check(before.w[i] - model.w[i],
                      lambda p, d, i=i: p.w.__setitem__(i, p.w[i] + d))
                for f in range(config.k):
                    check(before.V[i, f] - model.V[i, f],
                          lambda p, d, i=i, f=f: p.V.__setitem__((i, f), p.V[i, f] + d))
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"gradient checks took {elapsed:.1f}s"


def test_criterion_3_combinatorial_feature_separation():
    with criterion(3, "factorized interactions solve noisy XOR, linear models do not"):
        started = time.perf_counter()
        train, test = make_xor_split(seed=7, copies=250, noise=0.1, split=0.8)

        def run(k, seed):
            config = TrainConfig(
                k=k, learning_rate=0.01, reg_w=1e-3, reg_v=1e-3,
                epochs=200, init_sd=0.1, seed=seed,
            )
            return accuracy(train_binary(train, 2, config), test)

        factorized = [run(4, seed) for seed in range(5)]
        linear = [run(0, seed) for seed in range(5)]
        assert sum(a >= 0.85 for a in factorized) >= 3, factorized
        assert all(a <= 0.65 for a in linear), linear
        elapsed = time.perf_counter() - started
        assert elapsed < 60.0, f"XOR fixture took {elapsed:.1f}s"


def test_criterion_4_metric_correctness():
    with criterion(4, "evaluation matches hand-computed rational scores exactly"):
        gold = ["PER", "PER", "LOC", "O", "ORG", "MISC", "PER", "O", "LOC", "ORG"]
        pred = ["PER", "LOC", "LOC", "GPE", "ORG", "O", "PER", "O", "PER", "MISC"]
        report = evaluate(gold, pred)

        expected = {
            # tag: (correct/predicted, correct/gold, 2*correct/(predicted+gold))
            "PER": (Fraction(2, 3), Fraction(2, 3), Fraction(4, 6)),
            "LOC": (Fraction(1, 2), Fraction(1, 2), Fraction(2, 4)),
            "ORG": (Fraction(1, 1), Fraction(1, 2), Fraction(2, 3)),
            "MISC": (Fraction(0), Fraction(0), Fraction(0)),
            "GPE": (Fraction(0), Fraction(0), Fraction(0)),  # recall is 0/0 -> 0
        }
        assert set(report.per_tag) == set(expected)
        for tag, (p, r, f1) in expected.items():
            scores = report.per_tag[tag]
            assert scores.precision == float(p), tag
            assert scores.recall == float(r), tag
            assert scores.f1 == float(f1), tag
        # micro: 4 correct of 8 non-O predictions and 8 non-O golds
        assert report.micro.precision == float(Fraction(4, 8))
        assert report.micro.recall == float(Fraction(4, 8))
        assert report.micro.f1 == float(Fraction(8, 16))
        # confusion matrix row sums are the gold counts
        for i, tag in enumerate(report.labels):
            assert int(report.confusion[i].sum()) == gold.count(tag)


def test_criterion_5_end_to_end_determinism(tmp_path):
    with criterion(5, "two identical pipeline runs produce byte-identical files"):
        train_path = tmp_path / "train.txt"
        test_path = tmp_path / "test.txt"
        next_id = write_xor_corpus(train_path, copies=60, noise=0.1, seed=17)
        write_xor_corpus(test_path, copies=15, noise=0.1, seed=18, start_id=next_id)

        def run(root):
            prepared = root / "prepared"
            modeldir = root / "model"
            evaldir = root / "eval"
            assert main([
                "prepare", "--train", str(train_path), "--test", str(test_path),
                "--out", str(prepared),
            ]) == 0
            assert main([
                "train", "--candidates", str(prepared / "train.candidates.tsv"),
                "--k", "2", "--epochs", "20", "--lr", "0.02",
                "--reg-w", "0.001", "--reg-v", "0.001", "--seed", "9",
                "--out", str(modeldir),
            ]) == 0
            assert main([
                "eval", "--model", str(modeldir / "ova_model.txt"),
                "--space", str(modeldir / "feature_space.txt"),
                "--candidates", str(prepared / "test.candidates.tsv"),
                "--pr-curves", "--out", str(evaldir),
            ]) == 0
            return [
                prepared / "train.candidates.tsv",
                prepared / "test.candidates.tsv",
                modeldir / "ova_model.txt",
                modeldir / "feature_space.txt",
                evaldir / "report.txt",
                evaldir / "report.tsv",
                evaldir / "confusion.tsv",
                evaldir / "pr_PER.tsv",
            ]

        first = run(tmp_path / "run_a")
        second = run(tmp_path / "run_b")
        for a, b in zip(first, second):
            assert a.read_bytes() == b.read_bytes(), a.name


def test_criterion_6_serialization_round_trip(tmp_path):
    with criterion(6, "saved and loaded models predict bit-identically"):
        rng = np.random.default_rng(1006)
        labels = ["LOC", "MISC", "O", "ORG", "PER"]
        members = [random_model(rng, 60, 7) for _ in labels]
        model = OvAModel(labels, members)
        path = tmp_path / "ova_model.txt"
        save_ova_model(model, path)
        loaded = load_ova_model(path)
        assert loaded == model
        xs = [random_instance(rng, 60, 20) for _ in range(100)]
        assert np.array_equal(loaded.predict_scores(xs), model.predict_scores(xs))
        assert loaded.predict_label(xs) == model.predict_label(xs)


def _find_conll_files(root):
    for names in (("eng.train", "eng.testa", "eng.testb"),
                  ("train.txt", "valid.txt", "test.txt")):
        paths = [os.path.join(root, name) for name in names]
        if all(os.path.isfile(p) for p in paths):
            return paths
    return None


@pytest.mark.skipif(
    not os.environ.get("CONLL2003_DIR"),
    reason="set CONLL2003_DIR to a directory with the CoNLL-2003 English files "
    "(eng.train/eng.testa/eng.testb or train.txt/valid.txt/test.txt)",
)
def test_criterion_7_conll2003_reproduction():
    from fmnec import FeatureSpace, extract_candidates, filter_unknown, parse_column_file, sweep_k

    paths = _find_conll_files(os.environ["CONLL2003_DIR"])
    if paths is None:
        pytest.skip("CONLL2003_DIR does not contain the expected files")
    with criterion(7, "full-corpus reproduction lands near the reference scores"):
        train_path, dev_path, test_path = paths
        train_cands = extract_candidates(parse_column_file(train_path, 0, -1))
        dev_cands = filter_unknown(
            extract_candidates(parse_column_file(dev_path, 0, -1)), train_cands
        )
        test_cands = filter_unknown(
            extract_candidates(parse_column_file(test_path, 0, -1)), train_cands
        )

        # candidate counts should approximate the reference tallies; the
        # non-entity heuristic is documented as approximate, so only the
        # PER targets are asserted (within 5 percent)
        from fmnec import corpus_stats, format_stats_table

        stats = {
            "training": corpus_stats(train_cands),
            "dev": corpus_stats(dev_cands),
            "test": corpus_stats(test_cands),
        }
        print()
        print(format_stats_table(stats))
        train_per = stats["training"].per_tag["PER"]
        assert abs(train_per.tokens - 6516) <= 0.05 * 6516
        assert abs(train_per.types - 3489) <= 0.05 * 3489
        dev_per = stats["dev"].per_tag["PER"]
        assert abs(dev_per.tokens - 1040) <= 0.05 * 1040

        space = FeatureSpace.fit(train_cands)
        train = [(space.vectorize_candidate(c), c.gold_tag) for c in train_cands]
        dev = [(space.vectorize_candidate(c), c.gold_tag) for c in dev_cands]
        test = [(space.vectorize_candidate(c), c.gold_tag) for c in test_cands]
        config = TrainConfig()  # the documented defaults: k=5, lr=0.05, reg 1e-4, 100 epochs

        model = train_ova(train, len(space), config)
        pred = model.predict_label([x for x, _ in test])
        micro_f1 = 100.0 * evaluate([t for _, t in test], pred).micro.f1
        print(f"  test micro F1 = {micro_f1:.2f}")
        assert abs(micro_f1 - 57.27) <= 3.0

        results = sweep_k(train, dev, len(space), [0, 2, 5, 8], config)
        best_k, best_f1 = max(results, key=lambda kv: kv[1])
        print(f"  dev sweep: {[(k, round(100 * f, 2)) for k, f in results]}")
        assert best_k in (2, 5, 8)  # interactions must beat the linear model
        assert abs(100.0 * best_f1 - 57.1) <= 3.0


def test_criterion_8_invariant_suite():
    with criterion(8, "randomized invariants hold"):
        rng = np.random.default_rng(1008)

        # featurizer: one feature per binary template, one count bucket, dummy on
        alphabet = list("abcdefgABCDEFG0123456789..--''")
        def token():
            length = int(rng.integers(1, 7))
            return "".join(rng.choice(alphabet, size=length))

        for _ in range(300):
            candidate = Candidate(
                [token() for _ in range(int(rng.integers(1, 4)))],
                [token() for _ in range(int(rng.integers(0, 4)))],
                [token() for _ in range(int(rng.integers(0, 4)))],
            )
            feats = extract_features(candidate)
            for prefix in ("cap=", "all-low=", "all-cap1=", "all-cap2="):
                hits = {f for f in feats if f.startswith(prefix)}
                assert len(hits) == 1 and hits <= {prefix + "0", prefix + "1"}
            assert len({f for f in feats if f.startswith("num-tokens")}) == 1
            assert "dummy" in feats
            if "all-cap1=1" in feats:
                assert "all-cap2=1" in feats

        # PR curves: recall never decreases along the ranking
        for _ in range(200):
            size = int(rng.integers(1, 60))
            scores = [(float(rng.normal()), bool(rng.random() < 0.3)) for _ in range(size)]
            if not any(flag for _, flag in scores):
                scores[int(rng.integers(0, size))] = (float(rng.normal()), True)
            recalls = [r for _, r in pr_curve(scores)]
            assert all(b >= a for a, b in zip(recalls, recalls[1:]))

        # interaction weights: exact symmetry
        for _ in range(100):
            n = int(rng.integers(1, 30))
            model = random_model(rng, n, int(rng.integers(0, 6)))
            i, j = (int(v) for v in rng.integers(0, n, size=2))
            assert model.interaction_weight(i, j) == model.interaction_weight(j, i)

        # one-vs-all ties: always the lexicographically smallest of the argmax set
        for _ in range(200):
            count = int(rng.integers(2, 7))
            labels = sorted({f"tag{int(v):03d}" for v in rng.integers(0, 50, size=count)})
            biases = [float(b) for b in rng.normal(size=len(labels))]
            top = max(biases)
            tied = [i for i in range(len(labels)) if rng.random() < 0.5]
            for i in tied:
                biases[i] = top
            model = OvAModel(
                labels,
                [FMModel(b, np.zeros(0), np.zeros((0, 0))) for b in biases],
            )
            winners = [lab for lab, b in zip(labels, biases) if b == top]
            assert model.predict_label([SparseVector.empty()]) == [min(winners)]
