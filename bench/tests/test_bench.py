"""Tests of the benchmark itself: corpus generator, span arithmetic, wrapper
restoration and a toy-size run of every workload.

Run from the repository root with ``python -m pytest bench/tests``.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import corpus_gen
import layers
import run as bench_run
from spans import Tracer, self_times, summarize

ROOT = os.path.dirname(bench_run.BENCH_DIR)


def _fake_clock(*ticks):
    it = iter(ticks)
    return lambda: next(it)


class TestCorpusGenerator:
    def test_same_seed_same_bytes(self, tmp_path):
        a = corpus_gen.generate(tmp_path / "a", seed=11, scale=0.03)
        b = corpus_gen.generate(tmp_path / "b", seed=11, scale=0.03)
        assert a == b
        for split in corpus_gen.SPLIT_SENTENCES:
            assert (tmp_path / "a" / f"{split}.txt").read_bytes() == (
                tmp_path / "b" / f"{split}.txt"
            ).read_bytes()

    def test_other_seed_other_corpus(self, tmp_path):
        a = corpus_gen.generate(tmp_path / "a", seed=11, scale=0.03)
        b = corpus_gen.generate(tmp_path / "b", seed=12, scale=0.03)
        assert a["splits"]["train"]["sha256"] != b["splits"]["train"]["sha256"]

    def test_conll_scale_tallies(self, tmp_path):
        record = corpus_gen.generate(tmp_path, seed=0, scale=1.0)
        train = record["splits"]["train"]
        assert train["sentences"] == 14041
        assert 190_000 <= train["tokens"] <= 220_000
        per = train["per_tag"]["PER"]
        assert abs(per["tokens"] - 6516) <= 0.05 * 6516  # criterion-7 reference
        assert abs(per["types"] - 3489) <= 0.05 * 3489
        for kind, mentions in corpus_gen.MENTIONS.items():
            assert abs(train["per_tag"][kind]["tokens"] - mentions) <= 0.08 * mentions

    def test_unknown_filter_keeps_held_out_mentions(self, tmp_path):
        from fmnec import extract_candidates, filter_unknown, parse_column_file

        corpus_gen.generate(tmp_path, seed=5, scale=0.1)
        train = extract_candidates(parse_column_file(tmp_path / "train.txt"))
        dev = extract_candidates(parse_column_file(tmp_path / "dev.txt"))
        kept = filter_unknown(dev, train)
        entities = [c for c in kept if c.gold_tag != "O"]
        assert 0.3 <= len(kept) / len(dev) <= 0.9
        assert {c.gold_tag for c in entities} == set(corpus_gen.TYPES)

    def test_rejects_bad_scale(self, tmp_path):
        with pytest.raises(ValueError):
            corpus_gen.generate(tmp_path, seed=0, scale=0)


class TestSpans:
    def test_self_times_subtract_direct_children(self):
        spans = [
            ("cli.train", 0.0, 10.0, None),
            ("features.fit", 1.0, 4.0, 0),
            ("features.vectorize", 2.0, 3.0, 1),
            ("train.binary", 5.0, 9.0, 0),
        ]
        assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]
        summary = summarize(spans)
        assert summary["wall_s"] == 10.0
        assert summary["layers"] == {"cli": 3.0, "features": 3.0, "train": 4.0}
        assert summary["names"]["features.fit"] == {"calls": 1, "total_s": 3.0}

    def test_self_times_sum_to_root_durations(self):
        tracer = Tracer(clock=_fake_clock(0.0, 1.0, 1.5, 2.5, 3.0, 4.0, 10.0, 10.5))

        def inner():
            return 1

        def outer():
            return tracer.call("b.inner", inner, (), {}) + tracer.call("b.inner", inner, (), {})

        assert tracer.call("a.outer", outer, (), {}) == 2
        assert tracer.call("a.outer", inner, (), {}) == 1
        summary = summarize(tracer.spans)
        assert summary["wall_s"] == 4.5
        assert sum(summary["layers"].values()) == pytest.approx(summary["wall_s"])
        assert summary["names"]["b.inner"]["calls"] == 2
        assert summary["layers"] == pytest.approx({"a": 3.5, "b": 1.0})

    def test_exception_closes_its_span(self):
        tracer = Tracer()

        def boom():
            raise RuntimeError("x")

        with pytest.raises(RuntimeError):
            tracer.call("a.boom", boom, (), {})
        assert tracer.call("a.ok", lambda: 7, (), {}) == 7
        assert [s[3] for s in tracer.spans] == [None, None]

    def test_epoch_durations_follow_marks(self):
        spans = [("train.binary", 1.0, 5.0, None), ("fm.predict_raw", 6.0, 7.0, None)]
        assert layers.epoch_durations(spans, [2.0, 4.5, 6.5]) == [1.0, 2.5]


class TestWrappers:
    def test_install_patches_imported_names_and_restore_undoes_it(self):
        import fmnec.cli
        from fmnec.corpus import parse_column_file
        from fmnec.features import FeatureSpace

        before = layers.snapshot()
        fit = FeatureSpace.__dict__["fit"]
        with Tracer() as tracer:
            layers.install(tracer)
            assert fmnec.cli.parse_column_file is not parse_column_file
            assert fmnec.cli.parse_column_file.__wrapped__ is parse_column_file
            assert FeatureSpace.__dict__["fit"] is not fit
            assert layers.snapshot() != before
        assert layers.snapshot() == before
        assert fmnec.cli.parse_column_file is parse_column_file

    def test_traced_calls_keep_results(self, tmp_path):
        from fmnec import Candidate, FeatureSpace

        cands = [Candidate(["Ann"], ["met"], [], "PER"), Candidate(["Rome"], ["in"], [], "LOC")]
        plain = FeatureSpace.fit(cands)
        with Tracer() as tracer:
            layers.install(tracer)
            traced = FeatureSpace.fit(cands)
            x = traced.vectorize_candidate(cands[0])
        assert traced == plain
        assert x == plain.vectorize_candidate(cands[0])
        assert [s[0] for s in tracer.spans] == ["features.fit", "features.vectorize"]
        assert tracer.maxima["features.space_size"] == len(plain)


def _run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", sorted(bench_run.SIZES))
@pytest.mark.parametrize("trace", [0, 1])
def test_toy_run(workload, trace):
    proc = _run_bench("--workload", workload, "--seed", "3", "--seconds", "0.1",
                      "--trace", str(trace), "--size", "0.2")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0, proc.stderr
    expected = layers.PER_LAYER_UNITS if trace else bench_run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        selfs = sum(metrics[f"{layer}.self_s"] for layer in layers.LAYERS)
        assert selfs == pytest.approx(metrics["trace.wall_s"], rel=1e-9)
    record = json.loads(proc.stdout.strip().splitlines()[-2])["record"]
    assert record["environment"]["pinned_env"]["OPENBLAS_NUM_THREADS"] == "1"
    assert set(record["corpus"]["splits"]) == {"train", "dev", "test"}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(bench_run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = _run_bench("--workload", "pipeline", "--seed", "1", "--seconds", "1",
                      "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert spec["command"] == ["python3", "bench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(bench_run.SIZES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench_run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == layers.PER_LAYER
