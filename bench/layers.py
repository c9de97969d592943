"""Which fmnec functions the traced run wraps, and the per-layer metrics.

Layers are the package modules.  Each wrapped public function records a
span named ``<module>.<operation>``; the command itself is a root span
``cli.<command>`` around ``fmnec.cli.main``.  ``sparse_text`` is absent:
the pipeline never calls it.
"""

from __future__ import annotations

import importlib
import os
import statistics
import sys

from spans import Tracer, summarize

LAYERS = ("cli", "corpus", "features", "fm", "train", "multiclass", "evaluate")
COMMANDS = ("prepare", "train", "eval", "predict", "sweep_k")

# metric -> span name whose inclusive seconds (summed over calls) it reports
SPAN_TOTALS = {
    "corpus.parse_s": "corpus.parse",
    "corpus.extract_s": "corpus.extract",
    "corpus.filter_s": "corpus.filter",
    "corpus.stats_s": "corpus.stats",
    "corpus.write_tsv_s": "corpus.write_tsv",
    "corpus.read_tsv_s": "corpus.read_tsv",
    "features.fit_s": "features.fit",
    "features.vectorize_s": "features.vectorize",
    "features.save_s": "features.save",
    "features.load_s": "features.load",
    "fm.predict_raw_s": "fm.predict_raw",
    "train.binary_s": "train.binary",
    "multiclass.train_ova_s": "multiclass.train_ova",
    "multiclass.score_s": "multiclass.score",
    "multiclass.save_s": "multiclass.save",
    "multiclass.load_s": "multiclass.load",
    "evaluate.evaluate_s": "evaluate.evaluate",
    "evaluate.pr_curve_s": "evaluate.pr_curve",
    "evaluate.sweep_k_s": "evaluate.sweep_k",
    **{f"cli.{command}_s": f"cli.{command}" for command in COMMANDS},
}

# every per-layer metric: name -> (unit, which direction is better)
PER_LAYER = {
    **{name: ("s", "lower") for name in SPAN_TOTALS},
    **{f"{layer}.self_s": ("s", "lower") for layer in LAYERS},
    "corpus.tokens": ("count", "higher"),
    "corpus.candidates": ("count", "higher"),
    "corpus.filter_kept_ratio": ("ratio", "higher"),
    "features.vectorize_us": ("us", "lower"),
    "features.space_size": ("count", "higher"),
    "features.nnz_mean": ("count", "lower"),
    "features.nnz_max": ("count", "lower"),
    "features.unknown_rate": ("ratio", "lower"),
    "fm.predict_raw_calls": ("count", "lower"),
    "train.epoch_s": ("s", "lower"),
    "train.update_us": ("us", "lower"),
    "train.updates": ("count", "higher"),
    "multiclass.score_us": ("us", "lower"),
    "multiclass.model_bytes": ("bytes", "lower"),
    "micro_f1.k0": ("%", "higher"),
    "micro_f1.k5": ("%", "higher"),
    "micro_f1.k16": ("%", "higher"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}
PER_LAYER_UNITS = {name: unit for name, (unit, _) in PER_LAYER.items()}


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer the pipeline calls."""
    # by module path: the package re-exports a function named ``evaluate``
    corpus, evaluate, multiclass, train = (
        importlib.import_module(f"fmnec.{name}")
        for name in ("corpus", "evaluate", "multiclass", "train")
    )
    from fmnec.features import FeatureSpace
    from fmnec.fm import FMModel
    from fmnec.multiclass import OvAModel

    count = tracer.count

    def tokens(args, kwargs, sentences):
        count("corpus.tokens", sum(len(s.tokens) for s in sentences))

    def kept(args, kwargs, result):
        count("corpus.filter_in", len(args[0]))
        count("corpus.filter_kept", len(result))

    def nnz(args, kwargs, x):
        count("features.nnz", x.nnz)
        tracer.peak("features.nnz_max", x.nnz)

    def stamp_epochs(args, kwargs):
        # stamp the end of every epoch, then hand over to the caller's callback
        user = args[3] if len(args) > 3 else kwargs.get("on_epoch")

        def on_epoch(epoch, mean_loss):
            tracer.epoch_marks.append(tracer.clock())
            if user is not None:
                user(epoch, mean_loss)

        if len(args) > 3:
            return (*args[:3], on_epoch, *args[4:]), kwargs
        return args, {**kwargs, "on_epoch": on_epoch}

    def updates(args, kwargs, model):
        config = args[2] if len(args) > 2 else kwargs["config"]
        count("train.updates", len(args[0]) * config.epochs)

    def pairs(args, kwargs, result):
        count("multiclass.score_pairs", len(args[0].labels))

    tracer.patch_function(corpus.parse_column_file, "corpus.parse", after=tokens)
    tracer.patch_function(corpus.extract_candidates, "corpus.extract",
                          after=lambda a, k, r: count("corpus.candidates", len(r)))
    tracer.patch_function(corpus.filter_unknown, "corpus.filter", after=kept)
    tracer.patch_function(corpus.corpus_stats, "corpus.stats")
    tracer.patch_function(corpus.write_candidates_tsv, "corpus.write_tsv")
    tracer.patch_function(corpus.read_candidates_tsv, "corpus.read_tsv")
    tracer.patch_method(FeatureSpace, "fit", "features.fit",
                        after=lambda a, k, space: tracer.peak("features.space_size", len(space)))
    tracer.patch_method(FeatureSpace, "vectorize_candidate", "features.vectorize", after=nnz)
    tracer.patch_method(FeatureSpace, "save", "features.save")
    tracer.patch_method(FeatureSpace, "load", "features.load")
    tracer.patch_method(FMModel, "predict_raw", "fm.predict_raw")
    tracer.patch_function(train.train_binary, "train.binary", before=stamp_epochs, after=updates)
    tracer.patch_function(multiclass.train_ova, "multiclass.train_ova")
    tracer.patch_method(OvAModel, "predict_scores", "multiclass.score", after=pairs)
    tracer.patch_method(OvAModel, "predict_label", "multiclass.score", after=pairs)
    tracer.patch_function(multiclass.save_ova_model, "multiclass.save",
                          after=lambda a, k, r: tracer.peak("multiclass.model_bytes",
                                                            os.path.getsize(a[1])))
    tracer.patch_function(multiclass.load_ova_model, "multiclass.load")
    tracer.patch_function(evaluate.evaluate, "evaluate.evaluate")
    tracer.patch_function(evaluate.pr_curve, "evaluate.pr_curve")
    tracer.patch_function(evaluate.sweep_k, "evaluate.sweep_k")


def snapshot() -> dict:
    """Identity of every binding in the fmnec modules and their classes."""
    state = {}
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == "fmnec" or modname.startswith("fmnec.")):
            continue
        for attr, value in vars(module).items():
            state[(modname, attr)] = id(value)
            if isinstance(value, type) and value.__module__ == modname:
                for cattr, cvalue in vars(value).items():
                    state[(modname, attr, cattr)] = id(cvalue)
    return state


def epoch_durations(spans, marks) -> list[float]:
    """Seconds per label-epoch: from a train.binary span's start (or the
    previous epoch mark inside it) to each epoch mark."""
    marks = sorted(marks)
    out = []
    for name, start, end, _ in spans:
        if name != "train.binary":
            continue
        previous = start
        for mark in marks:
            if start <= mark <= end:
                out.append(mark - previous)
                previous = mark
    return out


def traced_pass(run, commands) -> dict:
    """Run one pass in process with every layer wrapped; return its metrics.

    The returned dict holds every per-layer metric this pass defines, plus
    ``problems``: inconsistencies found in the spans.
    """
    with Tracer() as tracer:
        install(tracer)
        for argv in commands:
            run.in_process(argv, tracer)
    return layer_metrics(tracer)


def layer_metrics(tracer: Tracer) -> dict:
    summary = summarize(tracer.spans)
    names = summary["names"]
    counts = tracer.counts
    wall = summary["wall_s"]

    def total(span):
        return names.get(span, {}).get("total_s", 0.0)

    def calls(span):
        return names.get(span, {}).get("calls", 0)

    def per(numerator, denominator, factor=1.0):
        return factor * numerator / denominator if denominator else 0.0

    metrics = {metric: total(span) for metric, span in SPAN_TOTALS.items()}
    metrics.update({f"{layer}.self_s": summary["layers"].get(layer, 0.0) for layer in LAYERS})
    epochs = epoch_durations(tracer.spans, tracer.epoch_marks)
    metrics.update({
        "corpus.tokens": counts["corpus.tokens"],
        "corpus.candidates": counts["corpus.candidates"],
        "corpus.filter_kept_ratio": per(counts["corpus.filter_kept"], counts["corpus.filter_in"]),
        "features.vectorize_us": per(total("features.vectorize"), calls("features.vectorize"), 1e6),
        "features.space_size": tracer.maxima["features.space_size"],
        "features.nnz_mean": per(counts["features.nnz"], calls("features.vectorize")),
        "features.nnz_max": tracer.maxima["features.nnz_max"],
        "fm.predict_raw_calls": calls("fm.predict_raw"),
        "train.epoch_s": statistics.median(epochs) if epochs else 0.0,
        "train.update_us": per(total("train.binary"), counts["train.updates"], 1e6),
        "train.updates": counts["train.updates"],
        "multiclass.score_us": per(total("multiclass.score"), counts["multiclass.score_pairs"], 1e6),
        "multiclass.model_bytes": tracer.maxima["multiclass.model_bytes"],
        "trace.wall_s": wall,
    })
    problems = []
    unknown = set(summary["layers"]) - set(LAYERS)
    if unknown:
        problems.append(f"spans outside the known layers: {sorted(unknown)}")
    self_sum = sum(summary["layers"].values())
    if abs(self_sum - wall) > 1e-9 * max(1.0, wall):
        problems.append(f"self times sum to {self_sum!r}, traced wall is {wall!r}")
    metrics["problems"] = problems
    return metrics


def unknown_rate(space, candidates) -> float:
    """Share of the features extracted from ``candidates`` that ``space``
    does not index: the eval data the model cannot see."""
    from fmnec.features import extract_features

    total = missing = 0
    for candidate in candidates:
        feats = extract_features(candidate)
        total += len(feats)
        missing += sum(1 for name in feats if name not in space)
    return missing / total if total else 0.0
