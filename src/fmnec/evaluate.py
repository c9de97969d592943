"""Precision/recall/F1 reports, confusion matrices, PR curves, and k sweeps.

Headline numbers are micro-averaged over every tag except the non-entity
tag: precision pools all non-O predictions, recall pools all non-O gold
labels.  Degenerate 0/0 ratios are defined as 0.
"""

from __future__ import annotations

from contextlib import closing
from dataclasses import dataclass, replace

import numpy as np

from .corpus import NEGATIVE_TAG
from .errors import ConfigError
from .fm import _Batch, _check_dimension
from .multiclass import _train_configs
from .util import format_table


@dataclass(frozen=True)
class PRF:
    precision: float
    recall: float
    f1: float


def _prf(correct: int, predicted: int, gold: int) -> PRF:
    precision = correct / predicted if predicted else 0.0
    recall = correct / gold if gold else 0.0
    # algebraically 2PR/(P+R); the single division keeps exact ratios exact
    f1 = 2.0 * correct / (predicted + gold) if predicted + gold else 0.0
    return PRF(precision, recall, f1)


@dataclass
class EvalReport:
    """Per-tag and micro scores plus a confusion matrix (gold rows, pred columns)."""

    labels: list[str]
    confusion: np.ndarray
    per_tag: dict[str, PRF]
    micro: PRF


def evaluate(gold, pred) -> EvalReport:
    """Score predicted tags against gold tags, candidate-level counting."""
    gold = list(gold)
    pred = list(pred)
    if not gold:
        raise ConfigError("nothing to evaluate")
    if len(gold) != len(pred):
        raise ConfigError(f"gold and prediction lengths differ: {len(gold)} vs {len(pred)}")
    if not all(isinstance(tag, str) for tag in gold + pred):
        raise ConfigError("every gold and predicted tag must be a string")
    labels = sorted(set(gold) | set(pred))
    index = {tag: i for i, tag in enumerate(labels)}
    confusion = np.zeros((len(labels), len(labels)), dtype=np.int64)
    for gold_tag, pred_tag in zip(gold, pred):
        confusion[index[gold_tag], index[pred_tag]] += 1

    per_tag = {}
    micro_correct = micro_predicted = micro_gold = 0
    for tag in labels:
        if tag == NEGATIVE_TAG:
            continue
        i = index[tag]
        correct = int(confusion[i, i])
        predicted = int(confusion[:, i].sum())
        gold_count = int(confusion[i, :].sum())
        per_tag[tag] = _prf(correct, predicted, gold_count)
        micro_correct += correct
        micro_predicted += predicted
        micro_gold += gold_count
    micro = _prf(micro_correct, micro_predicted, micro_gold)
    return EvalReport(labels, confusion, per_tag, micro)


def pr_curve(scores) -> list[tuple[float, float]]:
    """Precision/recall after each prefix of the score-descending ranking.

    ``scores`` holds (score, is_positive) pairs.  Ties keep input order, so
    the curve is deterministic.
    """
    scores = list(scores)
    positive = np.array([bool(flag) for _, flag in scores], dtype=bool)
    total_pos = int(positive.sum())
    if total_pos == 0:
        raise ConfigError("a precision-recall curve needs at least one positive instance")
    tp = np.cumsum(positive[np.argsort([-score for score, _ in scores], kind="stable")])
    # counts below 2**53 are exact in float64, so each ratio has int / int's bits
    precision = tp / np.arange(1, len(scores) + 1)
    return list(zip(precision.tolist(), (tp / total_pos).tolist()))


def sweep_configs(k_values, config) -> list:
    """One checked ``TrainConfig`` per k value, other fields from ``config``; a k
    may appear once."""
    configs = [replace(config, k=k) for k in k_values]
    if not configs:
        raise ConfigError("no k values to sweep")
    seen = set()
    for k_config in configs:
        if k_config.k in seen:
            raise ConfigError(f"k={k_config.k} appears twice in the k values")
        seen.add(k_config.k)
    return configs


def sweep_k(train, dev, n: int, k_values, config) -> list[tuple[int, float]]:
    """Dev micro-F1 per factorization dimension, in ``k_values`` order, other config fields
    fixed; every k is one job whose labels train in lockstep (with fewer k values than usable
    CPUs, one per group of its labels), all in one run, each k scored once trained and then
    freed.  ``train`` and ``dev`` are each a tagged ``_Batch`` or
    ``(SparseVector, tag)`` pairs; both are checked against ``n`` before any training."""
    configs = sweep_configs(k_values, config)
    dev = _Batch.of(dev, labeled=True)  # stacked once
    if not len(dev):
        raise ConfigError("nothing to evaluate")
    if None in dev.labels:
        raise ConfigError("every dev instance needs a gold tag")
    _check_dimension(dev.top, n)
    with closing(_train_configs(train, n, configs)) as models:  # map holds none between k's
        f1 = dict(map(lambda m: (m.k, evaluate(dev.labels, m.predict_label(dev)).micro.f1),
                      models))
    return [(k_config.k, f1[k_config.k]) for k_config in configs]


def _pct(value: float) -> str:
    return f"{100.0 * value:.2f}"


def _score_rows(report: EvalReport) -> list[list[str]]:
    """One row per entity tag in tag order, then the micro row: tag, P, R, F1 in percent."""
    scores = [(tag, report.per_tag[tag]) for tag in sorted(report.per_tag)]
    scores.append(("micro", report.micro))
    return [[tag, _pct(s.precision), _pct(s.recall), _pct(s.f1)] for tag, s in scores]


def _confusion_rows(report: EvalReport) -> list[list[str]]:
    """One row per gold tag: the tag, then its count for every predicted tag."""
    return [
        [tag, *(str(int(v)) for v in report.confusion[i])] for i, tag in enumerate(report.labels)
    ]


def _tsv(header, rows) -> str:
    return "".join("\t".join(row) + "\n" for row in [header, *rows])


def format_report(report: EvalReport) -> str:
    """Human-readable report: per-tag rows, the micro row, the confusion matrix."""
    lines = [
        format_table([["tag", "P", "R", "F1"], *_score_rows(report)]),
        "",
        "confusion matrix (rows: gold, columns: predicted)",
        format_table([["", *report.labels], *_confusion_rows(report)]),
    ]
    return "\n".join(lines)


def format_report_tsv(report: EvalReport) -> str:
    """Machine-readable scores: tag, precision, recall, F1 (percent, 2 decimals)."""
    return _tsv(["tag", "precision", "recall", "f1"], _score_rows(report))


def format_confusion_tsv(report: EvalReport) -> str:
    return _tsv(["gold\\pred", *report.labels], _confusion_rows(report))


def format_pr_curve_tsv(points) -> str:
    """Two-column numeric file (percent, 2 decimals), one ranking prefix per row."""
    cells = tuple(100.0 * value for p, r in points for value in (r, p))  # _pct's "%.2f"
    return "recall\tprecision\n" + ("%.2f\t%.2f\n" * len(points)) % cells


def format_sweep_tsv(results) -> str:
    return _tsv(["k", "micro_f1"], ([f"{k}", _pct(f1)] for k, f1 in results))
