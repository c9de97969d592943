"""Precision/recall/F1 reports, confusion matrices, PR curves, and k sweeps.

Headline numbers are micro-averaged over every tag except the non-entity
tag: precision pools all non-O predictions, recall pools all non-O gold
labels.  Degenerate 0/0 ratios are defined as 0.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError
from .multiclass import train_ova
from .util import format_table

NEGATIVE_TAG = "O"


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
    negative_tag: str = NEGATIVE_TAG


def evaluate(gold, pred, negative_tag: str = NEGATIVE_TAG) -> EvalReport:
    """Score predicted tags against gold tags, candidate-level counting."""
    gold = list(gold)
    pred = list(pred)
    if not gold:
        raise ConfigError("nothing to evaluate")
    if len(gold) != len(pred):
        raise ConfigError(f"gold and prediction lengths differ: {len(gold)} vs {len(pred)}")
    labels = sorted(set(gold) | set(pred))
    index = {tag: i for i, tag in enumerate(labels)}
    confusion = np.zeros((len(labels), len(labels)), dtype=np.int64)
    for gold_tag, pred_tag in zip(gold, pred):
        confusion[index[gold_tag], index[pred_tag]] += 1

    per_tag = {}
    micro_correct = micro_predicted = micro_gold = 0
    for tag in labels:
        if tag == negative_tag:
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
    return EvalReport(labels, confusion, per_tag, micro, negative_tag)


def pr_curve(scores) -> list[tuple[float, float]]:
    """Precision/recall after each prefix of the score-descending ranking.

    ``scores`` holds (score, is_positive) pairs.  Ties keep input order, so
    the curve is deterministic.
    """
    scores = list(scores)
    total_pos = sum(1 for _, positive in scores if positive)
    if total_pos == 0:
        raise ConfigError("a precision-recall curve needs at least one positive instance")
    ranked = sorted(range(len(scores)), key=lambda i: -scores[i][0])
    points = []
    tp = 0
    for depth, i in enumerate(ranked, 1):
        if scores[i][1]:
            tp += 1
        points.append((tp / depth, tp / total_pos))
    return points


def sweep_k(train, dev, n: int, k_values, config) -> list[tuple[int, float]]:
    """Dev micro-F1 per factorization dimension, other config fields fixed."""
    k_values = [int(k) for k in k_values]
    if not k_values:
        raise ConfigError("no k values to sweep")
    if any(k < 0 for k in k_values):
        raise ConfigError("k values must be >= 0")
    train = list(train)
    dev = list(dev)
    xs = [x for x, _ in dev]
    gold = [tag for _, tag in dev]
    results = []
    for k in k_values:
        model = train_ova(train, n, replace(config, k=k))
        results.append((k, evaluate(gold, model.predict_label(xs)).micro.f1))
    return results


def _pct(value: float) -> str:
    return f"{100.0 * value:.2f}"


def format_report(report: EvalReport) -> str:
    """Human-readable report: per-tag rows, the micro row, the confusion matrix."""
    rows = [["tag", "P", "R", "F1"]]
    for tag in sorted(report.per_tag):
        s = report.per_tag[tag]
        rows.append([tag, _pct(s.precision), _pct(s.recall), _pct(s.f1)])
    m = report.micro
    rows.append(["micro", _pct(m.precision), _pct(m.recall), _pct(m.f1)])
    lines = [format_table(rows), ""]
    lines.append("confusion matrix (rows: gold, columns: predicted)")
    matrix_rows = [["", *report.labels]]
    for i, tag in enumerate(report.labels):
        matrix_rows.append([tag, *(str(int(v)) for v in report.confusion[i])])
    lines.append(format_table(matrix_rows))
    return "\n".join(lines)


def format_report_tsv(report: EvalReport) -> str:
    """Machine-readable scores: tag, precision, recall, F1 (percent, 2 decimals)."""
    lines = ["tag\tprecision\trecall\tf1"]
    for tag in sorted(report.per_tag):
        s = report.per_tag[tag]
        lines.append(f"{tag}\t{_pct(s.precision)}\t{_pct(s.recall)}\t{_pct(s.f1)}")
    m = report.micro
    lines.append(f"micro\t{_pct(m.precision)}\t{_pct(m.recall)}\t{_pct(m.f1)}")
    return "\n".join(lines) + "\n"


def format_confusion_tsv(report: EvalReport) -> str:
    lines = ["gold\\pred\t" + "\t".join(report.labels)]
    for i, tag in enumerate(report.labels):
        lines.append(tag + "\t" + "\t".join(str(int(v)) for v in report.confusion[i]))
    return "\n".join(lines) + "\n"


def format_pr_curve_tsv(points) -> str:
    """Two-column numeric file (percent, 2 decimals), one ranking prefix per row."""
    lines = ["recall\tprecision"]
    for precision, recall in points:
        lines.append(f"{_pct(recall)}\t{_pct(precision)}")
    return "\n".join(lines) + "\n"


def format_sweep_tsv(results) -> str:
    lines = ["k\tmicro_f1"]
    for k, f1 in results:
        lines.append(f"{k}\t{_pct(f1)}")
    return "\n".join(lines) + "\n"
