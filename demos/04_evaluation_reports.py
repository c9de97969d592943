#!/usr/bin/env python3
"""Multiclass training and the evaluation toolkit.

Builds a small synthetic three-tag task, trains a one-vs-all model, and walks
through the report: per-tag and micro precision/recall/F1, the confusion
matrix, a per-tag precision-recall curve, and a sweep over the factorization
dimension k.
"""

import numpy as np

from fmnec import SparseVector, TrainConfig, evaluate, format_report, pr_curve, sweep_k, train_ova

rng = np.random.default_rng(4)

# Synthetic task over 12 features where the tags hinge on feature PAIRS:
# PER wants exactly one of {0, 1}, LOC wants exactly one of {2, 3}.  Each
# rule is XOR-shaped, so a linear model cannot express either of them.
def make_instance():
    active = set(rng.choice(np.arange(4, 12), size=3, replace=False).tolist())
    active |= {i for i in (0, 1, 2, 3) if rng.random() < 0.5}
    if (0 in active) != (1 in active):
        tag = "PER"
    elif (2 in active) != (3 in active):
        tag = "LOC"
    else:
        tag = "O"
    if rng.random() < 0.05:  # a little label noise
        tag = str(rng.choice(["PER", "LOC", "O"]))
    return SparseVector(sorted(active), np.ones(len(active))), tag


train = [make_instance() for _ in range(600)]
test = [make_instance() for _ in range(200)]

config = TrainConfig(k=4, learning_rate=0.05, reg_w=1e-4, reg_v=1e-4,
                     epochs=60, init_sd=0.1, seed=1)
model = train_ova(train, 12, config)
print("labels:", model.labels)

# The model scores a whole batch at once: one row per instance, one column
# per label.  The predicted tag is each row's argmax.
xs = [x for x, _ in test]
gold = [tag for _, tag in test]
scores = model.predict_scores(xs)
pred = model.best_labels(scores)  # same as model.predict_label(xs), without rescoring
report = evaluate(gold, pred)
print()
print(format_report(report))

# Raw per-label scores feed threshold-free PR curves, one per entity tag.
per = scores[:, model.labels.index("PER")]
points = pr_curve([(s, g == "PER") for s, g in zip(per.tolist(), gold)])
print("\nPER precision-recall curve (every 20th point):")
for precision, recall in points[::20]:
    print(f"  recall {recall:5.2f}  precision {precision:5.2f}")

# How much model capacity does the pairwise term need?  Sweep k on held-out
# data with everything else fixed.
results = sweep_k(train, test, 12, [0, 1, 2, 4, 8], config)
print("\nk sweep (micro F1 on held-out data):")
for k, f1 in results:
    bar = "#" * int(40 * f1)
    print(f"  k={k:<2d} {100 * f1:6.2f}  {bar}")
