#!/usr/bin/env python3
"""A walk through the model core: sparse instances, scoring, interaction weights.

The model scores an instance as bias + linear part + pairwise part, where the
weight of every feature pair is the inner product of two learned factor rows.
This script builds a tiny model by hand so every number is checkable by eye.
"""

import numpy as np

from fmnec import FMModel, OvAModel, SparseVector, load_ova_model, save_ova_model

# Two features, factor dimension 1: feature 0 owns row (2), feature 1 owns (3).
model = FMModel(w0=0.5, w=[1.0, -1.0], V=[[2.0], [3.0]])

# A sparse instance only stores nonzero entries, sorted by index.
x = SparseVector([0, 1], [1.0, 1.0])
print("instance:", x)

# bias 0.5 + linear (1 - 1) + interaction <2,3> * 1 * 1 = 6.5
print("score          :", model.predict_raw(x))

# The naive path sums every feature pair explicitly.  It is slower but
# obviously correct, which makes it a good cross-check.
print("score (naive)  :", model.predict_raw_naive(x))

# The pairwise weight itself is just an inner product of factor rows.
print("weight of (0,1):", model.interaction_weight(0, 1))

# A single active feature has no pair, so only bias + linear remain.
solo = SparseVector([1], [2.0])
print("single feature :", model.predict_raw(solo))  # 0.5 - 2.0

# With k = 0 the factor matrix has no columns and the model is purely linear.
linear = FMModel(w0=0.0, w=[0.25, 0.75], V=np.zeros((2, 0)))
print("k=0 score      :", linear.predict_raw(x))

# Models round-trip through a plain text format losslessly.  The one model file holds
# a model per label, so a single model is saved as the one label of a one-vs-all model.
save_ova_model(OvAModel(["ENT"], [model]), "demo_model.txt")
[reloaded] = load_ova_model("demo_model.txt").models
print("reloaded equals original:", reloaded == model)

# Larger random models agree between the fast and the naive path too.
rng = np.random.default_rng(0)
big = FMModel(rng.normal(), rng.normal(size=200), rng.normal(size=(200, 8)))
probe = SparseVector(np.arange(0, 200, 7), rng.uniform(0.5, 1.5, size=29))
fast, naive = big.predict_raw(probe), big.predict_raw_naive(probe)
print(f"fast {fast:.12f} vs naive {naive:.12f} (diff {abs(fast - naive):.2e})")
