"""Binary factorization-machine training: hinge or logistic SGD with L2 decay.

Per-instance update: with raw score s = model(x) and loss gradient
g = dL/ds, every touched parameter p moves by

    p -= learning_rate * (g * ds/dp + reg * p)

with reg = reg_w for w, reg_v for V and no decay on the bias w0.
"Touched" means the bias plus every parameter owned by a nonzero feature of
the instance; all other parameters stay bit-identical.  The score partials
are ds/dw0 = 1, ds/dw[i] = x[i] and, for the factor entries,
ds/dV[i,f] = x[i] * (sum_j V[j,f] x[j]) - V[i,f] * x[i]^2, all evaluated at
the pre-update parameters.

A binary instance (all values 1.0, as every ``FeatureSpace`` vector is) skips
the products by its values: IEEE 754 multiplication by 1.0 is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .fm import FMModel, _check_dimension, _finite_parameters
from .util import derive_seed

LOSS_KINDS = ("hinge", "logistic")


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for one SGD training run.

    The defaults are fixture choices that work well on the bundled synthetic
    datasets; nothing here is tuned to any particular corpus.
    """

    k: int = 5
    learning_rate: float = 0.05
    reg_w: float = 1e-4
    reg_v: float = 1e-4
    epochs: int = 100
    init_sd: float = 0.1
    seed: int = 42
    loss: str = "hinge"

    def __post_init__(self):
        if self.k < 0:
            raise ConfigError("k must be >= 0")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError("learning_rate must be finite and positive")
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if not (math.isfinite(self.init_sd) and self.init_sd >= 0):
            raise ConfigError("init_sd must be finite and >= 0")
        if not all(math.isfinite(r) and r >= 0 for r in (self.reg_w, self.reg_v)):
            raise ConfigError("regularization coefficients must be finite and >= 0")
        # decay scales touched weights by (1 - learning_rate * reg): |.| >= 1 grows them
        if self.learning_rate * max(self.reg_w, self.reg_v) >= 2:
            raise ConfigError("learning_rate * reg_w and learning_rate * reg_v must be < 2")
        if self.loss not in LOSS_KINDS:
            raise ConfigError(f"loss must be one of {LOSS_KINDS}")


def init_model(n: int, config: TrainConfig) -> FMModel:
    """Fresh model: zero bias and linear weights, factor rows from seeded gaussians."""
    if n < 0:
        raise ConfigError("feature dimension must be >= 0")
    rng = np.random.default_rng(derive_seed(config.seed, "factor-init"))
    try:
        V = rng.normal(0.0, config.init_sd, size=(n, config.k))
    except (MemoryError, ValueError):
        raise ConfigError(
            f"cannot allocate the factor matrix for n={n} features and k={config.k}; lower k"
        ) from None
    return FMModel(0.0, np.zeros(n), V)


def _check_label(y) -> None:
    if y not in (-1, 1):
        raise ValueError("label must be -1 or +1")


def loss_value(loss: str, score: float, y: int) -> float:
    """Per-instance loss at a raw score; logistic is evaluated overflow-safely."""
    _check_label(y)
    if loss not in LOSS_KINDS:
        raise ConfigError(f"loss must be one of {LOSS_KINDS}")
    return _loss_and_slope(loss, score, y)[0]


def _loss_and_slope(loss: str, score: float, y: int) -> tuple[float, float]:
    """Loss and dL/dscore, both stable on the tails of the logistic.

    Hinge takes subgradient 0 at the kink (margin exactly 1).
    """
    margin = y * score
    if loss == "hinge":
        if margin < 1.0:
            return 1.0 - margin, -float(y)
        return 0.0, 0.0
    # logistic: log(1 + e^-margin) and -y * sigmoid(-margin)
    if margin >= 0:
        e = math.exp(-margin)
        return math.log1p(e), -float(y) * e / (1.0 + e)
    e = math.exp(margin)
    return -margin + math.log1p(e), -float(y) / (1.0 + e)


def _epoch(model: FMModel, data, order, config: TrainConfig, binary: bool) -> float:
    """SGD updates on the pairs ``data[t]``, ``t`` in ``order``, checked against ``model.n``
    and the label rule; returns the sum of the pre-update losses.  ``binary`` (all values
    1.0) skips the exact products by 1.0.  In place or not, every update keeps the module
    docstring's operands, order and reductions (``a.dot(b)`` is ``a @ b``): same bits."""
    w, V, w0, k = model.w, model.V, model.w0, model.k
    lr, reg_w, reg_v, loss_kind = config.learning_rate, config.reg_w, config.reg_v, config.loss
    total = 0.0
    for t in order:
        x, y = data[t]
        idx, vals = x.indices, x.values
        w_act = w[idx]
        score = w0 + float(w_act.dot(vals))
        if k:  # k = 0 (sweep-k's linear baseline) has no factor work to do
            V_act = V.take(idx, axis=0)
            scaled = V_act if binary else V_act * vals[:, None]
            per_factor = np.add.reduce(scaled, 0)
            if idx.size > 1:  # a lone feature's interaction stays exactly 0, as in _Batch
                score += 0.5 * (float(per_factor.dot(per_factor))
                                - float(np.add.reduce(scaled * scaled, None)))
        loss, g = _loss_and_slope(loss_kind, score, y)
        total += loss
        w0 -= lr * g
        w[idx] = w_act - lr * ((g if binary else g * vals) + reg_w * w_act)
        if k and (g != 0.0 or reg_v != 0.0):  # hinge past the margin has g = 0: decay only
            step = reg_v * V_act
            if g != 0.0:
                grad = (per_factor - V_act if binary
                        else vals[:, None] * per_factor[None, :] - scaled * vals[:, None])
                np.add(step, np.multiply(grad, g, grad), step)
            np.multiply(step, lr, step)
            V[idx] = np.subtract(V_act, step, step)
    model.w0 = w0
    return total


def sgd_step(model: FMModel, inst, config: TrainConfig) -> FMModel:
    """Update ``model`` in place on ``inst``, a ``(SparseVector, label)`` pair; return it."""
    x, y = inst
    _check_label(y)
    _check_dimension(int(x.indices[-1]) if x.nnz else -1, model.n)
    _epoch(model, (inst,), (0,), config, bool((x.values == 1.0).all()))
    return model


def train_binary(data, n: int, config: TrainConfig, on_epoch=None) -> FMModel:
    """Train a fresh model with ``config.epochs`` passes over ``data``, a
    sequence of ``(SparseVector, label)`` pairs with labels -1 or +1.

    Deterministic for fixed inputs: both the factor initialization and the
    per-epoch visiting order derive from ``config.seed``.  ``on_epoch``,
    when given, receives (epoch index, mean pre-update loss of the pass).
    Raises ``ConfigError`` when training diverges: an epoch's mean loss or
    the parameters after it are not finite.
    """
    data = list(data)
    if not data:
        raise ConfigError("training data is empty")
    for _, y in data:
        _check_label(y)
    # chunks of 256 vectors keep the temporaries too small to raise peak RSS
    chunks = [data[i : i + 256] for i in range(0, len(data), 256)]
    _check_dimension(max(int(np.concatenate([x.indices for x, _ in c]).max(initial=-1))
                         for c in chunks), n)
    binary = all((np.concatenate([x.values for x, _ in c]) == 1.0).all() for c in chunks)
    model = init_model(n, config)
    rng = np.random.default_rng(derive_seed(config.seed, "shuffle"))
    # a diverging run overflows inside numpy; the finiteness check below
    # reports it as a ConfigError instead of a stream of RuntimeWarnings
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            mean_loss = _epoch(model, data, rng.permutation(len(data)), config, binary) / len(data)
            if not (math.isfinite(mean_loss) and _finite_parameters(model.w0, model.w, model.V)):
                raise ConfigError(
                    f"training diverged at epoch {epoch + 1}: the mean loss ({mean_loss}) "
                    "or the parameters are not finite; lower the learning rate"
                )
            if on_epoch is not None:
                on_epoch(epoch, mean_loss)
    return model
