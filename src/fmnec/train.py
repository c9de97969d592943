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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .fm import FMModel, SparseVector, _check_dimension
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
    shuffle: bool = True
    loss: str = "hinge"

    def __post_init__(self):
        if self.k < 0:
            raise ConfigError("k must be >= 0")
        if not self.learning_rate > 0:
            raise ConfigError("learning_rate must be positive")
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.init_sd < 0:
            raise ConfigError("init_sd must be >= 0")
        if min(self.reg_w, self.reg_v) < 0:
            raise ConfigError("regularization coefficients must be >= 0")
        if self.loss not in LOSS_KINDS:
            raise ConfigError(f"loss must be one of {LOSS_KINDS}")


@dataclass(frozen=True)
class LabeledInstance:
    """A sparse instance with a binary label in {-1, +1}."""

    x: SparseVector
    y: int

    def __post_init__(self):
        if self.y not in (-1, 1):
            raise ValueError("label must be -1 or +1")


def init_model(n: int, config: TrainConfig) -> FMModel:
    """Fresh model: zero bias and linear weights, factor rows from seeded gaussians."""
    if n < 0:
        raise ConfigError("feature dimension must be >= 0")
    w = np.zeros(n)
    if n and config.k and config.init_sd > 0:
        rng = np.random.default_rng(derive_seed(config.seed, "factor-init"))
        V = rng.normal(0.0, config.init_sd, size=(n, config.k))
    else:
        V = np.zeros((n, config.k))
    return FMModel(0.0, w, V)


def loss_value(loss: str, score: float, y: int) -> float:
    """Per-instance loss at a raw score; logistic is evaluated overflow-safely."""
    if y not in (-1, 1):
        raise ValueError("label must be -1 or +1")
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


def _step(model: FMModel, inst: LabeledInstance, config: TrainConfig) -> float:
    """One in-place SGD update on an instance already checked against
    ``model.n``; returns the pre-update loss."""
    idx = inst.x.indices
    vals = inst.x.values
    m = idx.size
    score = model.w0
    w_act = V_act = scaled = per_factor = None
    if m:
        w_act = model.w[idx]
        score += float(w_act @ vals)
        if model.k:
            V_act = model.V[idx]
            if m > 1:
                scaled = V_act * vals[:, None]
                per_factor = scaled.sum(axis=0)
                score += 0.5 * float(per_factor @ per_factor - (scaled * scaled).sum())

    loss, g = _loss_and_slope(config.loss, score, inst.y)
    lr = config.learning_rate

    model.w0 -= lr * g
    if m:
        model.w[idx] = w_act - lr * (g * vals + config.reg_w * w_act)
        if model.k:
            if g != 0.0 and m > 1:
                grad = vals[:, None] * per_factor[None, :] - scaled * vals[:, None]
                model.V[idx] = V_act - lr * (g * grad + config.reg_v * V_act)
            elif config.reg_v != 0.0:
                # single active feature has an exactly-zero interaction gradient,
                # and a zero loss gradient leaves only the decay term
                model.V[idx] = V_act - lr * (config.reg_v * V_act)
    return loss


def sgd_step(model: FMModel, inst: LabeledInstance, config: TrainConfig) -> FMModel:
    """Apply one update to ``model`` in place and return it."""
    _check_dimension(int(inst.x.indices[-1]) if inst.x.nnz else -1, model.n)
    _step(model, inst, config)
    return model


def train_binary(data, n: int, config: TrainConfig, on_epoch=None) -> FMModel:
    """Train a fresh model with ``config.epochs`` passes over ``data``.

    Deterministic for fixed inputs: both the factor initialization and the
    per-epoch visiting order derive from ``config.seed``.  With
    ``config.shuffle`` off, instances are visited in input order.
    ``on_epoch``, when given, receives (epoch index, mean pre-update loss
    of the pass).  Raises ``ConfigError`` when training diverges: an epoch's
    mean loss or the final parameters are not finite.
    """
    data = list(data)
    if not data:
        raise ConfigError("training data is empty")
    top = max((int(inst.x.indices[-1]) for inst in data if inst.x.nnz), default=-1)
    _check_dimension(top, n)

    model = init_model(n, config)
    rng = None
    if config.shuffle:
        rng = np.random.default_rng(derive_seed(config.seed, "shuffle"))
    order = np.arange(len(data))
    # a diverging run overflows inside numpy; the finiteness checks below
    # report it as a ConfigError instead of a stream of RuntimeWarnings
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            if rng is not None:
                order = rng.permutation(len(data))
            total = 0.0
            for t in order:
                total += _step(model, data[t], config)
            mean_loss = total / len(data)
            if not math.isfinite(mean_loss):
                raise ConfigError(
                    f"training diverged at epoch {epoch + 1}: mean loss {mean_loss}; "
                    "lower the learning rate or the regularization"
                )
            if on_epoch is not None:
                on_epoch(epoch, mean_loss)
    if not (math.isfinite(model.w0) and np.isfinite(model.w).all() and np.isfinite(model.V).all()):
        raise ConfigError(
            f"training diverged at epoch {config.epochs}: parameters are not finite; "
            "lower the learning rate or the regularization"
        )
    return model
