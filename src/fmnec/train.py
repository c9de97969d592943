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

SGD walks the CSR rows of a labeled ``_Batch``; ``(SparseVector, label)`` pairs
are stacked into one.  A batch without values (all 1.0, as every
``FeatureSpace`` row is) skips the products by 1.0, which are exact.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .fm import FMModel, _Batch, _check_dimension, _finite_parameters
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
        for name in ("k", "epochs", "seed"):  # numpy integers are Integral too
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ConfigError(f"{name} must be an integer")
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
    if not np.isfinite(V).all():  # a finite init_sd near float64's top: a 2 sd draw overflows
        raise ConfigError(f"init_sd={config.init_sd:g} overflows float64 in a factor draw")
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

    Hinge takes subgradient 0 at the kink (margin exactly 1), and a NaN score
    gives a NaN loss, which the divergence check reports.
    """
    margin = y * score
    if loss == "hinge":
        if not margin >= 1.0:
            return 1.0 - margin, -float(y)
        return 0.0, 0.0
    # logistic: log(1 + e^-margin) and -y * sigmoid(-margin)
    if margin >= 0:
        e = math.exp(-margin)
        return math.log1p(e), -float(y) * e / (1.0 + e)
    e = math.exp(margin)
    return -margin + math.log1p(e), -float(y) / (1.0 + e)


def _epoch(model: FMModel, batch: _Batch, order, config: TrainConfig) -> float:
    """SGD updates on the rows ``order`` of ``batch``, labeled -1 or +1 and checked against
    ``model.n``; returns the sum of the pre-update losses.  A batch without values (all 1.0)
    skips the exact products by 1.0.  Every update keeps the module docstring's operands, order
    and reductions (``a.dot(b)`` is ``a @ b``): the same bits with the rate, decays and slope as
    0-d float64 arrays, V's rows written through a row view, squares summed raveled."""
    w, V, w0, k = model.w, model.V, model.w0, model.k
    lr, reg_w, reg_v, g = map(np.array, (config.learning_rate, config.reg_w, config.reg_v, 0.0))
    rows = V.view(np.dtype((np.void, 8 * k))).reshape(-1) if k else None  # V is C-ordered
    indices, values, labels = batch.indices, batch.values, batch.labels
    bounds, binary = batch.bounds.tolist(), values is None
    one = np.ones(np.diff(batch.bounds).max(initial=0))  # a binary row's values: a view of it
    ones = [one[:size] for size in range(one.size + 1)]
    total = 0.0
    for t in order:
        start, end = bounds[t], bounds[t + 1]
        idx, y = indices[start:end], labels[t]
        vals = ones[end - start] if binary else values[start:end]
        w_act = w[idx]
        score = w0 + float(w_act.dot(vals))
        if k:  # k = 0 (sweep-k's linear baseline) has no factor work to do
            V_act = V.take(idx, axis=0)
            scaled = V_act if binary else V_act * vals[:, None]
            per_factor = np.add.reduce(scaled, 0)
            if idx.size > 1:  # a lone feature's interaction stays exactly 0, as in _Batch
                score += 0.5 * (float(per_factor.dot(per_factor))
                                - float(np.add.reduce((scaled * scaled).ravel())))
        loss, slope = _loss_and_slope(config.loss, score, y)
        total += loss
        w0 -= config.learning_rate * slope
        g[()] = slope
        w[idx] = w_act - lr * ((g if binary else g * vals) + reg_w * w_act)
        if k and (slope != 0.0 or config.reg_v != 0.0):  # g = 0 past the hinge margin: decay only
            step = reg_v * V_act
            if slope != 0.0:
                grad = (per_factor - V_act if binary
                        else vals[:, None] * per_factor[None, :] - scaled * vals[:, None])
                np.add(step, np.multiply(grad, g, grad), step)
            np.multiply(step, lr, step)
            rows.put(idx, np.subtract(V_act, step, step).view(rows.dtype))
    model.w0 = w0
    return total


def sgd_step(model: FMModel, inst, config: TrainConfig) -> FMModel:
    """Update ``model`` in place on ``inst``, a ``(SparseVector, label)`` pair; return it."""
    _check_label(inst[1])
    batch = _Batch.of([inst], labeled=True)
    _check_dimension(batch.top, model.n)
    _epoch(model, batch, (0,), config)
    return model


def train_binary(data, n: int, config: TrainConfig, on_epoch=None) -> FMModel:
    """Train a fresh model with ``config.epochs`` passes over ``data``, a ``_Batch``
    or a sequence of ``(SparseVector, label)`` pairs, with labels -1 or +1.

    Deterministic for fixed inputs: both the factor initialization and the
    per-epoch visiting order derive from ``config.seed``.  ``on_epoch``,
    when given, receives (epoch index, mean pre-update loss of the pass).
    Raises ``ConfigError`` when training diverges: an epoch's mean loss or
    the parameters after it are not finite.
    """
    batch = _Batch.of(data, labeled=True)
    if not len(batch):
        raise ConfigError("training data is empty")
    if batch is not data:  # a one-vs-all job's batch is labeled -1 or +1 by construction
        for y in batch.labels:
            _check_label(y)
    _check_dimension(batch.top, n)
    model = init_model(n, config)
    rng = np.random.default_rng(derive_seed(config.seed, "shuffle"))
    # a diverging run overflows inside numpy; the finiteness check below
    # reports it as a ConfigError instead of a stream of RuntimeWarnings
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            order = rng.permutation(len(batch)).tolist()
            mean_loss = _epoch(model, batch, order, config) / len(batch)
            if not (math.isfinite(mean_loss) and _finite_parameters(model.w0, model.w, model.V)):
                raise ConfigError(
                    f"training diverged at epoch {epoch + 1}: the mean loss ({mean_loss}) "
                    "or the parameters are not finite; lower the learning rate"
                )
            if on_epoch is not None:
                on_epoch(epoch, mean_loss)
    return model
