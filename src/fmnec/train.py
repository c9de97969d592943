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
are stacked into one.  One kernel, ``_sgd``, trains L labels in lockstep on their
stacked parameters: step t updates each label on its own row, in the label's own
visiting order, with numpy calls shared by the L labels.  ``train_binary`` and
``sgd_step`` are its one-label case, and a one-vs-all job a group of a config's
labels (``_train_labels``); a label's bits never depend on which labels train beside it.
A batch without values (all 1.0, as every ``FeatureSpace`` row is) skips the
products by 1.0, which are exact.
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
    V = _fresh_factors(n, config, [config.seed])[0]
    return FMModel._own(0.0, np.zeros(n), V)


def _fresh_factors(n: int, config: TrainConfig, seeds) -> np.ndarray:
    """``init_model``'s factor matrix for each seed, stacked: shape (len(seeds), n, k)."""
    if n < 0:
        raise ConfigError("feature dimension must be >= 0")
    try:
        V = np.empty((len(seeds), n, config.k))
    except (MemoryError, ValueError):
        raise ConfigError(
            f"cannot allocate the factor matrix for n={n} features and k={config.k}; lower k"
        ) from None
    for out, seed in zip(V, seeds):  # drawn in place: the bits of rng.normal(0.0, init_sd)
        np.random.default_rng(derive_seed(seed, "factor-init")).standard_normal(out=out)
        with np.errstate(over="ignore"):
            np.multiply(out, config.init_sd, out)
        np.add(out, 0.0, out)  # normal's loc: -0.0 becomes 0.0
        if not np.isfinite(out).all():  # a finite init_sd near float64's top: a 2 sd draw overflows
            raise ConfigError(f"init_sd={config.init_sd:g} overflows float64 in a factor draw")
    return V


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


_CHUNK = 32  # steps whose entries _sgd gathers at once


def _sgd(params, live, batch: _Batch, orders, signs, config: TrainConfig) -> list:
    """SGD steps of the labels ``live`` (stack indices) in lockstep, in place on the stacked
    ``params``: w0 (L,), W (L, n) and V (L, n, k), C-ordered.  Step t updates label
    ``live[p]`` on row ``orders[p][t]`` of ``batch``, labeled ``signs[live[p], row]``; returns
    each live label's sum of pre-update losses.  Every numpy call of a step serves all the
    labels, and each per-label sum of the score is a sequential ``np.bincount`` from 0.0: the
    score has the bits of ``_Batch.scores``, and a label's bits never depend on the labels
    beside it."""
    w0s, W, V = params
    L, n, k = V.shape
    A, values = len(live), batch.values
    Wf, Vf = W.reshape(-1), V.reshape(L * n, k)  # views of the C-ordered stack
    factors = k and batch.indices.size  # with no entries every pair term is 0: k may be huge
    if factors:
        rows = Vf.view(np.dtype((np.void, 8 * k))).reshape(-1)
        of_label = np.repeat(np.arange(A), k)
        label_bins = of_label.reshape(A, k) * k + np.arange(k)  # each label's (label, f) bins
    lr, reg_w, reg_v, loss = config.learning_rate, config.reg_w, config.reg_v, config.loss
    sizes_of, offsets = np.diff(batch.bounds), n * live
    w0, totals = w0s[live], [0.0] * A
    chunk_labels = np.tile(np.arange(A), _CHUNK)
    for begin in range(0, orders.shape[1], _CHUNK):
        # the chunk's rows step by step, each step's labels in turn, and their entries
        step_rows = orders[:, begin:begin + _CHUNK].T.ravel()
        step_labels = chunk_labels[:step_rows.size]
        sizes = sizes_of[step_rows]
        ends = np.cumsum(sizes)
        entries = np.repeat(batch.bounds[step_rows] - ends + sizes, sizes) + np.arange(ends[-1])
        label = np.repeat(step_labels, sizes)
        flat = batch.indices[entries] + offsets[label]  # into the stack's rows
        vals = None if values is None else values[entries]
        if factors:
            label_k = label_bins.take(label, axis=0)
        cuts = [0, *ends.tolist()]  # each step's labels' entries, in turn
        for t, y in enumerate(signs[live[step_labels], step_rows].reshape(-1, A).tolist()):
            a, b = cuts[t * A], cuts[(t + 1) * A]
            idx, lab = flat[a:b], label[a:b]
            v = None if vals is None else vals[a:b]
            w_act = Wf.take(idx)
            score = w0 + np.bincount(lab, w_act if v is None else w_act * v, A)
            if factors and a < b:
                V_act = Vf.take(idx, axis=0)
                scaled = V_act if v is None else V_act * v[:, None]
                bins = label_k[a:b].ravel()
                per_factor = np.bincount(bins, scaled.ravel(), A * k)
                squares = np.bincount(bins, (scaled * scaled).ravel(), A * k)
                score += 0.5 * np.bincount(of_label, per_factor * per_factor - squares, A)
            slopes = []
            for p, (s, y_p) in enumerate(zip(score.tolist(), y)):
                value, slope = _loss_and_slope(loss, s, y_p)
                totals[p] += value
                slopes.append(slope)
            g = np.array(slopes)
            w0 -= lr * g
            g = g.take(lab)
            Wf[idx] = w_act - lr * ((g if v is None else g * v) + reg_w * w_act)
            if factors and a < b and (reg_v or any(slopes)):
                # a label past the hinge margin (slope 0) only decays its factors, or keeps
                # them: the mask, not a product by 0, keeps out a gradient that may not be finite
                moved = True if all(slopes) else (g != 0.0)[:, None]
                step = reg_v * V_act
                if k == 1:  # the per-label loop summed a lone factor column pairwise (numpy's
                    # add.reduce from 8 entries on): the gradient keeps those sums, and hinge
                    # models their bits
                    cut = [c - a for c in cuts[t * A:(t + 1) * A + 1]]
                    per_factor = np.array([np.add.reduce(scaled[c:d, 0])
                                           for c, d in zip(cut, cut[1:])])
                per_factor = per_factor.reshape(A, k).take(lab, axis=0)
                grad = (per_factor - V_act if v is None
                        else v[:, None] * per_factor - scaled * v[:, None])
                np.add(step, np.multiply(grad, g[:, None], grad), step, where=moved)
                np.multiply(step, lr, step)
                np.subtract(V_act, step, V_act, where=True if reg_v else moved)
                rows.put(idx, V_act.view(rows.dtype))
    w0s[live] = w0
    return totals


def sgd_step(model: FMModel, inst, config: TrainConfig) -> FMModel:
    """Update ``model`` in place on ``inst``, a ``(SparseVector, label)`` pair; return it."""
    _check_label(inst[1])
    batch = _Batch.of([inst], labeled=True)
    _check_dimension(batch.top, model.n)
    params = (np.array([model.w0]), model.w[None], model.V[None])
    _sgd(params, np.arange(1), batch, np.zeros((1, 1), np.int64), np.array([[inst[1]]]), config)
    model.w0 = float(params[0][0])
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
    for y in batch.labels:
        _check_label(y)
    _check_dimension(batch.top, n)
    report = None if on_epoch is None else lambda label, *args: on_epoch(*args)
    models, failure = _train_labels(batch, n, config, [config.seed], np.array([batch.labels]),
                                    report)
    if failure is not None:
        raise failure[1]
    return models[0]


def _train_labels(batch: _Batch, n: int, config: TrainConfig, seeds, signs, on_epoch=None):
    """Train one model per seed on ``batch`` in lockstep: label l under ``config`` with seed
    ``seeds[l]`` (its factor draw and visiting orders), on the rows' ``signs[l]`` (-1 or +1),
    so each gets the model ``train_binary`` gives it alone.  ``on_epoch``, when given,
    receives (l, epoch index, mean pre-update loss of the pass).  Returns the models of labels
    0 .. j - 1 and None, or (j, ``ConfigError``) when label j diverges: a label that diverges
    ends the training of every later one, so the labels before it train to the end.  The
    caller has checked ``batch`` against n."""
    size = len(batch)
    params = np.zeros(len(seeds)), np.zeros((len(seeds), n)), _fresh_factors(n, config, seeds)
    rngs = [np.random.default_rng(derive_seed(seed, "shuffle")) for seed in seeds]
    live, failure = np.arange(len(seeds)), None
    # a diverging run overflows inside numpy; the finiteness check below
    # reports it as a ConfigError instead of a stream of RuntimeWarnings
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            if not live.size:
                break
            orders = np.array([rngs[l].permutation(size) for l in live.tolist()])
            for l, total in zip(live.tolist(), _sgd(params, live, batch, orders, signs, config)):
                mean_loss = total / size
                if not (math.isfinite(mean_loss) and _finite_parameters(*(p[l] for p in params))):
                    failure = l, ConfigError(
                        f"training diverged at epoch {epoch + 1}: the mean loss ({mean_loss}) "
                        "or the parameters are not finite; lower the learning rate"
                    )
                    live = live[live < l]
                    break
                if on_epoch is not None:
                    on_epoch(l, epoch, mean_loss)
    end = len(seeds) if failure is None else failure[0]
    return [FMModel._own(*(p[l] for p in params)) for l in range(end)], failure
