"""One-vs-all multiclass wrapper around binary factorization machines."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .errors import ConfigError
from .fm import FMModel, _Batch, _load_model_file, read_fm_model, write_fm_model
from .train import LabeledInstance, TrainConfig, train_binary
from .util import LineCursor, atomic_write, derive_seed, first_bad_token

OVA_FORMAT_HEADER = "FMOVA v1"


@dataclass(eq=False)
class OvAModel:
    """One binary model per tag, stored in lexicographic tag order."""

    labels: list[str]
    models: list[FMModel] = field(repr=False)

    def __post_init__(self):
        if not self.labels:
            raise ConfigError("a one-vs-all model needs at least one label")
        _check_labels(self.labels)
        if list(self.labels) != sorted(set(self.labels)):
            raise ConfigError("labels must be unique and lexicographically sorted")
        if len(self.models) != len(self.labels):
            raise ConfigError("exactly one binary model required per label")
        dims = {(m.n, m.k) for m in self.models}
        if len(dims) > 1:
            raise ConfigError(f"member models disagree on (n, k): {sorted(dims)}")

    @property
    def n(self) -> int:
        return self.models[0].n

    @property
    def k(self) -> int:
        return self.models[0].k

    def predict_scores(self, xs) -> np.ndarray:
        """Raw scores of a batch of instances, shape (len(xs), labels), columns in label order."""
        return self._scores(xs)

    def predict_label(self, xs) -> list[str]:
        """Argmax tag of every instance in a batch, with the tie rule of ``best_labels``."""
        return self.best_labels(self._scores(xs))

    def best_labels(self, scores: np.ndarray) -> list[str]:
        """Argmax tag per row of a score matrix; ties go to the lexicographically smallest tag."""
        # labels are sorted and np.argmax returns the first maximum
        return [self.labels[i] for i in np.argmax(scores, axis=1).tolist()]

    def _scores(self, xs) -> np.ndarray:
        # one body behind both public methods, so predict_label never runs
        # inside predict_scores (bench/layers.py times each as its own span)
        batch = _Batch(xs)
        return np.stack([batch.scores(model) for model in self.models], axis=1)

    def __eq__(self, other):
        if not isinstance(other, OvAModel):
            return NotImplemented
        return self.labels == other.labels and self.models == other.models


def _check_labels(labels) -> None:
    # a label is one line of the model file and one cell of the reports
    bad = first_bad_token(labels)
    if bad is not None:
        raise ConfigError(f"labels must be non-empty and whitespace-free: {bad!r}")


def train_ova(data, n: int, config: TrainConfig, on_epoch=None) -> OvAModel:
    """Train one binary machine per distinct tag: that tag versus everything else.

    Each label trains under a seed derived from (config.seed, label), so the
    result is reproducible and independent of tag order in ``data``.
    ``on_epoch``, when given, receives (label, epoch index, mean loss).
    A diverging label raises ``ConfigError`` naming the label and the epoch.
    """
    data = list(data)
    if not data:
        raise ConfigError("training data is empty")
    tags = {tag for _, tag in data}
    if not all(isinstance(tag, str) for tag in tags):
        raise ConfigError("every training instance needs a tag")
    labels = sorted(tags)
    _check_labels(labels)
    models = []
    for label in labels:
        binary = [LabeledInstance(x, 1 if tag == label else -1) for x, tag in data]
        label_config = replace(config, seed=derive_seed(config.seed, "ova-label", label))
        callback = None if on_epoch is None else partial(on_epoch, label)
        try:
            models.append(train_binary(binary, n, label_config, on_epoch=callback))
        except ConfigError as exc:
            raise ConfigError(f"label {label}: {exc}") from None
    return OvAModel(labels, models)


def write_ova_model(fh, model: OvAModel) -> None:
    """Emit the FMOVA v1 block: header, label count, then per label the tag
    name line followed by an embedded FMMODEL v1 block."""
    fh.write(OVA_FORMAT_HEADER + "\n")
    fh.write(f"{len(model.labels)}\n")
    for label, member in zip(model.labels, model.models):
        fh.write(label + "\n")
        write_fm_model(fh, member)


def read_ova_model(cursor: LineCursor) -> OvAModel:
    header = cursor.take("multiclass model header")
    if header != OVA_FORMAT_HEADER:
        raise cursor.error(f"expected {OVA_FORMAT_HEADER!r} header, got {header!r}")
    count_line = cursor.take("label count")
    try:
        count = int(count_line)
    except ValueError:
        raise cursor.error(f"label count must be an integer, got {count_line!r}") from None
    if count < 1:
        raise cursor.error("label count must be >= 1")
    labels = []
    models = []
    for _ in range(count):
        labels.append(cursor.take("label name"))
        models.append(read_fm_model(cursor))
    try:
        return OvAModel(labels, models)
    except ConfigError as exc:
        raise cursor.error(str(exc)) from None


def save_ova_model(model: OvAModel, path) -> None:
    with atomic_write(path) as fh:
        write_ova_model(fh, model)


def load_ova_model(path) -> OvAModel:
    return _load_model_file(path, read_ova_model)
