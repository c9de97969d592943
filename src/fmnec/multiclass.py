"""One-vs-all multiclass wrapper around binary factorization machines."""

from __future__ import annotations

import heapq
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError
from .fm import FMModel, _Batch, _load_model_file, read_fm_model, write_fm_model
from .train import TrainConfig, train_binary
from .util import (Forked, LineCursor, atomic_write, derive_seed, first_bad_token, process_count,
                   sendable)

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
    result is reproducible and independent of tag order in ``data``.  With W usable
    CPUs, at most one per label, W processes pull the labels from one queue
    (``_train_configs``).  ``on_epoch``, when given, receives (label, epoch index,
    mean loss).  A diverging label raises ``ConfigError`` naming the label and the epoch.
    """
    [model] = _train_configs(data, n, [config], on_epoch)
    return model


def _train_configs(data, n: int, configs, on_epoch=None):
    """Yield each config's ``OvAModel`` once its labels are in.  Jobs are (config, label)
    pairs, longest k first (stable), pulled from one queue by this process and W - 1 workers
    forked once (W usable CPUs, at most one per job).  Results and ``on_epoch`` calls are taken
    in job order, at most one unread per worker, up to the first failure, which then raises."""
    data = list(data)
    if not data:
        raise ConfigError("training data is empty")
    tags = {tag for _, tag in data}
    if not all(isinstance(tag, str) for tag in tags):
        raise ConfigError("every training instance needs a tag")
    labels = sorted(tags)
    _check_labels(labels)
    jobs = [(config, label) for config in sorted(configs, key=lambda c: -c.k) for label in labels]
    W = process_count(len(jobs))
    queue, workers = _job_queue(len(jobs)) if W > 1 else None, []
    pulls = iter(range(len(jobs))) if queue is None else (
        int.from_bytes(record, "little") for record in iter(lambda: os.read(queue, 2), b""))
    try:
        def results(worker):  # its results, each read when the merge needs it; its death, kept
            try:
                yield from iter(worker.receive, ())
            except ChildProcessError as error:
                errors.append(error)
        while queue is not None and len(workers) < W - 1:
            workers.append(Forked("a training worker", _train_jobs, data, n, jobs, pulls))
        errors, models = [], []
        own = _train_jobs(data, n, jobs, pulls)[::-1]  # popped: a model the consumer drops is freed
        merged = heapq.merge(*map(results, workers), key=lambda r: r[0])  # read for jobs not in own
        for i, (_, label) in enumerate(jobs):
            index, calls, outcome = own.pop() if own[-1][:1] == (i,) else next(merged, (None,) * 3)
            if index != i:  # a worker died: the results still to come show what was delivered
                done = {index, *(result[0] for result in merged), *(mine[0] for mine in own[1:])}
                lost = dict.fromkeys(jobs[j][1] for j in range(i, len(jobs)) if j not in done)
                raise ChildProcessError(f"{errors[0]}, so labels {', '.join(lost)} have no model")
            for args in calls if on_epoch is not None else ():
                on_epoch(label, *args)
            if isinstance(outcome, Exception):
                raise outcome
            models.append(outcome)
            if len(models) == len(labels):
                yield OvAModel(labels, models)
                models = []
    finally:
        if queue is not None:
            os.close(queue)
        for worker in workers:
            worker.close()


def _job_queue(count: int):
    """The read end of a pipe holding the job indices 0 .. count - 1 as 2-byte records, or
    None when they overflow it or 2 bytes: written before any fork, they must never block."""
    import fcntl  # only here: where it is missing, nothing forks
    read_end, write_end = os.pipe()
    with open(write_end, "wb", buffering=0) as queue:
        if 2 * count <= min(fcntl.fcntl(write_end, fcntl.F_GETPIPE_SZ), 2 ** 17):
            queue.write(b"".join(i.to_bytes(2, "little") for i in range(count)))
            return read_end
    os.close(read_end)


def _train_jobs(data, n: int, jobs, pulls) -> list:
    """(index, ``on_epoch`` calls, outcome) of each job pulled, to the first failure; then ()."""
    results = []
    for i in pulls:
        config, label = jobs[i]
        binary = [(x, 1 if tag == label else -1) for x, tag in data]
        label_config = replace(config, seed=derive_seed(config.seed, "ova-label", label))
        calls = []
        try:
            results.append((i, calls, train_binary(binary, n, label_config,
                                                    on_epoch=lambda *args: calls.append(args))))
        except Exception as exc:  # raised in job order, also from a worker
            list(pulls)  # a failure empties the queue: no process starts another job
            error = ConfigError(f"label {label}: {exc}") if isinstance(exc, ConfigError) else exc
            return results + [(i, calls, sendable(error, f"label {label}: training")), ()]
    return results + [()]


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
