"""One-vs-all multiclass wrapper around binary factorization machines."""

from __future__ import annotations

import os
import pickle
import sys
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError
from .fm import FMModel, _Batch, _load_model_file, read_fm_model, write_fm_model
from .train import TrainConfig, train_binary
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
    result is reproducible and independent of tag order in ``data``.  With W usable
    CPUs, at most one per label, this process trains ``labels[0::W]`` (``_train_configs``).
    ``on_epoch``, when given, receives (label, epoch index, mean loss).
    A diverging label raises ``ConfigError`` naming the label and the epoch.
    """
    [model] = _train_configs(data, n, [config], on_epoch)
    return model


def _train_configs(data, n: int, configs, on_epoch=None):
    """Yield each config's ``OvAModel`` once its labels are in.  Jobs are (config, label)
    pairs, longest k first (stable).  With W usable CPUs, at most one per job, this process
    trains ``jobs[0::W]`` and W - 1 workers, forked once, each other stride.  The first
    failure in job order raises, after the ``on_epoch`` calls of every job up to it."""
    data = list(data)
    if not data:
        raise ConfigError("training data is empty")
    tags = {tag for _, tag in data}
    if not all(isinstance(tag, str) for tag in tags):
        raise ConfigError("every training instance needs a tag")
    labels = sorted(tags)
    _check_labels(labels)
    jobs = [(config, label) for config in sorted(configs, key=lambda c: -c.k) for label in labels]
    W = _process_count(len(jobs))
    workers = []
    try:
        for w in range(1, W):
            workers.append(_Worker(data, n, jobs[w::W]))
        own = _train_jobs(data, n, jobs[0::W])  # popped: a model the consumer drops is freed
        models = []
        for i, (_, label) in enumerate(jobs):
            calls, outcome = own.pop(0) if i % W == 0 else workers[i % W - 1].receive()
            for args in calls if on_epoch is not None else ():
                on_epoch(label, *args)
            if isinstance(outcome, Exception):
                raise outcome
            models.append(outcome)
            if len(models) == len(labels):
                yield OvAModel(labels, models)
                models = []
    finally:
        for worker in workers:
            worker.close()


def _train_jobs(data, n: int, jobs) -> list:
    """(``on_epoch`` arguments, model or exception) of each job, up to the first failure."""
    results = []
    for config, label in jobs:
        binary = [(x, 1 if tag == label else -1) for x, tag in data]
        label_config = replace(config, seed=derive_seed(config.seed, "ova-label", label))
        calls = []
        try:
            results.append((calls, train_binary(binary, n, label_config,
                                                 on_epoch=lambda *args: calls.append(args))))
        except ConfigError as exc:
            return results + [(calls, ConfigError(f"label {label}: {exc}"))]
        except Exception as exc:  # raised in job order, also from a worker
            try:  # one that pickle cannot send becomes one stated error, whatever W is
                pickle.loads(pickle.dumps(exc))
            except Exception:  # unpickling runs the exception's own __init__: anything goes
                exc = RuntimeError(f"label {label}: training raised {type(exc).__name__}, "
                                   f"which cannot be sent between processes: {exc}")
            return results + [(calls, exc)]
    return results


def _process_count(job_count: int) -> int:
    """Processes to train on: one per usable CPU, at most one per job, and
    only this one in a multiprocessing daemon (a Pool worker), which its pool
    may end with no chance to end the daemon's own children."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    mp = sys.modules.get("multiprocessing")
    return 1 if mp is not None and mp.current_process().daemon else min(job_count, cpus)


class _Worker:
    """A forked process that trains ``jobs``, then pickles their results into a pipe."""

    def __init__(self, data, n: int, jobs):
        self.labels = list(dict.fromkeys(label for _, label in jobs))
        self.status = None  # the wait status, once reaped
        read_end, write_end = os.pipe()
        # Python >= 3.12 warns that forking with threads alive may deadlock the child.
        # Ours are OpenBLAS's, which stops its pool around fork (pthread_atfork); the
        # child runs single-threaded numpy on data it only reads, and its models came
        # out bit-identical with them alive.
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "This process", DeprecationWarning)
            self.pid = os.fork()
        if self.pid == 0:  # the worker ends here, whatever happens: no traceback, no stdio flush
            code = 1
            try:
                os.close(read_end)
                # every job trains before the first write: a full pipe must not stall training
                results = _train_jobs(data, n, jobs)
                with open(write_end, "wb") as out:
                    for result in results:
                        pickle.dump(result, out)
                code = 0
            finally:
                os._exit(code)
        os.close(write_end)  # the worker holds the only write end: its exit ends the pipe
        self.reader = open(read_end, "rb")

    def receive(self):
        """The next result, read with no copy beyond the arrays it holds."""
        try:
            return pickle.load(self.reader)
        except (EOFError, pickle.UnpicklingError):
            self.reader.close()
            self.status = os.waitpid(self.pid, 0)[1]
            raise ChildProcessError(
                f"the training worker for labels {', '.join(self.labels)} exited with code "
                f"{os.waitstatus_to_exitcode(self.status)} before sending its results"
            ) from None

    def close(self) -> None:
        if self.status is None:  # not reaped, so the pid is still this worker's
            import signal  # only here: commands that train nothing never load it

            self.reader.close()
            os.kill(self.pid, signal.SIGTERM)  # a worker still training has lost its caller
            self.status = os.waitpid(self.pid, 0)[1]


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
