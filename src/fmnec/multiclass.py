"""One-vs-all multiclass wrapper around binary factorization machines, and its model file.

A model file (``FMOVA v2``) is a header, the label count, then per label its tag name line
and one ``FMMODEL v2`` block.  ``save_ova_model`` and ``load_ova_model`` are its one writer
and reader; a single binary machine is saved as a one-label ``OvAModel``.
"""

from __future__ import annotations

import base64
import copy
import heapq
import os
import pickle
import sys
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError
from .fm import FMModel, _Batch
from .train import TrainConfig, train_binary
from .util import LineCursor, atomic_write, derive_seed, first_bad_token, open_text

OVA_FORMAT_HEADER = "FMOVA v2"
MODEL_FORMAT_HEADER = "FMMODEL v2"  # each label's block


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
        """Raw scores of a batch of instances, ``SparseVector``s or one ``_Batch``, shape
        (instances, labels), columns in label order."""
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
        batch = _Batch.of(xs)
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
    data = _Batch.of(data, labeled=True)
    if not len(data):
        raise ConfigError("training data is empty")
    tags = set(data.labels)
    if not all(isinstance(tag, str) for tag in tags):
        raise ConfigError("every training instance needs a tag")
    labels = sorted(tags)
    _check_labels(labels)
    jobs = [(config, label) for config in sorted(configs, key=lambda c: -c.k) for label in labels]
    W = _process_count(len(jobs))
    queue, workers = _job_queue(len(jobs)) if W > 1 else None, []
    pulls = iter(range(len(jobs))) if queue is None else (
        int.from_bytes(record, "little") for record in iter(lambda: os.read(queue, 2), b""))
    try:
        while queue is not None and len(workers) < W - 1:
            workers.append(_Worker(data, n, jobs, pulls))
        models = []
        own = _train_jobs(data, n, jobs, pulls)[::-1]  # popped: a model the consumer drops is freed
        merged = heapq.merge(*workers, key=lambda r: r[0])  # read for jobs not in own
        for i, (_, label) in enumerate(jobs):
            mine = own and own[-1][0] == i
            index, calls, outcome = own.pop() if mine else next(merged, (None,) * 3)
            if index != i:  # a worker died: the results still to come show what was delivered
                done = {index, *(result[0] for result in [*merged, *own])}
                lost = dict.fromkeys(jobs[j][1] for j in range(i, len(jobs)) if j not in done)
                code = next(os.waitstatus_to_exitcode(w.status) for w in workers if w.status)
                raise ChildProcessError(f"a training worker exited with code {code} before sending "
                                        f"its results, so labels {', '.join(lost)} have no model")
            for args in calls if on_epoch is not None else ():
                on_epoch(label, *args)
            if isinstance(outcome, Exception):
                raise outcome
            models.append(outcome)
            if len(models) == len(labels):
                yield OvAModel(labels, models)
                models = []
        next(merged, None)  # every worker's stream ends: each is reaped, none is signalled
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


def _train_jobs(data: _Batch, n: int, jobs, pulls) -> list:
    """(index, ``on_epoch`` calls, outcome) of each job pulled, up to the first failure."""
    results = []
    for i in pulls:
        config, label = jobs[i]
        binary = copy.copy(data)  # the same arrays, shared by every job, under -1 and +1 labels
        binary.labels = [1 if tag == label else -1 for tag in data.labels]
        label_config = replace(config, seed=derive_seed(config.seed, "ova-label", label))
        calls = []
        try:
            results.append((i, calls, train_binary(binary, n, label_config,
                                                    on_epoch=lambda *args: calls.append(args))))
        except Exception as exc:  # raised in job order, also from a worker
            list(pulls)  # a failure empties the queue: no process starts another job
            error = ConfigError(f"label {label}: {exc}") if isinstance(exc, ConfigError) else exc
            try:  # one that pickle cannot send becomes one stated error at any process count
                pickle.loads(pickle.dumps(error))
            except Exception:  # unpickling runs the exception's own __init__: anything goes
                error = RuntimeError(f"label {label}: training raised {type(error).__name__}, "
                                     f"which cannot be sent between processes: {error}")
            return results + [(i, calls, error)]
    return results


def _process_count(job_count: int) -> int:
    """Processes to train on: one per usable CPU, at most one per job, and
    only this one in a multiprocessing daemon (a Pool worker), which its pool
    may end with no chance to end the daemon's own children."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    mp = sys.modules.get("multiprocessing")
    return 1 if mp is not None and mp.current_process().daemon else min(job_count, cpus)


class _Worker:
    """A forked process that runs ``_train_jobs(data, n, jobs, pulls)`` and pickles the results
    into a pipe.  Its exit ends them: its wait ``status``, once reaped, is 0 if all came through."""

    def __init__(self, data: _Batch, n: int, jobs, pulls):
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
                results = _train_jobs(data, n, jobs, pulls)
                with open(write_end, "wb") as out:
                    for result in results:
                        pickle.dump(result, out)
                code = 0
            finally:
                os._exit(code)
        os.close(write_end)  # the worker holds the only write end: its exit ends the pipe
        self.reader = open(read_end, "rb")

    def __iter__(self):
        """Each result, read with no copy beyond the arrays it holds; the end of the pipe reaps."""
        try:
            while True:
                yield pickle.load(self.reader)
        except (EOFError, pickle.UnpicklingError):
            self.reader.close()
            self.status = os.waitpid(self.pid, 0)[1]

    def close(self) -> None:
        if self.status is None:  # not reaped, so the pid is still this worker's
            import signal  # only here: commands that train nothing never load it
            self.reader.close()
            os.kill(self.pid, signal.SIGTERM)  # a worker still training has lost its caller
            self.status = os.waitpid(self.pid, 0)[1]


def save_ova_model(model: OvAModel, path) -> None:
    with atomic_write(path) as fh:
        fh.write(f"{OVA_FORMAT_HEADER}\n{len(model.labels)}\n")
        for label, member in zip(model.labels, model.models):
            fh.write(label + "\n")
            _write_block(fh, member)


def load_ova_model(path) -> OvAModel:
    """The model an FMOVA v2 file holds; nothing may follow its last block.  The file is
    parsed as it is read, so a load holds one array's line of text at a time."""
    with open_text(path) as fh:
        cursor = LineCursor(fh, path=str(path))
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
        labels, models = [], []
        for _ in range(count):
            labels.append(cursor.take("label name"))
            models.append(_read_block(cursor))
        try:
            model = OvAModel(labels, models)
        except ConfigError as exc:
            raise cursor.error(str(exc)) from None
        if not cursor.at_end():
            raise cursor.error("trailing content after model block")
    return model


def _write_block(fh, model: FMModel) -> None:
    """Emit the FMMODEL v2 text block: header, "n k", then w0, w and V (row-major), each one
    line of base64 of its little-endian float64 bytes."""
    fh.write(f"{MODEL_FORMAT_HEADER}\n{model.n} {model.k}\n")
    for array in (model.w0, model.w, model.V):  # no copy of the line just to end it
        fh.write(base64.b64encode(np.ascontiguousarray(array, "<f8")).decode("ascii"))
        fh.write("\n")


def _read_block(cursor: LineCursor) -> FMModel:
    """Parse one FMMODEL v2 block starting at the cursor position."""
    header = cursor.take("model header")
    if header != MODEL_FORMAT_HEADER:
        raise cursor.error(f"expected {MODEL_FORMAT_HEADER!r} header, got {header!r}")
    dims = cursor.take("model dimensions").split()
    try:
        n, k = (int(part) for part in dims)
    except ValueError:
        raise cursor.error("dimension line must hold two integers: n k") from None
    if n < 0 or k < 0:
        raise cursor.error("model dimensions must be non-negative")
    w0 = _take_array(cursor, "bias", 1)[0]
    w = _take_array(cursor, "linear weights", n)
    V = _take_array(cursor, "factor matrix", n * k)
    try:
        return FMModel(w0, w, V.reshape(n, k))
    except ValueError as exc:
        raise cursor.error(str(exc)) from None


def _take_array(cursor: LineCursor, what: str, count: int) -> np.ndarray:
    """The next line as ``count`` float64 values; the length is checked before anything is
    allocated beyond the line, so a bogus ``n k`` costs nothing."""
    line = cursor.take(what)
    try:
        raw = base64.b64decode(line, validate=True)
    except ValueError:  # binascii.Error, and a non-ASCII character
        raise cursor.error(f"invalid base64 in {what}") from None
    if len(raw) != 8 * count:
        got = len(raw) // 8 if len(raw) % 8 == 0 else f"{len(raw)} bytes"
        raise cursor.error(f"expected {count} values for {what}, got {got}")
    return np.frombuffer(raw, "<f8")
