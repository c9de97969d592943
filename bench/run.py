#!/usr/bin/env python3
"""Benchmark of the fmnec pipeline on a seeded synthetic CoNLL-style corpus.

Run from the root of a checkout:

    python3 bench/run.py --workload pipeline --seed 1 --seconds 20 --trace 0

Workloads (see bench/README.md for why each exists):

* ``pipeline``     prepare -> train -> eval --pr-curves, corpus generated in set-up
* ``train-sweep``  sweep-k --k-values 0,5,16 on candidates prepared in set-up
* ``score-large``  predict and eval --pr-curves on a large held-out set, with
                   the model trained in set-up

With ``--trace 0`` each pass of the workload runs the real CLI, one
subprocess per command, and the end-to-end metrics are medians over the
passes that fit in ``--seconds``.  With ``--trace 1`` the same commands run
in this process through ``fmnec.cli.main``, alternating untraced passes
with passes whose public package functions are wrapped by
:mod:`spans`; the per-layer metrics come from the traced pass of median
wall time.

Every command must exit 0 and every output check must hold; a failure is
counted, never fatal.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
line before it is a JSON record of the environment, the corpus tallies and
digests, and every command run.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import hashlib
import json
import logging
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_work")

# children (and this process, which re-executes itself with them) run
# single-threaded BLAS and a fixed hash seed, so a small machine measures
# the program rather than the scheduler
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

TRAIN_FLAGS = ["--k", "5", "--epochs", "1", "--seed", "42"]
SWEEP_K = (0, 5, 16)
SETUP_REPEATS = 3

# Corpus sizes as multiples of the CoNLL-2003 sentence counts, chosen so a
# run (set-up plus --seconds of passes) stays well under a minute on two
# cores.  ``--size`` scales all of them (toy runs in the tests).
SIZES = {
    "pipeline": {"scale": 0.2},
    "train-sweep": {"scale": 0.2},
    "score-large": {"scale": 0.2, "test_scale": 1.5},
}

END_TO_END = {
    "setup_s": "s",
    "e2e_s": "s",
    "micro_f1": "%",
    "peak_rss_mb": "MB",
}


def _sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _count_lines(path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for line in fh if line.strip())


def _candidate_tags(path) -> set[str]:
    with open(path, encoding="utf-8") as fh:
        return {line.split("\t", 1)[0] for line in fh if line.strip()}


def _report_micro_f1(report_tsv) -> float:
    with open(report_tsv, encoding="utf-8") as fh:
        for line in fh:
            cells = line.rstrip("\n").split("\t")
            if cells[0] == "micro":
                return float(cells[3])
    raise ValueError(f"no micro row in {report_tsv}")


def _sweep_f1(sweep_tsv) -> dict[int, float]:
    with open(sweep_tsv, encoding="utf-8") as fh:
        rows = [line.rstrip("\n").split("\t") for line in fh][1:]
    return {int(k): float(f1) for k, f1 in rows}


class Run:
    """One benchmark run: its work directory, command log, checks and records."""

    def __init__(self, workload: str, seed: int, size: float):
        self.workload = workload
        self.seed = seed
        self.sizes = {key: value * size for key, value in SIZES[workload].items()}
        self.work = os.path.join(WORK_ROOT, f"{workload}-{seed}-{os.getpid()}")
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        self.log_path = os.path.join(self.work, "commands.log")
        self.commands: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.details: dict = {}  # what the run record reports beyond the commands
        self.env = {**os.environ, **PINNED_ENV}
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC, os.environ.get("PYTHONPATH")) if p
        )

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok

    def cli(self, argv, phase: str) -> dict:
        """Run one ``fmnec`` command as a child process; record wall time and RSS."""
        cmd = [sys.executable, "-m", "fmnec.cli", *argv]
        with open(self.log_path, "ab") as log:
            log.write(("$ fmnec " + " ".join(argv) + "\n").encode())
            log.flush()
            start = time.perf_counter()
            child = subprocess.Popen(cmd, cwd=self.work, env=self.env, stdout=log, stderr=log)
            _, status, usage = os.wait4(child.pid, 0)
            wall = time.perf_counter() - start
        child.returncode = os.waitstatus_to_exitcode(status)
        record = {
            "phase": phase,
            "argv": argv,
            "wall_s": wall,
            "rss_mb": usage.ru_maxrss / 1024.0,
            "exit": child.returncode,
        }
        self.commands.append(record)
        self.check(child.returncode == 0, f"fmnec {argv[0]} exited {child.returncode}")
        return record

    def in_process(self, argv, tracer=None) -> float:
        """Run one command through ``fmnec.cli.main`` in this process and
        return the wall time of that call; with a tracer it is a root span."""
        import fmnec.cli

        with open(self.log_path, "a", encoding="utf-8") as log, contextlib.redirect_stdout(log):
            log.write("$ fmnec " + " ".join(argv) + "  (in process)\n")
            start = time.perf_counter()
            try:
                if tracer is None:
                    code = fmnec.cli.main(argv)
                else:
                    name = "cli." + argv[0].replace("-", "_")
                    code = tracer.call(name, fmnec.cli.main, (argv,), {})
            except Exception:  # a crash is a failed command, not a failed benchmark
                traceback.print_exc(file=log)
                code = -1
            wall = time.perf_counter() - start
        self.check(code == 0, f"fmnec {argv[0]} (in process) returned {code}")
        return wall

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still holds another run's directory
            os.rmdir(WORK_ROOT)


# -- workloads -------------------------------------------------------------
#
# A workload has a set-up (repeated SETUP_REPEATS times in a timed run, its
# median wall time is ``setup_s``) and a pass: the list of CLI commands the
# timed part repeats.


def _generate(run: Run, out_dir) -> dict:
    import corpus_gen

    return corpus_gen.generate(
        out_dir, run.seed, run.sizes["scale"], run.sizes.get("test_scale")
    )


def _prepare_argv(corpus_dir, out_dir):
    return [
        "prepare",
        "--train", os.path.join(corpus_dir, "train.txt"),
        "--dev", os.path.join(corpus_dir, "dev.txt"),
        "--test", os.path.join(corpus_dir, "test.txt"),
        "--out", out_dir,
    ]


def _model_argv(model_dir, candidates):
    return [
        "--model", os.path.join(model_dir, "ova_model.txt"),
        "--space", os.path.join(model_dir, "feature_space.txt"),
        "--candidates", candidates,
    ]


def setup(run: Run, index: int) -> dict:
    """Build the workload's inputs under a fresh directory; return their paths."""
    base = os.path.join(run.work, f"setup{index}")
    corpus_dir = os.path.join(base, "corpus")
    state = {"dir": base, "corpus_dir": corpus_dir, "corpus": _generate(run, corpus_dir)}
    if run.workload in ("train-sweep", "score-large"):
        prep = os.path.join(base, "prep")
        run.cli(_prepare_argv(corpus_dir, prep), "setup")
        state["prep"] = prep
    if run.workload == "score-large":
        model_dir = os.path.join(base, "model")
        run.cli(
            ["train", "--candidates", os.path.join(prep, "train.candidates.tsv"),
             *TRAIN_FLAGS, "--out", model_dir],
            "setup",
        )
        state["model_dir"] = model_dir
    return state


def pass_commands(run: Run, state: dict, out: str) -> list[list[str]]:
    """The commands of one pass, writing under ``out`` (created here: the
    CLI writes single output files without creating their directory)."""
    os.makedirs(out)
    if run.workload == "pipeline":
        prep = os.path.join(out, "prep")
        model_dir = os.path.join(out, "model")
        return [
            _prepare_argv(state["corpus_dir"], prep),
            ["train", "--candidates", os.path.join(prep, "train.candidates.tsv"),
             *TRAIN_FLAGS, "--out", model_dir],
            ["eval", *_model_argv(model_dir, os.path.join(prep, "dev.candidates.tsv")),
             "--pr-curves", "--out", os.path.join(out, "eval")],
        ]
    if run.workload == "train-sweep":
        prep = state["prep"]
        return [
            ["sweep-k",
             "--train", os.path.join(prep, "train.candidates.tsv"),
             "--dev", os.path.join(prep, "dev.candidates.tsv"),
             "--k-values", ",".join(map(str, SWEEP_K)),
             *TRAIN_FLAGS[2:], "--out", os.path.join(out, "k_sweep.tsv")],
        ]
    test = os.path.join(state["prep"], "test.candidates.tsv")
    return [
        ["predict", *_model_argv(state["model_dir"], test),
         "--out", os.path.join(out, "predictions.tsv")],
        ["eval", *_model_argv(state["model_dir"], test),
         "--pr-curves", "--out", os.path.join(out, "eval")],
    ]


def _prepared_dir(run: Run, state: dict, out: str) -> str:
    return os.path.join(out, "prep") if run.workload == "pipeline" else state["prep"]


def _eval_candidates(run: Run, prep: str) -> str:
    split = "test" if run.workload == "score-large" else "dev"
    return os.path.join(prep, f"{split}.candidates.tsv")


def check_pass(run: Run, state: dict, out: str) -> dict:
    """Check one pass's outputs; return its quality numbers (micro-F1 in %)."""
    prep = _prepared_dir(run, state, out)
    result: dict = {}
    try:
        if run.workload == "train-sweep":
            f1 = _sweep_f1(os.path.join(out, "k_sweep.tsv"))
            run.check(sorted(f1) == sorted(SWEEP_K), f"k_sweep.tsv rows {sorted(f1)}")
            result["micro_f1"] = f1.get(5, 0.0)
            result.update({f"micro_f1.k{k}": v for k, v in f1.items()})
            return result
        eval_dir = os.path.join(out, "eval")
        result["micro_f1"] = _report_micro_f1(os.path.join(eval_dir, "report.tsv"))
        tags = _candidate_tags(_eval_candidates(run, prep)) - {"O"}
        curves = {os.path.basename(p)[3:-4] for p in glob.glob(os.path.join(eval_dir, "pr_*.tsv"))}
        run.check(curves == tags, f"PR curve files {sorted(curves)} for tags {sorted(tags)}")
        if run.workload == "score-large":
            rows = _count_lines(os.path.join(out, "predictions.tsv")) - 1  # header line
            want = _count_lines(_eval_candidates(run, prep))
            run.check(rows == want, f"{rows} prediction rows for {want} candidates")
    except (OSError, ValueError, IndexError) as exc:
        run.check(False, f"pass outputs unreadable: {exc}")
    return result


def check_model(run: Run, model_dir: str) -> None:
    """The saved model and feature space must load and agree on dimension."""
    from fmnec import FeatureSpace, load_ova_model

    try:
        model = load_ova_model(os.path.join(model_dir, "ova_model.txt"))
        space = FeatureSpace.load(os.path.join(model_dir, "feature_space.txt"))
        run.check(model.n == len(space), f"model n={model.n} vs space size {len(space)}")
    except Exception as exc:  # any load failure is a failed check
        run.check(False, f"saved model or space does not load: {exc}")


# -- timed run (--trace 0) -------------------------------------------------


def timed_run(run: Run, seconds: float) -> dict:
    setups = []
    state = None
    for index in range(SETUP_REPEATS):
        start = time.perf_counter()
        new_state = setup(run, index)
        setups.append(time.perf_counter() - start)
        if state is not None:
            same = new_state["corpus"] == state["corpus"] and _tree_digest(new_state) == _tree_digest(state)
            run.check(same, f"set-up {index} differs from set-up 0 (generator or CLI not deterministic)")
            shutil.rmtree(state["dir"], ignore_errors=True)
        state = new_state
    if "model_dir" in state:
        check_model(run, state["model_dir"])

    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        out = os.path.join(run.work, f"pass{len(passes)}")
        records = [run.cli(argv, "pass") for argv in pass_commands(run, state, out)]
        passes.append({"records": records, "quality": check_pass(run, state, out)})
        if len(passes) == 1 and run.workload == "pipeline":
            check_model(run, os.path.join(out, "model"))
        shutil.rmtree(out, ignore_errors=True)

    f1s = [p["quality"].get("micro_f1") for p in passes]
    run.check(len(set(f1s)) == 1, f"micro_f1 differs across passes: {f1s}")

    metrics = {
        "setup_s": statistics.median(setups),
        "e2e_s": statistics.median(sum(r["wall_s"] for r in p["records"]) for p in passes),
        "micro_f1": f1s[0] or 0.0,
        "peak_rss_mb": max(r["rss_mb"] for r in run.commands),
    }
    run.details = {
        "corpus": state["corpus"],
        "setup_s": setups,
        "passes": len(passes),
        "quality": passes[0]["quality"],
    }
    return metrics


def _tree_digest(state: dict) -> str:
    """Digest of every file a set-up produced, by relative path."""
    digest = hashlib.sha256()
    base = state["dir"]
    for path in sorted(glob.glob(os.path.join(base, "**", "*"), recursive=True)):
        if os.path.isfile(path):
            digest.update(os.path.relpath(path, base).encode())
            digest.update(_sha256(path).encode())
    return digest.hexdigest()


# -- traced run (--trace 1) ------------------------------------------------


def traced_run(run: Run, seconds: float) -> dict:
    import layers

    state = setup(run, 0)
    root = logging.getLogger()
    log = open(os.path.join(run.work, "in_process.log"), "a", encoding="utf-8")
    handler = logging.StreamHandler(log)
    root.addHandler(handler)
    root.setLevel(logging.INFO)
    plain_walls: list[float] = []
    traced: list[dict] = []
    quality: list[dict] = []
    try:
        start = time.perf_counter()
        while not traced or time.perf_counter() - start < seconds:
            index = len(traced)
            out = os.path.join(run.work, f"plain{index}")
            plain_walls.append(sum(run.in_process(argv) for argv in pass_commands(run, state, out)))
            quality.append(check_pass(run, state, out))
            shutil.rmtree(out, ignore_errors=True)

            out = os.path.join(run.work, f"traced{index}")
            before = layers.snapshot()
            traced.append(layers.traced_pass(run, pass_commands(run, state, out)))
            run.check(layers.snapshot() == before, "wrappers left in place after the traced pass")
            quality.append(check_pass(run, state, out))
            if index:
                shutil.rmtree(out, ignore_errors=True)
    finally:
        root.removeHandler(handler)
        log.close()

    f1s = [q.get("micro_f1") for q in quality]
    run.check(len(set(f1s)) == 1, f"micro_f1 differs between plain and traced passes: {f1s}")
    walls = [t["trace.wall_s"] for t in traced]
    metrics = sorted(traced, key=lambda t: t["trace.wall_s"])[len(traced) // 2]
    for problem in metrics.pop("problems"):
        run.check(False, problem)
    metrics["trace.overhead_s"] = statistics.median(walls) - statistics.median(plain_walls)
    metrics["features.unknown_rate"] = _unknown_rate(run, state, os.path.join(run.work, "traced0"))
    for k in SWEEP_K:
        metrics[f"micro_f1.k{k}"] = quality[0].get(f"micro_f1.k{k}", 0.0)
    run.details = {"corpus": state["corpus"], "passes": len(traced), "quality": quality[0]}
    return metrics


def _unknown_rate(run: Run, state: dict, out: str) -> float:
    """Unknown-feature rate of the eval candidates under the space the
    workload's model uses (sweep-k fits its space on the training file)."""
    import layers
    from fmnec import FeatureSpace, read_candidates_tsv

    prep = _prepared_dir(run, state, out)
    try:
        if run.workload == "train-sweep":
            space = FeatureSpace.fit(read_candidates_tsv(os.path.join(prep, "train.candidates.tsv")))
        else:
            model_dir = state.get("model_dir") or os.path.join(out, "model")
            space = FeatureSpace.load(os.path.join(model_dir, "feature_space.txt"))
        return layers.unknown_rate(space, read_candidates_tsv(_eval_candidates(run, prep)))
    except (OSError, ValueError) as exc:  # the package's data errors are ValueErrors
        run.check(False, f"feature space or eval candidates unreadable: {exc}")
        return 0.0


# -- entry point -----------------------------------------------------------


def environment_record(args) -> dict:
    import numpy as np

    source = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "fmnec", "*.py"))):
        source.update(os.path.basename(path).encode())
        source.update(_sha256(path).encode())
    blas = "unknown"
    with contextlib.suppress(Exception):  # show_config layout varies by numpy version
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    return {
        "commit": _git_head(),
        "source_sha256": source.hexdigest(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": blas,
        "pinned_env": PINNED_ENV,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "sizes": {key: value * args.size for key, value in SIZES[args.workload].items()},
        "train_flags": TRAIN_FLAGS,
        "sweep_k": list(SWEEP_K),
    }


def _git_head() -> str:
    """The checked-out commit, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="fmnec benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", type=float, default=1.0,
                        help="multiply every corpus size (toy runs in the tests)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "fmnec", "cli.py")):
        print(f"error: no fmnec sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    if any(os.environ.get(key) != value for key, value in PINNED_ENV.items()):
        sys.stdout.flush()
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]],
                  {**os.environ, **PINNED_ENV})
    sys.path.insert(0, SRC)
    import fmnec

    if os.path.dirname(os.path.abspath(fmnec.__file__)) != os.path.join(SRC, "fmnec"):
        print(f"error: imported fmnec from {fmnec.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed, args.size)
    try:
        if args.trace:
            import layers

            metrics = traced_run(run, args.seconds)
            units = layers.PER_LAYER_UNITS
        else:
            metrics = timed_run(run, args.seconds)
            units = END_TO_END
    finally:
        run.close()
    for problem in run.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    record = {
        "environment": environment_record(args),
        **run.details,
        "commands": run.commands,
        "problems": run.problems,
    }
    print(json.dumps({"record": record}, sort_keys=True))
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
