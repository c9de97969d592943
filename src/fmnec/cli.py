"""Command-line pipeline: prepare, stats, train, predict, eval, sweep-k.

Exit codes: 0 success, 1 usage or configuration error, 2 data error.
All file writes are atomic, so interrupted runs never leave partial
artifacts at their target paths.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from urllib.parse import quote

import numpy as np

from . import __version__
from .corpus import (
    NEGATIVE_TAG,
    corpus_stats,
    extract_candidates,
    filter_unknown,
    format_stats_table,
    parse_column_file,
    read_candidates_tsv,
    write_candidates_tsv,
)
from .errors import ConfigError, DataFormatError
from .evaluate import (
    _pct,
    evaluate,
    format_confusion_tsv,
    format_pr_curve_tsv,
    format_report,
    format_report_tsv,
    format_sweep_tsv,
    pr_curve,
    sweep_configs,
    sweep_k,
)
from .features import FeatureSpace
from .fm import _Batch
from .multiclass import load_ova_model, save_ova_model, train_ova
from .train import LOSS_KINDS, TrainConfig
from .util import G17, atomic_write, open_text

log = logging.getLogger("fmnec")

MODEL_FILE = "ova_model.txt"
SPACE_FILE = "feature_space.txt"
REPORT_TXT = "report.txt"
REPORT_TSV = "report.tsv"
CONFUSION_TSV = "confusion.tsv"


class _Parser(argparse.ArgumentParser):
    # flags are spelled out in full, so a new flag cannot change an existing command line
    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    # argparse exits 2 on usage errors by default; this tool reserves 2 for
    # data errors, so usage problems are remapped to exit code 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_train_flags(sp):
    """Every TrainConfig field but k, each flag's dest its field name."""
    sp.add_argument("--lr", dest="learning_rate", metavar="LR", type=float,
                    help="SGD learning rate")
    sp.add_argument("--reg-w", type=float, help="L2 coefficient for linear weights")
    sp.add_argument("--reg-v", type=float, help="L2 coefficient for factor rows")
    sp.add_argument("--epochs", type=int)
    sp.add_argument("--init-sd", type=float, help="std-dev of factor initialization")
    sp.add_argument("--seed", type=int)
    sp.add_argument("--loss", choices=LOSS_KINDS)


def _train_config(args) -> TrainConfig:
    """TrainConfig's own defaults, overridden by every training flag given."""
    given = {name: getattr(args, name, None) for name in TrainConfig.__dataclass_fields__}
    return TrainConfig(**{name: value for name, value in given.items() if value is not None})


def _require_files(*paths):
    for path in paths:
        if not os.path.isfile(path):
            raise ConfigError(f"input file not found: {path}")


def _check_out_file(path):
    """An output file path must not be a directory and must sit in one that exists."""
    if os.path.isdir(path):
        raise ConfigError(f"--out must name a file, not a directory: {path}")
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise ConfigError(f"--out is in a directory that does not exist: {path}")


def _check_out_dir(path):
    """An output directory path must not be an existing file."""
    if os.path.exists(path) and not os.path.isdir(path):
        raise ConfigError(f"--out must name a directory, not a file: {path}")


def _read_candidates(path, need_gold=False):
    _require_files(path)
    candidates = read_candidates_tsv(path)
    if not candidates:
        raise ConfigError(f"candidates file is empty: {path}")
    if need_gold and any(c.gold_tag is None for c in candidates):
        with open_text(path) as fh:  # the first untagged row: its tag field is empty
            line = next(pos for pos, row in enumerate(fh, 1) if row.startswith("\t"))
        raise DataFormatError("every candidate needs a gold tag here", path=str(path), line=line)
    return candidates


def _scored(args, need_gold=False):
    """The model, the candidates' gold tags and their scores.  The model, the space and the
    candidates are read in that order, so the error raised is the first a sequential read meets."""
    _require_files(args.model, args.space)
    model = load_ova_model(args.model)
    space = FeatureSpace.load(args.space)
    if model.n != len(space):
        raise ConfigError(f"model dimension {model.n} does not match "
                          f"feature space size {len(space)}")
    batch = _vectorized(space, _read_candidates(args.candidates, need_gold))
    with np.errstate(over="ignore", invalid="ignore"):  # huge parameters: refused just below
        scores = model.predict_scores(batch)
    if not np.isfinite(scores).all():
        raise DataFormatError("the model's scores overflow: its parameters are too large",
                              path=args.model)
    return model, batch.labels, scores


def _vectorized(space, candidates) -> _Batch:
    """The candidates' batch labeled with their gold tags: all a command keeps of them."""
    return _Batch(*space.vectorize_batch(candidates), labels=[c.gold_tag for c in candidates])


def _training_set(path):
    """The feature space fitted on a gold candidates file and its tagged batch; the candidates
    are freed on return."""
    candidates = _read_candidates(path, need_gold=True)
    space = FeatureSpace.fit(candidates)
    return space, _vectorized(space, candidates)


def cmd_prepare(args):
    _check_out_dir(args.out)
    _require_files(args.train, *(p for p in (args.dev, args.test) if p))
    train_candidates = extract_candidates(
        parse_column_file(args.train, args.token_col, args.tag_col)
    )
    if not train_candidates:
        raise ConfigError(f"no candidates found in {args.train}")
    outputs = {"train": train_candidates}
    stats = {"training": corpus_stats(train_candidates)}
    for split, path in (("dev", args.dev), ("test", args.test)):
        if not path:
            continue
        raw = extract_candidates(parse_column_file(path, args.token_col, args.tag_col))
        kept = filter_unknown(raw, train_candidates)
        log.info("%s: %d candidates, %d kept by the unknown filter", split, len(raw), len(kept))
        outputs[split] = kept
        stats[split] = corpus_stats(kept)
    # every split is read before the first file is written, so a bad input
    # leaves no outputs behind
    os.makedirs(args.out, exist_ok=True)
    for split, candidates in outputs.items():
        write_candidates_tsv(os.path.join(args.out, f"{split}.candidates.tsv"), candidates)
    print(format_stats_table(stats))
    return 0


def cmd_stats(args):
    stats = {}
    for path in args.candidates:
        candidates = _read_candidates(path, need_gold=True)
        stats[os.path.basename(path)] = corpus_stats(candidates)
    print(format_stats_table(stats))
    return 0


def cmd_train(args):
    _check_out_dir(args.out)
    config = _train_config(args)
    space, data = _training_set(args.candidates)

    def on_epoch(label, epoch, mean_loss):
        log.info("label %s epoch %d mean loss %.6f", label, epoch + 1, mean_loss)

    model = train_ova(data, len(space), config, on_epoch=on_epoch)
    os.makedirs(args.out, exist_ok=True)
    model_path = os.path.join(args.out, MODEL_FILE)
    space_path = os.path.join(args.out, SPACE_FILE)
    save_ova_model(model, model_path)
    space.save(space_path)
    log.info("wrote %s and %s", model_path, space_path)
    return 0


def cmd_predict(args):
    _check_out_file(args.out)
    model, gold, scores = _scored(args)
    preds = model.best_labels(scores)
    row = "%s\t%s" + ("\t" + G17) * len(model.labels) + "\n"
    with atomic_write(args.out) as fh:
        fh.write("# pred\tgold\t" + "\t".join(model.labels) + "\n")
        fh.writelines(
            row % (pred, tag or "", *values)
            for pred, tag, values in zip(preds, gold, scores.tolist())
        )
    return 0


def _pr_curve_files(model, gold, scores) -> dict[str, str]:
    """File name -> text of the PR curve of every entity tag with gold instances."""
    files = {}
    for col, label in enumerate(model.labels):
        if label == NEGATIVE_TAG:
            continue
        flags = [tag == label for tag in gold]
        if not any(flags):
            log.warning("no gold %s instances, skipping its PR curve", label)
            continue
        points = pr_curve(list(zip(scores[:, col].tolist(), flags)))
        # percent-encoding keeps every tag's file name distinct and free of "/"
        files[f"pr_{quote(label, safe='')}.tsv"] = format_pr_curve_tsv(points)
    if not files:
        raise ConfigError("no entity tag has gold instances; nothing to plot")
    return files


def cmd_eval(args):
    _check_out_dir(args.out)
    model, gold, scores = _scored(args, need_gold=True)
    report = evaluate(gold, model.best_labels(scores))
    # every output is built before the first file is written, so a failing
    # eval leaves no outputs behind
    text = format_report(report)
    files = {
        REPORT_TXT: text + "\n",
        REPORT_TSV: format_report_tsv(report),
        CONFUSION_TSV: format_confusion_tsv(report),
    }
    if args.pr_curves:
        files.update(_pr_curve_files(model, gold, scores))
    os.makedirs(args.out, exist_ok=True)
    for name, content in files.items():
        with atomic_write(os.path.join(args.out, name)) as fh:
            fh.write(content)
    print(text)
    return 0


def cmd_sweep_k(args):
    _check_out_file(args.out)
    try:
        k_values = [int(part) for part in args.k_values.split(",") if part.strip()]
    except ValueError:
        raise ConfigError(f"--k-values must be comma-separated integers: {args.k_values!r}") from None
    config = _train_config(args)
    sweep_configs(k_values, config)  # every config is checked before any input is read
    space, train = _training_set(args.train)
    dev = _vectorized(space, _read_candidates(args.dev, need_gold=True))
    results = sweep_k(train, dev, len(space), k_values, config)
    with atomic_write(args.out) as fh:
        fh.write(format_sweep_tsv(results))
    for k, f1 in results:
        print(f"k={k}\tmicro_f1={_pct(f1)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fmnec",
        description="Sparse named-entity candidate classification with "
        "degree-2 factorization machines.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser,
                                metavar="command")

    sp = sub.add_parser("prepare", help="extract candidates from column corpora, filter unknowns")
    sp.add_argument("--train", required=True, help="training corpus (column format)")
    sp.add_argument("--dev", help="development corpus")
    sp.add_argument("--test", help="test corpus")
    sp.add_argument("--token-col", type=int, default=0, help="token column index")
    sp.add_argument("--tag-col", type=int, default=3, help="BIO tag column index")
    sp.add_argument("--out", required=True, help="output directory for candidates files")
    sp.set_defaults(func=cmd_prepare)

    sp = sub.add_parser("stats", help="print token/type counts for candidates files")
    sp.add_argument("candidates", nargs="+", help="candidates TSV files")
    sp.set_defaults(func=cmd_stats)

    sp = sub.add_parser("train", help="fit the feature space and train the multiclass model")
    sp.add_argument("--candidates", required=True, help="training candidates TSV")
    sp.add_argument("--k", type=int, help="factorization dimension (0 = linear)")
    _add_train_flags(sp)
    sp.add_argument("--out", required=True, help="output directory for model and feature space")
    sp.set_defaults(func=cmd_train)

    sp = sub.add_parser("predict", help="tag candidates with a trained model")
    sp.add_argument("--model", required=True)
    sp.add_argument("--space", required=True)
    sp.add_argument("--candidates", required=True)
    sp.add_argument("--out", required=True, help="output predictions TSV")
    sp.set_defaults(func=cmd_predict)

    sp = sub.add_parser("eval", help="evaluate a trained model on gold candidates")
    sp.add_argument("--model", required=True)
    sp.add_argument("--space", required=True)
    sp.add_argument("--candidates", required=True)
    sp.add_argument("--pr-curves", action="store_true", help="also write per-tag PR curves")
    sp.add_argument("--out", required=True, help="output directory for report files")
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("sweep-k", help="train per k value and report dev micro-F1")
    sp.add_argument("--train", required=True, help="training candidates TSV")
    sp.add_argument("--dev", required=True, help="development candidates TSV")
    sp.add_argument("--k-values", required=True,
                    help="comma-separated distinct k values, e.g. 0,1,2,5,8")
    _add_train_flags(sp)
    sp.add_argument("--out", required=True, help="output two-column TSV")
    sp.set_defaults(func=cmd_sweep_k)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    logging.basicConfig(level=logging.INFO, format="%(message)s", stream=sys.stderr)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DataFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
