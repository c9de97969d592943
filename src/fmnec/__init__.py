"""Sparse named-entity candidate classification with degree-2 factorization machines.

The package covers the full experimental pipeline: ingestion of
column-formatted BIO corpora, candidate extraction with an unknown-surface
filter, feature templates over candidate spans and sentence contexts,
hinge-loss SGD training of binary factorization machines, a one-vs-all
multiclass wrapper, and evaluation utilities (per-tag and micro-averaged
precision/recall/F1, confusion matrices, precision-recall curves, and
factorization-dimension sweeps).
"""

__version__ = "0.1.0"

from .errors import ConfigError, DataFormatError, DimensionMismatchError
from .fm import FMModel, SparseVector, load_fm_model, save_fm_model
from .train import TrainConfig, init_model, loss_value, sgd_step, train_binary
from .multiclass import OvAModel, load_ova_model, save_ova_model, train_ova
from .features import Candidate, FeatureSpace, extract_features
from .corpus import (
    CorpusStats,
    Sentence,
    corpus_stats,
    extract_candidates,
    filter_unknown,
    format_stats_table,
    parse_column_file,
    read_candidates_tsv,
    repair_bio,
    write_candidates_tsv,
)
from .evaluate import EvalReport, PRF, evaluate, format_report, pr_curve, sweep_k

__all__ = [
    "Candidate",
    "ConfigError",
    "CorpusStats",
    "DataFormatError",
    "DimensionMismatchError",
    "EvalReport",
    "FMModel",
    "FeatureSpace",
    "OvAModel",
    "PRF",
    "Sentence",
    "SparseVector",
    "TrainConfig",
    "corpus_stats",
    "evaluate",
    "extract_candidates",
    "extract_features",
    "filter_unknown",
    "format_report",
    "format_stats_table",
    "init_model",
    "load_fm_model",
    "load_ova_model",
    "loss_value",
    "parse_column_file",
    "pr_curve",
    "read_candidates_tsv",
    "repair_bio",
    "save_fm_model",
    "save_ova_model",
    "sgd_step",
    "sweep_k",
    "train_binary",
    "train_ova",
    "write_candidates_tsv",
]
