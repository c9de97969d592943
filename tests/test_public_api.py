"""The package's public surface: a name added to or removed from ``fmnec.__all__`` is an
edit of the list below."""

import fmnec

PUBLIC = [
    "Candidate",
    "ConfigError",
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
    "load_ova_model",
    "loss_value",
    "parse_column_file",
    "pr_curve",
    "read_candidates_tsv",
    "repair_bio",
    "save_ova_model",
    "sgd_step",
    "sweep_k",
    "train_binary",
    "train_ova",
    "write_candidates_tsv",
]


def test_all_is_the_listed_surface():
    assert sorted(fmnec.__all__) == PUBLIC


def test_every_public_name_resolves():
    namespace = {}
    exec("from fmnec import *", namespace)
    assert sorted(name for name in namespace if name != "__builtins__") == PUBLIC
