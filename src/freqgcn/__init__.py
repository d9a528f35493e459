"""Frequency-binned attention GCN screening of skeletal movement sequences."""

from .errors import FreqGcnError
from .frequency import (
    BinSpec,
    FrequencyFeatures,
    bin_edges,
    bin_spectrum,
    bin_widths,
    dft_naive,
    extract_features,
    fft_bluestein,
    magnitude_half_spectrum,
)
from .graph import (
    FeatureGraph,
    SkeletonTopology,
    build_feature_graph,
    builtin_topology,
    normalize_adjacency,
)
from .model import (
    AttentionReport,
    Model,
    Prediction,
    attention_aggregate,
    attention_report,
    attention_weights,
    backward,
    init_model,
    load_model,
    loss,
    model_forward,
    save_model,
)
from .pose import (
    PoseSequence,
    interpolate_missing,
    load_sequence,
    normalize_sequence,
)
from .synthetic import SynthConfig, generate_dataset, generate_sequence
from .training import MetricsReport, TrainConfig, evaluate, gradient_check, train

__version__ = "0.1.0"

__all__ = [
    "AttentionReport",
    "BinSpec",
    "FeatureGraph",
    "FreqGcnError",
    "FrequencyFeatures",
    "MetricsReport",
    "Model",
    "PoseSequence",
    "Prediction",
    "SkeletonTopology",
    "SynthConfig",
    "TrainConfig",
    "attention_aggregate",
    "attention_report",
    "attention_weights",
    "backward",
    "bin_edges",
    "bin_spectrum",
    "bin_widths",
    "build_feature_graph",
    "builtin_topology",
    "dft_naive",
    "evaluate",
    "extract_features",
    "fft_bluestein",
    "generate_dataset",
    "generate_sequence",
    "gradient_check",
    "init_model",
    "interpolate_missing",
    "load_model",
    "load_sequence",
    "loss",
    "magnitude_half_spectrum",
    "model_forward",
    "normalize_adjacency",
    "normalize_sequence",
    "save_model",
    "train",
]
