"""Frequency-binned attention GCN screening of skeletal movement sequences."""

from .errors import FreqGcnError
from .frequency import (
    BinSpec,
    FrequencyFeatures,
    band_magnitudes,
    bin_edges,
    bin_spectrum,
    bin_widths,
    extract_features,
    fft_bluestein,
)
from .graph import (
    FeatureGraph,
    SkeletonTopology,
    build_feature_graph,
    builtin_topology,
)
from .model import (
    Model,
    backward,
    init_model,
    joint_ranking,
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
    "BinSpec",
    "FeatureGraph",
    "FreqGcnError",
    "FrequencyFeatures",
    "MetricsReport",
    "Model",
    "PoseSequence",
    "SkeletonTopology",
    "SynthConfig",
    "TrainConfig",
    "backward",
    "band_magnitudes",
    "bin_edges",
    "bin_spectrum",
    "bin_widths",
    "build_feature_graph",
    "builtin_topology",
    "evaluate",
    "extract_features",
    "fft_bluestein",
    "generate_dataset",
    "generate_sequence",
    "gradient_check",
    "init_model",
    "interpolate_missing",
    "joint_ranking",
    "load_model",
    "load_sequence",
    "loss",
    "model_forward",
    "normalize_sequence",
    "save_model",
    "train",
]
