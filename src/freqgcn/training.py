"""Training loop, finite-difference gradient checking, and screening metrics."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolationError, DegenerateDatasetError, NonFiniteError
from .frequency import BinSpec, FrequencyFeatures
from .graph import SkeletonTopology
from .model import Model, Workspace, backward, init_model, loss, model_forward, one_hot

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
RELATIVE_ERROR_FLOOR = 1e-6  # see max_relative_error
KINK_MARGIN = 1e-3  # see draw_smooth_check_case
CHUNK_BYTES = 512 * 1024  # see chunk_size


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 200
    learning_rate: float = 1e-3
    seed: int = 0
    full_batch: bool = True

    def __post_init__(self):
        if self.epochs < 1:
            raise ContractViolationError(f"epochs must be >= 1, got {self.epochs}")
        if not 0 < self.learning_rate < np.inf:
            raise ContractViolationError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if self.seed < 0:
            raise ContractViolationError(f"seed must be >= 0, got {self.seed}")


@dataclass
class TrainHistory:
    losses: list[float] = field(default_factory=list)
    accuracies: list[float] = field(default_factory=list)


class _Adam:
    """Adaptive-moment update of a model's parameters, moments keyed like them."""

    def __init__(self, params: dict[str, np.ndarray], learning_rate: float):
        self.params = params
        self.lr = learning_rate
        self.m = {name: np.zeros_like(p) for name, p in params.items()}
        self.v = {name: np.zeros_like(p) for name, p in params.items()}
        self.t = 0

    def step(self, grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        for name, p in self.params.items():
            g, m, v = grads[name], self.m[name], self.v[name]
            m *= ADAM_BETA1
            m += (1 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1 - ADAM_BETA2) * g * g
            m_hat = m / (1 - ADAM_BETA1**self.t)
            v_hat = v / (1 - ADAM_BETA2**self.t)
            p -= self.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def chunk_size(model: Model) -> int:
    """Examples per forward/backward call: as many as keep one (E*L, widest C) float64
    layer array within CHUNK_BYTES, so a chunk's working set stays in cache."""
    widest = 8 * model.num_joints * model.num_bins * max(model.channel_widths)
    return max(1, CHUNK_BYTES // widest)


def train(
    dataset: list[tuple[FrequencyFeatures, int]],
    config: TrainConfig,
    topology: SkeletonTopology,
    bin_spec: BinSpec,
    channel_widths: tuple[int, ...] = (2, 16, 16),
) -> tuple[Model, TrainHistory]:
    """Full-batch gradient descent with Adam moments; deterministic per seed.

    Gradients are summed over chunks of ``chunk_size`` examples in dataset
    order, one forward and backward per chunk, and averaged, so two runs
    with the same seed produce bitwise-identical parameters. With
    ``full_batch=False`` each batch is one example, in order. Raises
    NonFiniteError, naming the epoch, when the logits or the parameters
    stop being finite.
    """
    if not dataset:
        raise DegenerateDatasetError("training dataset is empty")
    labels = {label for _, label in dataset}
    if labels != {0, 1}:
        raise DegenerateDatasetError(
            f"training data must contain both classes, found labels {sorted(labels)}"
        )
    model = init_model(topology, bin_spec, channel_widths=channel_widths, seed=config.seed)
    optimizer = _Adam(model.params, config.learning_rate)
    history = TrainHistory()
    size = chunk_size(model) if config.full_batch else 1
    chunks = [dataset[start : start + size] for start in range(0, len(dataset), size)]
    batches = [chunks] if config.full_batch else [[chunk] for chunk in chunks]
    workspace = Workspace()  # one set of layer buffers for every chunk and epoch

    with np.errstate(over="ignore", invalid="ignore"):  # overflow is caught as non-finite values
        for epoch in range(1, config.epochs + 1):
            try:
                epoch_loss, correct = _run_epoch(model, optimizer, batches, workspace)
            except NonFiniteError as exc:
                raise NonFiniteError(f"training diverged at epoch {epoch}: {exc}") from None
            history.losses.append(epoch_loss / len(dataset))
            history.accuracies.append(correct / len(dataset))
    return model, history


def _run_epoch(
    model: Model, optimizer: _Adam, batches: list[list[list]], workspace: Workspace
) -> tuple[float, int]:
    """One Adam step per batch of chunks on its mean gradient; (summed loss, correct count)."""
    epoch_loss = 0.0
    correct = 0
    for batch in batches:
        total = dict.fromkeys(model.params, 0.0)
        for chunk in batch:
            targets = np.array([one_hot(label) for _, label in chunk])
            predictions, _, cache = model_forward([f for f, _ in chunk], model, workspace)
            epoch_loss += loss(cache.logits, targets)
            correct += sum(p.label == label for p, (_, label) in zip(predictions, chunk))
            for name, g in backward(cache, targets).items():
                total[name] = total[name] + g
        optimizer.step({name: g / sum(map(len, batch)) for name, g in total.items()})
    if not all(np.isfinite(p).all() for p in model.params.values()):
        raise NonFiniteError("parameters are not finite")
    return epoch_loss, correct


# ---------------------------------------------------------------------------
# Finite-difference verification.


def finite_difference_gradients(
    model: Model, features: FrequencyFeatures | np.ndarray, label: int, eps: float = 1e-5
) -> dict[str, np.ndarray]:
    """Central-difference loss gradients for every parameter entry."""
    target = one_hot(label)
    out: dict[str, np.ndarray] = {}
    for name, param in model.parameter_groups().items():
        grad = np.zeros_like(param)
        flat_p = param.reshape(-1)
        flat_g = grad.reshape(-1)
        for idx in range(flat_p.size):
            original = flat_p[idx]
            flat_p[idx] = original + eps
            _, _, cache = model_forward(features, model)
            upper = loss(cache.logits, target)
            flat_p[idx] = original - eps
            _, _, cache = model_forward(features, model)
            lower = loss(cache.logits, target)
            flat_p[idx] = original
            flat_g[idx] = (upper - lower) / (2 * eps)
        out[name] = grad
    return out


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Worst-case |a - b| / max(|a|, |b|, RELATIVE_ERROR_FLOOR) across entries."""
    a = np.asarray(analytic, dtype=np.float64)
    b = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), RELATIVE_ERROR_FLOOR)
    return float((np.abs(a - b) / denom).max())


def gradient_check(
    model: Model,
    features: FrequencyFeatures | np.ndarray,
    label: int,
    eps: float = 1e-5,
) -> dict[str, float]:
    """Max relative error of analytic vs central-difference gradients, per group."""
    target = one_hot(label)
    _, _, cache = model_forward(features, model)
    analytic = backward(cache, target)
    numeric = finite_difference_gradients(model, features, label, eps=eps)
    return {
        name: max_relative_error(analytic[name], numeric[name].reshape(analytic[name].shape))
        for name in analytic
    }


def draw_smooth_check_case(
    model: Model, rng: np.random.Generator, scale: float = 1.0
) -> np.ndarray:
    """Random features whose forward pass stays clear of every ReLU kink.

    Central differences assume local smoothness; a draw that leaves some
    pre-activation within ``KINK_MARGIN`` of zero would straddle the kink at
    eps = 1e-5 and report a false mismatch. Rejected draws are resampled.
    """
    n, b, c = model.num_joints, model.num_bins, model.in_channels
    for _ in range(1000):
        candidate = scale * np.abs(rng.normal(size=(n, b, c)))
        _, _, cache = model_forward(candidate, model)
        if all(np.abs(z).min() > KINK_MARGIN for z in cache.pre_relu):
            return candidate
    raise RuntimeError("could not draw a kink-free gradient-check case")


# ---------------------------------------------------------------------------
# Screening metrics.


@dataclass(frozen=True)
class MetricsReport:
    """Accuracy plus the screening pair: sensitivity on abnormal (label 1),
    specificity on normal (label 0). Vacuously 1.0 when a class is absent."""

    accuracy: float
    sensitivity: float
    specificity: float
    predictions: tuple[tuple[str, int, int, float], ...]  # (id, true, predicted, p_abnormal)


def evaluate(
    model: Model, dataset: list[tuple[str, FrequencyFeatures, int]]
) -> MetricsReport:
    if not dataset:
        raise DegenerateDatasetError("evaluation dataset is empty")
    rows = []
    size = chunk_size(model)
    for start in range(0, len(dataset), size):
        chunk = dataset[start : start + size]
        predictions, _, _ = model_forward([f for _, f, _ in chunk], model)
        rows += [(sid, y, p.label, p.probability[1]) for (sid, _, y), p in zip(chunk, predictions)]

    def recall(cls: int) -> float:
        hits = [predicted == cls for _, label, predicted, _ in rows if label == cls]
        return sum(hits) / len(hits) if hits else 1.0

    return MetricsReport(
        accuracy=sum(label == predicted for _, label, predicted, _ in rows) / len(rows),
        sensitivity=recall(1),
        specificity=recall(0),
        predictions=tuple(rows),
    )
