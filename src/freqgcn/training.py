"""Training loop, finite-difference gradient checking, and screening metrics. On POSIX, ``train``
forks helpers from the calling thread to compute fixed blocks of every epoch's chunks."""

from __future__ import annotations

import ctypes
import functools
import math
import os
import pickle
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import ContractViolationError, DegenerateDatasetError, FreqGcnError, NonFiniteError
from .frequency import FrequencyFeatures
from .graph import SkeletonTopology
from .model import Model, Workspace, backward, init_model, loss, model_forward

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
RELATIVE_ERROR_FLOOR = 1e-6  # see max_relative_error
KINK_MARGIN = 1e-3  # see draw_smooth_check_case
CHECK_CASE_SCALE = 1.5  # see draw_smooth_check_case
CHUNK_BYTES = 512 * 1024  # see chunk_size


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 200
    learning_rate: float = 1e-3
    seed: int = 0

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


@functools.cache
def _openblas_threads():
    """The loaded OpenBLAS's (get, set) thread-count functions, or None where none is found."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    for lib in sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}):
        handle = ctypes.CDLL(lib)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            get, set_ = (getattr(handle, f"{prefix}_{verb}_num_threads{suffix}", None) for verb in ("get", "set"))
            if get is not None and set_ is not None:
                get.restype, set_.argtypes = ctypes.c_int, [ctypes.c_int]
                return get, set_
    return None


@contextmanager
def _one_blas_thread():
    """Run OpenBLAS on one thread inside, restoring its count after: a product split over
    threads sums in an order that depends on their count. Without an OpenBLAS, nothing."""
    found = _openblas_threads()
    if found is None:
        yield
        return
    get, set_ = found
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


@_one_blas_thread()
def train(
    dataset: list[tuple[FrequencyFeatures, int]],
    config: TrainConfig,
    topology: SkeletonTopology,
    channel_widths: tuple[int, ...] = (2, 16, 16),
) -> tuple[Model, TrainHistory]:
    """Full-batch gradient descent with Adam moments, one step per epoch; deterministic per seed.
    The model takes the first example's bin layout; another layout is a ContractViolationError.

    Gradients are summed over chunks of ``chunk_size`` examples in dataset order, one forward
    and backward per chunk in whichever process, and averaged, so runs with the same seed give
    bitwise-identical parameters at any core count; BLAS runs on one thread, set before the
    helpers fork. Raises NonFiniteError, naming the epoch, when the logits stop being finite or
    a parameter's magnitude reaches the square root of the largest float, past which one product
    of two parameters overflows; FreqGcnError if a helper fails.
    """
    if not dataset:
        raise DegenerateDatasetError("training dataset is empty")
    labels = {label for _, label in dataset}
    if labels != {0, 1}:
        raise DegenerateDatasetError(
            f"training data must contain both classes, found labels {sorted(labels)}"
        )
    model = init_model(topology, dataset[0][0].spec, channel_widths=channel_widths, seed=config.seed)
    optimizer = _Adam(model.params, config.learning_rate)
    history = TrainHistory()
    size = chunk_size(model)
    chunks = [dataset[start : start + size] for start in range(0, len(dataset), size)]
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "fork") and hasattr(os, "sched_getaffinity") else 1
    k = min(cores, len(chunks))
    blocks = [chunks[len(chunks) * i // k : len(chunks) * (i + 1) // k] for i in range(k)]  # parent's first
    workspace = Workspace()  # one set of layer buffers for every chunk and epoch

    # Overflow is caught as non-finite values; helpers forked in here inherit the setting.
    with np.errstate(over="ignore", invalid="ignore"), _forked(model, blocks[1:]) as helpers:
        for epoch in range(1, config.epochs + 1):
            try:
                epoch_loss, correct = _run_epoch(model, optimizer, blocks[0], len(dataset), workspace, helpers)
            except NonFiniteError as exc:
                raise NonFiniteError(f"training diverged at epoch {epoch}: {exc}") from None
            history.losses.append(epoch_loss / len(dataset))
            history.accuracies.append(correct / len(dataset))
    return model, history


def _run_epoch(
    model: Model, optimizer: _Adam, chunks: list[list], examples: int, workspace: Workspace, helpers: list
) -> tuple[float, int]:
    """One Adam step on the mean gradient over ``examples``, summed over the parent's chunks,
    then the helpers' blocks (computed meanwhile); (summed loss, correct count)."""
    for to_helper, _ in helpers:
        pickle.dump(list(model.params.values()), to_helper)
    own = (_chunk_result(model, chunk, workspace) for chunk in chunks)
    epoch_loss, correct = 0.0, 0
    total = dict.fromkeys(model.params, 0.0)
    for result in chain(own, chain.from_iterable(pickle.load(f) for _, f in helpers)):
        if isinstance(result, Exception):  # a helper's first failing chunk
            raise result
        chunk_loss, chunk_correct, grads = result
        epoch_loss += chunk_loss
        correct += chunk_correct
        for name, g in grads.items():
            total[name] = total[name] + g
    optimizer.step({name: g / examples for name, g in total.items()})
    limit = math.sqrt(sys.float_info.max)
    for name, p in model.params.items():
        if not (peak := np.abs(p).max()) < limit:  # NaN included
            raise NonFiniteError(f"parameter {name} reaches magnitude {peak:.3g}, not below {limit:.3g}")
    return epoch_loss, correct


def _chunk_result(model: Model, chunk: list, workspace: Workspace) -> tuple[float, int, dict]:
    """(summed loss, correct count, summed gradients) of one chunk."""
    labels = [label for _, label in chunk]
    cache = model_forward([f for f, _ in chunk], model, workspace)
    correct = int((cache.logits.argmax(axis=1) == labels).sum())
    return loss(cache.logits, labels), correct, backward(cache, labels)


@contextmanager
def _forked(model: Model, blocks: list[list[list]]):
    """Fork a helper per block and yield their (to, from) pipes; then close them and reap every helper."""
    helpers = []  # (pid, to helper, from helper); pipes are written unbuffered, each dump whole
    try:
        for block in blocks:
            (down_r, down_w), (up_r, up_w) = os.pipe(), os.pipe()
            if (pid := os.fork()) == 0:
                try:  # the helper: it writes only to its pipe and leaves only through os._exit
                    for fd in (down_w, up_r, *(f.fileno() for _, *pipes in helpers for f in pipes)):
                        os.close(fd)
                    _serve(open(down_r, "rb"), open(up_w, "wb", buffering=0), model, block, Workspace())
                finally:
                    os._exit(0)
            helpers.append((pid, open(down_w, "wb", buffering=0), open(up_r, "rb")))
            os.close(down_r)
            os.close(up_w)
        yield [pipes for _, *pipes in helpers]
    except (OSError, EOFError, pickle.UnpicklingError):  # a helper that died or could not start
        raise FreqGcnError("a training helper process failed") from None
    finally:
        for pipe in (pipe for _, *pipes in helpers for pipe in pipes):
            pipe.close()
        for pid, _, _ in helpers:
            os.waitpid(pid, 0)


def _serve(inbox, outbox, model: Model, chunks: list[list], workspace: Workspace) -> None:
    """A helper's loop: per parameter list read, write its chunks' results; ends at EOF."""
    while True:
        model.params.update(zip(model.params, pickle.load(inbox)))
        try:
            results = [_chunk_result(model, chunk, workspace) for chunk in chunks]
        except Exception as exc:  # its earlier chunks passed, so the parent raises this one
            results = [exc]
        pickle.dump(results, outbox)


# ---------------------------------------------------------------------------
# Finite-difference verification.


def finite_difference_gradients(
    model: Model, features: FrequencyFeatures | np.ndarray, label: int, eps: float = 1e-5
) -> dict[str, np.ndarray]:
    """Central-difference loss gradients for every parameter entry."""
    out: dict[str, np.ndarray] = {}
    for name, param in model.params.items():
        grad = np.zeros_like(param)
        flat_p = param.reshape(-1)
        flat_g = grad.reshape(-1)
        for idx in range(flat_p.size):
            original = flat_p[idx]
            flat_p[idx] = original + eps
            upper = loss(model_forward([features], model).logits, [label])
            flat_p[idx] = original - eps
            lower = loss(model_forward([features], model).logits, [label])
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
    analytic = backward(model_forward([features], model), [label])
    numeric = finite_difference_gradients(model, features, label, eps=eps)
    return {
        name: max_relative_error(analytic[name], numeric[name].reshape(analytic[name].shape))
        for name in analytic
    }


def draw_smooth_check_case(model: Model, rng: np.random.Generator) -> np.ndarray:
    """Random features, ``CHECK_CASE_SCALE`` times half-normal draws, clear of every ReLU kink.

    Central differences assume local smoothness; a draw that leaves some
    pre-activation within ``KINK_MARGIN`` of zero would straddle the kink at
    eps = 1e-5 and report a false mismatch. Rejected draws are resampled.
    """
    n, b, c = model.num_joints, model.num_bins, model.in_channels
    for _ in range(1000):
        candidate = CHECK_CASE_SCALE * np.abs(rng.normal(size=(n, b, c)))
        if all(np.abs(z).min() > KINK_MARGIN for z in model_forward([candidate], model).pre_relu):
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


@_one_blas_thread()
def evaluate(
    model: Model, dataset: list[tuple[str, FrequencyFeatures, int]]
) -> MetricsReport:
    """Each (id, features, label)'s predicted label and p_abnormal, one forward per chunk."""
    if not dataset:
        raise DegenerateDatasetError("evaluation dataset is empty")
    rows = []
    size = chunk_size(model)
    for start in range(0, len(dataset), size):
        chunk = dataset[start : start + size]
        cache = model_forward([f for _, f, _ in chunk], model)
        labels, p_abnormal = cache.logits.argmax(axis=1).tolist(), cache.probability[:, 1].tolist()
        rows += [(sid, y, label, p) for (sid, _, y), label, p in zip(chunk, labels, p_abnormal)]

    def recall(cls: int) -> float:
        hits = [predicted == cls for _, label, predicted, _ in rows if label == cls]
        return sum(hits) / len(hits) if hits else 1.0

    return MetricsReport(
        accuracy=sum(label == predicted for _, label, predicted, _ in rows) / len(rows),
        sensitivity=recall(1),
        specificity=recall(0),
        predictions=tuple(rows),
    )
