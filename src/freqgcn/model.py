"""Attention-gated graph convolutional classifier.

Forward pipeline, run on a chunk of E inputs H of shape (N joints, B bins, C channels):

1. score each (bin, joint) cell: z = tanh(W_z h), s = w_alpha . z
2. softmax the scores over bins within each joint -> alpha (N, B)
3. gate the input, G = B * alpha * h, so uniform attention is the identity
4. run S graph convolutions ReLU(A_hat X W) over the L = B*N node graph
5. mean-pool the nodes and apply an affine head -> 2 logits

model_forward returns the chunk's ForwardCache: its logits, probabilities and attention
are the result, and its intermediates let the backward pass produce exact analytic
gradients, summed over the chunk, without an autodiff framework.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ContractViolationError, ModelMismatchError, NonFiniteError
from .files import read_input, write_atomic
from .frequency import BinSpec, FrequencyFeatures
from .graph import FeatureGraph, SkeletonTopology, build_feature_graph

NUM_CLASSES = 2


def parameter_schema(channel_widths: tuple[int, ...]) -> dict[str, tuple[int, ...]]:
    """Ordered name -> shape of every learnable array for these channel widths.

    The model's parameters, the gradients of :func:`backward`, the
    optimizer's moments and the model document all follow this order.
    """
    if len(channel_widths) < 2 or min(channel_widths) < 1:
        raise ContractViolationError(
            f"channels {channel_widths} need an input and a layer width, each at least 1"
        )
    c_in = channel_widths[0]
    schema = {"w_z": (c_in, c_in), "w_alpha": (c_in,)}
    for l in range(len(channel_widths) - 1):
        schema[f"layer{l}"] = (channel_widths[l], channel_widths[l + 1])
    schema["head_weight"] = (channel_widths[-1], NUM_CLASSES)
    schema["head_bias"] = (NUM_CLASSES,)
    return schema


@dataclass(eq=False)
class Model:
    """All parameters, in schema order, plus the fixed graph/binning context they assume."""

    params: dict[str, np.ndarray]
    graph: FeatureGraph
    bin_spec: BinSpec
    channel_widths: tuple[int, ...]

    def __post_init__(self):
        shapes = [(name, p.shape) for name, p in self.params.items()]
        schema = list(parameter_schema(self.channel_widths).items())
        if shapes != schema:
            raise ContractViolationError(f"parameters {shapes} do not match the schema {schema}")

    @property
    def num_joints(self) -> int:
        return self.graph.topology.num_joints

    @property
    def num_bins(self) -> int:
        return self.graph.num_bins

    @property
    def in_channels(self) -> int:
        return self.channel_widths[0]

    @property
    def num_layers(self) -> int:
        return len(self.channel_widths) - 1


def joint_ranking(alpha: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(importance, ranking) of the joints for one example's attention weights, such as ``cache.alpha[e]``.

    Importance of a joint is its largest deviation from uniform attention,
    max over bins of |alpha - 1/B|; ranking sorts joints by importance,
    descending, stable on ties.
    """
    importance = np.abs(alpha - 1.0 / alpha.shape[1]).max(axis=1)
    return importance, np.argsort(-importance, kind="stable")


class Workspace(dict):
    """Named float64 buffers that model_forward and backward fill with ``out=``, each grown
    only when a call needs more elements than it holds. What a call takes from a workspace,
    its ForwardCache included, stays valid until the next call given the same workspace."""

    def take(self, name: str, *shape: int) -> np.ndarray:
        size = math.prod(shape)
        if name not in self or self[name].size < size:
            self[name] = np.empty(size)
        return self[name][:size].reshape(shape)


@dataclass(eq=False)
class ForwardCache:
    """One chunk of E inputs through model_forward: its result and the intermediates backward reads."""

    model: Model
    features: np.ndarray  # (E, N, B, C)
    z: np.ndarray  # (E, N, B, C) tanh(W_z h)
    alpha: np.ndarray  # (E, N, B)
    layer_inputs: list[np.ndarray]  # X_l as (E*L, C_l), length S+1; X_0 is the gated input
    aggregated: list[np.ndarray]  # P_l = A_hat X_l, length S
    pre_relu: list[np.ndarray]  # Z_l = P_l W_l, length S
    pooled: np.ndarray  # (E, C_last)
    logits: np.ndarray  # (E, 2)
    probability: np.ndarray  # (E, 2)
    workspace: Workspace  # holds the layer arrays; backward writes its scratch there too


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


def init_model(
    topology: SkeletonTopology,
    bin_spec: BinSpec,
    channel_widths: tuple[int, ...] = (2, 16, 16),
    seed: int = 0,
) -> Model:
    """Fresh model: Glorot-uniform matrices, drawn in schema order, and zero vectors.

    The scoring vector starts at zero, so the first forward pass uses
    uniform attention and the gating is exactly the identity.
    """
    rng = np.random.default_rng(seed)
    params = {
        name: glorot_uniform(rng, *shape) if len(shape) == 2 else np.zeros(shape)
        for name, shape in parameter_schema(channel_widths).items()
    }
    return Model(
        params=params,
        graph=build_feature_graph(topology, bin_spec.num_bins),
        bin_spec=bin_spec,
        channel_widths=tuple(channel_widths),
    )


def _attention_forward(features_h: np.ndarray, w_z: np.ndarray, w_alpha: np.ndarray):
    """(alpha, z) for features h of shape (N, B, C) or (E, N, B, C)."""
    h = np.asarray(features_h, dtype=np.float64)
    if h.ndim not in (3, 4):
        raise ContractViolationError(f"features must be (N, B, C) or (E, N, B, C), got {h.shape}")
    if not np.isfinite(h).all():
        raise ContractViolationError("features contains non-finite values")
    # One 2-D product over all (E*N*B) rows; a stacked matmul would run one small GEMM per row block.
    z = np.tanh(h.reshape(-1, h.shape[-1]) @ w_z.T)
    return _softmax((z @ w_alpha).reshape(h.shape[:-1])), z.reshape(h.shape)


def _gate(h: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """G = B * alpha * h, so uniform attention reproduces the raw features."""
    return h.shape[-2] * alpha[..., None] * h


def _softmax(x: np.ndarray) -> np.ndarray:
    """Softmax along the last axis, shifted by the maximum for overflow safety."""
    exp = np.exp(x - x.max(axis=-1, keepdims=True))
    return exp / exp.sum(axis=-1, keepdims=True)


def _as_chunk(features, model: Model) -> np.ndarray:
    """The chunk's inputs stacked as one float64 (E, N, B, C) array."""
    if isinstance(features, FrequencyFeatures) or (isinstance(features, np.ndarray) and features.ndim != 4):
        raise ContractViolationError("model_forward takes a list of inputs; pass [features] for one")
    expected = (model.num_joints, model.num_bins, model.in_channels)
    arrays = []
    for f in features:
        if isinstance(f, FrequencyFeatures):
            if f.spec != model.bin_spec:
                raise ContractViolationError(
                    f"features binned with {f.spec} do not match the model's {model.bin_spec}"
                )
            f = f.data
        if np.shape(f) != expected:
            raise ContractViolationError(f"features shape {np.shape(f)} does not match model {expected}")
        arrays.append(f)
    return np.array(arrays, dtype=np.float64)


def model_forward(features, model: Model, workspace: Workspace | None = None) -> ForwardCache:
    """Full pipeline from binned features to class scores, for a chunk of E inputs.

    ``features`` is a sequence of FrequencyFeatures or (N, B, C) arrays; one input is a list
    of one. The result is the chunk's cache, held in ``workspace`` (a fresh one unless
    passed): its (E, 2) ``logits`` and ``probability`` and (E, N, B) ``alpha``. Example e's
    label is ``logits[e].argmax()``. Raises NonFiniteError on non-finite logits.
    """
    h = _as_chunk(features, model)
    ws = Workspace() if workspace is None else workspace
    e, length = len(h), model.num_joints * model.num_bins
    w_z, w_alpha, *layers, head_weight, head_bias = model.params.values()  # schema order
    # Overflow shows up in the logits, which are checked below instead of warned about.
    with np.errstate(over="ignore", invalid="ignore"):
        alpha, z = _attention_forward(h, w_z, w_alpha)
        # (N, B, C) rows land at node index i*B + b, the feature graph's joint-major order.
        layer_inputs = [_gate(h, alpha).reshape(e * length, model.in_channels)]
        aggregated, pre_relu = [], []
        for l, weight in enumerate(layers):
            x = layer_inputs[-1]
            p = model.graph.propagate(x, ws.take(f"p{l}", *x.shape), ws.take("scratch", 2 * x.size))
            zl = np.matmul(p, weight, out=ws.take(f"z{l}", len(p), weight.shape[1]))
            aggregated.append(p)
            pre_relu.append(zl)
            layer_inputs.append(np.maximum(zl, 0.0, out=ws.take(f"x{l + 1}", *zl.shape)))

        # Mean pool each example as a ones-vector product, far cheaper than .mean(axis=1).
        pooled = np.ones(length) @ layer_inputs[-1].reshape(e, length, -1) / length
        logits = pooled @ head_weight + head_bias
    finite = np.isfinite(logits).all(axis=1)
    if not finite.all():
        raise NonFiniteError(f"logits {logits[~finite][0].tolist()} are not finite")
    return ForwardCache(
        model, h, z, alpha, layer_inputs, aggregated, pre_relu, pooled, logits, _softmax(logits), ws
    )


def _labels(labels, logits: np.ndarray) -> np.ndarray:
    """The (E,) integer labels, each 0 or 1, of (E, 2) logits."""
    y = np.asarray(labels)
    shapes_agree = y.ndim == 1 and np.shape(logits) == (len(y), NUM_CLASSES)
    if not shapes_agree or y.dtype.kind not in "iu" or not ((y == 0) | (y == 1)).all():
        raise ContractViolationError(f"labels must be one integer 0 or 1 per row of (E, 2) logits, "
                                     f"got {labels!r} for logits of shape {np.shape(logits)}")
    return y


def loss(logits: np.ndarray, labels) -> float:
    """Softmax cross-entropy, stabilized through log-sum-exp; summed over (E, 2) logits."""
    u = np.asarray(logits, dtype=np.float64)
    y = _labels(labels, u)
    return float((np.logaddexp(u[:, 0], u[:, 1]) - u[np.arange(len(y)), y]).sum())


def backward(cache: ForwardCache, labels) -> dict[str, np.ndarray]:
    """Exact cross-entropy gradients summed over the cached chunk, keyed like the parameters.

    ``labels`` holds one integer, 0 or 1, for each example. Reverse-mode chain rule
    through the head, the mean pool, each ReLU(A_hat X W) layer, the B*alpha
    gating, the per-joint softmax, and the tanh transform. Scratch arrays go
    into the cache's workspace.
    """
    y = _labels(labels, cache.logits)
    model, ws = cache.model, cache.workspace
    e, n, b, c_in = cache.features.shape
    length = n * b
    if (n, b, c_in) != (model.num_joints, model.num_bins, model.in_channels):
        raise ContractViolationError("cache does not match the model it claims to come from")
    _, w_alpha, *layers, head_weight, _ = model.params.values()  # schema order

    # Head and pooling; every node of an example receives the same share of its pooled gradient.
    d_logits = cache.probability.copy()
    d_logits[np.arange(e), y] -= 1.0
    d_head_weight = cache.pooled.T @ d_logits
    d_head_bias = d_logits.sum(axis=0)
    d_x = (d_logits @ head_weight.T / length)[:, None, :]  # (E, 1, C_last)

    # GCN layers, last to first, on (E*L, C) rows. A_hat is symmetric so A_hat.T @ v = A_hat @ v.
    d_layers: list[np.ndarray] = [None] * model.num_layers
    for l in range(model.num_layers - 1, -1, -1):
        mask = cache.pre_relu[l].reshape(e, length, -1) > 0.0
        # d_pre takes d_x's buffer (in place from the second layer on); propagate refills it.
        d_pre = np.multiply(d_x, mask, out=ws.take("d_x", *mask.shape)).reshape(e * length, -1)
        d_layers[l] = cache.aggregated[l].T @ d_pre
        # A contiguous W^T: BLAS runs the thin product several times slower on a transposed view.
        d_in = np.matmul(d_pre, layers[l].T.copy(), out=ws.take("d_in", e * length, len(layers[l])))
        d_x = model.graph.propagate(d_in, ws.take("d_x", *d_in.shape), ws.take("scratch", 2 * d_in.size))
        d_x = d_x.reshape(e, length, -1)

    # Gating G = B * alpha * h.
    d_gated = d_x.reshape(cache.features.shape)
    d_alpha = b * np.einsum("...c,...c->...", d_gated, cache.features)

    # Softmax over bins within each joint.
    weighted = (d_alpha * cache.alpha).sum(axis=-1, keepdims=True)
    d_scores = (cache.alpha * (d_alpha - weighted)).reshape(-1)

    # Scores s = w_alpha . z with z = tanh(W_z h), on (E*N*B, C) rows.
    z = cache.z.reshape(-1, c_in)
    d_w_alpha = d_scores @ z
    d_pre_tanh = d_scores[:, None] * w_alpha * (1.0 - z**2)
    d_w_z = d_pre_tanh.T @ cache.features.reshape(-1, c_in)

    grads = (d_w_z, d_w_alpha, *d_layers, d_head_weight, d_head_bias)
    return dict(zip(model.params, grads))


# ---------------------------------------------------------------------------
# Persistence: a versioned line-oriented text document. Floats are written
# with repr so they reload bit-exactly.

_MODEL_MAGIC = "freqgcn-model"
_MODEL_VERSION = 1


def save_model(model: Model, path: str | Path) -> None:
    topo = model.graph.topology
    lines = [
        f"{_MODEL_MAGIC} v{_MODEL_VERSION}",
        f"topology {topo.name}",
        f"joints {topo.num_joints}",
        f"names {' '.join(n.replace(' ', '_') for n in topo.names)}",
        f"root {topo.root}",
        f"neck {topo.neck}",
        f"edges {topo.num_edges}",
    ]
    lines += [f"{i} {j}" for i, j in topo.edges]
    lines.append(f"bins {model.bin_spec.num_bins}")
    lines.append(f"bin-c {model.bin_spec.c!r}")
    lines.append("channels " + " ".join(str(c) for c in model.channel_widths))
    for name, array in model.params.items():
        mat = np.atleast_2d(array)
        lines.append(f"param {name} {mat.shape[0]} {mat.shape[1]}")
        for row in mat:
            lines.append(" ".join(repr(float(v)) for v in row))
    lines.append("end")
    write_atomic({path: "\n".join(lines) + "\n"})


def load_model(path: str | Path) -> Model:
    path = Path(path)
    lines = read_input(path, ModelMismatchError, "model document").splitlines()
    cursor = 0

    def take() -> str:
        nonlocal cursor
        if cursor >= len(lines):
            raise ModelMismatchError(f"{path.name}: truncated model document")
        line = lines[cursor]
        cursor += 1
        return line

    def expect_key(key: str) -> str:
        line = take()
        if not line.startswith(key + " "):
            raise ModelMismatchError(f"{path.name}: expected '{key} ...', found {line!r}")
        return line[len(key) + 1 :]

    header = take()
    if header != f"{_MODEL_MAGIC} v{_MODEL_VERSION}":
        raise ModelMismatchError(f"{path.name}: unsupported model document {header!r}")
    try:
        topo_name = expect_key("topology")
        num_joints = int(expect_key("joints"))
        names = tuple(expect_key("names").split())
        root = int(expect_key("root"))
        neck = int(expect_key("neck"))
        num_edges = int(expect_key("edges"))
        edges = []
        for _ in range(num_edges):
            i, j = take().split()
            edges.append((int(i), int(j)))
        num_bins = int(expect_key("bins"))
        bin_c = float(expect_key("bin-c"))
        widths = tuple(int(v) for v in expect_key("channels").split())
        schema = parameter_schema(widths)
        if len(names) != num_joints:
            raise ModelMismatchError(f"{len(names)} joint names for {num_joints} joints")
        topology = SkeletonTopology(
            num_joints=num_joints, edges=tuple(edges), root=root, neck=neck,
            names=names, name=topo_name,
        )
        spec = BinSpec(c=bin_c, num_bins=num_bins)
    except (ValueError, ModelMismatchError) as exc:
        raise ModelMismatchError(f"{path.name}: malformed header: {exc}") from exc

    # One block per schema entry, in schema order; vectors are stored as 1-row matrices.
    params: dict[str, np.ndarray] = {}
    for name, shape in schema.items():
        rows, cols = (1, *shape) if len(shape) == 1 else shape
        block = f"param {name} {rows} {cols}"
        line = take()
        if line != block:
            raise ModelMismatchError(f"{path.name}: expected {block!r}, found {line!r}")
        try:
            mat = np.array(
                [[float(v) for v in take().split()] for _ in range(rows)], dtype=np.float64
            )
        except ValueError as exc:
            raise ModelMismatchError(f"{path.name}: bad values in param {name}: {exc}") from exc
        if mat.shape != (rows, cols):
            raise ModelMismatchError(
                f"{path.name}: param {name} declared {rows}x{cols}, got {mat.shape}"
            )
        if not np.isfinite(mat).all():
            raise ModelMismatchError(f"{path.name}: param {name} holds non-finite values")
        params[name] = mat.reshape(shape)
    if take() != "end":
        raise ModelMismatchError(f"{path.name}: expected 'end' after the parameter blocks")

    return Model(
        params=params,
        graph=build_feature_graph(topology, num_bins),
        bin_spec=spec,
        channel_widths=widths,
    )
