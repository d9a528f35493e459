"""Attention-gated graph convolutional classifier.

Forward pipeline for features H of shape (N joints, B bins, C channels):

1. score each (bin, joint) cell: z = tanh(W_z h), s = w_alpha . z
2. softmax the scores over bins within each joint -> alpha (N, B)
3. gate the input, G = B * alpha * h, so uniform attention is the identity
4. run S graph convolutions ReLU(A_hat X W) over the L = B*N node graph
5. mean-pool the nodes and apply an affine head -> 2 logits

Every intermediate is cached so the backward pass can produce exact
analytic gradients without an autodiff framework.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ContractViolationError, ModelMismatchError
from .frequency import BinSpec, FrequencyFeatures
from .graph import FeatureGraph, SkeletonTopology, build_feature_graph

NUM_CLASSES = 2

LABELS = {0: (1.0, 0.0), 1: (0.0, 1.0)}


@dataclass(eq=False)
class AttentionParams:
    """Learnable attention parameters: feature transform and scoring vector."""

    w_z: np.ndarray  # (C, C)
    w_alpha: np.ndarray  # (C,)


@dataclass(eq=False)
class GcnLayerParams:
    weight: np.ndarray  # (C_in, C_out)


@dataclass(eq=False)
class HeadParams:
    weight: np.ndarray  # (C_last, 2)
    bias: np.ndarray  # (2,)


@dataclass(eq=False)
class Model:
    """All parameters plus the fixed graph/binning context they assume."""

    attention: AttentionParams
    layers: list[GcnLayerParams]
    head: HeadParams
    graph: FeatureGraph
    bin_spec: BinSpec
    channel_widths: tuple[int, ...]

    def __post_init__(self):
        if len(self.channel_widths) < 2:
            raise ValueError("channel_widths needs at least an input and one layer width")
        if len(self.layers) != len(self.channel_widths) - 1:
            raise ValueError("one weight matrix per layer transition required")
        for l, layer in enumerate(self.layers):
            expect = (self.channel_widths[l], self.channel_widths[l + 1])
            if layer.weight.shape != expect:
                raise ValueError(f"layer {l} weight is {layer.weight.shape}, expected {expect}")
        if self.head.weight.shape != (self.channel_widths[-1], NUM_CLASSES):
            raise ValueError("head weight shape mismatch")

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
        return len(self.layers)

    def parameter_groups(self) -> dict[str, np.ndarray]:
        """Live views of every parameter array, keyed by group name."""
        groups = {"w_z": self.attention.w_z, "w_alpha": self.attention.w_alpha}
        for l, layer in enumerate(self.layers):
            groups[f"layer{l}"] = layer.weight
        groups["head_weight"] = self.head.weight
        groups["head_bias"] = self.head.bias
        return groups


@dataclass(eq=False)
class Gradients:
    """Loss gradients mirroring the parameter layout of a Model."""

    w_z: np.ndarray
    w_alpha: np.ndarray
    layers: list[np.ndarray]
    head_weight: np.ndarray
    head_bias: np.ndarray

    def groups(self) -> dict[str, np.ndarray]:
        out = {"w_z": self.w_z, "w_alpha": self.w_alpha}
        for l, g in enumerate(self.layers):
            out[f"layer{l}"] = g
        out["head_weight"] = self.head_weight
        out["head_bias"] = self.head_bias
        return out


@dataclass(frozen=True)
class Prediction:
    logits: tuple[float, float]
    probability: tuple[float, float]
    label: int


@dataclass(eq=False)
class AttentionReport:
    """Attention weights plus the joint ranking they induce.

    Importance of a joint is its largest deviation from uniform attention,
    max over bins of |alpha - 1/B|; ranking sorts joints by importance,
    descending, stable on ties.
    """

    alpha: np.ndarray  # (N, B)
    joint_importance: np.ndarray  # (N,)
    ranking: np.ndarray  # (N,) joint indices


@dataclass(eq=False)
class ForwardCache:
    """Intermediates retained by model_forward for the backward pass."""

    model: Model
    features: np.ndarray  # (N, B, C)
    pre_tanh: np.ndarray  # (N, B, C)
    z: np.ndarray  # (N, B, C)
    scores: np.ndarray  # (N, B)
    alpha: np.ndarray  # (N, B)
    gated: np.ndarray  # (L, C)
    layer_inputs: list[np.ndarray]  # X_l, length S+1
    aggregated: list[np.ndarray]  # P_l = A_hat X_l, length S
    pre_relu: list[np.ndarray]  # Z_l = P_l W_l, length S
    pooled: np.ndarray  # (C_last,)
    logits: np.ndarray  # (2,)
    probability: np.ndarray  # (2,)


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int, scale: float = 1.0) -> np.ndarray:
    bound = scale * np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


def init_model(
    topology: SkeletonTopology,
    bin_spec: BinSpec,
    channel_widths: tuple[int, ...] = (2, 16, 16),
    seed: int = 0,
    init_scale: float = 1.0,
) -> Model:
    """Fresh model with Glorot-uniform weights.

    w_alpha starts at zero so the first forward pass uses uniform attention
    and the gating is exactly the identity.
    """
    rng = np.random.default_rng(seed)
    c_in = channel_widths[0]
    attention = AttentionParams(
        w_z=glorot_uniform(rng, c_in, c_in, init_scale),
        w_alpha=np.zeros(c_in),
    )
    layers = [
        GcnLayerParams(weight=glorot_uniform(rng, channel_widths[l], channel_widths[l + 1], init_scale))
        for l in range(len(channel_widths) - 1)
    ]
    head = HeadParams(
        weight=glorot_uniform(rng, channel_widths[-1], NUM_CLASSES, init_scale),
        bias=np.zeros(NUM_CLASSES),
    )
    return Model(
        attention=attention,
        layers=layers,
        head=head,
        graph=build_feature_graph(topology, bin_spec.num_bins),
        bin_spec=bin_spec,
        channel_widths=tuple(channel_widths),
    )


def _check_finite(name: str, array: np.ndarray) -> None:
    if not np.isfinite(array).all():
        raise ContractViolationError(f"{name} contains non-finite values")


def attention_weights(features_h: np.ndarray, params: AttentionParams) -> np.ndarray:
    """Per-joint softmax over bins of the scores w_alpha . tanh(W_z h)."""
    alpha, _ = _attention_forward(features_h, params)
    return alpha


def _attention_forward(features_h: np.ndarray, params: AttentionParams):
    h = np.asarray(features_h, dtype=np.float64)
    if h.ndim != 3:
        raise ContractViolationError(f"features must be (N, B, C), got shape {h.shape}")
    _check_finite("features", h)
    pre_tanh = h @ params.w_z.T
    z = np.tanh(pre_tanh)
    scores = z @ params.w_alpha
    shifted = scores - scores.max(axis=1, keepdims=True)  # overflow safety
    exp = np.exp(shifted)
    alpha = exp / exp.sum(axis=1, keepdims=True)
    return alpha, (pre_tanh, z, scores)


def attention_aggregate(
    features_h: np.ndarray, alpha: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Aggregate V_i = sum_b alpha h and gate G = B * alpha * h.

    The B factor makes uniform attention reproduce the raw features, so an
    untrained (zero-score) model sees its input unchanged.
    """
    h = np.asarray(features_h, dtype=np.float64)
    a = np.asarray(alpha, dtype=np.float64)
    if a.shape != h.shape[:2]:
        raise ContractViolationError(f"alpha shape {a.shape} does not match features {h.shape[:2]}")
    if not np.allclose(a.sum(axis=1), 1.0, atol=1e-6):
        raise ContractViolationError("alpha rows must sum to 1")
    aggregate = np.einsum("nb,nbc->nc", a, h)
    gated = h.shape[1] * a[:, :, None] * h
    return aggregate, gated


def gcn_forward(a_hat: np.ndarray, h: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """One propagation step: ReLU(A_hat @ H @ W)."""
    if a_hat.shape[1] != h.shape[0] or h.shape[1] != weight.shape[0]:
        raise ContractViolationError(
            f"shape chain broken: A_hat {a_hat.shape}, H {h.shape}, W {weight.shape}"
        )
    return np.maximum(a_hat @ h @ weight, 0.0)


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max()
    exp = np.exp(shifted)
    return exp / exp.sum()


def model_forward(
    features: FrequencyFeatures | np.ndarray, model: Model
) -> tuple[Prediction, AttentionReport, ForwardCache]:
    """Full pipeline from binned features to a 0/1 prediction."""
    h = features.data if isinstance(features, FrequencyFeatures) else np.asarray(features)
    h = h.astype(np.float64)
    n, b = model.num_joints, model.num_bins
    if h.shape != (n, b, model.in_channels):
        raise ContractViolationError(
            f"features shape {h.shape} does not match model ({n}, {b}, {model.in_channels})"
        )
    alpha, (pre_tanh, z, scores) = _attention_forward(h, model.attention)
    _, gated = attention_aggregate(h, alpha)
    # (N, B, C) rows land at node index i*B + b, matching FeatureGraph.node_index.
    x = gated.reshape(n * b, model.in_channels)

    layer_inputs = [x]
    aggregated = []
    pre_relu = []
    for layer in model.layers:
        p = model.graph.propagate(layer_inputs[-1])
        zl = p @ layer.weight
        aggregated.append(p)
        pre_relu.append(zl)
        layer_inputs.append(np.maximum(zl, 0.0))

    pooled = layer_inputs[-1].mean(axis=0)
    logits = pooled @ model.head.weight + model.head.bias
    probability = _softmax(logits)
    prediction = Prediction(
        logits=(float(logits[0]), float(logits[1])),
        probability=(float(probability[0]), float(probability[1])),
        label=int(np.argmax(logits)),
    )
    report = _build_report(alpha)
    cache = ForwardCache(
        model=model,
        features=h,
        pre_tanh=pre_tanh,
        z=z,
        scores=scores,
        alpha=alpha,
        gated=x,
        layer_inputs=layer_inputs,
        aggregated=aggregated,
        pre_relu=pre_relu,
        pooled=pooled,
        logits=logits,
        probability=probability,
    )
    return prediction, report, cache


def _build_report(alpha: np.ndarray) -> AttentionReport:
    uniform = 1.0 / alpha.shape[1]
    importance = np.abs(alpha - uniform).max(axis=1)
    ranking = np.argsort(-importance, kind="stable")
    return AttentionReport(alpha=alpha, joint_importance=importance, ranking=ranking)


def attention_report(model: Model, features: FrequencyFeatures | np.ndarray) -> AttentionReport:
    """Attention weights and joint ranking for one input."""
    _, report, _ = model_forward(features, model)
    return report


def one_hot(label: int) -> np.ndarray:
    if label not in LABELS:
        raise ContractViolationError(f"label must be 0 or 1, got {label!r}")
    return np.array(LABELS[label])


def loss(logits: np.ndarray, label_onehot: np.ndarray) -> float:
    """Softmax cross-entropy, stabilized through log-sum-exp."""
    y = np.asarray(label_onehot, dtype=np.float64)
    if y.shape != (NUM_CLASSES,) or not (
        (y == LABELS[0]).all() or (y == LABELS[1]).all()
    ):
        raise ContractViolationError(f"label must be one-hot (1,0) or (0,1), got {y!r}")
    u = np.asarray(logits, dtype=np.float64)
    lse = float(np.logaddexp(u[0], u[1]))
    return lse - float(u @ y)


def backward(cache: ForwardCache, label_onehot: np.ndarray) -> Gradients:
    """Exact gradients of the cross-entropy loss for every parameter.

    Reverse-mode chain rule through the head, the mean pool, each
    ReLU(A_hat X W) layer, the B*alpha gating, the per-joint softmax, and
    the tanh transform.
    """
    y = np.asarray(label_onehot, dtype=np.float64)
    if y.shape != (NUM_CLASSES,) or not ((y == LABELS[0]).all() or (y == LABELS[1]).all()):
        raise ContractViolationError(f"label must be one-hot (1,0) or (0,1), got {y!r}")
    model = cache.model
    n, b = model.num_joints, model.num_bins
    length = n * b
    if cache.features.shape != (n, b, model.in_channels):
        raise ContractViolationError("cache does not match the model it claims to come from")

    # Head and pooling.
    d_logits = cache.probability - y
    d_head_weight = np.outer(cache.pooled, d_logits)
    d_head_bias = d_logits.copy()
    d_pooled = model.head.weight @ d_logits
    d_x = np.tile(d_pooled / length, (length, 1))

    # GCN layers, last to first. A_hat is symmetric so A_hat.T @ v = A_hat @ v.
    d_layers: list[np.ndarray] = [None] * model.num_layers
    for l in range(model.num_layers - 1, -1, -1):
        d_pre = d_x * (cache.pre_relu[l] > 0.0)
        d_layers[l] = cache.aggregated[l].T @ d_pre
        d_x = model.graph.propagate(d_pre @ model.layers[l].weight.T)

    # Gating G = B * alpha * h.
    d_gated = d_x.reshape(n, b, model.in_channels)
    d_alpha = b * np.einsum("nbc,nbc->nb", d_gated, cache.features)

    # Softmax over bins within each joint.
    weighted = (d_alpha * cache.alpha).sum(axis=1, keepdims=True)
    d_scores = cache.alpha * (d_alpha - weighted)

    # Scores s = w_alpha . z with z = tanh(W_z h).
    d_w_alpha = np.einsum("nb,nbc->c", d_scores, cache.z)
    d_z = d_scores[:, :, None] * model.attention.w_alpha
    d_pre_tanh = d_z * (1.0 - cache.z**2)
    d_w_z = np.einsum("nbr,nbc->rc", d_pre_tanh, cache.features)

    return Gradients(
        w_z=d_w_z,
        w_alpha=d_w_alpha,
        layers=d_layers,
        head_weight=d_head_weight,
        head_bias=d_head_bias,
    )


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
    for name, array in model.parameter_groups().items():
        mat = np.atleast_2d(array)
        lines.append(f"param {name} {mat.shape[0]} {mat.shape[1]}")
        for row in mat:
            lines.append(" ".join(repr(float(v)) for v in row))
    lines.append("end")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_model(path: str | Path) -> Model:
    path = Path(path)
    lines = path.read_text("utf-8").splitlines()
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
        if len(names) != num_joints:
            raise ModelMismatchError(f"{len(names)} joint names for {num_joints} joints")
        if len(widths) < 2:
            raise ModelMismatchError(f"channels {widths} need an input and one layer width")
        topology = SkeletonTopology(
            num_joints=num_joints, edges=tuple(edges), root=root, neck=neck,
            names=names, name=topo_name,
        )
        spec = BinSpec(c=bin_c, num_bins=num_bins)
    except (ValueError, ModelMismatchError) as exc:
        raise ModelMismatchError(f"{path.name}: malformed header: {exc}") from exc

    params: dict[str, np.ndarray] = {}
    while True:
        line = take()
        if line == "end":
            break
        parts = line.split()
        if len(parts) != 4 or parts[0] != "param":
            raise ModelMismatchError(f"{path.name}: expected a param block, found {line!r}")
        name = parts[1]
        try:
            rows, cols = int(parts[2]), int(parts[3])
            mat = np.array(
                [[float(v) for v in take().split()] for _ in range(rows)], dtype=np.float64
            )
        except ValueError as exc:
            raise ModelMismatchError(f"{path.name}: bad values in param {name}: {exc}") from exc
        if not np.isfinite(mat).all():
            raise ModelMismatchError(f"{path.name}: param {name} holds non-finite values")
        if mat.shape != (rows, cols):
            raise ModelMismatchError(
                f"{path.name}: param {name} declared {rows}x{cols}, got {mat.shape}"
            )
        params[name] = mat

    expected = ["w_z", "w_alpha"] + [f"layer{l}" for l in range(len(widths) - 1)] + [
        "head_weight",
        "head_bias",
    ]
    if list(params) != expected:
        raise ModelMismatchError(
            f"{path.name}: parameter groups {list(params)} do not match model shape {expected}"
        )
    c_in = widths[0]
    shapes = {
        "w_z": (c_in, c_in),
        "w_alpha": (1, c_in),
        "head_weight": (widths[-1], NUM_CLASSES),
        "head_bias": (1, NUM_CLASSES),
    }
    for l in range(len(widths) - 1):
        shapes[f"layer{l}"] = (widths[l], widths[l + 1])
    for name, shape in shapes.items():
        if params[name].shape != shape:
            raise ModelMismatchError(
                f"{path.name}: param {name} has shape {params[name].shape}, expected {shape}"
            )

    return Model(
        attention=AttentionParams(w_z=params["w_z"], w_alpha=params["w_alpha"][0]),
        layers=[GcnLayerParams(weight=params[f"layer{l}"]) for l in range(len(widths) - 1)],
        head=HeadParams(weight=params["head_weight"], bias=params["head_bias"][0]),
        graph=build_feature_graph(topology, num_bins),
        bin_spec=spec,
        channel_widths=widths,
    )
