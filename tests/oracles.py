"""Reference implementations that no command runs; tests compare production code against them."""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from freqgcn.errors import ContractViolationError, EmptyInputError, FormatError
from freqgcn.frequency import _finite_signals
from freqgcn.graph import FeatureGraph
from freqgcn.model import _attention_forward, _gate
from freqgcn.pose import _NOT_NUMERIC, PoseSequence, _check_values, _first_person, _frame_list, _load_json

POWER_ITERATIONS = 1000  # steps of spectral_radius


def dft_naive(signal) -> np.ndarray:
    """Direct evaluation of X[k] = sum_t x[t] exp(-2*pi*i*k*t/T) along the last axis.

    O(T^2); exists as the independent oracle for the fast transforms. The
    phase k*t is reduced mod T in integer arithmetic so large products do
    not lose precision.
    """
    x = _finite_signals(signal, "dft_naive", np.complex128)
    t = x.shape[-1]
    k = np.arange(t, dtype=np.int64)
    phase = (k[:, None] * k[None, :]) % t
    basis = np.exp((-2j * np.pi / t) * phase)
    return x @ basis  # the basis is symmetric


def unpack_real_pair(spectrum: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Spectra X, Y of two real signals x, y from the spectrum Z of x + i*y.

    X[k] = (Z[k] + conj Z[T-k]) / 2 and Y[k] = (Z[k] - conj Z[T-k]) / (2i),
    indices mod T, along the last axis (Numerical Recipes section 12.3).
    """
    mirrored = np.conj(np.roll(spectrum[..., ::-1], 1, axis=-1))
    return (spectrum + mirrored) / 2, (spectrum - mirrored) / 2j


def magnitude_half_spectrum(spectrum: np.ndarray) -> np.ndarray:
    """|X[k]| for k = 0 .. floor(T/2) along the last axis; the upper half of a
    real signal's spectrum is redundant."""
    spec = np.asarray(spectrum)
    if spec.ndim < 1 or spec.shape[-1] < 1:
        raise ContractViolationError(f"expected spectra of length >= 1, got shape {spec.shape}")
    t = spec.shape[-1]
    return np.abs(spec[..., : t // 2 + 1])


def keypoint_table(flats: list[list | None], n: int, labels: list[str] | None = None) -> np.ndarray:
    """(T, n, 3) x, y, confidence rows from per-frame keypoint lists.

    A frame with nobody detected (None) becomes all-missing: every value 0.
    The width check runs over every frame, then the number check; each error
    begins with the first failing frame's entry of ``labels``, if given.
    """
    def named(t: int, message: str) -> str:
        return message if labels is None else f"{labels[t]}: {message}"

    for t, flat in enumerate(flats):
        if flat is not None and len(flat) != 3 * n:
            raise FormatError(
                named(t, f"document carries {len(flat) // 3} joints, topology expects {n}")
            )
    rows = [[0.0] * (3 * n) if flat is None else flat for flat in flats]
    for t, row in enumerate(rows):
        try:
            array = np.array(row)
        except ValueError:  # ragged: a keypoint array holds a nested list
            raise FormatError(named(t, _NOT_NUMERIC)) from None
        if array.ndim != 1 or array.dtype.kind not in "biuf":
            raise FormatError(named(t, _NOT_NUMERIC))
    return np.array(rows).astype(np.float64, copy=False).reshape(len(rows), n, 3)


def inferred_joints(flats: list[list | None]) -> int | None:
    """Joint count of the first frame with a detection."""
    return next((len(flat) // 3 for flat in flats if flat is not None), None)


def json_table(path: Path, names: list[str] | None, expected_joints: int | None) -> np.ndarray:
    """The (T, n, 3) table from one ``json.loads`` per document of a directory or container."""
    if names is not None:
        flats = []
        for t, name in enumerate(names):
            with open(name, "rb") as handle:
                flats.append(_frame_list(path, names, t, handle.read()))
        if not flats:
            raise EmptyInputError(f"no keypoint files in {path}")
        labels = [os.path.basename(name) for name in names]
    else:
        try:
            docs = _load_json(path.read_bytes(), "container file")
            if not isinstance(docs, list):
                raise FormatError("container file must hold a JSON array of frame documents")
        except FormatError as exc:
            exc.args = (f"{path.name}: {exc}",)
            raise
        if not docs:
            raise EmptyInputError(f"container file {path} holds no frames")
        flats = [_frame_list(path, None, t, doc) for t, doc in enumerate(docs)]
        labels = [f"frame {t} of {path.name}" for t in range(len(docs))]
    n = expected_joints if expected_joints is not None else inferred_joints(flats)
    if n is None:
        raise EmptyInputError(f"every frame in {path} is empty; joint count unknown")
    return keypoint_table(flats, n, labels)


def parse_keypoint_frame(raw: bytes | str, expected_joints: int | None = None) -> np.ndarray:
    """Parse one OpenPose-style per-frame document into (N, 3) x, y, confidence rows.

    An empty ``people`` array yields an all-missing frame (every confidence 0),
    which requires ``expected_joints`` to fix the joint count.
    """
    flats = [_first_person(_load_json(raw, "keypoint document"))]
    n = expected_joints if expected_joints is not None else inferred_joints(flats)
    if n is None:
        raise FormatError(
            "empty 'people' array and no configured joint count to build a missing frame"
        )
    frame = keypoint_table(flats, n)[0]
    _check_values(frame[:, :2], frame[:, 2], FormatError)
    return frame


def interpolate_missing(seq: PoseSequence) -> PoseSequence:
    """Gap fill by one ``np.interp`` per gapped joint and channel over its observed frames.

    Interior gaps take the linear interpolation between the nearest observed frames, leading
    and trailing gaps the nearest observed value; the lowest joint observed in no frame is a
    ContractViolationError.
    """
    observed = seq.confidence > 0.0
    gapped = np.flatnonzero(~observed.all(axis=0))
    if gapped.size == 0:
        return seq
    unseen = np.flatnonzero(~observed.any(axis=0))
    if unseen.size:
        raise ContractViolationError(f"joint {unseen[0]} is missing in every frame")
    pos = seq.positions.copy()
    conf = seq.confidence.copy()
    t_axis = np.arange(len(seq), dtype=np.float64)
    for j in gapped:
        seen = observed[:, j]
        t_obs = t_axis[seen]
        pos[:, j, 0] = np.interp(t_axis, t_obs, pos[seen, j, 0])
        pos[:, j, 1] = np.interp(t_axis, t_obs, pos[seen, j, 1])
        conf[:, j] = np.interp(t_axis, t_obs, conf[seen, j])
    return PoseSequence(pos, fps=seq.fps, confidence=conf)


def node_index(graph: FeatureGraph, b: int, i: int) -> int:
    """Bijection (bin b, joint i) -> [0, L); joint-major layout."""
    if not (0 <= b < graph.num_bins and 0 <= i < graph.topology.num_joints):
        raise IndexError(f"(bin {b}, joint {i}) outside graph")
    return i * graph.num_bins + b


def adjacency(graph: FeatureGraph) -> np.ndarray:
    """Dense L x L adjacency: same-bin skeleton edges plus the bin chain per joint."""
    n, num_bins = graph.topology.num_joints, graph.num_bins
    a = np.zeros((num_bins * n, num_bins * n), dtype=np.float64)
    for b in range(num_bins):
        for i, j in graph.topology.edges:
            a[node_index(graph, b, i), node_index(graph, b, j)] = 1.0
            a[node_index(graph, b, j), node_index(graph, b, i)] = 1.0
    for i in range(n):
        for b in range(num_bins - 1):
            a[node_index(graph, b, i), node_index(graph, b + 1, i)] = 1.0
            a[node_index(graph, b + 1, i), node_index(graph, b, i)] = 1.0
    return a


def normalized(graph: FeatureGraph) -> np.ndarray:
    """Dense D^-1/2 (A + I) D^-1/2, the oracle for :meth:`FeatureGraph.propagate`."""
    return normalize_adjacency(adjacency(graph))


def normalize_adjacency(matrix: np.ndarray) -> np.ndarray:
    """Symmetric normalization with self loops.

    Adds the identity, then scales by inverse square-root degree on both
    sides. Every degree is >= 1 after the self loop, so the scaling is
    always defined and the result keeps spectral radius <= 1.
    """
    a = np.asarray(matrix, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ContractViolationError(f"adjacency must be square, got shape {a.shape}")
    if not np.array_equal(a, a.T):
        raise ContractViolationError("adjacency must be symmetric")
    if np.any(np.diag(a) != 0.0):
        raise ContractViolationError("adjacency must have a zero diagonal")
    if not np.isin(a, (0.0, 1.0)).all():
        raise ContractViolationError("adjacency entries must be 0 or 1")
    with_loops = a + np.eye(a.shape[0])
    inv_sqrt_degree = 1.0 / np.sqrt(with_loops.sum(axis=1))
    return with_loops * inv_sqrt_degree[:, None] * inv_sqrt_degree[None, :]


def spectral_radius(matrix: np.ndarray) -> float:
    """Dominant absolute eigenvalue estimate by power iteration."""
    m = np.asarray(matrix, dtype=np.float64)
    v = np.full(m.shape[0], 1.0 / np.sqrt(m.shape[0]))
    for _ in range(POWER_ITERATIONS):
        w = m @ v
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0
        v = w / norm
    return float(abs(v @ (m @ v)))


@dataclass(eq=False)
class AttentionParams:
    """Attention parameters passed on their own to :func:`attention_weights`."""

    w_z: np.ndarray  # (C, C)
    w_alpha: np.ndarray  # (C,)


def attention_weights(features_h: np.ndarray, params: AttentionParams) -> np.ndarray:
    """Per-joint softmax over bins of the scores w_alpha . tanh(W_z h)."""
    alpha, _ = _attention_forward(features_h, params.w_z, params.w_alpha)
    return alpha


def attention_aggregate(
    features_h: np.ndarray, alpha: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Aggregate V_i = sum_b alpha h and gate G = B * alpha * h for a caller's alpha.

    The B factor makes uniform attention reproduce the raw features, so an
    untrained (zero-score) model sees its input unchanged.
    """
    h = np.asarray(features_h, dtype=np.float64)
    a = np.asarray(alpha, dtype=np.float64)
    if a.shape != h.shape[:2]:
        raise ContractViolationError(f"alpha shape {a.shape} does not match features {h.shape[:2]}")
    if not np.allclose(a.sum(axis=1), 1.0, atol=1e-6):
        raise ContractViolationError("alpha rows must sum to 1")
    return np.einsum("nb,nbc->nc", a, h), _gate(h, a)
