"""Skeleton topologies and the bins-by-joints feature graph.

A feature graph has one node per (bin, joint) pair. Two edge families:
same-bin copies of every skeleton edge, and a chain linking consecutive
bins of each joint. Graph convolutions run on the symmetric-normalized
adjacency with self loops, applied through the graph's product structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import ContractViolationError, FormatError, UnknownPresetError
from .files import write_atomic

POWER_ITERATIONS = 1000  # steps of spectral_radius

# OpenPose BODY_25 joint order.
_BODY25_NAMES = (
    "nose", "neck", "r_shoulder", "r_elbow", "r_wrist",
    "l_shoulder", "l_elbow", "l_wrist", "mid_hip", "r_hip",
    "r_knee", "r_ankle", "l_hip", "l_knee", "l_ankle",
    "r_eye", "l_eye", "r_ear", "l_ear", "l_big_toe",
    "l_small_toe", "l_heel", "r_big_toe", "r_small_toe", "r_heel",
)
_BODY25_EDGES = (
    (0, 1), (1, 2), (2, 3), (3, 4), (1, 5), (5, 6), (6, 7),
    (1, 8), (8, 9), (9, 10), (10, 11), (8, 12), (12, 13), (13, 14),
    (0, 15), (15, 17), (0, 16), (16, 18),
    (14, 19), (19, 20), (14, 21), (11, 22), (22, 23), (11, 24),
)

# OpenPose COCO-18 joint order.
_COCO18_NAMES = (
    "nose", "neck", "r_shoulder", "r_elbow", "r_wrist",
    "l_shoulder", "l_elbow", "l_wrist", "r_hip", "r_knee",
    "r_ankle", "l_hip", "l_knee", "l_ankle", "r_eye",
    "l_eye", "r_ear", "l_ear",
)
_COCO18_EDGES = (
    (0, 1), (1, 2), (2, 3), (3, 4), (1, 5), (5, 6), (6, 7),
    (1, 8), (8, 9), (9, 10), (1, 11), (11, 12), (12, 13),
    (0, 14), (14, 16), (0, 15), (15, 17),
)


@dataclass(frozen=True)
class SkeletonTopology:
    """Joint set with its natural anatomical connections.

    ``root`` anchors normalization; ``neck`` is the second endpoint of the
    torso segment that sets the scale.
    """

    num_joints: int
    edges: tuple[tuple[int, int], ...]
    root: int
    neck: int
    names: tuple[str, ...] = ()
    name: str = "custom"

    def __post_init__(self):
        n = self.num_joints
        if n < 2:
            raise ContractViolationError("a topology needs at least 2 joints")
        canonical = []
        seen = set()
        for i, j in self.edges:
            if not (0 <= i < n and 0 <= j < n):
                raise ContractViolationError(f"edge ({i}, {j}) references a joint outside 0..{n - 1}")
            if i == j:
                raise ContractViolationError(f"self-loop on joint {i}")
            key = (min(i, j), max(i, j))
            if key in seen:
                raise ContractViolationError(f"duplicate edge {key}")
            seen.add(key)
            canonical.append(key)
        object.__setattr__(self, "edges", tuple(canonical))
        if not (0 <= self.root < n and 0 <= self.neck < n):
            raise ContractViolationError("root/neck must be valid joint indices")
        if not self.names:
            object.__setattr__(self, "names", tuple(f"j{i}" for i in range(n)))
        elif len(self.names) != n:
            raise ContractViolationError(f"{len(self.names)} names for {n} joints")
        if not self._connected():
            raise ContractViolationError("skeleton graph must be connected")

    def _connected(self) -> bool:
        adj = [[] for _ in range(self.num_joints)]
        for i, j in self.edges:
            adj[i].append(j)
            adj[j].append(i)
        seen = {0}
        stack = [0]
        while stack:
            for nb in adj[stack.pop()]:
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        return len(seen) == self.num_joints

    @property
    def num_edges(self) -> int:
        return len(self.edges)


_PRESETS = {
    "body25": dict(
        num_joints=25, edges=_BODY25_EDGES, root=8, neck=1, names=_BODY25_NAMES
    ),
    # COCO has no mid-hip joint; the right hip anchors normalization.
    "coco18": dict(
        num_joints=18, edges=_COCO18_EDGES, root=8, neck=1, names=_COCO18_NAMES
    ),
    "toy5": dict(
        num_joints=5,
        edges=((0, 1), (1, 2), (1, 3), (1, 4)),
        root=0,
        neck=1,
        names=("root", "mid", "tip", "left", "right"),
    ),
}


def builtin_topology(name: str) -> SkeletonTopology:
    """Return a named preset: body25, coco18, or toy5."""
    try:
        spec = _PRESETS[name]
    except KeyError:
        raise UnknownPresetError(
            f"unknown topology preset {name!r}; valid names: {', '.join(sorted(_PRESETS))}"
        ) from None
    return SkeletonTopology(name=name, **spec)


def write_topology(topology: SkeletonTopology, path: str | Path) -> None:
    """Emit the edge-list text form: ``# N=<n>`` header, one ``i j`` pair per line."""
    lines = [
        f"# N={topology.num_joints}",
        f"# root={topology.root}",
        f"# neck={topology.neck}",
    ]
    lines += [f"# joint {i} {name}" for i, name in enumerate(topology.names)]
    lines += [f"{i} {j}" for i, j in topology.edges]
    write_atomic(path, "\n".join(lines) + "\n")


def read_topology(path: str | Path) -> SkeletonTopology:
    """Parse the edge-list text form written by :func:`write_topology`."""
    path = Path(path)
    n = None
    root = 0
    neck = 1
    names: dict[int, str] = {}
    edges: list[tuple[int, int]] = []
    try:
        text = path.read_text("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path.name}: not a UTF-8 text file: {exc}") from None
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            if line.startswith("#"):
                body = line[1:].strip()
                if body.startswith("N="):
                    n = int(body[2:])
                elif body.startswith("root="):
                    root = int(body[5:])
                elif body.startswith("neck="):
                    neck = int(body[5:])
                elif body.startswith("joint "):
                    _, idx, label = body.split(maxsplit=2)
                    names[int(idx)] = label
                continue
            i, j = line.split()
            edges.append((int(i), int(j)))
        except ValueError:
            raise FormatError(f"{path.name}:{lineno}: cannot parse {line!r}") from None
    if n is None:
        raise FormatError(f"{path.name}: missing '# N=<n>' header")
    if n > len(edges) + 1:  # before any per-joint work, so a huge N fails at once
        raise FormatError(f"{path.name}: {len(edges)} edges cannot connect {n} joints")
    name_tuple = tuple(names.get(i, f"j{i}") for i in range(n)) if names else ()
    try:
        return SkeletonTopology(
            num_joints=n, edges=tuple(edges), root=root, neck=neck,
            names=name_tuple, name=path.stem,
        )
    except ContractViolationError as exc:
        raise FormatError(f"{path.name}: {exc}") from None


@dataclass(frozen=True, eq=False)
class FeatureGraph:
    """Bins-by-joints graph over L = B*N nodes, joint-major.

    The graph is the Cartesian product of the skeleton and a path over the
    bins, A = A_skel (x) I_B + I_N (x) A_path, so D^-1/2 (A + I) D^-1/2 is
    applied by :meth:`propagate` without forming an L x L matrix. The dense
    ``adjacency`` and ``normalized`` forms are built on first access only,
    as the reference the structured operator is tested against.
    """

    topology: SkeletonTopology
    num_bins: int
    joint_operator: np.ndarray  # (N, N) skeleton adjacency plus identity
    bin_operator: np.ndarray  # (B, B) path adjacency over the bins
    scale: np.ndarray  # (N, B, 1) inverse square-root degree, self loop included

    @property
    def num_nodes(self) -> int:
        return self.topology.num_joints * self.num_bins

    def node_index(self, b: int, i: int) -> int:
        """Bijection (bin b, joint i) -> [0, L); joint-major layout."""
        if not (0 <= b < self.num_bins and 0 <= i < self.topology.num_joints):
            raise IndexError(f"(bin {b}, joint {i}) outside graph")
        return i * self.num_bins + b

    def propagate(
        self, x: np.ndarray, out: np.ndarray | None = None, scratch: np.ndarray | None = None
    ) -> np.ndarray:
        """Normalized adjacency times node features: ``normalized @ x`` for x of shape (L, C),
        or for each of E graphs stacked as (E*L, C).

        With Y = s * X the product is s * ((A_skel + I) Y over joints +
        A_path Y over bins). The operator is symmetric, so the same call
        serves the backward pass. ``out`` (shaped like x) receives the
        result and ``scratch`` (2 * x.size elements) holds the temporaries,
        so a caller can reuse both.
        """
        n, b, c = self.topology.num_joints, self.num_bins, x.shape[-1]
        if scratch is None:
            scratch = np.empty(2 * x.size)
        # Scaling by an (N, B, C) copy rather than the (N, B, 1) column keeps numpy's inner loops long.
        scale = np.repeat(self.scale, c, axis=-1)
        y = np.multiply(scale, x.reshape(-1, n, b, c), out=scratch[: x.size].reshape(-1, n, b, c))
        joints = (len(y), n, b * c)  # per graph, one row per joint
        joint = np.matmul(self.joint_operator, y.reshape(joints), out=scratch[x.size :].reshape(joints))
        out = np.matmul(self.bin_operator, y, out=None if out is None else out.reshape(y.shape))
        out += joint.reshape(y.shape)
        out *= scale
        return out.reshape(x.shape)

    @cached_property
    def adjacency(self) -> np.ndarray:
        """Dense L x L adjacency: same-bin skeleton edges plus the bin chain per joint."""
        n, num_bins = self.topology.num_joints, self.num_bins
        length = num_bins * n
        a = np.zeros((length, length), dtype=np.float64)

        def node(b: int, i: int) -> int:
            return i * num_bins + b

        for b in range(num_bins):
            for i, j in self.topology.edges:
                a[node(b, i), node(b, j)] = 1.0
                a[node(b, j), node(b, i)] = 1.0
        for i in range(n):
            for b in range(num_bins - 1):
                a[node(b, i), node(b + 1, i)] = 1.0
                a[node(b + 1, i), node(b, i)] = 1.0
        return a

    @cached_property
    def normalized(self) -> np.ndarray:
        """Dense D^-1/2 (A + I) D^-1/2, the oracle for :meth:`propagate`."""
        return normalize_adjacency(self.adjacency)


def build_feature_graph(topology: SkeletonTopology, num_bins: int) -> FeatureGraph:
    """Connect same-bin skeleton edges and the low-to-high bin chain per joint."""
    if num_bins < 1:
        raise ContractViolationError(f"num_bins must be >= 1, got {num_bins}")
    n = topology.num_joints
    joint_operator = np.eye(n)
    for i, j in topology.edges:
        joint_operator[i, j] = joint_operator[j, i] = 1.0
    bin_operator = np.eye(num_bins, k=1) + np.eye(num_bins, k=-1)
    degree = joint_operator.sum(axis=1)[:, None] + bin_operator.sum(axis=1)[None, :]
    return FeatureGraph(
        topology=topology,
        num_bins=num_bins,
        joint_operator=joint_operator,
        bin_operator=bin_operator,
        scale=(1.0 / np.sqrt(degree))[:, :, None],
    )


def normalize_adjacency(adjacency: np.ndarray) -> np.ndarray:
    """Symmetric normalization with self loops.

    Adds the identity, then scales by inverse square-root degree on both
    sides. Every degree is >= 1 after the self loop, so the scaling is
    always defined and the result keeps spectral radius <= 1.
    """
    a = np.asarray(adjacency, dtype=np.float64)
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
