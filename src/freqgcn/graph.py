"""Skeleton topologies and the bins-by-joints feature graph.

A feature graph has one node per (bin, joint) pair. Two edge families:
same-bin copies of every skeleton edge, and a chain linking consecutive
bins of each joint. Graph convolutions run on the symmetric-normalized
adjacency with self loops, applied through the graph's product structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ContractViolationError, FormatError
from .files import read_input

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
        raise ContractViolationError(
            f"unknown topology preset {name!r}; valid names: {', '.join(sorted(_PRESETS))}"
        ) from None
    return SkeletonTopology(name=name, **spec)


def read_topology(path: str | Path) -> SkeletonTopology:
    """Parse the edge-list text form: a ``# N=<n>`` line, optional ``# root=<i>`` and
    ``# neck=<i>`` lines (default 0 and 1) and ``# joint <i> <name>`` lines, and one ``i j``
    edge per other non-blank line."""
    path = Path(path)
    header: dict[str, int] = {}  # N, root and neck, each from one '# <key>=' line
    names: dict[int, str] = {}
    name_lines: dict[int, int] = {}  # joint -> the line that names it
    edges: list[tuple[int, int]] = []
    for lineno, line in enumerate(read_input(path, FormatError, "topology file").splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            if line.startswith("#"):
                body = line[1:].strip()
                key, equals, value = body.partition("=")
                if equals and key in ("N", "root", "neck"):
                    if key in header:
                        raise FormatError(f"{path.name}:{lineno}: a second '# {key}=' line")
                    header[key] = int(value)
                elif body.startswith("joint "):
                    _, idx, label = body.split(maxsplit=2)
                    joint = int(idx)
                    if joint in names:
                        raise FormatError(f"{path.name}:{lineno}: joint {joint} is named twice")
                    names[joint] = label
                    name_lines[joint] = lineno
                continue
            i, j = line.split()
            edges.append((int(i), int(j)))
        except ValueError:
            raise FormatError(f"{path.name}:{lineno}: cannot parse {line!r}") from None
    n, root, neck = header.get("N"), header.get("root", 0), header.get("neck", 1)
    if n is None:
        raise FormatError(f"{path.name}: missing '# N=<n>' header")
    if n > len(edges) + 1:  # before any per-joint work, so a huge N fails at once
        raise FormatError(f"{path.name}: {len(edges)} edges cannot connect {n} joints")
    for joint, lineno in name_lines.items():  # after the loop: '# N=' may follow the names
        if not 0 <= joint < n:
            raise FormatError(f"{path.name}:{lineno}: joint {joint} is outside [0, {n})")
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
    applied by :meth:`propagate` without forming an L x L matrix.
    """

    topology: SkeletonTopology
    num_bins: int
    joint_operator: np.ndarray  # (N, N) skeleton adjacency plus identity
    bin_operator: np.ndarray  # (B, B) path adjacency over the bins
    scale: np.ndarray  # (N, B, 1) inverse square-root degree, self loop included

    @property
    def num_nodes(self) -> int:
        return self.topology.num_joints * self.num_bins

    def propagate(self, x: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
        """Normalized adjacency times node features, for x of shape (L, C) or for each of E
        graphs stacked as (E*L, C), written into ``out`` (shaped like x) and returned.

        With Y = s * X the product is s * ((A_skel + I) Y over joints +
        A_path Y over bins). The operator is symmetric, so the same call
        serves the backward pass. ``scratch`` (2 * x.size elements) holds
        the temporaries, so a caller reuses both buffers.
        """
        n, b, c = self.topology.num_joints, self.num_bins, x.shape[-1]
        # Scaling by an (N, B, C) copy rather than the (N, B, 1) column keeps numpy's inner loops long.
        scale = np.repeat(self.scale, c, axis=-1)
        y = np.multiply(scale, x.reshape(-1, n, b, c), out=scratch[: x.size].reshape(-1, n, b, c))
        joints = (len(y), n, b * c)  # per graph, one row per joint
        joint = np.matmul(self.joint_operator, y.reshape(joints), out=scratch[x.size :].reshape(joints))
        out = np.matmul(self.bin_operator, y, out=out.reshape(y.shape))
        out += joint.reshape(y.shape)
        out *= scale
        return out.reshape(x.shape)


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
