"""Labeled synthetic skeletal sequences with controlled spectral content.

Class 0 oscillates a chosen joint subset inside a low frequency band,
class 1 inside a disjoint mid band; every other joint carries only
positional noise. Band energies land on exact DFT grid frequencies by
default so tests see no spectral leakage.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import AliasingConfigError, ContractViolationError, FormatError
from .files import write_atomic
from .graph import SkeletonTopology, builtin_topology
from .pose import PoseSequence, write_sequence

# Canonical rest poses in pixel coordinates, one (x, y) row per joint.
_REST_POSES: dict[str, tuple[tuple[float, float], ...]] = {
    "toy5": (
        (200.0, 260.0),  # root
        (200.0, 200.0),  # mid
        (200.0, 140.0),  # tip
        (150.0, 200.0),  # left
        (250.0, 200.0),  # right
    ),
    "body25": (
        (200.0, 190.0), (200.0, 220.0), (170.0, 220.0), (155.0, 255.0), (145.0, 290.0),
        (230.0, 220.0), (245.0, 255.0), (255.0, 290.0), (200.0, 300.0), (180.0, 300.0),
        (178.0, 360.0), (176.0, 420.0), (220.0, 300.0), (222.0, 360.0), (224.0, 420.0),
        (192.0, 182.0), (208.0, 182.0), (184.0, 188.0), (216.0, 188.0), (232.0, 432.0),
        (240.0, 430.0), (222.0, 428.0), (168.0, 432.0), (160.0, 430.0), (178.0, 428.0),
    ),
    "coco18": (
        (200.0, 190.0), (200.0, 220.0), (170.0, 220.0), (155.0, 255.0), (145.0, 290.0),
        (230.0, 220.0), (245.0, 255.0), (255.0, 290.0), (180.0, 300.0), (178.0, 360.0),
        (176.0, 420.0), (220.0, 300.0), (222.0, 360.0), (224.0, 420.0), (192.0, 182.0),
        (208.0, 182.0), (184.0, 188.0), (216.0, 188.0),
    ),
}


def rest_pose(topology: SkeletonTopology) -> np.ndarray:
    """(N, 2) rest layout; unnamed topologies get a circle placement."""
    preset = _REST_POSES.get(topology.name)
    if preset is not None:
        return np.array(preset, dtype=np.float64)
    angles = 2.0 * np.pi * np.arange(topology.num_joints) / topology.num_joints
    return np.stack([200.0 + 100.0 * np.cos(angles), 200.0 + 100.0 * np.sin(angles)], axis=1)


@dataclass(frozen=True)
class SynthConfig:
    """Generator settings; amplitude and noise are in torso-scale units."""

    topology: str = "toy5"
    num_frames: int = 1000
    fps: float = 30.0
    class0_band: tuple[float, float] = (0.5, 1.5)
    class1_band: tuple[float, float] = (3.0, 4.0)
    signal_joints: tuple[int, ...] = (1, 4)
    amplitude: float = 0.25
    noise_sigma: float = 0.02
    seed: int = 0
    on_grid: bool = True

    def __post_init__(self):
        topo = builtin_topology(self.topology)
        for name in ("fps", "amplitude", "noise_sigma"):
            if not math.isfinite(getattr(self, name)):
                raise ContractViolationError(f"{name} must be finite, got {getattr(self, name)}")
        if self.num_frames < 2:
            raise ContractViolationError(f"num_frames must be >= 2, got {self.num_frames}")
        if self.fps <= 0:
            raise ContractViolationError(f"fps must be positive, got {self.fps}")
        nyquist = self.fps / 2.0
        for name, (lo, hi) in (("class0", self.class0_band), ("class1", self.class1_band)):
            if not 0.0 < lo < hi:
                raise ContractViolationError(f"{name} band must satisfy 0 < lo < hi, got ({lo}, {hi})")
            if hi >= nyquist:
                raise AliasingConfigError(
                    f"{name} band edge {hi} Hz reaches the Nyquist limit {nyquist} Hz"
                )
        lo0, hi0 = self.class0_band
        lo1, hi1 = self.class1_band
        if max(lo0, lo1) <= min(hi0, hi1):
            raise ContractViolationError("class bands must be disjoint intervals")
        if not self.signal_joints:
            raise ContractViolationError("signal_joints must not be empty")
        bad = [j for j in self.signal_joints if not 0 <= j < topo.num_joints]
        if bad:
            raise ContractViolationError(f"signal joints {bad} outside topology with {topo.num_joints} joints")
        if not self.amplitude > 0:
            raise ContractViolationError(f"amplitude must be positive, got {self.amplitude}")
        if self.noise_sigma < 0:
            raise ContractViolationError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        if self.seed < 0:
            raise ContractViolationError(f"seed must be >= 0, got {self.seed}")


def _draw_band_frequency(
    rng: np.random.Generator, band: tuple[float, float], cfg: SynthConfig
) -> float:
    if not cfg.on_grid:
        return float(rng.uniform(*band))
    # Snap to DFT grid multiples of fps/T so the tone fills one exact index.
    step = cfg.fps / cfg.num_frames
    k_lo = max(1, math.ceil(band[0] / step))
    k_hi = math.floor(band[1] / step)
    if k_hi < k_lo:
        raise ContractViolationError(
            f"band {band} contains no on-grid frequency at T={cfg.num_frames}, fps={cfg.fps}"
        )
    return float(rng.integers(k_lo, k_hi + 1) * step)


def generate_sequence(cfg: SynthConfig, label: int, seed: int) -> PoseSequence:
    """One labeled sequence; deterministic per (cfg, label, seed)."""
    if label not in (0, 1):
        raise ContractViolationError(f"label must be 0 or 1, got {label!r}")
    topo = builtin_topology(cfg.topology)
    rest = rest_pose(topo)
    torso = float(np.linalg.norm(rest[topo.root] - rest[topo.neck]))
    rng = np.random.default_rng([cfg.seed, label, seed])

    t = cfg.num_frames
    positions = np.tile(rest, (t, 1, 1))
    positions += rng.normal(0.0, cfg.noise_sigma * torso, size=positions.shape)
    band = cfg.class1_band if label == 1 else cfg.class0_band
    time_axis = np.arange(t)
    for joint in cfg.signal_joints:
        freq = _draw_band_frequency(rng, band, cfg)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        positions[:, joint, 0] += cfg.amplitude * torso * np.sin(
            2.0 * np.pi * freq * time_axis / cfg.fps + phase
        )
    return PoseSequence(positions, fps=cfg.fps)


@dataclass(frozen=True)
class SynthSample:
    sequence_id: str
    sequence: PoseSequence
    label: int
    split: str  # "train" | "test"
    seed: int


@dataclass(frozen=True)
class SynthDataset:
    samples: tuple[SynthSample, ...]

    @property
    def train(self) -> list[SynthSample]:
        return [s for s in self.samples if s.split == "train"]

    @property
    def test(self) -> list[SynthSample]:
        return [s for s in self.samples if s.split == "test"]


def generate_dataset(cfg: SynthConfig, n_per_class: int, seed: int) -> SynthDataset:
    """Balanced 2*n_per_class sequences, split 2:1 train:test per class."""
    if n_per_class < 2:
        raise ContractViolationError(f"n_per_class must be >= 2, got {n_per_class}")
    if seed < 0:
        raise ContractViolationError(f"seed must be >= 0, got {seed}")
    n_train = (2 * n_per_class) // 3
    samples = []
    index = 0
    for label in (0, 1):
        for i in range(n_per_class):
            # Disjoint per-sequence seeds that still depend on the master seed.
            seq_seed = seed * 1_000_003 + index
            samples.append(
                SynthSample(
                    sequence_id=f"seq_{index:04d}",
                    sequence=generate_sequence(cfg, label, seq_seed),
                    label=label,
                    split="train" if i < n_train else "test",
                    seed=seq_seed,
                )
            )
            index += 1
    return SynthDataset(samples=tuple(samples))


def write_dataset(dataset: SynthDataset, root: str | Path) -> Path:
    """Lay the dataset out as sequences/<id>/frame_*.json plus manifest.csv."""
    root = Path(root)
    seq_root = root / "sequences"
    seq_root.mkdir(parents=True, exist_ok=True)
    for sample in dataset.samples:
        write_sequence(sample.sequence, seq_root / sample.sequence_id)
    manifest = root / "manifest.csv"
    write_manifest(dataset, manifest)
    return manifest


def write_manifest(dataset: SynthDataset, path: str | Path) -> None:
    lines = ["sequence_id,label,split,seed"]
    lines += [
        f"{s.sequence_id},{s.label},{s.split},{s.seed}" for s in dataset.samples
    ]
    write_atomic(path, "\n".join(lines) + "\n")


def read_manifest(path: str | Path) -> list[dict[str, str]]:
    """Rows of the dataset manifest; each needs a sequence_id and a label of 0 or 1."""
    path = Path(path)
    rows = []
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        try:
            missing = {"sequence_id", "label"} - set(reader.fieldnames or ())
            if reader.fieldnames and missing:
                raise FormatError(f"{path.name}: manifest missing columns {sorted(missing)}")
            for row in reader:
                if not row["sequence_id"] or row["label"] not in ("0", "1"):
                    raise FormatError(
                        f"{path.name}:{reader.line_num}: expected a sequence_id and a label "
                        f"of 0 or 1, got {row['sequence_id']!r} and {row['label']!r}"
                    )
                rows.append(row)
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path.name}: not a UTF-8 text file: {exc}") from None
    if not rows:
        raise FormatError(f"{path.name}: empty manifest")
    return rows
