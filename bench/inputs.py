"""Seeded inputs for the freqgcn benchmark and the reference pipeline that checks them.

Everything here depends only on numpy and the seed, never on the package
under test, so the inputs of a seed stay byte-identical across versions of
the program. The reference features use ``numpy.fft.rfft`` in place of the
program's own FFT; ``bin_edges`` is passed in by the caller.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

FPS = 30.0
BINS = 22
GROWTH = 1.15
CLASS_BANDS = ((0.5, 1.5), (3.0, 4.0))  # Hz, label 0 and label 1
AMPLITUDE = 0.25  # torso units
NOISE = 0.02  # torso units
MISSING_SHARE = 0.05  # keypoints hidden in short runs
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class Skeleton:
    name: str
    rest: tuple[tuple[float, float], ...]
    root: int
    neck: int
    signal_joints: tuple[int, ...]

    @property
    def num_joints(self) -> int:
        return len(self.rest)


BODY25 = Skeleton(
    name="body25",
    rest=(
        (320.0, 110.0), (320.0, 160.0), (280.0, 160.0), (262.0, 220.0), (255.0, 275.0),
        (360.0, 160.0), (378.0, 220.0), (385.0, 275.0), (320.0, 280.0), (298.0, 280.0),
        (295.0, 370.0), (292.0, 455.0), (342.0, 280.0), (345.0, 370.0), (348.0, 455.0),
        (310.0, 100.0), (330.0, 100.0), (300.0, 105.0), (340.0, 105.0), (362.0, 472.0),
        (370.0, 470.0), (345.0, 468.0), (278.0, 472.0), (270.0, 470.0), (295.0, 468.0),
    ),
    root=8,
    neck=1,
    signal_joints=(3, 4, 6, 7),
)

TOY5 = Skeleton(
    name="toy5",
    rest=((200.0, 260.0), (200.0, 200.0), (200.0, 140.0), (150.0, 200.0), (250.0, 200.0)),
    root=0,
    neck=1,
    signal_joints=(2, 4),
)


@dataclass(frozen=True)
class Recording:
    """One generated pose sequence exactly as written to disk."""

    positions: np.ndarray  # (T, N, 2), rounded as serialized; 0 where missing
    confidence: np.ndarray  # (T, N), 0 where missing
    empty_frames: tuple[int, ...]
    label: int

    @property
    def frames(self) -> int:
        return self.positions.shape[0]

    @property
    def missing_keypoints(self) -> int:
        return int((self.confidence == 0.0).sum())


def make_recording(
    rng: np.random.Generator, skeleton: Skeleton, frames: int, label: int,
    band_position: float | None = None,
) -> Recording:
    """Rest pose plus noise, off-grid oscillation of the signal joints in the
    label's band, about 5% of keypoints hidden in runs of 1-8 frames and a few
    frames with nobody detected.

    ``band_position`` in [0, 1] places every signal joint's frequency at that
    point of the band; by default each joint draws its own.
    """
    rest = np.array(skeleton.rest)
    torso = float(np.linalg.norm(rest[skeleton.root] - rest[skeleton.neck]))
    n = skeleton.num_joints
    pos = np.broadcast_to(rest, (frames, n, 2)) + rng.normal(0.0, NOISE * torso, (frames, n, 2))
    t = np.arange(frames) / FPS
    band = CLASS_BANDS[label]
    for joint in skeleton.signal_joints:
        freq = rng.uniform(*band)
        if band_position is not None:
            freq = band[0] + band_position * (band[1] - band[0])
        phase = rng.uniform(0.0, 2.0 * np.pi)
        pos[:, joint, 0] += AMPLITUDE * torso * np.sin(2.0 * np.pi * freq * t + phase)
    pos = np.rint(pos * 1000.0) / 1000.0
    conf = np.rint(rng.uniform(300.0, 1000.0, (frames, n))) / 1000.0

    target = int(MISSING_SHARE * frames * n)
    hidden = 0
    while hidden < target:
        joint = int(rng.integers(n))
        start = int(rng.integers(1, frames - 9))
        run = int(rng.integers(1, 9))
        hidden += int((conf[start : start + run, joint] > 0).sum())
        conf[start : start + run, joint] = 0.0
    empty = tuple(sorted(int(f) for f in rng.choice(np.arange(1, frames - 1), 4, replace=False)))
    conf[list(empty)] = 0.0
    pos[conf == 0.0] = 0.0
    return Recording(positions=pos, confidence=conf, empty_frames=empty, label=label)


_PERSON = '{"version":1.3,"people":[{"person_id":[-1],"pose_keypoints_2d":[%s]}]}'
_NOBODY = '{"version":1.3,"people":[]}'


def frame_texts(rec: Recording) -> list[str]:
    """OpenPose per-frame JSON documents; an empty frame has an empty ``people`` array.

    Values carry three decimals, which parse back to exactly the stored
    positions because those are integers divided by 1000.
    """
    rows = np.concatenate([rec.positions, rec.confidence[:, :, None]], axis=2)
    fmt = _PERSON % ",".join(["%.3f"] * rows.shape[1] * 3)
    empty = set(rec.empty_frames)
    return [
        _NOBODY if t in empty else fmt % tuple(row)
        for t, row in enumerate(rows.reshape(rec.frames, -1).tolist())
    ]


def write_frame_directory(rec: Recording, directory: Path) -> int:
    """OpenPose layout, one ``<name>_<frame>_keypoints.json`` per frame; returns bytes written."""
    directory.mkdir(parents=True)
    total = 0
    for t, text in enumerate(frame_texts(rec)):
        raw = text.encode()
        (directory / f"{directory.name}_{t:012d}_keypoints.json").write_bytes(raw)
        total += len(raw)
    return total


def write_container(rec: Recording, path: Path) -> int:
    """One JSON array holding every frame document; returns bytes written."""
    raw = ("[" + ",".join(frame_texts(rec)) + "]").encode()
    path.write_bytes(raw)
    return len(raw)


# ---------------------------------------------------------------------------
# Reference pipeline: gap fill, normalize, rfft magnitudes, bin means.


def reference_features(rec: Recording, skeleton: Skeleton, edges: list[int]) -> np.ndarray:
    """(N, B, 2) binned magnitudes as the program should compute them."""
    pos = rec.positions.copy()
    frames, n = rec.confidence.shape
    t_axis = np.arange(frames, dtype=np.float64)
    for j in range(n):
        seen = rec.confidence[:, j] > 0.0
        if not seen.all():
            for ch in range(2):
                pos[:, j, ch] = np.interp(t_axis, t_axis[seen], pos[seen, j, ch])
    torso = float(np.median(np.linalg.norm(pos[:, skeleton.root] - pos[:, skeleton.neck], axis=1)))
    pos = (pos - pos[:, skeleton.root : skeleton.root + 1]) / torso
    traj = np.moveaxis(pos, 0, -1)  # (N, 2, T)
    mags = np.abs(np.fft.rfft(traj - traj.mean(axis=-1, keepdims=True), axis=-1))
    binned = np.stack(
        [mags[..., lo:hi].mean(axis=-1) for lo, hi in zip(edges, edges[1:])], axis=-1
    )  # (N, 2, B)
    return np.moveaxis(binned, 1, 2)


def write_features(features: np.ndarray, edges: list[int], path: Path) -> None:
    """The documented features format: ``joint,bin,channel,value`` rows and a sidecar."""
    lines = ["joint,bin,channel,value"]
    for (j, b, ch), value in np.ndenumerate(features):
        lines.append(f"{j},{b},{'xy'[ch]},{float(value)!r}")
    path.write_text("\n".join(lines) + "\n")
    meta = {
        "format": "freqgcn-features", "version": 1,
        "num_joints": features.shape[0], "num_bins": features.shape[1],
        "channels": ["x", "y"], "c": GROWTH, "f0": 1.0, "threshold": 3.0,
        "bin_edges": list(edges), "fps": FPS,
    }
    Path(str(path) + ".meta.json").write_text(json.dumps(meta, indent=2) + "\n")


def features_match(got: np.ndarray, want: np.ndarray, rel: float = 1e-9) -> bool:
    """Every value within ``rel`` of the reference, relative to its largest magnitude."""
    if got.shape != want.shape:
        return False
    return bool(np.abs(got - want).max() <= rel * max(float(np.abs(want).max()), 1e-300))


# ---------------------------------------------------------------------------
# Frame counts for the mixed-length workload.


def _is_prime(k: int) -> bool:
    return k > 1 and all(k % d for d in range(2, math.isqrt(k) + 1))


def mixed_lengths(seed: int, count: int, lo: int = 600, hi: int = 2400) -> list[int]:
    """``count`` distinct frame counts in [lo, hi].

    A golden-ratio sequence with a seeded offset spreads every prefix evenly
    over the range, so a run that stops early still covers short and long
    inputs alike. Every fourth count is snapped to the nearest unused prime,
    the others to the nearest unused composite, and slots 5 and 11 hold the
    powers of two in range.
    """
    if count > hi - lo + 1:
        raise ValueError(f"only {hi - lo + 1} distinct lengths in [{lo}, {hi}]")
    offset = float(np.random.default_rng([seed, 7]).uniform())
    powers = [1 << k for k in range(lo.bit_length(), hi.bit_length() + 1) if lo <= 1 << k <= hi]
    used: set[int] = set()
    out = []
    for i in range(count):
        base = lo + int(((offset + i * GOLDEN) % 1.0) * (hi - lo + 1))
        if i in (5, 11) and powers:
            pick = powers.pop(0)
        else:
            free = sorted((k for k in range(lo, hi + 1) if k not in used), key=lambda k: abs(k - base))
            pick = next((k for k in free if _is_prime(k) == (i % 4 == 1)), free[0])
        used.add(pick)
        out.append(pick)
    return out
