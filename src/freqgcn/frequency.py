"""Trajectory-to-spectrum conversion and exponential frequency binning.

The transform stack is self-contained: a direct O(T^2) DFT kept as the
reference oracle, and a chirp-z (Bluestein) FFT that handles any length,
primes included, through a power-of-two circular convolution. Binned
magnitudes keep the low-to-mid band and discard everything past the last
bin edge, which is where sensor noise lives.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FormatError, InsufficientLengthError
from .pose import PoseSequence

CHANNELS = ("x", "y")


def _as_complex_vector(signal, name: str) -> np.ndarray:
    x = np.asarray(signal)
    if x.ndim != 1 or x.shape[0] < 1:
        raise ValueError(f"{name} expects a nonempty 1-D signal, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError(f"{name} requires finite values")
    return x.astype(np.complex128)


def dft_naive(signal) -> np.ndarray:
    """Direct evaluation of X[k] = sum_t x[t] exp(-2*pi*i*k*t/T).

    O(T^2); exists as the independent oracle for the fast transform. The
    phase k*t is reduced mod T in integer arithmetic so large products do
    not lose precision.
    """
    x = _as_complex_vector(signal, "dft_naive")
    t = x.shape[0]
    k = np.arange(t, dtype=np.int64)
    phase = (k[:, None] * k[None, :]) % t
    basis = np.exp((-2j * np.pi / t) * phase)
    return basis @ x


def _next_pow2(n: int) -> int:
    return 1 if n <= 1 else 1 << (n - 1).bit_length()


def _fft_pow2(values: np.ndarray) -> np.ndarray:
    """Iterative radix-2 Cooley-Tukey; length must be a power of two."""
    m = values.shape[0]
    levels = m.bit_length() - 1
    # Bit-reversal permutation.
    idx = np.arange(m)
    rev = np.zeros(m, dtype=np.int64)
    work = idx.copy()
    for _ in range(levels):
        rev = (rev << 1) | (work & 1)
        work >>= 1
    out = values[rev]
    size = 2
    while size <= m:
        half = size // 2
        twiddle = np.exp((-2j * np.pi / size) * np.arange(half))
        blocks = out.reshape(-1, size)
        even = blocks[:, :half]
        odd = blocks[:, half:] * twiddle
        upper = even + odd
        lower = even - odd
        blocks[:, :half] = upper
        blocks[:, half:] = lower
        size *= 2
    return out


def _ifft_pow2(values: np.ndarray) -> np.ndarray:
    return np.conj(_fft_pow2(np.conj(values))) / values.shape[0]


def fft_bluestein(signal) -> np.ndarray:
    """DFT of any length via the chirp-z decomposition.

    Writes k*t = (k^2 + t^2 - (k-t)^2) / 2, turning the transform into a
    chirp multiply, a circular convolution at the next power of two
    >= 2T-1 (run with the radix-2 kernel), and a final chirp multiply.
    Chirp phases use t^2 mod 2T so they stay exact for long signals.
    """
    x = _as_complex_vector(signal, "fft_bluestein")
    t = x.shape[0]
    if t == 1:
        return x.copy()
    n = np.arange(t, dtype=np.int64)
    chirp = np.exp((-1j * np.pi / t) * ((n * n) % (2 * t)))
    m = _next_pow2(2 * t - 1)
    a = np.zeros(m, dtype=np.complex128)
    a[:t] = x * chirp
    b = np.zeros(m, dtype=np.complex128)
    b[:t] = np.conj(chirp)
    b[m - t + 1 :] = np.conj(chirp[1:][::-1])
    conv = _ifft_pow2(_fft_pow2(a) * _fft_pow2(b))
    return conv[:t] * chirp


def magnitude_half_spectrum(spectrum: np.ndarray) -> np.ndarray:
    """|X[k]| for k = 0 .. floor(T/2); the upper half of a real signal's
    spectrum is redundant."""
    spec = np.asarray(spectrum)
    if spec.ndim != 1 or spec.shape[0] < 1:
        raise ValueError(f"expected a 1-D spectrum, got shape {spec.shape}")
    t = spec.shape[0]
    return np.abs(spec[: t // 2 + 1])


@dataclass(frozen=True)
class BinSpec:
    """Exponential binning rule parameters.

    Bin n has width Round(f0 * c^n) while f0 * c^n < threshold and
    Ceiling(f0 * c^n) once it reaches it; Round is half-away-from-zero.
    f0 and the switch constant are fixed by the rule.
    """

    c: float
    num_bins: int
    f0: float = 1.0
    threshold: float = 3.0

    def __post_init__(self):
        if not (self.c > 1.0 and math.isfinite(self.c)):
            raise ValueError(f"growth parameter c must be finite and exceed 1, got {self.c}")
        if self.f0 != 1.0:
            raise ValueError("first bin width f0 is fixed at 1")
        if self.threshold != 3.0:
            raise ValueError("round/ceiling switch constant is fixed at 3")
        if self.num_bins < 1:
            raise ValueError(f"num_bins must be >= 1, got {self.num_bins}")


def _round_half_away(value: float) -> int:
    return int(math.floor(value + 0.5)) if value >= 0 else -int(math.floor(-value + 0.5))


def bin_widths(spec: BinSpec) -> list[int]:
    """Widths of the num_bins bins, in spectrum indices; non-decreasing."""
    widths = []
    for n in range(spec.num_bins):
        grown = spec.f0 * spec.c**n
        widths.append(_round_half_away(grown) if grown < spec.threshold else math.ceil(grown))
    return widths


def bin_edges(spec: BinSpec) -> list[int]:
    """B+1 spectrum-index boundaries; bin b covers [edges[b], edges[b+1])."""
    edges = [1]
    for w in bin_widths(spec):
        edges.append(edges[-1] + w)
    return edges


def required_min_frames(spec: BinSpec) -> int:
    """Smallest signal length whose half spectrum fills every bin."""
    return 2 * sum(bin_widths(spec))


def bin_spectrum(magnitudes: np.ndarray, spec: BinSpec) -> tuple[np.ndarray, list[int]]:
    """Average magnitudes into consecutive bins starting at index 1.

    Index 0 (DC) is excluded; indices past the last edge are discarded,
    acting as the high-frequency filter.
    """
    mags = np.asarray(magnitudes, dtype=np.float64)
    edges = bin_edges(spec)
    if mags.shape[0] < edges[-1]:
        raise InsufficientLengthError(
            f"spectrum has {mags.shape[0]} magnitudes but the bins need {edges[-1]} "
            f"(signals must have at least {required_min_frames(spec)} frames)",
            required_frames=required_min_frames(spec),
        )
    binned = np.array(
        [mags[edges[b] : edges[b + 1]].mean() for b in range(spec.num_bins)]
    )
    return binned, edges


@dataclass(frozen=True, eq=False)
class FrequencyFeatures:
    """Binned magnitudes per joint, bin, and coordinate channel.

    ``data`` has shape (N joints, B bins, 2 channels); channel 0 is the x
    trajectory, channel 1 the y trajectory.
    """

    data: np.ndarray
    bin_edges: tuple[int, ...]
    fps: float

    def __post_init__(self):
        d = self.data
        if d.ndim != 3 or d.shape[2] != len(CHANNELS):
            raise ValueError(f"feature data must be (N, B, 2), got {d.shape}")
        if not np.isfinite(d).all() or (d < 0).any():
            raise ValueError("feature values must be finite and nonnegative")
        if len(self.bin_edges) != d.shape[1] + 1:
            raise ValueError("bin_edges must have B+1 entries")
        if any(b <= a for a, b in zip(self.bin_edges, self.bin_edges[1:])):
            raise ValueError("bin_edges must be strictly increasing")

    @property
    def num_joints(self) -> int:
        return self.data.shape[0]

    @property
    def num_bins(self) -> int:
        return self.data.shape[1]


def extract_features(seq: PoseSequence, spec: BinSpec) -> FrequencyFeatures:
    """Mean-subtract, transform, and bin each joint trajectory.

    Mean subtraction removes the DC component (absolute position), so two
    sequences differing by a global translation produce identical features.
    """
    pos = seq.positions()
    t, n = pos.shape[:2]
    if t < required_min_frames(spec):
        raise InsufficientLengthError(
            f"sequence has {t} frames but the bin layout needs at least "
            f"{required_min_frames(spec)}",
            required_frames=required_min_frames(spec),
        )
    data = np.zeros((n, spec.num_bins, len(CHANNELS)))
    edges: list[int] = []
    for joint in range(n):
        for ch in range(len(CHANNELS)):
            trajectory = pos[:, joint, ch]
            spectrum = fft_bluestein(trajectory - trajectory.mean())
            try:
                binned, edges = bin_spectrum(magnitude_half_spectrum(spectrum), spec)
            except InsufficientLengthError as exc:
                raise InsufficientLengthError(
                    f"joint {joint} channel {CHANNELS[ch]}: {exc}",
                    required_frames=exc.required_frames,
                ) from exc
            data[joint, :, ch] = binned
    return FrequencyFeatures(data=data, bin_edges=tuple(edges), fps=seq.fps)


def write_features_csv(features: FrequencyFeatures, spec: BinSpec, path: str | Path) -> None:
    """Write ``joint,bin,channel,value`` rows plus a JSON sidecar at <path>.meta.json."""
    path = Path(path)
    lines = ["joint,bin,channel,value"]
    for joint in range(features.num_joints):
        for b in range(features.num_bins):
            for ch, label in enumerate(CHANNELS):
                lines.append(f"{joint},{b},{label},{float(features.data[joint, b, ch])!r}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    sidecar = {
        "format": "freqgcn-features",
        "version": 1,
        "num_joints": features.num_joints,
        "num_bins": features.num_bins,
        "channels": list(CHANNELS),
        "c": spec.c,
        "f0": spec.f0,
        "threshold": spec.threshold,
        "bin_edges": list(features.bin_edges),
        "fps": features.fps,
    }
    sidecar_path(path).write_text(json.dumps(sidecar, indent=2) + "\n", encoding="utf-8")


def sidecar_path(features_path: str | Path) -> Path:
    return Path(str(features_path) + ".meta.json")


def read_features_csv(path: str | Path) -> tuple[FrequencyFeatures, BinSpec]:
    """Inverse of :func:`write_features_csv`."""
    path = Path(path)
    meta_file = sidecar_path(path)
    if not meta_file.exists():
        raise FormatError(f"missing feature sidecar {meta_file}")
    meta = json.loads(meta_file.read_text("utf-8"))
    if meta.get("format") != "freqgcn-features" or meta.get("version") != 1:
        raise FormatError(f"unrecognized feature sidecar {meta_file}")
    n, b = meta["num_joints"], meta["num_bins"]
    lines = path.read_text("utf-8").splitlines()
    if not lines or lines[0] != "joint,bin,channel,value":
        raise FormatError(f"{path.name}: expected header 'joint,bin,channel,value'")
    cells: dict[tuple[int, int, int], float] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 4:
            raise FormatError(f"{path.name}:{lineno}: expected 4 fields")
        joint, bin_idx, label, value = parts
        try:
            ch = CHANNELS.index(label)
        except ValueError:
            raise FormatError(f"{path.name}:{lineno}: unknown channel {label!r}") from None
        try:
            i, k, v = int(joint), int(bin_idx), float(value)
        except ValueError:
            raise FormatError(f"{path.name}:{lineno}: malformed row {line!r}") from None
        if not (0 <= i < n and 0 <= k < b):
            raise FormatError(
                f"{path.name}:{lineno}: (joint {i}, bin {k}) outside {n} joints x {b} bins"
            )
        if not math.isfinite(v):
            raise FormatError(f"{path.name}:{lineno}: non-finite value {value!r}")
        if (i, k, ch) in cells:
            raise FormatError(
                f"{path.name}:{lineno}: duplicate row for joint {i}, bin {k}, channel {label}"
            )
        cells[i, k, ch] = v
    data = np.zeros((n, b, len(CHANNELS)))
    if len(cells) != data.size:
        raise FormatError(f"{path.name}: missing rows for some (joint, bin, channel) cells")
    joints, bins, channels = np.array(list(cells)).T
    data[joints, bins, channels] = list(cells.values())
    features = FrequencyFeatures(
        data=data, bin_edges=tuple(meta["bin_edges"]), fps=float(meta["fps"])
    )
    spec = BinSpec(c=float(meta["c"]), num_bins=b)
    return features, spec
