"""Trajectory-to-spectrum conversion and exponential frequency binning.

Binned magnitudes keep the low-to-mid band and discard everything past the
last bin edge, which is where sensor noise lives, so features come from a
two-level direct DFT of that band alone. The general transform is a chirp-z
(Bluestein) FFT of any length over a four-step kernel of the same two-level
kind. One routine, _phases, builds every DFT table but the chirp.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ContractViolationError, FormatError, InsufficientLengthError
from .files import read_input, table_text, write_atomic
from .pose import PoseSequence

CHANNELS = ("x", "y")


def _finite_signals(signal, name: str, dtype) -> np.ndarray:
    x = np.asarray(signal)
    if x.ndim < 1 or x.shape[-1] < 1:
        raise ContractViolationError(f"{name} expects signals of length >= 1, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ContractViolationError(f"{name} requires finite values")
    return x.astype(dtype)


def _phases(rows, cols, m: int, sign: float = -1.0) -> np.ndarray:
    """Table exp(sign*2*pi*i*(r*c mod m)/m) over index arrays rows (r) and cols (c).

    The product is reduced mod m in int64, so large products do not lose precision.
    """
    return np.exp((sign * 2j * np.pi / m) * (rows.astype(np.int64)[:, None] * cols % m))


def _fft_pow2(values: np.ndarray, sign: float = -1.0) -> np.ndarray:
    """Four-step DFT along the last axis, whose length m = p*q must be a power of two.

    With p = 2^floor(log2(m)/2), n = q*a + b, k = c + p*d and W_n = exp(sign*2*pi*i/n),
    X[k] = sum_b W_q^(b*d) W_m^(b*c) sum_a x[q*a + b] W_p^(a*c): length-p DFTs, a twiddle,
    then length-q DFTs, each a matmul by a direct table. sign=+1 gives m times the inverse.
    """
    m = values.shape[-1]
    p = 1 << (m.bit_length() - 1) // 2
    q = m // p
    ip, iq = np.arange(p), np.arange(q)
    columns = values.reshape(*values.shape[:-1], p, q).swapaxes(-1, -2)  # (b, a): x[q*a + b]
    inner = columns @ _phases(ip, ip, p, sign)  # (b, c): sum_a x[q*a + b] W_p^(a*c)
    inner *= _phases(iq, ip, m, sign)  # the twiddle W_m^(b*c)
    return (_phases(iq, iq, q, sign) @ inner).reshape(values.shape)  # (d, c) is k = c + p*d


def _chirp_plan(t: int) -> tuple[np.ndarray, np.ndarray]:
    """Chirp exp(-i*pi*n^2/t) and the FFT of its zero-padded conjugate kernel."""
    n = np.arange(t, dtype=np.int64)
    chirp = np.exp((-1j * np.pi / t) * ((n * n) % (2 * t)))
    m = 1 << (2 * t - 2).bit_length()  # the first power of two >= 2t - 1
    b = np.zeros(m, dtype=np.complex128)
    b[:t] = np.conj(chirp)
    b[m - t + 1 :] = np.conj(chirp[1:][::-1])
    return chirp, _fft_pow2(b)


def fft_bluestein(signal) -> np.ndarray:
    """DFT of any length via the chirp-z decomposition, along the last axis.

    Accepts shape (..., T) and transforms every row at once. Writes k*t = (k^2 + t^2 - (k-t)^2) / 2,
    turning the transform into a chirp multiply, a circular convolution at the next power
    of two >= 2T-1 (run with the four-step kernel), and a final chirp multiply. Chirp
    phases use t^2 mod 2T so they stay exact for long signals.
    """
    x = _finite_signals(signal, "fft_bluestein", np.complex128)
    t = x.shape[-1]
    chirp, kernel = _chirp_plan(t)
    padded = np.zeros(x.shape[:-1] + kernel.shape, dtype=np.complex128)
    np.multiply(x, chirp, out=padded[..., :t])
    spectrum = _fft_pow2(padded)
    del padded  # one fewer full-size array alive during the inverse transform
    spectrum *= kernel
    return _fft_pow2(spectrum, sign=1.0)[..., :t] * chirp / kernel.shape[-1]


def band_magnitudes(signal, hi: int) -> np.ndarray:
    """|X[k]| for k in [0, hi) of each real row along the last axis, by a two-level direct DFT.

    With p = ceil(sqrt(T)) and t = a*p + b, X[k] = sum_a W^(k*a*p) sum_b x[a*p + b] W^(k*b)
    for W = exp(-2*pi*i/T). Each row, zero-padded to whole blocks of p, takes a real matmul
    by the (p, hi) table W^(k*b), its cosines and sines interleaved, so the product reads as
    complex; the (blocks, hi) table W^(k*a*p) then combines the blocks. The tables take
    about 2*sqrt(T)*hi exponentials, so nothing is cached.
    """
    x = _finite_signals(signal, "band_magnitudes", np.float64)
    t = x.shape[-1]
    if not 1 <= hi <= t:
        raise ContractViolationError(f"band_magnitudes needs 1 <= hi <= T, got hi={hi} and T={t}")
    p = math.isqrt(t - 1) + 1
    blocks = -(-t // p)
    k = np.arange(hi)
    inner = _phases(np.arange(p), k, t)
    outer = _phases(np.arange(0, blocks * p, p), k, t)
    padded = np.zeros((math.prod(x.shape[:-1]), blocks * p))
    padded[:, :t] = x.reshape(-1, t)
    # A product per row: one (rows * blocks, p) product is split over OpenBLAS threads, which on
    # 2 cores waited 4-8 ms whenever another process held the second (p85 8.0 ms, not 0.8 ms).
    partial = (padded.reshape(-1, blocks, p) @ inner.view(np.float64)).view(np.complex128)
    partial *= outer  # row, block a, k: W^(k*a*p) sum_b x[a*p + b] W^(k*b)
    return np.abs(partial.sum(axis=1)).reshape(x.shape[:-1] + (hi,))


# Fixed by the binning rule: the first width, and where Round gives way to Ceiling.
F0 = 1.0
THRESHOLD = 3.0


@dataclass(frozen=True)
class BinSpec:
    """Exponential binning rule: growth ``c`` and the number of bins.

    Bin n has width Round(F0 * c^n) while F0 * c^n < THRESHOLD and
    Ceiling(F0 * c^n) once it reaches it; Round is half-away-from-zero.
    """

    c: float
    num_bins: int

    def __post_init__(self):
        if not (self.c > 1.0 and math.isfinite(self.c)):
            raise ContractViolationError(f"growth parameter c must be finite and exceed 1, got {self.c}")
        if self.num_bins < 1:
            raise ContractViolationError(f"num_bins must be >= 1, got {self.num_bins}")
        try:
            self.c ** (self.num_bins - 1)  # the widest bin's growth factor
        except OverflowError:
            raise ContractViolationError(
                f"growth parameter c={self.c} overflows over {self.num_bins} bins"
            ) from None


def _round_half_away(value: float) -> int:
    return int(math.floor(value + 0.5)) if value >= 0 else -int(math.floor(-value + 0.5))


def bin_widths(spec: BinSpec) -> list[int]:
    """Widths of the num_bins bins, in spectrum indices; non-decreasing."""
    widths = []
    for n in range(spec.num_bins):
        grown = F0 * spec.c**n
        widths.append(_round_half_away(grown) if grown < THRESHOLD else math.ceil(grown))
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


def bin_spectrum(magnitudes: np.ndarray, spec: BinSpec) -> np.ndarray:
    """Average magnitudes into consecutive bins starting at index 1, along the last axis.

    Index 0 (DC) is excluded; indices past the last edge are discarded,
    acting as the high-frequency filter. Shape (..., K) gives (..., B).
    """
    mags = np.asarray(magnitudes, dtype=np.float64)
    edges = bin_edges(spec)
    if mags.shape[-1] < edges[-1]:
        raise InsufficientLengthError(
            f"spectrum has {mags.shape[-1]} magnitudes but the bins need {edges[-1]} "
            f"(signals must have at least {required_min_frames(spec)} frames)"
        )
    return np.stack(
        [mags[..., lo:hi].mean(axis=-1) for lo, hi in zip(edges, edges[1:])], axis=-1
    )


@dataclass(frozen=True, eq=False)
class FrequencyFeatures:
    """Binned magnitudes per joint, bin, and coordinate channel.

    ``data`` has shape (N joints, B bins, 2 channels); channel 0 is the x
    trajectory, channel 1 the y trajectory. ``spec`` is the bin layout the
    magnitudes were averaged over.
    """

    data: np.ndarray
    spec: BinSpec
    fps: float

    def __post_init__(self):
        d = self.data
        if d.ndim != 3 or d.shape[2] != len(CHANNELS):
            raise ContractViolationError(f"feature data must be (N, B, 2), got {d.shape}")
        if not np.isfinite(d).all() or (d < 0).any():
            raise ContractViolationError("feature values must be finite and nonnegative")
        if d.shape[1] != self.spec.num_bins:
            raise ContractViolationError(f"feature data has {d.shape[1]} bins, the spec {self.spec.num_bins}")

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
    One batched band transform gives every joint's x and y magnitudes up to
    the last bin edge, the only ones the bins read.
    """
    t = len(seq)
    if t < required_min_frames(spec):
        raise InsufficientLengthError(f"sequence has {t} frames but the bin layout needs at least "
                                      f"{required_min_frames(spec)}")
    traj = np.moveaxis(seq.positions, 0, -1)  # (N joints, 2 channels, T)
    traj = traj - traj.mean(axis=-1, keepdims=True)
    binned = bin_spectrum(band_magnitudes(traj, bin_edges(spec)[-1]), spec)
    return FrequencyFeatures(data=np.moveaxis(binned, 1, 2), spec=spec, fps=seq.fps)


def _cells(num_joints: int, num_bins: int):
    """The ``(joint, bin, channel)`` key of each feature row, in file order."""
    return ((i, k, ch) for i in range(num_joints) for k in range(num_bins) for ch in CHANNELS)


def write_features_csv(features: FrequencyFeatures, path: str | Path) -> None:
    """Write :func:`features_files` as one set."""
    write_atomic(features_files(features, path))


def features_files(features: FrequencyFeatures, path: str | Path) -> dict[str | Path, str]:
    """The feature CSV at ``path``, one ``joint,bin,channel,value`` row per cell in that key order,
    and its sidecar, each path with its text."""
    values = zip(_cells(features.num_joints, features.num_bins), features.data.ravel().tolist())
    sidecar = {
        "format": "freqgcn-features",
        "version": 1,
        "num_joints": features.num_joints,
        "num_bins": features.num_bins,
        "channels": list(CHANNELS),
        "c": features.spec.c,
        "f0": F0,
        "threshold": THRESHOLD,
        "bin_edges": bin_edges(features.spec),
        "fps": features.fps,
    }
    return {
        path: table_text("joint,bin,channel,value", [(*cell, value) for cell, value in values]),
        sidecar_path(path): json.dumps(sidecar, indent=2) + "\n",
    }


def sidecar_path(features_path: str | Path) -> Path:
    return Path(str(features_path) + ".meta.json")


def read_features_csv(path: str | Path) -> tuple[FrequencyFeatures, BinSpec]:
    """Inverse of :func:`write_features_csv`, accepting rows only in the order it writes.

    Blank lines aside, row r must be ``i,k,ch,value`` for cell r, value finite
    and >= 0; the first row that is not, or one past the last cell, is a FormatError.
    """
    path = Path(path)
    lines = read_input(path, FormatError, "feature file").splitlines()
    n, spec, fps = _read_sidecar(sidecar_path(path))
    if not lines or lines[0] != "joint,bin,channel,value":
        raise FormatError(f"{path.name}: expected header 'joint,bin,channel,value'")
    rows = [(lineno, line) for lineno, line in enumerate(lines[1:], start=2) if line]
    num_cells = n * spec.num_bins * len(CHANNELS)
    if len(rows) < num_cells:  # before any per-cell work, so huge claimed sizes fail at once
        raise FormatError(f"{path.name}:{len(lines) + 1}: missing rows, {len(rows)} of {num_cells}")
    prefixes = (f"{i},{k},{ch}," for i, k, ch in _cells(n, spec.num_bins))
    values = []
    for (lineno, line), prefix in zip(rows, prefixes):
        try:  # a row for another cell leaves "", which float rejects too
            values.append(float(line[len(prefix) :] if line.startswith(prefix) else ""))
        except ValueError:
            raise FormatError(f"{path.name}:{lineno}: expected {prefix}<value>: {line!r}") from None
    data = np.array(values).reshape(n, spec.num_bins, len(CHANNELS))
    bad = np.flatnonzero(~(np.isfinite(data) & (data >= 0)))  # magnitudes, so never negative
    if bad.size:
        lineno, line = rows[bad[0]]
        raise FormatError(f"{path.name}:{lineno}: non-finite or negative value in {line!r}")
    if len(rows) > num_cells:
        raise FormatError(f"{path.name}:{rows[num_cells][0]}: row past the last cell")
    return FrequencyFeatures(data=data, spec=spec, fps=fps), spec


def _finite_number(value) -> float | None:
    """``value`` as a float when it is a finite JSON number, else None."""
    if type(value) not in (int, float):
        return None
    try:
        value = float(value)
    except OverflowError:  # an integer beyond the float range
        return None
    return value if math.isfinite(value) else None


def _read_sidecar(meta_file: Path) -> tuple[int, BinSpec, float]:
    """(num_joints, bin spec, fps) of a features sidecar.

    Any defect raises FormatError: invalid JSON, a missing key, a value of
    the wrong type or range, channels, f0 or threshold other than the ones
    written, or bin edges that the bin spec does not give. The work is
    bounded by the sidecar's own size.
    """
    name = meta_file.name
    try:
        meta = json.loads(read_input(meta_file, what="feature sidecar"))
    except (ValueError, RecursionError) as exc:  # not JSON or UTF-8, a too long integer, deep nesting
        raise FormatError(f"{name}: invalid JSON: {exc}") from None
    if (
        not isinstance(meta, dict)
        or meta.get("format") != "freqgcn-features"
        or meta.get("version") != 1
    ):
        raise FormatError(f"unrecognized feature sidecar {meta_file}")
    fixed = {"channels": list(CHANNELS), "f0": F0, "threshold": THRESHOLD}
    missing = [k for k in ("num_joints", "num_bins", *fixed, "c", "bin_edges", "fps") if k not in meta]
    if missing:
        raise FormatError(f"{name}: missing keys {missing}")
    for key, value in fixed.items():
        if meta[key] != value or isinstance(meta[key], bool):  # JSON true equals 1 in Python
            raise FormatError(f"{name}: {key} must be {value!r}, got {meta[key]!r}")
    n, b, listed = meta["num_joints"], meta["num_bins"], meta["bin_edges"]
    if not (type(n) is int and type(b) is int and n >= 1 and b >= 1):
        raise FormatError(
            f"{name}: num_joints and num_bins must be positive integers, got {n!r} and {b!r}"
        )
    fps, c = _finite_number(meta["fps"]), _finite_number(meta["c"])
    if fps is None or fps <= 0:
        raise FormatError(f"{name}: fps must be a positive number, got {meta['fps']!r}")
    if c is None:
        raise FormatError(
            f"{name}: growth parameter c must be a finite number, got {meta['c']!r}"
        )
    try:
        spec = BinSpec(c=c, num_bins=b)
    except ContractViolationError as exc:
        raise FormatError(f"{name}: {exc}") from None
    # Checking the length first bounds bin_edges' O(num_bins) loop by the sidecar's size.
    if not (isinstance(listed, list) and len(listed) == b + 1 and listed == bin_edges(spec)):
        raise FormatError(
            f"{name}: bin_edges {listed!r} differ from the {b + 1} edges given by "
            f"c={c!r} and {b} bins"
        )
    return n, spec, fps
