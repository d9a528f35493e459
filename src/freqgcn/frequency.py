"""Trajectory-to-spectrum conversion and exponential frequency binning.

The transform stack is self-contained: a direct O(T^2) DFT kept as the
reference oracle, and a chirp-z (Bluestein) FFT that handles any length,
primes included, through a power-of-two circular convolution. Binned
magnitudes keep the low-to-mid band and discard everything past the last
bin edge, which is where sensor noise lives.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ContractViolationError, FormatError, InsufficientLengthError
from .files import write_atomic
from .pose import PoseSequence

CHANNELS = ("x", "y")


def _as_complex_vector(signal, name: str) -> np.ndarray:
    x = np.asarray(signal)
    if x.ndim != 1 or x.shape[0] < 1:
        raise ContractViolationError(f"{name} expects a nonempty 1-D signal, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ContractViolationError(f"{name} requires finite values")
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


def _frozen(a: np.ndarray) -> np.ndarray:
    """Mark a cached array read-only, since every caller shares it."""
    a.setflags(write=False)
    return a


@functools.lru_cache(maxsize=8)
def _pow2_plan(m: int) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """Bit-reversal permutation and per-stage twiddles of a length-m radix-2 FFT."""
    rev = np.zeros(m, dtype=np.int64)
    work = np.arange(m)
    for _ in range(m.bit_length() - 1):
        rev = (rev << 1) | (work & 1)
        work >>= 1
    twiddles = []
    size = 2
    while size <= m:
        twiddles.append(np.exp((-2j * np.pi / size) * np.arange(size // 2)))
        size *= 2
    return _frozen(rev), tuple(_frozen(w) for w in twiddles)


def _fft_pow2(values: np.ndarray) -> np.ndarray:
    """Iterative radix-2 Cooley-Tukey along the last axis, whose length must be a power of two."""
    m = values.shape[-1]
    rev, twiddles = _pow2_plan(m)
    out = values[..., rev]
    for twiddle in twiddles:
        half = twiddle.shape[0]
        blocks = out.reshape(*out.shape[:-1], m // (2 * half), 2 * half)
        even = blocks[..., :half]
        odd = blocks[..., half:]
        odd *= twiddle
        lower = even - odd
        even += odd
        odd[...] = lower
    return out


def _ifft_pow2(values: np.ndarray) -> np.ndarray:
    out = _fft_pow2(np.conj(values))
    np.conj(out, out=out)
    out /= out.shape[-1]
    return out


# Bounded: when every input has a new length, an unbounded cache would keep
# a chirp and a kernel (up to 5T complex values) for every length seen.
@functools.lru_cache(maxsize=8)
def _chirp_plan(t: int) -> tuple[np.ndarray, np.ndarray]:
    """Chirp exp(-i*pi*n^2/t) and the FFT of its zero-padded conjugate kernel."""
    n = np.arange(t, dtype=np.int64)
    chirp = np.exp((-1j * np.pi / t) * ((n * n) % (2 * t)))
    m = _next_pow2(2 * t - 1)
    b = np.zeros(m, dtype=np.complex128)
    b[:t] = np.conj(chirp)
    b[m - t + 1 :] = np.conj(chirp[1:][::-1])
    return _frozen(chirp), _frozen(_fft_pow2(b))


def fft_bluestein(signal) -> np.ndarray:
    """DFT of any length via the chirp-z decomposition, along the last axis.

    Accepts shape (..., T) and transforms every row at once. Writes
    k*t = (k^2 + t^2 - (k-t)^2) / 2, turning the transform into a chirp
    multiply, a circular convolution at the next power of two >= 2T-1 (run
    with the radix-2 kernel), and a final chirp multiply. Chirp phases use
    t^2 mod 2T so they stay exact for long signals.
    """
    x = np.asarray(signal)
    if x.ndim < 1 or x.shape[-1] < 1:
        raise ContractViolationError(f"fft_bluestein expects signals of length >= 1, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ContractViolationError("fft_bluestein requires finite values")
    x = x.astype(np.complex128)
    t = x.shape[-1]
    chirp, kernel = _chirp_plan(t)
    padded = np.zeros(x.shape[:-1] + kernel.shape, dtype=np.complex128)
    np.multiply(x, chirp, out=padded[..., :t])
    spectrum = _fft_pow2(padded)
    del padded  # one fewer full-size array alive during the inverse transform
    spectrum *= kernel
    return _ifft_pow2(spectrum)[..., :t] * chirp


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
            f"(signals must have at least {required_min_frames(spec)} frames)",
            required_frames=required_min_frames(spec),
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
    The x and y trajectories of a joint share one complex transform of
    x + i*y, and every joint goes through a single batched FFT.
    """
    t = len(seq)
    if t < required_min_frames(spec):
        raise InsufficientLengthError(
            f"sequence has {t} frames but the bin layout needs at least "
            f"{required_min_frames(spec)}",
            required_frames=required_min_frames(spec),
        )
    traj = np.moveaxis(seq.positions, 0, -1)  # (N joints, 2 channels, T)
    traj = traj - traj.mean(axis=-1, keepdims=True)
    spectra = unpack_real_pair(fft_bluestein(traj[:, 0] + 1j * traj[:, 1]))
    binned = bin_spectrum(magnitude_half_spectrum(np.stack(spectra, axis=1)), spec)
    return FrequencyFeatures(data=np.moveaxis(binned, 1, 2), spec=spec, fps=seq.fps)


def write_features_csv(features: FrequencyFeatures, path: str | Path) -> None:
    """Write one ``joint,bin,channel,value`` row per cell, in that key order, and the sidecar."""
    path = Path(path)
    lines = ["joint,bin,channel,value"]
    for joint in range(features.num_joints):
        for b in range(features.num_bins):
            for ch, label in enumerate(CHANNELS):
                lines.append(f"{joint},{b},{label},{float(features.data[joint, b, ch])!r}")
    write_atomic(path, "\n".join(lines) + "\n")
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
    write_atomic(sidecar_path(path), json.dumps(sidecar, indent=2) + "\n")


def sidecar_path(features_path: str | Path) -> Path:
    return Path(str(features_path) + ".meta.json")


def read_features_csv(path: str | Path) -> tuple[FrequencyFeatures, BinSpec]:
    """Inverse of :func:`write_features_csv`, accepting rows only in the order it writes.

    Blank lines aside, row r must be ``i,k,ch,value`` for cell r, value finite
    and >= 0; the first row that is not, or one past the last cell, is a FormatError.
    """
    path = Path(path)
    meta_file = sidecar_path(path)
    if not meta_file.exists():
        raise FormatError(f"missing feature sidecar {meta_file}")
    n, spec, fps = _read_sidecar(meta_file)
    try:
        lines = path.read_text("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path.name}: not a UTF-8 text file: {exc}") from None
    if not lines or lines[0] != "joint,bin,channel,value":
        raise FormatError(f"{path.name}: expected header 'joint,bin,channel,value'")
    rows = [(lineno, line) for lineno, line in enumerate(lines[1:], start=2) if line]
    num_cells = n * spec.num_bins * len(CHANNELS)
    if len(rows) < num_cells:  # before any per-cell work, so huge claimed sizes fail at once
        raise FormatError(f"{path.name}:{len(lines) + 1}: missing rows, {len(rows)} of {num_cells}")
    prefixes = (f"{i},{k},{ch}," for i in range(n) for k in range(spec.num_bins) for ch in CHANNELS)
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
    the wrong type or range, or bin edges that the bin spec does not give.
    The work is bounded by the sidecar's own size.
    """
    name = meta_file.name
    try:
        meta = json.loads(meta_file.read_bytes())
    except ValueError as exc:  # not JSON, not UTF-8, or an integer of too many digits
        raise FormatError(f"{name}: invalid JSON: {exc}") from None
    if (
        not isinstance(meta, dict)
        or meta.get("format") != "freqgcn-features"
        or meta.get("version") != 1
    ):
        raise FormatError(f"unrecognized feature sidecar {meta_file}")
    missing = [k for k in ("num_joints", "num_bins", "c", "bin_edges", "fps") if k not in meta]
    if missing:
        raise FormatError(f"{name}: missing keys {missing}")
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
