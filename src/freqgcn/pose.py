"""Keypoint file parsing, gap filling, and pose normalization.

Input documents follow the OpenPose per-frame layout: a ``people`` array
whose first entry carries ``pose_keypoints_2d``, a flat list of
(x, y, confidence) triples. Only the first detected person is used.

A sequence is held as two arrays, positions (T, N, 2) and confidence
(T, N); documents are parsed straight into them.

Each file of a frame directory is cut or parsed whole. A cut file's one
``pose_keypoints_2d`` array is cut out of its bytes, the rest is parsed once per
distinct remainder, and one ``np.loadtxt`` reads every cut array that a byte check
passes as JSON numbers. Every other file (a second person, say) is parsed whole
with ``json``, in frame order; a cut array that the byte check or ``np.loadtxt``
refuses is read again from its file and parsed whole too. Nothing falls back:
the table and any error are those that one ``json.loads`` per document gives.
"""

from __future__ import annotations

import json
import math
import os
import re
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    ContractViolationError,
    EmptyInputError,
    FormatError,
    ParseError,
    TopologyMismatchError,
    UnrecoverableJointError,
    DegeneratePoseError,
)
from .files import write_atomic

# Frame rates outside this range are accepted but flagged.
FPS_QUIET_RANGE = (24.0, 60.0)

_DIGITS = re.compile(r"(\d+)")
_NOT_NUMERIC = "'pose_keypoints_2d' must be a flat numeric array"

_KEY = b'"pose_keypoints_2d"'
_CUT = re.compile(rb'"pose_keypoints_2d"\s*:\s*\[([^\]]*)\]')
# The class of each byte of the cut keypoint text (0 any other byte, 1 digit, 2 "-",
# 3 "+", 4 ".", 5 exponent, 6 "," or row end, 7 " "), and the pairs of neighbouring
# classes, written 0o<previous><next>, that rows of JSON numbers allow.
_CLASS_OF = bytes(b"\0\1\1\1\1\1\1\1\1\1\1\2\3\4\5\5\6\6\7"[b"0123456789-+.eE,\n ".find(c) + 1]
                  for c in range(256))
_PAIR_OK = bytes(i in (0o11, 0o14, 0o15, 0o16, 0o21, 0o31, 0o41, 0o51, 0o52, 0o53, 0o61, 0o62, 0o67,
                       0o71, 0o72, 0o77) for i in range(256))


def _check_values(xy: np.ndarray, conf: np.ndarray, error: type[Exception]) -> None:
    if not np.isfinite(xy).all():
        raise error("keypoint coordinates must be finite")
    if not ((conf >= 0.0) & (conf <= 1.0)).all():
        raise error("keypoint confidence must lie in [0, 1]")


@dataclass(frozen=True, eq=False)
class PoseSequence:
    """An ordered run of frames sampled at a fixed rate.

    ``positions`` is (T, N, 2) x/y per frame and joint; ``confidence`` is
    (T, N), where 0 marks a missing detection (its x and y carry no meaning)
    and the default is 1 everywhere. Both are read-only copies.
    """

    positions: np.ndarray
    fps: float
    confidence: np.ndarray | None = None

    def __post_init__(self):
        pos = np.array(self.positions, dtype=np.float64)
        if pos.ndim != 3 or pos.shape[2] != 2:
            raise ContractViolationError(f"positions must have shape (T, N, 2), got {pos.shape}")
        conf = np.ones(pos.shape[:2]) if self.confidence is None else self.confidence
        conf = np.array(conf, dtype=np.float64)
        if conf.shape != pos.shape[:2]:
            raise ContractViolationError(f"confidence shape {conf.shape} does not match {pos.shape[:2]}")
        if pos.shape[0] < 2:
            raise ContractViolationError(f"a sequence needs at least 2 frames, got {pos.shape[0]}")
        if pos.shape[1] < 1:
            raise ContractViolationError("a frame must contain at least one joint")
        if not (math.isfinite(self.fps) and self.fps > 0):
            raise ContractViolationError(f"fps must be a positive real, got {self.fps}")
        _check_values(pos, conf, ContractViolationError)
        pos.setflags(write=False)
        conf.setflags(write=False)
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "confidence", conf)

    def __len__(self) -> int:
        return self.positions.shape[0]

    @property
    def num_joints(self) -> int:
        return self.positions.shape[1]


def _first_person(doc) -> list | None:
    """The first person's flat keypoint list, or None when nobody was detected."""
    if not isinstance(doc, dict) or "people" not in doc:
        raise ParseError("document has no 'people' array")
    people = doc["people"]
    if not isinstance(people, list):
        raise ParseError("'people' is not an array")
    if not people:
        return None
    person = people[0]
    if not isinstance(person, dict) or "pose_keypoints_2d" not in person:
        raise ParseError("first person has no 'pose_keypoints_2d' array")
    flat = person["pose_keypoints_2d"]
    if not isinstance(flat, list):
        raise FormatError(_NOT_NUMERIC)
    if len(flat) % 3 != 0:
        raise FormatError(
            f"keypoint array length {len(flat)} is not divisible by 3 (x, y, confidence triples)"
        )
    return flat


def _keypoint_table(path: Path, count: int, lists: dict[int, list], values: np.ndarray,
                    rows: np.ndarray | list[int], expected_joints: int | None) -> np.ndarray:
    """The (T, n, 3) x, y, confidence table of ``count`` frames: ``lists`` maps frames to keypoint
    lists, ``values`` holds the loadtxt rows of frames ``rows``, and any other frame has nobody
    (every value 0). ``n`` is ``expected_joints``, else that of the first frame with somebody."""
    listed = np.fromiter(lists, np.intp, len(lists))
    width = np.full(count, -1)
    width[rows] = values.shape[1]
    width[listed] = np.fromiter(map(len, lists.values()), np.intp, len(lists))
    seen = np.flatnonzero(width >= 0)
    n = expected_joints
    if n is None:
        if not seen.size:
            raise EmptyInputError(f"every frame in {path} is empty; joint count unknown")
        n = int(width[seen[0]]) // 3
    wrong = seen[width[seen] != 3 * n]
    if wrong.size:
        raise TopologyMismatchError(f"document carries {width[wrong[0]] // 3} joints, topology expects {n}")
    table = np.zeros((count, n, 3))
    table[rows] = values.reshape(len(rows), n, 3)
    if lists:
        try:
            parsed = np.array(list(lists.values()))
        except ValueError:  # ragged: a keypoint array holds a nested list
            raise FormatError(_NOT_NUMERIC) from None
        if parsed.ndim != 2 or parsed.dtype.kind not in "biuf":  # nested triples, or not numbers
            raise FormatError(_NOT_NUMERIC)
        table[listed] = parsed.reshape(len(lists), n, 3)
    return table


def _load_json(raw: bytes | str, what: str):
    try:
        return json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid {what}: {exc.msg}", offset=exc.pos) from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"invalid {what}: not UTF-8", offset=exc.start) from exc
    except ValueError as exc:  # an integer of more digits than Python converts
        raise ParseError(f"invalid {what}: {exc}", offset=None) from exc


def serialize_keypoint_frame(frame: np.ndarray) -> bytes:
    """One OpenPose-style document for an (N, 3) x, y, confidence frame; its floats load back bit-exactly."""
    flat = np.asarray(frame, dtype=np.float64).ravel().tolist()
    return json.dumps({"people": [{"pose_keypoints_2d": flat}]}).encode("utf-8")


def _frame_files(directory: Path) -> list[str]:
    """Paths of the ``*.json`` files, ordered by the last number in each name, which no two share."""
    keyed = []
    with os.scandir(directory) as entries:
        for entry in entries:
            name = entry.name  # a stem of dots alone is a hidden file, not a frame
            if not name.endswith(".json") or not name[:-5].lstrip(".") or not entry.is_file():
                continue
            matches = _DIGITS.findall(name[:-5])
            if not matches:
                raise FormatError(f"keypoint file name has no numeric component: {name}")
            keyed.append((int(matches[-1]), name, entry.path))
    keyed.sort()
    for (number, first, _), (again, second, _) in zip(keyed, keyed[1:]):
        if number == again:
            raise FormatError(f"keypoint files {first} and {second} carry the same frame number {number}")
    return [path for _, _, path in keyed]


def _read(name: str) -> bytes:
    fd = os.open(name, os.O_RDONLY)
    try:
        return b"".join(iter(lambda: os.read(fd, 1 << 16), b""))
    finally:
        os.close(fd)


def _not_json_numbers(bodies: list[bytes]) -> list[int]:
    """Indices of the ``bodies``, fields separated by "," or ", ", that hold more than JSON numbers.

    ``np.loadtxt`` alone would also read ``.5``, ``5.``, ``+1``, ``01`` or ``nan``; ``-0``
    is refused because JSON reads it as the integer 0, not as -0.0. A field with a second "."
    or exponent passes here, and ``np.loadtxt`` refuses it.
    """
    text = b"\n".join([b"", *bodies, b""])
    cls = np.frombuffer(text.translate(_CLASS_OF), np.uint8)
    pair_ok = np.frombuffer((cls[:-1] << 3 | cls[1:]).tobytes().translate(_PAIR_OK), np.bool_)
    sep, sign = cls >= 6, cls == 2
    sign[1:] &= sep[:-1]  # a minus that starts a field, not an exponent's
    zero = (np.frombuffer(text, np.uint8)[1:-1] == ord("0")) & (sep[:-2] | sign[:-2])
    zero &= (cls[2:] == 1) | sign[:-2] & sep[2:]  # 01, -01 or -0
    ends = np.cumsum([len(body) + 1 for body in bodies])  # where each body's closing "\n" lies
    bad = np.r_[np.flatnonzero(~pair_ok), np.flatnonzero(zero)] + 1  # the later byte of a pair
    return np.unique(np.searchsorted(ends, bad)).tolist()


def _read_frames(names: list[str]) -> tuple[dict[int, list], np.ndarray, np.ndarray | list[int]]:
    """The keypoint lists of the frame files parsed with json, and the loadtxt rows of the cut
    arrays of frames ``rows``. Any refused cut array reopens its file to parse it whole: one that
    is not JSON numbers, or one that loadtxt cannot stand for (rows of different widths, a width
    not a multiple of 3, an integer from 2**63)."""
    bodies, rows, texts, remainders = [], [], {}, {}
    for t, name in enumerate(names):
        raw = _read(name)
        cut = _CUT.search(raw)
        if cut and raw.count(_KEY) == 1:
            rest = raw[: cut.start(1)] + raw[cut.end(1) :]
            if rest not in remainders:  # with a backslash, an escaped key could stand for the cut one
                try:
                    remainders[rest] = b"\\" not in rest and _first_person(_load_json(rest, "keypoint document"))
                except (ParseError, FormatError):
                    remainders[rest] = False
            if remainders[rest] == [] and b"\n" not in cut[1]:  # not a pretty-printed array
                bodies.append(cut[1])
                rows.append(t)
                continue
        texts[t] = raw
    for k in reversed(_not_json_numbers(bodies) if bodies else []):  # read again, to parse whole
        del bodies[k]
        t = rows.pop(k)
        texts[t] = _read(names[t])
    values = np.empty((0, 3))
    if bodies:
        try:
            values = np.loadtxt(bodies, delimiter=",", ndmin=2)
            refused = np.flatnonzero((np.abs(values) >= 2.0**63).any(axis=1) | (values.shape[1] % 3 != 0))
        except ValueError:  # rows of different widths, or a field with a second "." or exponent
            values, refused = np.empty((len(bodies), 0)), np.arange(len(bodies))
        for k in refused.tolist():  # read again, to parse whole
            texts[rows[k]] = _read(names[rows[k]])
        values, rows = np.delete(values, refused, 0), np.delete(rows, refused)
    docs = {t: _load_json(texts[t], "keypoint document") for t in sorted(texts)}  # errors in frame order
    return {t: flat for t, doc in docs.items() if (flat := _first_person(doc)) is not None}, values, rows


def _table(path: Path, names: list[str] | None, expected_joints: int | None) -> np.ndarray:
    """The (T, n, 3) table of a container file, or of a frame directory's files ``names`` in frame order."""
    if names is not None:
        if not names:
            raise EmptyInputError(f"no keypoint files in {path}")
        return _keypoint_table(path, len(names), *_read_frames(names), expected_joints)
    docs = _load_json(path.read_bytes(), "container file")
    if not isinstance(docs, list):
        raise ParseError("container file must hold a JSON array of frame documents")
    if not docs:
        raise EmptyInputError(f"container file {path} holds no frames")
    lists = {t: flat for t, doc in enumerate(docs) if (flat := _first_person(doc)) is not None}
    return _keypoint_table(path, len(docs), lists, np.empty((0, 3)), [], expected_joints)


def load_sequence(
    path: str | Path,
    fps: float,
    expected_joints: int | None = None,
) -> PoseSequence:
    """Load a sequence from a directory of per-frame documents or a container file.

    Directory entries are ordered by the last numeric component of their
    file names (numeric, not lexical). A container file holds a JSON array
    of per-frame documents in frame order. An fps outside
    ``FPS_QUIET_RANGE`` is accepted with one warning.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such input: {path}")

    table = _table(path, _frame_files(path) if path.is_dir() else None, expected_joints)
    try:
        seq = PoseSequence(positions=table[..., :2], fps=fps, confidence=table[..., 2])
    except ContractViolationError as exc:  # fps, frame count or keypoint values
        raise FormatError(f"{path.name}: {exc}") from None
    if not FPS_QUIET_RANGE[0] <= fps <= FPS_QUIET_RANGE[1]:
        warnings.warn(
            f"fps {fps} outside the expected {FPS_QUIET_RANGE[0]:g}-"
            f"{FPS_QUIET_RANGE[1]:g} range",
            stacklevel=2,
        )
    return seq


def write_sequence(seq: PoseSequence, directory: str | Path) -> list[Path]:
    """Write one per-frame document per frame, zero-padded for lexical order."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    width = max(6, len(str(len(seq) - 1)))
    table = np.concatenate([seq.positions, seq.confidence[..., None]], axis=2)
    paths = []
    for t, frame in enumerate(table):
        p = directory / f"frame_{t:0{width}d}.json"
        p.write_bytes(serialize_keypoint_frame(frame))
        paths.append(p)
    return paths


def interpolate_missing(seq: PoseSequence) -> PoseSequence:
    """Fill confidence-0 gaps per joint and coordinate.

    Interior gaps take the linear interpolation between the nearest observed
    neighbors; leading/trailing gaps copy the nearest observed value. Output
    contains no confidence-0 keypoints. Idempotent.
    """
    observed = seq.confidence > 0.0
    gapped = np.flatnonzero(~observed.all(axis=0))
    if gapped.size == 0:
        return seq
    unseen = np.flatnonzero(~observed.any(axis=0))
    if unseen.size:
        raise UnrecoverableJointError(int(unseen[0]))
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


def normalize_sequence(seq: PoseSequence, root: int, neck: int) -> PoseSequence:
    """Root-center every frame and divide by the median root-to-neck distance.

    Invariant under global translation and uniform positive scaling of the
    input (up to float rounding). Requires a gap-free sequence.
    """
    pos = seq.positions
    n = seq.num_joints
    if not (0 <= root < n and 0 <= neck < n):
        raise ContractViolationError(f"root/neck indices ({root}, {neck}) out of range for {n} joints")
    torso = float(np.median(np.linalg.norm(pos[:, root] - pos[:, neck], axis=1)))
    if torso <= 1e-9:
        raise DegeneratePoseError(
            f"median root-to-neck distance {torso:g} is too small to scale against"
        )
    centered = pos - pos[:, root : root + 1, :]
    return PoseSequence(centered / torso, fps=seq.fps, confidence=seq.confidence)


def write_sequence_csv(seq: PoseSequence, path: str | Path) -> None:
    """Export positions as CSV rows ``frame,joint,x,y``."""
    lines = ["frame,joint,x,y"]
    for t, frame in enumerate(seq.positions.tolist()):
        for j, (x, y) in enumerate(frame):
            lines.append(f"{t},{j},{x!r},{y!r}")
    write_atomic(path, "\n".join(lines) + "\n")
