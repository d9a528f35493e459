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
with ``json``, in frame order, and so is a cut array that the byte check or
``np.loadtxt`` refuses, from the bytes already read: each file is read once.
A container is cut or parsed whole: one split cuts out every array, which the same
byte check and ``np.loadtxt`` read, each distinct rest is parsed once, and a document
whose array they refuse is parsed alone. One ``json.loads`` parses a container with a
second person, a backslash or a first array on several lines, or any other the cut
cannot stand for. The table and any error are those one ``json.loads`` per document gives.
"""

from __future__ import annotations

import json
import math
import os
import re
import warnings
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ContractViolationError, EmptyInputError, FormatError
from .files import make_directory, read_input, write_atomic, write_table

# Frame rates outside this range are accepted but flagged.
FPS_QUIET_RANGE = (24.0, 60.0)

_DIGITS = re.compile(r"(\d+)")
_NOT_NUMERIC = "'pose_keypoints_2d' must be a flat numeric array"

_KEY = b'"pose_keypoints_2d"'
_WS = rb"[ \t\n\r]*"  # JSON's whitespace; \s and bytes.strip() also take \v and \f
_CUT = re.compile(rb'("pose_keypoints_2d"' + _WS + rb":" + _WS + rb"\[)")  # the array runs to the next "]"
_SPLIT = re.compile(rb"\}" + _WS + rb"," + _WS + rb"\{")  # between two documents of a container
_OPEN = re.compile(_WS + rb"\[" + _WS + rb"(\{.*)", re.S)  # a container's text before its first array
_CLOSE = re.compile(rb"(.*\})" + _WS + rb"\]" + _WS, re.S)  # and after the "]" of its last
# The class of each byte of the cut keypoint text (0 any other byte, 1 digit, 2 "-",
# 3 "+", 4 ".", 5 exponent, 6 "," or row end, 7 " "), and the pairs of neighbouring
# classes, written 0o<previous><next>, that rows of JSON numbers allow.
_CLASS_OF = bytes(b"\0\1\1\1\1\1\1\1\1\1\1\2\3\4\5\5\6\6\7"[b"0123456789-+.eE,] ".find(c) + 1]
                  for c in range(256))
_PAIR_OK = bytes(i in (0o11, 0o14, 0o15, 0o16, 0o21, 0o31, 0o41, 0o51, 0o52, 0o53, 0o61, 0o62, 0o67,
                       0o71, 0o72, 0o77) for i in range(256))


def _check_values(xy: np.ndarray, conf: np.ndarray, error: Callable[[str], Exception]) -> None:
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
        raise FormatError("document has no 'people' array")
    people = doc["people"]
    if not isinstance(people, list):
        raise FormatError("'people' is not an array")
    if not people:
        return None
    person = people[0]
    if not isinstance(person, dict) or "pose_keypoints_2d" not in person:
        raise FormatError("first person has no 'pose_keypoints_2d' array")
    flat = person["pose_keypoints_2d"]
    if not isinstance(flat, list):
        raise FormatError(_NOT_NUMERIC)
    if len(flat) % 3 != 0:
        raise FormatError(
            f"keypoint array length {len(flat)} is not divisible by 3 (x, y, confidence triples)"
        )
    return flat


def _frame_name(path: Path, names: list[str] | None, t: int) -> str:
    return f"frame {t} of {path.name}" if names is None else os.path.basename(names[t])


def _numbers(rows: list, ndim: int) -> np.ndarray | None:
    try:
        array = np.array(rows)
    except ValueError:  # ragged: a keypoint array holds a nested list
        return None
    return array if array.ndim == ndim and array.dtype.kind in "biuf" else None


def _keypoint_table(path: Path, names: list[str] | None, count: int, lists: dict[int, list],
                    values: np.ndarray, rows: np.ndarray | list[int], expected_joints: int | None) -> np.ndarray:
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
        raise FormatError(f"{_frame_name(path, names, wrong[0])}: document carries "
                          f"{width[wrong[0]] // 3} joints, topology expects {n}")
    table = np.zeros((count, n, 3))
    table[rows] = values.reshape(len(rows), n, 3)
    if lists:
        parsed = _numbers(list(lists.values()), 2)
        if parsed is None:  # nested triples, or not numbers: find the first such frame
            t = next(t for t, flat in lists.items() if _numbers(flat, 1) is None)
            raise FormatError(f"{_frame_name(path, names, t)}: {_NOT_NUMERIC}")
        table[listed] = parsed.reshape(len(lists), n, 3)
    return table


def _load_json(raw: bytes | str, what: str):
    try:
        return json.loads(raw)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid {what}: {exc.msg} (byte offset {exc.pos})") from exc
    except UnicodeDecodeError as exc:
        raise FormatError(f"invalid {what}: not UTF-8 (byte offset {exc.start})") from exc
    except (ValueError, RecursionError) as exc:  # an integer of too many digits, deep nesting
        raise FormatError(f"invalid {what}: {exc}") from exc


def _alone(doc: bytes) -> list | None | bool:
    """``_first_person`` of ``doc`` parsed alone, or False where json or the keypoint layout refuses it."""
    try:
        return _first_person(_load_json(doc, "keypoint document"))
    except FormatError:
        return False


def _frame_list(path: Path, names: list[str] | None, t: int, doc) -> list | None:
    """The first person's keypoint list in frame ``t``'s ``doc``, bytes or parsed; an error names the frame."""
    try:
        return _first_person(_load_json(doc, "keypoint document") if isinstance(doc, bytes) else doc)
    except FormatError as exc:
        exc.args = (f"{_frame_name(path, names, t)}: {exc}",)
        raise


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


def _not_json_numbers(bodies: list[bytes]) -> list[int]:
    """Indices of the ``bodies``, fields separated by "," or ", ", that hold more than JSON numbers.

    ``np.loadtxt`` alone would also read ``.5``, ``5.``, ``+1``, ``01`` or ``nan``; ``-0``
    is refused because JSON reads it as the integer 0, not as -0.0. A field with a second "."
    or exponent passes here, and ``np.loadtxt`` refuses it. A newline (a pretty-printed array) is
    refused: the bodies are joined at "]", which none holds, and a newline is any other byte.
    """
    text = b"]".join([b"", *bodies, b""])
    cls = np.frombuffer(text.translate(_CLASS_OF), np.uint8)
    pair_ok = np.frombuffer((cls[:-1] << 3 | cls[1:]).tobytes().translate(_PAIR_OK), np.bool_)
    sep, sign = cls >= 6, cls == 2
    sign[1:] &= sep[:-1]  # a minus that starts a field, not an exponent's
    zero = (np.frombuffer(text, np.uint8)[1:-1] == ord("0")) & (sep[:-2] | sign[:-2])
    zero &= (cls[2:] == 1) | sign[:-2] & sep[2:]  # 01, -01 or -0
    ends = np.cumsum([len(body) + 1 for body in bodies])  # where each body's closing "]" lies
    bad = np.r_[np.flatnonzero(~pair_ok), np.flatnonzero(zero)] + 1  # the later byte of a pair
    return np.unique(np.searchsorted(ends, bad)).tolist()


def _rows(bodies: list[bytes]) -> tuple[np.ndarray, np.ndarray]:
    """The loadtxt rows of the cut arrays ``bodies`` that stand for their JSON numbers, and the indices
    of those bodies. Refused are the bodies that the byte check refuses and those that loadtxt cannot
    stand for: rows of different widths, a width not a multiple of 3, an integer from 2**63."""
    kept = np.delete(np.arange(len(bodies)), _not_json_numbers(bodies))
    if not kept.size:
        return np.empty((0, 3)), kept
    try:  # the byte check lets no "#" through
        values = np.loadtxt([bodies[k] for k in kept.tolist()], delimiter=",", comments=None, ndmin=2)
    except ValueError:  # rows of different widths, or a field with a second "." or exponent
        return np.empty((0, 3)), kept[:0]
    fits = ~(np.abs(values) >= 2.0**63).any(axis=1) & (values.shape[1] % 3 == 0)
    return values[fits], kept[fits]


def _read_frames(path: Path, names: list[str]) -> tuple[dict[int, list], np.ndarray, np.ndarray]:
    """The keypoint lists of directory ``path``'s frame files parsed with json, and the loadtxt rows
    of the cut arrays of frames ``rows``. Each file is read once; a cut array that ``_rows`` refuses
    is parsed whole from those bytes."""
    raws, bodies, rows, remainders = [], [], [], {}
    for t, name in enumerate(names):
        raws.append(raw := read_input(name, what="keypoint file"))
        cut = _CUT.search(raw)
        if cut and (end := raw.find(b"]", cut.end())) >= 0 and raw.count(_KEY) == 1:
            body, rest = raw[cut.end() : end], raw[: cut.end()] + raw[end:]
            if rest not in remainders:  # with a backslash, an escaped key could stand for the cut one
                remainders[rest] = b"\\" not in rest and _alone(rest)
            if remainders[rest] == []:
                bodies.append(body)
                rows.append(t)
    values, kept = _rows(bodies)
    rows = np.array(rows, np.intp)[kept]
    whole = np.ones(len(names), bool)
    whole[rows] = False
    lists = {t: _frame_list(path, names, t, raws[t]) for t in np.flatnonzero(whole).tolist()}  # in frame order
    return {t: flat for t, flat in lists.items() if flat is not None}, values, rows


def _cut_container(raw: bytes) -> tuple[int, dict[int, list], np.ndarray, np.ndarray] | None:
    """The frame count, keypoint lists, and the loadtxt rows and their frames of container ``raw``, or
    None where the cut cannot stand for one ``json.loads`` of it. Each distinct text between two
    arrays is split at "}", ",", "{" into the end of one array's document, whole documents and the
    start of the next. Each distinct remainder (a document with its array emptied) must parse alone
    to that empty array, each whole document to nobody, and each document whose array ``_rows``
    refuses to its keypoint list, as a refused frame file does; then "[" and the documents joined by
    "," parse to exactly these documents. Two arrays in one document leave a remainder that cannot
    parse: the text between them would have to close the one document and open the next."""
    first = _CUT.search(raw)  # a pretty-printed container is refused before the split, on its first array
    if not first or b"\n" in raw[first.end() : raw.find(b"]", first.end())] or b"\\" in raw:
        return None  # with a backslash, an escaped key could stand for a cut one
    parts = _CUT.split(raw)  # the text before the first array, then each array's key and what follows
    head, close = _OPEN.fullmatch(parts[0]), _CLOSE.fullmatch(parts[-1].partition(b"]")[2])
    if not head or not close:
        return None
    cuts = [part.partition(b"]") for part in parts[2::2]]
    # The texts between arrays, and before the first and after the last framed as such by "}," and ",{".
    tails = [b"}," + head[1], *[tail for _, _, tail in cuts[:-1]], close[1] + b",{"]
    pieces = {tail: _SPLIT.split(tail) for tail in set(tails)}
    remainders = {(b"{" + pieces[before][-1] + key + b"]" + pieces[after][0] + b"}")
                  for before, key, after in set(zip(tails, parts[1::2], tails[1:]))}
    between = {b"{" + doc + b"}" for split in pieces.values() for doc in split[1:-1]}
    # Each piece runs from "{" to "}", so json reads its bytes as UTF-8, as it reads the container's.
    if any(_alone(doc) != [] for doc in remainders) or any(_alone(doc) is not None for doc in between):
        return None
    bodies = [body for body, _, _ in cuts]
    values, kept = _rows(bodies)
    counts = np.array([len(pieces[tail]) - 2 for tail in tails])  # the documents in each text between arrays
    frames = np.arange(len(bodies)) + np.cumsum(counts)[:-1]
    refused = np.setdiff1d(np.arange(len(bodies)), kept).tolist()  # each parsed with its document alone
    lists = {int(frames[k]): _alone(b"{%s%s%s]%s}" % (pieces[tails[k]][-1], parts[2 * k + 1], bodies[k],
                                                       pieces[tails[k + 1]][0])) for k in refused}
    if any(flat is False for flat in lists.values()):  # json's error would carry the container's offsets
        return None
    return len(bodies) + int(counts.sum()), lists, values, frames[kept]


def _table(path: Path, names: list[str] | None, expected_joints: int | None) -> np.ndarray:
    """The (T, n, 3) table of a container file, or of a frame directory's files ``names`` in frame order."""
    if names is not None:
        if not names:
            raise EmptyInputError(f"no keypoint files in {path}")
        return _keypoint_table(path, names, len(names), *_read_frames(path, names), expected_joints)
    raw = read_input(path, what="input")
    if cut := _cut_container(raw):
        return _keypoint_table(path, None, *cut, expected_joints)
    try:
        docs = _load_json(raw, "container file")
        if not isinstance(docs, list):
            raise FormatError("container file must hold a JSON array of frame documents")
    except FormatError as exc:
        exc.args = (f"{path.name}: {exc}",)
        raise
    if not docs:
        raise EmptyInputError(f"container file {path} holds no frames")
    lists = {t: flat for t, doc in enumerate(docs) if (flat := _frame_list(path, None, t, doc)) is not None}
    return _keypoint_table(path, None, len(docs), lists, np.empty((0, 3)), [], expected_joints)


def load_sequence(path: str | Path, fps: float, expected_joints: int | None = None) -> PoseSequence:
    """Load a sequence from a directory of per-frame documents or a container file.

    Directory entries are ordered by the last numeric component of their file names
    (numeric, not lexical). A container file holds a JSON array of per-frame documents in
    frame order; any path but a directory is read as one, so ``read_input`` reports a missing
    path or frame file. An fps outside ``FPS_QUIET_RANGE`` is accepted with one warning.
    """
    path = Path(path)
    names = _frame_files(path) if path.is_dir() else None
    table = _table(path, names, expected_joints)
    try:
        seq = PoseSequence(positions=table[..., :2], fps=fps, confidence=table[..., 2])
    except ContractViolationError as exc:  # fps, frame count or keypoint values
        for t, frame in enumerate(table):  # values again, frame by frame, to name the first frame at fault
            _check_values(frame[:, :2], frame[:, 2], lambda m: FormatError(f"{_frame_name(path, names, t)}: {m}"))
        raise FormatError(f"{path.name}: {exc}") from None
    if not FPS_QUIET_RANGE[0] <= fps <= FPS_QUIET_RANGE[1]:
        warnings.warn(f"fps {fps} outside the expected {FPS_QUIET_RANGE[0]:g}-{FPS_QUIET_RANGE[1]:g} range",
                      stacklevel=2)
    return seq


def frame_file_names(count: int) -> list[str]:
    """The names :func:`write_sequence` gives ``count`` frames, zero-padded for lexical order."""
    width = max(6, len(str(count - 1)))
    return [f"frame_{t:0{width}d}.json" for t in range(count)]


def write_sequence(seq: PoseSequence, directory: str | Path) -> None:
    """Write one per-frame document per frame, each named by :func:`frame_file_names`."""
    directory = Path(directory)
    make_directory(directory)
    table = np.concatenate([seq.positions, seq.confidence[..., None]], axis=2)
    for name, frame in zip(frame_file_names(len(seq)), table):
        write_atomic({directory / name: serialize_keypoint_frame(frame)})


@np.errstate(over="ignore")  # as np.interp, a fill that overflows to inf warns nothing; it is refused below
def interpolate_missing(seq: PoseSequence) -> PoseSequence:
    """Fill confidence-0 gaps per joint and coordinate.

    Interior gaps take the linear interpolation between the nearest observed
    neighbors; leading/trailing gaps copy the nearest observed value. Output
    contains no confidence-0 keypoints. Idempotent. A joint observed in no frame
    is a ContractViolationError naming the lowest such joint, and a fill that
    overflows, one naming its first frame and joint.
    """
    observed = seq.confidence > 0.0
    if observed.all():
        return seq
    if not (seen := observed.any(axis=0)).all():
        raise ContractViolationError(f"joint {np.argmin(seen)} is missing in every frame")
    t, j = np.nonzero(~observed)
    frames = np.arange(len(seq))[:, None]
    lo = np.maximum.accumulate(np.where(observed, frames, -1))[t, j]  # each gap's last observed frame, or -1
    hi = np.minimum.accumulate(np.where(observed, frames, len(seq))[::-1])[::-1][t, j]  # its next one, or T
    lo, hi = np.where(lo >= 0, lo, hi), np.where(hi < len(seq), hi, lo)  # an edge gap copies its one neighbour
    pos, conf = seq.positions.copy(), seq.confidence.copy()
    for values in (pos, conf[..., None]):  # np.interp's formula term for term, so bit-identical to it
        f_lo, f_hi = values[lo, j], values[hi, j]
        slope = (f_hi - f_lo) / np.maximum(hi - lo, 1)[:, None]
        values[t, j] = np.where((lo < hi)[:, None], slope * (t - lo)[:, None] + f_lo, f_lo)
    if not (finite := np.isfinite(pos[t, j]).all(axis=1)).all():
        k = int(np.argmin(finite))  # the first gap cell, in frame order, whose fill overflows
        raise ContractViolationError(f"frame {t[k]}, joint {j[k]}: the gap fill overflows; "
                                     "keypoint coordinates must be finite")
    return PoseSequence(pos, fps=seq.fps, confidence=conf)


@np.errstate(over="ignore", invalid="ignore")  # a coordinate that overflows is refused below
def normalize_sequence(seq: PoseSequence, root: int, neck: int) -> PoseSequence:
    """Root-center every frame and divide by the median root-to-neck distance.

    Invariant under global translation and uniform positive scaling of the
    input (up to float rounding). Requires a gap-free sequence. A torso scale
    too small to divide by is a ContractViolationError; a normalized coordinate
    that overflows, one naming its first frame and joint; a torso scale that
    overflows, one naming its first frame.
    """
    pos = seq.positions
    n = seq.num_joints
    if not (0 <= root < n and 0 <= neck < n):
        raise ContractViolationError(f"root/neck indices ({root}, {neck}) out of range for {n} joints")
    distances = np.linalg.norm(pos[:, root] - pos[:, neck], axis=1)
    torso = float(np.median(distances))
    if torso <= 1e-9:
        raise ContractViolationError(f"median root-to-neck distance {torso:g} is too small to scale against")
    normalized = (pos - pos[:, root : root + 1, :]) / torso
    if not np.isfinite(normalized).all():
        t, j, _ = np.argwhere(~np.isfinite(normalized))[0]  # C order: the first frame's lowest joint
        raise ContractViolationError(f"frame {t}, joint {j}: the normalized coordinates overflow; "
                                     "keypoint coordinates must be finite")
    if torso == np.inf:  # every coordinate would divide to zero
        raise ContractViolationError(f"frame {np.argmax(distances == np.inf)}: the root-to-neck distance "
                                     "overflows; keypoint coordinates must be finite")
    return PoseSequence(normalized, fps=seq.fps, confidence=seq.confidence)


def write_sequence_csv(seq: PoseSequence, path: str | Path) -> None:
    """Export positions as CSV rows ``frame,joint,x,y``."""
    rows = [(t, j, x, y) for t, frame in enumerate(seq.positions.tolist()) for j, (x, y) in enumerate(frame)]
    write_table(path, "frame,joint,x,y", rows)
