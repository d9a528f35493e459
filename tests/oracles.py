"""Reference implementations that production code no longer calls; tests compare against them."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from freqgcn.errors import EmptyInputError, FormatError, ParseError, TopologyMismatchError
from freqgcn.pose import _NOT_NUMERIC, _check_values, _first_person, _load_json


def keypoint_table(flats: list[list | None], n: int) -> np.ndarray:
    """(T, n, 3) x, y, confidence rows from per-frame keypoint lists.

    A frame with nobody detected (None) becomes all-missing: every value 0.
    """
    missing = [0.0] * (3 * n)
    rows = []
    for flat in flats:
        if flat is None:
            flat = missing
        elif len(flat) != 3 * n:
            raise TopologyMismatchError(
                f"document carries {len(flat) // 3} joints, topology expects {n}"
            )
        rows.append(flat)
    try:
        table = np.array(rows)
    except ValueError:  # ragged: a keypoint array holds a nested list
        raise FormatError(_NOT_NUMERIC) from None
    if table.ndim != 2 or table.dtype.kind not in "biuf":
        raise FormatError(_NOT_NUMERIC)
    return table.astype(np.float64, copy=False).reshape(len(rows), n, 3)


def inferred_joints(flats: list[list | None]) -> int | None:
    """Joint count of the first frame with a detection."""
    return next((len(flat) // 3 for flat in flats if flat is not None), None)


def json_table(path: Path, names: list[str] | None, expected_joints: int | None) -> np.ndarray:
    """The (T, n, 3) table from one ``json.loads`` per document of a directory or container."""
    if names is not None:
        docs = []
        for name in names:
            with open(name, "rb") as handle:
                docs.append(_load_json(handle.read(), "keypoint document"))
        if not docs:
            raise EmptyInputError(f"no keypoint files in {path}")
    else:
        docs = _load_json(path.read_bytes(), "container file")
        if not isinstance(docs, list):
            raise ParseError("container file must hold a JSON array of frame documents")
        if not docs:
            raise EmptyInputError(f"container file {path} holds no frames")

    flats = [_first_person(doc) for doc in docs]
    n = expected_joints if expected_joints is not None else inferred_joints(flats)
    if n is None:
        raise EmptyInputError(f"every frame in {path} is empty; joint count unknown")
    return keypoint_table(flats, n)


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
