import json
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from freqgcn import pose
from freqgcn.errors import ContractViolationError, EmptyInputError, FormatError, FreqGcnError
from freqgcn.pose import (
    PoseSequence,
    interpolate_missing,
    load_sequence,
    normalize_sequence,
    serialize_keypoint_frame,
    write_sequence,
    write_sequence_csv,
)
from oracles import interpolate_missing as interp_loop
from oracles import json_table, parse_keypoint_frame


def frame_doc(triples):
    return json.dumps({"people": [{"pose_keypoints_2d": triples}]}).encode()


class TestParseKeypointFrame:
    def test_flat_triples_map_to_keypoints(self):
        frame = parse_keypoint_frame(frame_doc([10.0, 20.0, 0.9, 0, 0, 0]), expected_joints=2)
        assert frame[0].tolist() == [10.0, 20.0, 0.9]
        assert frame[1, 2] == 0.0  # confidence 0 marks the joint missing

    def test_empty_people_yields_all_missing_frame(self):
        raw = json.dumps({"people": []}).encode()
        frame = parse_keypoint_frame(raw, expected_joints=25)
        assert frame.shape == (25, 3)
        assert (frame[:, 2] == 0.0).all()

    def test_length_not_divisible_by_three(self):
        with pytest.raises(FormatError, match="divisible by 3"):
            parse_keypoint_frame(frame_doc([0.0] * 74))

    def test_malformed_document_reports_byte_offset(self):
        with pytest.raises(FormatError, match=r"^invalid keypoint document: Expecting value \(byte offset 12\)$"):
            parse_keypoint_frame(b'{"people": [}')

    def test_topology_mismatch(self):
        with pytest.raises(FormatError, match="^document carries 1 joints, topology expects 2$"):
            parse_keypoint_frame(frame_doc([1.0, 2.0, 0.5]), expected_joints=2)

    def test_first_person_wins(self):
        doc = json.dumps(
            {
                "people": [
                    {"pose_keypoints_2d": [1.0, 2.0, 0.5]},
                    {"pose_keypoints_2d": [9.0, 9.0, 0.9]},
                ]
            }
        ).encode()
        frame = parse_keypoint_frame(doc)
        assert frame[0, 0] == 1.0

    def test_confidence_out_of_range_rejected(self):
        with pytest.raises(FormatError):
            parse_keypoint_frame(frame_doc([1.0, 2.0, 1.5]))

    @pytest.mark.parametrize("triple", [
        ["1.0", 2.0, 0.5], [[1.0], 2.0, 0.5], [None, 2.0, 0.5], [float("nan"), 2.0, 0.5],
    ])
    def test_non_numeric_or_non_finite_rejected(self, triple):
        with pytest.raises(FormatError):
            parse_keypoint_frame(frame_doc(triple))

    @given(
        st.lists(
            st.tuples(
                st.floats(-1e6, 1e6, allow_nan=False),
                st.floats(-1e6, 1e6, allow_nan=False),
                st.floats(0.0, 1.0, allow_nan=False),
            ),
            min_size=1,
            max_size=10,
        )
    )
    def test_parse_serialize_parse_round_trip_bit_exact(self, triples):
        flat = [v for triple in triples for v in triple]
        first = parse_keypoint_frame(frame_doc(flat))
        second = parse_keypoint_frame(serialize_keypoint_frame(first))
        assert first.shape == second.shape
        assert first.tobytes() == second.tobytes()


class TestLoadSequence:
    def write_frames(self, directory, names, n_joints=2):
        directory.mkdir(exist_ok=True)
        for k, name in enumerate(names):
            triples = []
            for j in range(n_joints):
                triples += [float(k), float(j), 1.0]
            (directory / name).write_bytes(frame_doc(triples))

    def test_zero_padded_order(self, tmp_path):
        self.write_frames(tmp_path / "seq", ["seq_000.json", "seq_001.json"])
        seq = load_sequence(tmp_path / "seq", fps=30.0)
        assert len(seq) == 2
        assert seq.positions[:, 0, 0].tolist() == [0.0, 1.0]

    def test_numeric_not_lexical_order(self, tmp_path):
        d = tmp_path / "seq"
        d.mkdir()
        (d / "f_10.json").write_bytes(frame_doc([10.0, 0.0, 1.0]))
        (d / "f_2.json").write_bytes(frame_doc([2.0, 0.0, 1.0]))
        seq = load_sequence(d, fps=30.0)
        assert seq.positions[:, 0, 0].tolist() == [2.0, 10.0]

    def test_empty_directory(self, tmp_path):
        d = tmp_path / "empty"
        d.mkdir()
        with pytest.raises(EmptyInputError):
            load_sequence(d, fps=30.0)

    def test_missing_path(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_sequence(tmp_path / "nope", fps=30.0)

    def test_mixed_joint_counts(self, tmp_path):
        d = tmp_path / "seq"
        d.mkdir()
        (d / "a_0.json").write_bytes(frame_doc([1.0, 2.0, 1.0]))
        (d / "a_1.json").write_bytes(frame_doc([1.0, 2.0, 1.0, 3.0, 4.0, 1.0]))
        with pytest.raises(FormatError, match="^a_1.json: document carries 2 joints, topology expects 1$"):
            load_sequence(d, fps=30.0)

    def test_container_file(self, tmp_path):
        docs = [
            {"people": [{"pose_keypoints_2d": [float(k), 0.0, 1.0]}]} for k in range(3)
        ]
        path = tmp_path / "clip.json"
        path.write_text(json.dumps(docs))
        seq = load_sequence(path, fps=30.0)
        assert seq.positions[:, 0, 0].tolist() == [0.0, 1.0, 2.0]

    def test_write_sequence_round_trip(self, tmp_path):
        seq = PoseSequence(np.arange(12, dtype=float).reshape(3, 2, 2), fps=30.0)
        write_sequence(seq, tmp_path / "out")
        again = load_sequence(tmp_path / "out", fps=30.0)
        assert np.array_equal(again.positions, seq.positions)

    def test_fps_warning_outside_range(self, tmp_path):
        self.write_frames(tmp_path / "seq", ["f_0.json", "f_1.json"], n_joints=1)
        with pytest.warns(UserWarning, match="fps"):
            load_sequence(tmp_path / "seq", fps=120.0)

    def test_fps_warning_fires_once_per_ingest(self, tmp_path):
        d = tmp_path / "seq"
        d.mkdir()
        for k in range(4):  # joint 1 is missing in frame 1, so gap filling builds a new sequence
            (d / f"f_{k}.json").write_bytes(frame_doc([k, 0.0, 1.0, k, 1.0, float(k != 1)]))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            seq = load_sequence(tmp_path / "seq", fps=120.0)
            seq = interpolate_missing(seq)
            normalize_sequence(seq, root=0, neck=1)
        assert [w.category for w in caught] == [UserWarning]

    @pytest.mark.parametrize("fps", [0.0, -30.0, float("nan")])
    def test_invalid_fps_is_a_format_error(self, tmp_path, fps):
        self.write_frames(tmp_path / "seq", ["f_0.json", "f_1.json"])
        with pytest.raises(FormatError, match="fps"):
            load_sequence(tmp_path / "seq", fps=fps)

    def test_single_frame_is_a_format_error(self, tmp_path):
        self.write_frames(tmp_path / "seq", ["f_0.json"])
        with pytest.raises(FormatError, match="2 frames"):
            load_sequence(tmp_path / "seq", fps=30.0)

    def test_all_empty_frames_without_joint_count(self, tmp_path):
        path = tmp_path / "clip.json"
        path.write_text(json.dumps([{"people": []}, {"people": []}]))
        with pytest.raises(EmptyInputError, match="every frame"):
            load_sequence(path, fps=30.0)

    def test_keypoint_values_checked_once_per_load(self, tmp_path, monkeypatch):
        calls = []
        check = pose._check_values
        monkeypatch.setattr(pose, "_check_values", lambda *args: calls.append(1) or check(*args))
        self.write_frames(tmp_path / "seq", ["f_0.json", "f_1.json"])
        load_sequence(tmp_path / "seq", fps=30.0)
        assert len(calls) == 1

    @pytest.mark.parametrize("triple", [[float("nan"), 2.0, 0.5], [1.0, 2.0, 1.5]])
    def test_bad_keypoint_value_names_the_input(self, tmp_path, triple):
        path = tmp_path / "clip.json"
        path.write_text(json.dumps([json.loads(frame_doc([1.0, 2.0, 1.0])),
                                    json.loads(frame_doc(triple))]))
        with pytest.raises(FormatError, match="clip.json: keypoint"):
            load_sequence(path, fps=30.0)

    @pytest.mark.parametrize("doc,message", [
        (b'{"people": [}', "invalid keypoint document: Expecting value (byte offset 12)"),
        (b'{"people": "\xff"}', "invalid keypoint document: not UTF-8"),
        (b'{"people": [{"pose_keypoints_2d": [%s]}]}' % (b"1" * 4301), "invalid keypoint document: Exceeds"),
        (b"{}", "document has no 'people' array"),
        (b'{"people": [{"pose_keypoints_2d": 3}]}', "flat numeric array"),
        (b'{"people": [{"pose_keypoints_2d": [1, 2]}]}', "not divisible by 3"),
    ], ids=["json", "not utf-8", "long integer", "no people", "not an array", "length"])
    def test_a_bad_frame_file_is_named(self, tmp_path, doc, message):
        directory = tmp_path / "seq"
        directory.mkdir()
        for k in range(40):
            (directory / f"frame_{k:06d}.json").write_bytes(doc if k == 17 else frame_doc([1.0, 2.0, 1.0]))
        with pytest.raises(FormatError) as excinfo:
            load_sequence(directory, fps=30.0)
        assert str(excinfo.value).startswith("frame_000017.json: ")
        assert message in str(excinfo.value)

    @pytest.mark.parametrize("flat,error,message", [
        ([1.0, 2.0, 1.0], FormatError, "document carries 1 joints, topology expects 5"),
        ([None] + [1.0] * 14, FormatError, "'pose_keypoints_2d' must be a flat numeric array"),
        ([float("nan")] + [1.0] * 14, FormatError, "keypoint coordinates must be finite"),
        ([1.0, 2.0, 1.5] + [1.0] * 12, FormatError, "keypoint confidence must lie in [0, 1]"),
    ], ids=["width", "not numbers", "non-finite", "confidence"])
    @pytest.mark.parametrize("container", [False, True], ids=["directory", "container"])
    def test_a_table_check_names_the_first_failing_frame(self, tmp_path, flat, error, message, container):
        docs = [frame_doc(flat if k in (17, 25) else [1.0, 2.0, 1.0] * 5) for k in range(40)]
        if container:
            path = tmp_path / "clip.json"
            path.write_bytes(b"[" + b",".join(docs) + b"]")
        else:
            path = write_frame_dir(tmp_path / "seq", docs)
        with pytest.raises(error) as excinfo:
            load_sequence(path, fps=30.0, expected_joints=5)
        frame = "frame 17 of clip.json" if container else "f_017.json"
        assert str(excinfo.value) == f"{frame}: {message}"

    def test_non_json_entries_are_skipped(self, tmp_path):
        self.write_frames(tmp_path / "seq", ["f_0.json", "f_1.json"])
        (tmp_path / "seq" / "notes_9.txt").write_text("not a frame")
        (tmp_path / "seq" / "sub_5.json").mkdir()
        (tmp_path / "seq" / ".json").write_text("a hidden file, not a frame")
        seq = load_sequence(tmp_path / "seq", fps=30.0)
        assert seq.positions[:, 0, 0].tolist() == [0.0, 1.0]


def write_frame_dir(directory, docs):
    directory.mkdir()
    for k, doc in enumerate(docs):
        (directory / f"f_{k:03d}.json").write_bytes(doc)
    return directory


def ingest(directory, joints, table):
    """load_sequence's outcome with ``table`` building the keypoint table: the arrays as bytes,
    or the error's type and message."""
    with mock.patch.object(pose, "_table", table):
        try:
            seq = load_sequence(directory, fps=30.0, expected_joints=joints)
        except FreqGcnError as exc:
            return type(exc), str(exc)
    return seq.positions.shape, seq.positions.tobytes(), seq.confidence.tobytes()


def paths_agree(path, joints=None):
    """Assert that load_sequence and the json oracle give bit-equal arrays or the same error for
    a frame directory or a container file; return how many of the directory's documents, or
    containers, load_sequence parsed whole, or None when both fail."""
    docs = {doc.read_bytes() for doc in path.iterdir()} if path.is_dir() else {path.read_bytes()}
    parsed = []
    load_json = pose._load_json
    with mock.patch.object(pose, "_load_json", lambda raw, what: parsed.append(raw) or load_json(raw, what)):
        got = ingest(path, joints, pose._table)
    assert got == ingest(path, joints, json_table)
    return None if isinstance(got[0], type) else sum(raw in docs for raw in parsed)


OPENPOSE_PERSON = b'{"version":1.3,"people":[{"person_id":[-1],"pose_keypoints_2d":[%s],"face_keypoints_2d":[]}]}'
OPENPOSE_NOBODY = b'{"version":1.3,"people":[]}'
FORMATS = (repr, "%.3f".__mod__, "%g".__mod__, "%.17g".__mod__, "%E".__mod__,
           lambda v: str(int(v)) if v.is_integer() else repr(v))
TOKENS = (".5", "5.", "+1", "01", "-01", "NaN", "Infinity", "-Infinity", "--1", "", "-0", "-0.0",
          "0", "1E+5", "1e-05", "1e5", "true", "null", '"1"', "[1]", "{}", "1e400",
          "9223372036854775808", "-9223372036854775809", "1 2", "0x1", " 1", "1 ", "1\n",
          "0.1.5", "1e2e3", "1e2.3", "1.5E2e1", "1" * 4301)


def cut_tokens(raw):
    start = raw.index(b"[", raw.index(b'"pose_keypoints_2d"')) + 1
    end = raw.index(b"]", start)
    return raw[:start], raw[start:end].split(b","), raw[end:]


def mutate(raw, draw):
    """One structural or lexical change to a frame document, drawn by Hypothesis."""
    kind = draw(st.sampled_from([
        "token", "second person", "bystander", "indent", "duplicate key", "escaped string", "escaped key",
        "key outside", "nobody", "drop triple", "drop value", "nest", "truncate", "byte", "spaces", "newline",
    ]))
    if b'"pose_keypoints_2d"' not in raw and kind not in ("truncate", "byte", "key outside"):
        kind = "key outside"
    if kind in ("token", "drop triple", "drop value", "nest"):
        head, tokens, tail = cut_tokens(raw)
        k = draw(st.integers(0, len(tokens) - 1))
        if kind == "token":
            tokens[k] = draw(st.sampled_from(TOKENS)).encode()
        elif kind == "nest":
            tokens[k] = b"[" + tokens[k] + b"]"
        else:
            del tokens[-3 if kind == "drop triple" else -1:]
        return head + b",".join(tokens) + tail
    if kind == "second person":  # in front, in either layout
        return raw.replace(b'"people":[{', b'"people":[{"pose_keypoints_2d":[1,2,0.5]},{', 1).replace(
            b'"people": [{', b'"people": [{"pose_keypoints_2d": [1, 2, 0.5]}, {', 1)
    if kind == "bystander":  # behind the first person
        return raw[: raw.rindex(b"]}")] + b',{"pose_keypoints_2d":[1,2,0.5]}]}'
    if kind == "indent":
        try:
            return json.dumps(json.loads(raw), indent=2).encode()
        except ValueError:
            return raw
    if kind == "duplicate key":
        return raw.replace(b'"pose_keypoints_2d"', b'"pose_keypoints_2d":[9,9,0.5],"pose_keypoints_2d"', 1)
    if kind == "escaped string":
        return raw.replace(b"{", b'{"note":"a\\"b",', 1)
    if kind == "escaped key":
        return raw.replace(b'"pose_keypoints_2d"', b'"pose\\u005fkeypoints_2d"', 1)
    if kind == "key outside":
        return b'{"pose_keypoints_2d":[1,2,0.5],' + raw[1:]
    if kind == "nobody":
        return OPENPOSE_NOBODY
    if kind == "truncate":
        return raw[: draw(st.integers(0, len(raw) - 1))]
    if kind == "byte":
        k = draw(st.integers(0, len(raw) - 1))
        byte = draw(st.sampled_from([bytes([b]) for b in b' \t\n,.-+eE0123456789"[]{}:\\x\xff']))
        return raw[:k] + byte + raw[k + 1:]
    if kind == "spaces":
        return raw.replace(b":", b" : ").replace(b",", b",  ")
    return raw.replace(b",", b",\n", 1)


@st.composite
def frame_docs(draw, mutated=True):
    """Documents of a valid sequence in the writer's or the compact OpenPose layout, with
    nobody in some frames, then some documents mutated if ``mutated``."""
    frames, joints = draw(st.integers(2, 5)), draw(st.integers(1, 3))
    xy = st.floats(-1e4, 1e4)
    if draw(st.booleans()):  # magnitudes from 2**63 on, which json may read as integers
        xy = st.floats(allow_nan=False, allow_infinity=False)
    docs = []
    writer = draw(st.booleans())
    for _ in range(frames):
        if draw(st.integers(0, 5)) == 0:
            docs.append(b'{"people": []}' if writer else OPENPOSE_NOBODY)
            continue
        frame = np.array([[draw(xy), draw(xy), draw(st.floats(0.0, 1.0))] for _ in range(joints)])
        if writer:
            docs.append(serialize_keypoint_frame(frame))
        else:
            fmt = draw(st.sampled_from(FORMATS))
            docs.append(OPENPOSE_PERSON % ",".join(fmt(v) for v in frame.ravel().tolist()).encode())
    for k in draw(st.sets(st.integers(0, frames - 1), max_size=frames * mutated)):
        docs[k] = mutate(docs[k], draw)
    return docs, draw(st.sampled_from([None, None, joints, joints + 1]))


class TestFastPathOracle:
    """load_sequence against one ``json.loads`` per document, the oracle."""

    @given(frame_docs())
    @settings(deadline=None)
    def test_fast_and_json_paths_agree(self, case):
        docs, joints = case
        with tempfile.TemporaryDirectory() as root:
            paths_agree(write_frame_dir(Path(root) / "seq", docs), joints)

    @pytest.mark.parametrize("token,whole", [
        (".5", None), ("5.", None), ("+1", None), ("01", None), ("NaN", None),
        ("Infinity", None), ("--1", None), ("", None), ("-0", 1),
        ("-0.0", 0), ("1E+5", 0), ("1e-05", 0), ("0.1.5", None), ("1e2e3", None), ("1e2.3", None),
        ("1.5E2e1", None), ("1#2", None), ("1\r", 1),
    ])
    def test_number_syntax(self, tmp_path, token, whole):
        docs = [b'{"people":[{"pose_keypoints_2d":[1,2,0.5]}]}',
                b'{"people":[{"pose_keypoints_2d":[%s,2,0.5]}]}' % token.encode()]
        assert paths_agree(write_frame_dir(tmp_path / "seq", docs)) == whole

    @pytest.mark.parametrize("doc,whole", [
        (b'{"people":[{"pose_keypoints_2d":[[1,2,0.5]]}]}', None),
        (b'{"people":[{"pose_keypoints_2d":[1,2,0.5]},{"pose_keypoints_2d":[3,4,0.5]}]}', 1),
        (b'{"pose_keypoints_2d":[1,2,0.5],"people":[{}]}', None),
        (b'{"pose_keypoints_2d":[1,2,0.5],"people":[]}', 1),
        (b'{"people":[{"pose_keypoints_2d":[1,2,0.5],"pose_keypoints_2d":[3,4,0.5]}]}', 1),
        (b'{"people":[{"pose_keypoints_2d":[1,2,0.5],"id":"a\\"b"}]}', 1),
        (b'{"people":[{"pose\\u005fkeypoints_2d":[]}],"x":{"pose_keypoints_2d":[1,2,0.5]}}', None),
        (b'{"people":[]}', 1),
        (b'{"people":[{"pose_keypoints_2d":[]}]}', None),
        (b'{"people":[{"pose_keypoints_2d":[1,2,0.5,3,4,0.5]}]}', None),
        (b'{"people":[{"pose_keypoints_2d":[1,2]}]}', None),
        (b'{"people" : [{"pose_keypoints_2d" :\n[1,  2, 0.5]}]}', 0),
        (b'{"people":[{"pose_keypoints_2d":[1,\n2,0.5]}]}', 1),
        (b'{"people":[{"pose_keypoints_2d":[1,2,true]},{"pose_keypoints_2d":[]}]}', 1),
        (b'{"people":[{"pose_keypoints_2d":[1,2,null]},{"pose_keypoints_2d":[]}]}', None),
        (b'{"people":[{"pose_keypoints_2d":[1,2,NaN]},{"pose_keypoints_2d":[]}]}', None),
        (b'{"people":[{"pose_keypoints_2d":[1,2,9223372036854775808]},{"pose_keypoints_2d":[]}]}', None),
        (b'{"people":[{"pose_keypoints_2d":[1,2,0.5}]}', None),
        (b'{"people":[{"pose_keypoints_2d":[1,2,0.5', None),
    ], ids=["nested list", "second person", "key outside people[0]", "key outside, nobody",
            "duplicated key", "escaped string", "escaped key", "empty people", "empty array",
            "wrong joint count", "length not divisible by 3", "whitespace", "newline in array",
            "second person, true", "second person, null", "second person, NaN",
            "second person, 2**63", "array not closed", "document ends in the array"])
    def test_structure(self, tmp_path, doc, whole):
        docs = [b'{"people":[{"pose_keypoints_2d":[1,2,0.5]}]}', doc]
        assert paths_agree(write_frame_dir(tmp_path / "seq", docs)) == whole

    def test_wrong_joint_count_against_the_topology(self, tmp_path):
        docs = [b'{"people":[{"pose_keypoints_2d":[1,2,0.5]}]}'] * 2
        assert paths_agree(write_frame_dir(tmp_path / "seq", docs), joints=2) is None

    @pytest.mark.parametrize("joints", [None, 1])
    def test_every_array_of_one_width_not_divisible_by_3(self, tmp_path, joints):
        docs = [b'{"people":[{"pose_keypoints_2d":[1,2,0.5,3]}]}'] * 2
        assert paths_agree(write_frame_dir(tmp_path / "seq", docs), joints) is None

    def test_frames_with_a_bystander_are_read_and_parsed_once(self, tmp_path, monkeypatch):
        """A frame that cannot take the cut costs one read and one json parse, as on the json
        path; the frames around it still take the cut."""
        bystander = b'{"people":[{"pose_keypoints_2d":[%d,2,0.5]},{"pose_keypoints_2d":[3,4,0.5]}]}'
        docs = [bystander % t if t % 2 else b'{"people":[{"pose_keypoints_2d":[%d,2,0.5]}]}' % t
                for t in range(6)]
        directory = write_frame_dir(tmp_path / "seq", docs)
        assert paths_agree(directory) == 3
        opened, parsed = [], []
        os_open, load_json = pose.os.open, pose._load_json
        monkeypatch.setattr(pose.os, "open", lambda *a: opened.append(a[0]) or os_open(*a))
        monkeypatch.setattr(pose, "_load_json", lambda raw, what: parsed.append(raw) or load_json(raw, what))
        seq = load_sequence(directory, fps=30.0)
        assert seq.positions[:, 0, 0].tolist() == list(range(6))
        assert len(opened) == 6 and sorted(parsed) == sorted([docs[1], docs[3], docs[5], b'{"people":[{"pose_keypoints_2d":[]}]}'])

    def test_each_file_is_opened_once(self, tmp_path, monkeypatch):
        """A bystander, a -0, which the byte check refuses, and a value from 2**63, which loadtxt
        cannot stand for, are parsed whole from the bytes read for the cut: no file is opened twice."""
        person = [OPENPOSE_PERSON % b"%d,2,0.5" % t for t in range(6)]
        docs = [person[0], person[1][: person[1].rindex(b"]}")] + b',{"pose_keypoints_2d":[3,4,0.5]}]}',
                OPENPOSE_PERSON % b"-0,2,0.5", OPENPOSE_PERSON % b"9223372036854775808,2,0.5",
                OPENPOSE_NOBODY, person[5]]
        directory = write_frame_dir(tmp_path / "seq", docs)
        assert paths_agree(directory) == 4  # the bystander's, the -0's, the 2**63's and the nobody's
        opened = []
        os_open = pose.os.open
        monkeypatch.setattr(pose.os, "open", lambda *a: opened.append(Path(a[0]).name) or os_open(*a))
        seq = load_sequence(directory, fps=30.0)
        assert seq.positions[:, 0, 0].tolist() == [0.0, 1.0, 0.0, 2.0**63, 0.0, 5.0]
        assert sorted(opened) == [f"f_{k:03d}.json" for k in range(6)]

    def test_plain_layouts_parse_one_document_per_remainder(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(3)
        seq = PoseSequence(rng.normal(size=(6, 4, 2)), fps=30.0, confidence=rng.random((6, 4)))
        write_sequence(seq, tmp_path / "writer")
        compact = [OPENPOSE_NOBODY if t == 2 else OPENPOSE_PERSON % ",".join(
            "%.3f" % v for v in rng.random(12)).encode() for t in range(6)]
        write_frame_dir(tmp_path / "compact", compact)
        calls = []
        load_json = pose._load_json
        monkeypatch.setattr(pose, "_load_json", lambda raw, what: calls.append(raw) or load_json(raw, what))
        writer = load_sequence(tmp_path / "writer", fps=30.0)
        assert len(calls) == 1  # six frames, one remainder
        assert writer.positions.tobytes() == seq.positions.tobytes()
        assert writer.confidence.tobytes() == seq.confidence.tobytes()
        load_sequence(tmp_path / "compact", fps=30.0)
        assert len(calls) == 1 + 2  # a person's remainder and the empty frame's


def write_container(path, docs, separator=b","):
    path.write_bytes(b"[" + separator.join(docs) + b"]")
    return path


DEEP = b"[" * 100_000 + b"]" * 100_000  # nests deeper than json's recursion allows
PERSON = b'{"people":[{"pose_keypoints_2d":[1,2,0.5]}]}'


@st.composite
def containers(draw):
    """The documents of ``frame_docs()``, mutated or not, as one container file with a container-level
    change."""
    docs, joints = draw(frame_docs(mutated=draw(st.booleans())))
    alphabet = [b" ", b"\t", b"\n", b"\r", *draw(st.sampled_from([[]] * 4 + [[b"\v"], [b"\f"]]))]
    space = st.lists(st.sampled_from(alphabet), max_size=2).map(b"".join)
    kind = draw(st.sampled_from(["none"] * 6 + ["trailing comma", "bom", "trailing garbage", "non-object",
                                                "split in a string", "two arrays", "deep", "empty"]))
    k = draw(st.integers(0, len(docs) - 1))
    if kind == "non-object":
        docs.insert(k, draw(st.sampled_from([b"1", b"null", b"[]", b'"x"', b"[{}]"])))
    elif kind == "split in a string":
        docs[k] = docs[k].replace(b"{", b'{"note":"%s",' % draw(st.sampled_from([b"},{", b"} , {"])), 1)
    elif kind == "two arrays" and b"}" in docs[k]:
        docs[k] = docs[k][: docs[k].rindex(b"}")] + b',"more":{"pose_keypoints_2d":[1,2,0.5]}}'
    elif kind == "deep":
        docs[k] = b'{"people":[],"deep":%s}' % DEEP
    elif kind == "empty":
        docs = []
    raw = b"".join(draw(space) + b"," + draw(space) + doc if t else doc for t, doc in enumerate(docs))
    raw = draw(space) + b"[" + draw(space) + raw + draw(space) + b"," * (kind == "trailing comma")
    raw += b"]" + draw(space)
    if kind == "bom":
        raw = b"\xef\xbb\xbf" + raw
    if kind == "trailing garbage":
        raw += draw(st.sampled_from([b"x", b"]", b",{}", b"[]", b"\0"]))
    return raw, joints


class TestContainerOracle:
    """load_sequence on a container file against one ``json.loads`` of it, the oracle."""

    @given(containers())
    @settings(deadline=None)
    def test_cut_and_json_paths_agree(self, case):
        raw, joints = case
        with tempfile.TemporaryDirectory() as root:
            path = Path(root) / "clip.json"
            path.write_bytes(raw)
            paths_agree(path, joints)

    @pytest.mark.parametrize("nobody", [(), (2,), (0, 999), (0, 1, 500, 501, 998, 999)])
    @pytest.mark.parametrize("writer", [True, False], ids=["writer", "compact"])
    def test_a_plain_container_is_cut_with_few_parses(self, tmp_path, monkeypatch, writer, nobody):
        """1,000 documents cost one parse for each distinct remainder and document between arrays,
        and none of the whole container."""
        rng = np.random.default_rng(5)
        frames = np.concatenate([rng.normal(size=(1000, 4, 2)), rng.random((1000, 4, 1))], axis=2)
        if writer:
            docs = [b'{"people": []}' if t in nobody else serialize_keypoint_frame(frame)
                    for t, frame in enumerate(frames)]
        else:
            docs = [OPENPOSE_NOBODY if t in nobody else OPENPOSE_PERSON % ",".join(
                "%.3f" % v for v in frame.ravel()).encode() for t, frame in enumerate(frames)]
        path = write_container(tmp_path / "clip.json", docs, b", " if writer else b",")
        assert paths_agree(path) == 0
        calls = []
        load_json = pose._load_json
        monkeypatch.setattr(pose, "_load_json", lambda raw, what: calls.append(raw) or load_json(raw, what))
        seq = load_sequence(path, fps=30.0)
        assert len(calls) == 1 + bool(nobody)  # the remainder, and the document of nobody
        assert path.read_bytes() not in calls
        if writer:  # whose floats load back bit-exactly
            seen = np.setdiff1d(np.arange(1000), nobody)
            assert seq.positions[seen].tobytes() == frames[seen, :, :2].tobytes()

    @pytest.mark.parametrize("doc", [
        b'{"people":[{"pose_keypoints_2d":[-0,2,0.5]}]}',
        b'{"people":[{"pose_keypoints_2d":[1,\n2,\n0.5]}]}',
        b'{"people":[{"pose_keypoints_2d":[9223372036854775808,2,0.5]}]}',
    ], ids=["minus zero", "pretty-printed array", "2**63"])
    def test_a_refused_array_is_parsed_with_its_document_alone(self, tmp_path, monkeypatch, doc):
        """An array the byte check or loadtxt refuses costs one parse of its document, as a refused
        frame file does; the other arrays still take the cut."""
        docs = [b'{"people":[{"pose_keypoints_2d":[%d,2,0.5]}]}' % t for t in range(6)]
        docs[3] = doc
        path = write_container(tmp_path / "clip.json", docs)
        assert paths_agree(path) == 0
        opened, parsed = [], []
        os_open, load_json = pose.os.open, pose._load_json
        monkeypatch.setattr(pose.os, "open", lambda *a: opened.append(a[0]) or os_open(*a))
        monkeypatch.setattr(pose, "_load_json", lambda raw, what: parsed.append(raw) or load_json(raw, what))
        seq = load_sequence(path, fps=30.0)
        assert seq.positions[[0, 1, 2, 4, 5], 0, 0].tolist() == [0, 1, 2, 4, 5]
        assert opened == [path] and parsed == [b'{"people":[{"pose_keypoints_2d":[]}]}', doc]

    @pytest.mark.parametrize("frame, indent", [(3, None), (0, None), (None, 1), (None, "\t")],
                             ids=["bystander", "pretty-printed first array", "indented", "tab-indented"])
    def test_a_container_the_cut_refuses_costs_one_whole_parse(self, tmp_path, monkeypatch, frame, indent):
        """A bystander, whose document holds two arrays, sends the container to one whole parse. So does
        a pretty-printed first array, and then nothing else is parsed: the cut refuses the container
        before it splits it."""
        docs = [b'{"people":[{"pose_keypoints_2d":[%d,2,0.5]}]}' % t for t in range(6)]
        if frame == 3:
            docs[3] = b'{"people":[{"pose_keypoints_2d":[1,2,0.5]},{"pose_keypoints_2d":[3,4,0.5]}]}'
        elif frame == 0:
            docs[0] = b'{"people":[{"pose_keypoints_2d":[0,\n2,\n0.5]}]}'
        path = write_container(tmp_path / "clip.json", docs)
        if indent is not None:
            path.write_text(json.dumps(json.loads(path.read_bytes()), indent=indent))
        assert paths_agree(path) == 1
        opened, parsed = [], []
        os_open, load_json = pose.os.open, pose._load_json
        monkeypatch.setattr(pose.os, "open", lambda *a: opened.append(a[0]) or os_open(*a))
        monkeypatch.setattr(pose, "_load_json", lambda raw, what: parsed.append(raw) or load_json(raw, what))
        load_sequence(path, fps=30.0)
        assert opened == [path] and parsed[-1] == path.read_bytes()
        assert frame == 3 or parsed == [path.read_bytes()]

    @pytest.mark.parametrize("raw", [
        b"[]", b"[{}]", b'[{"people":[]}]', b'[{"people":[]},{"people":[]}]',
        b"[%s,]" % PERSON, b"[%s,%s" % (PERSON, PERSON), b"[%s,%s]]" % (PERSON, PERSON),
        b"[%s,%s\v]" % (PERSON, PERSON), b"[%s\f,%s]" % (PERSON, PERSON),
        b'[%s,{"people":[{"pose_keypoints_2d":[1,2,0.5]' % PERSON,
        b"\xef\xbb\xbf[%s,%s]" % (PERSON, PERSON),
        b'[%s,%s,"x":"\xff"}]' % (PERSON, PERSON[:-1]),
        b'[%s,%s,"x":"\\""}]' % (PERSON, PERSON[:-1]),
        b'[%s,"x":"},{"},%s]' % (PERSON[:-1], PERSON),
        b'[%s,"x":{"pose_keypoints_2d":[1,2,0.5]}},%s]' % (PERSON[:-1], PERSON),
        b"[%s,1,%s]" % (PERSON, PERSON),
        b'[1,{"people":[]},%s,%s]' % (PERSON, PERSON),
        b"[%s,{\0%s]" % (PERSON, PERSON[1:]),
        b'[%s,{"people":[],"deep":%s}]' % (PERSON, DEEP),
        b"[%s,%s],{}" % (PERSON, PERSON),
    ], ids=["empty", "no people", "nobody", "nobody twice", "trailing comma", "not closed",
            "second close", "vertical tab", "form feed", "array not closed", "BOM", "not UTF-8",
            "backslash", "split in a string", "two arrays in a document", "not an object",
            "not an object first", "NUL after a brace", "deep nesting", "trailing garbage"])
    def test_a_container_the_cut_cannot_stand_for_is_parsed_whole(self, tmp_path, raw):
        path = tmp_path / "clip.json"
        path.write_bytes(raw)
        assert paths_agree(path) in (None, 1)


class TestInterpolateMissing:
    def test_linear_midpoint(self):
        pos = np.array([[[0.0, 0.0]], [[9.0, 9.0]], [[2.0, 2.0]]])
        conf = np.array([[1.0], [0.0], [1.0]])
        seq = PoseSequence(pos, fps=30.0, confidence=conf)
        filled = interpolate_missing(seq)
        assert filled.positions[1, 0, 0] == 1.0
        assert filled.positions[1, 0, 1] == 1.0

    def test_constant_extension_at_edges(self):
        pos = np.zeros((4, 1, 2))
        pos[2, 0] = (5.0, 5.0)
        conf = np.array([[0.0], [0.0], [1.0], [0.0]])
        seq = PoseSequence(pos, fps=30.0, confidence=conf)
        filled = interpolate_missing(seq)
        for t in (0, 1, 3):
            assert filled.positions[t, 0, 0] == 5.0
            assert filled.positions[t, 0, 1] == 5.0

    def test_all_missing_joint_is_unrecoverable(self):
        conf = np.zeros((3, 2))
        conf[:, 0] = 1.0
        seq = PoseSequence(np.zeros((3, 2, 2)), fps=30.0, confidence=conf)
        with pytest.raises(ContractViolationError, match="^joint 1 is missing in every frame$"):
            interpolate_missing(seq)

    def test_no_missing_keypoints_after_fill(self):
        rng = np.random.default_rng(7)
        pos = rng.normal(size=(20, 3, 2))
        conf = (rng.random((20, 3)) > 0.4).astype(float)
        conf[0, :] = 1.0  # keep every joint observable
        seq = PoseSequence(pos, fps=30.0, confidence=conf)
        filled = interpolate_missing(seq)
        assert (filled.confidence > 0).all()

    def test_idempotent(self):
        rng = np.random.default_rng(11)
        pos = rng.normal(size=(15, 4, 2))
        conf = (rng.random((15, 4)) > 0.5).astype(float)
        conf[3, :] = 1.0
        seq = PoseSequence(pos, fps=30.0, confidence=conf)
        once = interpolate_missing(seq)
        twice = interpolate_missing(once)
        assert np.array_equal(once.positions, twice.positions)
        assert np.array_equal(once.confidence, twice.confidence)


GAP_PATTERNS = ("none", "random", "leading", "trailing", "both edges", "observed once", "alternating", "never")


@st.composite
def gapped_sequences(draw):
    """A sequence whose joints each take a drawn gap pattern, with coordinates at a drawn magnitude
    from 1e-3 to 1e6, and the joints that are never observed."""
    frames, joints = draw(st.integers(2, 30)), draw(st.integers(1, 4))
    scale = draw(st.floats(1e-3, 1e6))
    coordinate = st.floats(-1.0, 1.0) | st.just(-0.0)  # a trailing gap after -0.0 fills with -0.0
    pos = draw(arrays(np.float64, (frames, joints, 2), elements=coordinate)) * scale
    conf = draw(arrays(np.float64, (frames, joints), elements=st.floats(0.0, 1.0, exclude_min=True)))
    observed = np.ones((frames, joints), dtype=bool)
    for j in range(joints):
        pattern = draw(st.sampled_from(GAP_PATTERNS))
        first, last = sorted(draw(st.lists(st.integers(0, frames - 1), min_size=2, max_size=2)))
        if pattern == "random":
            observed[:, j] = draw(arrays(np.bool_, frames))
            observed[first, j] = True
        if pattern in ("leading", "both edges"):
            observed[:first, j] = False
        if pattern in ("trailing", "both edges"):
            observed[last + 1 :, j] = False
        if pattern == "observed once":
            observed[:, j] = np.arange(frames) == first
        if pattern == "alternating":
            observed[first % 2 :: 2, j] = False
        if pattern == "never":
            observed[:, j] = False
    never = np.flatnonzero(~observed.any(axis=0)).tolist()
    return PoseSequence(pos, fps=30.0, confidence=np.where(observed, conf, 0.0)), never


def gap_fill(fill, seq):
    """The filled arrays as bytes, or the text of the ContractViolationError that refuses a joint."""
    try:
        filled = fill(seq)
    except ContractViolationError as exc:
        return str(exc)
    return filled.positions.tobytes(), filled.confidence.tobytes()


class TestGapFillOracle:
    """interpolate_missing against one ``np.interp`` per gapped joint and channel, the oracle."""

    @given(gapped_sequences())
    @settings(deadline=None)
    def test_matches_the_per_joint_interp_loop(self, case):
        seq, never = case
        got = gap_fill(interpolate_missing, seq)
        assert got == gap_fill(interp_loop, seq)
        if never:  # the lowest joint that no frame observes
            assert got == f"joint {never[0]} is missing in every frame"

    def test_a_fill_that_overflows_is_refused_without_a_warning(self):
        pos = np.zeros((3, 1, 2))
        pos[0], pos[2] = 1.5e308, -1.5e308
        seq = PoseSequence(pos, fps=30.0, confidence=np.array([[1.0], [0.0], [1.0]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for fill in (interpolate_missing, interp_loop):
                with pytest.raises(ValueError, match="coordinates must be finite"):
                    fill(seq)


class TestNormalizeSequence:
    def build(self, joints):
        # Two identical frames so the torso median equals the per-frame distance.
        pos = np.array([joints, joints], dtype=float)
        return PoseSequence(pos, fps=30.0)

    def test_hand_computed_example(self):
        seq = self.build([[100.0, 200.0], [100.0, 150.0], [110.0, 200.0]])
        out = normalize_sequence(seq, root=0, neck=1)
        frame = out.positions[0]
        assert (frame[0, 0], frame[0, 1]) == (0.0, 0.0)
        assert frame[2, 0] == pytest.approx(0.2, abs=1e-12)
        assert frame[2, 1] == 0.0

    def test_idempotent_on_normalized_input(self):
        seq = self.build([[0.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
        out = normalize_sequence(seq, root=0, neck=1)
        again = normalize_sequence(out, root=0, neck=1)
        assert np.array_equal(out.positions, again.positions)

    @pytest.mark.parametrize("root,neck", [(3, 1), (0, -1)])
    def test_root_or_neck_out_of_range(self, root, neck):
        seq = self.build([[0.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
        with pytest.raises(ValueError, match=rf"root/neck indices \({root}, {neck}\) out of range for 3 joints"):
            normalize_sequence(seq, root=root, neck=neck)

    def test_degenerate_pose(self):
        seq = self.build([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(ContractViolationError,
                           match="^median root-to-neck distance 0 is too small to scale against$"):
            normalize_sequence(seq, root=0, neck=1)

    def test_overflow_names_its_first_frame_and_joint_and_warns_nothing(self):
        pos = np.array([[[1.0, 2.0], [1.0, 3.0], [1.0, 4.0]]] * 3)
        pos[1:, 0, 0], pos[1:, 2, 0] = 1.5e308, -1.5e308  # frames 1 and 2: joint 2 centers to -inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^frame 1, joint 2: the normalized coordinates overflow; "
                                                 "keypoint coordinates must be finite$"):
                normalize_sequence(PoseSequence(pos, fps=30.0), root=0, neck=1)

    def test_a_torso_scale_that_overflows_names_its_first_frame_and_warns_nothing(self):
        pos = np.array([[[0.0, 0.0], [1.0, 1.0], [0.5, 0.5]]] * 4)
        pos[1:, 1] = 1e308  # frames 1-3: the root-to-neck distance overflows, the centered neck does not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^frame 1: the root-to-neck distance overflows; "
                                                 "keypoint coordinates must be finite$"):
                normalize_sequence(PoseSequence(pos, fps=30.0), root=0, neck=1)

    @given(
        scale=st.floats(0.01, 100.0, allow_nan=False),
        tx=st.floats(-500.0, 500.0, allow_nan=False),
        ty=st.floats(-500.0, 500.0, allow_nan=False),
    )
    @settings(max_examples=50)
    def test_invariant_under_similarity_transform(self, scale, tx, ty):
        rng = np.random.default_rng(5)
        pos = rng.normal(scale=50.0, size=(6, 4, 2)) + 200.0
        seq = PoseSequence(pos, fps=30.0)
        base = normalize_sequence(seq, root=0, neck=1)
        moved = PoseSequence(pos * scale + np.array([tx, ty]), fps=30.0)
        transformed = normalize_sequence(moved, root=0, neck=1)
        assert np.allclose(base.positions, transformed.positions, atol=1e-9)


class TestSequenceInvariants:
    def test_arrays_are_read_only_copies(self):
        pos = np.zeros((3, 2, 2))
        seq = PoseSequence(pos, fps=30.0)
        pos[0, 0, 0] = 9.0
        assert seq.positions[0, 0, 0] == 0.0 and pos.flags.writeable
        assert (seq.confidence == 1.0).all()
        for array in (seq.positions, seq.confidence):
            with pytest.raises(ValueError):
                array[0, 0] = 1.0

    @pytest.mark.parametrize("positions,confidence,fps", [
        (np.full((3, 2, 2), np.nan), None, 30.0),
        (np.zeros((3, 2, 2)), np.full((3, 2), 1.5), 30.0),
        (np.zeros((3, 2, 2)), np.full((3, 2), np.nan), 30.0),
        (np.zeros((3, 2, 2)), np.ones((3, 3)), 30.0),
        (np.zeros((3, 2, 3)), None, 30.0),
        (np.zeros((3, 2, 2)), None, 0.0),
        (np.zeros((3, 0, 2)), None, 30.0),  # no joints
    ])
    def test_invalid_arrays_rejected(self, positions, confidence, fps):
        with pytest.raises(ValueError):
            PoseSequence(positions, fps=fps, confidence=confidence)

    def test_sequence_needs_two_frames(self):
        with pytest.raises(ValueError):
            PoseSequence(np.zeros((1, 2, 2)), fps=30.0)

    def test_csv_table_bytes(self, tmp_path):
        positions = np.array([[[0.0, 0.1], [1 / 3, -2.5e-300]], [[1e22, -0.0], [7.0, 5e-324]]])
        write_sequence_csv(PoseSequence(positions, fps=30.0), tmp_path / "seq.csv")
        expected = "frame,joint,x,y\n" + "".join(
            f"{t},{j},{float(positions[t, j, 0])!r},{float(positions[t, j, 1])!r}\n"
            for t in range(2) for j in range(2))
        assert (tmp_path / "seq.csv").read_text() == expected

    def test_csv_export(self, tmp_path):
        seq = PoseSequence(np.arange(8, dtype=float).reshape(2, 2, 2), fps=30.0)
        path = tmp_path / "seq.csv"
        write_sequence_csv(seq, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "frame,joint,x,y"
        assert lines[1] == "0,0,0.0,1.0"
        assert len(lines) == 1 + 4
