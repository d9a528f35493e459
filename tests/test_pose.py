import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freqgcn import pose
from freqgcn.errors import (
    DegeneratePoseError,
    EmptyInputError,
    FormatError,
    ParseError,
    TopologyMismatchError,
    UnrecoverableJointError,
)
from freqgcn.pose import (
    PoseSequence,
    interpolate_missing,
    load_sequence,
    normalize_sequence,
    parse_keypoint_frame,
    serialize_keypoint_frame,
    write_sequence,
    write_sequence_csv,
)


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
        with pytest.raises(ParseError) as excinfo:
            parse_keypoint_frame(b'{"people": [}')
        assert excinfo.value.offset == 12

    def test_topology_mismatch(self):
        with pytest.raises(TopologyMismatchError):
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
        with pytest.raises(TopologyMismatchError):
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

    def test_non_json_entries_are_skipped(self, tmp_path):
        self.write_frames(tmp_path / "seq", ["f_0.json", "f_1.json"])
        (tmp_path / "seq" / "notes_9.txt").write_text("not a frame")
        (tmp_path / "seq" / "sub_5.json").mkdir()
        seq = load_sequence(tmp_path / "seq", fps=30.0)
        assert seq.positions[:, 0, 0].tolist() == [0.0, 1.0]


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
        with pytest.raises(UnrecoverableJointError) as excinfo:
            interpolate_missing(seq)
        assert excinfo.value.joint == 1

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

    def test_degenerate_pose(self):
        seq = self.build([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(DegeneratePoseError):
            normalize_sequence(seq, root=0, neck=1)

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
    ])
    def test_invalid_arrays_rejected(self, positions, confidence, fps):
        with pytest.raises(ValueError):
            PoseSequence(positions, fps=fps, confidence=confidence)

    def test_sequence_needs_two_frames(self):
        with pytest.raises(ValueError):
            PoseSequence(np.zeros((1, 2, 2)), fps=30.0)

    def test_csv_export(self, tmp_path):
        seq = PoseSequence(np.arange(8, dtype=float).reshape(2, 2, 2), fps=30.0)
        path = tmp_path / "seq.csv"
        write_sequence_csv(seq, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "frame,joint,x,y"
        assert lines[1] == "0,0,0.0,1.0"
        assert len(lines) == 1 + 4
