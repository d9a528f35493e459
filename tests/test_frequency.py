import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from freqgcn import frequency
from freqgcn.errors import FormatError, InsufficientLengthError
from freqgcn.frequency import (
    BinSpec,
    FrequencyFeatures,
    bin_edges,
    bin_spectrum,
    bin_widths,
    dft_naive,
    extract_features,
    fft_bluestein,
    magnitude_half_spectrum,
    read_features_csv,
    required_min_frames,
    unpack_real_pair,
    write_features_csv,
)
from freqgcn.pose import PoseSequence


class TestDftNaive:
    def test_constant_signal(self):
        assert np.allclose(dft_naive([1, 1, 1, 1]), [4, 0, 0, 0], atol=1e-12)

    def test_impulse(self):
        assert np.allclose(dft_naive([1, 0, 0, 0]), [1, 1, 1, 1], atol=1e-12)

    def test_four_point_hand_evaluation(self):
        assert np.allclose(dft_naive([0, 1, 0, -1]), [0, -2j, 0, 2j], atol=1e-12)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            dft_naive([1.0, np.nan, 0.0])


class TestFftBluestein:
    @pytest.mark.parametrize("signal", [[1, 1, 1, 1], [1, 0, 0, 0], [0, 1, 0, -1]])
    def test_matches_oracle_on_examples(self, signal):
        assert np.allclose(fft_bluestein(signal), dft_naive(signal), atol=1e-9)

    @pytest.mark.parametrize("length", [1, 2, 3, 5, 17, 97, 251, 1000])
    def test_matches_oracle_on_random_signals(self, length):
        rng = np.random.default_rng(length)
        x = rng.normal(size=length) + 1j * rng.normal(size=length)
        assert np.max(np.abs(fft_bluestein(x) - dft_naive(x))) < 1e-9

    def test_linearity(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=40)
        y = rng.normal(size=40)
        mixed = fft_bluestein(2.5 * x - 1.25 * y)
        assert np.max(np.abs(mixed - (2.5 * fft_bluestein(x) - 1.25 * fft_bluestein(y)))) < 1e-9

    @pytest.mark.parametrize("length", [4, 37, 128, 509])
    def test_parseval(self, length):
        rng = np.random.default_rng(length)
        x = rng.normal(size=length)
        spectrum = fft_bluestein(x)
        time_energy = np.sum(np.abs(x) ** 2)
        freq_energy = np.sum(np.abs(spectrum) ** 2) / length
        assert freq_energy == pytest.approx(time_energy, rel=1e-6)

    @given(st.integers(1, 64), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_oracle_equivalence_property(self, length, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=length) + 1j * rng.normal(size=length)
        assert np.max(np.abs(fft_bluestein(x) - dft_naive(x))) < 1e-9


class TestBatchedFftBluestein:
    """The batched transform against the direct DFT, one row at a time."""

    @pytest.mark.parametrize("batch", [(), (3,), (5, 2)])
    @pytest.mark.parametrize("length", list(range(1, 65)) + [1009, 2003])
    def test_rows_match_oracle(self, length, batch):
        rng = np.random.default_rng([length, len(batch)])
        shape = batch + (length,)
        x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        got = fft_bluestein(x)
        assert got.shape == shape
        rows = x.reshape(-1, length)
        for row, spectrum in zip(rows, got.reshape(-1, length)):
            assert np.max(np.abs(spectrum - dft_naive(row))) < 1e-9

    @pytest.mark.parametrize("length", [1, 2, 3, 5, 17, 64, 97, 1000, 1009])
    def test_two_for_one_unpacking_matches_separate_transforms(self, length):
        rng = np.random.default_rng(length)
        x = rng.normal(size=(4, length))
        y = rng.normal(size=(4, length))
        spec_x, spec_y = unpack_real_pair(fft_bluestein(x + 1j * y))
        assert np.max(np.abs(spec_x - fft_bluestein(x))) < 1e-12
        assert np.max(np.abs(spec_y - fft_bluestein(y))) < 1e-12

    def test_per_length_cache_stays_bounded(self):
        for length in range(300, 400):
            fft_bluestein(np.ones(length))
        for plan in (frequency._chirp_plan, frequency._pow2_plan):
            info = plan.cache_info()
            assert info.maxsize is not None
            assert info.currsize <= info.maxsize

    def test_cached_plans_are_read_only(self):
        fft_bluestein(np.ones(37))
        chirp, kernel = frequency._chirp_plan(37)
        with pytest.raises(ValueError):
            kernel[0] = 0.0
        assert fft_bluestein(np.ones(37))[0] == pytest.approx(37.0)


class TestMagnitudeHalfSpectrum:
    def test_constant(self):
        assert np.allclose(magnitude_half_spectrum(dft_naive([1, 1, 1, 1])), [4, 0, 0])

    def test_impulse(self):
        assert np.allclose(magnitude_half_spectrum(dft_naive([1, 0, 0, 0])), [1, 1, 1])

    def test_alternating(self):
        assert np.allclose(magnitude_half_spectrum(dft_naive([0, 1, 0, -1])), [0, 2, 0])

    @pytest.mark.parametrize("length,expected", [(1, 1), (2, 2), (5, 3), (8, 5)])
    def test_output_length(self, length, expected):
        assert magnitude_half_spectrum(np.ones(length, dtype=complex)).shape == (expected,)


class TestBinWidths:
    def test_reference_layout(self):
        # Direct evaluation of the growth rule: the switch to Ceiling
        # first fires at n=8 where 1.15**8 = 3.059.
        assert bin_widths(BinSpec(c=1.15, num_bins=10)) == [1, 1, 1, 2, 2, 2, 2, 3, 4, 4]

    def test_near_one_growth(self):
        assert bin_widths(BinSpec(c=1.000001, num_bins=5)) == [1, 1, 1, 1, 1]

    def test_doubling_growth(self):
        assert bin_widths(BinSpec(c=2.0, num_bins=4)) == [1, 2, 4, 8]

    @given(st.floats(1.0, 3.0, exclude_min=True), st.integers(1, 24))
    @settings(max_examples=200)
    def test_non_decreasing_and_positive(self, c, num_bins):
        widths = bin_widths(BinSpec(c=c, num_bins=num_bins))
        assert all(w >= 1 for w in widths)
        assert all(b >= a for a, b in zip(widths, widths[1:]))

    @given(st.floats(1.0, 3.0, exclude_min=True), st.integers(1, 24))
    @settings(max_examples=100)
    def test_ceiling_dominates_past_threshold(self, c, num_bins):
        spec = BinSpec(c=c, num_bins=num_bins)
        for n, width in enumerate(bin_widths(spec)):
            grown = frequency.F0 * c**n
            if grown >= frequency.THRESHOLD:
                assert width >= grown

    @pytest.mark.parametrize("c,num_bins", [(1e300, 10), (1.15, 10**6)])
    def test_growth_that_overflows_is_rejected(self, c, num_bins):
        with pytest.raises(ValueError, match="overflows"):
            BinSpec(c=c, num_bins=num_bins)

    def test_growth_parameter_must_exceed_one(self):
        with pytest.raises(ValueError):
            BinSpec(c=1.0, num_bins=4)

    @pytest.mark.parametrize("c", [float("nan"), float("inf")])
    def test_growth_parameter_must_be_finite(self, c):
        with pytest.raises(ValueError, match="finite"):
            BinSpec(c=c, num_bins=4)


class TestBinSpectrum:
    def test_hand_computed_means(self):
        # widths [1, 2]: DC skipped, trailing index 4 discarded.
        spec = BinSpec(c=2.0, num_bins=2)
        binned = bin_spectrum(np.array([9.0, 1.0, 2.0, 3.0, 4.0]), spec)
        assert np.allclose(binned, [1.0, 2.5])
        assert bin_edges(spec) == [1, 2, 4]

    def test_all_zero_magnitudes(self):
        binned = bin_spectrum(np.zeros(8), BinSpec(c=2.0, num_bins=2))
        assert np.array_equal(binned, [0.0, 0.0])

    def test_exact_fit_discards_nothing(self):
        mags = np.arange(4, dtype=float)  # widths [1, 2] end exactly at len-1
        spec = BinSpec(c=2.0, num_bins=2)
        binned = bin_spectrum(mags, spec)
        assert bin_edges(spec)[-1] == len(mags)
        assert np.allclose(binned, [1.0, 2.5])

    def test_too_short_reports_required_frames(self):
        spec = BinSpec(c=2.0, num_bins=3)  # widths [1, 2, 4], needs 8 values
        with pytest.raises(InsufficientLengthError) as excinfo:
            bin_spectrum(np.zeros(7), spec)
        assert excinfo.value.required_frames == required_min_frames(spec) == 14

    @given(st.floats(1.0, 2.5, exclude_min=True), st.integers(1, 12))
    @settings(max_examples=100)
    def test_ranges_partition_without_gap_or_overlap(self, c, num_bins):
        spec = BinSpec(c=c, num_bins=num_bins)
        edges = bin_edges(spec)
        assert edges[0] == 1
        covered = [idx for b in range(num_bins) for idx in range(edges[b], edges[b + 1])]
        assert covered == list(range(1, edges[-1]))


class TestExtractFeatures:
    def tone_sequence(self, peak_index, frames=64, joints=3, joint=1, fps=30.0, amp=1.0):
        t = np.arange(frames)
        pos = np.zeros((frames, joints, 2))
        pos[:, joint, 0] = amp * np.sin(2 * np.pi * peak_index * t / frames)
        return PoseSequence(pos + 10.0, fps=fps)

    def test_static_pose_gives_zero_features(self):
        seq = PoseSequence(np.full((40, 2, 2), 7.5), fps=30.0)
        features = extract_features(seq, BinSpec(c=2.0, num_bins=3))
        assert np.allclose(features.data, 0.0, atol=1e-12)

    def test_single_tone_concentrates_in_its_bin(self):
        spec = BinSpec(c=2.0, num_bins=3)  # edges [1, 2, 4, 8]
        seq = self.tone_sequence(peak_index=2, joint=1)
        features = extract_features(seq, spec)
        hot = features.data[1, 1, 0]
        assert hot > 1.0
        rest = features.data.copy()
        rest[1, 1, 0] = 0.0
        assert np.abs(rest).max() <= 1e-9

    def test_translation_invariance(self):
        rng = np.random.default_rng(2)
        pos = rng.normal(size=(50, 2, 2))
        spec = BinSpec(c=2.0, num_bins=3)
        a = extract_features(PoseSequence(pos, fps=30.0), spec)
        b = extract_features(PoseSequence(pos + 123.456, fps=30.0), spec)
        assert np.allclose(a.data, b.data, atol=1e-9)

    def test_short_sequence_raises_with_requirement(self):
        seq = PoseSequence(np.random.default_rng(0).normal(size=(6, 2, 2)), fps=30.0)
        spec = BinSpec(c=2.0, num_bins=3)
        with pytest.raises(InsufficientLengthError) as excinfo:
            extract_features(seq, spec)
        assert excinfo.value.required_frames == 14

    def test_feature_shape_and_edges(self):
        seq = self.tone_sequence(peak_index=3, frames=100, joints=4)
        spec = BinSpec(c=1.15, num_bins=10)
        features = extract_features(seq, spec)
        assert features.data.shape == (4, 10, 2)
        assert features.spec == spec
        assert bin_edges(features.spec) == [1, 2, 3, 4, 6, 8, 10, 12, 15, 19, 23]
        assert features.fps == 30.0


class TestFeatureCsvRoundTrip:
    def test_round_trip_preserves_everything(self, tmp_path):
        seq = TestExtractFeatures().tone_sequence(peak_index=5, frames=80, joints=3)
        spec = BinSpec(c=1.5, num_bins=4)
        features = extract_features(seq, spec)
        path = tmp_path / "features.csv"
        write_features_csv(features, path)
        loaded, loaded_spec = read_features_csv(path)
        assert np.array_equal(loaded.data, features.data)
        assert bin_edges(loaded.spec) == bin_edges(features.spec)
        assert loaded.fps == features.fps
        assert loaded_spec == spec

    @given(
        c=st.floats(1.0, 3.0, exclude_min=True),
        num_bins=st.integers(1, 12),
        num_joints=st.integers(1, 6),
        fps=st.floats(1e-3, 1e3),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_write_then_read_is_bit_exact(self, tmp_path_factory, c, num_bins, num_joints, fps,
                                          data):
        values = data.draw(arrays(np.float64, (num_joints, num_bins, 2),
                                  elements=st.floats(0.0, 1e300)))
        spec = BinSpec(c=c, num_bins=num_bins)
        path = tmp_path_factory.mktemp("round") / "f.csv"
        write_features_csv(FrequencyFeatures(data=values, spec=spec, fps=fps), path)
        loaded, loaded_spec = read_features_csv(path)
        assert loaded.data.tobytes() == values.tobytes()
        assert loaded.spec == loaded_spec == spec
        assert loaded.fps == fps

    def test_data_must_have_the_spec_bin_count(self):
        with pytest.raises(ValueError, match="bins"):
            FrequencyFeatures(data=np.zeros((2, 4, 2)), spec=BinSpec(c=2.0, num_bins=3), fps=30.0)

    def test_row_count_contract(self, tmp_path):
        seq = TestExtractFeatures().tone_sequence(peak_index=2, frames=60, joints=3)
        spec = BinSpec(c=1.3, num_bins=5)
        write_features_csv(extract_features(seq, spec), tmp_path / "f.csv")
        rows = (tmp_path / "f.csv").read_text().splitlines()
        assert len(rows) == 1 + 3 * 5 * 2


class TestFeatureSidecar:
    """A defective sidecar is a FormatError, never a raw exception."""

    @pytest.fixture()
    def written(self, tmp_path):
        seq = TestExtractFeatures().tone_sequence(peak_index=2, frames=60, joints=3)
        spec = BinSpec(c=1.3, num_bins=5)
        path = tmp_path / "f.csv"
        write_features_csv(extract_features(seq, spec), path)
        return path

    @pytest.mark.parametrize("edit,message", [
        (lambda meta: "{not json", "invalid JSON"),
        (lambda meta: {k: v for k, v in meta.items() if k != "fps"}, "missing keys"),
        (lambda meta: {**meta, "num_bins": "x"}, "positive integers"),
        (lambda meta: {**meta, "bin_edges": [1, 2]}, "bin_edges"),
        (lambda meta: {**meta, "fps": "abc"}, "fps"),
        (lambda meta: {**meta, "bin_edges": [1, 2, 3, 4, 5, 7]}, "bin_edges"),
        (lambda meta: {**meta, "c": 0.5}, "growth parameter"),
        (lambda meta: {**meta, "c": 1e300}, "overflows"),
        (lambda meta: {**meta, "num_joints": 10**12}, "missing rows"),
        (lambda meta: {**meta, "num_bins": 10**12}, "overflows"),
        (lambda meta: {**meta, "num_bins": 10**12, "c": 1.0 + 1e-15}, "bin_edges"),
        (lambda meta: {**meta, "c": 10**400}, "finite number"),
        (lambda meta: {**meta, "fps": 10**400}, "fps"),
        (lambda meta: {**meta, "bin_edges": None}, "bin_edges"),
        (lambda meta: [meta], "unrecognized"),
    ])
    def test_defect_raises_format_error(self, written, edit, message):
        sidecar = frequency.sidecar_path(written)
        edited = edit(json.loads(sidecar.read_text()))
        sidecar.write_text(edited if isinstance(edited, str) else json.dumps(edited))
        with pytest.raises(FormatError, match=message):
            read_features_csv(written)
