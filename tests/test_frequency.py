import cmath
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from freqgcn import frequency
from freqgcn.errors import ContractViolationError, FormatError, InsufficientLengthError
from freqgcn.frequency import (
    BinSpec,
    FrequencyFeatures,
    band_magnitudes,
    bin_edges,
    bin_spectrum,
    bin_widths,
    extract_features,
    fft_bluestein,
    read_features_csv,
    required_min_frames,
    write_features_csv,
)
from freqgcn.pose import PoseSequence
from oracles import dft_naive, magnitude_half_spectrum, unpack_real_pair


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

    def test_rows_transform_one_by_one(self):
        x = np.random.default_rng(4).normal(size=(2, 3, 7))
        rows = np.stack([dft_naive(row) for row in x.reshape(-1, 7)])
        assert np.max(np.abs(dft_naive(x).reshape(-1, 7) - rows)) < 1e-12


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

    # Up to 1,024, so the padded kernel reaches m = 2,048; the profile sets the example count.
    @given(st.integers(1, 1024), st.integers(0, 2**32 - 1))
    @settings(deadline=None)
    def test_oracle_equivalence_property(self, length, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=length) + 1j * rng.normal(size=length)
        assert np.max(np.abs(fft_bluestein(x) - dft_naive(x))) < 1e-9


class TestFourStepKernel:
    """The power-of-two kernel under Bluestein and its phase tables, against independent forms."""

    # Even exponents split m into p = q, odd ones into q = 2p; (2, 3) are leading batch axes.
    @pytest.mark.parametrize("m", [1 << e for e in range(13)])
    def test_forward_and_inverse_match_oracle(self, m):
        rng = np.random.default_rng(m)
        x = rng.normal(size=(2, 3, m)) + 1j * rng.normal(size=(2, 3, m))
        expected = dft_naive(x)
        forward = frequency._fft_pow2(x)
        assert forward.shape == x.shape
        assert np.max(np.abs(forward - expected)) < 1e-9
        # sign=+1 is the inverse without its 1/m, so it takes the oracle's spectrum back to m*x.
        assert np.max(np.abs(frequency._fft_pow2(expected, sign=1.0) / m - x)) < 1e-9

    @pytest.mark.parametrize("m", [7, 1009, 65536])
    def test_phases_reduce_products_far_above_m(self, m):
        rows = np.array([0, 1, 10**6 + 3, 3 * 10**9 + 7])
        cols = np.array([0, 5, 10**6 + 9, 2 * 10**9 + 11])  # products up to 6e18, below 2^63
        for sign in (-1.0, 1.0):
            expected = np.array([[cmath.exp(sign * 2j * cmath.pi * (r * c % m) / m)
                                  for c in cols.tolist()] for r in rows.tolist()])
            assert np.max(np.abs(frequency._phases(rows, cols, m, sign) - expected)) < 1e-12


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


class TestBandMagnitudes:
    """The band transform against the direct DFT, the Bluestein FFT and the pipeline it replaced."""

    # Past 64: a perfect square fills its last block of frames, one past a square pads the most.
    @pytest.mark.parametrize("batch", [(), (3,), (5, 2)])
    @pytest.mark.parametrize("length", list(range(1, 65)) + [97, 961, 962, 1009, 1024, 1025, 2003])
    def test_rows_match_oracle(self, length, batch):
        x = np.random.default_rng([length, len(batch)]).normal(size=batch + (length,))
        expected = np.abs(dft_naive(x))
        for hi in (1, length // 2 + 1):
            got = band_magnitudes(x, hi)
            assert got.shape == batch + (hi,)
            assert np.max(np.abs(got - expected[..., :hi])) < 1e-9

    @given(st.integers(1, 3000), st.integers(0, 2**32 - 1), st.data())
    @settings(deadline=None)
    def test_bluestein_agreement_property(self, length, seed, data):
        hi = data.draw(st.integers(1, length // 2 + 1), label="hi")
        x = np.random.default_rng(seed).normal(size=(2, length))
        assert np.max(np.abs(band_magnitudes(x, hi) - np.abs(fft_bluestein(x))[:, :hi])) < 1e-9

    @pytest.mark.parametrize("signal,hi", [([1.0, 2.0], 0), ([1.0, 2.0], 3), ([1.0, np.inf], 1),
                                           (np.zeros((2, 0)), 1), (1.0, 1)])
    def test_rejects_an_empty_band_or_signal(self, signal, hi):
        with pytest.raises(ValueError):
            band_magnitudes(signal, hi)

    def test_features_match_the_bluestein_pipeline(self):
        """A body25-shaped 1000-frame sequence binned as before: one Bluestein FFT of x + i*y."""
        rng = np.random.default_rng(25)
        seq = PoseSequence(np.cumsum(rng.normal(size=(1000, 25, 2)), axis=0), fps=30.0)
        spec = BinSpec(c=1.15, num_bins=22)
        traj = np.moveaxis(seq.positions, 0, -1)
        traj = traj - traj.mean(axis=-1, keepdims=True)
        spectra = unpack_real_pair(fft_bluestein(traj[:, 0] + 1j * traj[:, 1]))
        binned = bin_spectrum(magnitude_half_spectrum(np.stack(spectra, axis=1)), spec)
        got = extract_features(seq, spec).data
        assert np.max(np.abs(got - np.moveaxis(binned, 1, 2)) / got) < 1e-12


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

    def test_too_short_names_the_frames_it_needs(self):
        spec = BinSpec(c=2.0, num_bins=3)  # widths [1, 2, 4], needs 8 values
        assert required_min_frames(spec) == 14
        with pytest.raises(InsufficientLengthError,
                           match=r"^spectrum has 7 magnitudes but the bins need 8 \(signals must have at least 14 frames\)$"):
            bin_spectrum(np.zeros(7), spec)

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
        with pytest.raises(InsufficientLengthError,
                           match="^sequence has 6 frames but the bin layout needs at least 14$"):
            extract_features(seq, spec)

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

    def test_table_bytes(self, tmp_path):
        data = np.array([0.0, 0.1, 1 / 3, 5e-324, 2.5e300, 7.0]).reshape(1, 3, 2)
        write_features_csv(FrequencyFeatures(data=data, spec=BinSpec(c=2.0, num_bins=3), fps=30.0),
                           tmp_path / "f.csv")
        expected = "joint,bin,channel,value\n" + "".join(
            f"0,{b},{ch},{float(data[0, b, c])!r}\n" for b in range(3) for c, ch in enumerate("xy"))
        assert (tmp_path / "f.csv").read_text() == expected

    @pytest.mark.parametrize("data,message", [
        (np.zeros((2, 3)), r"must be \(N, B, 2\), got \(2, 3\)"),
        (np.zeros((2, 3, 3)), r"must be \(N, B, 2\), got \(2, 3, 3\)"),
        (np.full((2, 3, 2), np.nan), "finite and nonnegative"),
        (np.full((2, 3, 2), np.inf), "finite and nonnegative"),
        (np.full((2, 3, 2), -1.0), "finite and nonnegative"),
    ], ids=["two-axes", "three-channels", "nan", "inf", "negative"])
    def test_data_outside_the_contract_is_rejected(self, data, message):
        with pytest.raises(ContractViolationError, match=message):
            FrequencyFeatures(data=data, spec=BinSpec(c=2.0, num_bins=3), fps=30.0)

    def test_data_must_have_the_spec_bin_count(self):
        with pytest.raises(ValueError, match="bins"):
            FrequencyFeatures(data=np.zeros((2, 4, 2)), spec=BinSpec(c=2.0, num_bins=3), fps=30.0)

    def test_row_count_contract(self, tmp_path):
        seq = TestExtractFeatures().tone_sequence(peak_index=2, frames=60, joints=3)
        spec = BinSpec(c=1.3, num_bins=5)
        write_features_csv(extract_features(seq, spec), tmp_path / "f.csv")
        rows = (tmp_path / "f.csv").read_text().splitlines()
        assert len(rows) == 1 + 3 * 5 * 2


class TestFeatureRows:
    """A defective row is a FormatError naming its line, counted with blank lines and the header."""

    @pytest.fixture()
    def written(self, tmp_path):
        path = tmp_path / "f.csv"  # 2 joints x 2 bins x 2 channels: lines 2-9 hold the 8 cells
        write_features_csv(FrequencyFeatures(data=np.full((2, 2, 2), 0.5), spec=BinSpec(c=1.3, num_bins=2),
                                             fps=30.0), path)
        return path

    @pytest.mark.parametrize("edit,message", [
        (lambda rows: rows[:3] + ["0,1,y,0.5"] + rows[4:], "f.csv:4: expected 0,1,x,<value>: '0,1,y,0.5'"),
        (lambda rows: rows[:3] + ["0,1,x,1,5"] + rows[4:], "f.csv:4: expected 0,1,x,<value>: '0,1,x,1,5'"),
        (lambda rows: rows[:3] + ["0,1,x"] + rows[4:], "f.csv:4: expected 0,1,x,<value>: '0,1,x'"),
        (lambda rows: rows[:3] + ["0,1,x,"] + rows[4:], "f.csv:4: expected 0,1,x,<value>: '0,1,x,'"),
        (lambda rows: rows[:3] + ["0,1,x,nan"] + rows[4:], "f.csv:4: non-finite or negative value in '0,1,x,nan'"),
        (lambda rows: rows[:3] + ["0,1,x,-1.0"] + rows[4:],
         "f.csv:4: non-finite or negative value in '0,1,x,-1.0'"),
        (lambda rows: rows[:1] + ["", ""] + rows[1:3] + ["0,1,y,0.5"] + rows[4:],
         "f.csv:6: expected 0,1,x,<value>: '0,1,y,0.5'"),
        (lambda rows: rows[:2] + [""] + rows[2:3] + ["", "0,1,x,inf"] + rows[4:],
         "f.csv:6: non-finite or negative value in '0,1,x,inf'"),
        (lambda rows: rows[:5] + ["0,2,x,0.5"] + rows[6:], "f.csv:6: expected 1,0,x,<value>: '0,2,x,0.5'"),
        (lambda rows: rows + ["1,1,y,0.5"], "f.csv:10: row past the last cell"),
        (lambda rows: rows + ["", "extra"], "f.csv:11: row past the last cell"),
        (lambda rows: rows[:-1], "f.csv:9: missing rows, 7 of 8"),
    ])
    def test_first_row_at_fault_is_named(self, written, edit, message):
        written.write_text("\n".join(edit(written.read_text().splitlines())) + "\n")
        with pytest.raises(FormatError) as raised:
            read_features_csv(written)
        assert str(raised.value) == message

    def test_blank_lines_between_rows_are_skipped(self, written):
        rows = written.read_text().splitlines()
        written.write_text("\n".join(rows[:1] + [""] + rows[1:5] + ["", ""] + rows[5:]) + "\n\n")
        assert np.array_equal(read_features_csv(written)[0].data, np.full((2, 2, 2), 0.5))


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
        (lambda meta: {k: v for k, v in meta.items() if k != "f0"}, r"missing keys \['f0'\]"),
        (lambda meta: {**meta, "f0": 2.0}, "f.csv.meta.json: f0 must be 1.0, got 2.0$"),
        (lambda meta: {**meta, "f0": True}, "f.csv.meta.json: f0 must be 1.0, got True$"),
        (lambda meta: {**meta, "threshold": 9.0}, "f.csv.meta.json: threshold must be 3.0, got 9.0$"),
        (lambda meta: {**meta, "channels": ["q", "r"]},
         r"f.csv.meta.json: channels must be \['x', 'y'\], got \['q', 'r'\]$"),
    ])
    def test_defect_raises_format_error(self, written, edit, message):
        sidecar = frequency.sidecar_path(written)
        edited = edit(json.loads(sidecar.read_text()))
        sidecar.write_text(edited if isinstance(edited, str) else json.dumps(edited))
        with pytest.raises(FormatError, match=message):
            read_features_csv(written)
