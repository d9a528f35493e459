import numpy as np
import pytest

from freqgcn.errors import AliasingConfigError, ContractViolationError
from freqgcn.frequency import BinSpec, bin_edges, dft_naive, extract_features
from freqgcn.graph import builtin_topology
from freqgcn.pose import interpolate_missing, load_sequence, normalize_sequence
from freqgcn.synthetic import (
    SynthConfig,
    generate_dataset,
    generate_sequence,
    read_manifest,
    rest_pose,
    write_dataset,
)


class TestSynthConfig:
    def test_band_reaching_nyquist_is_aliasing_error(self):
        with pytest.raises(AliasingConfigError):
            SynthConfig(fps=30.0, class1_band=(3.0, 15.0))

    def test_overlapping_bands_rejected(self):
        with pytest.raises(ValueError, match="disjoint"):
            SynthConfig(class0_band=(0.5, 3.5), class1_band=(3.0, 4.0))

    def test_signal_joint_out_of_range(self):
        with pytest.raises(ValueError, match="signal joints"):
            SynthConfig(topology="toy5", signal_joints=(1, 9))

    def test_empty_signal_joints(self):
        with pytest.raises(ValueError):
            SynthConfig(signal_joints=())


class TestGenerateSequence:
    def test_all_motion_off_gives_rest_pose(self):
        cfg = SynthConfig(num_frames=50, noise_sigma=0.0, amplitude=1e-12)
        seq = generate_sequence(cfg, label=0, seed=1)
        rest = rest_pose(builtin_topology("toy5"))
        # Only the signal joints still carry the (negligible) oscillation.
        still = [j for j in range(5) if j not in cfg.signal_joints]
        assert np.allclose(seq.positions[:, still], rest[still], atol=1e-9)

    def test_deterministic_per_seed_triple(self):
        cfg = SynthConfig(num_frames=60)
        a = generate_sequence(cfg, label=1, seed=7)
        b = generate_sequence(cfg, label=1, seed=7)
        assert np.array_equal(a.positions, b.positions)

    def test_different_seed_changes_sequence(self):
        cfg = SynthConfig(num_frames=60)
        a = generate_sequence(cfg, label=1, seed=7)
        b = generate_sequence(cfg, label=1, seed=8)
        assert not np.array_equal(a.positions, b.positions)

    def test_spectrum_peak_falls_in_band_index_range(self):
        cfg = SynthConfig(num_frames=300, fps=30.0, noise_sigma=0.0, class1_band=(3.0, 4.0))
        seq = generate_sequence(cfg, label=1, seed=3)
        pos = seq.positions
        for joint in cfg.signal_joints:
            x = pos[:, joint, 0]
            spectrum = np.abs(dft_naive(x - x.mean()))[: len(x) // 2 + 1]
            peak = int(np.argmax(spectrum[1:])) + 1
            assert 30 <= peak <= 40  # round(f * T / fps) for f in [3, 4] Hz

    def test_noiseless_energy_stays_in_band(self):
        cfg = SynthConfig(num_frames=200, fps=30.0, noise_sigma=0.0)
        seq = generate_sequence(cfg, label=0, seed=11)
        pos = seq.positions
        k_lo, k_hi = 4, 10  # [0.5, 1.5] Hz at T=200, fps=30
        for joint in cfg.signal_joints:
            x = pos[:, joint, 0]
            spectrum = np.abs(dft_naive(x - x.mean()))[:101]
            in_band = np.sum(spectrum[k_lo : k_hi + 1] ** 2)
            total = np.sum(spectrum**2)
            assert total - in_band < 1e-6 * in_band

    def test_generated_sequences_pass_ingest_validation(self, tmp_path):
        cfg = SynthConfig(num_frames=40, topology="body25", signal_joints=(4, 7))
        seq = generate_sequence(cfg, label=0, seed=2)
        assert len(seq) == 40
        assert seq.num_joints == 25
        assert (seq.confidence > 0).all()
        filled = interpolate_missing(seq)  # no-op on complete data
        topo = builtin_topology("body25")
        normalized = normalize_sequence(filled, topo.root, topo.neck)
        assert normalized.num_joints == 25


class TestGenerateDataset:
    def test_split_arithmetic(self):
        cfg = SynthConfig(num_frames=40)
        dataset = generate_dataset(cfg, n_per_class=30, seed=0)
        assert len(dataset.samples) == 60
        assert len(dataset.train) == 40
        assert len(dataset.test) == 20
        for subset in (dataset.train, dataset.test):
            labels = [s.label for s in subset]
            assert labels.count(0) == labels.count(1)

    def test_seeds_are_disjoint(self):
        cfg = SynthConfig(num_frames=40)
        dataset = generate_dataset(cfg, n_per_class=5, seed=4)
        seeds = [s.seed for s in dataset.samples]
        assert len(set(seeds)) == len(seeds)

    def test_master_seed_changes_content_not_shape(self):
        cfg = SynthConfig(num_frames=40)
        a = generate_dataset(cfg, n_per_class=3, seed=0)
        b = generate_dataset(cfg, n_per_class=3, seed=1)
        assert len(a.samples) == len(b.samples)
        assert not np.array_equal(
            a.samples[0].sequence.positions, b.samples[0].sequence.positions
        )

    def test_negative_seed_is_a_contract_violation(self):
        with pytest.raises(ContractViolationError, match="seed must be >= 0, got -1"):
            generate_dataset(SynthConfig(num_frames=40), 2, seed=-1)

    def test_band_energy_oracle_separates_noiseless_classes(self):
        # Independent separability check: compare binned energy inside each
        # class band at one signal joint; threshold rule must be perfect.
        cfg = SynthConfig(num_frames=240, noise_sigma=0.0)
        spec = BinSpec(c=1.15, num_bins=18)
        topo = builtin_topology(cfg.topology)
        dataset = generate_dataset(cfg, n_per_class=6, seed=9)
        joint = cfg.signal_joints[0]
        step = cfg.fps / cfg.num_frames

        def band_mass(features, band):
            lo_idx, hi_idx = band[0] / step, band[1] / step
            edges = bin_edges(features.spec)
            mass = 0.0
            for b in range(len(edges) - 1):
                if edges[b + 1] > lo_idx and edges[b] <= hi_idx + 1:
                    mass += float(features.data[joint, b, 0])
            return mass

        scores = []
        for sample in dataset.samples:
            seq = normalize_sequence(sample.sequence, topo.root, topo.neck)
            features = extract_features(seq, spec)
            scores.append(
                (band_mass(features, cfg.class1_band) > band_mass(features, cfg.class0_band),
                 sample.label)
            )
        assert all(is_mid == bool(label) for is_mid, label in scores)

    def test_write_dataset_round_trips_through_pose_ingest(self, tmp_path):
        cfg = SynthConfig(num_frames=30)
        dataset = generate_dataset(cfg, n_per_class=2, seed=5)
        manifest_path = write_dataset(dataset, tmp_path)
        rows = read_manifest(manifest_path)
        assert len(rows) == 4
        sample = dataset.samples[0]
        loaded = load_sequence(tmp_path / "sequences" / sample.sequence_id, fps=cfg.fps)
        assert np.array_equal(loaded.positions, sample.sequence.positions)

    def test_n_per_class_minimum(self):
        with pytest.raises(ValueError):
            generate_dataset(SynthConfig(num_frames=30), n_per_class=1, seed=0)
