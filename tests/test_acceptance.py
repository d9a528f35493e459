"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
"""

import time

import numpy as np
from click.testing import CliRunner
from conftest import random_connected_topology

from freqgcn.cli import main as cli_main
from freqgcn.frequency import BinSpec, bin_widths, extract_features, fft_bluestein
from freqgcn.graph import build_feature_graph, builtin_topology
from freqgcn.model import init_model, joint_ranking, model_forward
from freqgcn.pose import interpolate_missing, normalize_sequence
from freqgcn.synthetic import SynthConfig, generate_dataset, generate_sequence
from freqgcn.training import TrainConfig, draw_smooth_check_case, evaluate, gradient_check, train
from oracles import (
    AttentionParams,
    attention_aggregate,
    attention_weights,
    dft_naive,
    normalized,
    spectral_radius,
)

TOY = builtin_topology("toy5")

# The default 10-bin layout spans DFT indices 1-22, which at T=1000 and
# 30 fps tops out at 0.66 Hz, below both synthetic bands. 22 bins extend
# coverage to index 147 = 4.4 Hz, past the 4 Hz upper band edge.
EXPERIMENT_SPEC = BinSpec(c=1.15, num_bins=22)


def report(criterion: int, ok: bool, detail: str) -> None:
    line = f"criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def pipeline_features(sample_seq, topology, spec):
    seq = normalize_sequence(interpolate_missing(sample_seq), topology.root, topology.neck)
    return extract_features(seq, spec)


def test_criterion_1_fft_oracle_equivalence():
    lengths = list(range(1, 65)) + [97, 251, 1000]
    trials = {t: 15 for t in range(1, 65)}
    trials.update({97: 14, 251: 13, 1000: 13})
    assert sum(trials[t] for t in lengths) == 1000
    rng = np.random.default_rng(2024)
    worst = 0.0
    start = time.perf_counter()
    for t in lengths:
        for k in range(trials[t]):
            if k % 2:
                signal = rng.normal(size=t) + 1j * rng.normal(size=t)
            else:
                signal = rng.normal(size=t)
            err = float(np.max(np.abs(fft_bluestein(signal) - dft_naive(signal))))
            worst = max(worst, err)
    elapsed = time.perf_counter() - start
    report(
        1,
        worst < 1e-9 and elapsed < 10.0,
        f"max |fft - dft| = {worst:.3e} over 1000 signals in {elapsed:.2f}s",
    )


def test_criterion_2_binning_rule_reproduction():
    reference = bin_widths(BinSpec(c=1.15, num_bins=10))
    exact = reference == [1, 1, 1, 2, 2, 2, 2, 3, 4, 4]
    rng = np.random.default_rng(7)
    monotone = True
    for _ in range(200):
        c = float(np.nextafter(rng.uniform(1.0, 3.0), 4.0))  # stays inside (1, 3]
        widths = bin_widths(BinSpec(c=c, num_bins=int(rng.integers(1, 25))))
        monotone &= all(b >= a for a, b in zip(widths, widths[1:]))
        monotone &= all(w >= 1 for w in widths)
    report(2, exact and monotone, f"widths {reference}, monotone over 200 random c")


def test_criterion_3_normalization_spectral_bound():
    rng = np.random.default_rng(11)
    worst_radius = 0.0
    worst_gap = 0.0
    checked_small = 0
    for _ in range(100):
        topo = random_connected_topology(
            rng, int(rng.integers(2, 11)), extra_edges=int(rng.integers(0, 3))
        )
        graph = build_feature_graph(topo, int(rng.integers(1, 6)))
        radius = spectral_radius(normalized(graph))
        worst_radius = max(worst_radius, radius)
        if graph.num_nodes <= 20:
            exact = float(np.max(np.abs(np.linalg.eigvalsh(normalized(graph)))))
            worst_gap = max(worst_gap, abs(radius - exact))
            checked_small += 1
    report(
        3,
        worst_radius <= 1.0 + 1e-9 and worst_gap < 1e-6 and checked_small > 0,
        f"max radius {worst_radius:.12f}, power-vs-eig gap {worst_gap:.2e} "
        f"on {checked_small} small instances",
    )


def test_criterion_4_gradient_correctness():
    spec = BinSpec(c=1.3, num_bins=3)
    rng = np.random.default_rng(33)
    worst = 0.0
    start = time.perf_counter()
    for draw in range(100):
        model = init_model(TOY, spec, channel_widths=(2, 16, 16), seed=draw)
        for param in model.params.values():
            param += rng.normal(scale=0.3, size=param.shape)
        features = draw_smooth_check_case(model, rng)
        errors = gradient_check(model, features, label=draw % 2, eps=1e-5)
        worst = max(worst, max(errors.values()))
    elapsed = time.perf_counter() - start
    report(
        4,
        worst < 1e-4 and elapsed < 60.0,
        f"worst relative error {worst:.3e} over 100 draws in {elapsed:.1f}s",
    )


def test_criterion_5_attention_invariants():
    rng = np.random.default_rng(55)
    worst_sum = 0.0
    for _ in range(1000):
        n, b, c = int(rng.integers(1, 8)), int(rng.integers(1, 9)), 2
        h = rng.normal(scale=3.0, size=(n, b, c))
        params = AttentionParams(w_z=rng.normal(size=(c, c)), w_alpha=rng.normal(size=c))
        alpha = attention_weights(h, params)
        worst_sum = max(worst_sum, float(np.abs(alpha.sum(axis=1) - 1.0).max()))
    sums_ok = worst_sum <= 1e-9

    h = rng.normal(size=(6, 5, 2))
    _, gated = attention_aggregate(h, np.full((6, 5), 0.2))
    identity_ok = np.array_equal(gated, h)

    h = rng.normal(size=(4, 7, 2))
    params = AttentionParams(w_z=rng.normal(size=(2, 2)), w_alpha=rng.normal(size=2))
    scores = np.tanh(h @ params.w_z.T) @ params.w_alpha
    shifted = np.exp(scores - 123.456)
    shifted /= shifted.sum(axis=1, keepdims=True)
    shift_ok = np.allclose(attention_weights(h, params), shifted, atol=1e-9)

    report(
        5,
        sums_ok and identity_ok and shift_ok,
        f"max |sum(alpha) - 1| = {worst_sum:.2e}, uniform gating exact, shift-invariant",
    )


def _run_synthetic_experiment(noise_sigma: float, epochs: int = 200):
    cfg = SynthConfig(noise_sigma=noise_sigma)  # T=1000, 30 fps, bands (0.5,1.5)/(3,4)
    samples = generate_dataset(cfg, n_per_class=30, seed=0)
    train_set = [
        (pipeline_features(s.sequence, TOY, EXPERIMENT_SPEC), s.label) for s in samples if s.split == "train"
    ]
    test_set = [
        (s.sequence_id, pipeline_features(s.sequence, TOY, EXPERIMENT_SPEC), s.label)
        for s in samples if s.split == "test"
    ]
    # lr 1e-2: the noiseless variant's features are two hot cells in a sea of
    # zeros, and the default 1e-3 cannot move the parameters far enough in
    # the 200-epoch budget.
    model, _ = train(train_set, TrainConfig(epochs=epochs, learning_rate=1e-2, seed=0), TOY)
    return evaluate(model, test_set)


def test_criterion_6_end_to_end_synthetic_classification():
    start = time.perf_counter()
    noisy = _run_synthetic_experiment(noise_sigma=0.02)
    clean = _run_synthetic_experiment(noise_sigma=0.0)
    elapsed = time.perf_counter() - start
    report(
        6,
        noisy.accuracy >= 0.9 and clean.accuracy == 1.0 and elapsed < 300.0,
        f"noisy accuracy {noisy.accuracy:.2f} (40 train / 20 test), "
        f"noiseless accuracy {clean.accuracy:.2f}, wall time {elapsed:.0f}s",
    )


def test_criterion_7_attention_marks_signal_joints():
    spec = BinSpec(c=1.15, num_bins=14)
    cfg = SynthConfig(num_frames=300)  # discriminative motion on joints (1, 4)
    signal = set(cfg.signal_joints)
    wins = 0
    for seed in range(10):
        samples = generate_dataset(cfg, n_per_class=10, seed=seed)
        train_set = [(pipeline_features(s.sequence, TOY, spec), s.label) for s in samples if s.split == "train"]
        test_feats = [pipeline_features(s.sequence, TOY, spec) for s in samples if s.split == "test"]
        model, _ = train(train_set, TrainConfig(epochs=150, learning_rate=1e-2, seed=seed), TOY)
        importance = np.mean(
            [joint_ranking(model_forward([f], model).alpha[0])[0] for f in test_feats], axis=0
        )
        signal_mean = importance[list(signal)].mean()
        other_mean = np.mean([importance[j] for j in range(5) if j not in signal])
        wins += signal_mean > other_mean
    report(7, wins >= 8, f"signal joints ranked above the rest in {wins}/10 seeds")


def test_criterion_8_interactive_time():
    cfg = SynthConfig()
    sequence = generate_sequence(cfg, label=1, seed=99)  # 1000 frames
    model = init_model(TOY, EXPERIMENT_SPEC, seed=0)
    start = time.perf_counter()
    features = pipeline_features(sequence, TOY, EXPERIMENT_SPEC)
    cache = model_forward([features], model)
    elapsed = time.perf_counter() - start
    report(
        8,
        elapsed < 1.0 and cache.logits[0].argmax() in (0, 1),
        f"1000-frame classification in {elapsed * 1000:.0f}ms",
    )


def test_criterion_9_cli_determinism(tmp_path):
    runner = CliRunner()

    def run(*args):
        result = runner.invoke(cli_main, [str(a) for a in args], catch_exceptions=False)
        assert result.exit_code == 0, result.output
        return result.stdout

    outputs = []
    for tag in ("run1", "run2"):
        base = tmp_path / tag
        synth_out = run("synth", "--out", base / "data", "--n-per-class", 3,
                        "--frames", 240, "--seed", 12, "--topology", "toy5")
        extract_out = run("extract", "--input", base / "data" / "sequences",
                          "--out", base / "features", "--topology", "toy5",
                          "--c", 1.15, "--bins", 14)
        train_out = run("train", "--features", base / "features",
                        "--manifest", base / "data" / "manifest.csv",
                        "--out", base / "model.txt", "--topology", "toy5",
                        "--epochs", 25, "--seed", 4)
        predict_out = run("predict", "--model", base / "model.txt",
                          "--input", base / "features" / "seq_0000.csv")
        explain_out = run("explain", "--model", base / "model.txt",
                          "--input", base / "features" / "seq_0001.csv",
                          "--out", base / "report")
        gradcheck_out = run("gradcheck", "--seed", 3, "--trials", 1)
        files = {
            p.relative_to(base): p.read_bytes()
            for p in sorted(base.rglob("*"))
            if p.is_file()
        }
        stdout_bundle = "\n===\n".join(
            [synth_out, extract_out, train_out, predict_out, explain_out, gradcheck_out]
        )
        # Paths inside messages differ between run1/run2 directories; strip them.
        stdout_bundle = stdout_bundle.replace(str(base), "<base>")
        outputs.append((files, stdout_bundle))

    files_equal = outputs[0][0] == outputs[1][0]
    stdout_equal = outputs[0][1] == outputs[1][1]
    report(
        9,
        files_equal and stdout_equal,
        f"{len(outputs[0][0])} files plus stdout byte-identical across consecutive runs",
    )
