import numpy as np
import pytest

from freqgcn.errors import DegenerateDatasetError, NonFiniteError
from freqgcn.frequency import BinSpec, FrequencyFeatures, extract_features
from freqgcn.graph import builtin_topology
from freqgcn.model import model_forward
from freqgcn.pose import PoseSequence
from freqgcn import training
from freqgcn.training import TrainConfig, evaluate, train

TOY = builtin_topology("toy5")
SPEC3 = BinSpec(c=1.3, num_bins=3)


def features_from(data):
    return FrequencyFeatures(data=np.asarray(data, dtype=float), spec=SPEC3, fps=30.0)


def separable_pair():
    # Bins 1 vs 2, not 0 vs 2: the per-joint bin chain is symmetric under
    # reversal, so hot cells at bins 0 and B-1 are graph-automorphic images
    # of each other and provably indistinguishable to the pooled GCN.
    lo = np.zeros((5, 3, 2))
    lo[1, 1, 0] = 5.0
    hi = np.zeros((5, 3, 2))
    hi[1, 2, 0] = 5.0
    return [(features_from(lo), 0), (features_from(hi), 1)]


def tone_dataset(count=8, frames=120):
    """Sequences whose only difference is which DFT index carries the tone."""
    samples = []
    for k in range(count):
        label = k % 2
        peak = 2 if label == 0 else 9
        t = np.arange(frames)
        pos = np.zeros((frames, 5, 2))
        rng = np.random.default_rng(k)
        pos += rng.normal(scale=0.01, size=pos.shape)
        pos[:, 1, 0] += np.sin(2 * np.pi * peak * t / frames)
        seq = PoseSequence(pos, fps=30.0)
        samples.append((extract_features(seq, BinSpec(c=1.5, num_bins=5)), label))
    return samples


class TestTrain:
    def test_loss_drops_on_separable_pair(self):
        dataset = separable_pair()
        _, history = train(dataset, TrainConfig(epochs=50, seed=0), TOY, SPEC3)
        assert history.losses[-1] < history.losses[0]

    def test_equal_seeds_give_bitwise_identical_parameters(self):
        dataset = separable_pair()
        cfg = TrainConfig(epochs=20, seed=9)
        model_a, _ = train(dataset, cfg, TOY, SPEC3)
        model_b, _ = train(dataset, cfg, TOY, SPEC3)
        for a, b in zip(model_a.parameter_groups().values(), model_b.parameter_groups().values()):
            assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        dataset = separable_pair()
        model_a, _ = train(dataset, TrainConfig(epochs=5, seed=0), TOY, SPEC3)
        model_b, _ = train(dataset, TrainConfig(epochs=5, seed=1), TOY, SPEC3)
        assert not np.array_equal(model_a.params["head_weight"], model_b.params["head_weight"])

    def test_single_class_dataset_rejected(self):
        with pytest.raises(DegenerateDatasetError):
            train([separable_pair()[0]], TrainConfig(epochs=5), TOY, SPEC3)

    def test_empty_dataset_rejected(self):
        with pytest.raises(DegenerateDatasetError):
            train([], TrainConfig(epochs=5), TOY, SPEC3)

    def test_history_length_matches_epochs(self):
        _, history = train(separable_pair(), TrainConfig(epochs=13, seed=2), TOY, SPEC3)
        assert len(history.losses) == 13
        assert len(history.accuracies) == 13

    def test_per_example_mode_also_learns(self):
        dataset = separable_pair()
        _, history = train(
            dataset, TrainConfig(epochs=30, seed=3, full_batch=False), TOY, SPEC3
        )
        assert history.losses[-1] < history.losses[0]

    def test_learned_model_separates_tone_dataset(self):
        dataset = tone_dataset()
        spec = BinSpec(c=1.5, num_bins=5)
        model, history = train(
            dataset, TrainConfig(epochs=120, learning_rate=1e-2, seed=0), TOY, spec
        )
        correct = 0
        for features, label in dataset:
            prediction, _, _ = model_forward(features, model)
            correct += prediction.label == label
        assert correct == len(dataset)

    @pytest.mark.parametrize("full_batch", [True, False])
    def test_divergence_names_its_epoch(self, full_batch):
        config = TrainConfig(epochs=5, learning_rate=1e300, full_batch=full_batch)
        with pytest.raises(NonFiniteError, match=r"diverged at epoch [12]: logits"):
            train(tone_dataset(), config, TOY, BinSpec(c=1.5, num_bins=5))

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)

    @pytest.mark.parametrize("rate", [float("inf"), float("nan")])
    def test_non_finite_learning_rate_rejected(self, rate):
        with pytest.raises(ValueError, match=f"learning_rate must be finite and > 0, got {rate}"):
            TrainConfig(learning_rate=rate)


def body25_examples(count):
    rng = np.random.default_rng(count)
    spec = BinSpec(c=1.15, num_bins=22)
    return [(FrequencyFeatures(data=np.abs(rng.normal(size=(25, 22, 2))), spec=spec, fps=30.0),
             i % 2) for i in range(count)], spec


class TestChunkedTraining:
    """train and evaluate run one forward and backward per chunk of examples."""

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = {"forward": [], "backward": 0, "steps": 0}
        forward, backward, step = training.model_forward, training.backward, training._Adam.step

        def counting_forward(features, model, workspace=None):
            seen["forward"].append(len(features))
            return forward(features, model, workspace)

        def counting_backward(cache, targets):
            seen["backward"] += 1
            return backward(cache, targets)

        def counting_step(self, grads):
            seen["steps"] += 1
            return step(self, grads)

        monkeypatch.setattr(training, "model_forward", counting_forward)
        monkeypatch.setattr(training, "backward", counting_backward)
        monkeypatch.setattr(training._Adam, "step", counting_step)
        return seen

    def test_full_batch_runs_one_pass_per_chunk_and_one_step_per_epoch(self, calls):
        dataset, spec = body25_examples(40)
        model, _ = train(dataset, TrainConfig(epochs=2, seed=1), builtin_topology("body25"), spec)
        assert calls["forward"] == [7, 7, 7, 7, 7, 5] * 2
        assert calls["backward"] == 12 and calls["steps"] == 2
        calls["forward"].clear()
        evaluate(model, [(f"s{i}", f, label) for i, (f, label) in enumerate(dataset[:20])])
        assert calls["forward"] == [7, 7, 6]

    def test_per_example_makes_one_adam_step_per_example(self, calls):
        dataset, spec = body25_examples(9)
        config = TrainConfig(epochs=2, seed=1, full_batch=False)
        train(dataset, config, builtin_topology("body25"), spec)
        assert calls["forward"] == [1] * 18
        assert calls["backward"] == 18 and calls["steps"] == 18


class TestEvaluate:
    def test_perfect_predictions(self):
        dataset = separable_pair()
        model, _ = train(dataset, TrainConfig(epochs=150, learning_rate=1e-2, seed=0), TOY, SPEC3)
        report = evaluate(model, [("a", dataset[0][0], 0), ("b", dataset[1][0], 1)])
        assert report.accuracy == 1.0
        assert report.sensitivity == 1.0
        assert report.specificity == 1.0
        assert len(report.predictions) == 2

    def test_confusion_counts_sum_to_dataset_size(self):
        dataset = separable_pair()
        model, _ = train(dataset, TrainConfig(epochs=5, seed=1), TOY, SPEC3)
        rows = [("x", dataset[0][0], 1), ("y", dataset[1][0], 0), ("z", dataset[0][0], 0)]
        report = evaluate(model, rows)
        assert len(report.predictions) == 3
        assert 0.0 <= report.accuracy <= 1.0
        assert 0.0 <= report.sensitivity <= 1.0
        assert 0.0 <= report.specificity <= 1.0

    def test_probability_is_for_abnormal_class(self):
        dataset = separable_pair()
        model, _ = train(dataset, TrainConfig(epochs=300, learning_rate=5e-2, seed=0), TOY, SPEC3)
        report = evaluate(model, [("hi", dataset[1][0], 1)])
        _, _, predicted, p_abnormal = report.predictions[0]
        assert predicted == 1
        assert p_abnormal > 0.5
