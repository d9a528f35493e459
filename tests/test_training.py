import math
import os
import signal
import sys

import numpy as np
import pytest

from freqgcn.errors import ContractViolationError, DegenerateDatasetError, FreqGcnError, NonFiniteError
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
        _, history = train(dataset, TrainConfig(epochs=50, seed=0), TOY)
        assert history.losses[-1] < history.losses[0]

    def test_equal_seeds_give_bitwise_identical_parameters(self):
        dataset = separable_pair()
        cfg = TrainConfig(epochs=20, seed=9)
        model_a, _ = train(dataset, cfg, TOY)
        model_b, _ = train(dataset, cfg, TOY)
        for a, b in zip(model_a.params.values(), model_b.params.values()):
            assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        dataset = separable_pair()
        model_a, _ = train(dataset, TrainConfig(epochs=5, seed=0), TOY)
        model_b, _ = train(dataset, TrainConfig(epochs=5, seed=1), TOY)
        assert not np.array_equal(model_a.params["head_weight"], model_b.params["head_weight"])

    def test_single_class_dataset_rejected(self):
        with pytest.raises(DegenerateDatasetError):
            train([separable_pair()[0]], TrainConfig(epochs=5), TOY)

    def test_empty_dataset_rejected(self):
        with pytest.raises(DegenerateDatasetError):
            train([], TrainConfig(epochs=5), TOY)

    def test_examples_of_two_bin_layouts_are_refused(self):
        # The model takes the first example's layout, so the second one's is the mismatch.
        mixed = [separable_pair()[0], tone_dataset(count=2)[1]]
        with pytest.raises(ContractViolationError, match=r"^features binned with BinSpec\(c=1\.5, num_bins=5\) "
                                                         r"do not match the model's BinSpec\(c=1\.3, num_bins=3\)$"):
            train(mixed, TrainConfig(epochs=1), TOY)

    def test_history_length_matches_epochs(self):
        _, history = train(separable_pair(), TrainConfig(epochs=13, seed=2), TOY)
        assert len(history.losses) == 13
        assert len(history.accuracies) == 13

    def test_learned_model_separates_tone_dataset(self):
        dataset = tone_dataset()
        model, history = train(dataset, TrainConfig(epochs=120, learning_rate=1e-2, seed=0), TOY)
        correct = 0
        for features, label in dataset:
            correct += model_forward([features], model).logits[0].argmax() == label
        assert correct == len(dataset)

    def test_divergence_names_its_epoch(self):
        config = TrainConfig(epochs=5, learning_rate=1e300)
        with pytest.raises(NonFiniteError, match=r"^training diverged at epoch 1: parameter w_alpha "
                                                 r"reaches magnitude 1e\+300, not below 1\.34e\+154$"):
            train(tone_dataset(), config, TOY)

    def test_huge_finite_parameters_are_divergence(self):
        # Every logit of this pair stays finite at this rate: losses reached 7.1e299 and
        # parameters 3.0e300 while only non-finite values were refused.
        config = TrainConfig(epochs=5, learning_rate=1e300)
        with pytest.raises(NonFiniteError, match="^training diverged at epoch 1: parameter w_alpha"):
            train(separable_pair(), config, TOY)

    @pytest.mark.parametrize("value,diverges", [
        (np.nextafter(math.sqrt(sys.float_info.max), 0.0), False),
        (math.sqrt(sys.float_info.max), True),
        (-math.sqrt(sys.float_info.max), True),
        (float("nan"), True),
    ])
    def test_a_parameter_diverges_at_the_square_root_of_the_largest_float(self, monkeypatch, value,
                                                                         diverges):
        step = training._Adam.step

        def step_to(self, grads):  # past this magnitude, a product of two parameters overflows
            step(self, grads)
            self.params["head_bias"][1] = value

        monkeypatch.setattr(training._Adam, "step", step_to)
        if diverges:
            with pytest.raises(NonFiniteError, match="^training diverged at epoch 1: parameter head_bias"):
                train(separable_pair(), TrainConfig(epochs=1), TOY)
        else:
            model, _ = train(separable_pair(), TrainConfig(epochs=1), TOY)
            assert model.params["head_bias"][1] == value

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
             i % 2) for i in range(count)]


def use_cores(monkeypatch, k):
    """Make train see k usable cores, whatever the host has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)))


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

    def test_one_pass_per_chunk_and_one_step_per_epoch(self, calls, monkeypatch):
        use_cores(monkeypatch, 1)  # the calls are counted in this process
        dataset = body25_examples(40)
        model, _ = train(dataset, TrainConfig(epochs=2, seed=1), builtin_topology("body25"))
        assert calls["forward"] == [7, 7, 7, 7, 7, 5] * 2
        assert calls["backward"] == 12 and calls["steps"] == 2
        calls["forward"].clear()
        evaluate(model, [(f"s{i}", f, label) for i, (f, label) in enumerate(dataset[:20])])
        assert calls["forward"] == [7, 7, 6]

    def test_with_two_cores_the_parent_runs_the_first_half_of_the_chunks(self, calls, monkeypatch):
        use_cores(monkeypatch, 2)
        dataset = body25_examples(40)
        train(dataset, TrainConfig(epochs=2, seed=1), builtin_topology("body25"))
        assert calls["forward"] == [7, 7, 7] * 2  # the helper runs [7, 7, 5]
        assert calls["backward"] == 6 and calls["steps"] == 2


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def fail_on_chunks(monkeypatch, dataset, failing):
    """Make the chunks that start with dataset[i], for i in ``failing``, raise an error naming i."""
    result = training._chunk_result

    def chunk_result(model, chunk, workspace):
        for i in failing:
            if chunk[0] is dataset[i]:
                raise NonFiniteError(f"logits of the chunk from example {i} are not finite")
        return result(model, chunk, workspace)

    monkeypatch.setattr(training, "_chunk_result", chunk_result)


class TestHelperProcesses:
    """train shares an epoch's chunks with forked helpers, one per usable core."""

    BODY25 = builtin_topology("body25")

    @pytest.fixture(autouse=True)
    def deadline(self):
        """Fail a test whose helpers hang rather than hang the suite."""
        def expire(signum, frame):
            raise TimeoutError("train did not return within 120 s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(120)
        yield
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)

    def test_core_counts_give_bitwise_identical_training(self, monkeypatch):
        dataset = body25_examples(40)
        runs = []
        for k in (1, 2, 3):
            use_cores(monkeypatch, k)
            model, history = train(dataset, TrainConfig(epochs=8, learning_rate=0.01, seed=4), self.BODY25)
            runs.append(([p.tobytes() for p in model.params.values()], history.losses, history.accuracies))
            assert_no_child_left()
        assert runs[0] == runs[1] == runs[2]

    def test_one_chunk_never_forks(self, monkeypatch):
        def no_fork():
            raise AssertionError("forked")

        use_cores(monkeypatch, 4)
        monkeypatch.setattr(os, "fork", no_fork)
        dataset = body25_examples(7)
        _, history = train(dataset, TrainConfig(epochs=2), self.BODY25)
        assert len(history.losses) == 2

    def test_divergence_in_a_helper_chunk_reads_as_with_one_core(self, monkeypatch, capfd):
        dataset = body25_examples(40)
        for i in range(28, 35):  # chunk 4, a helper's with 2 or 3 cores
            features, label = dataset[i]
            dataset[i] = (FrequencyFeatures(features.data * 1e306, features.spec, 30.0), label)
        messages = []
        for k in (1, 2, 3):
            use_cores(monkeypatch, k)
            with pytest.raises(NonFiniteError) as caught:
                train(dataset, TrainConfig(epochs=3, seed=1), self.BODY25)
            messages.append(str(caught.value))
            assert_no_child_left()
        assert messages[0].startswith("training diverged at epoch 1: logits [")
        assert messages[0] == messages[1] == messages[2]
        assert capfd.readouterr() == ("", "")  # nor did any helper write a line

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_the_first_failing_chunk_in_chunk_order_is_raised(self, monkeypatch, k):
        dataset = body25_examples(40)
        use_cores(monkeypatch, k)
        fail_on_chunks(monkeypatch, dataset, [35, 21])  # chunks 5 and 3, each a helper's with 3 cores
        with pytest.raises(NonFiniteError, match="^training diverged at epoch 1: logits of the chunk "
                                                 "from example 21 are not finite$"):
            train(dataset, TrainConfig(epochs=2), self.BODY25)
        assert_no_child_left()

    def test_a_helper_that_dies_is_one_error(self, monkeypatch):
        dataset = body25_examples(40)
        use_cores(monkeypatch, 2)
        parent, result = os.getpid(), training._chunk_result

        def chunk_result(model, chunk, workspace):
            if os.getpid() != parent:
                os._exit(3)
            return result(model, chunk, workspace)

        monkeypatch.setattr(training, "_chunk_result", chunk_result)
        with pytest.raises(FreqGcnError, match="^a training helper process failed$") as caught:
            train(dataset, TrainConfig(epochs=2), self.BODY25)
        assert caught.value.exit_code == 1
        assert_no_child_left()

    def test_an_interrupted_train_leaves_no_helper(self, monkeypatch):
        dataset = body25_examples(40)
        use_cores(monkeypatch, 3)
        parent, result, calls = os.getpid(), training._chunk_result, []

        def chunk_result(model, chunk, workspace):
            calls.append(None)
            if os.getpid() == parent and len(calls) == 3:  # in the second epoch
                raise KeyboardInterrupt
            return result(model, chunk, workspace)

        monkeypatch.setattr(training, "_chunk_result", chunk_result)
        with pytest.raises(KeyboardInterrupt):
            train(dataset, TrainConfig(epochs=5), self.BODY25)
        assert_no_child_left()


class TestEvaluate:
    def test_perfect_predictions(self):
        dataset = separable_pair()
        model, _ = train(dataset, TrainConfig(epochs=150, learning_rate=1e-2, seed=0), TOY)
        report = evaluate(model, [("a", dataset[0][0], 0), ("b", dataset[1][0], 1)])
        assert report.accuracy == 1.0
        assert report.sensitivity == 1.0
        assert report.specificity == 1.0
        assert len(report.predictions) == 2

    def test_confusion_counts_sum_to_dataset_size(self):
        dataset = separable_pair()
        model, _ = train(dataset, TrainConfig(epochs=5, seed=1), TOY)
        rows = [("x", dataset[0][0], 1), ("y", dataset[1][0], 0), ("z", dataset[0][0], 0)]
        report = evaluate(model, rows)
        assert len(report.predictions) == 3
        assert 0.0 <= report.accuracy <= 1.0
        assert 0.0 <= report.sensitivity <= 1.0
        assert 0.0 <= report.specificity <= 1.0

    def test_empty_dataset_rejected(self):
        model = train(separable_pair(), TrainConfig(epochs=1, seed=0), TOY)[0]
        with pytest.raises(DegenerateDatasetError, match="evaluation dataset is empty"):
            evaluate(model, [])

    def test_probability_is_for_abnormal_class(self):
        dataset = separable_pair()
        model, _ = train(dataset, TrainConfig(epochs=300, learning_rate=5e-2, seed=0), TOY)
        report = evaluate(model, [("hi", dataset[1][0], 1)])
        _, _, predicted, p_abnormal = report.predictions[0]
        assert predicted == 1
        assert p_abnormal > 0.5


class TestBlasThreads:
    """train and evaluate run OpenBLAS on one thread, so a product's sums do not depend on
    the core count, and give the caller its thread count back."""

    @pytest.fixture
    def threads(self):
        """The loaded OpenBLAS's thread-count getter (None where there is none), at 2 threads."""
        found = training._openblas_threads()
        if found is None:
            yield lambda: None
            return
        get, set_ = found
        before = get()
        set_(2)
        yield get
        set_(before)

    def test_train_and_evaluate_read_one_thread_inside_and_restore_the_count(self, threads, monkeypatch):
        inside = []
        forward = training.model_forward

        def recording_forward(features, model, workspace=None):
            inside.append(threads())
            return forward(features, model, workspace)

        monkeypatch.setattr(training, "model_forward", recording_forward)
        outside = threads()
        model, _ = train(separable_pair(), TrainConfig(epochs=2), TOY)
        assert threads() == outside
        evaluate(model, [("a", separable_pair()[0][0], 0)])
        assert threads() == outside
        one = None if outside is None else 1
        assert inside == [one] * 3

    def test_helpers_inherit_one_thread(self, threads, monkeypatch):
        use_cores(monkeypatch, 2)
        parent, result = os.getpid(), training._chunk_result

        def chunk_result(model, chunk, workspace):
            if os.getpid() != parent:
                raise NonFiniteError(f"a helper runs {threads()} BLAS threads")
            return result(model, chunk, workspace)

        monkeypatch.setattr(training, "_chunk_result", chunk_result)
        dataset = body25_examples(14)
        outside = threads()
        with pytest.raises(NonFiniteError, match=f"a helper runs {None if outside is None else 1} BLAS"):
            train(dataset, TrainConfig(epochs=1), builtin_topology("body25"))
        assert threads() == outside
        assert_no_child_left()

    def test_fake_openblas_is_set_to_one_and_restored_when_train_fails(self, monkeypatch):
        counts = [3]
        monkeypatch.setattr(training, "_openblas_threads", lambda: (lambda: counts[-1], counts.append))
        with pytest.raises(DegenerateDatasetError):
            train([separable_pair()[0]], TrainConfig(epochs=1), TOY)
        assert counts == [3, 1, 3]

    def test_no_openblas_sets_nothing(self, monkeypatch):
        monkeypatch.setattr(training, "_openblas_threads", lambda: None)
        _, history = train(separable_pair(), TrainConfig(epochs=2), TOY)
        assert len(history.losses) == 2
