"""Analytic gradients against the central-difference oracle."""

import numpy as np
import pytest

from freqgcn.errors import ContractViolationError
from freqgcn.frequency import BinSpec
from freqgcn.graph import builtin_topology
from freqgcn.model import Workspace, backward, init_model, model_forward, one_hot
from freqgcn.training import (
    chunk_size,
    draw_smooth_check_case,
    finite_difference_gradients,
    gradient_check,
    max_relative_error,
)

TOY = builtin_topology("toy5")
SPEC3 = BinSpec(c=1.3, num_bins=3)


def randomized_model(rng, seed):
    model = init_model(TOY, SPEC3, channel_widths=(2, 16, 16), seed=seed)
    for param in model.parameter_groups().values():
        param += rng.normal(scale=0.3, size=param.shape)
    return model


class TestGradientCorrectness:
    def test_every_group_matches_central_differences(self):
        rng = np.random.default_rng(0)
        for trial in range(5):
            model = randomized_model(rng, trial)
            features = draw_smooth_check_case(model, rng, scale=1.5)
            errors = gradient_check(model, features, label=trial % 2, eps=1e-5)
            for name, err in errors.items():
                assert err < 1e-4, f"{name} gradient off by {err:.3e} on trial {trial}"

    def test_saturated_logits_give_vanishing_gradient(self):
        # Drive the prediction to match the label almost exactly; every
        # gradient then inherits the near-zero loss slope.
        model = randomized_model(np.random.default_rng(1), 1)
        model.params["head_bias"] += np.array([60.0, -60.0])
        features = np.abs(np.random.default_rng(2).normal(size=(5, 3, 2)))
        _, _, cache = model_forward(features, model)
        grads = backward(cache, one_hot(0))
        total = sum(float(np.abs(g).sum()) for g in grads.values())
        assert total < 1e-8

    def test_disconnected_parameter_has_exactly_zero_gradient(self):
        model = randomized_model(np.random.default_rng(3), 3)
        # Make every layer-0 output unit that column 4 feeds ReLU-dead.
        dead_col = 4
        model.params["layer0"][:, dead_col] = -10.0  # strongly negative pre-activations
        features = np.abs(np.random.default_rng(5).normal(size=(5, 3, 2))) + 0.5
        _, _, cache = model_forward(features, model)
        assert np.all(cache.pre_relu[0][:, dead_col] < 0.0)
        grads = backward(cache, one_hot(1))
        # Column feeds only dead units, so its weight gradient vanishes.
        assert np.array_equal(grads["layer0"][:, dead_col], np.zeros(2))

    def test_finite_difference_oracle_shim(self):
        # The oracle itself on the head bias: d loss / d bias = p - y.
        model = randomized_model(np.random.default_rng(6), 6)
        features = draw_smooth_check_case(model, np.random.default_rng(7))
        _, _, cache = model_forward(features, model)
        fd = finite_difference_gradients(model, features, label=0, eps=1e-6)
        expected = cache.probability - one_hot(0)
        assert max_relative_error(expected, fd["head_bias"].reshape(-1)) < 1e-6

    def test_backward_rejects_bad_label(self):
        model = randomized_model(np.random.default_rng(8), 8)
        _, _, cache = model_forward(np.abs(np.random.default_rng(9).normal(size=(5, 3, 2))), model)
        with pytest.raises(ContractViolationError):
            backward(cache, np.array([0.2, 0.8]))

    def test_coarse_epsilon_degrades_the_oracle(self):
        rng = np.random.default_rng(10)
        model = randomized_model(rng, 10)
        features = draw_smooth_check_case(model, rng, scale=1.5)
        fine = gradient_check(model, features, label=0, eps=1e-5)
        coarse = gradient_check(model, features, label=0, eps=1e-1)
        assert max(coarse.values()) > max(fine.values())
        assert max(coarse.values()) > 1e-4


class TestMaxRelativeError:
    def test_zero_for_identical(self):
        a = np.array([1.0, -2.0, 3.0])
        assert max_relative_error(a, a.copy()) == 0.0

    def test_floor_prevents_blowup_near_zero(self):
        assert max_relative_error(np.array([0.0]), np.array([1e-12])) < 1e-5


def example_oracle(model, h, label):
    """One example's logits and loss gradients, written out on (L, C) arrays with the dense
    normalized adjacency: the per-example reference for the chunked forward and backward."""
    params = model.params
    a_hat = model.graph.normalized
    layers = [params[f"layer{l}"] for l in range(model.num_layers)]
    n, b, c = h.shape
    z = np.tanh(h @ params["w_z"].T)
    scores = z @ params["w_alpha"]
    alpha = np.exp(scores - scores.max(axis=1, keepdims=True))
    alpha /= alpha.sum(axis=1, keepdims=True)
    xs = [(b * alpha[:, :, None] * h).reshape(n * b, c)]
    ps, zs = [], []
    for weight in layers:
        ps.append(a_hat @ xs[-1])
        zs.append(ps[-1] @ weight)
        xs.append(np.maximum(zs[-1], 0.0))
    pooled = xs[-1].mean(axis=0)
    logits = pooled @ params["head_weight"] + params["head_bias"]
    probability = np.exp(logits - logits.max())
    d_logits = probability / probability.sum() - one_hot(label)
    grads = {"head_weight": np.outer(pooled, d_logits), "head_bias": d_logits}
    d_x = np.tile(params["head_weight"] @ d_logits / (n * b), (n * b, 1))
    for l in reversed(range(len(layers))):
        d_pre = d_x * (zs[l] > 0.0)
        grads[f"layer{l}"] = ps[l].T @ d_pre
        d_x = a_hat @ (d_pre @ layers[l].T)
    d_alpha = b * (d_x.reshape(n, b, c) * h).sum(axis=2)
    d_scores = alpha * (d_alpha - (d_alpha * alpha).sum(axis=1, keepdims=True))
    grads["w_alpha"] = np.einsum("nb,nbc->c", d_scores, z)
    d_pre_tanh = d_scores[:, :, None] * params["w_alpha"] * (1.0 - z**2)
    grads["w_z"] = np.einsum("nbr,nbc->rc", d_pre_tanh, h)
    return logits, grads


class TestChunkedPath:
    """One forward and backward per chunk of examples against the per-example oracle."""

    EXAMPLES = 10

    @pytest.fixture(scope="class")
    def case(self):
        rng = np.random.default_rng(20)
        model = init_model(builtin_topology("body25"), BinSpec(c=1.15, num_bins=22), seed=20)
        for param in model.parameter_groups().values():
            param += rng.normal(scale=0.3, size=param.shape)
        examples = [(np.abs(rng.normal(size=(25, 22, 2))), i % 2) for i in range(self.EXAMPLES)]
        want = dict.fromkeys(model.params, 0.0)
        logits = []
        for h, label in examples:
            example_logits, grads = example_oracle(model, h, label)
            logits.append(example_logits)
            for name, g in grads.items():
                want[name] = want[name] + g
        return model, examples, np.array(logits), want

    def test_budget_chunk_holds_seven_body25_examples(self, case):
        assert chunk_size(case[0]) == 7

    # (chunk size, size of the last chunk): 3 and the 7-example budget leave a ragged last chunk.
    @pytest.mark.parametrize("size,last", [(1, 1), (3, 1), ("budget", 3), (EXAMPLES, EXAMPLES)])
    def test_summed_chunk_gradients_match_the_oracle(self, case, size, last):
        model, examples, want_logits, want = case
        size = chunk_size(model) if size == "budget" else size
        workspace = Workspace()  # reused by every chunk, the ragged last one included
        got = dict.fromkeys(model.params, 0.0)
        logits = []
        for start in range(0, len(examples), size):
            chunk = examples[start:start + size]
            _, _, cache = model_forward([h for h, _ in chunk], model, workspace)
            logits.append(cache.logits.copy())
            targets = np.array([one_hot(label) for _, label in chunk])
            for name, g in backward(cache, targets).items():
                got[name] = got[name] + g
        assert len(chunk) == last
        np.testing.assert_allclose(np.concatenate(logits), want_logits, rtol=1e-12, atol=0)
        assert list(got) == list(want)
        for name, g in got.items():
            assert g.shape == want[name].shape
            error = np.abs(g - want[name]).max() / np.abs(want[name]).max()
            assert error <= 1e-12, f"{name} off by {error:.1e} at chunk size {size}"

    def test_one_input_is_the_chunk_of_one(self, case):
        model, examples, want_logits, want = case
        h, label = examples[0]
        prediction, report, cache = model_forward(h, model)
        predictions, reports, chunk_cache = model_forward([h], model)
        assert predictions == (prediction,)
        assert np.array_equal(reports[0].alpha, report.alpha)
        assert cache.logits.shape == (1, 2) and cache.layer_inputs[-1].shape == (550, 16)
        one, chunk = backward(cache, one_hot(label)), backward(chunk_cache, one_hot(label)[None])
        for name in one:
            assert np.array_equal(one[name], chunk[name])

    def test_plain_call_cache_is_not_overwritten(self, case):
        model, examples, _, _ = case
        _, _, first = model_forward(examples[0][0], model)
        kept = {name: [a.copy() for a in getattr(first, name)]
                for name in ("layer_inputs", "aggregated", "pre_relu")}
        before = backward(first, one_hot(0))
        _, _, second = model_forward([h for h, _ in examples[1:4]], model)
        backward(second, np.array([one_hot(1), one_hot(0), one_hot(1)]))
        for name, arrays in kept.items():
            for got, want in zip(getattr(first, name), arrays):
                assert np.array_equal(got, want)
                assert not any(np.shares_memory(got, other) for other in getattr(second, name))
        after = backward(first, one_hot(0))
        for name in before:
            assert np.array_equal(before[name], after[name])

    def test_shared_workspace_is_reused(self, case):
        model, examples, _, _ = case
        workspace = Workspace()
        _, _, first = model_forward([examples[0][0]], model, workspace)
        _, _, second = model_forward([examples[1][0]], model, workspace)
        assert np.shares_memory(first.pre_relu[-1], second.pre_relu[-1])

    def test_mismatched_label_rows_rejected(self, case):
        model, examples, _, _ = case
        _, _, cache = model_forward([h for h, _ in examples[:3]], model)
        with pytest.raises(ContractViolationError):
            backward(cache, np.array([one_hot(0), one_hot(1)]))
