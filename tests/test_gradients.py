"""Analytic gradients against the central-difference oracle."""

import numpy as np
import pytest

from freqgcn.errors import ContractViolationError
from freqgcn.frequency import BinSpec
from freqgcn.graph import builtin_topology
from freqgcn.model import backward, init_model, model_forward, one_hot
from freqgcn.training import (
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
