import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freqgcn.errors import ContractViolationError, ModelMismatchError, NonFiniteError
from freqgcn.frequency import BinSpec, FrequencyFeatures
from freqgcn.graph import SkeletonTopology, builtin_topology
from freqgcn.model import (
    backward,
    init_model,
    joint_ranking,
    load_model,
    loss,
    model_forward,
    parameter_schema,
    save_model,
)
from oracles import AttentionParams, attention_aggregate, attention_weights, normalized

TOY = builtin_topology("toy5")
SPEC3 = BinSpec(c=1.3, num_bins=3)


def toy_model(seed=0, widths=(2, 16, 16), randomize_attention=False):
    model = init_model(TOY, SPEC3, channel_widths=widths, seed=seed)
    if randomize_attention:
        rng = np.random.default_rng(seed + 1000)
        model.params["w_alpha"] += rng.normal(size=model.params["w_alpha"].shape)
    return model


class TestAttentionWeights:
    def test_identical_features_give_uniform_attention(self):
        h = np.tile(np.array([1.5, -0.5]), (4, 6, 1))
        params = AttentionParams(w_z=np.eye(2), w_alpha=np.array([1.0, 2.0]))
        alpha = attention_weights(h, params)
        assert np.allclose(alpha, 1.0 / 6.0)

    def test_zero_scoring_vector_gives_uniform_attention(self):
        rng = np.random.default_rng(0)
        h = rng.normal(size=(5, 4, 2))
        params = AttentionParams(w_z=rng.normal(size=(2, 2)), w_alpha=np.zeros(2))
        assert np.allclose(attention_weights(h, params), 0.25)

    def test_softmax_arithmetic(self):
        # Scores (ln 3, 0) for one joint: alpha = (0.75, 0.25).
        h = np.zeros((1, 2, 1))
        h[0, 0, 0] = np.arctanh(np.log(3.0) / 2.0)
        params = AttentionParams(w_z=np.eye(1), w_alpha=np.array([2.0]))
        alpha = attention_weights(h, params)
        assert np.allclose(alpha, [[0.75, 0.25]], atol=1e-12)

    def test_rejects_non_finite_features(self):
        h = np.zeros((2, 2, 2))
        h[0, 0, 0] = np.inf
        with pytest.raises(ContractViolationError):
            attention_weights(h, AttentionParams(w_z=np.eye(2), w_alpha=np.zeros(2)))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=100)
    def test_rows_sum_to_one(self, seed):
        rng = np.random.default_rng(seed)
        h = rng.normal(scale=3.0, size=(6, 5, 2))
        params = AttentionParams(w_z=rng.normal(size=(2, 2)), w_alpha=rng.normal(size=2))
        alpha = attention_weights(h, params)
        assert np.all(alpha >= 0)
        assert np.allclose(alpha.sum(axis=1), 1.0, atol=1e-9)

    def test_score_shift_invariance(self):
        rng = np.random.default_rng(4)
        h = rng.normal(size=(3, 4, 2))
        params = AttentionParams(w_z=rng.normal(size=(2, 2)), w_alpha=rng.normal(size=2))
        h_pre = np.tanh(h @ params.w_z.T)
        scores = h_pre @ params.w_alpha
        direct = np.exp(scores + 17.0)
        shifted = direct / direct.sum(axis=1, keepdims=True)
        assert np.allclose(attention_weights(h, params), shifted, atol=1e-9)


class TestAttentionAggregate:
    def test_uniform_attention_is_identity_gating(self):
        rng = np.random.default_rng(1)
        h = rng.normal(size=(4, 5, 2))
        alpha = np.full((4, 5), 0.2)
        aggregate, gated = attention_aggregate(h, alpha)
        assert np.array_equal(gated, h)
        assert np.allclose(aggregate, h.mean(axis=1))

    def test_one_hot_attention_selects_one_bin(self):
        rng = np.random.default_rng(2)
        h = rng.normal(size=(3, 4, 2))
        alpha = np.zeros((3, 4))
        alpha[:, 2] = 1.0
        aggregate, gated = attention_aggregate(h, alpha)
        assert np.allclose(aggregate, h[:, 2, :])
        mask = np.ones((3, 4), dtype=bool)
        mask[:, 2] = False
        assert np.all(gated[mask] == 0.0)

    def test_weighted_sum_arithmetic(self):
        h = np.array([[[4.0, 0.0], [0.0, 4.0]]])
        aggregate, _ = attention_aggregate(h, np.array([[0.75, 0.25]]))
        assert np.allclose(aggregate, [[3.0, 1.0]])

    def test_rejects_unnormalized_alpha(self):
        with pytest.raises(ContractViolationError):
            attention_aggregate(np.zeros((1, 2, 2)), np.array([[0.9, 0.9]]))


def gcn_forward(a_hat: np.ndarray, h: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """Oracle for one GCN layer: ReLU(A_hat @ H @ W) with a dense A_hat."""
    if a_hat.shape[1] != h.shape[0] or h.shape[1] != weight.shape[0]:
        raise ContractViolationError(
            f"shape chain broken: A_hat {a_hat.shape}, H {h.shape}, W {weight.shape}"
        )
    return np.maximum(a_hat @ h @ weight, 0.0)


class TestGcnForward:
    def test_identity_weight_with_relu_clip(self):
        out = gcn_forward(np.array([[1.0]]), np.array([[2.0, -1.0]]), np.eye(2))
        assert np.array_equal(out, [[2.0, 0.0]])

    def test_two_node_averaging(self):
        a_hat = np.full((2, 2), 0.5)
        out = gcn_forward(a_hat, np.array([[2.0], [0.0]]), np.array([[1.0]]))
        assert np.array_equal(out, [[1.0], [1.0]])

    def test_zero_weight_gives_zero_output(self):
        out = gcn_forward(np.eye(3), np.ones((3, 2)), np.zeros((2, 4)))
        assert np.array_equal(out, np.zeros((3, 4)))

    def test_dimension_mismatch(self):
        with pytest.raises(ContractViolationError):
            gcn_forward(np.eye(2), np.ones((3, 2)), np.eye(2))

    def test_output_non_negative(self):
        rng = np.random.default_rng(3)
        out = gcn_forward(np.eye(4), rng.normal(size=(4, 3)), rng.normal(size=(3, 5)))
        assert np.all(out >= 0.0)

    @pytest.mark.parametrize("preset,bins,widths", [
        ("toy5", 3, (2, 16, 16)), ("toy5", 4, (2, 8, 8, 4)), ("body25", 22, (2, 16, 16)),
    ])
    def test_every_model_layer_matches_the_dense_oracle(self, preset, bins, widths):
        rng = np.random.default_rng(bins)
        model = init_model(builtin_topology(preset), BinSpec(c=1.15, num_bins=bins),
                           channel_widths=widths, seed=bins)
        model.params["w_alpha"] += rng.normal(size=2)
        feats = np.abs(rng.normal(size=(model.num_joints, bins, 2)))
        cache = model_forward([feats], model)
        layers = [model.params[f"layer{l}"] for l in range(model.num_layers)]
        for l, weight in enumerate(layers):
            want = gcn_forward(normalized(model.graph), cache.layer_inputs[l], weight)
            np.testing.assert_allclose(cache.layer_inputs[l + 1], want, rtol=0, atol=1e-12)


class TestModelForward:
    def test_zero_features_predict_head_bias(self):
        model = toy_model()
        model.params["head_bias"] += np.array([0.3, -0.2])
        cache = model_forward([np.zeros((5, 3, 2))], model)
        assert tuple(cache.logits[0]) == pytest.approx((0.3, -0.2))
        assert cache.logits[0].argmax() == 0

    def test_deterministic(self):
        model = toy_model(seed=5, randomize_attention=True)
        rng = np.random.default_rng(6)
        feats = np.abs(rng.normal(size=(5, 3, 2)))
        first = model_forward([feats], model)
        second = model_forward([feats], model)
        assert np.array_equal(first.logits, second.logits)

    def test_probabilities_sum_to_one_and_label_is_argmax(self):
        rng = np.random.default_rng(7)
        model = toy_model(seed=7, randomize_attention=True)
        for _ in range(20):
            cache = model_forward([np.abs(rng.normal(size=(5, 3, 2)))], model)
            assert sum(cache.probability[0]) == pytest.approx(1.0, abs=1e-9)
            assert cache.probability[0].argmax() == cache.logits[0].argmax()

    def test_overflowing_weights_raise_instead_of_predicting_nan(self):
        model = toy_model()
        model.params["layer0"][:] = 1e300
        model.params["layer1"][:] = 1e300
        with pytest.raises(NonFiniteError, match="logits"):
            model_forward([np.ones((5, 3, 2))], model)

    def test_an_empty_chunk_is_rejected(self):
        with pytest.raises(ContractViolationError, match=r"got \(0,\)"):
            model_forward([], toy_model())

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ContractViolationError):
            model_forward([np.zeros((4, 3, 2))], toy_model())

    def test_bare_input_is_refused_with_a_list_expected(self):
        data = np.ones((5, 3, 2))
        bare = FrequencyFeatures(data=data, spec=BinSpec(c=1.3, num_bins=3), fps=30.0)
        for features in (bare, data):
            with pytest.raises(ContractViolationError, match=r"list of inputs; pass \[features\] for one"):
                model_forward(features, toy_model())

    def test_features_binned_with_another_spec_rejected(self):
        # Same (N, B, C) shape, different growth: the bins cover other frequencies.
        data = np.ones((5, 3, 2))
        other = FrequencyFeatures(data=data, spec=BinSpec(c=1.5, num_bins=3), fps=30.0)
        with pytest.raises(ContractViolationError, match="binned with"):
            model_forward([other], toy_model())
        same = FrequencyFeatures(data=data, spec=BinSpec(c=1.3, num_bins=3), fps=30.0)
        a, b = model_forward([same], toy_model()), model_forward([data], toy_model())
        assert np.array_equal(a.logits, b.logits) and np.array_equal(a.probability, b.probability)

    def test_joint_permutation_leaves_logits_unchanged(self):
        rng = np.random.default_rng(8)
        perm = rng.permutation(5)
        topo = TOY
        permuted_topo = SkeletonTopology(
            num_joints=5,
            edges=tuple((int(perm[i]), int(perm[j])) for i, j in topo.edges),
            root=int(perm[topo.root]),
            neck=int(perm[topo.neck]),
        )
        feats = np.abs(rng.normal(size=(5, 3, 2)))
        base = init_model(topo, SPEC3, seed=3)
        conjugated = init_model(permuted_topo, SPEC3, seed=3)
        base.params["w_alpha"] += 0.7
        conjugated.params["w_alpha"] += 0.7
        p_base = model_forward([feats], base)
        permuted_feats = np.empty_like(feats)
        permuted_feats[perm] = feats
        p_perm = model_forward([permuted_feats], conjugated)
        assert np.allclose(p_base.logits, p_perm.logits, atol=1e-9)


class DenseGraph:
    """Stand-in feature graph that propagates with the dense L x L normalized adjacency."""

    def __init__(self, graph):
        self.topology = graph.topology
        self.num_bins = graph.num_bins
        self.normalized = normalized(graph)

    def propagate(self, x, out, scratch):
        return np.matmul(self.normalized, x, out=out)


class TestStructuredPropagationInModel:
    @pytest.mark.parametrize("preset,bins,seed", [("toy5", 3, 0), ("toy5", 1, 1), ("body25", 22, 2)])
    def test_forward_and_backward_match_dense_reference(self, preset, bins, seed):
        rng = np.random.default_rng(seed)
        model = init_model(builtin_topology(preset), BinSpec(c=1.15, num_bins=bins), seed=seed)
        for param in model.params.values():
            param += rng.normal(scale=0.3, size=param.shape)
        reference = dataclasses.replace(model, graph=DenseGraph(model.graph))
        feats = np.abs(rng.normal(size=(model.num_joints, bins, 2)))
        cache = model_forward([feats], model)
        dense_cache = model_forward([feats], reference)
        for name in ("aggregated", "pre_relu", "layer_inputs"):
            for got, want in zip(getattr(cache, name), getattr(dense_cache, name)):
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        np.testing.assert_allclose(cache.logits, dense_cache.logits, rtol=0, atol=1e-12)
        grads = backward(cache, [1])
        dense_grads = backward(dense_cache, [1])
        assert list(grads) == list(dense_grads)
        for name, got in grads.items():
            np.testing.assert_allclose(got, dense_grads[name], rtol=1e-10, atol=1e-12)

    def test_body25_model_allocates_no_dense_operator(self, tmp_path):
        topo, spec = builtin_topology("body25"), BinSpec(c=1.15, num_bins=22)
        dense_bytes = 8 * (25 * 22) ** 2
        save_model(init_model(topo, spec, seed=0), tmp_path / "model.txt")
        feats = np.abs(np.random.default_rng(0).normal(size=(25, 22, 2)))
        tracemalloc.start()
        try:
            built = init_model(topo, spec, seed=1)
            loaded = load_model(tmp_path / "model.txt")
            cache = model_forward([feats], loaded)
            backward(cache, [0])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < dense_bytes
        for graph in (built.graph, loaded.graph):
            assert "adjacency" not in vars(graph) and "normalized" not in vars(graph)


class TestParameterSchema:
    @pytest.mark.parametrize("widths", [(2, 16, 16), (2, 8, 8, 4)])
    def test_model_gradients_and_document_follow_the_schema(self, tmp_path, widths):
        schema = parameter_schema(widths)
        model = toy_model(widths=widths, randomize_attention=True)
        assert list(schema) == ["w_z", "w_alpha"] + [
            f"layer{l}" for l in range(len(widths) - 1)
        ] + ["head_weight", "head_bias"]
        groups = model.params
        assert list(groups) == list(schema)
        assert [p.shape for p in groups.values()] == list(schema.values())
        feats = np.abs(np.random.default_rng(0).normal(size=(5, 3, 2)))
        cache = model_forward([feats], model)
        grads = backward(cache, [0])
        assert list(grads) == list(schema)
        assert [g.shape for g in grads.values()] == list(schema.values())
        save_model(model, tmp_path / "model.txt")
        blocks = [line.split()[1] for line in (tmp_path / "model.txt").read_text().splitlines()
                  if line.startswith("param ")]
        assert blocks == list(schema)

    def test_init_draws_matrices_in_schema_order_and_zeroes_vectors(self):
        model = toy_model(seed=21, widths=(2, 8, 4))
        rng = np.random.default_rng(21)
        for name, shape in parameter_schema((2, 8, 4)).items():
            param = model.params[name]
            if len(shape) == 1:
                assert np.array_equal(param, np.zeros(shape)), name
            else:
                bound = np.sqrt(6.0 / sum(shape))
                assert np.array_equal(param, rng.uniform(-bound, bound, size=shape)), name

    def test_parameters_out_of_schema_rejected(self):
        model = toy_model()
        params = dict(reversed(model.params.items()))
        with pytest.raises(ValueError, match="schema"):
            dataclasses.replace(model, params=params)

    @pytest.mark.parametrize("widths", [(2,), (2, 0), (2, -1), (0, 4), (2, 16, 0)])
    def test_widths_below_two_or_one_rejected(self, widths):
        with pytest.raises(ContractViolationError, match="channels"):
            parameter_schema(widths)
        with pytest.raises(ContractViolationError, match="channels"):
            init_model(TOY, SPEC3, channel_widths=widths)


class TestLoss:
    def test_uniform_logits(self):
        assert loss(np.zeros((1, 2)), [0]) == pytest.approx(np.log(2.0))
        assert loss(np.zeros((1, 2)), [1]) == pytest.approx(np.log(2.0))

    def test_confident_correct_logits(self):
        assert loss(np.array([[10.0, -10.0]]), [0]) == pytest.approx(2.061153622e-9, rel=1e-3)

    def test_loss_non_negative(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            logits = rng.normal(scale=5.0, size=(1, 2))
            assert loss(logits, [int(rng.integers(2))]) >= 0.0

    def test_rejects_bad_label(self):
        for logits, labels in [(np.zeros((1, 2)), [0.5]), (np.zeros((1, 2)), [2]),
                               (np.zeros((3, 2)), [0, 1]), (np.zeros(2), [0, 1])]:
            with pytest.raises(ContractViolationError, match="labels must be one integer 0 or 1 per row"):
                loss(logits, labels)

    @given(st.integers(1, 12), st.integers(0, 2**32 - 1))
    @settings(deadline=None)
    def test_integer_labels_match_the_one_hot_formulas_bit_for_bit(self, examples, seed):
        # The one-hot rows y written out: loss = logsumexp(u) - sum(u * y), d_logits = p - y.
        rng = np.random.default_rng(seed)
        model = toy_model(seed=seed % 7, randomize_attention=True)
        for param in model.params.values():
            param += rng.normal(scale=2.0, size=param.shape)
        labels = rng.integers(2, size=examples)
        y = np.array([(1.0, 0.0), (0.0, 1.0)])[labels]
        logits = rng.normal(scale=10.0, size=(examples, 2))
        want = float((np.logaddexp(logits[:, 0], logits[:, 1]) - (logits * y).sum(axis=-1)).sum())
        assert loss(logits, labels) == want
        cache = model_forward(list(np.abs(rng.normal(size=(examples, 5, 3, 2)))), model)
        d_logits = cache.probability - y
        grads = backward(cache, labels)
        assert np.array_equal(grads["head_bias"], d_logits.sum(axis=0))
        assert np.array_equal(grads["head_weight"], cache.pooled.T @ d_logits)


class TestAttentionReportOp:
    """joint_ranking, which orders the joints of the report explain writes."""

    def test_fresh_model_reports_zero_importance_in_input_order(self):
        model = toy_model()  # w_alpha zero-initialized
        rng = np.random.default_rng(10)
        alpha = model_forward([np.abs(rng.normal(size=(5, 3, 2)))], model).alpha[0]
        importance, ranking = joint_ranking(alpha)
        assert np.allclose(importance, 0.0)
        assert list(ranking) == [0, 1, 2, 3, 4]

    def test_concentrated_attention_ranks_first(self):
        alpha = np.full((4, 5), 0.2)
        alpha[3] = (1.0, 0.0, 0.0, 0.0, 0.0)
        importance, ranking = joint_ranking(alpha)
        assert ranking[0] == 3
        assert importance[3] == pytest.approx(0.8)

    def test_alpha_rows_sum_to_one(self):
        model = toy_model(seed=11, randomize_attention=True)
        rng = np.random.default_rng(11)
        alpha = model_forward([np.abs(rng.normal(size=(5, 3, 2)))], model).alpha[0]
        assert np.allclose(alpha.sum(axis=1), 1.0, atol=1e-9)


class TestPersistence:
    def test_save_load_round_trip_bit_exact(self, tmp_path):
        model = toy_model(seed=12, randomize_attention=True)
        path = tmp_path / "model.txt"
        save_model(model, path)
        loaded = load_model(path)
        for (name_a, a), (name_b, b) in zip(
            model.params.items(), loaded.params.items()
        ):
            assert name_a == name_b
            assert np.array_equal(a, b)
        assert loaded.bin_spec == model.bin_spec
        assert loaded.channel_widths == model.channel_widths
        assert loaded.graph.topology.edges == model.graph.topology.edges
        assert loaded.graph.topology.names == model.graph.topology.names

    def test_save_is_deterministic(self, tmp_path):
        model = toy_model(seed=13)
        save_model(model, tmp_path / "a.txt")
        save_model(model, tmp_path / "b.txt")
        assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()

    def test_loaded_model_predicts_identically(self, tmp_path):
        model = toy_model(seed=14, randomize_attention=True)
        save_model(model, tmp_path / "model.txt")
        loaded = load_model(tmp_path / "model.txt")
        rng = np.random.default_rng(14)
        feats = np.abs(rng.normal(size=(5, 3, 2)))
        a = model_forward([feats], model)
        b = model_forward([feats], loaded)
        assert np.array_equal(a.logits, b.logits)

    def test_version_mismatch_rejected(self, tmp_path):
        model = toy_model()
        path = tmp_path / "model.txt"
        save_model(model, path)
        body = path.read_text().replace("freqgcn-model v1", "freqgcn-model v9", 1)
        path.write_text(body)
        with pytest.raises(ModelMismatchError, match="unsupported"):
            load_model(path)

    def test_non_utf8_document_rejected(self, tmp_path):
        path = tmp_path / "model.txt"
        save_model(toy_model(), path)
        path.write_bytes(path.read_bytes().replace(b"toy5", b"toy\xff", 1))
        with pytest.raises(ModelMismatchError, match="UTF-8"):
            load_model(path)

    def test_blocks_out_of_schema_order_rejected(self, tmp_path):
        path = tmp_path / "model.txt"
        save_model(toy_model(), path)
        lines = path.read_text().splitlines()
        w_z = lines.index("param w_z 2 2")
        lines[w_z:w_z + 5] = lines[w_z + 3:w_z + 5] + lines[w_z:w_z + 3]  # w_alpha first
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ModelMismatchError, match="expected 'param w_z 2 2'"):
            load_model(path)

    def test_truncated_document_rejected(self, tmp_path):
        model = toy_model()
        path = tmp_path / "model.txt"
        save_model(model, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[: len(lines) // 2]))
        with pytest.raises(ModelMismatchError):
            load_model(path)

    def test_shape_corruption_rejected(self, tmp_path):
        model = toy_model()
        path = tmp_path / "model.txt"
        save_model(model, path)
        body = path.read_text().replace("param w_z 2 2", "param w_z 2 3", 1)
        path.write_text(body)
        with pytest.raises(ModelMismatchError):
            load_model(path)

    @pytest.mark.parametrize("old,new", [
        ("param w_z 2 2", "param w_z 2 x"),
        ("bins 3", "bins 0"),
        ("joints 5", "joints 4"),
    ])
    def test_malformed_header_or_block_rejected(self, tmp_path, old, new):
        path = tmp_path / "model.txt"
        save_model(toy_model(), path)
        body = path.read_text()
        assert old in body
        path.write_text(body.replace(old, new, 1))
        with pytest.raises(ModelMismatchError):
            load_model(path)

    def test_single_channel_width_rejected(self, tmp_path):
        # A document that is consistent apart from having no GCN layer at all.
        path = tmp_path / "model.txt"
        save_model(toy_model(widths=(2, 2)), path)
        lines = path.read_text().splitlines()
        layer = lines.index("param layer0 2 2")
        del lines[layer:layer + 3]
        lines[lines.index("channels 2 2")] = "channels 2"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ModelMismatchError, match="channels"):
            load_model(path)
