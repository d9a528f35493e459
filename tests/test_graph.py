import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import TOY5_TOPOLOGY_TEXT, random_connected_topology

from freqgcn.errors import ContractViolationError, FormatError
from freqgcn.graph import (
    SkeletonTopology,
    build_feature_graph,
    builtin_topology,
    read_topology,
)
from oracles import adjacency, node_index, normalize_adjacency, normalized, spectral_radius


class TestBuiltinTopology:
    def test_toy5(self):
        topo = builtin_topology("toy5")
        assert topo.num_joints == 5
        assert topo.num_edges == 4
        assert set(topo.edges) == {(0, 1), (1, 2), (1, 3), (1, 4)}

    def test_body25_is_a_tree(self):
        topo = builtin_topology("body25")
        assert topo.num_joints == 25
        assert topo.num_edges == 24

    def test_coco18_is_a_tree(self):
        topo = builtin_topology("coco18")
        assert topo.num_joints == 18
        assert topo.num_edges == 17

    def test_unknown_preset_lists_valid_names(self):
        with pytest.raises(ContractViolationError,
                           match="^unknown topology preset 'nope'; valid names: body25, coco18, toy5$"):
            builtin_topology("nope")

    def test_disconnected_topology_rejected(self):
        with pytest.raises(ValueError, match="connected"):
            SkeletonTopology(num_joints=4, edges=((0, 1), (2, 3)), root=0, neck=1)

    @pytest.mark.parametrize("fields,message", [
        (dict(num_joints=1, edges=(), root=0, neck=0), "a topology needs at least 2 joints"),
        (dict(num_joints=2, edges=((0, 1), (1, 1)), root=0, neck=1), "self-loop on joint 1"),
        (dict(num_joints=2, edges=((0, 1),), root=2, neck=1), "root/neck must be valid joint indices"),
        (dict(num_joints=2, edges=((0, 1),), root=0, neck=-1), "root/neck must be valid joint indices"),
        (dict(num_joints=2, edges=((0, 1),), root=0, neck=1, names=("a",)), "1 names for 2 joints"),
    ], ids=["one-joint", "self-loop", "root-past-n", "neck-negative", "one-name-for-two"])
    def test_invalid_topology_rejected(self, fields, message):
        with pytest.raises(ContractViolationError, match=message):
            SkeletonTopology(**fields)

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            SkeletonTopology(num_joints=3, edges=((0, 1), (1, 0), (1, 2)), root=0, neck=1)

    def test_file_round_trip(self, tmp_path):
        topo = builtin_topology("toy5")
        path = tmp_path / "toy5.topo"
        path.write_text(TOY5_TOPOLOGY_TEXT, encoding="utf-8")
        loaded = read_topology(path)
        assert loaded.num_joints == topo.num_joints
        assert set(loaded.edges) == set(topo.edges)
        assert (loaded.root, loaded.neck) == (topo.root, topo.neck)
        assert loaded.names == topo.names

    @pytest.mark.parametrize("text,message", [
        ("# N=3\n# joint 7 far\n0 1\n1 2\n", "t.topo:2: joint 7 is outside [0, 3)"),
        ("# N=3\n0 1\n1 2\n# joint -1 neg\n", "t.topo:4: joint -1 is outside [0, 3)"),
        ("# joint 5 far\n0 1\n1 2\n# N=3\n", "t.topo:1: joint 5 is outside [0, 3)"),
        ("# N=3\n# joint 1 x\n0 1\n# joint 1 y\n1 2\n", "t.topo:4: joint 1 is named twice"),
    ], ids=["past-n", "negative", "past-a-later-n", "named-twice"])
    def test_bad_joint_line_is_a_format_error(self, tmp_path, text, message):
        path = tmp_path / "t.topo"
        path.write_text(text)
        with pytest.raises(FormatError) as caught:
            read_topology(path)
        assert str(caught.value) == message
        assert caught.value.exit_code == 1

    @pytest.mark.parametrize("text,message", [
        ("# N=5\n# N=3\n# root=0\n# root=2\n0 1\n1 2\n", "t.topo:2: a second '# N=' line"),
        ("# N=3\n# root=0\n0 1\n# root=2\n1 2\n", "t.topo:4: a second '# root=' line"),
        ("# neck=1\n# N=3\n0 1\n1 2\n#neck=1\n", "t.topo:5: a second '# neck=' line"),
    ], ids=["n", "root", "neck-same-value"])
    def test_repeated_header_line_is_a_format_error(self, tmp_path, text, message):
        path = tmp_path / "t.topo"
        path.write_text(text)
        with pytest.raises(FormatError) as caught:
            read_topology(path)
        assert str(caught.value) == message
        assert caught.value.exit_code == 1

    def test_a_file_without_the_joint_count_is_a_format_error(self, tmp_path):
        path = tmp_path / "t.topo"
        path.write_text("# root=0\n0 1\n1 2\n")
        with pytest.raises(FormatError) as caught:
            read_topology(path)
        assert str(caught.value) == "t.topo: missing '# N=<n>' header"

    def test_blank_lines_are_skipped_and_still_counted(self, tmp_path):
        path = tmp_path / "t.topo"
        path.write_text("\n# N=3\n  \n0 1\n\n1 2\n\n# joint 4 far\n")
        with pytest.raises(FormatError, match="^t.topo:8: joint 4 is outside"):
            read_topology(path)
        path.write_text("\n# N=3\n  \n0 1\n\n1 2\n\n")
        assert read_topology(path).edges == ((0, 1), (1, 2))

    def test_joint_names_may_precede_the_joint_count(self, tmp_path):
        path = tmp_path / "t.topo"
        path.write_text("# joint 2 tip\n# joint 0 root\n# N=3\n0 1\n1 2\n")
        assert read_topology(path).names == ("root", "j1", "tip")


class TestBuildFeatureGraph:
    def test_zero_bins_rejected(self):
        with pytest.raises(ContractViolationError, match="num_bins must be >= 1, got 0"):
            build_feature_graph(builtin_topology("toy5"), 0)

    def test_single_bin_keeps_skeleton_only(self):
        fg = build_feature_graph(builtin_topology("toy5"), num_bins=1)
        assert fg.num_nodes == 5
        assert adjacency(fg).sum() / 2 == 4

    def test_toy5_three_bins_edge_count(self):
        fg = build_feature_graph(builtin_topology("toy5"), num_bins=3)
        assert fg.num_nodes == 15
        # 3 bins x 4 skeleton edges + 5 joints x 2 bin links
        assert adjacency(fg).sum() / 2 == 3 * 4 + 5 * 2

    def test_two_bins_gives_one_bin_neighbor_each(self):
        topo = builtin_topology("coco18")
        fg = build_feature_graph(topo, num_bins=2)
        dense = adjacency(fg)
        for i in range(topo.num_joints):
            a = node_index(fg, 0, i)
            b = node_index(fg, 1, i)
            assert dense[a, b] == 1.0

    @given(st.integers(2, 8), st.integers(1, 5), st.integers(0, 4), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_edge_count_formula(self, num_joints, num_bins, extra, seed):
        rng = np.random.default_rng(seed)
        topo = random_connected_topology(rng, num_joints, extra_edges=extra)
        fg = build_feature_graph(topo, num_bins)
        expected = num_bins * topo.num_edges + num_joints * (num_bins - 1)
        dense = adjacency(fg)
        assert dense.sum() / 2 == expected
        assert np.array_equal(dense, dense.T)
        assert np.all(np.diag(dense) == 0.0)

    def test_feature_graph_is_connected(self):
        rng = np.random.default_rng(0)
        topo = random_connected_topology(rng, 6, extra_edges=1)
        fg = build_feature_graph(topo, num_bins=4)
        # BFS over the adjacency
        dense = adjacency(fg)
        seen = {0}
        stack = [0]
        while stack:
            node = stack.pop()
            for nb in np.flatnonzero(dense[node]):
                if int(nb) not in seen:
                    seen.add(int(nb))
                    stack.append(int(nb))
        assert len(seen) == fg.num_nodes

    def test_node_index_is_a_bijection(self):
        fg = build_feature_graph(builtin_topology("toy5"), num_bins=3)
        seen = {node_index(fg, b, i) for b in range(3) for i in range(5)}
        assert seen == set(range(15))

    def test_joint_relabeling_commutes_with_construction(self):
        rng = np.random.default_rng(12)
        topo = random_connected_topology(rng, 5, extra_edges=1)
        perm = rng.permutation(5)
        remapped = SkeletonTopology(
            num_joints=5,
            edges=tuple((int(perm[i]), int(perm[j])) for i, j in topo.edges),
            root=int(perm[topo.root]),
            neck=int(perm[topo.neck]),
        )
        bins = 3
        fg = build_feature_graph(topo, bins)
        fg_perm = build_feature_graph(remapped, bins)
        node_map = np.zeros(fg.num_nodes, dtype=int)
        for i in range(5):
            for b in range(bins):
                node_map[node_index(fg, b, i)] = node_index(fg_perm, b, int(perm[i]))
        assert np.array_equal(adjacency(fg_perm)[np.ix_(node_map, node_map)], adjacency(fg))


class TestPropagate:
    """The structured operator against the dense normalized adjacency it replaces."""

    @staticmethod
    def propagate(fg, x):
        """``fg.propagate`` into fresh buffers."""
        return fg.propagate(x, np.empty_like(x), np.empty(2 * x.size))

    def assert_matches_dense(self, fg, x):
        dense = normalize_adjacency(adjacency(fg)) @ x
        np.testing.assert_allclose(self.propagate(fg, x), dense, rtol=0, atol=1e-12)

    @given(st.integers(2, 10), st.integers(1, 6), st.integers(0, 4), st.integers(1, 17),
           st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_random_topologies(self, num_joints, num_bins, extra, channels, seed):
        rng = np.random.default_rng(seed)
        topo = random_connected_topology(rng, num_joints, extra_edges=extra)
        fg = build_feature_graph(topo, num_bins)
        self.assert_matches_dense(fg, rng.normal(size=(fg.num_nodes, channels)))

    @pytest.mark.parametrize("preset", ["toy5", "coco18", "body25"])
    @pytest.mark.parametrize("channels", [2, 16])
    def test_presets_at_22_bins(self, preset, channels):
        fg = build_feature_graph(builtin_topology(preset), num_bins=22)
        x = np.random.default_rng(channels).normal(size=(fg.num_nodes, channels))
        self.assert_matches_dense(fg, x)

    @pytest.mark.parametrize("graphs", [1, 3])
    def test_stacked_graphs_into_caller_buffers(self, graphs):
        fg = build_feature_graph(builtin_topology("body25"), num_bins=22)
        x = np.random.default_rng(graphs).normal(size=(graphs * fg.num_nodes, 16))
        out, scratch = np.empty_like(x), np.empty(2 * x.size)
        result = fg.propagate(x, out, scratch)
        assert np.shares_memory(result, out)
        dense = normalize_adjacency(adjacency(fg))
        for g, rows in enumerate(np.split(x, graphs)):
            np.testing.assert_allclose(np.split(result, graphs)[g], dense @ rows, rtol=0, atol=1e-12)
            assert np.array_equal(np.split(result, graphs)[g], self.propagate(fg, rows))

    def test_dense_forms_are_built_only_on_request(self):
        fg = build_feature_graph(builtin_topology("body25"), num_bins=22)
        assert not any(hasattr(fg, name) for name in ("adjacency", "normalized", "node_index"))
        assert normalized(fg).shape == (550, 550)


class TestNormalizeAdjacency:
    def test_isolated_node(self):
        assert np.array_equal(normalize_adjacency(np.zeros((1, 1))), [[1.0]])

    def test_two_connected_nodes(self):
        out = normalize_adjacency(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(out, [[0.5, 0.5], [0.5, 0.5]])

    def test_three_node_path(self):
        a = np.zeros((3, 3))
        a[0, 1] = a[1, 0] = a[1, 2] = a[2, 1] = 1.0
        out = normalize_adjacency(a)
        assert np.allclose(np.diag(out), [1 / 2, 1 / 3, 1 / 2])
        assert out[0, 1] == pytest.approx(1 / np.sqrt(6))
        assert np.allclose(out, out.T)

    def test_asymmetric_input_rejected(self):
        a = np.zeros((2, 2))
        a[0, 1] = 1.0
        with pytest.raises(ContractViolationError):
            normalize_adjacency(a)

    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(ContractViolationError):
            normalize_adjacency(np.eye(3))

    @given(st.integers(2, 10), st.integers(1, 5), st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_spectral_radius_bounded(self, num_joints, num_bins, seed):
        rng = np.random.default_rng(seed)
        topo = random_connected_topology(rng, num_joints, extra_edges=int(rng.integers(0, 3)))
        fg = build_feature_graph(topo, num_bins)
        assert spectral_radius(normalized(fg)) <= 1.0 + 1e-9

    @given(st.integers(2, 6), st.integers(1, 3), st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_power_iteration_agrees_with_eigendecomposition(self, num_joints, num_bins, seed):
        rng = np.random.default_rng(seed)
        topo = random_connected_topology(rng, num_joints)
        fg = build_feature_graph(topo, num_bins)
        if fg.num_nodes > 20:
            return
        exact = float(np.max(np.abs(np.linalg.eigvalsh(normalized(fg)))))
        assert spectral_radius(normalized(fg)) == pytest.approx(exact, abs=1e-6)
