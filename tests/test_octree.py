import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voxelcodec import (NormalizationParams, PointCloud, UniformModel, build, decode_cloud,
                        encode_cloud, normalize, octree, reconstruct_centers)

from conftest import assert_octree_invariants, random_cloud, structured_cloud
from oracles import expand_children


class TestBuild:
    def test_toy_quantization_example(self):
        # a single point at (0.6, 0.7, 0.7) quantizes to cell center (0.625, 0.625, 0.625) at depth 2
        tree = build(PointCloud([[0.6, 0.7, 0.7]]), 2)
        assert len(tree.levels[2]) == 1
        centers = reconstruct_centers(tree, NormalizationParams.identity())
        assert np.allclose(centers.points, [[0.625, 0.625, 0.625]])

    @pytest.mark.parametrize("depth", [1, 3, 7, 12])
    def test_single_point_single_path(self, depth):
        tree = build(PointCloud([[0.31, 0.62, 0.93]]), depth)
        for k in range(depth + 1):
            assert len(tree.levels[k]) == 1
        for sym in np.concatenate(tree.symbols):
            assert bin(int(sym)).count("1") == 1

    def test_eight_corner_points_root_255(self):
        # one point in each child octant -> root symbol has all 8 bits set
        offs = [0.25, 0.75]
        pts = [[x, y, z] for x in offs for y in offs for z in offs]
        tree = build(PointCloud(pts), 1)
        assert tree.symbols[0][0] == 255

    def test_child_bit_layout(self):
        # a point only in the upper-x half: bit 4 (= 4*1 + 2*0 + 0)
        tree = build(PointCloud([[0.75, 0.25, 0.25]]), 1)
        assert tree.symbols[0][0] == 1 << 4
        assert np.array_equal(tree.levels[1], [[1, 0, 0]])

    def test_boundary_clamp(self):
        tree = build(PointCloud([[1.0, 1.0, 1.0]]), 3)
        assert np.array_equal(tree.levels[3], [[7, 7, 7]])

    def test_duplicates_collapse(self):
        tree = build(PointCloud([[0.3, 0.3, 0.3]] * 50), 4)
        assert len(tree.levels[4]) == 1

    def test_errors(self):
        with pytest.raises(ValueError):
            build(PointCloud(), 3)
        with pytest.raises(ValueError):
            build(PointCloud([[0.5, 0.5, 0.5]]), 0)
        with pytest.raises(ValueError):
            build(PointCloud([[0.5, 0.5, 0.5]]), 17)
        with pytest.raises(ValueError):
            build(PointCloud([[1.5, 0.5, 0.5]]), 3)

    def test_invariants_random(self):
        for seed in range(5):
            tree = build(random_cloud(700, seed), 6)
            assert_octree_invariants(tree)

    def test_monotone_node_counts(self):
        tree = build(random_cloud(2000, 3), 8)
        counts = [len(tree.levels[k]) for k in range(9)]
        assert all(a <= b for a, b in zip(counts, counts[1:]))
        assert counts[-1] <= 2000


class TestLevelSymbols:
    def test_single_point_root(self):
        tree = build(PointCloud([[0.2, 0.2, 0.2]]), 3)
        assert len(tree.symbols[0]) == 1
        assert np.array_equal(tree.levels[0], [[0, 0, 0]])

    def test_lexicographic_order(self):
        # cells (0,0,0) and (0,0,1) at depth 1 emit in that order
        tree = build(PointCloud([[0.25, 0.25, 0.75], [0.25, 0.25, 0.25]]), 2)
        cells = tree.levels[1]
        assert tuple(cells[0]) == (0, 0, 0)
        assert tuple(cells[1]) == (0, 0, 1)


class TestRebuild:
    def test_symbol_16_bit_arithmetic(self):
        root = np.zeros((1, 3), dtype=np.int64)
        kids = octree._expand_children(root, np.array([16], dtype=np.uint8), 0)
        assert np.array_equal(kids, [[1, 0, 0]])

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 15), st.integers(0, 2**32 - 1), st.integers(0, 300))
    def test_expand_children_matches_broadcast_oracle(self, k, seed, n):
        """Random sorted depth-k cell sets, symbols 1..255: the packed-key
        expansion gives the oracle's cells, int64, in the same order; at
        k = 15 the child keys reach 48 bits."""
        rng = np.random.default_rng(seed)
        cells = np.unique(rng.integers(0, 1 << k, (n, 3)), axis=0)   # lexicographic order
        syms = rng.integers(1, 256, len(cells)).astype(np.uint8)
        if len(cells):
            # the grid's last cell, all children set: the top child's key is 2^(3k+3) - 1
            cells[-1], syms[-1] = (1 << k) - 1, 255
        got = octree._expand_children(cells, syms, k)
        expected = expand_children(cells, syms, k)
        assert got.dtype == np.int64 and got.shape == expected.shape
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("seed", range(10))
    def test_roundtrip_100_random_octrees(self, seed):
        # 10 seeds x 10 clouds of varying size/depth, through the decoder
        rng = np.random.default_rng(seed)
        for i in range(10):
            n = int(rng.integers(5, 400))
            d = int(rng.integers(1, 7))
            cloud = random_cloud(n, seed * 100 + i)
            tree = build(normalize(cloud)[0], d)
            data = encode_cloud(cloud, d, d, UniformModel())
            _, back, _ = decode_cloud(data, UniformModel(), return_tree=True)
            assert back.max_depth == tree.max_depth
            assert len(back.levels) == len(tree.levels)
            assert len(back.symbols) == len(tree.symbols)
            for a, b in zip(tree.levels, back.levels):
                assert np.array_equal(a, b)
            for a, b in zip(tree.symbols, back.symbols):
                assert np.array_equal(a, b)


class TestReconstruct:
    def test_depth1_all_children(self):
        offs = [0.25, 0.75]
        pts = [[x, y, z] for x in offs for y in offs for z in offs]
        tree = build(PointCloud(pts), 1)
        centers = reconstruct_centers(tree, NormalizationParams.identity())
        expect = sorted([x, y, z] for x in offs for y in offs for z in offs)
        assert np.allclose(sorted(centers.points.tolist()), expect)

    @pytest.mark.parametrize("depth", [2, 4, 6])
    def test_half_cell_diagonal_bound(self, depth):
        cloud = random_cloud(800, seed=depth, lo=-4.0, hi=9.0)
        norm, params = normalize(cloud)
        tree = build(norm, depth)
        centers = reconstruct_centers(tree, params).points
        bound = (np.sqrt(3) / 2) * 2.0 ** -depth * params.edge
        d2 = ((cloud.points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2).min(axis=1)
        assert np.sqrt(d2).max() <= bound * (1 + 1e-12)

    def test_scaled_space_bound_is_exact(self):
        # in units of the leaf grid, every point sits within 0.5 of its own cell center per axis
        cloud = random_cloud(3000, seed=8)
        depth = 5
        tree = build(cloud, depth)
        scaled = cloud.points * (1 << depth)
        idx = np.clip(np.floor(scaled).astype(np.int64), 0, (1 << depth) - 1)
        assert np.abs(scaled - (idx + 0.5)).max() <= 0.5


class TestTruncate:
    def test_identity_at_max_depth(self):
        tree = build(random_cloud(100, 0), 5)
        assert tree.truncate(5) is tree

    def test_to_depth_one(self):
        tree = build(random_cloud(100, 0), 5).truncate(1)
        assert tree.max_depth == 1
        assert len(tree.symbols) == 1

    @pytest.mark.parametrize("dt", [1, 2, 3, 4])
    def test_equals_direct_build(self, dt):
        cloud = random_cloud(600, seed=dt + 40)
        full = build(cloud, 5).truncate(dt)
        direct = build(cloud, dt)
        for a, b in zip(full.levels, direct.levels):
            assert np.array_equal(a, b)
        for a, b in zip(full.symbols, direct.symbols):
            assert np.array_equal(a, b)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 300), st.integers(1, 12), st.data())
    def test_truncated_build_equals_build_truncated(self, seed, n, depth, data):
        """Building to the truncation depth gives the levels and symbols of
        the deeper tree truncated there, points at exactly 0.0 and 1.0
        included (the clamp of 1.0 into the last cell)."""
        trunc = data.draw(st.integers(1, depth))
        rng = np.random.default_rng(seed)
        pts = rng.random((n, 3))
        pts[rng.random((n, 3)) < 0.2] = 0.0
        pts[rng.random((n, 3)) < 0.2] = 1.0
        pts[0], pts[-1] = 0.0, 1.0
        cloud = PointCloud(pts)
        direct, full = build(cloud, trunc), build(cloud, depth).truncate(trunc)
        assert direct.max_depth == full.max_depth == trunc
        assert len(direct.levels) == len(full.levels) and len(direct.symbols) == len(full.symbols)
        for a, b in zip(direct.levels, full.levels):
            assert np.array_equal(a, b)
        for a, b in zip(direct.symbols, full.symbols):
            assert np.array_equal(a, b)

    def test_out_of_range(self):
        tree = build(random_cloud(10, 0), 3)
        with pytest.raises(ValueError):
            tree.truncate(0)
        with pytest.raises(ValueError):
            tree.truncate(4)


def test_canonical_determinism_under_permutation():
    cloud = structured_cloud(1500, seed=6)
    rng = np.random.default_rng(0)
    stream = np.concatenate(build(cloud, 6).symbols).tobytes()
    for _ in range(3):
        perm = rng.permutation(len(cloud))
        shuffled = PointCloud(cloud.points[perm])
        assert np.concatenate(build(shuffled, 6).symbols).tobytes() == stream
