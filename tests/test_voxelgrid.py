import numpy as np
import pytest

from voxelcodec import (PointCloud, VoxelGrid, build, child_region_crops, grid_from_level,
                        local_crops, pool_down, rebuild_from_symbols)
from voxelcodec.entropy import make_level_context

from conftest import random_cloud, structured_cloud, voxelize_directly


class TestGridFromLevel:
    def test_root_255_full_grid(self):
        tree = rebuild_from_symbols([255], 1)
        grid = grid_from_level(tree, 1)
        assert grid.occupancy.sum() == 8
        assert np.all(grid.occupancy == 1)

    def test_root_16_single_cell(self):
        tree = rebuild_from_symbols([16], 1)
        grid = grid_from_level(tree, 1)
        expect = np.zeros((2, 2, 2), dtype=np.uint8)
        expect[1, 0, 0] = 1
        assert np.array_equal(grid.occupancy, expect)

    def test_matches_direct_voxelization(self):
        # toy cloud: the level-k grid must equal voxelizing the points directly
        cloud = structured_cloud(400, seed=2)
        tree = build(cloud, 4)
        for k in range(1, 5):
            grid = grid_from_level(tree, k)
            assert np.array_equal(grid.occupancy, voxelize_directly(cloud.points, k))

    def test_level_not_available(self):
        tree = build(random_cloud(20, 0), 2)
        with pytest.raises(ValueError):
            grid_from_level(tree, 3)

    def test_popcount_invariant(self):
        tree = build(random_cloud(300, 1), 5)
        for k in range(6):
            grid = grid_from_level(tree, k)
            assert grid.occupied_count() == tree.node_count(k)
            assert grid.occupancy.sum() == tree.node_count(k)

    def test_pooling_consistency(self):
        tree = build(random_cloud(500, 4), 6)
        for k in range(1, 7):
            fine = grid_from_level(tree, k)
            coarse = grid_from_level(tree, k - 1)
            assert np.array_equal(pool_down(fine), coarse.occupancy)


class TestLocalCrop:
    def test_m1_single_occupied_entry(self):
        tree = build(PointCloud([[0.1, 0.1, 0.1]]), 3)
        grid = grid_from_level(tree, 3)
        crop = local_crops(grid, np.array([[0, 0, 0]]), 1)[0]
        assert crop.shape == (1, 1, 1)
        assert crop[0, 0, 0] == 1

    def test_corner_zero_padding(self):
        grid = VoxelGrid(3, np.array([[0, 0, 0]]))
        crop = local_crops(grid, np.array([[0, 0, 0]]), 3)[0]
        expect = np.zeros((3, 3, 3), dtype=np.uint8)
        expect[1, 1, 1] = 1
        assert np.array_equal(crop, expect)

    def test_dense_interior_all_ones(self):
        n = 16
        cells = np.stack(np.meshgrid(*[np.arange(n)] * 3, indexing="ij"), -1).reshape(-1, 3)
        grid = VoxelGrid(4, cells)
        crop = local_crops(grid, np.array([[8, 8, 8]]), 9)[0]
        assert crop.all()

    def test_even_m_rejected(self):
        grid = VoxelGrid(2, np.array([[0, 0, 0]]))
        with pytest.raises(ValueError):
            local_crops(grid, np.array([[0, 0, 0]]), 4)

    def test_crop_locality(self):
        # flipping a cell beyond Chebyshev radius (M-1)/2 leaves the crop unchanged
        cells = np.array([[8, 8, 8], [15, 15, 15]])
        near = VoxelGrid(4, cells[:1])
        far = VoxelGrid(4, cells)
        a = local_crops(near, np.array([[8, 8, 8]]), 9)[0]
        b = local_crops(far, np.array([[8, 8, 8]]), 9)[0]
        assert np.array_equal(a, b)

    def test_sparse_path_matches_dense(self):
        # same cell pattern through a dense (depth 6) and a sparse (depth 10) grid
        rng = np.random.default_rng(3)
        cells6 = rng.integers(0, 64, (300, 3))
        dense = VoxelGrid(6, cells6)
        sparse = VoxelGrid(10, cells6)          # depth > dense limit, same coords
        assert sparse._dense is None and dense._dense is not None
        centers = cells6[:40]
        a = local_crops(dense, centers, 9)
        b = local_crops(sparse, centers, 9)
        assert np.array_equal(a, b)

    def test_batch_matches_single(self):
        # each row of the batch is one slice of the zero-padded dense grid
        tree = build(random_cloud(200, 5), 4)
        grid = grid_from_level(tree, 4)
        cells = tree.levels[4][:17]
        batch = local_crops(grid, cells, 5)
        padded = np.pad(grid.occupancy, 2)
        for i, (x, y, z) in enumerate(cells):
            assert np.array_equal(batch[i], padded[x:x + 5, y:y + 5, z:z + 5])


class TestChildRegionCrop:
    def test_empty_child_grid(self):
        grid = VoxelGrid(3, np.empty((0, 3), dtype=np.int64))
        crop = child_region_crops(grid, np.array([[1, 1, 1]]))[0]
        assert crop.shape == (10, 10, 10)
        assert crop.sum() == 0

    def test_own_children_at_center(self):
        # only the node's 8 children occupied -> ones exactly at crop indices {4,5}^3
        parent = np.array([3, 2, 1])
        kids = np.stack(np.meshgrid([0, 1], [0, 1], [0, 1], indexing="ij"), -1).reshape(-1, 3)
        grid = VoxelGrid(3, 2 * parent + kids)
        crop = child_region_crops(grid, parent[None])[0]
        expect = np.zeros((10, 10, 10), dtype=np.uint8)
        expect[4:6, 4:6, 4:6] = 1
        assert np.array_equal(crop, expect)

    def test_center_block_pools_to_node_bit(self):
        tree = build(random_cloud(300, 7), 5)
        grid5 = grid_from_level(tree, 5)
        cells4 = tree.levels[4]
        crops = child_region_crops(grid5, cells4)
        center_pool = crops[:, 4:6, 4:6, 4:6].max(axis=(1, 2, 3))
        assert np.all(center_pool == 1)   # every depth-4 node has occupied children

    def test_alignment_against_manual_window(self):
        # the window must span depth-(k+1) indices [2c-4, 2c+6) per axis
        rng = np.random.default_rng(11)
        cells = rng.integers(0, 16, (200, 3))
        grid = VoxelGrid(4, cells)
        dense = grid.occupancy
        c = np.array([2, 5, 3])   # depth-3 cell
        got = child_region_crops(grid, c[None], 10)[0]
        manual = np.zeros((10, 10, 10), dtype=np.uint8)
        lo = 2 * c - 4
        for a in range(10):
            for b in range(10):
                for e in range(10):
                    x, y, z = lo + [a, b, e]
                    if 0 <= x < 16 and 0 <= y < 16 and 0 <= z < 16:
                        manual[a, b, e] = dense[x, y, z]
        assert np.array_equal(got, manual)


class TestTemporalContext:
    def test_first_frame_zero_prev(self):
        tree = build(random_cloud(100, 2), 3)
        g = grid_from_level(tree, 2)
        ctx = make_level_context(2, 3, tree.levels[2][:1], grid=g)
        cur = ctx.crops(9)[0]
        prev, nxt, child = (c[0] for c in ctx.temporal_crops(9, 10))
        assert prev.sum() == 0 and child.sum() == 0
        assert cur[4, 4, 4] == 1

    def test_identical_frames_equal_crops(self):
        tree = build(structured_cloud(300, 3), 4)
        g = grid_from_level(tree, 3)
        ctx = make_level_context(3, 4, tree.levels[3][5:6], grid=g, grid_prev=g, grid_next=g)
        cur = ctx.crops(9)[0]
        prev, nxt, _ = (c[0] for c in ctx.temporal_crops(9, 10))
        assert np.array_equal(cur, prev)
        assert np.array_equal(cur, nxt)

    def test_two_frame_compositional_oracle(self):
        a = build(random_cloud(200, 8), 4)
        b = build(random_cloud(200, 9), 4)
        ga3, gb3, gb4 = grid_from_level(a, 3), grid_from_level(b, 3), grid_from_level(b, 4)
        center = a.levels[3][:1]
        ctx = make_level_context(3, 4, center, grid=ga3, grid_prev=gb3, grid_prev_child=gb4)
        cur = ctx.crops(9)[0]
        prev, nxt, child = (c[0] for c in ctx.temporal_crops(9, 10))
        assert np.array_equal(cur, local_crops(ga3, center, 9)[0])
        assert np.array_equal(prev, local_crops(gb3, center, 9)[0])
        assert nxt.sum() == 0
        assert np.array_equal(child, child_region_crops(gb4, center)[0])
