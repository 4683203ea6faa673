import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voxelcodec import PointCloud, VoxelGrid, build, child_region_crops, local_crops, octree
from voxelcodec.entropy import make_level_context

from conftest import (contains, crops_by_contains, random_cloud, structured_cloud,
                      voxelize_directly)


def _whole(grid):
    """The grid's full occupancy cube, as one box."""
    return grid.box((0, 0, 0), (grid.size,) * 3)


def _dense(cells, depth):
    """A dense occupancy cube scattered from cells, bypassing VoxelGrid."""
    n = 1 << depth
    dense = np.zeros((n, n, n), dtype=np.uint8)
    dense[cells[:, 0], cells[:, 1], cells[:, 2]] = 1
    return dense


def _root_children(symbol):
    """The depth-1 grid of a root with occupancy symbol `symbol`."""
    root = np.zeros((1, 3), dtype=np.int64)
    return VoxelGrid(1, octree._expand_children(root, np.array([symbol], dtype=np.uint8), 0))


class TestGridFromLevel:
    def test_root_255_full_grid(self):
        grid = _root_children(255)
        assert len(grid.keys) == 8
        assert np.all(_whole(grid) == 1)

    def test_root_16_single_cell(self):
        grid = _root_children(16)
        expect = np.zeros((2, 2, 2), dtype=np.uint8)
        expect[1, 0, 0] = 1
        assert np.array_equal(_whole(grid), expect)

    def test_matches_direct_voxelization(self):
        # toy cloud: the level-k grid must equal voxelizing the points directly
        cloud = structured_cloud(400, seed=2)
        tree = build(cloud, 4)
        for k in range(1, 5):
            grid = VoxelGrid(k, tree.levels[k])
            assert np.array_equal(_whole(grid), voxelize_directly(cloud.points, k))

    def test_popcount_invariant(self):
        tree = build(random_cloud(300, 1), 5)
        for k in range(6):
            grid = VoxelGrid(k, tree.levels[k])
            assert len(grid.keys) == len(tree.levels[k])
            assert _whole(grid).sum() == len(tree.levels[k])

    def test_pooling_consistency(self):
        tree = build(random_cloud(500, 4), 6)
        for k in range(1, 7):
            fine = _whole(VoxelGrid(k, tree.levels[k]))
            coarse = _whole(VoxelGrid(k - 1, tree.levels[k - 1]))
            s = len(coarse)
            assert np.array_equal(fine.reshape(s, 2, s, 2, s, 2).max(axis=(1, 3, 5)), coarse)


class TestLocalCrop:
    def test_m1_single_occupied_entry(self):
        tree = build(PointCloud([[0.1, 0.1, 0.1]]), 3)
        grid = VoxelGrid(3, tree.levels[3])
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

    def test_deep_grid_matches_shallow(self):
        # the same cells near the origin in a depth-6, a depth-10 and a depth-12 grid
        rng = np.random.default_rng(3)
        cells6 = rng.integers(0, 64, (300, 3))
        centers = cells6[:40]
        shallow = local_crops(VoxelGrid(6, cells6), centers, 9)
        assert np.array_equal(shallow, crops_by_contains(VoxelGrid(6, cells6), centers - 4, 9))
        for depth in (10, 12):
            assert np.array_equal(local_crops(VoxelGrid(depth, cells6), centers, 9), shallow)

    def test_batch_matches_single(self):
        # each row of the batch is one slice of the zero-padded dense grid
        tree = build(random_cloud(200, 5), 4)
        grid = VoxelGrid(4, tree.levels[4])
        cells = tree.levels[4][:17]
        batch = local_crops(grid, cells, 5)
        padded = np.pad(_dense(tree.levels[4], 4), 2)
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
        grid5 = VoxelGrid(5, tree.levels[5])
        cells4 = tree.levels[4]
        crops = child_region_crops(grid5, cells4)
        center_pool = crops[:, 4:6, 4:6, 4:6].max(axis=(1, 2, 3))
        assert np.all(center_pool == 1)   # every depth-4 node has occupied children

    def test_alignment_against_manual_window(self):
        # the window must span depth-(k+1) indices [2c-4, 2c+6) per axis
        rng = np.random.default_rng(11)
        cells = rng.integers(0, 16, (200, 3))
        grid = VoxelGrid(4, cells)
        dense = _dense(cells, 4)
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
        g = VoxelGrid(2, tree.levels[2])
        ctx = make_level_context(2, 3, tree.levels[2][:1], grid=g)
        cur = ctx.crops(9)[0]
        prev, nxt, child = (c[0] for c in ctx.temporal_crops(9, 10))
        assert prev.sum() == 0 and child.sum() == 0
        assert cur[4, 4, 4] == 1

    def test_identical_frames_equal_crops(self):
        tree = build(structured_cloud(300, 3), 4)
        g = VoxelGrid(3, tree.levels[3])
        ctx = make_level_context(3, 4, tree.levels[3][5:6], grid=g, grid_prev=g, grid_next=g)
        cur = ctx.crops(9)[0]
        prev, nxt, _ = (c[0] for c in ctx.temporal_crops(9, 10))
        assert np.array_equal(cur, prev)
        assert np.array_equal(cur, nxt)

    def test_two_frame_compositional_oracle(self):
        a = build(random_cloud(200, 8), 4)
        b = build(random_cloud(200, 9), 4)
        ga3, gb3 = VoxelGrid(3, a.levels[3]), VoxelGrid(3, b.levels[3])
        gb4 = VoxelGrid(4, b.levels[4])
        center = a.levels[3][:1]
        ctx = make_level_context(3, 4, center, grid=ga3, grid_prev=gb3, grid_prev_child=gb4)
        cur = ctx.crops(9)[0]
        prev, nxt, child = (c[0] for c in ctx.temporal_crops(9, 10))
        assert np.array_equal(cur, local_crops(ga3, center, 9)[0])
        assert np.array_equal(prev, local_crops(gb3, center, 9)[0])
        assert nxt.sum() == 0
        assert np.array_equal(child, child_region_crops(gb4, center)[0])


def _box_by_contains(grid, lo, ext):
    """The box [lo, lo + ext) read cell by cell with `contains`."""
    return contains(grid, np.indices(ext).reshape(3, -1).T + lo).reshape(ext)


def _placement(rng, side, size):
    """(lo, ext) along one axis: straddling the low or the high face, spanning
    the whole axis past both faces (edges up to 16; longer axes get an inside
    box), inside, or wholly outside the grid."""
    if side == "low":
        ext = int(rng.integers(2, 20))
        return int(rng.integers(1 - ext, 0)), ext
    if side == "high":
        ext = int(rng.integers(2, 20))
        return int(rng.integers(size - ext + 1, size)), ext
    if side == "both" and size <= 16:
        lo = -int(rng.integers(1, 4))
        return lo, size - lo + int(rng.integers(1, 4))
    if side == "outside":
        ext = int(rng.integers(1, 6))
        return (-ext - int(rng.integers(0, 3))) if rng.random() < 0.5 \
            else size + int(rng.integers(0, 3)), ext
    ext = int(rng.integers(1, min(size, 19) + 1))
    return int(rng.integers(0, size - ext + 1)), ext


class TestBox:
    @pytest.mark.parametrize("depth", [3, 12])
    def test_box_straddling_each_face(self, depth):
        # occupied: every cell within 4 of a grid corner, so a cell is set exactly
        # when each of its coordinates lies in [0, 4) or [size - 4, size)
        size = 1 << depth
        axis = np.unique(np.r_[0:4, size - 4:size])
        cells = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), -1).reshape(-1, 3)
        grid = VoxelGrid(depth, cells)

        def near(v):
            return ((v >= 0) & (v < 4)) | ((v >= size - 4) & (v < size))

        ext = np.array([6, 5, 7])
        for corner in itertools.product((-3, size - 3), repeat=3):   # 3 faces per box
            lo = np.array(corner)
            mx, my, mz = (near(lo[i] + np.arange(ext[i])) for i in range(3))
            expect = (mx[:, None, None] & my[None, :, None] & mz[None, None, :]).astype(np.uint8)
            got = grid.box(lo, ext)
            assert got.dtype == np.uint8 and np.array_equal(got, expect)

    def test_box_past_both_faces_and_outside(self):
        grid = VoxelGrid(3, np.stack(np.meshgrid(*[np.arange(8)] * 3, indexing="ij"),
                                     -1).reshape(-1, 3))
        got = grid.box((-2, -1, -3), (12, 10, 13))
        assert got.sum() == 512 and got[2:10, 1:9, 3:11].all()
        assert grid.box((8, 0, 0), (3, 3, 3)).sum() == 0
        assert grid.box((0, -4, 0), (3, 4, 3)).sum() == 0
        assert VoxelGrid(9, np.empty((0, 3))).box((-1, -1, -1), (4, 4, 4)).sum() == 0

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), depth=st.sampled_from([1, 2, 4, 10, 12]),
           sides=st.lists(st.sampled_from(["low", "high", "both", "inside", "outside"]),
                          min_size=3, max_size=3))
    def test_box_equals_membership(self, seed, depth, sides):
        """Boxes at and past every face, over cells in and just around them."""
        rng = np.random.default_rng(seed)
        size = 1 << depth
        lo, ext = (np.array(v) for v in zip(*(_placement(rng, s, size) for s in sides)))
        n = int(rng.integers(0, 300))
        cells = np.clip(rng.integers(lo - 3, lo + ext + 3, (n, 3)), 0, size - 1)
        grid = VoxelGrid(depth, np.concatenate([cells, rng.integers(0, size, (20, 3))]))
        assert np.array_equal(grid.box(lo, ext), _box_by_contains(grid, lo, tuple(ext)))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), depth=st.sampled_from([2, 5, 10, 12]),
       m=st.sampled_from([1, 3, 5, 9, 6, 10]), n=st.integers(1, 80))
def test_crops_equal_membership(seed, depth, m, n):
    """Same-depth and child-region crops of nodes next to occupied cells and
    on the faces, against the membership of every window cell."""
    rng = np.random.default_rng(seed)
    child = m % 2 == 0
    size = 1 << depth
    occupied = rng.integers(0, size << child, (300, 3))
    faces = rng.random((300, 3)) < 0.2
    occupied[faces] = rng.choice([0, (size << child) - 1], faces.sum())
    grid = VoxelGrid(depth + child, occupied)
    cells = np.clip((occupied[:n] >> child) + rng.integers(-2, 3, (n, 3)), 0, size - 1)
    if child:
        got, anchors = child_region_crops(grid, cells, m), 2 * cells - (m - 2) // 2
    else:
        got, anchors = local_crops(grid, cells, m), cells - (m - 1) // 2
    assert np.array_equal(got, crops_by_contains(grid, anchors, m))


@pytest.mark.parametrize("depth,n", [(9, 1), (12, 1000)])
def test_grid_memory_follows_cells_not_depth(depth, n):
    cells = np.random.default_rng(0).integers(0, 1 << depth, (n, 3))
    tracemalloc.start()
    try:
        VoxelGrid(depth, cells)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
