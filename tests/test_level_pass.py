"""The level-wise tower pass equals the per-crop path bit for bit.

Coding runs each integer tower once per level over tiles of the zero-padded
grid (`entropy.tower_rows`, `nn.tower_windows`); the oracle runs the same
fixed-point network on per-node crops (`nn.infer`, `IntContextNet.forward`).
The two must agree on the float64 bit patterns, and the coder's integer
tables with those of the per-crop logits, or encoder-side tables would depend
on which path ran.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from voxelcodec import DynamicContextModel, VoxelGrid, entropy, nn
from voxelcodec.entropy import CURRENT, TEMPORAL, make_level_context, tower_rows
from voxelcodec.voxelgrid import TILE, anchor_tiles

from conftest import crops_by_contains


def _randomize(params, rng):
    """Nonzero weights and biases, so every layer and the relu(bias) chain matter."""
    for group in params.tensors:
        for t in group:
            t[...] = rng.normal(0.0, 0.5, t.shape).astype(np.float32)


def _tower(m, channels, rng):
    """A random tower in fixed point, as the coding path quantizes it."""
    (tower,), head = nn.init_context_net((m,), channels, 4, 3, 0)
    _randomize(tower, rng)
    return nn.quantize_context_net([tower], head).towers[0]


def _cells(rng, depth, n):
    """Random cells, some pinned to the grid's faces so crops cross the edge."""
    size = 1 << depth
    cells = rng.integers(0, size, (n, 3))
    faces = rng.random((n, 3)) < 0.2
    cells[faces] = rng.choice([0, size - 1], faces.sum())
    return cells


def _near(rng, occupied, depth, n):
    """n cells: half within two cells of an occupied one, so crops hold cells
    even in deep, sparse grids; half from `_cells`."""
    near = occupied[rng.integers(0, len(occupied), n)] + rng.integers(-2, 3, (n, 3))
    return np.where(rng.random((n, 1)) < 0.5, np.clip(near, 0, (1 << depth) - 1),
                    _cells(rng, depth, n))


def _per_crop(tower, crops):
    return nn.infer(tower, crops[:, None]).reshape(len(crops), -1)


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       depth=st.sampled_from([3, 6, 7, 10, 12]),
       m=st.sampled_from([1, 3, 5, 9, 6, 10]),
       channels=st.lists(st.integers(1, 5), min_size=1, max_size=3),
       n=st.integers(1, 60))
def test_tower_rows_equal_per_crop_forward(seed, depth, m, channels, n):
    """Shallow and deep grids, crops at and past the edge, 1-3 convs, one or many tiles."""
    rng = np.random.default_rng(seed)
    tower = _tower(m, tuple(channels), rng)
    child = m % 2 == 0
    occupied = _cells(rng, depth + child, int(rng.integers(1, 400)))
    grid = VoxelGrid(depth + child, occupied)
    cells = _near(rng, occupied >> child, depth, n)
    anchors = (TEMPORAL[2] if child else CURRENT).anchors(cells, m)
    expected = _per_crop(tower, crops_by_contains(grid, anchors, m))
    assert _same_bits(tower_rows(tower, grid, anchors, m), expected)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.sampled_from([1, 3, 5, 9, 6, 10]),
       channels=st.lists(st.integers(1, 5), min_size=1, max_size=3))
def test_absent_frame_row_equals_zero_crops(seed, m, channels):
    rng = np.random.default_rng(seed)
    tower = _tower(m, tuple(channels), rng)
    got = tower_rows(tower, None, np.zeros((5, 3), dtype=np.int64), m)
    assert _same_bits(np.ascontiguousarray(got), _per_crop(tower, np.zeros((5,) + (m,) * 3)))


def test_level_spanning_many_tiles():
    """A depth-7 level whose crops fall into many tiles, with three convs."""
    rng = np.random.default_rng(0)
    tower = _tower(9, (2, 3, 4), rng)
    grid = VoxelGrid(7, _cells(rng, 7, 3000))
    anchors = CURRENT.anchors(_cells(rng, 7, 300), 9)
    assert len(list(anchor_tiles(grid, anchors, 9))) > (128 // TILE) ** 3 // 2
    expected = _per_crop(tower, crops_by_contains(grid, anchors, 9))
    assert _same_bits(tower_rows(tower, grid, anchors, 9), expected)


def _random_level(seed, depth, present, channels):
    """A dynamic model with random weights and one random level context, with
    either neighbour frame missing (end frames of a sequence) -> (model, ctx,
    each branch's per-node crops)."""
    rng = np.random.default_rng(seed)
    model = DynamicContextModel(crop_size=5, child_crop_size=6, channels=tuple(channels),
                                hidden=8, seed=1)
    for params in model.branches + [model.head]:
        _randomize(params, rng)
    cells = np.unique(_cells(rng, depth, 40), axis=0)
    has_prev, has_next = present
    ctx = make_level_context(
        depth, depth + 1, cells,
        grid_prev=VoxelGrid(depth, _near(rng, cells, depth, 50)) if has_prev else None,
        grid_next=VoxelGrid(depth, _near(rng, cells, depth, 50)) if has_next else None,
        grid_prev_child=VoxelGrid(depth + 1, _near(rng, 2 * cells, depth + 1, 200))
        if has_prev else None)
    crops = [ctx.branch_crops(b, m) for b, m in zip(model.geometry, model.crop_sizes)]
    return model, ctx, crops


_LEVELS = dict(seed=st.integers(0, 2**32 - 1), depth=st.sampled_from([2, 5, 10, 12]),
               present=st.tuples(st.booleans(), st.booleans()),
               channels=st.lists(st.integers(1, 4), min_size=1, max_size=3))


@settings(max_examples=15, deadline=None)
@given(**_LEVELS)
def test_level_tables_equal_integer_tables_of_forward(seed, depth, present, channels):
    """The coder's tables against `nn.integer_tables` of the per-crop oracle's
    logits, bit for bit, with each tower run once per call."""
    model, ctx, crops = _random_level(seed, depth, present, channels)
    net = model.integer_net()
    freq = nn.integer_tables(net.forward(crops, ctx.node_features()), net.head.out_exp)
    with mock.patch.object(entropy, "tower_rows", wraps=entropy.tower_rows) as towers:
        rows, update = model.level_tables(ctx)
    assert towers.call_count == len(model.branches) and update is None
    cum = np.array([np.asarray(row) for row in rows])
    assert np.all(cum[:, 0] == 0) and np.array_equal(np.diff(cum, axis=1), freq)
