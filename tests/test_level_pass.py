"""The level-wise tower pass equals the per-crop path bit for bit.

Coding and refinement run one level pass (`entropy.level_outputs`): each
integer tower once per level over tiles of the zero-padded grid
(`entropy.tower_rows`, `nn.tower_windows`), branches whose crops have the
same corners sharing one tile plan (`entropy.TilePlan`), and the head's
first layer applied tile by tile. The oracle runs the same fixed-point
network on per-node crops (`nn.infer`, `IntContextNet.forward`,
`refine_offsets`). The two must agree on the float64 bit patterns, and the
coder's integer tables with those of the per-crop logits, or encoder-side
tables would depend on which path ran.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voxelcodec import (DynamicContextModel, RefineParams, VoxelContextModel,
                        VoxelGrid, build, entropy, nn, normalize, refine_apply, refine_offsets)
from voxelcodec.entropy import (ALPHABET, CURRENT, FEATURE_DIM, TEMPORAL, TilePlan,
                                level_contexts, level_outputs, make_level_context, tower_rows)
from voxelcodec.voxelgrid import TILE, anchor_tiles

from conftest import crops_by_contains, structured_cloud


def _randomize(params, rng):
    """Nonzero weights and biases, so every layer and the relu(bias) chain matter."""
    for group in params.tensors:
        for t in group:
            t[...] = rng.normal(0.0, 0.5, t.shape).astype(np.float32)


def _tower(m, channels, rng):
    """A random tower in fixed point, as the coding path quantizes it."""
    (tower,), head = nn.init_context_net((m,), channels, 4, 3, 0)
    _randomize(tower, rng)
    return nn.quantize_context_net([tower], head, (m,)).towers[0]


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


def _plan(tower, anchors, m):
    return TilePlan(anchors, m, len(tower.layers))


def _per_crop(tower, crops):
    """The per-crop rows, window-major as the level pass gives them."""
    return np.moveaxis(nn.infer(tower, crops[:, None]), 1, -1).reshape(len(crops), -1)


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
    assert _same_bits(tower_rows(tower, grid, _plan(tower, anchors, m)), expected)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.sampled_from([1, 3, 5, 9, 6, 10]),
       channels=st.lists(st.integers(1, 5), min_size=1, max_size=3))
def test_absent_frame_row_equals_zero_crops(seed, m, channels):
    rng = np.random.default_rng(seed)
    tower = _tower(m, tuple(channels), rng)
    got = tower_rows(tower, None, _plan(tower, np.zeros((5, 3), dtype=np.int64), m))
    assert _same_bits(np.ascontiguousarray(got), _per_crop(tower, np.zeros((5,) + (m,) * 3)))


def test_level_spanning_many_tiles():
    """A depth-7 level whose crops fall into many tiles, with three convs."""
    rng = np.random.default_rng(0)
    tower = _tower(9, (2, 3, 4), rng)
    grid = VoxelGrid(7, _cells(rng, 7, 3000))
    anchors = CURRENT.anchors(_cells(rng, 7, 300), 9)
    assert len(list(anchor_tiles(anchors, 9))) > (128 // TILE) ** 3 // 2
    expected = _per_crop(tower, crops_by_contains(grid, anchors, 9))
    assert _same_bits(tower_rows(tower, grid, _plan(tower, anchors, 9)), expected)


def _random_level(seed, depth, present, channels, n=40):
    """A dynamic model with random weights and one random level context of
    about n nodes, with either neighbour frame missing (end frames of a
    sequence) -> (model, ctx, each branch's per-node crops)."""
    rng = np.random.default_rng(seed)
    model = DynamicContextModel(crop_size=5, child_crop_size=6, channels=tuple(channels),
                                hidden=8, seed=1)
    for params in model.branches + [model.head]:
        _randomize(params, rng)
    cells = np.unique(_cells(rng, depth, n), axis=0)
    has_prev, has_next = present
    ctx = make_level_context(
        depth, depth + 1, cells,
        grid_prev=VoxelGrid(depth, _near(rng, cells, depth, n + 10)) if has_prev else None,
        grid_next=VoxelGrid(depth, _near(rng, cells, depth, n + 10)) if has_next else None,
        grid_prev_child=VoxelGrid(depth + 1, _near(rng, 2 * cells, depth + 1, 5 * n))
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


@pytest.mark.parametrize("present", [(True, True), (False, True), (True, False)])
def test_dynamic_level_spanning_many_tiles_shares_plans(present):
    """A dynamic level whose anchors fall into many tiles of several nodes
    each, with all four branches present or either end frame's three: the
    same-depth branches share one tile plan, read through one tiling, and the
    coder's tables equal `nn.integer_tables` of the per-crop oracle bit for
    bit."""
    model, ctx, crops = _random_level(7, 7, present, (2, 3), n=400)
    tiles = len(list(anchor_tiles(CURRENT.anchors(ctx.cells, 5), 5)))
    assert 8 < tiles < len(ctx) // 4
    net = model.integer_net()
    freq = nn.integer_tables(net.forward(crops, ctx.node_features()), net.head.out_exp)
    with mock.patch.object(entropy, "tower_rows", wraps=entropy.tower_rows) as towers, \
            mock.patch.object(entropy, "anchor_tiles", wraps=anchor_tiles) as tilings:
        rows, update = model.level_tables(ctx)
        cum = np.array([np.asarray(row) for row in rows])
    assert towers.call_count == len(model.branches) and update is None
    # one tiling of the same-depth anchors, and one of the child anchors if
    # the previous frame's child grid is there to read them
    has_prev, _ = present
    assert tilings.call_count == 1 + has_prev
    assert np.all(cum[:, 0] == 0) and np.array_equal(np.diff(cum, axis=1), freq)


@settings(max_examples=10, deadline=None)
@given(**_LEVELS)
def test_single_layer_head_equals_forward(seed, depth, present, channels):
    """A head of one FullyConnected layer, which a model file may hold: after
    its first layer, applied tile by tile, the level pass has nothing left to
    run, and its outputs are the per-crop oracle's bit for bit."""
    model, ctx, crops = _random_level(seed, depth, present, channels)
    fan_in = FEATURE_DIM + sum(nn.tower_width(tower, m)
                               for tower, m in zip(model.branches, model.crop_sizes))
    model.head = nn.init_params((nn.FullyConnected(ALPHABET),), (fan_in,), 2)
    _randomize(model.head, np.random.default_rng(seed))
    net = model.integer_net()
    assert len(net.head.layers) == 1
    got = level_outputs(net, model.geometry, model.crop_sizes, ctx, ctx.node_features())
    assert _same_bits(got, net.forward(crops, ctx.node_features()))


def test_refine_apply_spanning_many_tiles():
    """The refiner's level pass over a leaf level whose crops fall into more
    than 8 tiles, with offsets distinct enough that a misplaced row shows:
    the refined points are those of `refine_offsets` on the leaves' crops,
    bit for bit."""
    rng = np.random.default_rng(5)
    d, m = 7, 5
    params = RefineParams(crop_size=m, channels=(2, 3), hidden=8, seed=0)
    for stack in params.add_depth(d):
        _randomize(stack, rng)
    norm_cloud, norm = normalize(structured_cloud(2000, 5))
    tree = build(norm_cloud, d)
    cells = tree.levels[d]
    assert len(list(anchor_tiles(CURRENT.anchors(cells, m), m))) > 8
    offsets = refine_offsets(params, d, crops_by_contains(VoxelGrid(d, cells),
                                                          CURRENT.anchors(cells, m), m))
    assert len(np.unique(offsets, axis=0)) > len(cells) // 4
    expected = norm.invert(tree.leaf_centers() + offsets * (2.0 ** -d))
    assert _same_bits(refine_apply(tree, params, norm).points, expected)


def test_level_tables_peak_memory_per_node():
    """The level pass builds no level-wide head input and keeps each tile's
    layer outputs as compact rows: at default width, the traced peak of
    `level_tables` on the 10,265-node depth-6 level of a 20k-point cloud
    stays under 13,000 bytes per node. With the (n, 1,732) float64 head input
    staged before the head it was 23,368; without it, 15,554; with compact
    rows and an int16 table index (`nn.integer_tables`), 10,934."""
    tree = build(normalize(structured_cloud(20_000, 201))[0], 7)
    ctx = next(ctx for _, k, ctx in level_contexts([tree], 7, 7) if k == 6)
    assert len(ctx) == 10_265
    model = VoxelContextModel()
    ctx.node_features()
    tracemalloc.start()
    try:
        model.level_tables(ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / len(ctx) < 13_000
