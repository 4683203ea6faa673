"""The level-wise tower pass equals the per-crop path bit for bit.

Coding and refinement run one level pass (`entropy.level_outputs`): one
tile loop per anchor set (`voxelgrid.anchor_tiles`) over the zero-padded
grids, each tile's layer layouts (`nn.tile_layout`) built once and read by
every branch at those anchors (`nn.tower_windows`), and the head's first
layer applied tile by tile. The oracle runs the same fixed-point
network on per-node crops (`oracles.infer`, `oracles.forward`,
`oracles.refine_offsets`). The two must agree on the float64 bit patterns, and the
coder's integer tables with those of the per-crop logits, or encoder-side
tables would depend on which path ran.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voxelcodec import (DynamicContextModel, RefineParams, VoxelContextModel, VoxelGrid,
                        align_sequence, build, entropy, nn, normalize, refine_apply)
from voxelcodec.entropy import (ALPHABET, CURRENT, FEATURE_DIM, TEMPORAL, level_contexts,
                                level_outputs, make_level_context)
from voxelcodec.voxelgrid import TILE, anchor_tiles

from conftest import crops_by_contains, moving_sequence, structured_cloud
from oracles import forward, refine_offsets, tower_rows


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


def _net(m, channels, rng):
    """A random one-tower context net, head too, in fixed point."""
    (tower,), head = nn.init_context_net((m,), channels, 4, 3, 0)
    _randomize(tower, rng)
    _randomize(head, rng)
    return nn.quantize_context_net([tower], head, (m,))


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


def _tower_rows(tower, grid, anchors, m):
    """(n, width) tower rows at the anchors, window-major, in node order, as
    the level pass computes them: `anchor_tiles`, then each tile's
    `nn.tile_layout` and `nn.tower_windows`."""
    out = np.empty((len(anchors), tower.width(m)))
    for idx, lo, ext, local in anchor_tiles(anchors, m):
        layout = nn.tile_layout(ext, local, m, len(tower.layers))
        out[idx] = nn.tower_windows(tower, grid.box(lo, ext), layout)
    return out


def _tile_counts(model, ctx):
    """(`nn.tile_layout` calls, `nn.tower_windows` calls) of one level pass:
    one layout per tile of each anchor set that some present branch reads,
    one tower run per present branch and tile."""
    tiles, runs = {}, 0
    for b, m in zip(model.geometry, model.crop_sizes):
        if getattr(ctx, b.grid) is not None:
            if (b.child, m) not in tiles:
                tiles[b.child, m] = len(list(anchor_tiles(b.anchors(ctx.cells, m), m)))
            runs += tiles[b.child, m]
    return sum(tiles.values()), runs


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
    expected = tower_rows(tower, crops_by_contains(grid, anchors, m))
    assert _same_bits(_tower_rows(tower, grid, anchors, m), expected)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.sampled_from([1, 3, 5, 9, 6, 10]),
       channels=st.lists(st.integers(1, 5), min_size=1, max_size=3))
def test_absent_frame_row_equals_zero_crops(seed, m, channels):
    """A branch whose frame is missing reads all-zero crops: the level pass's
    outputs are the per-crop oracle's on zeros, bit for bit."""
    rng = np.random.default_rng(seed)
    net = _net(m, tuple(channels), rng)
    branch = TEMPORAL[2] if m % 2 == 0 else TEMPORAL[0]
    ctx = make_level_context(VoxelGrid(4, _cells(rng, 4, 5)), 5)
    assert getattr(ctx, branch.grid) is None
    got = level_outputs(net, (branch,), (m,), ctx)
    assert _same_bits(got, forward(net, [np.zeros((len(ctx),) + (m,) * 3)]))


def test_level_spanning_many_tiles():
    """A depth-7 level whose crops fall into many tiles, with three convs."""
    rng = np.random.default_rng(0)
    tower = _tower(9, (2, 3, 4), rng)
    grid = VoxelGrid(7, _cells(rng, 7, 3000))
    anchors = CURRENT.anchors(_cells(rng, 7, 300), 9)
    assert len(list(anchor_tiles(anchors, 9))) > (128 // TILE) ** 3 // 2
    expected = tower_rows(tower, crops_by_contains(grid, anchors, 9))
    assert _same_bits(_tower_rows(tower, grid, anchors, 9), expected)


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
        VoxelGrid(depth, cells), depth + 1,
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
    logits, bit for bit, with one layout per tile of each anchor set read and
    each present tower run once per tile."""
    model, ctx, crops = _random_level(seed, depth, present, channels)
    net = model.integer_net()
    freq = nn.integer_tables(forward(net, crops, ctx.node_features()), net.head.out_exp)
    with mock.patch.object(nn, "tile_layout", wraps=nn.tile_layout) as layouts, \
            mock.patch.object(nn, "tower_windows", wraps=nn.tower_windows) as towers:
        rows, update = model.stream()(ctx)
    assert (layouts.call_count, towers.call_count) == _tile_counts(model, ctx)
    assert update is None
    cum = np.array([np.asarray(row) for row in rows])
    assert np.all(cum[:, 0] == 0) and np.array_equal(np.diff(cum, axis=1), freq)


@pytest.mark.parametrize("present", [(True, True), (False, True), (True, False)])
def test_dynamic_level_spanning_many_tiles_shares_plans(present):
    """A dynamic level whose anchors fall into many tiles of several nodes
    each, with all four branches present or either end frame's three: the
    same-depth branches share one tiling and one layout per tile, and the
    coder's tables equal `nn.integer_tables` of the per-crop oracle bit for
    bit."""
    model, ctx, crops = _random_level(7, 7, present, (2, 3), n=400)
    tiles = len(list(anchor_tiles(CURRENT.anchors(ctx.cells, 5), 5)))
    assert 8 < tiles < len(ctx) // 4
    net = model.integer_net()
    freq = nn.integer_tables(forward(net, crops, ctx.node_features()), net.head.out_exp)
    with mock.patch.object(nn, "tile_layout", wraps=nn.tile_layout) as layouts, \
            mock.patch.object(nn, "tower_windows", wraps=nn.tower_windows) as towers, \
            mock.patch.object(entropy, "anchor_tiles", wraps=anchor_tiles) as tilings:
        rows, update = model.stream()(ctx)
        cum = np.array([np.asarray(row) for row in rows])
    assert (layouts.call_count, towers.call_count) == _tile_counts(model, ctx)
    assert update is None
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
    assert _same_bits(got, forward(net, crops, ctx.node_features()))


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


def _traced_peak_per_node(model, ctx):
    """Traced peak bytes per node of the level of a stream's first
    `level_tables` call, the stream's quantization included."""
    ctx.node_features()
    tracemalloc.start()
    try:
        model.stream()(ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / len(ctx)


def test_level_tables_peak_memory_per_node():
    """The level pass builds no level-wide head input or tower output and
    keeps each tile's layer outputs as compact rows: at default width, the
    traced peak of `level_tables` on the 10,265-node depth-6 level of a
    20k-point cloud stays under 9,000 bytes per node. With the (n, 1,732)
    float64 head input staged before the head it was 23,368; without it,
    15,554; with compact rows and an int16 table index
    (`nn.integer_tables`), 10,934; without the level-wide (n, 256) tower
    products, 7,361."""
    tree = build(normalize(structured_cloud(20_000, 201))[0], 7)
    ctx = next(ctx for _, k, ctx in level_contexts([tree], 7, 7) if k == 6)
    assert len(ctx) == 10_265
    assert _traced_peak_per_node(VoxelContextModel(), ctx) < 9_000


def test_dynamic_level_tables_peak_memory_per_node():
    """The dynamic model's four branches keep one tile's layouts at a time and
    add each tile's tower products into the head's first layer: at default
    width, the traced peak of `level_tables` on the depth-6 level of the
    middle frame of a 3-frame sequence, all four branches present, stays
    under 12,000 bytes per node. With every tile's layouts kept for the
    branches sharing them and an (n, 256) product array per branch, it was
    15,534; now 9,139."""
    seq = align_sequence(moving_sequence(3, 20_000, 201))
    trees = [build(frame, 7) for frame in seq.frames]
    ctx = next(ctx for t, k, ctx in level_contexts(trees, 7, 7) if t == 1 and k == 6)
    assert len(ctx) == 10_265 and ctx.grid_prev is not None and ctx.grid_next is not None
    assert _traced_peak_per_node(DynamicContextModel(), ctx) < 12_000
