"""Shared synthetic data generators and independent oracles."""

import struct

import numpy as np
import pytest

from voxelcodec import (AdaptiveContextModel, DynamicContextModel, PointCloud, RefineParams,
                        RigidTransform, VoxelContextModel, nn)
from voxelcodec.octree import cell_keys

from oracles import forward

# Files of the previous formats, written by the library before the move to
# SHA-256 hashes: a uniform model as VCNM version 1, and a one-point uniform
# stream at depth 3 as VCNB version 3, each closed by an FNV-1a-64 hash.
VCNM_V1_UNIFORM = bytes.fromhex(
    "56434e4d01000000000000000000120000007b226b696e64223a22756e69666f726d227d0000009cec0d6e8cd936")
VCNB_V3_UNIFORM = bytes.fromhex(
    "56434e42030000cdcc4c3ecdcccc3ecdcc4c3f0000803f03030100000000009cec0d6e8cd93655dfc61782b7e3c9"
    "00000000000000")


def random_cloud(n, seed, lo=0.0, hi=1.0):
    rng = np.random.default_rng(seed)
    return PointCloud(rng.random((n, 3)) * (hi - lo) + lo)


def structured_cloud(n, seed, scale=1.0):
    """Axis-aligned planes plus sphere shells: highly structured, learnable geometry."""
    rng = np.random.default_rng(seed)
    parts = []
    n_plane = n // 2
    for axis, level in ((0, 0.2), (1, 0.55), (2, 0.8)):
        pts = rng.random((n_plane // 3, 3))
        pts[:, axis] = level + rng.normal(0, 0.004, len(pts))
        parts.append(pts)
    n_sphere = n - sum(len(p) for p in parts)
    for center, radius, m in (((0.35, 0.4, 0.5), 0.18, n_sphere // 2),
                              ((0.7, 0.65, 0.35), 0.12, n_sphere - n_sphere // 2)):
        u = rng.normal(size=(m, 3))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        parts.append(np.asarray(center) + radius * u)
    pts = np.clip(np.concatenate(parts), 0.0, 1.0) * scale
    return PointCloud(pts)


def planar_cloud(n, seed, z=0.37, jitter=0.0):
    rng = np.random.default_rng(seed)
    pts = rng.random((n, 3))
    pts[:, 2] = z + (rng.normal(0, jitter, n) if jitter else 0.0)
    return PointCloud(np.clip(pts, 0.0, 1.0))


def rotation_z(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def moving_sequence(n_frames, n_points, seed, step=0.05):
    """Rigidly drifting copies of one cloud, each carrying the aligning pose."""
    base = structured_cloud(n_points, seed).points
    frames = []
    for t in range(n_frames):
        shift = np.array([step * t, -0.3 * step * t, 0.0])
        moved = base + shift
        pose = RigidTransform(np.eye(3), -shift)   # maps the frame back onto base
        frames.append(PointCloud(moved, pose=pose))
    return frames


def unknown_layer_kind_model():
    """A voxel-static VCNM file whose first layer kind is 9, with a valid content hash."""
    blob = bytearray(VoxelContextModel(crop_size=5, channels=(2,), hidden=8, seed=0).serialize())
    (meta_len,) = struct.unpack_from("<I", blob, 14)
    pos = 14 + 4 + meta_len + 2         # past the metadata and the group count
    pos += 1 + blob[pos] + 2            # past the first group's name and layer count
    blob[pos] = 9
    return _rehash(blob)


def _rehash(blob):
    blob = bytearray(blob)
    blob[-8:] = struct.pack("<Q", nn.hash64(bytes(blob[:-8])))
    return bytes(blob)


def _with_group(model, name, params=None):
    """`model`'s file with group `name` replaced by `params`, or dropped if None."""
    kind, seed, meta, groups = nn.deserialize_model(model.serialize())
    groups = [(n, params if n == name else p) for n, p in groups]
    return nn.serialize_model(kind, seed, meta, [(n, p) for n, p in groups if p is not None])


def _with_meta(model, **fields):
    """`model`'s file with the metadata `fields` set, as a hand edit would."""
    kind, seed, meta, groups = nn.deserialize_model(model.serialize())
    return nn.serialize_model(kind, seed, {**meta, **fields}, groups)


def malformed_model_files():
    """VCNM files that are not well-formed models of this version, each with a
    valid content hash but the version-1 file, whose hash is FNV-1a-64:
    name -> (blob, the decode option that loads it, expected error text)."""
    uniform = bytearray(nn.serialize_model(0, 2, {"kind": "uniform"}, []))
    (meta_len,) = struct.unpack_from("<I", uniform, 14)
    struct.pack_into("<H", uniform, 14 + 4 + meta_len, 1)   # one group, but no group data
    static = VoxelContextModel(crop_size=5, channels=(2,), hidden=8, seed=0)
    dynamic = DynamicContextModel(crop_size=5, child_crop_size=6, channels=(2,), hidden=8, seed=0)
    refiner = RefineParams(crop_size=5, channels=(2,), hidden=8, seed=0)
    refiner.add_depth(4)
    two_convs = VoxelContextModel(crop_size=5, channels=(2, 4), hidden=8, seed=0)
    hidden = nn.FullyConnected(8), nn.ReLU()   # the narrow models' hidden layer
    # static's tower rows are 2 * 3^3 = 54 wide; its head reads them and 4 node features
    return {
        "static-no-crop-size": (nn.serialize_model(2, 0, {"kind": "voxel-static"}, []),
                                "--model", "crop_size"),
        "refine-no-crop-size": (nn.serialize_model(4, 0, {"kind": "refine"}, []),
                                "--refine", "crop_size"),
        "adaptive-no-context-bits": (nn.serialize_model(1, 0, {"kind": "adaptive"}, []),
                                     "--model", "context_bits"),
        "static-no-head": (_with_group(static, "head"), "--model", "head"),
        "dynamic-no-current-tower": (_with_group(dynamic, "tower-current"), "--model",
                                     "tower-current"),
        "group-count-past-data": (_rehash(uniform), "--model", "truncated or corrupt"),
        "head-without-tensors": (nn.serialize_model(2, 0, {"kind": "voxel-static"}, [
            ("head", nn.ModelParams((nn.FullyConnected(4),), [[]], 0))]), "--model", "tensors"),
        "channels-not-a-list": (nn.serialize_model(2, 0, {
            "kind": "voxel-static", "crop_size": 5, "channels": 2, "hidden": 8}, []),
            "--model", "malformed field"),
        "conv-weight-wrong-shape": (_with_group(static, "tower", nn.init_params(
            (nn.Conv3D(2), nn.ReLU()), (2, 5, 5, 5), 0)), "--model", "tower 0 layer 0"),
        "head-input-width": (_with_group(static, "head", nn.init_params(
            hidden + (nn.FullyConnected(255),), (57,), 0)), "--model", "head layer 0"),
        "head-8-outputs": (_with_group(static, "head", nn.init_params(
            hidden + (nn.FullyConnected(8),), (58,), 0)), "--model", "255 values expected"),
        "refine-head-2-outputs": (_with_group(refiner, "head-d4", nn.init_params(
            hidden + (nn.FullyConnected(2),), (54,), 0)), "--refine", "3 values expected"),
        "model-version-1": (VCNM_V1_UNIFORM, "--model", "unsupported model version 1"),
        # integer fields holding another type
        "float-crop-size": (_with_meta(static, crop_size=5.0), "--model", "crop_size"),
        "float-context-bits": (_with_meta(AdaptiveContextModel(12), context_bits=12.0),
                               "--model", "context_bits"),
        "string-crop-size": (_with_meta(static, crop_size="5"), "--model", "crop_size"),
        "refine-string-depth": (_with_meta(refiner, depths=["4"]), "--refine", "depths"),
        # metadata that does not describe the layer stacks the file holds
        "hidden-0": (_with_meta(two_convs, hidden=0), "--model", "head layers"),
        "channels-empty": (_with_meta(two_convs, channels=[]), "--model", "tower 0 layers"),
        "channels-7-9": (_with_meta(two_convs, channels=[7, 9]), "--model", "tower 0 layers"),
        "refine-hidden-3-channels-1": (_with_meta(refiner, hidden=3, channels=[1]), "--refine",
                                       "tower 0 layers"),
    }


# --- independent oracles ----------------------------------------------------


def assert_octree_invariants(tree):
    """Structural oracle for `octree.build`, sharing no code with it: one level
    per depth from the root cell, each sorted and unique within its cube, and
    each non-leaf cell's symbol the OR of its children's octant bits."""
    assert len(tree.levels) == tree.max_depth + 1
    assert len(tree.symbols) == tree.max_depth
    assert np.array_equal(tree.levels[0], [[0, 0, 0]])
    for k, cells in enumerate(tree.levels):
        assert cells.min() >= 0 and cells.max() < (1 << k), f"level {k} outside its cube"
        rows = [tuple(c) for c in cells.tolist()]
        assert rows == sorted(set(rows)), f"level {k} not sorted/unique"
    for k, syms in enumerate(tree.symbols):
        assert len(syms) == len(tree.levels[k])
        expect = {}
        for x, y, z in tree.levels[k + 1].tolist():
            parent = (x >> 1, y >> 1, z >> 1)
            expect[parent] = expect.get(parent, 0) | 1 << (4 * (x & 1) + 2 * (y & 1) + (z & 1))
        got = {tuple(c): int(s) for c, s in zip(tree.levels[k].tolist(), syms)}
        assert got == expect, f"level {k + 1} inconsistent with the depth-{k} symbols"


def brute_force_nn(query, reference):
    d2 = ((reference - query) ** 2).sum(axis=1)
    idx = int(np.argmin(d2))
    return idx, float(d2[idx])


def brute_force_chamfer(a, b):
    d_ab = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
    return float(d_ab.min(axis=1).mean() + d_ab.min(axis=0).mean())


def voxelize_directly(points, depth):
    """Dense occupancy straight from the points, bypassing the octree."""
    n = 1 << depth
    idx = np.clip(np.floor(np.asarray(points) * n).astype(np.int64), 0, n - 1)
    grid = np.zeros((n, n, n), dtype=np.uint8)
    grid[idx[:, 0], idx[:, 1], idx[:, 2]] = 1
    return grid


def contains(grid, cells):
    """Membership of (n, 3) cells in a VoxelGrid -> (n,) uint8; a cell outside
    the grid counts as empty."""
    cells = np.asarray(cells, dtype=np.int64).reshape(-1, 3)
    inside = ((cells >= 0) & (cells < grid.size)).all(axis=1)
    keys = cell_keys(np.clip(cells, 0, grid.size - 1), grid.depth)
    pos = np.searchsorted(grid.keys, keys)
    pos[pos >= len(grid.keys)] = max(len(grid.keys) - 1, 0)
    hit = (grid.keys[pos] == keys) if len(grid.keys) else np.zeros(len(cells), dtype=bool)
    return (hit & inside).astype(np.uint8)


def crops_by_contains(grid, anchors, m):
    """(n, m, m, m) crops with lower corners `anchors`, read cell by cell with
    `contains`, so they share no code with the box and window gathers."""
    offsets = np.indices((m,) * 3).reshape(3, -1).T
    cells = (np.asarray(anchors, dtype=np.int64).reshape(-1, 1, 3) + offsets).reshape(-1, 3)
    return contains(grid, cells).reshape((-1,) + (m,) * 3)


class GivenContexts(AdaptiveContextModel):
    """Adaptive model whose level context is the list of its nodes' context ids."""

    def context_ids(self, ctx):
        return np.asarray(ctx, dtype=np.int64)


def uniform_code_lengths(symbols):
    """-log2 q of symbols (1..255) under the uniform model's one coded row,
    [258, 257 x 254] out of 2^16."""
    return np.where(np.asarray(symbols) == 1, -np.log2(258 / 2**16), -np.log2(257 / 2**16))


def coder_bound_bits(lengths):
    """The range coder's payload bound, in bits, over the code lengths -log2 q
    of the tables it codes with: each symbol narrows the range by
    r = range // total, and range >= 2^24 with total <= 2^16 gives r >= 2^8,
    so at most log2(1 + 2^-8) bits above -log2 q per symbol; plus the
    leading byte and the 5-byte flush."""
    return float(np.sum(lengths)) + len(lengths) * np.log2(1 + 2.0 ** -8) + 48


def crop_tables(model, crop_sets, feats):
    """(n, 255) coding frequencies of a context-net model on per-node crops
    (one batch per branch): the integer net's per-crop oracle, then its tables."""
    net = model.integer_net()
    return nn.integer_tables(forward(net, crop_sets, feats), net.head.out_exp)


# --- finite-difference gradient harness -------------------------------------


def _relu_masks(cache, layers):
    return [c for layer, c in zip(layers, cache) if isinstance(layer, nn.ReLU)]


def fd_check_params(params64, loss_fn, grads, rng, checks_per_tensor=12, eps=1e-4):
    """Central finite differences against analytic gradients on float64 params.

    loss_fn(params) must return (loss, relu_masks). Coordinates whose +/- eps
    evaluations flip a ReLU mask are skipped (the loss is not differentiable
    there); returns (worst relative error, checked, skipped).
    """
    flat_p = params64.parameter_arrays()
    flat_g = [t for group in grads for t in group]
    worst, checked, skipped = 0.0, 0, 0
    for t, gt in zip(flat_p, flat_g):
        n = min(checks_per_tensor, t.size)
        for _ in range(n):
            ij = tuple(rng.integers(0, s) for s in t.shape)
            orig = t[ij]
            t[ij] = orig + eps
            lp, masks_p = loss_fn(params64)
            t[ij] = orig - eps
            lm, masks_m = loss_fn(params64)
            t[ij] = orig
            if any(not np.array_equal(a, b) for a, b in zip(masks_p, masks_m)):
                skipped += 1
                continue
            fd = (lp - lm) / (2 * eps)
            an = gt[ij]
            rel = abs(fd - an) / max(abs(fd), abs(an), 1e-8)
            worst = max(worst, rel)
            checked += 1
    return worst, checked, skipped


def to_float64(params):
    return nn.ModelParams(params.layers,
                          [[t.astype(np.float64) for t in g] for g in params.tensors],
                          params.seed)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
