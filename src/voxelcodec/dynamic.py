"""Sequence codec: pose alignment, shared normalization, and the
depth-synchronized cross-frame coding schedule.

All frames advance through the octree together: pass k codes every frame's
depth-k symbols in temporal order before any frame proceeds to depth k+1.
While coding frame t at depth k, the previous and next frames' depth-k grids
are already known, and so is the previous frame's depth-(k+1) grid, because
frame t-1 finished depth k earlier in the same pass. Boundary frames see
all-zero crops for the missing neighbours. Using the next frame makes this a
batch codec: the whole sequence is encoded and decoded jointly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import entropy as em
from . import octree as oct
from .coder import (MODE_DYNAMIC, BitstreamHeader, DecodeError, RangeDecoder,
                    RangeEncoder, _check_model, _code_level)
from .pointcloud import NormalizationParams, PointCloud, RigidTransform, apply_pose, normalize
from .voxelgrid import VoxelGrid


@dataclass
class CloudSequence:
    """Pose-aligned frames normalized into one shared cube."""

    frames: list                      # list[PointCloud], aligned + normalized
    norm: NormalizationParams
    poses: list | None = None         # original 3x4 [R|t] per frame, if any

    def __len__(self):
        return len(self.frames)

    def point_counts(self):
        return [len(f) for f in self.frames]


def align_sequence(frames) -> CloudSequence:
    """Apply per-frame poses and normalize the union with a single cubic box."""
    if not frames:
        raise ValueError("empty sequence")
    aligned = []
    poses = []
    any_pose = False
    for f in frames:
        if f.pose is not None:
            any_pose = True
            poses.append(np.concatenate([f.pose.rotation, f.pose.translation[:, None]], axis=1))
            aligned.append(apply_pose(f))
        else:
            poses.append(np.concatenate([np.eye(3), np.zeros((3, 1))], axis=1))
            aligned.append(f)
    union = PointCloud(np.concatenate([f.points for f in aligned]))
    _, params = normalize(union)
    norm_frames = [PointCloud(params.apply(f.points)) for f in aligned]
    return CloudSequence(norm_frames, params, poses if any_pose else None)


class _GridStore:
    """Per-(frame, depth) grid cache over incrementally known levels."""

    def __init__(self, frame_levels):
        self.frame_levels = frame_levels
        self._grids = {}

    def get(self, t, k):
        key = (t, k)
        if key not in self._grids:
            if k >= len(self.frame_levels[t]):
                raise DecodeError(f"schedule desync: frame {t} level {k} not decoded yet")
            self._grids[key] = VoxelGrid(k, self.frame_levels[t][k])
        return self._grids[key]

    def purge_below(self, k):
        for key in [key for key in self._grids if key[1] < k]:
            del self._grids[key]


def _sequence_context(store, frame_levels, frame_symbols, t, k, max_depth, n_frames):
    cells = frame_levels[t][k]
    return em.make_level_context(
        k, max_depth, cells,
        prev_cells=frame_levels[t][k - 1] if k else None,
        prev_symbols=frame_symbols[t][k - 1] if k else None,
        grid=store.get(t, k),
        grid_prev=store.get(t - 1, k) if t > 0 else None,
        grid_next=store.get(t + 1, k) if t < n_frames - 1 else None,
        grid_prev_child=store.get(t - 1, k + 1) if t > 0 else None,
    )


def _iter_schedule(trees, max_depth, trunc_depth):
    """Encoder-side schedule: yields (t, k, ctx, symbols) in coding order."""
    frame_levels = [tree.levels for tree in trees]
    frame_symbols = [tree.symbols for tree in trees]
    store = _GridStore(frame_levels)
    n = len(trees)
    for k in range(trunc_depth):
        store.purge_below(k)
        for t in range(n):
            ctx = _sequence_context(store, frame_levels, frame_symbols, t, k, max_depth, n)
            yield t, k, ctx, trees[t].symbols[k]


def encode_sequence(frames, depth: int, trunc_depth: int, model: em.EntropyModel,
                    store_poses=False) -> bytes:
    """Code a pose-aligned sequence into one interleaved bitstream."""
    if isinstance(model, em.VoxelContextModel):
        raise ValueError("static voxel models code single clouds; use encode_cloud")
    if not 1 <= trunc_depth <= depth:
        raise ValueError(f"trunc_depth {trunc_depth} out of range [1, {depth}]")
    seq = frames if isinstance(frames, CloudSequence) else align_sequence(frames)
    if any(len(f) == 0 for f in seq.frames):
        raise ValueError("sequence contains an empty frame")
    trees = [oct.build(f, depth).truncate(trunc_depth) for f in seq.frames]
    header = BitstreamHeader(
        MODE_DYNAMIC, seq.norm, depth, trunc_depth,
        sum(seq.point_counts()), model.kind_code, model.content_hash(),
        frame_point_counts=seq.point_counts(),
        poses=seq.poses if (store_poses and seq.poses is not None) else None)
    enc = RangeEncoder()
    model.begin_stream()
    for t, k, ctx, symbols in _iter_schedule(trees, depth, trunc_depth):
        _code_level(ctx, symbols, model, enc, decoding=False)
    return header.pack() + enc.finish()


def decode_sequence(data: bytes, model: em.EntropyModel, refine_params=None,
                    restore_poses=False, return_trees=False):
    """Replay the schedule and reconstruct every frame.

    Output frames live in the shared aligned coordinate system unless
    restore_poses=True and the stream carries poses.
    """
    header, pos = BitstreamHeader.unpack(data)
    if header.mode != MODE_DYNAMIC:
        raise DecodeError("not a sequence bitstream; use decode_cloud")
    _check_model(header, model)
    n = len(header.frame_point_counts)
    dec = RangeDecoder(data[pos:])
    model.begin_stream()
    frame_levels = [[np.zeros((1, 3), dtype=np.int64)] for _ in range(n)]
    frame_symbols = [[] for _ in range(n)]
    store = _GridStore(frame_levels)
    for k in range(header.trunc_depth):
        store.purge_below(k)
        for t in range(n):
            ctx = _sequence_context(store, frame_levels, frame_symbols, t, k,
                                    header.max_depth, n)
            sym = _code_level(ctx, None, model, dec, decoding=True)
            frame_symbols[t].append(sym)
            frame_levels[t].append(oct._expand_children(frame_levels[t][k], sym, k))
    trees = [oct.Octree(header.trunc_depth, frame_levels[t], frame_symbols[t])
             for t in range(n)]
    clouds = []
    for t, tree in enumerate(trees):
        if refine_params is not None:
            from .refine import refine_apply
            cloud = refine_apply(tree, refine_params, header.norm)
        else:
            cloud = oct.reconstruct_centers(tree, header.norm)
        if restore_poses:
            if header.poses is None:
                raise DecodeError("bitstream carries no poses to restore")
            p = header.poses[t]
            pose = RigidTransform(p[:, :3], p[:, 3])
            cloud = PointCloud(pose.inverse().apply(cloud.points))
        clouds.append(cloud)
    if return_trees:
        return clouds, trees, header
    return clouds


def sequence_code_lengths(model: em.EntropyModel, seq: CloudSequence, depth: int,
                          trunc_depth: int):
    """-log2 q per coded symbol, split per frame, replaying the exact schedule."""
    trees = [oct.build(f, depth).truncate(trunc_depth) for f in seq.frames]
    model.begin_stream()
    lengths = [[] for _ in range(len(trees))]
    for t, k, ctx, symbols in _iter_schedule(trees, depth, trunc_depth):
        lengths[t].append(em.level_code_lengths(model, ctx, symbols))
    return [np.concatenate(parts) if parts else np.empty(0) for parts in lengths]


def build_sequence_dataset(seq: CloudSequence, depth: int, crop_size=9,
                           child_crop_size=10, trunc_depth=None):
    """Training samples with all four crops from the coding schedule."""
    trunc = trunc_depth if trunc_depth is not None else depth
    trees = [oct.build(f, depth) for f in seq.frames]
    crops, prevs, nexts, childs, feats, symbols = [], [], [], [], [], []
    for t, k, ctx, syms in _iter_schedule(trees, depth, trunc):
        crops.append(ctx.crops(crop_size))
        p, x, c = ctx.temporal_crops(crop_size, child_crop_size)
        prevs.append(p)
        nexts.append(x)
        childs.append(c)
        feats.append(ctx.node_features())
        symbols.append(syms.astype(np.int64))
    return {"crops": np.concatenate(crops), "crops_prev": np.concatenate(prevs),
            "crops_next": np.concatenate(nexts), "crops_child": np.concatenate(childs),
            "features": np.concatenate(feats), "symbols": np.concatenate(symbols)}
