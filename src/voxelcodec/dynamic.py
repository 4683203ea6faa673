"""Sequence codec: pose alignment, shared normalization, and sequence coding
along the depth-synchronized schedule (`entropy.level_contexts`).

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
from .coder import _code_level  # noqa: F401  (the benchmark tracer wraps dynamic._code_level)
from .coder import MODE_DYNAMIC, BitstreamHeader, DecodeError, decode_frames, encode_frames
from .pointcloud import NormalizationParams, PointCloud, RigidTransform, apply_pose, normalize
from .voxelgrid import CHILD_CROP_SIZE


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
    trees = [oct.build(f, trunc_depth) for f in seq.frames]
    header = BitstreamHeader(
        MODE_DYNAMIC, seq.norm, depth, trunc_depth,
        sum(seq.point_counts()), model.kind_code, model.content_hash(),
        frame_point_counts=seq.point_counts(),
        poses=seq.poses if (store_poses and seq.poses is not None) else None)
    return encode_frames(header, trees, model)


def decode_sequence(data: bytes, model: em.EntropyModel, refine_params=None,
                    restore_poses=False, return_trees=False):
    """Replay the schedule and reconstruct every frame.

    Output frames live in the shared aligned coordinate system unless
    restore_poses=True and the stream carries poses.
    """
    header, trees, clouds = decode_frames(data, model, MODE_DYNAMIC, refine_params)
    if restore_poses:
        if header.poses is None:
            raise DecodeError("bitstream carries no poses to restore")
        clouds = [PointCloud(RigidTransform(p[:, :3], p[:, 3]).inverse().apply(cloud.points))
                  for p, cloud in zip(header.poses, clouds)]
    if return_trees:
        return clouds, trees, header
    return clouds


def sequence_code_lengths(model: em.EntropyModel, seq: CloudSequence, depth: int,
                          trunc_depth: int):
    """-log2 q per coded symbol, split per frame, replaying the exact schedule."""
    trees = [oct.build(f, trunc_depth) for f in seq.frames]
    return em.schedule_code_lengths(model, trees, depth, trunc_depth)


def build_sequence_dataset(seq: CloudSequence, depth: int, crop_size=9,
                           child_crop_size=CHILD_CROP_SIZE, trunc_depth=None):
    """Training samples with all four crops from the coding schedule."""
    trunc = trunc_depth if trunc_depth is not None else depth
    trees = [oct.build(f, depth) for f in seq.frames]
    crops, prevs, nexts, childs, feats, symbols = [], [], [], [], [], []
    for t, k, ctx in em.level_contexts(trees, depth, trunc):
        crops.append(ctx.crops(crop_size))
        p, x, c = ctx.temporal_crops(crop_size, child_crop_size)
        prevs.append(p)
        nexts.append(x)
        childs.append(c)
        feats.append(ctx.node_features())
        symbols.append(trees[t].symbols[k].astype(np.int64))
    return {"crops": np.concatenate(crops), "crops_prev": np.concatenate(prevs),
            "crops_next": np.concatenate(nexts), "crops_child": np.concatenate(childs),
            "features": np.concatenate(feats), "symbols": np.concatenate(symbols)}
