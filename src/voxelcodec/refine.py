"""Decoder-side coordinate refinement: a bounded per-leaf offset predicted
from the leaf's same-depth voxel crop.

One network per depth level. The head emits three reals squashed through
0.5*tanh, so every component stays inside (-0.5, 0.5) leaf-cell-edge units and
the refined point cannot leave its cell. The head is zero-initialized: an
untrained refiner is exactly the identity on cell centers.
"""

from __future__ import annotations

import numpy as np

from . import nn
from .entropy import CURRENT, KIND_REFINE, level_outputs, make_level_context
from .octree import Octree, build, cell_keys
from .pointcloud import NormalizationParams, PointCloud
from .voxelgrid import VoxelGrid, local_crops


class RefineParams:
    """Map from depth level to its (tower, head) network pair: a one-branch
    context net (`nn.context_forward`) with a 3-wide head and no node features."""

    def __init__(self, crop_size=9, channels=(16, 32, 64), hidden=256, seed=0):
        self.crop_size = crop_size
        self.channels = tuple(channels)
        self.hidden = hidden
        self.seed = seed
        self.entries: dict[int, tuple] = {}

    def integer_net(self, depth: int) -> nn.IntContextNet:
        """The depth's network in fixed point, quantized from its weights as
        they are now."""
        if depth not in self.entries:
            raise ValueError(f"no refinement network for depth {depth}")
        tower, head = self.entries[depth]
        return nn.quantize_context_net([tower], head, (self.crop_size,))

    def add_depth(self, depth: int):
        (tower,), head = nn.init_context_net((self.crop_size,), self.channels, self.hidden, 3,
                                             self.seed + 2 * depth)
        self.entries[depth] = (tower, head)
        return self.entries[depth]

    def serialize(self) -> bytes:
        meta = {"kind": "refine", "crop_size": self.crop_size,
                "channels": list(self.channels), "hidden": self.hidden,
                "depths": sorted(self.entries)}
        groups = []
        for depth in sorted(self.entries):
            tower, head = self.entries[depth]
            groups.append((f"tower-d{depth}", tower))
            groups.append((f"head-d{depth}", head))
        return nn.serialize_model(KIND_REFINE, self.seed, meta, groups)

    @classmethod
    def deserialize(cls, blob: bytes):
        kind, seed, meta, groups = nn.deserialize_model(blob)
        if kind != KIND_REFINE:
            raise ValueError(f"model kind {kind} is not a refinement model")
        named = dict(groups)
        with nn.model_fields():
            params = cls(nn.int_field(meta, "crop_size"),
                         nn.int_field(meta, "channels", many=True),
                         nn.int_field(meta, "hidden"), seed)
            for depth in nn.int_field(meta, "depths", many=True):
                params.entries[depth] = (named[f"tower-d{depth}"], named[f"head-d{depth}"])
        for tower, head in params.entries.values():
            nn.check_context_net([tower], head, (params.crop_size,), 0, 3, params.channels,
                                 params.hidden)
        return params


_HALF_OPEN = np.nextafter(0.5, 0.0)   # tanh saturates to exactly 1.0 in float64


def _bounded(net: nn.IntContextNet, z):
    """Offsets 0.5*tanh(y) of the integer head outputs z = y * 2^out_exp."""
    return np.clip(0.5 * np.tanh(z * 2.0 ** -net.head.out_exp), -_HALF_OPEN, _HALF_OPEN)


def refine_apply(tree: Octree, params: RefineParams, norm: NormalizationParams) -> PointCloud:
    """Shift each leaf center by its predicted offset and map it to input coordinates.

    The integer net runs once over the leaf grid (`entropy.level_outputs`),
    so the offsets, each component in (-0.5, 0.5) leaf-cell edges, equal bit
    for bit those of the per-crop oracle (`tests/oracles.py`) on the leaves'
    crops.
    """
    d = tree.max_depth
    net = params.integer_net(d)
    ctx = make_level_context(VoxelGrid(d, tree.levels[d]), d)
    offsets = _bounded(net, level_outputs(net, (CURRENT,), (params.crop_size,), ctx))
    centers = tree.leaf_centers() + offsets * (2.0 ** -d)
    return PointCloud(norm.invert(centers))


def build_refine_dataset(cloud_norm: PointCloud, depth: int, crop_size=9):
    """(crop, target) pairs for one normalized cloud at one depth.

    The target is the centroid of the raw points in each leaf cell, expressed
    in cell-edge units relative to the cell center, so it lies in [-0.5, 0.5]^3.
    """
    tree = build(cloud_norm, depth)
    cells = tree.levels[depth]
    scaled = cloud_norm.points * (1 << depth)
    idx = np.clip(np.floor(scaled).astype(np.int64), 0, (1 << depth) - 1)
    keys = cell_keys(idx, depth)
    cell_key = cell_keys(cells, depth)
    slot = np.searchsorted(cell_key, keys)
    sums = np.zeros((len(cells), 3))
    counts = np.zeros(len(cells))
    np.add.at(sums, slot, scaled)
    np.add.at(counts, slot, 1.0)
    centroids = sums / counts[:, None]
    targets = centroids - (cells + 0.5)
    crops = local_crops(VoxelGrid(depth, cells), cells, crop_size)
    return {"crops": crops, "targets": targets, "tree": tree}


def offset_loss(y, targets):
    """Mean squared error of the 0.5*tanh offsets, and its gradient d loss / d y."""
    th = np.tanh(y)
    err = 0.5 * th - np.asarray(targets, dtype=np.float64)
    loss = float((err ** 2).sum(axis=1).mean())
    return loss, (2.0 * err / len(y)) * 0.5 * (1.0 - th ** 2)


def train_refine(params: RefineParams, depth: int, dataset, epochs,
                 batch_size=32, lr=1e-4, seed=0):
    """Fit the depth's network to minimize mean squared offset error.

    Returns the per-epoch mean loss curve (mean ||offset - target||^2).
    """
    crops, targets = dataset["crops"], np.asarray(dataset["targets"], dtype=np.float64)
    if len(crops) == 0:
        raise ValueError("empty refinement dataset")
    tower, head = params.entries.get(depth) or params.add_depth(depth)
    return nn.fit([tower], head, (crops,), None, targets, offset_loss, epochs, batch_size,
                  lr, seed)
