"""Checks on every timed operation, computed apart from the codec.

The expected geometry comes from the benchmark's own normalization and
voxelization of the input, not from the library's. Rate is held to the
acceptance-3 bound against the model's own code lengths.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from voxelcodec.coder import payload_size

RATE_SLACK = 1.01
RATE_EXTRA_BITS = 512


def unit_cube(points_list):
    """Origin and edge of the cubic box around all points: min corner, largest extent."""
    allp = np.concatenate(points_list)
    origin = allp.min(axis=0)
    edge = float((allp.max(axis=0) - origin).max())
    return origin, (edge if edge > 0.0 else 1.0)


def aligned(points, pose):
    """Apply a frame's rigid pose, p -> R p + t."""
    if pose is None:
        return points
    return points @ pose.rotation.T + pose.translation


def rate_ok(data: bytes, model_bits: float) -> bool:
    return 8 * payload_size(data) <= RATE_SLACK * model_bits + RATE_EXTRA_BITS


def leaves_ok(trees, expected, trunc) -> bool:
    return all(tree.max_depth == trunc and np.array_equal(tree.levels[trunc], cells)
               for tree, cells in zip(trees, expected))


def inside_cells(clouds, trees, header) -> bool:
    """Each decoded point lies strictly inside its own leaf cell (point i <-> leaf i)."""
    for cloud, tree in zip(clouds, trees):
        d = tree.max_depth
        leaves = tree.levels[d]
        if len(cloud.points) != len(leaves):
            return False
        s = (cloud.points - header.norm.origin) / header.norm.edge * (1 << d) - leaves
        if not ((s > 0.0) & (s < 1.0)).all():
            return False
    return True


def d1_psnr(decoded_unit, input_unit) -> float:
    """Point-to-point PSNR (peak 1) averaged over frames; max of the two directions."""
    out = []
    for a, b in zip(decoded_unit, input_unit):
        ab = cKDTree(b).query(a, workers=1)[0]
        ba = cKDTree(a).query(b, workers=1)[0]
        mse = max(float((ab ** 2).mean()), float((ba ** 2).mean()))
        out.append(10.0 * np.log10(1.0 / mse))
    return float(np.mean(out))


class Reference:
    """What every timed operation of one run is checked against.

    The first encode of the run fixes the reference bitstream; every later one
    must repeat it byte for byte. The first decode fixes the reference output
    and its D1 PSNR; every later one must repeat it exactly.
    """

    def __init__(self, case):
        self.case = case
        moved = [aligned(p, pose) for p, pose in case.frames()]
        self.origin, self.edge = unit_cube(moved)
        self.unit = [(p - self.origin) / self.edge for p in moved]
        n = 1 << case.depth
        self.leaves = [np.unique(np.clip(np.floor(u * n).astype(np.int64), 0, n - 1)
                                 >> (case.depth - case.trunc), axis=0)
                       for u in self.unit]
        self.bitstream = None
        self.model_bits = None
        self.decoded = None
        self.d1 = None

    def check_encode(self, data: bytes) -> bool:
        if self.bitstream is None:
            self.bitstream = data
            self.model_bits = self.case.model_bits()
        return data == self.bitstream and rate_ok(data, self.model_bits)

    def check_decode(self, out) -> bool:
        clouds, trees, header = out
        if self.decoded is None:
            self.decoded = [c.points.copy() for c in clouds]
            self.d1 = d1_psnr([(p - self.origin) / self.edge for p in self.decoded], self.unit)
        return (len(clouds) == len(trees) == len(self.leaves) == len(self.decoded)
                and all(np.array_equal(c.points, p) for c, p in zip(clouds, self.decoded))
                and leaves_ok(trees, self.leaves, self.case.trunc)
                and inside_cells(clouds, trees, header))

    def gap_pct(self) -> float:
        """Coded payload bits over the model's sum of -log2 q, minus one, in percent."""
        return 100.0 * (8 * payload_size(self.bitstream) / self.model_bits - 1.0)
