"""Octree construction over the unit cube, and the expansion of a level's
occupancy symbols into the next level that the decoder replays.

An octree is stored flat: one sorted array of occupied cells per depth level and
one 8-bit occupancy symbol per non-leaf cell describing which of its eight
children are occupied. Child bit j encodes offsets (bx, by, bz) via
j = 4*bx + 2*by + bz, where b=1 selects the upper half of the parent cube along
that axis. Cells within a level are ordered lexicographically by (ix, iy, iz),
which fixes a canonical symbol stream for the entropy coder.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pointcloud import NormalizationParams, PointCloud

MAX_DEPTH = 16

# child bit j -> (bx, by, bz)
CHILD_OFFSETS = np.array([[(j >> 2) & 1, (j >> 1) & 1, j & 1] for j in range(8)], dtype=np.int64)


def cell_keys(cells: np.ndarray, depth: int) -> np.ndarray:
    """Pack (ix, iy, iz) into a single int64 whose order is lexicographic."""
    c = np.asarray(cells, dtype=np.int64)
    return (c[:, 0] << (2 * depth)) | (c[:, 1] << depth) | c[:, 2]


def keys_to_cells(keys: np.ndarray, depth: int) -> np.ndarray:
    mask = (1 << depth) - 1
    return np.stack([keys >> (2 * depth), (keys >> depth) & mask, keys & mask], axis=1)


@dataclass
class Octree:
    max_depth: int
    levels: list     # levels[k]: (n_k, 3) int64, lexicographically sorted
    symbols: list    # symbols[k]: (n_k,) uint8 for k < max_depth

    def symbol_count(self):
        return sum(len(s) for s in self.symbols)

    def truncate(self, trunc_depth: int) -> "Octree":
        if not 1 <= trunc_depth <= self.max_depth:
            raise ValueError(f"truncation depth {trunc_depth} out of range [1, {self.max_depth}]")
        if trunc_depth == self.max_depth:
            return self
        return Octree(trunc_depth, self.levels[: trunc_depth + 1], self.symbols[:trunc_depth])

    def leaf_centers(self) -> np.ndarray:
        """Unit-cube centers of the deepest-level cells."""
        d = self.max_depth
        return (self.levels[d].astype(np.float64) + 0.5) / (1 << d)


def build(cloud: PointCloud, depth: int) -> Octree:
    """Build the octree of a normalized cloud down to `depth` levels.

    The leaf cell of point p is floor(p * 2^depth), clamped so coordinates of
    exactly 1.0 fall into the last cell. Duplicate leaf cells collapse.
    """
    if len(cloud) == 0:
        raise ValueError("cannot build an octree from an empty cloud")
    if not 1 <= depth <= MAX_DEPTH:
        raise ValueError(f"depth {depth} out of range [1, {MAX_DEPTH}]")
    pts = cloud.points
    if pts.min() < 0.0 or pts.max() > 1.0:
        raise ValueError("points must be normalized to [0, 1]^3 before octree construction")
    n = 1 << depth
    idx = np.floor(pts * n).astype(np.int64)
    np.clip(idx, 0, n - 1, out=idx)

    levels = [None] * (depth + 1)
    symbols = [None] * depth
    keys = np.unique(cell_keys(idx, depth))
    levels[depth] = keys_to_cells(keys, depth)
    for k in range(depth - 1, -1, -1):
        child = levels[k + 1]
        bits = (4 * (child[:, 0] & 1) + 2 * (child[:, 1] & 1) + (child[:, 2] & 1)).astype(np.uint8)
        pkeys = cell_keys(child >> 1, k)
        ukeys, inverse = np.unique(pkeys, return_inverse=True)
        sym = np.zeros(len(ukeys), dtype=np.uint8)
        np.bitwise_or.at(sym, inverse, np.uint8(1) << bits)
        levels[k] = keys_to_cells(ukeys, k)
        symbols[k] = sym
    return Octree(depth, levels, symbols)


def _expand_children(cells: np.ndarray, syms: np.ndarray, k: int) -> np.ndarray:
    """Occupied depth-(k+1) cells implied by depth-k symbols, sorted canonically.

    The expansion runs on packed keys: a parent's key at depth k+1, shifted
    left by one, is the key of its child (0, 0, 0), and child j adds the key
    of CHILD_OFFSETS[j]. The keys of the set bits are sorted once.
    """
    d = k + 1
    keys = (cell_keys(cells, d) << 1)[:, None] + cell_keys(CHILD_OFFSETS, d)
    bits = np.unpackbits(np.asarray(syms, dtype=np.uint8)[:, None], axis=1, bitorder="little")
    kids = keys[bits.view(bool)]
    kids.sort()
    return keys_to_cells(kids, d)


def reconstruct_centers(tree: Octree, params: NormalizationParams) -> PointCloud:
    """One point per deepest-level cell, at its cube center in input coordinates."""
    return PointCloud(params.invert(tree.leaf_centers()))
