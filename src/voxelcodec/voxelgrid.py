"""Per-depth binary occupancy grids, the tiles of zero-padded occupancy the
level-wise tower pass reads, and the local voxel crops cut from those tiles.

A grid at depth k covers [0, 2^k)^3 and is stored at every depth as the
sorted keys of its occupied cells, since a crop or tile only ever touches a
bounded box of cells. A box is gathered from key ranges (`VoxelGrid.box`),
the coordinate-map idea of sparse convolution (Choy et al., MinkowskiEngine,
arXiv:1904.08755), and every crop is a cube window of a tile's box.
"""

from __future__ import annotations

import numpy as np

from .octree import cell_keys, keys_to_cells


class VoxelGrid:
    """Binary occupancy of one octree level, as the sorted keys of its cells."""

    def __init__(self, depth: int, cells: np.ndarray):
        self.depth = depth
        self.size = 1 << depth
        cells = np.asarray(cells, dtype=np.int64).reshape(-1, 3)
        if len(cells) and (cells.min() < 0 or cells.max() >= self.size):
            raise ValueError(f"cell index out of range for depth {depth}")
        self.keys = np.unique(cell_keys(cells, depth))

    def box(self, lo, ext) -> np.ndarray:
        """Zero-padded uint8 occupancy of the cells [lo, lo + ext); the box may
        reach past any face of the grid.

        Keys are x-major, so the cells of one x row within the box's y span are
        one key range, found by searchsorted; they are filtered on z and
        scattered into the box.
        """
        lo = np.asarray(lo, dtype=np.int64).reshape(3)
        ext = np.asarray(ext, dtype=np.int64).reshape(3)
        out = np.zeros(tuple(ext), dtype=np.uint8)
        a, b = np.maximum(lo, 0), np.minimum(lo + ext, self.size)
        if (a >= b).any():
            return out
        d = self.depth
        rows = np.arange(a[0], b[0]) << (2 * d)
        first = np.searchsorted(self.keys, rows + (a[1] << d))
        count = np.searchsorted(self.keys, rows + (b[1] << d)) - first
        pos = np.repeat(first - np.cumsum(count) + count, count) + np.arange(count.sum())
        cells = keys_to_cells(self.keys[pos], d) - lo
        cells = cells[(cells[:, 2] >= 0) & (cells[:, 2] < ext[2])]
        out[cells[:, 0], cells[:, 1], cells[:, 2]] = 1
        return out


def _extract_windows(grid: VoxelGrid, anchors: np.ndarray, m: int) -> np.ndarray:
    """(n, m, m, m) crops whose lower corners are `anchors` (may be negative),
    cut as cube windows of the tile boxes of `anchor_tiles`."""
    anchors = np.asarray(anchors, dtype=np.int64).reshape(-1, 3)
    out = np.empty((len(anchors),) + (m,) * 3, dtype=np.uint8)
    for idx, box, local in anchor_tiles(grid, anchors, m):
        windows = np.lib.stride_tricks.sliding_window_view(box, (m,) * 3)
        out[idx] = windows[local[:, 0], local[:, 1], local[:, 2]]
    return out


def local_anchors(cells: np.ndarray, m: int) -> np.ndarray:
    """Lower corner of the same-depth M^3 crop centered on each cell; M must be odd."""
    if m % 2 == 0 or m < 1:
        raise ValueError(f"crop size must be odd and >= 1, got {m}")
    return np.asarray(cells, dtype=np.int64).reshape(-1, 3) - (m - 1) // 2


def local_crops(grid: VoxelGrid, cells: np.ndarray, m: int) -> np.ndarray:
    """Same-depth M^3 crops centered on each cell; M must be odd."""
    return _extract_windows(grid, local_anchors(cells, m), m)


CHILD_CROP_SIZE = 10


def child_anchors(cells: np.ndarray, m: int = CHILD_CROP_SIZE) -> np.ndarray:
    """Lower corner, at depth k+1, of the child-region crop of each depth-k cell.

    The window spans child indices [2c - (m-2)/2, 2c + (m+2)/2) per axis, i.e.
    for m=10 the refinement of the 5-cell same-depth neighborhood, keeping the
    node's own 2x2x2 child block in the crop center.
    """
    if m % 2 != 0:
        raise ValueError(f"child-region crop size must be even, got {m}")
    return 2 * np.asarray(cells, dtype=np.int64).reshape(-1, 3) - (m - 2) // 2


def child_region_crops(grid: VoxelGrid, cells: np.ndarray, m: int = CHILD_CROP_SIZE) -> np.ndarray:
    """Depth-(k+1) crops around the children of depth-k cells (see `child_anchors`)."""
    return _extract_windows(grid, child_anchors(cells, m), m)


TILE = 32   # edge, in cells of the cropped grid, of the tiles of the level-wise tower pass


def anchor_tiles(grid: VoxelGrid, anchors: np.ndarray, m: int):
    """Split M^3 crops with lower corners `anchors` into TILE^3 tiles by crop center.

    Yields, per tile, (node indices, the zero-padded occupancy box that holds
    the tile's crops, the crop corners relative to that box). The box spans
    only the tile's crops, so its size is bounded whatever the level's extent.
    """
    anchors = np.asarray(anchors, dtype=np.int64).reshape(-1, 3)
    if not len(anchors):
        return
    tiles = (anchors + m // 2) // TILE
    order = np.lexsort((tiles[:, 2], tiles[:, 1], tiles[:, 0]))
    ordered = tiles[order]
    cuts = np.flatnonzero((ordered[1:] != ordered[:-1]).any(axis=1)) + 1
    for idx in np.split(order, cuts):
        a = anchors[idx]
        lo = a.min(axis=0)
        yield idx, grid.box(lo, a.max(axis=0) - lo + m), a - lo
