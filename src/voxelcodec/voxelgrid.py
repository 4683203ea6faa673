"""Per-depth binary occupancy grids, the local voxel crops fed to the models,
and the tiles of zero-padded occupancy the level-wise tower pass reads.

Grids at depth k cover [0, 2^k)^3. Up to depth 9 a dense uint8 array is kept;
deeper grids fall back to a sorted-key set, since a crop or tile only ever
touches a bounded box of cells and membership tests vectorize well with
searchsorted.
"""

from __future__ import annotations

import numpy as np

from .octree import Octree, cell_keys

DENSE_DEPTH_LIMIT = 9


class VoxelGrid:
    """Binary occupancy of one octree level."""

    def __init__(self, depth: int, cells: np.ndarray):
        self.depth = depth
        self.size = 1 << depth
        cells = np.asarray(cells, dtype=np.int64).reshape(-1, 3)
        if len(cells) and (cells.min() < 0 or cells.max() >= self.size):
            raise ValueError(f"cell index out of range for depth {depth}")
        self.keys = np.unique(cell_keys(cells, depth))
        self._dense = None
        if depth <= DENSE_DEPTH_LIMIT:
            dense = np.zeros((self.size,) * 3, dtype=np.uint8)
            dense[cells[:, 0], cells[:, 1], cells[:, 2]] = 1
            self._dense = dense

    @property
    def occupancy(self) -> np.ndarray:
        """Dense 2^k cubed array; only materialized at dense depths."""
        if self._dense is None:
            raise ValueError(f"grid at depth {self.depth} is sparse; no dense occupancy array")
        return self._dense

    def occupied_count(self) -> int:
        return len(self.keys)

    def contains(self, cells: np.ndarray) -> np.ndarray:
        """Vectorized membership: (n, 3) int -> (n,) uint8, out-of-range counts as empty."""
        cells = np.asarray(cells, dtype=np.int64).reshape(-1, 3)
        inside = ((cells >= 0) & (cells < self.size)).all(axis=1)
        keys = cell_keys(np.clip(cells, 0, self.size - 1), self.depth)
        pos = np.searchsorted(self.keys, keys)
        pos[pos >= len(self.keys)] = max(len(self.keys) - 1, 0)
        hit = (self.keys[pos] == keys) if len(self.keys) else np.zeros(len(cells), dtype=bool)
        return (hit & inside).astype(np.uint8)


def grid_from_level(source, k: int) -> VoxelGrid:
    """Materialize the occupancy grid of depth level k.

    `source` is either an Octree or a (n, 3) array of occupied cells.
    """
    if isinstance(source, Octree):
        if not 0 <= k <= source.max_depth:
            raise ValueError(f"level {k} not available (max_depth {source.max_depth})")
        cells = source.levels[k]
    else:
        cells = np.asarray(source, dtype=np.int64)
    return VoxelGrid(k, cells)


def _extract_windows(grid: VoxelGrid, starts: np.ndarray, shape) -> np.ndarray:
    """Gather (n, *shape) windows whose lower corner per node is `starts` (may be
    negative); `shape` is one edge for cubes or three extents."""
    starts = np.asarray(starts, dtype=np.int64).reshape(-1, 3)
    ex, ey, ez = np.broadcast_to(np.asarray(shape, dtype=np.int64), 3)
    n = len(starts)
    s = grid.size
    ax = starts[:, 0, None] + np.arange(ex)
    ay = starts[:, 1, None] + np.arange(ey)
    az = starts[:, 2, None] + np.arange(ez)
    if grid._dense is not None:
        vx = (ax >= 0) & (ax < s)
        vy = (ay >= 0) & (ay < s)
        vz = (az >= 0) & (az < s)
        cx, cy, cz = np.clip(ax, 0, s - 1), np.clip(ay, 0, s - 1), np.clip(az, 0, s - 1)
        out = grid._dense[cx[:, :, None, None], cy[:, None, :, None], cz[:, None, None, :]]
        valid = vx[:, :, None, None] & vy[:, None, :, None] & vz[:, None, None, :]
        return (out & valid).astype(np.uint8)
    # sparse path, chunked to bound the key-cube working set
    out = np.empty((n, ex, ey, ez), dtype=np.uint8)
    chunk = max(1, (1 << 21) // int(ex * ey * ez))
    d = grid.depth
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        bx, by, bz = ax[lo:hi], ay[lo:hi], az[lo:hi]
        valid = ((bx >= 0) & (bx < s))[:, :, None, None] \
            & ((by >= 0) & (by < s))[:, None, :, None] \
            & ((bz >= 0) & (bz < s))[:, None, None, :]
        kx = np.clip(bx, 0, s - 1) << (2 * d)
        ky = np.clip(by, 0, s - 1) << d
        kz = np.clip(bz, 0, s - 1)
        keys = kx[:, :, None, None] | ky[:, None, :, None] | kz[:, None, None, :]
        flat = keys.reshape(-1)
        pos = np.searchsorted(grid.keys, flat)
        pos[pos >= len(grid.keys)] = max(len(grid.keys) - 1, 0)
        hit = (grid.keys[pos] == flat) if len(grid.keys) else np.zeros(flat.shape, dtype=bool)
        out[lo:hi] = (hit.reshape(keys.shape) & valid).astype(np.uint8)
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
        box = _extract_windows(grid, lo, a.max(axis=0) - lo + m)[0]
        yield idx, box, a - lo


def pool_down(grid: VoxelGrid) -> np.ndarray:
    """2x max-pool of a dense grid: the depth-(k-1) occupancy it implies."""
    occ = grid.occupancy
    s = grid.size // 2
    return occ.reshape(s, 2, s, 2, s, 2).max(axis=(1, 3, 5))
