"""Probability models over the 255-symbol occupancy alphabet.

Symbol values run 1..255 (a split node always has at least one occupied
child), mapped to array indices 0..254. Four model kinds share one coding
interface: `stream()` opens one coded stream and returns its
`level_tables(ctx)`, which the coder calls per depth level with a
LevelContext (a plain record of the level's decoded data, whose feature
methods compute on call) to get integer cumulative tables, one per node in
node order, with the rule, if any, that updates them as symbols are coded:
one shared uniform row, the neural models' `nn.integer_tables`, or the
adaptive baseline's live counts. Those tables are each model's only
distribution: rate accounting reads q = freq/total from them
(`level_code_lengths`). The counts or integer net a stream builds live in
that function, not in the model.

The neural models and the refiner share one level pass (`level_outputs`):
one tile loop per anchor set (`voxelgrid.anchor_tiles`) builds each tile's
compact layer layouts (`nn.tile_layout`) once, every branch at those anchors
runs its tower on them (`nn.tower_windows`), and the head's first layer is
applied per tile, so no level-wide head input or tower output is built. The
integer net is quantized once per stream, when the stream opens.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from . import nn
from .octree import Octree, cell_keys
from .voxelgrid import (CHILD_CROP_SIZE, VoxelGrid, anchor_tiles, child_anchors,
                        child_region_crops, local_anchors, local_crops)

ALPHABET = 255
LOG2_ALPHABET = float(np.log2(ALPHABET))
TOTAL_FREQ = nn.TABLE_TOTAL   # largest total of any table the coder codes with

KIND_UNIFORM = 0
KIND_ADAPTIVE = 1
KIND_VOXEL_STATIC = 2
KIND_VOXEL_DYNAMIC = 3
KIND_REFINE = 4

KIND_NAMES = {KIND_UNIFORM: "uniform", KIND_ADAPTIVE: "adaptive",
              KIND_VOXEL_STATIC: "voxel-static", KIND_VOXEL_DYNAMIC: "voxel-dynamic"}

# (axis, step) of each face neighbour, in neighbour-bit order: +x, -x, +y, -y, +z, -z
_NEIGHBOR_FACES = ((0, 1), (0, -1), (1, 1), (1, -1), (2, 1), (2, -1))


@dataclass(frozen=True)
class Branch:
    """Where one tower's crop comes from, declared once per model and read both
    by the training crops (`LevelContext.branch_crops`) and by the level-wise
    coding pass (`level_outputs`): the LevelContext grid
    it reads (None there means an absent neighbour frame) and whether the crop
    is the depth-(k+1) region around the node's children (`child_region_crops`)
    rather than the same-depth neighbourhood (`local_crops`)."""

    grid: str
    child: bool = False

    def anchors(self, cells, m):
        """Each node's crop corner in the branch's grid."""
        return child_anchors(cells, m) if self.child else local_anchors(cells, m)


CURRENT = Branch("grid")
TEMPORAL = (Branch("grid_prev"), Branch("grid_next"), Branch("grid_prev_child", child=True))


def level_outputs(net: nn.IntContextNet, geometry, crop_sizes, ctx, feats=None) -> np.ndarray:
    """Integer head outputs (n, out) at net.head.out_exp of one level, bit for
    bit those of the per-crop oracle (`tests/oracles.py`) on `ctx.branch_crops`
    and `feats`. The head's first layer, split by input columns (a slice per
    branch, then the features'), is summed from the bias: integers within
    `nn.ACC_BITS`, so exactly. An absent branch's crops are all zero, so it
    adds the tower's empty-space output at every window to every row. The
    present branches run tile by tile over their anchors, one tiling and one
    `nn.tile_layout` per tile for all the branches with the same anchors and
    tower depth, each tile's tower rows (`nn.tower_windows`) going straight
    into the head's first layer."""
    first, *rest = net.head.layers
    towers = list(zip(geometry, net.towers, crop_sizes))
    *slices, w_feat = np.split(first.w, np.cumsum([t.width(m) for _, t, m in towers]), axis=1)
    acc = np.tile(first.b, (len(ctx), 1))
    if feats is not None:
        acc += net.features(feats) @ w_feat.T
    groups = defaultdict(list)
    for (b, tower, m), w in zip(towers, slices):
        grid = getattr(ctx, b.grid)
        if grid is None:
            background = tower.backgrounds[-1]
            acc += np.tile(background, tower.width(m) // len(background)) @ w.T
        else:
            groups[b.child, m, len(tower.layers)].append((b, tower, grid, w))
    for (_, m, depth), group in groups.items():
        for idx, lo, ext, local in anchor_tiles(group[0][0].anchors(ctx.cells, m), m):
            layout = nn.tile_layout(ext, local, m, depth)
            for _, tower, grid, w in group:
                acc[idx] += nn.tower_windows(tower, grid.box(lo, ext), layout) @ w.T
    x = first.requantize(acc)
    for layer in rest:   # the head's other layers, all fully connected
        x = layer.apply(x)
    return x


@dataclass
class LevelContext:
    """Everything a model may condition on while coding one depth level.

    All fields derive from already-decoded data: the depth-k cell list, the
    depth-(k-1) cells/symbols, and (for sequences) neighbour-frame grids.
    """

    depth: int
    max_depth: int
    cells: np.ndarray                    # (n, 3) occupied cells at this depth
    grid: VoxelGrid                      # same-depth grid of the current frame
    prev_cells: np.ndarray | None = None
    prev_symbols: np.ndarray | None = None
    grid_prev: VoxelGrid | None = None        # same depth, frame t-1
    grid_next: VoxelGrid | None = None        # same depth, frame t+1
    grid_prev_child: VoxelGrid | None = None  # depth k+1, frame t-1

    def __len__(self):
        return len(self.cells)

    def node_features(self) -> np.ndarray:
        """(n, 4): normalized cube center plus fractional depth."""
        centers = (self.cells.astype(np.float64) + 0.5) / (1 << self.depth)
        depth_frac = np.full((len(self.cells), 1), self.depth / self.max_depth)
        return np.concatenate([centers, depth_frac], axis=1)

    def child_indices(self) -> np.ndarray:
        c = self.cells
        return 4 * (c[:, 0] & 1) + 2 * (c[:, 1] & 1) + (c[:, 2] & 1)

    def parent_symbols(self) -> np.ndarray:
        if self.depth == 0 or self.prev_cells is None:
            return np.zeros(len(self.cells), dtype=np.int64)
        pkeys = cell_keys(self.cells >> 1, self.depth - 1)
        pos = np.searchsorted(cell_keys(self.prev_cells, self.depth - 1), pkeys)
        return self.prev_symbols[pos].astype(np.int64)

    def neighbor_bits(self) -> np.ndarray:
        """6-bit mask of face-neighbour occupancy in the same-depth grid.

        A face neighbour's key is the cell's key plus or minus the axis's key
        stride (2^(2d), 2^d or 1); cells on the grid's face in that direction
        have no neighbour there.
        """
        d, grid_keys = self.depth, self.grid.keys
        keys = cell_keys(self.cells, d)
        bits = np.zeros(len(keys), dtype=np.int64)
        for b, (axis, step) in enumerate(_NEIGHBOR_FACES):
            coord = self.cells[:, axis]
            inside = coord < (1 << d) - 1 if step > 0 else coord > 0
            near = keys[inside] + (step << (d * (2 - axis)))
            pos = np.searchsorted(grid_keys, near)
            hit = np.take(grid_keys, pos, mode="clip") == near
            bits[inside] |= hit.astype(np.int64) << b
        return bits

    def branch_crops(self, branch: Branch, m: int) -> np.ndarray:
        """(n, m, m, m) crops of one branch; zeros where its frame is absent."""
        grid = getattr(self, branch.grid)
        if grid is None:
            return np.zeros((len(self.cells),) + (m,) * 3, dtype=np.uint8)
        return (child_region_crops if branch.child else local_crops)(grid, self.cells, m)

    def crops(self, m: int) -> np.ndarray:
        return self.branch_crops(CURRENT, m)

    def temporal_crops(self, m: int, m_child: int):
        """(prev, next, prev_child) crop batches; zeros where the frame is absent."""
        return tuple(self.branch_crops(b, s) for b, s in zip(TEMPORAL, (m, m, m_child)))


def make_level_context(k, max_depth, cells, prev_cells=None, prev_symbols=None,
                       grid=None, **temporal) -> LevelContext:
    if grid is None:
        grid = VoxelGrid(k, cells)
    return LevelContext(k, max_depth, np.asarray(cells, dtype=np.int64), grid,
                        prev_cells, prev_symbols, **temporal)


def level_contexts(trees, max_depth, trunc_depth):
    """The depth-synchronized coding schedule over one octree per frame:
    yields (t, k, ctx) in coding order.

    Pass k visits every frame's depth-k level in frame order before any frame
    moves on to depth k+1. Frame t's context carries the depth-k grids of
    frames t-1 and t+1 and the depth-(k+1) grid of frame t-1, all known by
    then; a missing neighbour frame gives no grid, so a one-frame schedule is
    the static level walk. The decoder appends each frame's decoded symbols
    and next level to its tree between steps. max_depth is the untruncated
    depth, which the node features divide by.
    """
    grids = {}

    def grid(t, k):
        if (t, k) not in grids:
            if k >= len(trees[t].levels):
                raise ValueError(f"schedule desync: frame {t} level {k} not decoded yet")
            grids[t, k] = VoxelGrid(k, trees[t].levels[k])
        return grids[t, k]

    n = len(trees)
    for k in range(trunc_depth):
        for key in [key for key in grids if key[1] < k]:
            del grids[key]
        for t in range(n):
            levels, symbols = trees[t].levels, trees[t].symbols
            yield t, k, make_level_context(
                k, max_depth, levels[k],
                prev_cells=levels[k - 1] if k else None,
                prev_symbols=symbols[k - 1] if k else None,
                grid=grid(t, k),
                grid_prev=grid(t - 1, k) if t > 0 else None,
                grid_next=grid(t + 1, k) if t < n - 1 else None,
                grid_prev_child=grid(t - 1, k + 1) if t > 0 else None)


# ---------------------------------------------------------------------------
# model kinds


class EntropyModel:
    """Coding interface shared by all model kinds."""

    kind_code: int

    @property
    def kind(self) -> str:
        return KIND_NAMES[self.kind_code]

    def level_probabilities(self, ctx: LevelContext):
        """Not called by the library, whose rate accounting reads the tables
        of `stream`; kept while the benchmark tracer wraps it by name."""
        return None

    def stream(self):
        """Open one coded stream, on either side: returns its
        level_tables(ctx) -> (rows, update), called once per coded level in
        schedule order. rows yields each node's (256,) integer cumulative
        table in node order, as a memoryview: cum[0] = 0, every frequency
        >= 1, total cum[-1] <= TOTAL_FREQ. update is None, or update(row,
        symbol) runs after the node's symbol is coded, before the next row
        is read, and may change any later row of the stream."""
        raise NotImplementedError

    def node_probability(self, ctx: LevelContext, i: int) -> np.ndarray:
        """Not called by the library; kept while the benchmark tracer wraps it
        by name."""
        raise NotImplementedError

    def observe(self, ctx: LevelContext, i: int, symbol: int):
        """Not called by the library, whose adaptive updates go through the
        tables of `stream`; kept while the benchmark tracer wraps it by name."""

    def serialize(self) -> bytes:
        raise NotImplementedError

    def content_hash(self) -> int:
        return nn.model_content_hash(self.serialize())


def table_rows(freq: np.ndarray, n: int):
    """The level tables of fixed frequencies, (255,) shared by n nodes or an
    (n, 255) batch: cumulative rows as memoryviews, no update rule."""
    cum = np.zeros(freq.shape[:-1] + (ALPHABET + 1,), dtype=np.int64)
    np.cumsum(freq, axis=-1, out=cum[..., 1:])
    flat = memoryview(cum.reshape(-1))
    if cum.ndim == 1:
        return repeat(flat, n), None
    step = ALPHABET + 1
    return (flat[lo:lo + step] for lo in range(0, cum.size, step)), None


class UniformModel(EntropyModel):
    """Every symbol equally likely; the coder sanity baseline."""

    kind_code = KIND_UNIFORM

    def stream(self):
        row = nn.integer_tables(np.zeros((1, ALPHABET)), 0)[0]
        return lambda ctx: table_rows(row, len(ctx))

    def serialize(self):
        return nn.serialize_model(self.kind_code, 0, {"kind": self.kind}, [])


_M64 = np.uint64(0xFFFFFFFFFFFFFFFF)
# _STEPS[s] adds one count to symbol s of a cumulative table: ones from index s on
_STEPS = tuple(np.triu(np.ones((ALPHABET + 1, ALPHABET + 1), dtype=np.int64)))


def _splitmix64(x: np.ndarray) -> np.ndarray:
    x = (x + np.uint64(0x9E3779B97F4A7C15)) & _M64
    x = ((x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)) & _M64
    x = ((x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)) & _M64
    return x ^ (x >> np.uint64(31))


_FRESH = np.arange(ALPHABET + 1, dtype=np.int64)


def _fresh_table() -> memoryview:
    """A context's table before its first symbol: one count per symbol."""
    return memoryview(_FRESH.copy())


def _add_count(row: memoryview, symbol: int):
    """The adaptive count update: one more count for `symbol` (1..255) in the
    table `row` views; when the total passes TOTAL_FREQ, every frequency f
    becomes (f + 1) >> 1."""
    cum = row.obj
    np.add(cum, _STEPS[symbol], cum)
    if row[ALPHABET] > TOTAL_FREQ:
        np.cumsum((np.diff(cum) + 1) >> 1, out=cum[1:])


class AdaptiveContextModel(EntropyModel):
    """Non-neural baseline: per-context Laplace-smoothed symbol counts.

    The context id is a B-bit splitmix64 hash of (parent symbol, child octant,
    6-neighbour occupancy). Each context keeps an integer cumulative table that
    the coder codes with directly: it starts at arange(256), one count per
    symbol, so its total is observations + 255. Every coded symbol adds one to
    its frequency, identically on encoder and decoder; when the total would
    pass TOTAL_FREQ, every frequency f becomes (f + 1) >> 1, which keeps each
    at least 1 (Witten, Neal & Cleary, CACM 1987).
    """

    kind_code = KIND_ADAPTIVE

    def __init__(self, context_bits: int = 16):
        if not 1 <= context_bits <= 16:
            raise ValueError("context_bits must be in [1, 16]")
        self.context_bits = context_bits

    def context_ids(self, ctx: LevelContext) -> np.ndarray:
        packed = (ctx.parent_symbols()
                  | (ctx.child_indices() << 8)
                  | (ctx.neighbor_bits() << 11)).astype(np.uint64)
        mask = np.uint64((1 << self.context_bits) - 1)
        return (_splitmix64(packed) & mask).astype(np.int64)

    def stream(self):
        """Each level's node context tables, in node order, and `_add_count`.
        The stream's tables start fresh; nodes that share a context share its
        table, so an update is seen by every later node of the stream."""
        # context id -> memoryview of its int64 cumulative table, made on first use
        tables = defaultdict(_fresh_table)

        def level_tables(ctx):
            return list(map(tables.__getitem__, self.context_ids(ctx).tolist())), _add_count
        return level_tables

    def serialize(self):
        return nn.serialize_model(self.kind_code, 0,
                                  {"kind": self.kind, "context_bits": self.context_bits}, [])


FEATURE_DIM = 4
FEATURE_BOUND = 1.0   # every node feature lies in [0, 1]


class ContextNetModel(EntropyModel):
    """Entropy model over the shared context net (`nn.context_forward`): one
    conv tower per crop branch, the node features, then a two-layer MLP with a
    zero-initialized 255-way output so the fresh model predicts uniformly.

    Subclasses declare their kind code, the VCNM group name, training-set key
    and `Branch` geometry of each branch, and the metadata that rebuilds them.
    Training and `logits` run the float network on per-node crops. Coding
    and rate accounting run its integer-exact copy (`nn.quantize_context_net`),
    quantized when a stream opens and held by that stream alone, each tower
    once per level (`level_outputs`), and read `nn.integer_tables` of its
    logits.
    """

    branch_names: tuple   # VCNM group of each branch, in file order; the head follows
    dataset_keys: tuple   # training-set array of each branch
    geometry: tuple       # crop geometry (Branch) of each branch
    config_keys: tuple    # constructor arguments stored as metadata

    def __init__(self, channels, hidden, seed, crop_sizes, branches, head):
        self.crop_sizes = tuple(crop_sizes)
        self.channels = tuple(channels)
        self.hidden = hidden
        self.seed = seed
        if branches is None:
            branches, head = nn.init_context_net(crop_sizes, self.channels, hidden, ALPHABET,
                                                 seed, FEATURE_DIM)
        self.branches = list(branches)
        self.head = head

    def logits(self, crop_sets, feats, caches=None):
        return nn.context_forward(self.branches, self.head, crop_sets, feats, caches)

    def integer_net(self) -> nn.IntContextNet:
        return nn.quantize_context_net(self.branches, self.head, self.crop_sizes, FEATURE_BOUND)

    def stream(self):
        """`nn.integer_tables` of each level's logits (`level_outputs`), by the
        integer net of the weights as the stream opens, so training between
        streams takes effect."""
        net = self.integer_net()

        def level_tables(ctx):
            z = level_outputs(net, self.geometry, self.crop_sizes, ctx, ctx.node_features())
            return table_rows(nn.integer_tables(z, net.head.out_exp), len(ctx))
        return level_tables

    def evaluate(self, dataset, batch_size=512) -> float:
        """Mean cross-entropy of the current parameters on a dataset, in nats."""
        symbols, feats = dataset["symbols"], dataset["features"]
        total = 0.0
        for lo in range(0, len(symbols), batch_size):
            sel = slice(lo, lo + batch_size)
            z = self.logits([dataset[k][sel] for k in self.dataset_keys], feats[sel])
            total += nn.symbol_loss(z, symbols[sel])[0] * len(z)
        return total / len(symbols)

    def train(self, dataset, epochs, batch_size=32, lr=1e-4, seed=0):
        """Minimize mean per-symbol cross-entropy; returns per-epoch mean loss (nats)."""
        return nn.fit(self.branches, self.head, [dataset[k] for k in self.dataset_keys],
                      dataset["features"], dataset["symbols"], nn.symbol_loss,
                      epochs, batch_size, lr, seed)

    def _parameter_groups(self):
        return list(zip(self.branch_names, self.branches)) + [("head", self.head)]

    def serialize(self):
        meta = {"kind": self.kind, **{k: getattr(self, k) for k in self.config_keys}}
        return nn.serialize_model(self.kind_code, self.seed, meta, self._parameter_groups())

    @classmethod
    def deserialize(cls, blob: bytes):
        kind, seed, meta, groups = nn.deserialize_model(blob)
        if kind != cls.kind_code:
            raise ValueError(f"model kind {kind} is not {KIND_NAMES[cls.kind_code]}")
        named = dict(groups)
        with nn.model_fields():
            config = {k: nn.int_field(meta, k, many=k == "channels") for k in cls.config_keys}
            branches = [named[n] for n in cls.branch_names]
            head = named["head"]
        model = cls(seed=seed, branches=branches, head=head, **config)
        nn.check_context_net(model.branches, model.head, model.crop_sizes, FEATURE_DIM, ALPHABET)
        return model


class VoxelContextModel(ContextNetModel):
    """Static model: one conv tower over the same-depth M^3 crop."""

    kind_code = KIND_VOXEL_STATIC
    branch_names = ("tower",)
    dataset_keys = ("crops",)
    geometry = (CURRENT,)
    config_keys = ("crop_size", "channels", "hidden")

    def __init__(self, crop_size=9, channels=(16, 32, 64), hidden=256, seed=0,
                 branches=None, head=None):
        self.crop_size = crop_size
        super().__init__(channels, hidden, seed, (crop_size,), branches, head)


class DynamicContextModel(ContextNetModel):
    """Four-branch temporal model: towers over the current, previous and next
    frames' same-depth crops and over the previous frame's child-depth crop."""

    kind_code = KIND_VOXEL_DYNAMIC
    branch_names = ("tower-current", "tower-previous", "tower-next", "tower-child")
    dataset_keys = ("crops", "crops_prev", "crops_next", "crops_child")
    geometry = (CURRENT,) + TEMPORAL
    config_keys = ("crop_size", "child_crop_size", "channels", "hidden")

    def __init__(self, crop_size=9, child_crop_size=CHILD_CROP_SIZE, channels=(16, 32, 64),
                 hidden=256, seed=0, branches=None, head=None):
        self.crop_size = crop_size
        self.child_crop_size = child_crop_size
        super().__init__(channels, hidden, seed, (crop_size,) * 3 + (child_crop_size,),
                         branches, head)


def load_entropy_model(blob: bytes) -> EntropyModel:
    kind, _, meta, _ = nn.deserialize_model(blob)
    if kind == KIND_UNIFORM:
        return UniformModel()
    if kind == KIND_ADAPTIVE:
        with nn.model_fields():
            return AdaptiveContextModel(nn.int_field(meta, "context_bits"))
    if kind == KIND_VOXEL_STATIC:
        return VoxelContextModel.deserialize(blob)
    if kind == KIND_VOXEL_DYNAMIC:
        return DynamicContextModel.deserialize(blob)
    raise ValueError(f"unknown entropy model kind {kind}")


# ---------------------------------------------------------------------------
# datasets and rate accounting


def build_node_dataset(trees, crop_size=9):
    """Flatten a list of octrees into (crop, feature, symbol) training
    samples, all depths."""
    crops, feats, symbols = [], [], []
    for tree in trees:
        for _, k, ctx in level_contexts([tree], tree.max_depth, tree.max_depth):
            crops.append(ctx.crops(crop_size))
            feats.append(ctx.node_features())
            symbols.append(tree.symbols[k].astype(np.int64))
    return {"crops": np.concatenate(crops), "features": np.concatenate(feats),
            "symbols": np.concatenate(symbols)}


def model_code_lengths(model: EntropyModel, tree: Octree, trunc_depth=None) -> np.ndarray:
    """-log2 q for every coded symbol of one tree, in stream order.

    Runs a stream of its own, exactly like coding a fresh bitstream.
    """
    d = trunc_depth if trunc_depth is not None else tree.max_depth
    return schedule_code_lengths(model, [tree], tree.max_depth, d)[0]


def schedule_code_lengths(model: EntropyModel, trees, max_depth, trunc_depth) -> list:
    """Per-frame -log2 q of every symbol the schedule codes, in one stream."""
    level_tables = model.stream()
    lengths = [[] for _ in trees]
    for t, k, ctx in level_contexts(trees, max_depth, trunc_depth):
        lengths[t].append(level_code_lengths(level_tables, ctx, trees[t].symbols[k]))
    return [np.concatenate(parts) if parts else np.empty(0) for parts in lengths]


def level_code_lengths(level_tables, ctx: LevelContext, symbols) -> np.ndarray:
    """-log2 q of one level's symbols (1..255), in coding order.

    q = freq/total is read node by node from the tables the coder codes with,
    those of a stream's `level_tables` (`EntropyModel.stream`), updated after
    each symbol by the model's own rule, if it has one, as the coder does.
    """
    syms = np.asarray(symbols).astype(np.int64).tolist()
    rows, update = level_tables(ctx)
    freq, total = np.empty(len(syms)), np.empty(len(syms))
    for i, (row, s) in enumerate(zip(rows, syms)):
        freq[i], total[i] = row[s] - row[s - 1], row[ALPHABET]
        if update is not None:
            update(row, s)
    return -np.log2(freq / total)

