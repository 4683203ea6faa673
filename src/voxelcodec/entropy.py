"""Probability models over the 255-symbol occupancy alphabet.

Symbol values run 1..255 (a split node always has at least one occupied
child), mapped to array indices 0..254. Four model kinds share one coding
interface: per depth level the coder hands the model a LevelContext and gets
either a batch of distributions (uniform / neural), which it quantizes, or
per-node integer frequency tables (the adaptive baseline, whose counts evolve
as symbols are coded).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import nn
from .octree import Octree, cell_keys
from .voxelgrid import (CHILD_CROP_SIZE, VoxelGrid, anchor_tiles, child_anchors,
                        child_region_crops, local_anchors, local_crops)

ALPHABET = 255
LOG2_ALPHABET = float(np.log2(ALPHABET))
TOTAL_FREQ = 1 << 16   # largest total of any table the coder codes with

KIND_UNIFORM = 0
KIND_ADAPTIVE = 1
KIND_VOXEL_STATIC = 2
KIND_VOXEL_DYNAMIC = 3
KIND_REFINE = 4

KIND_NAMES = {KIND_UNIFORM: "uniform", KIND_ADAPTIVE: "adaptive",
              KIND_VOXEL_STATIC: "voxel-static", KIND_VOXEL_DYNAMIC: "voxel-dynamic"}
KIND_CODES = {v: k for k, v in KIND_NAMES.items()}

_NEIGHBOR_OFFSETS = np.array([[1, 0, 0], [-1, 0, 0], [0, 1, 0],
                              [0, -1, 0], [0, 0, 1], [0, 0, -1]], dtype=np.int64)


@dataclass(frozen=True)
class Branch:
    """Where one tower's crop comes from, declared once per model and read both
    by the training crops (`LevelContext.branch_crops`) and by the level-wise
    coding pass (`ContextNetModel.level_probabilities`): the LevelContext grid
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


def tower_rows(tower: nn.IntNet, grid: VoxelGrid | None, anchors, m: int,
               out=None) -> np.ndarray:
    """(n, width) integer tower outputs of the m^3 crops at `anchors` in `grid`,
    by the level-wise pass (`nn.tower_windows`) tile by tile
    (`voxelgrid.anchor_tiles`), rows in node order, written into `out` if
    given. An absent grid is an all-zero crop for every node: its one output
    row is computed once and broadcast."""
    if out is None:
        out = np.empty((len(anchors), tower.width(m)))
    if grid is None:
        out[...] = nn.tower_windows(tower, np.zeros((m,) * 3, dtype=np.uint8),
                                    np.zeros((1, 3), dtype=np.int64), m)
        return out
    for idx, box, local in anchor_tiles(grid, anchors, m):
        out[idx] = nn.tower_windows(tower, box, local, m)
    return out


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
    _cache: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.cells)

    def node_features(self) -> np.ndarray:
        """(n, 4): normalized cube center plus fractional depth."""
        if "feat" not in self._cache:
            centers = (self.cells.astype(np.float64) + 0.5) / (1 << self.depth)
            depth_frac = np.full((len(self.cells), 1), self.depth / self.max_depth)
            self._cache["feat"] = np.concatenate([centers, depth_frac], axis=1)
        return self._cache["feat"]

    def child_indices(self) -> np.ndarray:
        if "child" not in self._cache:
            if self.depth == 0:
                self._cache["child"] = np.zeros(len(self.cells), dtype=np.int64)
            else:
                c = self.cells
                self._cache["child"] = 4 * (c[:, 0] & 1) + 2 * (c[:, 1] & 1) + (c[:, 2] & 1)
        return self._cache["child"]

    def parent_symbols(self) -> np.ndarray:
        if "psym" not in self._cache:
            if self.depth == 0 or self.prev_cells is None:
                self._cache["psym"] = np.zeros(len(self.cells), dtype=np.int64)
            else:
                pkeys = cell_keys(self.cells >> 1, self.depth - 1)
                pos = np.searchsorted(cell_keys(self.prev_cells, self.depth - 1), pkeys)
                self._cache["psym"] = self.prev_symbols[pos].astype(np.int64)
        return self._cache["psym"]

    def neighbor_bits(self) -> np.ndarray:
        """6-bit mask of face-neighbour occupancy in the same-depth grid."""
        if "neigh" not in self._cache:
            bits = np.zeros(len(self.cells), dtype=np.int64)
            for b, off in enumerate(_NEIGHBOR_OFFSETS):
                bits |= self.grid.contains(self.cells + off).astype(np.int64) << b
            self._cache["neigh"] = bits
        return self._cache["neigh"]

    def branch_crops(self, branch: Branch, m: int) -> np.ndarray:
        """(n, m, m, m) crops of one branch; zeros where its frame is absent."""
        key = ("crop", branch, m)
        if key not in self._cache:
            grid = getattr(self, branch.grid)
            if grid is None:
                crops = np.zeros((len(self.cells),) + (m,) * 3, dtype=np.uint8)
            else:
                crops = (child_region_crops if branch.child else local_crops)(grid, self.cells, m)
            self._cache[key] = crops
        return self._cache[key]

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

    def begin_stream(self):
        """Reset per-stream state. Called once per coded cloud/sequence on both sides."""

    def level_probabilities(self, ctx: LevelContext):
        """(n, 255) batch, (255,) shared row, or None to force the sequential path."""
        return None

    def node_table(self, ctx: LevelContext, i: int) -> np.ndarray:
        """Sequential path: node i's (256,) integer cumulative frequencies,
        cum[0] = 0, every frequency >= 1, total cum[-1] <= TOTAL_FREQ."""
        raise NotImplementedError

    def node_probability(self, ctx: LevelContext, i: int) -> np.ndarray:
        raise NotImplementedError

    def observe(self, ctx: LevelContext, i: int, symbol: int):
        """Called after each coded symbol (1..255); only the adaptive model reacts."""

    def serialize(self) -> bytes:
        raise NotImplementedError

    def content_hash(self) -> int:
        return nn.model_content_hash(self.serialize())


class UniformModel(EntropyModel):
    """Every symbol equally likely; the coder sanity baseline."""

    kind_code = KIND_UNIFORM

    def level_probabilities(self, ctx):
        return np.full(ALPHABET, 1.0 / ALPHABET)

    def serialize(self):
        return nn.serialize_model(self.kind_code, 0, {"kind": self.kind}, [])


_M64 = np.uint64(0xFFFFFFFFFFFFFFFF)
_FRESH_TABLE = np.arange(ALPHABET + 1, dtype=np.int64)
_FRESH_TABLE.flags.writeable = False


def _splitmix64(x: np.ndarray) -> np.ndarray:
    x = (x + np.uint64(0x9E3779B97F4A7C15)) & _M64
    x = ((x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)) & _M64
    x = ((x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)) & _M64
    return x ^ (x >> np.uint64(31))


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
        self._tables: dict[int, np.ndarray] = {}

    def begin_stream(self):
        self._tables = {}

    def context_ids(self, ctx: LevelContext) -> np.ndarray:
        key = ("cid", self.context_bits)
        if key not in ctx._cache:
            packed = (ctx.parent_symbols()
                      | (ctx.child_indices() << 8)
                      | (ctx.neighbor_bits() << 11)).astype(np.uint64)
            mask = np.uint64((1 << self.context_bits) - 1)
            ctx._cache[key] = (_splitmix64(packed) & mask).astype(np.int64)
        return ctx._cache[key]

    def table_for_id(self, cid: int) -> np.ndarray:
        """The context's cumulative table; read-only, it changes on observe."""
        return self._tables.get(cid, _FRESH_TABLE)

    def observe_id(self, cid: int, symbol: int):
        cum = self._tables.get(cid)
        if cum is None:
            cum = self._tables[cid] = np.arange(ALPHABET + 1, dtype=np.int64)
        cum[symbol:] += 1
        if cum[-1] > TOTAL_FREQ:
            np.cumsum((np.diff(cum) + 1) >> 1, out=cum[1:])

    def node_table(self, ctx, i):
        return self.table_for_id(int(self.context_ids(ctx)[i]))

    def observe(self, ctx, i, symbol):
        self.observe_id(int(self.context_ids(ctx)[i]), symbol)

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
    runs its integer-exact copy (`nn.quantize_context_net`), each tower once
    per level (`level_probabilities`); `predict` runs that copy on per-node
    crops, with the same result.
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
        return nn.quantize_context_net(self.branches, self.head, FEATURE_BOUND)

    def predict(self, crop_sets, feats) -> np.ndarray:
        """(n, 255) coding distributions; crop_sets holds one crop batch per branch."""
        net = self.integer_net()
        return nn.integer_softmax(net.forward(crop_sets, feats), net.head.out_exp)

    def level_probabilities(self, ctx):
        """(n, 255) distributions, equal bit for bit to predict() on each
        branch's `ctx.branch_crops` and `ctx.node_features()`."""
        if len(ctx) == 0:
            return np.zeros((0, ALPHABET))
        net = self.integer_net()
        widths = [tower.width(m) for tower, m in zip(net.towers, self.crop_sizes)]
        x = np.empty((len(ctx), sum(widths) + FEATURE_DIM))   # the head's input, filled in place
        lo = 0
        for b, tower, m, width in zip(self.geometry, net.towers, self.crop_sizes, widths):
            tower_rows(tower, getattr(ctx, b.grid), b.anchors(ctx.cells, m), m,
                       out=x[:, lo:lo + width])
            lo += width
        x[:, lo:] = net.features(ctx.node_features())
        return nn.integer_softmax(nn.infer(net.head, x), net.head.out_exp)

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
            config = {k: meta[k] for k in cls.config_keys}
            config["channels"] = tuple(config["channels"])
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
            return AdaptiveContextModel(meta["context_bits"])
    if kind == KIND_VOXEL_STATIC:
        return VoxelContextModel.deserialize(blob)
    if kind == KIND_VOXEL_DYNAMIC:
        return DynamicContextModel.deserialize(blob)
    raise ValueError(f"unknown entropy model kind {kind}")


# ---------------------------------------------------------------------------
# datasets and rate accounting


def build_node_dataset(trees, crop_size=9):
    """Flatten octrees into (crop, feature, symbol) training samples, all depths."""
    if isinstance(trees, Octree):
        trees = [trees]
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

    Resets per-stream model state first, exactly like coding a fresh bitstream.
    """
    d = trunc_depth if trunc_depth is not None else tree.max_depth
    return schedule_code_lengths(model, [tree], tree.max_depth, d)[0]


def schedule_code_lengths(model: EntropyModel, trees, max_depth, trunc_depth) -> list:
    """Per-frame -log2 q of every symbol the schedule codes, after begin_stream."""
    model.begin_stream()
    lengths = [[] for _ in trees]
    for t, k, ctx in level_contexts(trees, max_depth, trunc_depth):
        lengths[t].append(level_code_lengths(model, ctx, trees[t].symbols[k]))
    return [np.concatenate(parts) if parts else np.empty(0) for parts in lengths]


def level_code_lengths(model: EntropyModel, ctx: LevelContext, symbols) -> np.ndarray:
    """-log2 q of one level's symbols (1..255), in coding order.

    A model without level probabilities is read node by node from the tables
    the coder codes with (q = freq/total) and observes each symbol, as the
    coder does; a shared row or an (n, 255) batch is indexed directly.
    """
    syms = np.asarray(symbols).astype(np.int64)
    probs = model.level_probabilities(ctx)
    if probs is None:
        freq, total = np.empty(len(syms)), np.empty(len(syms))
        for i, s in enumerate(syms.tolist()):
            cum = model.node_table(ctx, i)
            freq[i], total[i] = cum[s] - cum[s - 1], cum[-1]
            model.observe(ctx, i, s)
        p = freq / total
    else:
        p = np.broadcast_to(probs, (len(syms), ALPHABET))[np.arange(len(syms)), syms - 1]
    return -np.log2(p)

