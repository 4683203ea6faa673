"""Range coder, the "VCNB" bitstream container, and the one encode loop and
one decode loop that code any bitstream along the level schedule
(`entropy.level_contexts`; a static cloud is one frame).

The entropy coder is a 32-bit byte-oriented range coder that adds each carry
into its in-memory payload; the range register stays in [2^24, 2^32) and every
table totals at most 2^16, keeping the truncation loss under 0.006 bits per
symbol. Every symbol is coded from an integer cumulative table, last entry its
total, that the model's stream hands over for the whole level
(`EntropyModel.stream`, see `entropy`); each encode or decode opens one
stream. No float arithmetic or sort decides a symbol. `_code_level` codes or
decodes every level of every model in one call of the coder's level method,
`RangeEncoder.encode_level` or `RangeDecoder.decode_level`, which keeps the
registers in local variables for the whole level; the coder has no per-symbol
methods. Model determinism alone keeps encoder and decoder in sync; no tables
travel in the stream, the decoder ends exactly at the end of the payload, and
a hash of the coded symbols in the header rejects a corrupt payload that still
decodes to some octree.
"""

from __future__ import annotations

import struct
from bisect import bisect_right
from dataclasses import dataclass, replace

import numpy as np

from . import entropy as em
from . import octree as oct
from .entropy import ALPHABET, TOTAL_FREQ  # noqa: F401  (the tracer reads coder.TOTAL_FREQ)
from .nn import hash64
from .pointcloud import NormalizationParams, PointCloud, normalize

MAGIC = b"VCNB"
VERSION = 5
MODE_STATIC = 0
MODE_DYNAMIC = 1
FLAG_POSES = 1

_MASK32 = 0xFFFFFFFF
_RC_TOP = 1 << 24


class DecodeError(ValueError):
    pass


# Stubs of the float quantizer that no table passes through any more; kept
# while the benchmark tracer wraps them by name (perfbench/spans.py).
def quantize_distribution(p):
    raise NotImplementedError


def quantize_level(probs):
    raise NotImplementedError


def _quantize_rows(p):
    raise NotImplementedError


# ---------------------------------------------------------------------------
# range coder


class RangeEncoder:
    """Encoder registers `low` and `range`, and the payload so far. The whole
    payload stays in memory until `finish`, so a carry out of `low` is added
    straight into the bytes already written."""

    def __init__(self):
        self._low = 0
        self._range = _MASK32
        self._out = bytearray(1)   # the leading zero byte, which no carry reaches

    def encode_level(self, rows, symbols, update):
        """Code symbols[i] from the cumulative table rows[i], calling
        update(row, symbol) after each when update is not None. The registers
        live in locals for the whole level."""
        low, rng, out = self._low, self._range, self._out
        for row, s in zip(rows, symbols):
            lo = row[s - 1]
            r = rng // row[ALPHABET]
            low += r * lo
            rng = r * (row[s] - lo)
            if low > _MASK32:
                # carry: the trailing 0xFF bytes wrap to 0x00, the byte before them gains 1
                low &= _MASK32
                i = len(out) - 1
                while out[i] == 0xFF:
                    out[i] = 0
                    i -= 1
                out[i] += 1
            while rng < _RC_TOP:
                rng <<= 8
                out.append(low >> 24)
                low = (low << 8) & _MASK32
            if update is not None:
                update(row, s)
        self._low, self._range = low, rng

    def finish(self) -> bytes:
        """Flush: the four bytes of low."""
        return bytes(self._out + self._low.to_bytes(4, "big"))


class RangeDecoder:
    def __init__(self, data: bytes):
        if len(data) < 5:
            raise DecodeError("range-coded payload exhausted")
        self._data = data
        # the leading byte is the encoder's leading zero byte
        self._code = int.from_bytes(data[1:5], "big")
        self._pos = 5
        self._range = _MASK32

    def decode_level(self, rows, n: int, update) -> bytearray:
        """Decode n symbols, symbol i from the cumulative table rows[i] by
        bisection, calling update(row, symbol) after each when update is not
        None. The registers live in locals for the whole level."""
        data, pos, rng, code = self._data, self._pos, self._range, self._code
        end = len(data)
        out = bytearray(n)
        for i, row in enumerate(rows):
            total = row[ALPHABET]
            r = rng // total
            target = code // r
            if target >= total:   # code past the last symbol's slice: only a corrupt payload
                target = total - 1
            s = bisect_right(row, target)
            lo = row[s - 1]
            code -= r * lo
            rng = r * (row[s] - lo)
            while rng < _RC_TOP:
                if pos >= end:
                    raise DecodeError("range-coded payload exhausted")
                code = ((code << 8) | data[pos]) & _MASK32
                pos += 1
                rng <<= 8
            out[i] = s
            if update is not None:
                update(row, s)
        self._pos, self._range, self._code = pos, rng, code
        return out

    def finish(self):
        """The encoder's flush ends the payload: a valid stream is read to its
        last byte, never past it, so any byte left over is corruption."""
        if self._pos != len(self._data):
            raise DecodeError(f"{len(self._data) - self._pos} bytes after the coded payload")


# ---------------------------------------------------------------------------
# bitstream container


@dataclass
class BitstreamHeader:
    mode: int
    norm: NormalizationParams
    max_depth: int
    trunc_depth: int
    point_count: int
    model_kind: int
    model_hash: int
    symbol_hash: int = 0                     # `hash64` of the coded symbols, set on encode
    frame_point_counts: list | None = None   # dynamic only
    poses: list | None = None                # dynamic only, 3x4 row-major each

    def pack(self) -> bytes:
        flags = FLAG_POSES if self.poses is not None else 0
        out = bytearray()
        out += MAGIC
        out += struct.pack("<BBB", VERSION, self.mode, flags)
        out += struct.pack("<3f", *self.norm.origin.astype(np.float32))
        out += struct.pack("<f", np.float32(self.norm.edge))
        out += struct.pack("<BBIBQQ", self.max_depth, self.trunc_depth, self.point_count,
                           self.model_kind, self.model_hash, self.symbol_hash)
        if self.mode == MODE_DYNAMIC:
            counts = self.frame_point_counts or []
            out += struct.pack("<H", len(counts))
            out += struct.pack(f"<{len(counts)}I", *counts)
            if self.poses is not None:
                if len(self.poses) != len(counts):
                    raise ValueError("pose count must match frame count")
                for pose in self.poses:
                    out += struct.pack("<12f", *np.asarray(pose, dtype=np.float32).reshape(12))
        out += struct.pack("<Q", hash64(out))
        return bytes(out)

    @classmethod
    def unpack(cls, data: bytes):
        """Parse and verify; returns (header, payload_offset)."""
        try:
            return cls._unpack(data)
        except struct.error as exc:
            raise DecodeError(f"header truncated or corrupt: {exc}") from exc

    @classmethod
    def _unpack(cls, data: bytes):
        if len(data) < 4 or data[:4] != MAGIC:
            raise DecodeError("bad magic: not a bitstream")
        pos = 4

        def take(fmt):
            """Unpack `fmt` at the read position and move past it."""
            nonlocal pos
            values = struct.unpack_from(fmt, data, pos)
            pos += struct.calcsize(fmt)
            return values

        version, mode, flags = take("<BBB")
        if version != VERSION:
            raise DecodeError(f"unsupported bitstream version {version}")
        if mode not in (MODE_STATIC, MODE_DYNAMIC):
            raise DecodeError(f"unknown mode {mode}")
        *origin, edge = take("<4f")
        max_depth, trunc_depth, point_count, model_kind, model_hash, symbol_hash = \
            take("<BBIBQQ")
        frame_counts = poses = None
        if mode == MODE_DYNAMIC:
            frame_counts = list(take(f"<{take('<H')[0]}I"))
            if flags & FLAG_POSES:
                poses = [np.array(take("<12f"), dtype=np.float64).reshape(3, 4)
                         for _ in frame_counts]
        end = pos
        if hash64(data[:end]) != take("<Q")[0]:
            raise DecodeError("header corrupt (hash mismatch)")
        if not (1 <= trunc_depth <= max_depth <= oct.MAX_DEPTH):
            raise DecodeError(f"bad depths in header: trunc {trunc_depth}, max {max_depth}")
        if mode == MODE_DYNAMIC and not frame_counts:
            raise DecodeError("sequence header has no frames")
        header = cls(mode, NormalizationParams(np.array(origin, dtype=np.float64), float(edge)),
                     max_depth, trunc_depth, point_count, model_kind, model_hash,
                     symbol_hash, frame_counts, poses)
        return header, pos


def _code_level(ctx, symbols, level_tables, enc_or_dec, decoding):
    """Code or decode all symbols of one depth level in canonical order, each
    from the table (a memoryview of Python ints) that the stream's
    `level_tables` yields for its node, then the model's update rule, if
    any, in one call of the range coder's level method. Returns the decoded
    symbol array when decoding."""
    rows, update = level_tables(ctx)
    if decoding:
        return np.frombuffer(enc_or_dec.decode_level(rows, len(ctx), update), dtype=np.uint8)
    enc_or_dec.encode_level(rows, np.asarray(symbols).tolist(), update)


def encode_cloud(cloud: PointCloud, depth: int, trunc_depth: int,
                 model: em.EntropyModel) -> bytes:
    """Normalize, build the octree down to `trunc_depth`, and code its symbols;
    the header carries `depth`. Building to `trunc_depth` gives the levels of
    the depth-`depth` tree truncated there: floor(p * 2^depth) >> (depth -
    trunc_depth) is floor(p * 2^trunc_depth) on [0, 1], clamp at 1.0 included."""
    if len(cloud) == 0:
        raise ValueError("cannot encode an empty cloud")
    if not 1 <= trunc_depth <= depth:
        raise ValueError(f"trunc_depth {trunc_depth} out of range [1, {depth}]")
    if isinstance(model, em.DynamicContextModel):
        raise ValueError("dynamic models code sequences; use encode_sequence")
    norm_cloud, params = normalize(cloud)
    tree = oct.build(norm_cloud, trunc_depth)
    header = BitstreamHeader(MODE_STATIC, params, depth, trunc_depth, len(cloud),
                             model.kind_code, model.content_hash())
    return encode_frames(header, [tree], model)


def decode_cloud(data: bytes, model: em.EntropyModel, refine_params=None,
                 return_tree=False):
    """Rebuild the octree level by level and reconstruct (optionally refined) centers."""
    header, (tree,), (cloud,) = decode_frames(data, model, MODE_STATIC, refine_params)
    if return_tree:
        return cloud, tree, header
    return cloud


def encode_frames(header: BitstreamHeader, trees, model: em.EntropyModel) -> bytes:
    """Code the (truncated) octrees of every frame along the level schedule;
    the header gets the hash of the coded symbols."""
    enc, level_tables = RangeEncoder(), model.stream()
    for t, k, ctx in em.level_contexts(trees, header.max_depth, header.trunc_depth):
        _code_level(ctx, trees[t].symbols[k], level_tables, enc, decoding=False)
    return replace(header, symbol_hash=_symbol_hash(trees)).pack() + enc.finish()


def _symbol_hash(trees) -> int:
    """`hash64` of the coded symbols in coding order: depth by depth, frames
    in order within a depth."""
    return hash64(b"".join(tree.symbols[k].tobytes()
                           for k in range(len(trees[0].symbols)) for tree in trees))


_WRONG_MODE = {MODE_STATIC: "not a static bitstream; use decode_sequence",
               MODE_DYNAMIC: "not a sequence bitstream; use decode_cloud"}


def decode_frames(data: bytes, model: em.EntropyModel, mode: int, refine_params=None):
    """Replay the level schedule -> (header, octrees, clouds), one of each per frame.

    Clouds are leaf centers, or refined leaves when refine_params is given.
    """
    header, pos = BitstreamHeader.unpack(data)
    if header.mode != mode:
        raise DecodeError(_WRONG_MODE[mode])
    if model.kind_code != header.model_kind:
        raise DecodeError(f"bitstream was coded with model kind "
                          f"{em.KIND_NAMES.get(header.model_kind, header.model_kind)}, "
                          f"got {model.kind}")
    if model.content_hash() != header.model_hash:
        raise DecodeError("model hash mismatch: refusing to decode with different weights")
    # every node holds a point, so no level of a frame outgrows its point count
    limits = header.frame_point_counts if mode == MODE_DYNAMIC else [header.point_count]
    dec, level_tables = RangeDecoder(data[pos:]), model.stream()
    trees = [oct.Octree(header.trunc_depth, [np.zeros((1, 3), dtype=np.int64)], [])
             for _ in limits]
    for t, k, ctx in em.level_contexts(trees, header.max_depth, header.trunc_depth):
        sym = _code_level(ctx, None, level_tables, dec, decoding=True)
        level = oct._expand_children(trees[t].levels[k], sym, k)
        if len(level) > limits[t]:
            raise DecodeError(f"frame {t} depth {k + 1} decodes to {len(level)} nodes, "
                              f"more than its {limits[t]} points")
        trees[t].symbols.append(sym)
        trees[t].levels.append(level)
    dec.finish()
    if _symbol_hash(trees) != header.symbol_hash:
        raise DecodeError("symbol stream hash mismatch: the payload is corrupt")
    if refine_params is not None:
        from .refine import refine_apply
        clouds = [refine_apply(tree, refine_params, header.norm) for tree in trees]
    else:
        clouds = [oct.reconstruct_centers(tree, header.norm) for tree in trees]
    return header, trees, clouds


def payload_size(data: bytes) -> int:
    """Coded payload bytes (bitstream minus header)."""
    _, pos = BitstreamHeader.unpack(data)
    return len(data) - pos


def coded_bpp(data: bytes) -> float:
    header, pos = BitstreamHeader.unpack(data)
    return 8.0 * (len(data) - pos) / header.point_count
