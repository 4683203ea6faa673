"""Range coder, probability quantization, the "VCNB" bitstream container, and
the one encode loop and one decode loop that code any bitstream along the
level schedule (`entropy.level_contexts`; a static cloud is one frame).

The entropy coder is a 32-bit byte-oriented range coder with carry counting;
the range register stays in [2^24, 2^32) and every table totals at most
2^16, keeping the truncation loss under 0.006 bits per symbol. Every symbol
is coded from an integer cumulative table whose last entry is its total:
batch models' probabilities are quantized to 16-bit frequencies (total
2^16) on both sides from identical model outputs, and the adaptive model
hands over its live integer count tables for the whole level, with the rule
that updates them after each symbol. One symbol loop (`_code_level`) codes
and decodes every level of every model. Model determinism alone keeps
encoder and decoder in sync; no tables travel in the stream, and the
decoder ends exactly at the end of the payload.
"""

from __future__ import annotations

import struct
from bisect import bisect_right
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from . import entropy as em
from . import octree as oct
from .entropy import TOTAL_FREQ
from .nn import hash64
from .pointcloud import NormalizationParams, PointCloud, normalize

MAGIC = b"VCNB"
VERSION = 4
MODE_STATIC = 0
MODE_DYNAMIC = 1
FLAG_POSES = 1

_MASK32 = 0xFFFFFFFF
_RC_TOP = 1 << 24


class DecodeError(ValueError):
    pass


# ---------------------------------------------------------------------------
# probability -> 16-bit frequency table


@dataclass
class FrequencyTable:
    freq: np.ndarray   # (255,) int64, every entry >= 1, sums to 65536
    cum: np.ndarray    # (256,) int64 prefix sums, cum[0] = 0

    @property
    def total(self):
        return TOTAL_FREQ


def quantize_distribution(p) -> FrequencyTable:
    """Largest-remainder apportionment of 65536 units with a floor of 1.

    Ties break toward the lower symbol index; the floor deficit is taken from
    the largest entries. Re-quantizing freq/65536 reproduces freq exactly.
    """
    freq = _quantize_rows(np.asarray(p, dtype=np.float64)[None, :])[0]
    cum = np.zeros(em.ALPHABET + 1, dtype=np.int64)
    np.cumsum(freq, out=cum[1:])
    return FrequencyTable(freq, cum)


def _quantize_rows(p: np.ndarray) -> np.ndarray:
    """Vectorized quantizer: (n, 255) probabilities -> (n, 255) integer frequencies."""
    p = p / p.sum(axis=1, keepdims=True)
    scaled = p * float(TOTAL_FREQ)
    base = np.floor(scaled).astype(np.int64)
    rem = scaled - base
    leftover = TOTAL_FREQ - base.sum(axis=1)
    order = np.argsort(-rem, axis=1, kind="stable")
    add = np.arange(p.shape[1])[None, :] < leftover[:, None]
    bump = np.zeros_like(base)
    np.put_along_axis(bump, order, add.astype(np.int64), axis=1)
    base += bump
    # raise zeros to 1 and take the excess from each row's first largest entry:
    # a row's d <= 254 zeros leave 255 - d entries summing to 2^16, so its largest
    # is at least 258 and can give up all d while staying >= 1
    zeros = base == 0
    base[zeros] = 1
    base[np.arange(len(base)), base.argmax(axis=1)] -= zeros.sum(axis=1)
    return base


def quantize_level(probs: np.ndarray):
    """Batch tables for one depth level -> (freq (n,255), cum (n,256))."""
    freq = _quantize_rows(probs)
    cum = np.zeros((freq.shape[0], em.ALPHABET + 1), dtype=np.int64)
    np.cumsum(freq, axis=1, out=cum[:, 1:])
    return freq, cum


# ---------------------------------------------------------------------------
# range coder


class RangeEncoder:
    def __init__(self):
        self._low = 0
        self._range = _MASK32
        self._cache = 0
        self._pending = 1
        self._out = bytearray()

    def _shift_low(self):
        if self._low < 0xFF000000 or self._low > _MASK32:
            carry = self._low >> 32
            self._out.append((self._cache + carry) & 0xFF)
            for _ in range(self._pending - 1):
                self._out.append((0xFF + carry) & 0xFF)
            self._pending = 0
            self._cache = (self._low >> 24) & 0xFF
        self._pending += 1
        self._low = (self._low << 8) & _MASK32

    def encode(self, cum: int, freq: int, total: int = TOTAL_FREQ):
        r = self._range // total
        self._low += r * cum
        self._range = r * freq
        while self._range < _RC_TOP:
            self._range = (self._range << 8) & _MASK32
            self._shift_low()

    def finish(self) -> bytes:
        for _ in range(5):
            self._shift_low()
        return bytes(self._out)


class RangeDecoder:
    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0
        self._range = _MASK32
        self._code = 0
        self._byte()          # leading cache byte, always zero
        for _ in range(4):
            self._code = ((self._code << 8) | self._byte()) & _MASK32
        self._r = 0

    def _byte(self) -> int:
        if self._pos >= len(self._data):
            raise DecodeError("range-coded payload exhausted")
        b = self._data[self._pos]
        self._pos += 1
        return b

    def decode_target(self, total: int = TOTAL_FREQ) -> int:
        self._r = self._range // total
        return min(self._code // self._r, total - 1)

    def consume(self, cum: int, freq: int):
        self._code -= self._r * cum
        self._range = self._r * freq
        while self._range < _RC_TOP:
            self._code = ((self._code << 8) | self._byte()) & _MASK32
            self._range = (self._range << 8) & _MASK32

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
    frame_point_counts: list | None = None   # dynamic only
    poses: list | None = None                # dynamic only, 3x4 row-major each

    def pack(self) -> bytes:
        flags = FLAG_POSES if self.poses is not None else 0
        out = bytearray()
        out += MAGIC
        out += struct.pack("<BBB", VERSION, self.mode, flags)
        out += struct.pack("<3f", *self.norm.origin.astype(np.float32))
        out += struct.pack("<f", np.float32(self.norm.edge))
        out += struct.pack("<BBIBQ", self.max_depth, self.trunc_depth,
                           self.point_count, self.model_kind, self.model_hash)
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
        version, mode, flags = struct.unpack_from("<BBB", data, pos)
        pos += 3
        if version != VERSION:
            raise DecodeError(f"unsupported bitstream version {version}")
        if mode not in (MODE_STATIC, MODE_DYNAMIC):
            raise DecodeError(f"unknown mode {mode}")
        origin = struct.unpack_from("<3f", data, pos)
        pos += 12
        (edge,) = struct.unpack_from("<f", data, pos)
        pos += 4
        max_depth, trunc_depth, point_count, model_kind, model_hash = \
            struct.unpack_from("<BBIBQ", data, pos)
        pos += 15
        frame_counts = None
        poses = None
        if mode == MODE_DYNAMIC:
            (n_frames,) = struct.unpack_from("<H", data, pos)
            pos += 2
            frame_counts = list(struct.unpack_from(f"<{n_frames}I", data, pos))
            pos += 4 * n_frames
            if flags & FLAG_POSES:
                poses = []
                for _ in range(n_frames):
                    poses.append(np.array(struct.unpack_from("<12f", data, pos),
                                          dtype=np.float64).reshape(3, 4))
                    pos += 48
        (stored,) = struct.unpack_from("<Q", data, pos)
        if hash64(data[:pos]) != stored:
            raise DecodeError("header corrupt (hash mismatch)")
        pos += 8
        if not (1 <= trunc_depth <= max_depth <= oct.MAX_DEPTH):
            raise DecodeError(f"bad depths in header: trunc {trunc_depth}, max {max_depth}")
        if mode == MODE_DYNAMIC and not frame_counts:
            raise DecodeError("sequence header has no frames")
        header = cls(mode, NormalizationParams(np.array(origin, dtype=np.float64), float(edge)),
                     max_depth, trunc_depth, point_count, model_kind, model_hash,
                     frame_counts, poses)
        return header, pos


def _code_level(ctx, symbols, model, enc_or_dec, decoding):
    """Code or decode all symbols of one depth level in canonical order.

    Each node's table is an integer cumulative table whose last entry is its
    total, read as a memoryview of Python ints: a row of the quantized level
    batch (total TOTAL_FREQ), or, on the sequential path, the model's live
    table for the node (`level_tables`), updated by the model's rule after
    each symbol. Returns the decoded symbol array when decoding.
    """
    n = len(ctx)
    probs = model.level_probabilities(ctx)
    if probs is None:
        rows, update = model.level_tables(ctx)
    else:
        _, cum = quantize_level(np.atleast_2d(probs))
        flat = memoryview(cum.reshape(-1))
        if len(cum) == 1:
            rows = repeat(flat, n)
        else:
            step = em.ALPHABET + 1
            rows = (flat[lo:lo + step] for lo in range(0, n * step, step))
        update = None
    if decoding:
        out = bytearray(n)
        decode_target, consume = enc_or_dec.decode_target, enc_or_dec.consume
    else:
        syms = np.asarray(symbols).tolist()
        encode = enc_or_dec.encode
    for i, row in enumerate(rows):
        total = row[em.ALPHABET]
        if decoding:
            s = bisect_right(row, decode_target(total))
            lo = row[s - 1]
            consume(lo, row[s] - lo)
            out[i] = s
        else:
            s = syms[i]
            lo = row[s - 1]
            encode(lo, row[s] - lo, total)
        if update is not None:
            update(row, s)
    return np.frombuffer(out, dtype=np.uint8) if decoding else None


def encode_cloud(cloud: PointCloud, depth: int, trunc_depth: int,
                 model: em.EntropyModel) -> bytes:
    """Normalize, build the octree at `depth`, and code symbols below `trunc_depth`."""
    if len(cloud) == 0:
        raise ValueError("cannot encode an empty cloud")
    if not 1 <= trunc_depth <= depth:
        raise ValueError(f"trunc_depth {trunc_depth} out of range [1, {depth}]")
    if isinstance(model, em.DynamicContextModel):
        raise ValueError("dynamic models code sequences; use encode_sequence")
    norm_cloud, params = normalize(cloud)
    tree = oct.build(norm_cloud, depth).truncate(trunc_depth)
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
    """Code the (truncated) octrees of every frame along the level schedule."""
    enc = RangeEncoder()
    model.begin_stream()
    for t, k, ctx in em.level_contexts(trees, header.max_depth, header.trunc_depth):
        _code_level(ctx, trees[t].symbols[k], model, enc, decoding=False)
    return header.pack() + enc.finish()


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
    dec = RangeDecoder(data[pos:])
    model.begin_stream()
    trees = [oct.Octree(header.trunc_depth, [np.zeros((1, 3), dtype=np.int64)], [])
             for _ in limits]
    for t, k, ctx in em.level_contexts(trees, header.max_depth, header.trunc_depth):
        sym = _code_level(ctx, None, model, dec, decoding=True)
        level = oct._expand_children(trees[t].levels[k], sym, k)
        if len(level) > limits[t]:
            raise DecodeError(f"frame {t} depth {k + 1} decodes to {len(level)} nodes, "
                              f"more than its {limits[t]} points")
        trees[t].symbols.append(sym)
        trees[t].levels.append(level)
    dec.finish()
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
