"""Deterministic neural kernel: 3D valid convolution, fully connected layers,
ReLU, reverse-mode gradients, Adam, Glorot init, the branch-generic context
net with its training loop, the level-wise tower pass, and the "VCNM" model
file.

Every reduction goes through np.einsum with optimize=False so results are
bit-identical regardless of BLAS threading; parameters are stored float32 and
promoted to float64 for compute. Initialization draws from a Philox counter
stream so seeds are portable.

`forward` runs a stack on a batch of per-node crops; training and `predict`
use it. Coding and refinement use `tower_windows` instead, which runs a conv
tower once over a zero-padded occupancy box and gathers each node's window:
each layer is evaluated only where some node's window needs it and an
occupied cell is in reach (elsewhere its value on empty space is computed
once), with the patch columns in im2col's order and the same einsum, so
every output equals the per-crop one bit for bit.
"""

from __future__ import annotations

import functools
import json
import math
import struct
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

F32 = np.float32
F64 = np.float64


@dataclass(frozen=True)
class Conv3D:
    """3D convolution, kernel 3x3x3, stride 1, valid padding."""
    out_channels: int


@dataclass(frozen=True)
class FullyConnected:
    out_dim: int


@dataclass(frozen=True)
class ReLU:
    pass


LAYER_KINDS = {Conv3D: 0, FullyConnected: 1, ReLU: 2}
_KIND_TO_LAYER = {0: lambda a: Conv3D(a), 1: lambda a: FullyConnected(a),
                  2: lambda a: ReLU()}


@dataclass
class ModelParams:
    """Layer stack plus its weights. tensors[i] is [] for parameterless layers,
    [weight, bias] otherwise; all stored float32."""
    layers: tuple
    tensors: list
    seed: int = 0

    def parameter_arrays(self):
        return [t for group in self.tensors for t in group]


def layer_shapes(layers, input_shape):
    """Propagate shapes through the stack; raises if the stack does not compose."""
    shape = tuple(input_shape)
    shapes = [shape]
    for layer in layers:
        if isinstance(layer, Conv3D):
            if len(shape) != 4:
                raise ValueError(f"Conv3D needs (C, D, H, W) input, got {shape}")
            c, d, h, w = shape
            if min(d, h, w) < 3:
                raise ValueError(f"spatial extent {shape} too small for a 3x3x3 valid conv")
            shape = (layer.out_channels, d - 2, h - 2, w - 2)
        elif isinstance(layer, FullyConnected):
            shape = (layer.out_dim,)
        # ReLU keeps the shape
        shapes.append(shape)
    return shapes


def init_params(layers, input_shape, seed, zero_final=False) -> ModelParams:
    """Glorot-uniform weights, zero biases, drawn from a Philox(seed) stream.

    zero_final=True zeroes the last parametric layer so the freshly built
    network is the identity in logit/offset space.
    """
    rng = np.random.Generator(np.random.Philox(seed))
    shapes = layer_shapes(layers, input_shape)
    tensors = []
    last_parametric = max((i for i, l in enumerate(layers) if isinstance(l, (Conv3D, FullyConnected))),
                          default=-1)
    for i, layer in enumerate(layers):
        if isinstance(layer, Conv3D):
            c_in = shapes[i][0]
            fan_in, fan_out = c_in * 27, layer.out_channels * 27
            limit = math.sqrt(6.0 / (fan_in + fan_out))
            w = rng.uniform(-limit, limit, size=(layer.out_channels, c_in, 3, 3, 3)).astype(F32)
            b = np.zeros(layer.out_channels, dtype=F32)
            if zero_final and i == last_parametric:
                w[:] = 0
            tensors.append([w, b])
        elif isinstance(layer, FullyConnected):
            in_dim = int(np.prod(shapes[i]))
            limit = math.sqrt(6.0 / (in_dim + layer.out_dim))
            w = rng.uniform(-limit, limit, size=(layer.out_dim, in_dim)).astype(F32)
            b = np.zeros(layer.out_dim, dtype=F32)
            if zero_final and i == last_parametric:
                w[:] = 0
            tensors.append([w, b])
        else:
            tensors.append([])
    return ModelParams(tuple(layers), tensors, seed)


# ---------------------------------------------------------------------------
# forward / backward


def _mm(a, b, sig):
    return np.einsum(sig, a, b, optimize=False)


def _im2col(x):
    """(N, C, D, H, W) -> (N, P, C*27) patch matrix for a 3x3x3 valid conv."""
    n, c, d, h, w = x.shape
    do, ho, wo = d - 2, h - 2, w - 2
    s = x.strides
    win = np.lib.stride_tricks.as_strided(
        x, (n, c, do, ho, wo, 3, 3, 3), (s[0], s[1], s[2], s[3], s[4], s[2], s[3], s[4]))
    return np.ascontiguousarray(win.transpose(0, 2, 3, 4, 1, 5, 6, 7)).reshape(n, do * ho * wo, c * 27)


def _softmax(z):
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def forward(params: ModelParams, x, want_cache=True):
    """Run the stack on a batch: one sample per entry of `x`'s leading axis.

    Returns (output, cache); pass the cache to backward() unchanged.
    """
    x = np.asarray(x, dtype=F64)
    layer_shapes(params.layers, x.shape[1:])  # shape check up front
    cache = [] if want_cache else None
    for layer, t in zip(params.layers, params.tensors):
        if isinstance(layer, Conv3D):
            w = t[0].astype(F64).reshape(layer.out_channels, -1)
            b = t[1].astype(F64)
            cols = _im2col(x)
            if want_cache:
                cache.append((x.shape, cols))
            do, ho, wo = x.shape[2] - 2, x.shape[3] - 2, x.shape[4] - 2
            out = _mm(cols, w, "npk,ok->nop") + b[None, :, None]
            x = out.reshape(x.shape[0], layer.out_channels, do, ho, wo)
        elif isinstance(layer, FullyConnected):
            flat_shape = x.shape
            x2 = x.reshape(x.shape[0], -1)
            if want_cache:
                cache.append((flat_shape, x2))
            w = t[0].astype(F64)
            x = _mm(x2, w, "ni,oi->no") + t[1].astype(F64)[None, :]
        elif isinstance(layer, ReLU):
            if want_cache:
                cache.append(x > 0)
            x = np.maximum(x, 0.0)
    return x, cache


def backward(params: ModelParams, cache, grad_out):
    """Reverse pass on a batch: upstream gradient -> (per-layer [dW, db] grads,
    input gradient)."""
    g = np.asarray(grad_out, dtype=F64)
    grads = [None] * len(params.layers)
    for i in range(len(params.layers) - 1, -1, -1):
        layer, t, c = params.layers[i], params.tensors[i], cache[i]
        if isinstance(layer, Conv3D):
            in_shape, cols = c
            n, co = g.shape[0], g.shape[1]
            gmat = np.ascontiguousarray(g.reshape(n, co, -1).transpose(0, 2, 1))  # (N, P, C_out)
            w = t[0].astype(F64).reshape(co, -1)
            dw = _mm(gmat, cols, "npo,npk->ok").reshape(t[0].shape)
            db = gmat.sum(axis=(0, 1))
            dcols = _mm(gmat, w, "npo,ok->npk")
            g = _col2im(dcols, in_shape)
            grads[i] = [dw, db]
        elif isinstance(layer, FullyConnected):
            in_shape, x2 = c
            dw = _mm(g, x2, "no,ni->oi")
            db = g.sum(axis=0)
            g = _mm(g, t[0].astype(F64), "no,oi->ni").reshape(in_shape)
            grads[i] = [dw, db]
        elif isinstance(layer, ReLU):
            g = g * c
            grads[i] = []
    return grads, g


def _col2im(dcols, in_shape):
    """Scatter-add patch gradients back onto the conv input."""
    n, c, d, h, w = in_shape
    do, ho, wo = d - 2, h - 2, w - 2
    dpatches = dcols.reshape(n, do, ho, wo, c, 3, 3, 3)
    dx = np.zeros(in_shape, dtype=F64)
    for a in range(3):
        for b in range(3):
            for e in range(3):
                dx[:, :, a:a + do, b:b + ho, e:e + wo] += dpatches[:, :, :, :, :, a, b, e].transpose(0, 4, 1, 2, 3)
    return dx


def softmax_cross_entropy(logits, target):
    """Stable CE through log-sum-exp: loss = lse(logits) - logits[target], in nats.

    Works on a single logit vector with an integer target, or a batch with a
    target array; batch loss is the mean. Returns (loss, probabilities).
    """
    z = np.asarray(logits, dtype=F64)
    single = z.ndim == 1
    if single:
        z = z[None]
        targets = np.array([target])
    else:
        targets = np.asarray(target)
    k = z.shape[-1]
    if targets.min() < 0 or targets.max() >= k:
        raise ValueError(f"target out of range [0, {k})")
    m = z.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(z - m).sum(axis=-1, keepdims=True)) + m
    logp = z - lse
    probs = np.exp(logp)
    losses = -logp[np.arange(len(targets)), targets]
    loss = float(losses[0]) if single else float(losses.mean())
    return loss, (probs[0] if single else probs)


def cross_entropy_grad(probs, target):
    """d(mean CE)/d(logits) of a batch: softmax minus one-hot, over the batch size."""
    g = np.asarray(probs, dtype=F64).copy()
    g[np.arange(len(g)), np.asarray(target)] -= 1.0
    return g / len(g)


# ---------------------------------------------------------------------------
# Adam


@dataclass
class AdamState:
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)
    step: int = 0

    @classmethod
    def for_params(cls, params: ModelParams):
        return cls([np.zeros_like(t, dtype=F32) for t in params.parameter_arrays()],
                   [np.zeros_like(t, dtype=F32) for t in params.parameter_arrays()], 0)


def adam_step(params: ModelParams, grads, state: AdamState, lr,
              beta1=0.9, beta2=0.999, eps=1e-8):
    """One Adam update with bias correction; mutates params/state in place."""
    flat_params = params.parameter_arrays()
    flat_grads = [g for group in grads for g in group]
    if len(flat_params) != len(flat_grads):
        raise ValueError("gradient structure does not match parameters")
    state.step += 1
    t = state.step
    c1 = 1.0 - beta1 ** t
    c2 = 1.0 - beta2 ** t
    for p, g, m, v in zip(flat_params, flat_grads, state.m, state.v):
        if p.shape != np.shape(g):
            raise ValueError(f"gradient shape {np.shape(g)} != parameter shape {p.shape}")
        g64 = np.asarray(g, dtype=F64)
        m64 = m.astype(F64) * beta1 + (1 - beta1) * g64
        v64 = v.astype(F64) * beta2 + (1 - beta2) * g64 * g64
        p64 = p.astype(F64) - lr * (m64 / c1) / (np.sqrt(v64 / c2) + eps)
        m[...] = m64.astype(F32)
        v[...] = v64.astype(F32)
        p[...] = p64.astype(F32)
    return params, state


# ---------------------------------------------------------------------------
# context net: one conv tower per voxel-crop branch; the flattened tower
# outputs, followed by optional per-node features, feed a two-layer MLP head.
# A tower has as many Conv3D/ReLU pairs as its crop allows (the spatial extent
# stays >= 1); a branch whose crop is too small for one passes it through.


def init_context_net(crop_sizes, channels, hidden, out_dim, seed, feature_dim=0):
    """-> (branches, head): tower i drawn from seed+i, the head from
    seed+len(crop_sizes) with a zeroed output layer."""
    branches, width = [], feature_dim
    for i, m in enumerate(crop_sizes):
        n_convs = min(len(channels), max(0, (m - 1) // 2))
        layers = tuple(layer for c in channels[:n_convs] for layer in (Conv3D(c), ReLU()))
        branches.append(init_params(layers, (1, m, m, m), seed + i))
        width += tower_width(branches[-1], m)
    head = init_params((FullyConnected(hidden), ReLU(), FullyConnected(out_dim)), (width,),
                       seed + len(crop_sizes), zero_final=True)
    return branches, head


def tower_width(tower: ModelParams, m) -> int:
    """Flattened output width of a conv tower on one m^3 crop. Raises
    ValueError unless the tower is Conv3D and ReLU layers that fit the crop."""
    for layer in tower.layers:
        if not isinstance(layer, (Conv3D, ReLU)):
            raise ValueError(f"a tower holds Conv3D and ReLU layers, not {layer}")
    return int(np.prod(layer_shapes(tower.layers, (1, m, m, m))[-1]))


def context_forward(branches, head, crop_sets, feats=None, caches=None):
    """Head outputs for a batch: crop_sets holds one (n, M, M, M) array per branch.

    Pass a list as `caches` to record what context_backward needs.
    """
    want = caches is not None
    flats = []
    for tower, crops in zip(branches, crop_sets):
        x = np.asarray(crops)[:, None, :, :, :].astype(F64)
        cache = None
        if tower.layers:
            x, cache = forward(tower, x, want_cache=want)
        if want:
            caches.append((cache, x.shape))
        flats.append(x.reshape(len(x), -1))
    if feats is not None:
        flats.append(np.asarray(feats, dtype=F64))
    out, cache_h = forward(head, np.concatenate(flats, axis=1), want_cache=want)
    if want:
        caches.append(cache_h)
    return out


def context_backward(branches, head, caches, grad_out):
    """Per-group parameter gradients, branches first and the head last."""
    head_grads, g = backward(head, caches[-1], grad_out)
    grads, lo = [], 0
    for tower, (cache, shape) in zip(branches, caches[:-1]):
        width = int(np.prod(shape[1:]))
        if tower.layers:
            grads.append(backward(tower, cache, g[:, lo:lo + width].reshape(shape))[0])
        else:
            grads.append([])
        lo += width
    return grads + [head_grads]


# ---------------------------------------------------------------------------
# level-wise tower pass: a valid 3x3x3 convolution commutes with translation,
# so the tower output of the crop box[a:a+m] is the window at a of one tower run
# over the whole box. Each layer is computed once, at the union of positions
# the nodes' windows need, with im2col's column order and the per-crop einsum,
# so every output element is reduced exactly as in `forward`. A needed position
# whose receptive field holds no occupied cell sees only empty space; its
# output, the same at every such position, is computed once from a patch of
# the previous layer's empty-space value, by the same einsum.

_COLUMN_BUDGET = 1 << 16   # patch-matrix entries per einsum call; cache-sized


def _dilate(mask, w, step):
    """OR of `mask` shifted by step*d, d in [0, w), along each axis.

    step=+1 marks the union of the w^3 windows with lower corners in `mask`;
    step=-1 marks the positions whose w^3 window reaches into `mask`.
    """
    for axis in range(3):
        grown = mask.copy()
        for d in range(1, w):
            near, far = [slice(None)] * 3, [slice(None)] * 3
            near[axis], far[axis] = slice(None, -d), slice(d, None)
            dst, src = (far, near) if step > 0 else (near, far)
            np.logical_or(grown[tuple(dst)], mask[tuple(src)], out=grown[tuple(dst)])
        mask = grown
    return mask


def _conv_at(x, t, where, background):
    """Conv3D of the (C, X, Y, Z) map x at the positions where `where` is set.

    Output position q reads input q..q+2 and is stored at q of a map of the
    same box shape, so every layer shares the box's flat indices. Every other
    position gets the output of a patch of `background` (x's value per
    channel wherever its patch was not recomputed), run through the same
    einsum. Returns (output map, its background).
    """
    c, sx, sy, sz = x.shape
    w = t[0].astype(F64).reshape(t[0].shape[0], -1)
    b = t[1].astype(F64)
    patch = np.repeat(background, 27)[None, None]
    background = (_mm(patch, w, "npk,ok->nop") + b[None, :, None])[0, :, 0]
    pos = np.flatnonzero(where)
    ar = np.arange(3)
    offsets = (np.arange(c)[:, None, None, None] * (sx * sy * sz) + ar[:, None, None] * (sy * sz)
               + ar[:, None] * sz + ar).reshape(-1)        # k = c*27 + a*9 + b*3 + e
    flat = x.reshape(-1)
    out = np.repeat(background[:, None], where.size, axis=1)
    step = max(1, _COLUMN_BUDGET // len(offsets))
    for lo in range(0, len(pos), step):
        idx = pos[lo:lo + step]
        cols = flat[idx[:, None] + offsets]
        out[:, idx] = (_mm(cols[None], w, "npk,ok->nop") + b[None, :, None])[0]
    return out.reshape((len(w),) + where.shape), background


def tower_windows(params: ModelParams, box, anchors, m):
    """Tower outputs of the m^3 crops box[a:a+m] for each anchor (crop corner) a.

    `box` is a zero-padded occupancy array containing every crop. Returns
    (n, width) rows, each flattened in (channel, x, y, z) order, equal bit for
    bit to forward(params, crops) reshaped the same way. A layer is computed
    where some node's window needs it and its receptive field holds an
    occupied cell; elsewhere in the windows it equals the output on empty
    space, computed once.
    """
    tower_width(params, m)   # layer and shape check up front
    anchors = np.asarray(anchors, dtype=np.int64).reshape(-1, 3)
    x = np.asarray(box, dtype=F64)[None]
    corners = np.zeros(x.shape[1:], dtype=bool)
    corners[anchors[:, 0], anchors[:, 1], anchors[:, 2]] = True
    reached = x[0] != 0        # positions whose receptive field holds an occupied cell
    background = np.zeros(1)   # the map's value everywhere else
    w = m
    for layer, t in zip(params.layers, params.tensors):
        if isinstance(layer, Conv3D):
            w -= 2
            reached = _dilate(reached, 3, -1)
            x, background = _conv_at(x, t, _dilate(corners, w, +1) & reached, background)
        else:
            x = np.maximum(x, 0.0)
            background = np.maximum(background, 0.0)
    s = x.strides
    win = np.lib.stride_tricks.as_strided(
        x, tuple(d - w + 1 for d in x.shape[1:]) + (x.shape[0], w, w, w),
        (s[1], s[2], s[3], s[0], s[1], s[2], s[3]), writeable=False)
    return win[anchors[:, 0], anchors[:, 1], anchors[:, 2]].reshape(len(anchors), -1)


def symbol_loss(logits, symbols):
    """Mean softmax cross-entropy (nats) of 1..255 symbols, and d loss / d logits."""
    targets = np.asarray(symbols, dtype=np.int64) - 1
    loss, probs = softmax_cross_entropy(logits, targets)
    return loss, cross_entropy_grad(probs, targets)


def fit(branches, head, crop_sets, feats, targets, loss, epochs, batch_size, lr, seed):
    """Adam over shuffled mini-batches; loss(outputs, targets) -> (mean loss, d/d outputs).

    Returns the per-epoch mean loss curve.
    """
    n = len(targets)
    if n == 0:
        raise ValueError("empty training dataset")
    groups = list(branches) + [head]
    states = [AdamState.for_params(p) for p in groups]
    rng = np.random.Generator(np.random.Philox(seed))
    curve = []
    for _ in range(epochs):
        order = rng.permutation(n)
        total = 0.0
        for lo in range(0, n, batch_size):
            sel = order[lo:lo + batch_size]
            caches = []
            out = context_forward(branches, head, [c[sel] for c in crop_sets],
                                  None if feats is None else feats[sel], caches)
            value, grad_out = loss(out, targets[sel])
            total += value * len(sel)
            grads = context_backward(branches, head, caches, grad_out)
            for params, group_grads, state in zip(groups, grads, states):
                if group_grads:
                    adam_step(params, group_grads, state, lr)
        curve.append(total / n)
    return curve


# ---------------------------------------------------------------------------
# "VCNM" model container: magic, version, kind, seed, JSON metadata, then named
# parameter groups, closed by an FNV-1a-64 hash of everything before it.

MODEL_MAGIC = b"VCNM"
MODEL_VERSION = 1

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
_FNV_MASK = 0xFFFFFFFFFFFFFFFF


def fnv1a64(data: bytes) -> int:
    """FNV-1a-64 of `data`, memoized on the bytes themselves: the cache compares
    whole keys, so hashing an unchanged model again costs one compare, and a
    model whose weights changed in any byte is hashed afresh."""
    return _fnv1a64(bytes(data))


@functools.lru_cache(maxsize=8)
def _fnv1a64(data: bytes) -> int:
    h = FNV_OFFSET
    for byte in data:
        h = ((h ^ byte) * FNV_PRIME) & _FNV_MASK
    return h


def _pack_group(name: str, params: ModelParams) -> bytes:
    out = bytearray()
    nb = name.encode("utf-8")
    out += struct.pack("<B", len(nb)) + nb
    out += struct.pack("<H", len(params.layers))
    for layer in params.layers:
        arg = getattr(layer, "out_channels", getattr(layer, "out_dim", 0))
        out += struct.pack("<BI", LAYER_KINDS[type(layer)], arg)
    flat = params.parameter_arrays()
    out += struct.pack("<H", len(flat))
    for t in flat:
        out += struct.pack("<B", t.ndim)
        out += struct.pack(f"<{t.ndim}I", *t.shape)
        out += t.astype("<f4").tobytes()
    return bytes(out)


def serialize_model(kind: int, seed: int, meta: dict, groups) -> bytes:
    """groups: iterable of (name, ModelParams)."""
    out = bytearray()
    out += MODEL_MAGIC
    out += struct.pack("<BBQ", MODEL_VERSION, kind, seed & _FNV_MASK)
    meta_bytes = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
    out += struct.pack("<I", len(meta_bytes)) + meta_bytes
    groups = list(groups)
    out += struct.pack("<H", len(groups))
    for name, params in groups:
        out += _pack_group(name, params)
    out += struct.pack("<Q", fnv1a64(bytes(out)))
    return bytes(out)


def model_content_hash(blob: bytes) -> int:
    """The trailing FNV hash of a serialized model."""
    return struct.unpack("<Q", blob[-8:])[0]


def deserialize_model(blob: bytes):
    """Inverse of serialize_model -> (kind, seed, meta, [(name, ModelParams), ...]).

    Raises ValueError for anything that is not a well-formed model file; the
    trailing hash is never parsed as data.
    """
    if len(blob) < 26 or blob[:4] != MODEL_MAGIC:
        raise ValueError("not a model file (bad magic)")
    stored = struct.unpack("<Q", blob[-8:])[0]
    if fnv1a64(blob[:-8]) != stored:
        raise ValueError("model file corrupt (content hash mismatch)")
    try:
        return _parse_model(blob[:-8])
    except struct.error as exc:
        raise ValueError(f"model file truncated or corrupt: {exc}") from exc


def _parse_model(blob: bytes):
    version, kind, seed = struct.unpack_from("<BBQ", blob, 4)
    if version != MODEL_VERSION:
        raise ValueError(f"unsupported model version {version}")
    pos = 14
    (meta_len,) = struct.unpack_from("<I", blob, pos)
    pos += 4
    meta = json.loads(blob[pos:pos + meta_len].decode("utf-8"))
    pos += meta_len
    (n_groups,) = struct.unpack_from("<H", blob, pos)
    pos += 2
    groups = []
    for _ in range(n_groups):
        (name_len,) = struct.unpack_from("<B", blob, pos)
        pos += 1
        name = blob[pos:pos + name_len].decode("utf-8")
        pos += name_len
        (n_layers,) = struct.unpack_from("<H", blob, pos)
        pos += 2
        layers = []
        for _ in range(n_layers):
            lk, arg = struct.unpack_from("<BI", blob, pos)
            pos += 5
            if lk not in _KIND_TO_LAYER:
                raise ValueError(f"unknown layer kind {lk} in group {name!r}")
            layers.append(_KIND_TO_LAYER[lk](arg))
        (n_tensors,) = struct.unpack_from("<H", blob, pos)
        pos += 2
        flat = []
        for _ in range(n_tensors):
            (ndim,) = struct.unpack_from("<B", blob, pos)
            pos += 1
            shape = struct.unpack_from(f"<{ndim}I", blob, pos)
            pos += 4 * ndim
            size = int(np.prod(shape)) if ndim else 1
            arr = np.frombuffer(blob, dtype="<f4", count=size, offset=pos).reshape(shape).copy()
            pos += 4 * size
            flat.append(arr)
        weighted = [isinstance(layer, (Conv3D, FullyConnected)) for layer in layers]
        if len(flat) != 2 * sum(weighted):
            raise ValueError(f"group {name!r} has {len(flat)} tensors for "
                             f"{sum(weighted)} weighted layers")
        it = iter(flat)
        tensors = [[next(it), next(it)] if w else [] for w in weighted]
        groups.append((name, ModelParams(tuple(layers), tensors, seed)))
    return kind, seed, meta, groups


@contextmanager
def model_fields():
    """Report a missing or mistyped metadata entry or group of a model file as ValueError."""
    try:
        yield
    except KeyError as exc:
        raise ValueError(f"model file lacks {exc.args[0]!r}") from exc
    except TypeError as exc:
        raise ValueError(f"model file has a malformed field: {exc}") from exc
