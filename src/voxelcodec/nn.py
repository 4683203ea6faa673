"""Deterministic neural kernel: 3D valid convolution, fully connected layers,
ReLU, reverse-mode gradients, Adam, Glorot init, the branch-generic context
net with its training loop, its fixed-point copy, the level-wise tower pass
(the one integer inference path), and the "VCNM" model file.

Training runs in float64 with every product through np.einsum with
optimize=False, and the one scatter-add, col2im, as an np.bincount per sample
in a fixed order (tap-major) on one thread, so its results are bit-identical
regardless of BLAS threading; parameters are stored float32. A conv lowers to
a patch matrix built by one gather (`_im2col`), and no tower computes the
gradient of its input crops. Training caches a conv's input, not its patch
matrix (up to 27 times larger): backward rebuilds it for the weight gradient
and frees it before the patch gradients are built (Chen et al.,
arXiv:1604.06174). Initialization draws from a Philox counter stream so seeds
are portable.

Coding and refinement never run the float kernel. They quantize the stored
weights to a fixed-point copy of the network (`quantize_context_net`) whose
every operand is an integer held in float64 and whose every partial sum stays
below 2^53, so BLAS matrix products are exact in any summation order: on any
thread count and any CPU kernel, results agree bit for bit. `tower_windows`
runs a conv tower once over a zero-padded occupancy box and gathers each
node's window, bit for bit the per-crop oracle of `tests/oracles.py`. Each
layer is kept as compact rows, one per position some node's window needs,
and read through row indices (`tile_layout`, which depends on the crop
corners alone, so towers reading different grids at the same corners share
it); the first layer is computed only where an occupied cell is in reach
(elsewhere its value on empty space, `IntNet.backgrounds`, is computed once
per net). Each weight tensor is quantized from one float64 copy, scaled and
rounded in place; a convolution's columns are tap-major, the order in which
both the pass and the oracle gather a patch. Tower rows are window-major, and
`quantize_context_net` orders the head's first-layer columns to match as
that copy is made. The tiling and the head are the caller's:
`entropy.level_outputs` applies the head's first layer tile by tile.
`integer_tables` maps the integer logits to the coder's 16-bit frequency
tables in integer arithmetic through one table of 2^16 * 2^(-j/256), so no
transcendental function decides a coded bit; those tables are the networks'
only distribution. A model file is hashed from its pieces (`hash_model`).
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import struct
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from decimal import Decimal, localcontext

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


def tensor_shapes(layers, input_shape):
    """The [weight, bias] shapes of each weighted layer of the stack, [] for
    the others: what `init_params` draws and a model file must hold."""
    shapes = []
    for layer, shape in zip(layers, layer_shapes(layers, input_shape)):
        if isinstance(layer, Conv3D):
            shapes.append([(layer.out_channels, shape[0], 3, 3, 3), (layer.out_channels,)])
        elif isinstance(layer, FullyConnected):
            shapes.append([(layer.out_dim, math.prod(shape)), (layer.out_dim,)])
        else:
            shapes.append([])
    return shapes


def init_params(layers, input_shape, seed, zero_final=False) -> ModelParams:
    """Glorot-uniform weights, zero biases, drawn from a Philox(seed) stream.

    zero_final=True zeroes the last parametric layer so the freshly built
    network is the identity in logit/offset space.
    """
    rng = np.random.Generator(np.random.Philox(seed))
    tensors = []
    last_parametric = max((i for i, l in enumerate(layers) if isinstance(l, (Conv3D, FullyConnected))),
                          default=-1)
    for i, group in enumerate(tensor_shapes(layers, input_shape)):
        if group:
            w_shape, b_shape = group   # fans: a conv's 27 taps count on both sides
            fan_in, fan_out = math.prod(w_shape[1:]), w_shape[0] * math.prod(w_shape[2:])
            limit = math.sqrt(6.0 / (fan_in + fan_out))
            w = rng.uniform(-limit, limit, size=w_shape).astype(F32)
            if zero_final and i == last_parametric:
                w[:] = 0
            group = [w, np.zeros(b_shape, dtype=F32)]
        tensors.append(group)
    return ModelParams(tuple(layers), tensors, seed)


# ---------------------------------------------------------------------------
# forward / backward


def _mm(a, b, sig):
    return np.einsum(sig, a, b, optimize=False)


@functools.lru_cache(maxsize=16)
def _patch_index(c, d, h, w):
    """(P, C*27) flat indices into one (C, D, H, W) sample of its 3x3x3 valid
    conv's patch matrix: row p an output position (x-major), column
    k = channel*27 + tap, tap = a*9 + b*3 + e. Read-only; its size is the
    layer's, not the batch's."""
    pos = np.ravel_multi_index(np.indices((d - 2, h - 2, w - 2)).reshape(3, -1), (d, h, w))
    cols = np.arange(c)[:, None] * (d * h * w) + _cube_offsets((d, h, w), 3)
    index = pos[:, None] + cols.reshape(-1)
    index.flags.writeable = False
    return index


@functools.lru_cache(maxsize=16)
def _scatter_index(c, d, h, w):
    """`_patch_index` flattened tap-major, (27, P, C): the order in which
    `_col2im` adds the patch entries."""
    index = _patch_index(c, d, h, w)
    index = np.ascontiguousarray(index.reshape(len(index), c, 27).transpose(2, 0, 1)).reshape(-1)
    index.flags.writeable = False
    return index


def _im2col(x):
    """(N, C, D, H, W) -> (N, P, C*27) patch matrix for a 3x3x3 valid conv,
    C-contiguous: one gather through `_patch_index`."""
    n, c, d, h, w = x.shape
    return np.take(x.reshape(n, -1), _patch_index(c, d, h, w), axis=1)


def forward(params: ModelParams, x, want_cache=True):
    """Run the stack on a batch: one sample per entry of `x`'s leading axis.

    Returns (output, cache); pass the cache to backward() unchanged. Each
    weighted layer caches its float64 input and each ReLU its mask.
    """
    x = np.asarray(x, dtype=F64)
    layer_shapes(params.layers, x.shape[1:])  # shape check up front
    cache = [] if want_cache else None
    for layer, t in zip(params.layers, params.tensors):
        if isinstance(layer, Conv3D):
            if want_cache:
                cache.append(x)
            w = t[0].astype(F64).reshape(layer.out_channels, -1)
            b = t[1].astype(F64)
            do, ho, wo = x.shape[2] - 2, x.shape[3] - 2, x.shape[4] - 2
            out = _mm(_im2col(x), w, "npk,ok->nop") + b[None, :, None]
            x = out.reshape(x.shape[0], layer.out_channels, do, ho, wo)
        elif isinstance(layer, FullyConnected):
            if want_cache:
                cache.append(x)
            w = t[0].astype(F64)
            x = _mm(x.reshape(x.shape[0], -1), w, "ni,oi->no") + t[1].astype(F64)[None, :]
        elif isinstance(layer, ReLU):
            if want_cache:
                cache.append(x > 0)
            x = np.maximum(x, 0.0)
    return x, cache


def backward(params: ModelParams, cache, grad_out, input_grad=True):
    """Reverse pass on a batch: upstream gradient -> (per-layer [dW, db] grads,
    input gradient). With input_grad=False the stack's input is data: its
    gradient is not computed, and None is returned in its place."""
    g = np.asarray(grad_out, dtype=F64)
    grads = [None] * len(params.layers)
    for i in range(len(params.layers) - 1, -1, -1):
        layer, t, c = params.layers[i], params.tensors[i], cache[i]
        pass_down = i > 0 or input_grad
        if isinstance(layer, Conv3D):
            n, co = g.shape[0], g.shape[1]
            gmat = np.ascontiguousarray(g.reshape(n, co, -1).transpose(0, 2, 1))  # (N, P, C_out)
            w = t[0].astype(F64).reshape(co, -1)
            dw = _mm(gmat, _im2col(c), "npo,npk->ok").reshape(t[0].shape)   # patches freed here
            db = gmat.sum(axis=(0, 1))
            if pass_down:
                g = _col2im(_mm(gmat, w, "npo,ok->npk"), c.shape)
            grads[i] = [dw, db]
        elif isinstance(layer, FullyConnected):
            dw = _mm(g, c.reshape(len(c), -1), "no,ni->oi")
            db = g.sum(axis=0)
            if pass_down:
                g = _mm(g, t[0].astype(F64), "no,oi->ni").reshape(c.shape)
            grads[i] = [dw, db]
        elif isinstance(layer, ReLU):
            g = g * c
            grads[i] = []
    return grads, g if input_grad else None


def _col2im(dcols, in_shape):
    """Scatter-add patch gradients back onto the conv input: per sample, one
    np.bincount of the patch entries in tap-major order (`_scatter_index`).
    A tap reaches an input element at most once, and bincount adds in input
    order, serially, into float64 zeros, so each element sums its
    contributions from 0.0 in ascending tap order (a, b, e): the additions
    of 27 shifted slab adds, bit for bit."""
    n, c, d, h, w = in_shape
    index = _scatter_index(c, d, h, w)
    taps = dcols.reshape(n, -1, c, 27).transpose(0, 3, 1, 2)   # (N, 27, P, C)
    dx = np.empty((n, c * d * h * w))
    for s in range(n):   # per sample: an index for the whole batch would grow with it
        dx[s] = np.bincount(index, weights=taps[s].reshape(-1), minlength=dx.shape[1])
    return dx.reshape(in_shape)


def softmax_cross_entropy(logits, targets):
    """Stable mean CE of a batch of logit rows through log-sum-exp:
    lse(logits) - logits[target], in nats. Returns (loss, probabilities)."""
    z = np.asarray(logits, dtype=F64)
    targets = np.asarray(targets)
    k = z.shape[-1]
    if targets.min() < 0 or targets.max() >= k:
        raise ValueError(f"target out of range [0, {k})")
    m = z.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(z - m).sum(axis=-1, keepdims=True)) + m
    logp = z - lse
    losses = -logp[np.arange(len(targets)), targets]
    return float(losses.mean()), np.exp(logp)


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


_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8   # Adam's moment decays and denominator guard


def adam_step(params: ModelParams, grads, state: AdamState, lr):
    """One Adam update with bias correction; mutates params/state in place."""
    flat_params = params.parameter_arrays()
    flat_grads = [g for group in grads for g in group]
    if len(flat_params) != len(flat_grads):
        raise ValueError("gradient structure does not match parameters")
    state.step += 1
    t = state.step
    c1 = 1.0 - _BETA1 ** t
    c2 = 1.0 - _BETA2 ** t
    for p, g, m, v in zip(flat_params, flat_grads, state.m, state.v):
        if p.shape != np.shape(g):
            raise ValueError(f"gradient shape {np.shape(g)} != parameter shape {p.shape}")
        g64 = np.asarray(g, dtype=F64)
        m64 = m.astype(F64) * _BETA1 + (1 - _BETA1) * g64
        v64 = v.astype(F64) * _BETA2 + (1 - _BETA2) * g64 * g64
        p64 = p.astype(F64) - lr * (m64 / c1) / (np.sqrt(v64 / c2) + _EPS)
        m[...] = m64.astype(F32)
        v[...] = v64.astype(F32)
        p[...] = p64.astype(F32)


# ---------------------------------------------------------------------------
# context net: one conv tower per voxel-crop branch; the flattened tower
# outputs, followed by optional per-node features, feed a two-layer MLP head.
# A tower has as many Conv3D/ReLU pairs as its crop allows (the spatial extent
# stays >= 1); a branch whose crop is too small for one passes it through.


def context_stacks(crop_sizes, channels, hidden, out_dim):
    """-> (tower layer stacks, head layers): each tower as many Conv3D/ReLU
    pairs of `channels` as its crop allows, the head FC(hidden), ReLU,
    FC(out_dim)."""
    towers = [tuple(layer for c in channels[:max(0, (m - 1) // 2)]
                    for layer in (Conv3D(c), ReLU())) for m in crop_sizes]
    return towers, (FullyConnected(hidden), ReLU(), FullyConnected(out_dim))


def init_context_net(crop_sizes, channels, hidden, out_dim, seed, feature_dim=0):
    """-> (branches, head) of `context_stacks`: tower i drawn from seed+i, the
    head from seed+len(crop_sizes) with a zeroed output layer."""
    towers, head_layers = context_stacks(crop_sizes, channels, hidden, out_dim)
    branches = [init_params(layers, (1, m, m, m), seed + i)
                for i, (layers, m) in enumerate(zip(towers, crop_sizes))]
    width = feature_dim + sum(tower_width(tower, m) for tower, m in zip(branches, crop_sizes))
    head = init_params(head_layers, (width,), seed + len(crop_sizes), zero_final=True)
    return branches, head


def tower_width(tower: ModelParams, m) -> int:
    """Flattened output width of a conv tower on one m^3 crop. Raises
    ValueError unless the tower is Conv3D and ReLU layers that fit the crop."""
    for layer in tower.layers:
        if not isinstance(layer, (Conv3D, ReLU)):
            raise ValueError(f"a tower holds Conv3D and ReLU layers, not {layer}")
    return int(np.prod(layer_shapes(tower.layers, (1, m, m, m))[-1]))


def check_context_net(branches, head, crop_sizes, feature_dim, out_dim, channels, hidden):
    """Raise ValueError unless each tower fits its crop (`tower_width`), the head
    maps the tower rows and `feature_dim` features to `out_dim` outputs, every
    tensor has the shape its layer stack implies (`tensor_shapes`), and the
    layer stacks are those `channels` and `hidden` describe (`context_stacks`)."""
    width, stacks = feature_dim, []
    for i, (tower, m) in enumerate(zip(branches, crop_sizes)):
        width += tower_width(tower, m)
        stacks.append((f"tower {i}", tower, (1, m, m, m)))
    stacks.append(("head", head, (width,)))
    for name, params, input_shape in stacks:
        for j, (group, want) in enumerate(zip(params.tensors, tensor_shapes(params.layers, input_shape))):
            got = [t.shape for t in group]
            if got != want:
                raise ValueError(f"{name} layer {j} holds tensors of shapes {got}; "
                                 f"its layer stack implies {want}")
    out = layer_shapes(head.layers, (width,))[-1]
    if out != (out_dim,):
        raise ValueError(f"head output shape {out}; {out_dim} values expected")
    towers, head_layers = context_stacks(crop_sizes, channels, hidden, out_dim)
    for (name, params, _), want in zip(stacks, towers + [head_layers]):
        if params.layers != want:
            raise ValueError(f"{name} layers {params.layers} are not the {want} that "
                             f"channels {list(channels)} and hidden {hidden} describe")


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
    """Per-group parameter gradients, branches first and the head last. The
    crops are data: no tower computes the gradient of its input."""
    head_grads, g = backward(head, caches[-1], grad_out)
    grads, lo = [], 0
    for tower, (cache, shape) in zip(branches, caches[:-1]):
        width = int(np.prod(shape[1:]))
        if tower.layers:
            grads.append(backward(tower, cache, g[:, lo:lo + width].reshape(shape),
                                  input_grad=False)[0])
        else:
            grads.append([])
        lo += width
    return grads + [head_grads]


# ---------------------------------------------------------------------------
# integer-exact inference (Balle, Johnston & Minnen, "Integer Networks for Data
# Compression", ICLR 2019; Jacob et al., arXiv:1712.05877). Coding and
# refinement run the stored float32 networks in fixed point, quantized from the
# weights alone: no calibration data and nothing new in the model file. Each
# weighted layer's weights become integers wq = rint(w * 2^e_w), |wq| <= 2^15,
# one power-of-two scale per layer. Activations are integers a * 2^e_a, where
# e_a is the largest exponent at which the layer's fan-in K times 2^15 times
# the worst-case bound on its input stays within 2^52; the bound is carried
# through the stack from the weights (behind a ReLU, the sum of max(wq, 0)
# times the input bound, plus max(bq, 0)). Every product and partial sum of
# `a @ wq.T` is then an integer below 2^53, exact in float64 in any summation
# order, so BLAS returns the same bits on any thread count and any CPU kernel.
# A layer's output moves to the next layer's exponent by a power-of-two
# multiply and rint, which are exact or correctly rounded everywhere.

WEIGHT_BITS = 15   # every quantized weight |wq| <= 2^WEIGHT_BITS
ACC_BITS = 52      # every partial sum of a layer stays within 2^ACC_BITS


@dataclass(frozen=True)
class IntLayer:
    """A weighted layer in fixed point with its ReLU folded in: integer inputs x
    give rint((x @ w.T + b) * scale), clipped at zero if `relu`."""
    w: np.ndarray      # (out, K) integers; a convolution's columns tap-major, k = tap*C + c
    b: np.ndarray      # (out,) integer bias at the accumulator exponent
    scale: float       # 2^(output exponent - accumulator exponent)
    relu: bool
    conv: bool

    def apply(self, x):
        """Integer rows x (n, K) -> the layer's output integers (n, out)."""
        acc = x @ self.w.T
        acc += self.b
        return self.requantize(acc)

    def requantize(self, acc):
        """Accumulator (bias included) -> output integers, in place."""
        if self.scale != 1.0:
            acc *= self.scale
            np.rint(acc, out=acc)
        if self.relu:
            np.maximum(acc, 0.0, out=acc)
        return acc


@dataclass(frozen=True)
class IntNet:
    """A layer stack in fixed point: its input holds integers x * 2^in_exp and
    its output integers y * 2^out_exp with |y| <= bound (y >= 0 unless
    `signed`)."""
    layers: tuple
    in_exp: int
    out_exp: int
    bound: float
    signed: bool

    def width(self, m) -> int:
        """Flattened output width of a conv tower on one m^3 crop. Raises
        ValueError unless every layer is a convolution that fits the crop."""
        side = m - 2 * len(self.layers)
        if side < 1 or not all(layer.conv for layer in self.layers):
            raise ValueError(f"not a conv tower that fits a {m}^3 crop")
        return (len(self.layers[-1].w) if self.layers else 1) * side ** 3

    @functools.cached_property
    def backgrounds(self):
        """A conv tower's output per channel on empty space, the all-zero
        input first and then after each layer: every position of a layer
        whose receptive field holds no occupied cell takes that value."""
        chain = [np.zeros(1)]
        for layer in self.layers:
            chain.append(layer.apply(np.tile(chain[-1], 27)[None])[0])
        return tuple(chain)

    def delivering(self, exp):
        """The same net with its output requantized to exponent `exp`."""
        if not self.layers:
            return replace(self, out_exp=exp)
        last = self.layers[-1]
        last = replace(last, scale=last.scale * 2.0 ** (exp - self.out_exp))
        return replace(self, layers=self.layers[:-1] + (last,), out_exp=exp)


def _quantized_weights(t, blocks):
    """(wq (out, K), float64 bias, peak |bias|, e_w) of one layer's stored
    tensors, from one float64 copy of the weights scaled and rounded in place.
    Each block (width, s) of `blocks`, from column 0 on, is copied as its
    (width / s, s) columns transposed; a convolution's one block makes its
    columns tap-major, k = tap*C + c."""
    w = t[0].reshape(len(t[0]), -1)
    wq, lo = np.empty(w.shape), 0
    for width, s in [(w.shape[1], 27)] if t[0].ndim == 5 else blocks:
        wq[:, lo:lo + width].reshape(len(w), s, -1)[...] = \
            w[:, lo:lo + width].reshape(len(w), -1, s).transpose(0, 2, 1)
        lo += width
    wq[:, lo:] = w[:, lo:]
    b = t[1].astype(F64)
    w_hi, w_lo, b_hi, b_lo = (float(f(x, initial=0.0)) for x in (wq, b) for f in (np.max, np.min))
    if not all(map(math.isfinite, (w_hi, w_lo, b_hi, b_lo))):   # max and min keep a NaN
        raise ValueError("network weights are not all finite")
    peak = max(w_hi, -w_lo)
    e_w = WEIGHT_BITS - math.frexp(peak)[1] if peak > 0 else 0
    wq *= 2.0 ** e_w
    return np.rint(wq, out=wq), b, max(b_hi, -b_lo), e_w


def _fits(bound, e, fan_in, b_peak, e_w) -> bool:
    """Whether inputs rint(bound * 2^e) keep a fan_in-wide layer's partial sums,
    and its bias rint(b * 2^(e_w + e)), within 2^ACC_BITS."""
    return ((fan_in << WEIGHT_BITS) * round(math.ldexp(bound, e)) <= 1 << ACC_BITS
            and round(math.ldexp(b_peak, e_w + e)) <= 1 << ACC_BITS)


def _input_exponent(bound, fan_in, b_peak, e_w) -> int:
    """The largest exponent at which a layer's inputs fit (`_fits`)."""
    limits = []
    if bound > 0:
        limits.append(math.frexp(2.0 ** (ACC_BITS - WEIGHT_BITS) / max(fan_in, 1) / bound)[1])
    if b_peak > 0:
        limits.append(math.frexp(2.0 ** ACC_BITS / b_peak)[1] - e_w)
    e = min(limits, default=0)
    while not _fits(bound, e, fan_in, b_peak, e_w):
        e -= 1
    return e


def _fixed_point(params: ModelParams, in_exp, bound, signed, blocks=()) -> IntNet:
    """Quantize a stack whose input has magnitude at most `bound`, and is
    nonnegative unless `signed`. The first layer reads integers at `in_exp`,
    or at the largest exponent it allows if that is None, its weight columns
    in `blocks` order (`_quantized_weights`); the output stays at the last
    layer's accumulator exponent."""
    specs = []   # [wq, bq, input exponent, accumulator exponent, relu, conv]
    out_exp = in_exp if in_exp is not None else 0
    for i, layer in enumerate(params.layers):
        if not isinstance(layer, (Conv3D, FullyConnected)):
            continue
        wq, b, b_peak, e_w = _quantized_weights(params.tensors[i], () if specs else blocks)
        if specs or in_exp is None:
            exp = _input_exponent(bound, wq.shape[1], b_peak, e_w)
        elif _fits(bound, in_exp, wq.shape[1], b_peak, e_w):
            exp = in_exp
        else:
            raise ValueError(f"layer {i} is too wide for exact integer inference")
        q = round(math.ldexp(bound, exp))
        bq = np.rint(b * 2.0 ** (e_w + exp))
        relu = i + 1 < len(params.layers) and isinstance(params.layers[i + 1], ReLU)
        reach = (np.abs(wq) if signed else np.maximum(wq, 0.0)).sum(axis=1) * q
        top = float((reach + bq).max(initial=0.0))
        if not relu:   # only an output no ReLU clips can fall below zero
            lo = bq - reach if signed else np.minimum(wq, 0.0).sum(axis=1) * q + bq
            top = max(top, -float(lo.min(initial=0.0)))
        out_exp = e_w + exp
        bound, signed = math.ldexp(top, -out_exp), not relu
        specs.append([wq, bq, exp, out_exp, relu, isinstance(layer, Conv3D)])
    layers = []
    for n, (wq, bq, _, acc_exp, relu, conv) in enumerate(specs):
        next_exp = specs[n + 1][2] if n + 1 < len(specs) else acc_exp
        layers.append(IntLayer(wq, bq, 2.0 ** (next_exp - acc_exp), relu, conv))
    return IntNet(tuple(layers), specs[0][2] if specs else out_exp, out_exp, bound, signed)


@dataclass(frozen=True)
class IntContextNet:
    """A context net (`init_context_net`) in fixed point: each tower reads the
    raw occupancy and delivers its rows at the head's input exponent."""
    towers: tuple
    head: IntNet

    def features(self, feats):
        """Node features as integers at the head's input exponent."""
        return np.rint(np.asarray(feats, dtype=F64) * 2.0 ** self.head.in_exp)


def quantize_context_net(branches, head, crop_sizes, feature_bound=0.0) -> IntContextNet:
    """Fixed-point copy of a context net's stored weights, tower i on crops of
    edge crop_sizes[i]. The head's input exponent follows from its fan-in and
    the largest bound among the tower outputs and the node features
    (`feature_bound`). The head's first layer reads each tower's rows
    window-major: its columns are permuted from the float net's (channel, x,
    y, z) order as its weights are copied, one (width, side^3) block per tower."""
    towers = [_fixed_point(tower, 0, 1.0, False) for tower in branches]
    blocks = [(tower.width(m), (m - 2 * len(tower.layers)) ** 3)
              for tower, m in zip(towers, crop_sizes, strict=True)]
    qhead = _fixed_point(head, None, max([t.bound for t in towers] + [feature_bound]),
                         any(t.signed for t in towers), blocks)
    return IntContextNet(tuple(t.delivering(qhead.in_exp) for t in towers), qhead)


def _exp2_table():
    """The integers nearest 2^16 * 2^(-j/256) for j = 0..255, and the float64
    nearest log2(e): computed at 40 significant digits, then rounded once."""
    with localcontext() as ctx:
        ctx.prec = 40
        ln2 = Decimal(2).ln()
        units = [int(((16 - Decimal(j) / 256) * ln2).exp().to_integral_value())
                 for j in range(256)]
        return np.array(units, dtype=np.int64), float(1 / ln2)


_EXP2_UNITS, _LOG2E = _exp2_table()
TABLE_TOTAL = 1 << 16   # every row of `integer_tables` sums to this
_EXP2_OCTAVES = 64   # logits more than 64 octaves below the row's largest are clipped there
# 2^16 * 2^(-j/256) at every index j = octave*256 + u that `_exp2_index` returns
_EXP2_SHIFTED = (_EXP2_UNITS >> np.arange(_EXP2_OCTAVES)[:, None]).reshape(-1)


def _exp2_index(z, exp):
    """Table index j = rint((max z - z) * log2(e) * 256), clipped, of integer
    logits z * 2^exp on the last axis: a correctly rounded multiply and rint."""
    z = np.asarray(z, dtype=F64)
    d = z.max(axis=-1, keepdims=True) - z
    d *= _LOG2E * 2.0 ** (8 - exp)
    np.rint(d, out=d)
    return np.minimum(d, 256 * _EXP2_OCTAVES - 1, out=d).astype(np.int16)   # j < 2^14


def integer_tables(z, exp):
    """(n, k) int64 coding frequencies, each >= 1 and each row totalling
    TABLE_TOTAL, from integer logits z * 2^exp, in integers from the index j
    of `_exp2_index` on: t = 2^16 * 2^(-j/256), one lookup in `_EXP2_SHIFTED`,
    and 1 + ((t * M) >> 32) with one M = ((TABLE_TOTAL - k) << 32) // sum(t)
    per row (t * M < 2^48 in int64); the rest of the total goes to the row's
    largest logit (first of equals, j = 0). No float division or sort."""
    top = np.argmax(z, axis=1)
    j = _exp2_index(z, exp)
    n, k = j.shape
    t = _EXP2_SHIFTED[j]
    del j
    t *= ((TABLE_TOTAL - k) << 32) // t.sum(axis=1, keepdims=True)
    t >>= 32
    t += 1
    t[np.arange(n), top] += TABLE_TOTAL - t.sum(axis=1)
    return t


# ---------------------------------------------------------------------------
# level-wise tower pass: a valid 3x3x3 convolution commutes with translation,
# so the tower output of the crop box[a:a+m] is the window at a of one tower run
# over the whole box. Each layer is computed once, at the union of positions
# the nodes' windows need, so every output equals the per-crop one
# (`tests/oracles.py`) exactly. A layer's output is kept as compact rows, one
# per needed position, and the next layer gathers its patches from them
# through row indices (the coordinate maps of sparse convolution: Choy et al.,
# MinkowskiEngine, arXiv:1904.08755; Graham & van der Maaten,
# arXiv:1706.01307). A first-layer position whose patch holds no occupied cell
# sees only empty space and takes the empty-space output (`IntNet.backgrounds`);
# every later needed position is computed, which is exact, because one whose
# taps are all background evaluates to the background.

_COLUMN_BUDGET = 1 << 17   # patch-matrix entries per BLAS call


def _dilate(mask, w, strides):
    """OR of the flat box mask `mask` shifted by d*stride, d in [0, w), for each
    axis's stride: the union of the w^3 windows with lower corners in `mask`,
    given that every window lies in the box, so no shift crosses its faces."""
    mask = mask.copy()
    for stride in strides:
        span = 1   # mask holds the OR over shifts [0, span); doubling reaches w in log2(w) steps
        while span < w:
            d = min(span, w - span) * stride
            np.logical_or(mask[d:], mask[:-d], out=mask[d:])
            span += d // stride
    return mask


def _cube_offsets(shape, w):
    """Flat offsets, x-major, of the w^3 cube's cells in a box of `shape`."""
    ar = np.arange(w)
    return (ar[:, None, None] * (shape[1] * shape[2]) + ar[:, None] * shape[2] + ar).reshape(-1)


@dataclass(frozen=True)
class TileLayout:
    """Where each layer of a conv tower is computed over one tile's box, as
    compact rows: row r of a layer's output is its r-th needed position in
    the box's flat order. `first` (P_1,) holds the first layer's needed
    positions as flat box indices (None if the tower has no layer); taps[i]
    (P_i, 27), for each later layer,
    each needed position's 3x3x3 patch as rows of the layer before it; and
    windows (k, w^3) each anchor's last-layer window, x-major, as rows of
    the last layer (as flat box indices if the tower has no layer)."""
    first: np.ndarray
    taps: tuple
    windows: np.ndarray


def tile_layout(shape, anchors, m, depth) -> TileLayout:
    """The `TileLayout` of a `depth`-conv tower on the m^3 crops of a box of
    `shape` with lower corners `anchors`: a layer is needed at the union of
    the windows, edge m - 2 after the first layer and 2 less after each next
    one. It depends on the anchors alone, so every grid read at the same
    anchors shares it."""
    shape = tuple(int(s) for s in shape)
    strides = (shape[1] * shape[2], shape[2], 1)
    corners = anchors @ strides
    mask = np.zeros(math.prod(shape), dtype=bool)
    mask[corners] = True
    wanted, edge = [], m - 2 * depth   # last layer first
    for _ in range(depth):
        mask, edge = _dilate(mask, edge, strides), 3
        wanted.append(np.flatnonzero(mask))
    wanted.reverse()
    windows = corners[:, None] + _cube_offsets(shape, m - 2 * depth)
    if not depth:
        return TileLayout(None, (), windows)
    rank = np.empty(len(mask), dtype=np.intp)   # a needed position's row, layer by layer

    def rows(pos, idx):
        rank[pos] = np.arange(len(pos))
        return np.take(rank, idx, out=idx, mode="clip")   # in place: every idx is a needed position

    patch = _cube_offsets(shape, 3)
    taps = tuple(rows(prev, want[:, None] + patch) for prev, want in zip(wanted, wanted[1:]))
    return TileLayout(wanted[0], taps, rows(wanted[-1], windows))


def tower_windows(net: IntNet, box, layout: TileLayout):
    """Integer tower outputs of the crops whose compact `layout` over the
    zero-padded occupancy array `box` is given (`tile_layout`), one row per
    anchor, each flattened window-major, column o*C + c for window position
    o (x-major) and channel c: the rows of the per-crop oracle
    (`tests/oracles.py`). Each layer runs as a row gather, a BLAS product and
    a requantize, every later layer at all its needed positions and the first
    only where its patch may hold an occupied cell. "May": the reach test
    shifts flat indices, which can wrap across the box's rows and mark a
    position whose patch is empty; computing that position gives the
    background, exactly."""
    box = np.asarray(box)
    if not net.layers:
        return np.take(box, layout.windows) * 2.0 ** (net.out_exp - net.in_exp)
    first, *rest = net.layers
    patch = _cube_offsets(box.shape, 3)
    reach = np.zeros(box.size, dtype=bool)
    near = (np.flatnonzero(box)[:, None] - patch).reshape(-1)
    reach[near[near >= 0]] = True
    hit = np.flatnonzero(reach[layout.first])
    x = np.empty((len(layout.first), len(first.w)))
    x[:] = net.backgrounds[1]
    step = _COLUMN_BUDGET // 27
    for lo in range(0, len(hit), step):
        sel = hit[lo:lo + step]
        acc = np.take(box, layout.first[sel][:, None] + patch) @ first.w.T
        acc += first.b
        x[sel] = first.requantize(acc)
    for layer, taps in zip(rest, layout.taps, strict=True):
        step = max(1, _COLUMN_BUDGET // layer.w.shape[1])
        out = np.empty((len(taps), len(layer.w)))
        for lo in range(0, len(taps), step):
            patches = np.take(x, taps[lo:lo + step].reshape(-1), axis=0)
            acc = np.matmul(patches.reshape(-1, layer.w.shape[1]), layer.w.T,
                            out=out[lo:lo + step])
            acc += layer.b
            layer.requantize(acc)
        x = out
    return np.take(x, layout.windows.reshape(-1), axis=0).reshape(len(layout.windows), -1)


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
    if batch_size < 1:
        raise ValueError(f"batch size {batch_size} is not at least 1")
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
# parameter groups, closed by the 64-bit hash (`hash64`) of everything before it.

MODEL_MAGIC = b"VCNM"
MODEL_VERSION = 2


def hash64(*pieces) -> int:
    """The first 8 bytes of SHA-256 of the bytes-like `pieces` joined, read as a
    little-endian u64: the hash that closes a model file and a bitstream header."""
    digest = hashlib.sha256()
    for piece in pieces:
        digest.update(piece)
    return int.from_bytes(digest.digest()[:8], "little")


def _model_pieces(kind: int, seed: int, meta: dict, groups):
    """A model file's bytes before its closing hash, as bytes-like pieces; each
    tensor is its "<f4" C-contiguous buffer (itself, when stored so)."""
    meta_bytes = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
    groups = list(groups)
    yield (MODEL_MAGIC + struct.pack("<BBQI", MODEL_VERSION, kind, seed & 0xFFFFFFFFFFFFFFFF,
                                     len(meta_bytes)) + meta_bytes + struct.pack("<H", len(groups)))
    for name, params in groups:
        nb, flat, n = name.encode("utf-8"), params.parameter_arrays(), len(params.layers)
        args = [v for layer in params.layers for v in (
            LAYER_KINDS[type(layer)], getattr(layer, "out_channels", getattr(layer, "out_dim", 0)))]
        yield struct.pack("<B", len(nb)) + nb + struct.pack(f"<H{'BI' * n}H", n, *args, len(flat))
        for t in flat:
            yield struct.pack(f"<B{t.ndim}I", t.ndim, *t.shape)
            yield np.ascontiguousarray(t, dtype="<f4")


def serialize_model(kind: int, seed: int, meta: dict, groups) -> bytes:
    """groups: iterable of (name, ModelParams). The pieces and their hash, joined once."""
    pieces = list(_model_pieces(kind, seed, meta, groups))
    return b"".join(pieces + [struct.pack("<Q", hash64(*pieces))])


def hash_model(kind: int, seed: int, meta: dict, groups) -> int:
    """`serialize_model`'s closing hash, from the weights as they are now, without the file."""
    return hash64(*_model_pieces(kind, seed, meta, groups))


def model_content_hash(blob: bytes) -> int:
    """The hash that closes a serialized model (`hash64` of the bytes before
    it), read from its trailer: what a bitstream header pins its model by."""
    return struct.unpack("<Q", blob[-8:])[0]


def deserialize_model(blob: bytes):
    """Inverse of serialize_model -> (kind, seed, meta, [(name, ModelParams), ...]).

    Raises ValueError for anything that is not a well-formed model file; the
    trailing hash is never parsed as data.
    """
    if len(blob) < 26 or blob[:4] != MODEL_MAGIC:
        raise ValueError("not a model file (bad magic)")
    if blob[4] != MODEL_VERSION:   # read first: older files close with another hash
        raise ValueError(f"unsupported model version {blob[4]}")
    if hash64(blob[:-8]) != model_content_hash(blob):
        raise ValueError("model file corrupt (content hash mismatch)")
    try:
        return _parse_model(blob[:-8])
    except struct.error as exc:
        raise ValueError(f"model file truncated or corrupt: {exc}") from exc


def _parse_model(blob: bytes):
    pos = 5   # past the magic and the version

    def take(fmt):
        """Unpack `fmt` at the read position and move past it."""
        nonlocal pos
        values = struct.unpack_from(fmt, blob, pos)
        pos += struct.calcsize(fmt)
        return values

    kind, seed, meta_len = take("<BQI")
    meta = json.loads(take(f"<{meta_len}s")[0].decode("utf-8"))
    groups = []
    for _ in range(take("<H")[0]):
        name = take(f"<{take('<B')[0]}s")[0].decode("utf-8")
        layers = []
        for _ in range(take("<H")[0]):
            lk, arg = take("<BI")
            if lk not in _KIND_TO_LAYER:
                raise ValueError(f"unknown layer kind {lk} in group {name!r}")
            layers.append(_KIND_TO_LAYER[lk](arg))
        flat = []
        for _ in range(take("<H")[0]):
            shape = take(f"<{take('<B')[0]}I")
            raw = take(f"<{4 * math.prod(shape)}s")[0]
            flat.append(np.frombuffer(raw, dtype="<f4").reshape(shape).copy())
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


def int_field(meta: dict, key: str, many=False):
    """Metadata entry `key` as an int, or with many=True a list of ints as a
    tuple; any other type, bool, float or str, is a ValueError naming it."""
    value = meta[key]
    items = value if many else [value]
    if not isinstance(items, list) or any(type(v) is not int for v in items):
        kind = "a list of integers" if many else "an integer"
        raise ValueError(f"model file has a malformed field: {key} = {value!r} is not {kind}")
    return tuple(items) if many else value
