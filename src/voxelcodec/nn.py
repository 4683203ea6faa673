"""Deterministic neural kernel: 3D valid convolution, fully connected layers,
ReLU, reverse-mode gradients, Adam, Glorot init, the branch-generic context
net with its training loop, integer-exact inference, the level-wise tower
pass, and the "VCNM" model file.

Training runs in float64 with every reduction through np.einsum with
optimize=False, so its results are bit-identical regardless of BLAS
threading; parameters are stored float32. Initialization draws from a Philox
counter stream so seeds are portable.

Coding and refinement never run the float kernel. They quantize the stored
weights to a fixed-point copy of the network (`quantize_context_net`) whose
every operand is an integer held in float64 and whose every partial sum stays
below 2^53, so BLAS matrix products are exact in any summation order: on any
thread count and any CPU kernel, results agree bit for bit. `infer` runs it
on a batch of per-node crops (the oracle); `tower_windows` runs a conv tower
once over a zero-padded occupancy box and gathers each node's window, each
layer evaluated only where some node's window needs it and an occupied cell
is in reach (elsewhere its value on empty space is computed once).
`integer_tables` maps the integer logits to the coder's 16-bit frequency
tables in integer arithmetic through a table of 2^(-j/256), so no
transcendental function of the platform decides a coded bit; those tables are
the networks' only distribution, for coding and rate accounting alike.
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


def _im2col(x):
    """(N, C, D, H, W) -> (N, P, C*27) patch matrix for a 3x3x3 valid conv."""
    n, c, d, h, w = x.shape
    do, ho, wo = d - 2, h - 2, w - 2
    s = x.strides
    win = np.lib.stride_tricks.as_strided(
        x, (n, c, do, ho, wo, 3, 3, 3), (s[0], s[1], s[2], s[3], s[4], s[2], s[3], s[4]))
    return np.ascontiguousarray(win.transpose(0, 2, 3, 4, 1, 5, 6, 7)).reshape(n, do * ho * wo, c * 27)


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


def check_context_net(branches, head, crop_sizes, feature_dim, out_dim):
    """Raise ValueError unless each tower fits its crop (`tower_width`), the head
    maps the tower rows and `feature_dim` features to `out_dim` outputs, and
    every tensor has the shape its layer stack implies (`tensor_shapes`)."""
    width, stacks = feature_dim, []
    for i, (tower, m) in enumerate(zip(branches, crop_sizes)):
        width += tower_width(tower, m)
        stacks.append((f"tower {i}", tower, (1, m, m, m)))
    for name, params, input_shape in stacks + [("head", head, (width,))]:
        for j, (group, want) in enumerate(zip(params.tensors, tensor_shapes(params.layers, input_shape))):
            got = [t.shape for t in group]
            if got != want:
                raise ValueError(f"{name} layer {j} holds tensors of shapes {got}; "
                                 f"its layer stack implies {want}")
    out = layer_shapes(head.layers, (width,))[-1]
    if out != (out_dim,):
        raise ValueError(f"head output shape {out}; {out_dim} values expected")


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
    w: np.ndarray      # (out, K) integers; a convolution's columns in im2col's order
    b: np.ndarray      # (out,) integer bias at the accumulator exponent
    scale: float       # 2^(output exponent - accumulator exponent)
    relu: bool
    conv: bool

    @functools.cached_property
    def taps(self):
        """A convolution's w with its columns tap-major, k = (a*9 + b*3 + e)*C + c,
        the order in which `_conv_at` gathers channel-last patches."""
        return np.ascontiguousarray(
            self.w.reshape(len(self.w), -1, 27).transpose(0, 2, 1).reshape(len(self.w), -1))

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

    def delivering(self, exp):
        """The same net with its output requantized to exponent `exp`."""
        if not self.layers:
            return replace(self, out_exp=exp)
        last = self.layers[-1]
        last = replace(last, scale=last.scale * 2.0 ** (exp - self.out_exp))
        return replace(self, layers=self.layers[:-1] + (last,), out_exp=exp)


def _quantized_weights(t):
    """(wq (out, K), float64 bias, e_w) of one layer's stored tensors."""
    w = t[0].astype(F64).reshape(len(t[0]), -1)
    b = t[1].astype(F64)
    if not (np.isfinite(w).all() and np.isfinite(b).all()):
        raise ValueError("network weights are not all finite")
    peak = float(np.abs(w).max(initial=0.0))
    e_w = WEIGHT_BITS - math.frexp(peak)[1] if peak > 0 else 0
    return np.rint(w * 2.0 ** e_w), b, e_w


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


def _fixed_point(params: ModelParams, in_exp, bound, signed) -> IntNet:
    """Quantize a stack whose input has magnitude at most `bound`, and is
    nonnegative unless `signed`. The first layer reads integers at `in_exp`,
    or at the largest exponent it allows if that is None; the output stays at
    the last layer's accumulator exponent."""
    specs = []   # [wq, bq, input exponent, accumulator exponent, relu, conv]
    out_exp = in_exp if in_exp is not None else 0
    for i, layer in enumerate(params.layers):
        if not isinstance(layer, (Conv3D, FullyConnected)):
            continue
        wq, b, e_w = _quantized_weights(params.tensors[i])
        b_peak = float(np.abs(b).max(initial=0.0))
        if specs or in_exp is None:
            exp = _input_exponent(bound, wq.shape[1], b_peak, e_w)
        elif _fits(bound, in_exp, wq.shape[1], b_peak, e_w):
            exp = in_exp
        else:
            raise ValueError(f"layer {i} is too wide for exact integer inference")
        q = round(math.ldexp(bound, exp))
        bq = np.rint(b * 2.0 ** (e_w + exp))
        relu = i + 1 < len(params.layers) and isinstance(params.layers[i + 1], ReLU)
        if signed:
            hi = np.abs(wq).sum(axis=1) * q + bq
            lo = bq - np.abs(wq).sum(axis=1) * q
        else:
            hi = np.maximum(wq, 0.0).sum(axis=1) * q + bq
            lo = np.minimum(wq, 0.0).sum(axis=1) * q + bq
        top = max(float(hi.max(initial=0.0)), 0.0 if relu else -float(lo.min(initial=0.0)))
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

    def forward(self, crop_sets, feats=None):
        """Integer head outputs (at exponent head.out_exp) on per-node crops,
        one (n, M, M, M) batch per tower: the oracle of the level-wise pass."""
        flats = [infer(tower, np.asarray(crops)[:, None]).reshape(len(crops), -1)
                 for tower, crops in zip(self.towers, crop_sets)]
        if feats is not None:
            flats.append(self.features(feats))
        return infer(self.head, np.concatenate(flats, axis=1))


def quantize_context_net(branches, head, feature_bound=0.0) -> IntContextNet:
    """Fixed-point copy of a context net's stored weights. The head's input
    exponent follows from its fan-in and the largest bound among the tower
    outputs and the node features (`feature_bound`)."""
    towers = [_fixed_point(tower, 0, 1.0, False) for tower in branches]
    qhead = _fixed_point(head, None, max([t.bound for t in towers] + [feature_bound]),
                         any(t.signed for t in towers))
    return IntContextNet(tuple(t.delivering(qhead.in_exp) for t in towers), qhead)


def infer(net: IntNet, x):
    """Integer forward pass on a batch whose entries hold integers at
    net.in_exp; returns integers at net.out_exp."""
    x = np.asarray(x, dtype=F64)
    if not net.layers:
        return x * 2.0 ** (net.out_exp - net.in_exp)
    for layer in net.layers:
        n = len(x)
        if layer.conv:
            do, ho, wo = (s - 2 for s in x.shape[2:])
            acc = _im2col(x).reshape(n * do * ho * wo, -1) @ layer.w.T
        else:
            acc = x.reshape(n, -1) @ layer.w.T
        acc += layer.b
        x = layer.requantize(acc)
        if layer.conv:
            x = x.reshape(n, do * ho * wo, -1).transpose(0, 2, 1).reshape(n, -1, do, ho, wo)
    return x


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


def _exp2_index(z, exp):
    """Table index j = rint((max z - z) * log2(e) * 256), clipped, of integer
    logits z * 2^exp on the last axis: a correctly rounded multiply and rint."""
    z = np.asarray(z, dtype=F64)
    d = z.max(axis=-1, keepdims=True) - z
    d *= _LOG2E * 2.0 ** (8 - exp)
    np.rint(d, out=d)
    return np.minimum(d, 256 * _EXP2_OCTAVES - 1, out=d).astype(np.int64)


def integer_tables(z, exp):
    """(n, k) int64 coding frequencies, each >= 1 and each row totalling
    TABLE_TOTAL, from integer logits z * 2^exp, in integers from the index j
    of `_exp2_index` on: t = 2^16 * 2^(-j/256) by table and shift, and
    1 + ((t * M) >> 32) with one M = ((TABLE_TOTAL - k) << 32) // sum(t) per
    row (t * M < 2^48 in int64); the rest of the total goes to the row's
    largest logit (first of equals, j = 0). No float division or sort."""
    top = np.argmax(z, axis=1)
    j = _exp2_index(z, exp)
    n, k = j.shape
    t = _EXP2_UNITS[j & 255]
    np.right_shift(j, 8, out=j)
    np.right_shift(t, j, out=t)
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
# the nodes' windows need, by the integer kernel of `infer`, so every output
# equals the per-crop one exactly. A needed position whose receptive field
# holds no occupied cell sees only empty space; its output, the same at every
# such position, is computed once from a patch of the previous layer's
# empty-space value.

_COLUMN_BUDGET = 1 << 17   # patch-matrix entries per BLAS call


def _dilate(mask, w, step):
    """OR of `mask` shifted by step*d, d in [0, w), along each axis.

    step=+1 marks the union of the w^3 windows with lower corners in `mask`;
    step=-1 marks the positions whose w^3 window reaches into `mask`.
    """
    mask = mask.copy()
    for axis in range(3):
        span = 1   # mask holds the OR over shifts [0, span); doubling reaches w in log2(w) steps
        while span < w:
            d = min(span, w - span)
            near, far = [slice(None)] * 3, [slice(None)] * 3
            near[axis], far[axis] = slice(None, -d), slice(d, None)
            dst, src = (far, near) if step > 0 else (near, far)
            np.logical_or(mask[tuple(dst)], mask[tuple(src)], out=mask[tuple(dst)])
            span += d
    return mask


def _conv_at(x, layer: IntLayer, where, background):
    """Integer Conv3D of the channel-last (X, Y, Z, C) map x at the positions
    where `where` is set, requantized and ReLU'd as `layer` says.

    Output position q reads input q..q+2 and is stored at q of a map of the
    same box shape, so every layer shares the box's flat indices. Every other
    position gets the output of a patch of `background` (x's value per
    channel wherever its patch was not recomputed). Returns (output map, its
    background).
    """
    _, sy, sz, c = x.shape
    background = layer.requantize(np.repeat(background, 27)[None] @ layer.w.T + layer.b)[0]
    ar = np.arange(3)
    taps = (ar[:, None, None] * (sy * sz) + ar[:, None] * sz + ar).reshape(-1)
    flat = x.reshape(-1, c)
    out = np.tile(background, (where.size, 1))
    pos = np.flatnonzero(where)
    step = max(1, _COLUMN_BUDGET // (27 * c))
    for lo in range(0, len(pos), step):
        idx = pos[lo:lo + step]
        acc = np.take(flat, idx[:, None] + taps, axis=0).reshape(len(idx), -1) @ layer.taps.T
        acc += layer.b
        out[idx] = layer.requantize(acc)
    return out.reshape(where.shape + (len(layer.w),)), background


def tower_windows(net: IntNet, box, anchors, m):
    """Integer tower outputs of the m^3 crops box[a:a+m] for each anchor (crop
    corner) a.

    `box` is a zero-padded occupancy array containing every crop. Returns
    (n, width) rows, each flattened in (channel, x, y, z) order, equal to
    infer(net, crops) reshaped the same way. A layer is computed where some
    node's window needs it and its receptive field holds an occupied cell;
    elsewhere in the windows it equals the output on empty space, computed
    once.
    """
    net.width(m)   # layer and shape check up front
    anchors = np.asarray(anchors, dtype=np.int64).reshape(-1, 3)
    x = np.asarray(box, dtype=F64)[..., None]
    corners = np.zeros(x.shape[:3], dtype=bool)
    corners[anchors[:, 0], anchors[:, 1], anchors[:, 2]] = True
    reached = x[..., 0] != 0   # positions whose receptive field holds an occupied cell
    background = np.zeros(1)   # the map's value everywhere else
    w = m
    for layer in net.layers:
        w -= 2
        reached = _dilate(reached, 3, -1)
        x, background = _conv_at(x, layer, _dilate(corners, w, +1) & reached, background)
    s = x.strides
    win = np.lib.stride_tricks.as_strided(
        x, tuple(d - w + 1 for d in x.shape[:3]) + (w, w, w, x.shape[3]),
        s[:3] + s, writeable=False)
    rows = win[anchors[:, 0], anchors[:, 1], anchors[:, 2]].transpose(0, 4, 1, 2, 3)
    rows = rows.reshape(len(anchors), -1)
    if not net.layers:
        rows *= 2.0 ** (net.out_exp - net.in_exp)
    return rows


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
# parameter groups, closed by the 64-bit hash (`hash64`) of everything before it.

MODEL_MAGIC = b"VCNM"
MODEL_VERSION = 2


def hash64(data: bytes) -> int:
    """The first 8 bytes of SHA-256(data), read as a little-endian u64: the hash
    that closes a model file and a bitstream header."""
    return int.from_bytes(hashlib.sha256(data).digest()[:8], "little")


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
    out += struct.pack("<BBQ", MODEL_VERSION, kind, seed & 0xFFFFFFFFFFFFFFFF)
    meta_bytes = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
    out += struct.pack("<I", len(meta_bytes)) + meta_bytes
    groups = list(groups)
    out += struct.pack("<H", len(groups))
    for name, params in groups:
        out += _pack_group(name, params)
    out += struct.pack("<Q", hash64(out))
    return bytes(out)


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
