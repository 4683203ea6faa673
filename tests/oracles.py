"""Oracles the tests hold the library to, bit for bit.

Per-crop integer inference, the oracle of the level pass: the library runs
its fixed-point networks (`nn.quantize_context_net`) only through the level
pass (`entropy.level_outputs`, `nn.tower_windows`), which computes each layer
once per tile. `infer` and the functions after it run the same integer layers
on a batch of per-node crops instead, each convolution as one im2col product
per layer.

The training kernel's patch layouts: `im2col` and `col2im` are the sliding
window transpose and the 27 slab adds that `nn._im2col` (one gather) and
`nn._col2im` (one ordered bincount per sample) replace.

The decoder's child expansion: `expand_children` builds each parent's eight
children as cells and sorts them by key, the form that
`octree._expand_children` (packed keys, one sort) replaces.

Quantization: `quantize_context_net` is the fixed-point copy as a pass per
step, the finiteness test, the peak, the scaling and the rounding each on
their own, both output bounds of every layer, and the head's columns
permuted after quantization, the form that `nn.quantize_context_net` (one
float64 copy per tensor, scaled and rounded in place) replaces.
"""

import math
from dataclasses import replace

import numpy as np

from voxelcodec import nn, octree, refine


def expand_children(cells, syms, k):
    """Occupied depth-(k+1) cells implied by depth-k symbols, sorted
    canonically: an (n, 8, 3) broadcast of the child cells, masked by the
    symbol bits, then an argsort of their keys."""
    sel = ((syms[:, None] >> np.arange(8, dtype=np.uint8)[None, :]) & 1).astype(bool)
    base = cells[:, None, :] * 2 + octree.CHILD_OFFSETS[None, :, :]
    kids = base[sel]
    order = np.argsort(octree.cell_keys(kids, k + 1))
    return kids[order]


def im2col(x):
    """(N, C, D, H, W) -> (N, P, C*27) patch matrix for a 3x3x3 valid conv."""
    n, c, d, h, w = x.shape
    win = np.lib.stride_tricks.sliding_window_view(x, (3, 3, 3), axis=(2, 3, 4))
    return np.ascontiguousarray(win.transpose(0, 2, 3, 4, 1, 5, 6, 7)).reshape(
        n, (d - 2) * (h - 2) * (w - 2), c * 27)


def col2im(dcols, in_shape):
    """Scatter-add patch gradients back onto the conv input."""
    n, c, d, h, w = in_shape
    do, ho, wo = d - 2, h - 2, w - 2
    dpatches = dcols.reshape(n, do, ho, wo, c, 3, 3, 3)
    dx = np.zeros(in_shape, dtype=np.float64)
    for a in range(3):
        for b in range(3):
            for e in range(3):
                dx[:, :, a:a + do, b:b + ho, e:e + wo] += dpatches[:, :, :, :, :, a, b, e].transpose(0, 4, 1, 2, 3)
    return dx


def infer(net, x):
    """Integer forward pass of an `nn.IntNet` on a batch whose entries hold
    integers at net.in_exp; returns integers at net.out_exp."""
    x = np.asarray(x, dtype=np.float64)
    if not net.layers:
        return x * 2.0 ** (net.out_exp - net.in_exp)
    for layer in net.layers:
        n = len(x)
        if layer.conv:
            do, ho, wo = (s - 2 for s in x.shape[2:])
            cols = nn._im2col(x).reshape(n * do * ho * wo, x.shape[1], 27).swapaxes(1, 2)
            x = layer.apply(cols.reshape(n * do * ho * wo, -1))   # tap-major, as layer.w
            x = x.reshape(n, do * ho * wo, -1).transpose(0, 2, 1).reshape(n, -1, do, ho, wo)
        else:
            x = layer.apply(x.reshape(n, -1))
    return x


def tower_rows(tower, crops):
    """(n, width) integer tower outputs of (n, M, M, M) crops, flattened
    window-major, as `nn.tower_windows` gives them and the head's first layer
    reads them (`nn.quantize_context_net`)."""
    return np.moveaxis(infer(tower, np.asarray(crops)[:, None]), 1, -1).reshape(len(crops), -1)


def forward(net, crop_sets, feats=None):
    """Integer head outputs (at exponent net.head.out_exp) of an
    `nn.IntContextNet` on per-node crops, one (n, M, M, M) batch per tower,
    then the node features."""
    flats = [tower_rows(tower, crops) for tower, crops in zip(net.towers, crop_sets)]
    if feats is not None:
        flats.append(net.features(feats))
    return infer(net.head, np.concatenate(flats, axis=1))


def refine_offsets(params, depth, crops):
    """(n, 3) offsets in leaf-cell-edge units, each component in (-0.5, 0.5),
    from the depth's integer refinement network on per-leaf crops."""
    net = params.integer_net(depth)
    return refine._bounded(net, forward(net, (crops,)))


def _quantized_weights(t):
    """(wq (out, K), float64 bias, e_w) of one layer's stored tensors; a
    convolution's columns tap-major, k = (a*9 + b*3 + e)*C + c."""
    w = np.moveaxis(t[0].astype(np.float64), 1, -1).reshape(len(t[0]), -1)
    b = t[1].astype(np.float64)
    if not (np.isfinite(w).all() and np.isfinite(b).all()):
        raise ValueError("network weights are not all finite")
    peak = float(np.abs(w).max(initial=0.0))
    e_w = nn.WEIGHT_BITS - math.frexp(peak)[1] if peak > 0 else 0
    return np.rint(w * 2.0 ** e_w), b, e_w


def _fixed_point(params, in_exp, bound, signed):
    """`nn._fixed_point` with every layer's bounds taken from both ends."""
    specs = []   # [wq, bq, input exponent, accumulator exponent, relu, conv]
    out_exp = in_exp if in_exp is not None else 0
    for i, layer in enumerate(params.layers):
        if not isinstance(layer, (nn.Conv3D, nn.FullyConnected)):
            continue
        wq, b, e_w = _quantized_weights(params.tensors[i])
        b_peak = float(np.abs(b).max(initial=0.0))
        if specs or in_exp is None:
            exp = nn._input_exponent(bound, wq.shape[1], b_peak, e_w)
        elif nn._fits(bound, in_exp, wq.shape[1], b_peak, e_w):
            exp = in_exp
        else:
            raise ValueError(f"layer {i} is too wide for exact integer inference")
        q = round(math.ldexp(bound, exp))
        bq = np.rint(b * 2.0 ** (e_w + exp))
        relu = i + 1 < len(params.layers) and isinstance(params.layers[i + 1], nn.ReLU)
        if signed:
            hi = np.abs(wq).sum(axis=1) * q + bq
            lo = bq - np.abs(wq).sum(axis=1) * q
        else:
            hi = np.maximum(wq, 0.0).sum(axis=1) * q + bq
            lo = np.minimum(wq, 0.0).sum(axis=1) * q + bq
        top = max(float(hi.max(initial=0.0)), 0.0 if relu else -float(lo.min(initial=0.0)))
        out_exp = e_w + exp
        bound, signed = math.ldexp(top, -out_exp), not relu
        specs.append([wq, bq, exp, out_exp, relu, isinstance(layer, nn.Conv3D)])
    layers = []
    for n, (wq, bq, _, acc_exp, relu, conv) in enumerate(specs):
        next_exp = specs[n + 1][2] if n + 1 < len(specs) else acc_exp
        layers.append(nn.IntLayer(wq, bq, 2.0 ** (next_exp - acc_exp), relu, conv))
    return nn.IntNet(tuple(layers), specs[0][2] if specs else out_exp, out_exp, bound, signed)


def quantize_context_net(branches, head, crop_sizes, feature_bound=0.0):
    """The fixed-point copy of a context net, its head's first-layer columns
    permuted window-major by one fancy index after quantization."""
    towers = [_fixed_point(tower, 0, 1.0, False) for tower in branches]
    qhead = _fixed_point(head, None, max([t.bound for t in towers] + [feature_bound]),
                         any(t.signed for t in towers))
    first = qhead.layers[0]
    order, lo = [], 0
    for tower, m in zip(towers, crop_sizes, strict=True):
        width, side = tower.width(m), m - 2 * len(tower.layers)
        order.append(lo + np.arange(width).reshape(-1, side ** 3).T.reshape(-1))
        lo += width
    order.append(np.arange(lo, first.w.shape[1]))
    first = replace(first, w=first.w[:, np.concatenate(order)])
    qhead = replace(qhead, layers=(first,) + qhead.layers[1:])
    return nn.IntContextNet(tuple(t.delivering(qhead.in_exp) for t in towers), qhead)
