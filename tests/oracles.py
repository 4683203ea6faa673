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
"""

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
