"""Per-crop integer inference: the oracle of the library's level pass.

The library runs its fixed-point networks (`nn.quantize_context_net`) only
through the level pass (`entropy.level_outputs`, `nn.tower_windows`), which
computes each layer once per tile. These functions run the same integer
layers on a batch of per-node crops instead, each convolution as one im2col
product per layer, so the tests can hold the level pass to them bit for bit.
"""

import numpy as np

from voxelcodec import nn, refine


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
