"""Integer-exact inference: the fixed-point network that coding and refinement run.

Every operand of its matrix products is an integer held in float64 and every
partial sum stays within 2^52, so BLAS must equal an int64 oracle at the
worst-case magnitudes of every fan-in the models use; the table of
2^(-j/256) must be correctly rounded; the integer model must code within 1% of
the float model's cross-entropy; and bitstreams and refined points must not
change when numpy's AVX-512 kernels and OpenBLAS's AVX-512 dgemm are switched
off.
"""

import hashlib
import math
import os
import subprocess
import sys
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voxelcodec import (DynamicContextModel, RefineParams, VoxelContextModel, build,
                        build_node_dataset, build_refine_dataset, encode_cloud,
                        model_code_lengths, nn, normalize, train_refine)

from conftest import structured_cloud
import oracles
from oracles import forward, infer

LN2 = math.log(2.0)
# conv fan-ins 27*c of the tower widths in use, then the head widths: the default
# (16, 32, 64)/9^3 static head (1,728 + 4 features) and the four-branch dynamic
# head (3 x 1,728 + 4,096 from the 10^3 child crop + 4)
FAN_INS = [27 * c for c in (1, 2, 4, 8, 16, 32, 64)] + [1732, 9284]


def _int64_oracle(x, w, b):
    return x.astype(np.int64) @ w.astype(np.int64).T + b.astype(np.int64)


@settings(max_examples=40, deadline=None)
@given(fan_in=st.sampled_from(FAN_INS), out=st.integers(1, 6), rows=st.integers(1, 12),
       conv=st.booleans(), seed=st.integers(0, 2**32 - 1),
       signs=st.sampled_from(["positive", "negative", "mixed"]))
def test_blas_equals_int64_at_worst_case_magnitudes(fan_in, out, rows, conv, seed, signs):
    """Every |wq| = 2^15 and every input at the largest bound the exponent rule
    admits for the fan-in, so same-sign partial sums reach 2^52."""
    rng = np.random.default_rng(seed)
    conv = conv and fan_in % 27 == 0
    sign = {"positive": 1.0, "negative": -1.0}.get(signs)
    w = np.full((out, fan_in), 2.0 ** nn.WEIGHT_BITS) * (
        sign if sign is not None else rng.choice([-1.0, 1.0], (out, fan_in)))
    q = (1 << nn.ACC_BITS) // (fan_in << nn.WEIGHT_BITS)
    x = np.full((rows, fan_in), float(q))
    b = np.zeros(out)
    net = nn.IntNet((nn.IntLayer(w, b, 1.0, False, conv),), 0, 0, float(q), True)
    if conv:   # a 3^3 crop of c channels: its one patch is the crop, read tap-major;
        # every input is q, so that order leaves the product as the oracle's
        got = infer(net, x.reshape(rows, fan_in // 27, 3, 3, 3)).reshape(rows, out)
    else:
        got = infer(net, x)
    expected = _int64_oracle(x, w, b)
    assert np.abs(expected).max() <= 1 << nn.ACC_BITS
    assert np.array_equal(got, expected.astype(np.float64))
    assert np.array_equal(got.astype(np.int64), expected)


@settings(max_examples=40, deadline=None)
@given(fan_in=st.sampled_from(FAN_INS), peak=st.floats(1e-6, 1e3), bias=st.floats(0, 1e3),
       bound=st.floats(1e-3, 1e6), seed=st.integers(0, 2**32 - 1))
def test_quantized_head_fits_its_fan_in(fan_in, peak, bias, bound, seed):
    """The exponents the library picks from the weights alone keep |wq| <= 2^15,
    the inputs within the fan-in's share of 2^52, and the result exact."""
    rng = np.random.default_rng(seed)
    w = (rng.uniform(-peak, peak, (3, fan_in))).astype(np.float32)
    b = rng.uniform(-bias, bias, 3).astype(np.float32)
    head = nn.ModelParams((nn.FullyConnected(3),), [[w, b]])
    net = nn.quantize_context_net([], head, (), feature_bound=bound).head
    layer = net.layers[0]
    assert np.abs(layer.w).max() <= 2 ** nn.WEIGHT_BITS
    assert layer.scale == 1.0 and net.out_exp >= net.in_exp
    q = np.rint(bound * 2.0 ** net.in_exp)
    assert (fan_in << nn.WEIGHT_BITS) * int(q) <= 1 << nn.ACC_BITS
    x = np.where(rng.random((4, fan_in)) < 0.5, q, np.rint(rng.uniform(0, q, (4, fan_in))))
    got = infer(net, x)
    assert np.array_equal(got, _int64_oracle(x, layer.w, layer.b).astype(np.float64))
    assert np.abs(got).max() <= net.bound * 2.0 ** net.out_exp


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), tower_relu=st.booleans())
def test_outputs_within_carried_bounds(seed, tower_relu):
    """The bounds carried through the stack hold for the tower rows and the head
    outputs, also when a tower ends without a ReLU (a model file may say so) and
    the head's inputs go negative."""
    rng = np.random.default_rng(seed)
    layers = (nn.Conv3D(3), nn.ReLU(), nn.Conv3D(2)) + ((nn.ReLU(),) if tower_relu else ())
    tower = nn.init_params(layers, (1, 5, 5, 5), 1)
    head = nn.init_params((nn.FullyConnected(8), nn.ReLU(), nn.FullyConnected(4)), (2,), 2)
    for group in tower.tensors + head.tensors:
        for t in group:
            t[...] = rng.normal(0.0, 0.5, t.shape).astype(np.float32)
    net = nn.quantize_context_net([tower], head, (5,))
    assert net.towers[0].signed == (not tower_relu)
    crops = rng.random((40, 5, 5, 5)) < rng.random((40, 1, 1, 1))
    crops[0], crops[1] = True, False
    rows = infer(net.towers[0], crops[:, None]).reshape(len(crops), -1)
    assert np.abs(rows).max() <= np.rint(net.towers[0].bound * 2.0 ** net.head.in_exp)
    z = infer(net.head, rows)
    assert np.abs(z).max() <= net.head.bound * 2.0 ** net.head.out_exp
    assert np.array_equal(z, forward(net, (crops,)))
    # a one-layer head at its worst-case inputs: every row at the input bound,
    # with the sign of its weights where the tower output may be negative
    fc = nn.init_params((nn.FullyConnected(4),), (2,), 3)
    for t in fc.tensors[0]:
        t[...] = rng.normal(0.0, 0.5, t.shape).astype(np.float32)
    net = nn.quantize_context_net([tower], fc, (5,))
    q = np.rint(net.towers[0].bound * 2.0 ** net.head.in_exp)
    w = net.head.layers[0].w
    worst = q * ((w > 0) if tower_relu else np.sign(w))
    z = infer(net.head, worst)
    assert np.abs(z).max() <= net.head.bound * 2.0 ** net.head.out_exp


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), crop_size=st.sampled_from([7, 9]),
       child_crop_size=st.sampled_from([4, 6]),
       channels=st.lists(st.integers(2, 3), min_size=1, max_size=2))
def test_integer_net_tracks_float_forward(seed, crop_size, child_crop_size, channels):
    """The integer net's outputs times 2^-out_exp track the float net
    (`nn.context_forward`) element by element, within a thousandth of the
    largest output, on a random four-branch dynamic model with crops of two
    sizes, tower windows wider than one cell, and node features. This guards
    the window-major column order of the head's first layer
    (`quantize_context_net`), which the level pass and its bit-equality
    oracle `oracles.forward` share, so their agreement cannot see it."""
    rng = np.random.default_rng(seed)
    model = DynamicContextModel(crop_size=crop_size, child_crop_size=child_crop_size,
                                channels=tuple(channels), hidden=8, seed=1)
    for params in model.branches + [model.head]:
        for group in params.tensors:
            for t in group:
                t[...] = rng.normal(0.0, 0.5, t.shape).astype(np.float32)
    assert all(nn.tower_width(t, m) > t.layers[-2].out_channels
               for t, m in zip(model.branches, model.crop_sizes))
    n = 30
    crops = [rng.random((n,) + (m,) * 3) < rng.random((n, 1, 1, 1)) for m in model.crop_sizes]
    feats = rng.random((n, 4))
    expected = nn.context_forward(model.branches, model.head, crops, feats)
    net = model.integer_net()
    got = forward(net, crops, feats) * 2.0 ** -net.head.out_exp
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-3 * np.abs(expected).max())


def test_quantization_rejects_non_finite_weights():
    head = nn.ModelParams((nn.FullyConnected(2),),
                          [[np.array([[1.0, np.inf]], dtype=np.float32).repeat(2, 0),
                            np.zeros(2, dtype=np.float32)]])
    with pytest.raises(ValueError, match="finite"):
        nn.quantize_context_net([], head, (), 1.0)
    # NaN, +inf and -inf, each in a conv-tower weight, a tower bias, a head
    # weight and a head bias: the finiteness test reads max and min only
    for value in (np.nan, np.inf, -np.inf):
        for group, index in (("tower", 0), ("tower", 1), ("head", 0), ("head", 1)):
            (tower,), head = nn.init_context_net((5,), (2, 3), 8, 4, seed=0)
            t = (tower if group == "tower" else head).tensors[0][index]
            t.reshape(-1)[t.size // 2] = value
            with pytest.raises(ValueError, match="finite"):
                nn.quantize_context_net([tower], head, (5,))


def _outcome(quantize, *args):
    """quantize(*args), or the type of the exception it raises."""
    try:
        return quantize(*args)
    except (ValueError, OverflowError) as exc:
        return type(exc)


def _assert_same_int_net(got, want):
    if isinstance(want, type):
        assert got is want
        return
    assert (got.in_exp, got.out_exp, got.bound, got.signed) == \
        (want.in_exp, want.out_exp, want.bound, want.signed)
    assert len(got.layers) == len(want.layers)
    for a, b in zip(got.layers, want.layers):
        assert (a.scale, a.relu, a.conv) == (b.scale, b.relu, b.conv)
        assert a.w.dtype == b.w.dtype == a.b.dtype == b.b.dtype == np.float64
        assert np.array_equal(a.w, b.w) and np.array_equal(a.b, b.b)


def _fill(params, rng, scales):
    """Draw every tensor of params at a scale from `scales`: 0 makes a
    zero-weight tensor, a negative scale one of a single sign."""
    for group in params.tensors:
        for t in group:
            scale = rng.choice(scales)
            values = rng.normal(0.0, abs(scale), t.shape)
            t[...] = -np.abs(values) if scale < 0 else values


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), relus=st.lists(st.booleans(), min_size=1, max_size=3),
       signed=st.booleans(), bound=st.sampled_from([0.0, 1.0, 3.5, 1e4]),
       in_exp=st.sampled_from([None, 0, 5]),
       scales=st.lists(st.sampled_from([0.0, 1e-3, 0.5, -0.5, 40.0]), min_size=1, max_size=3))
def test_fixed_point_equals_per_step_oracle(seed, relus, signed, bound, in_exp, scales):
    """`nn._fixed_point` (one float64 copy per tensor, scaled and rounded in
    place, the low bound only where no ReLU follows) gives every `IntLayer`
    and `IntNet` field of the per-step quantizer of `tests/oracles.py`, on
    fully connected stacks with and without ReLUs, signed and unsigned
    inputs, and zero-weight and single-sign layers."""
    rng = np.random.default_rng(seed)
    layers = ()
    for relu in relus:
        layers += (nn.FullyConnected(int(rng.integers(1, 6))),) + ((nn.ReLU(),) if relu else ())
    params = nn.init_params(layers, (int(rng.integers(1, 40)),), 0)
    _fill(params, rng, scales)
    _assert_same_int_net(_outcome(nn._fixed_point, params, in_exp, bound, signed),
                         _outcome(oracles._fixed_point, params, in_exp, bound, signed))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), crop_size=st.sampled_from([2, 3, 5, 7]),
       child_crop_size=st.sampled_from([4, 6]),
       channels=st.lists(st.integers(1, 3), min_size=1, max_size=3),
       scales=st.lists(st.sampled_from([0.0, 1e-3, 0.5, -0.5, 40.0]), min_size=1, max_size=3),
       feature_bound=st.sampled_from([0.0, 1.0]))
def test_quantize_context_net_equals_per_step_oracle(seed, crop_size, child_crop_size, channels,
                                                     scales, feature_bound):
    """`nn.quantize_context_net`, whose head columns are permuted as the
    weights are copied, gives every tower and head field of the oracle's,
    which permutes them after quantization: one- and four-branch nets, towers
    of several layers or none (a crop too small for one), zero-weight and
    single-sign layers."""
    rng = np.random.default_rng(seed)
    model = DynamicContextModel(crop_size=crop_size, child_crop_size=child_crop_size,
                                channels=tuple(channels), hidden=6, seed=1)
    for params in model.branches + [model.head]:
        _fill(params, rng, scales)
    for branches, crops in ((model.branches, model.crop_sizes),
                            (model.branches[:1], model.crop_sizes[:1])):
        head = model.head
        if len(branches) == 1:   # a head as wide as one tower's rows and the features
            width = nn.tower_width(branches[0], crops[0]) + 4
            head = nn.init_params(head.layers, (width,), 2)
            _fill(head, rng, scales)
        got = _outcome(nn.quantize_context_net, branches, head, crops, feature_bound)
        want = _outcome(oracles.quantize_context_net, branches, head, crops, feature_bound)
        if isinstance(want, type):
            assert got is want
            continue
        for a, b in zip(got.towers + (got.head,), want.towers + (want.head,), strict=True):
            _assert_same_int_net(a, b)


def test_exp2_shifted_table():
    """The one table `integer_tables` reads: every index j < 2^14 that
    `_exp2_index` returns holds 2^16 * 2^(-j/256) by table and shift."""
    j = np.arange(1 << 14)
    assert nn._EXP2_SHIFTED.shape == (1 << 14,) and nn._EXP2_SHIFTED.dtype == np.int64
    assert np.array_equal(nn._EXP2_SHIFTED, nn._EXP2_UNITS[j & 255] >> (j >> 8))
    z = np.array([[0.0, -1e30]])   # clipped at the table's last index
    assert nn._exp2_index(z, 0).max() == (1 << 14) - 1


def test_integer_exp2_table_is_correctly_rounded():
    """Each entry of the integer 2^(-j/256) table is the integer nearest
    2^16 * 2^(-j/256), and log2(e) is the float64 nearest it."""
    mpmath.mp.prec = 200
    table = nn._EXP2_UNITS
    assert table.shape == (256,) and table.dtype == np.int64 and table[0] == 1 << 16
    for j, value in enumerate(table):
        exact = mpmath.power(2, 16 - mpmath.mpf(j) / 256)
        assert abs(int(value) - exact) < mpmath.mpf(1) / 2, j
    assert nn._LOG2E == float(1 / mpmath.log(2))


def test_integer_tables_track_softmax():
    # the coded tables cost little against the softmax of the real logits:
    # KL(softmax || freq / 2^16) at most 0.006 bits on every row
    rng = np.random.default_rng(0)
    exp = 20
    z = np.rint(rng.normal(0, 4, (200, 255)) * 2.0 ** exp)
    q = nn.integer_tables(z, exp) / nn.TABLE_TOTAL
    real = z * 2.0 ** -exp
    ref = np.exp(real - real.max(axis=1, keepdims=True))
    ref /= ref.sum(axis=1, keepdims=True)
    kl = (ref * np.log2(ref / q)).sum(axis=1)
    assert kl.max() <= 0.006
    uniform = nn.integer_tables(np.zeros((3, 255)), exp)
    assert np.all(uniform[:, 0] == 258) and np.all(uniform[:, 1:] == 257)


def test_integer_tables_peak_memory_per_row():
    """`integer_tables` holds its table index j in int16: on 2,000 rows of 255
    logits its traced peak above entry stays under 3,500 bytes per row
    (2,592 measured with one lookup of the shifted table, 3,103 with the
    separate table read and shift; with an int64 index it was 6,128)."""
    z = np.rint(np.random.default_rng(0).normal(0, 4, (2000, 255)) * 2.0 ** 20)
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        nn.integer_tables(z, 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - entry) / len(z) < 3_500


def test_integer_rate_within_one_percent_of_float():
    """Rate gate on the acceptance-5 corpus: the coding path's cross-entropy
    (integer network, coded integer tables) against the float logits and
    softmax."""
    trees, total, seed = [], 0, 300
    while total < 10_000:
        norm, _ = normalize(structured_cloud(2600, seed=seed))
        trees.append(build(norm, 6))
        total += trees[-1].symbol_count()
        seed += 1
    model = VoxelContextModel(crop_size=9, channels=(4, 8, 16), hidden=256, seed=1)
    model.train(build_node_dataset(trees, crop_size=9), epochs=2, batch_size=64, lr=1e-3,
                seed=1)
    held_norm, _ = normalize(structured_cloud(2600, seed=555))
    held = build(held_norm, 6)
    float_bits = model.evaluate(build_node_dataset([held], crop_size=9)) / LN2
    integer_bits = float(model_code_lengths(model, held).mean())
    assert float_bits < 0.9 * math.log2(255)   # trained: the comparison is not trivial
    assert abs(integer_bits / float_bits - 1.0) <= 0.01


# ---------------------------------------------------------------------------
# the same bits with AVX-512 off: numpy's dispatch and OpenBLAS's kernel


def _avx512_dispatch_targets():
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:   # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    if not __cpu_features__.get("AVX512F"):
        return []
    return [t for t in __cpu_dispatch__ if t.startswith("AVX512") or t == "X86_V4"]


_KERNEL_SCRIPT = r"""
import hashlib, sys
import numpy as np
try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:
    from numpy.core._multiarray_umath import __cpu_features__
from voxelcodec import (PointCloud, RefineParams, decode_cloud, encode_cloud,
                        load_entropy_model)
model_path, refine_path, cloud_path, off = sys.argv[1:5]
print("disabled", all(not __cpu_features__[t] for t in off.split()) if off else None)
model = load_entropy_model(open(model_path, "rb").read())
refiner = RefineParams.deserialize(open(refine_path, "rb").read())
cloud = PointCloud(np.load(cloud_path))
data = encode_cloud(cloud, 6, 6, model)
print("bitstream", hashlib.sha256(data).hexdigest())
points = decode_cloud(data, model, refine_params=refiner).points
print("refined", hashlib.sha256(np.ascontiguousarray(points).tobytes()).hexdigest())
"""


def test_same_bits_without_avx512(tmp_path):
    targets = _avx512_dispatch_targets()
    if not targets:
        pytest.skip("the CPU has no AVX-512, or numpy dispatches no AVX-512 kernels")
    cloud = structured_cloud(1500, seed=81)
    norm, _ = normalize(cloud)
    model = VoxelContextModel(crop_size=5, channels=(2, 4), hidden=16, seed=3)
    model.train(build_node_dataset([build(norm, 6)], crop_size=5), epochs=2, batch_size=32,
                lr=1e-2, seed=5)
    refiner = RefineParams(crop_size=5, channels=(2, 4), hidden=16, seed=2)
    train_refine(refiner, 6, build_refine_dataset(norm, 6, crop_size=5), epochs=2,
                 batch_size=32, lr=1e-2, seed=7)
    paths = [tmp_path / "m.vcnm", tmp_path / "r.vcnm", tmp_path / "cloud.npy"]
    paths[0].write_bytes(model.serialize())
    paths[1].write_bytes(refiner.serialize())
    np.save(paths[2], cloud.points)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    outputs = []
    for off in ("", " ".join(targets)):
        env = {k: v for k, v in os.environ.items()
               if k not in ("NPY_DISABLE_CPU_FEATURES", "OPENBLAS_CORETYPE")}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        if off:
            env.update(NPY_DISABLE_CPU_FEATURES=off, OPENBLAS_CORETYPE="Haswell")
        proc = subprocess.run([sys.executable, "-c", _KERNEL_SCRIPT, *map(str, paths), off],
                              capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout.splitlines())
    default, no_avx512 = outputs
    assert default[0] == "disabled None" and no_avx512[0] == "disabled True"
    assert default[1:] == no_avx512[1:]
    assert default[1] == "bitstream " + hashlib.sha256(encode_cloud(cloud, 6, 6, model)).hexdigest()
