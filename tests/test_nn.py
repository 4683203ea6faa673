import hashlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from voxelcodec import (AdaptiveContextModel, DynamicContextModel, RefineParams,
                        UniformModel, VoxelContextModel, load_entropy_model, nn)
from voxelcodec.entropy import ALPHABET, FEATURE_DIM
from voxelcodec.nn import (AdamState, Conv3D, FullyConnected, ModelParams, ReLU,
                           adam_step, backward, forward, init_params, layer_shapes,
                           softmax_cross_entropy)

from conftest import (fd_check_params, malformed_model_files, to_float64,
                      unknown_layer_kind_model, _relu_masks)

MALFORMED = malformed_model_files()


class TestForward:
    def test_zero_weight_conv_gives_bias(self):
        params = init_params((Conv3D(2),), (1, 5, 5, 5), seed=0)
        params.tensors[0][0][:] = 0
        params.tensors[0][1][:] = [1.5, -2.0]
        out, _ = forward(params, np.random.default_rng(0).random((1, 1, 5, 5, 5)))
        assert np.allclose(out[0, 0], 1.5) and np.allclose(out[0, 1], -2.0)

    def test_unit_kernel_sums_to_27(self):
        params = init_params((Conv3D(1),), (1, 3, 3, 3), seed=0)
        params.tensors[0][0][:] = 1.0
        out, _ = forward(params, np.ones((1, 1, 3, 3, 3)))
        assert out.shape == (1, 1, 1, 1, 1)
        assert out[0, 0, 0, 0, 0] == 27.0

    def test_shape_algebra(self):
        convs = (Conv3D(4), ReLU(), Conv3D(8), ReLU(), Conv3D(16), ReLU())
        assert layer_shapes(convs, (1, 9, 9, 9))[-1] == (16, 3, 3, 3)
        assert layer_shapes(convs, (1, 10, 10, 10))[-1] == (16, 4, 4, 4)

    def test_shape_mismatch_rejected(self):
        params = init_params((Conv3D(2),), (1, 5, 5, 5), seed=0)
        with pytest.raises(ValueError):
            forward(params, np.ones((2, 5, 5, 5)))      # no batch axis
        with pytest.raises(ValueError):
            forward(params, np.ones((1, 2, 5, 5, 5)))   # two channels, the conv reads one
        with pytest.raises(ValueError):
            layer_shapes((Conv3D(2),), (1, 2, 2, 2))

    def test_batch_matches_loop(self):
        layers = (Conv3D(3), ReLU(), FullyConnected(7))
        params = init_params(layers, (1, 4, 4, 4), seed=5)
        x = np.random.default_rng(1).random((6, 1, 4, 4, 4))
        batch, _ = forward(params, x)
        singles = np.concatenate([forward(params, xi[None])[0] for xi in x])
        assert np.array_equal(batch, singles)

    def test_determinism_100_runs(self):
        layers = (Conv3D(4), ReLU(), FullyConnected(9))
        params = init_params(layers, (1, 5, 5, 5), seed=3)
        x = np.random.default_rng(2).random((1, 1, 5, 5, 5))
        ref = hashlib.sha256(forward(params, x)[0].tobytes()).hexdigest()
        for _ in range(100):
            assert hashlib.sha256(forward(params, x)[0].tobytes()).hexdigest() == ref


class TestSoftmaxCrossEntropy:
    def test_zero_logits_uniform(self):
        loss, probs = softmax_cross_entropy(np.zeros((1, 255)), [17])
        assert np.allclose(probs[0], 1.0 / 255, atol=1e-15)
        assert loss == math.log(255.0)    # exact: lse(0) = log(255)
        assert abs(loss - 5.541) < 1e-3

    def test_saturated_logit(self):
        z = np.zeros((1, 255))
        z[0, 42] = 1000.0
        loss, probs = softmax_cross_entropy(z, [42])
        assert loss < 1e-12
        assert probs[0, 42] > 0.999999

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            _, probs = softmax_cross_entropy(rng.normal(0, 5, (1, 255)), [int(rng.integers(255))])
            assert abs(probs[0].sum() - 1.0) < 1e-9

    def test_matches_high_precision_reference(self):
        import mpmath
        mpmath.mp.dps = 50
        rng = np.random.default_rng(4)
        z = rng.normal(0, 3, 255)
        t = 31
        loss, probs = softmax_cross_entropy(z[None], [t])
        exps = [mpmath.exp(mpmath.mpf(v)) for v in z]
        total = mpmath.fsum(exps)
        ref_probs = np.array([float(e / total) for e in exps])
        ref_loss = float(-mpmath.log(exps[t] / total))
        assert np.abs(probs[0] - ref_probs).max() < 1e-9
        assert abs(loss - ref_loss) < 1e-9

    def test_target_out_of_range(self):
        with pytest.raises(ValueError):
            softmax_cross_entropy(np.zeros((1, 255)), [255])


class TestBackward:
    def test_zero_upstream_zero_grads(self):
        layers = (Conv3D(3), ReLU(), FullyConnected(5))
        params = init_params(layers, (1, 4, 4, 4), seed=0)
        out, cache = forward(params, np.random.default_rng(0).random((1, 1, 4, 4, 4)))
        grads, gx = backward(params, cache, np.zeros_like(out))
        for group in grads:
            for g in group:
                assert np.all(g == 0)
        assert np.all(gx == 0)

    def test_fc_closed_form(self):
        # d loss / d w_ab = upstream_a * input_b
        params = init_params((FullyConnected(4),), (6,), seed=2)
        x = np.random.default_rng(1).random(6)
        up = np.random.default_rng(2).random(4)
        _, cache = forward(params, x[None])
        grads, gx = backward(params, cache, up[None])
        assert np.allclose(grads[0][0], np.outer(up, x))
        assert np.allclose(grads[0][1], up)
        assert np.allclose(gx[0], params.tensors[0][0].astype(np.float64).T @ up)

    @pytest.mark.parametrize("layers,in_shape", [
        ((Conv3D(2), ReLU(), Conv3D(3), ReLU(), FullyConnected(8), ReLU(), FullyConnected(5)),
         (1, 7, 7, 7)),
    ])
    def test_finite_difference_exhaustive_tiny(self, layers, in_shape):
        # every parameter of a tiny instantiation
        rng = np.random.default_rng(0)
        params64 = to_float64(init_params(layers, in_shape, seed=1))
        x = rng.standard_normal((2,) + in_shape)
        k = layer_shapes(layers, in_shape)[-1][0]
        targets = rng.integers(0, k, 2)

        def loss_fn(p):
            out, cache = forward(p, x)
            loss, _ = softmax_cross_entropy(out, targets)
            return loss, _relu_masks(cache, p.layers)

        out, cache = forward(params64, x)
        loss, probs = softmax_cross_entropy(out, targets)
        grads, _ = backward(params64, cache, nn.cross_entropy_grad(probs, targets))
        worst, checked, skipped = fd_check_params(
            params64, loss_fn, grads, rng, checks_per_tensor=10 ** 9)
        assert worst < 1e-4
        assert checked > 0.9 * (checked + skipped)


class TestPatchLayouts:
    """`nn._im2col` (one gather) and `nn._col2im` (an ordered bincount per
    sample) give the bits of the layouts they replace, `oracles.im2col` and
    `oracles.col2im`."""

    @given(st.integers(1, 3), st.integers(1, 4), st.tuples(*[st.integers(3, 7)] * 3),
           st.integers(0, 2 ** 32 - 1))
    @example(1, 1, (3, 3, 3), 0)
    @example(2, 3, (3, 6, 4), 1)
    @settings(max_examples=60, deadline=None)
    def test_bit_identical_to_the_slab_layouts(self, n, c, dhw, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, c) + dhw)
        cols = nn._im2col(x)
        assert cols.flags.c_contiguous
        want = oracles.im2col(x)
        assert cols.shape == want.shape and np.array_equal(cols.view(np.uint64), want.view(np.uint64))
        # magnitudes 16 octaves apart, so another summation order rounds otherwise
        shape = (n, math.prod(s - 2 for s in dhw), c * 27)
        dcols = rng.standard_normal(shape) * rng.choice([2.0 ** -16, 1.0, 2.0 ** 16], shape)
        dcols[rng.random(shape) < 0.1] = -0.0
        dx, want = nn._col2im(dcols, x.shape), oracles.col2im(dcols, x.shape)
        assert dx.shape == want.shape and np.array_equal(dx.view(np.uint64), want.view(np.uint64))

    def test_index_caches_do_not_grow_with_the_batch(self):
        rng = np.random.default_rng(0)
        nn._im2col(rng.random((1, 2, 4, 5, 3)))
        nn._col2im(rng.random((1, 6, 54)), (1, 2, 4, 5, 3))
        sizes = nn._patch_index.cache_info().currsize, nn._scatter_index.cache_info().currsize
        nn._im2col(rng.random((9, 2, 4, 5, 3)))
        nn._col2im(rng.random((9, 6, 54)), (9, 2, 4, 5, 3))
        assert (nn._patch_index.cache_info().currsize,
                nn._scatter_index.cache_info().currsize) == sizes


def _context_nets():
    """Narrow static, dynamic and refinement nets: (branches, head, crop sizes,
    feature width, output width)."""
    static = VoxelContextModel(crop_size=7, channels=(2, 3, 4), hidden=8, seed=3)
    dynamic = DynamicContextModel(crop_size=7, child_crop_size=6, channels=(2, 3), hidden=8,
                                  seed=4)
    refiner = RefineParams(crop_size=7, channels=(2, 3, 4), hidden=8, seed=5)
    tower, head = refiner.add_depth(4)
    return {"static": (static.branches, static.head, static.crop_sizes, FEATURE_DIM, ALPHABET),
            "dynamic": (dynamic.branches, dynamic.head, dynamic.crop_sizes, FEATURE_DIM,
                        ALPHABET),
            "refine": ([tower], head, (7,), 0, 3)}


@pytest.mark.parametrize("kind", ["static", "dynamic", "refine"])
def test_context_backward_skips_only_the_crop_gradients(kind, monkeypatch):
    """No tower's first convolution computes the gradient of its input (the
    crops), and the weight gradients are those of a full `backward`."""
    branches, head, crop_sizes, feature_dim, out_dim = _context_nets()[kind]
    rng = np.random.default_rng(7)
    last = head.tensors[-1][0]
    last[:] = rng.uniform(-0.5, 0.5, last.shape)   # the zeroed output layer would pass no gradient
    n = 5
    crop_sets = [(rng.random((n, m, m, m)) < 0.3).astype(np.uint8) for m in crop_sizes]
    feats = rng.random((n, feature_dim)) if feature_dim else None
    grad_out = rng.standard_normal((n, out_dim))
    caches = []
    nn.context_forward(branches, head, crop_sets, feats, caches)
    calls, col2im = [], nn._col2im
    monkeypatch.setattr(nn, "_col2im", lambda dcols, in_shape: calls.append(in_shape)
                        or col2im(dcols, in_shape))
    grads = nn.context_backward(branches, head, caches, grad_out)
    convs = [sum(isinstance(layer, Conv3D) for layer in t.layers) for t in branches]
    assert len(calls) == sum(max(k - 1, 0) for k in convs)
    assert not [s for s in calls if s[1:] in [(1, m, m, m) for m in crop_sizes]]

    head_grads, g = backward(head, caches[-1], grad_out)
    want, lo = [], 0
    for tower, (cache, shape), crops in zip(branches, caches[:-1], crop_sets):
        width = math.prod(shape[1:])
        if tower.layers:
            tower_grads, gx = backward(tower, cache, g[:, lo:lo + width].reshape(shape))
            assert gx.shape == (n, 1) + crops.shape[1:]
            want.append(tower_grads)
        else:
            want.append([])
        lo += width
    want.append(head_grads)
    assert any(np.any(t) for t in _flat(grads[:-1]))
    got, want = _flat(grads), _flat(want)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _flat(grads):
    return [t for group in grads for layer in group for t in layer]


class TestAdam:
    def _one_tensor_params(self, w):
        layers = (FullyConnected(len(w)),)
        p = ModelParams(layers, [[np.asarray(w, dtype=np.float32),
                                  np.zeros(len(w), dtype=np.float32)]], 0)
        return p

    def test_zero_gradient_no_change(self):
        p = self._one_tensor_params(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(2, 2))
        before = p.tensors[0][0].copy()
        state = AdamState.for_params(p)
        adam_step(p, [[np.zeros((2, 2)), np.zeros(2)]], state, lr=0.1)
        assert np.array_equal(p.tensors[0][0], before)

    def test_first_step_magnitude(self):
        p = self._one_tensor_params(np.zeros((3, 3)))
        state = AdamState.for_params(p)
        g = np.array([[1.0, -2.0, 0.5]] * 3)
        adam_step(p, [[g, np.zeros(3)]], state, lr=1e-2)
        # bias-corrected first step is ~ lr * sign(g)
        assert np.allclose(p.tensors[0][0], -1e-2 * np.sign(g), atol=1e-6)

    def test_quadratic_bowl_convergence(self):
        rng = np.random.default_rng(0)
        w = rng.standard_normal(16)
        w = w / np.linalg.norm(w)
        p = self._one_tensor_params(w.reshape(4, 4))
        state = AdamState.for_params(p)
        for _ in range(1000):
            w32 = p.tensors[0][0]
            adam_step(p, [[2.0 * w32.astype(np.float64), np.zeros(4)]], state, lr=1e-2)
        assert np.linalg.norm(p.tensors[0][0]) < 1e-3

    def test_shape_mismatch(self):
        p = self._one_tensor_params(np.zeros((2, 2)))
        state = AdamState.for_params(p)
        with pytest.raises(ValueError):
            adam_step(p, [[np.zeros((3, 3)), np.zeros(2)]], state, lr=0.1)


class TestFit:
    @pytest.mark.parametrize("batch_size", [0, -4])
    def test_batch_size_below_one_rejected(self, batch_size):
        """A batch size below 1 would take no step and report a loss of 0."""
        head = init_params((FullyConnected(3),), (2,), 0)
        with pytest.raises(ValueError, match="batch size"):
            nn.fit([], head, [], np.zeros((4, 2)), np.ones(4, dtype=np.int64), nn.symbol_loss,
                   1, batch_size, 1e-3, 0)


class TestInit:
    def test_same_seed_identical(self):
        layers = (Conv3D(4), ReLU(), FullyConnected(16))
        a = init_params(layers, (1, 5, 5, 5), seed=9)
        b = init_params(layers, (1, 5, 5, 5), seed=9)
        for ta, tb in zip(a.parameter_arrays(), b.parameter_arrays()):
            assert np.array_equal(ta, tb)

    def test_biases_zero(self):
        params = init_params((Conv3D(4), FullyConnected(8)), (1, 5, 5, 5), seed=1)
        assert np.all(params.tensors[0][1] == 0)
        assert np.all(params.tensors[1][1] == 0)

    def test_glorot_variance(self):
        params = init_params((FullyConnected(256),), (512,), seed=7)
        w = params.tensors[0][0].astype(np.float64)
        fan = 512 + 256
        expect = 2.0 / fan
        assert abs(w.var() - expect) / expect < 0.2

    def test_zero_final(self):
        layers = (Conv3D(3), ReLU(), FullyConnected(8), ReLU(), FullyConnected(4))
        params = init_params(layers, (1, 5, 5, 5), seed=0, zero_final=True)
        assert np.all(params.tensors[4][0] == 0)
        assert np.any(params.tensors[2][0] != 0)


class TestModelFile:
    def test_roundtrip(self):
        layers = (Conv3D(3), ReLU(), FullyConnected(8))
        params = init_params(layers, (1, 5, 5, 5), seed=4)
        blob = nn.serialize_model(2, 4, {"crop_size": 9}, [("tower", params)])
        kind, seed, meta, groups = nn.deserialize_model(blob)
        assert (kind, seed, meta) == (2, 4, {"crop_size": 9})
        name, back = groups[0]
        assert name == "tower"
        assert back.layers == params.layers
        for ta, tb in zip(params.parameter_arrays(), back.parameter_arrays()):
            assert np.array_equal(ta, tb)

    def test_corruption_detected(self):
        params = init_params((FullyConnected(4),), (3,), seed=0)
        blob = bytearray(nn.serialize_model(2, 0, {}, [("head", params)]))
        blob[len(blob) // 2] ^= 0xFF
        with pytest.raises(ValueError):
            nn.deserialize_model(bytes(blob))

    def test_bad_magic(self):
        with pytest.raises(ValueError):
            nn.deserialize_model(b"nope" + b"\x00" * 40)

    def test_unknown_layer_kind_rejected(self):
        # a well-formed file whose hash is valid but whose layer kind is not 0-2
        blob = unknown_layer_kind_model()
        assert nn.hash64(blob[:-8]) == nn.model_content_hash(blob)
        with pytest.raises(ValueError, match="unknown layer kind 9"):
            nn.deserialize_model(blob)

    @pytest.mark.parametrize("model", [
        UniformModel(), AdaptiveContextModel(12),
        VoxelContextModel(crop_size=5, channels=(2,), hidden=8, seed=3),
        DynamicContextModel(crop_size=5, child_crop_size=6, channels=(2,), hidden=8, seed=3)],
        ids=["uniform", "adaptive", "voxel-static", "voxel-dynamic"])
    def test_load_parses_the_file_once(self, model):
        # one hash check and one tensor copy per load, whatever the kind
        blob = model.serialize()
        with mock.patch.object(nn, "deserialize_model", wraps=nn.deserialize_model) as parse:
            back = load_entropy_model(blob)
        assert parse.call_count == 1
        assert type(back) is type(model) and back.serialize() == blob

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_file_is_value_error(self, case):
        # missing metadata, a missing group, a group count past the data, tensor or
        # head shapes that do not fit, or a version-1 file
        blob, option, message = MALFORMED[case]
        load = RefineParams.deserialize if option == "--refine" else load_entropy_model
        with pytest.raises(ValueError, match=message):
            load(blob)

    def test_hash64_known_answers(self):
        # the first 8 bytes of SHA-256, little-endian: e3b0c442... and ca978112...
        assert nn.hash64(b"") == 0x141CFC9842C4B0E3
        assert nn.hash64(b"a") == 0xCABD1BCA128197CA
