import hashlib
import math

import numpy as np
import pytest

from voxelcodec import (AdaptiveContextModel, DynamicContextModel, UniformModel,
                        VoxelContextModel, build, build_node_dataset, entropy, load_entropy_model,
                        model_code_lengths, nn, normalize)
from voxelcodec.entropy import ALPHABET, LOG2_ALPHABET, make_level_context

from conftest import random_cloud, structured_cloud


class TestUniform:
    def test_always_uniform(self):
        m = UniformModel()
        tree = build(random_cloud(100, 0), 3)
        ctx = make_level_context(0, 3, tree.levels[0])
        p = m.level_probabilities(ctx)
        assert np.allclose(p, 1.0 / 255)

    def test_stream_entropy_log2_255(self):
        m = UniformModel()
        tree = build(random_cloud(400, 1), 5)
        lengths = model_code_lengths(m, tree)
        bps = lengths.sum() / len(lengths)
        assert bps == pytest.approx(LOG2_ALPHABET, abs=1e-12)
        assert bps == pytest.approx(7.994, abs=1e-3)

    def test_serialization_roundtrip(self):
        m = UniformModel()
        back = load_entropy_model(m.serialize())
        assert isinstance(back, UniformModel)
        assert back.content_hash() == m.content_hash()


def _q(cum):
    """Probabilities of an integer cumulative table: freq / total."""
    return np.diff(cum) / cum[-1]


class TestAdaptive:
    def test_fresh_context_uniform(self):
        m = AdaptiveContextModel(12)
        m.begin_stream()
        cum = m.table_for_id(7)
        assert cum[-1] == 255
        assert np.allclose(_q(cum), 1.0 / 255)

    def test_single_observation_count(self):
        m = AdaptiveContextModel(12)
        m.begin_stream()
        m.observe_id(3, 255)
        p = _q(m.table_for_id(3))
        assert p[254] == pytest.approx(2.0 / 256)
        assert p[0] == pytest.approx(1.0 / 256)

    def test_steady_state_near_empirical_entropy(self):
        # 90/10 skewed i.i.d. stream in one context: after 1e4 symbols the
        # adaptive code length tracks the empirical entropy within 5%
        rng = np.random.default_rng(0)
        n, burn = 30_000, 10_000
        symbols = np.where(rng.random(n) < 0.9, 7,
                           rng.integers(1, 256, n)).astype(np.int64)
        m = AdaptiveContextModel(8)
        m.begin_stream()
        bits = np.empty(n)
        for i, s in enumerate(symbols):
            bits[i] = -np.log2(_q(m.table_for_id(0))[s - 1])
            m.observe_id(0, int(s))
        tail = symbols[burn:]
        vals, counts = np.unique(tail, return_counts=True)
        freq = counts / len(tail)
        empirical = float(-(freq * np.log2(freq)).sum())
        coded = float(bits[burn:].mean())
        assert abs(coded - empirical) / empirical < 0.05

    def test_encoder_decoder_count_sync(self):
        # replaying the same observation sequence yields identical tables
        rng = np.random.default_rng(1)
        seq = [(int(rng.integers(0, 50)), int(rng.integers(1, 256))) for _ in range(2000)]
        a, b = AdaptiveContextModel(10), AdaptiveContextModel(10)
        a.begin_stream()
        b.begin_stream()
        for cid, s in seq:
            assert np.array_equal(a.table_for_id(cid), b.table_for_id(cid))
            a.observe_id(cid, s)
            b.observe_id(cid, s)
        assert set(a._tables) == set(b._tables)
        for cid in a._tables:
            assert np.array_equal(a._tables[cid], b._tables[cid])

    def test_context_bits_range(self):
        with pytest.raises(ValueError):
            AdaptiveContextModel(0)
        with pytest.raises(ValueError):
            AdaptiveContextModel(17)

    def test_serialization_roundtrip(self):
        m = AdaptiveContextModel(13)
        back = load_entropy_model(m.serialize())
        assert isinstance(back, AdaptiveContextModel)
        assert back.context_bits == 13
        assert back.content_hash() == m.content_hash()


class TestVoxelModel:
    def test_zero_head_uniform_everywhere(self):
        m = VoxelContextModel(crop_size=5, channels=(2, 4), hidden=16, seed=3)
        rng = np.random.default_rng(0)
        crops = (rng.random((10, 5, 5, 5)) < 0.5).astype(np.uint8)
        feats = rng.random((10, 4))
        p = m.predict((crops,), feats)
        assert np.allclose(p, 1.0 / ALPHABET, atol=1e-15)

    def test_distribution_valid(self):
        m = VoxelContextModel(crop_size=9, channels=(2, 4), hidden=16, seed=1)
        m.train(_tiny_dataset(seed=0, m=9), epochs=1, batch_size=16, lr=1e-3)
        rng = np.random.default_rng(5)
        crops = (rng.random((20, 9, 9, 9)) < 0.3).astype(np.uint8)
        p = m.predict((crops,), rng.random((20, 4)))
        assert np.all(p >= 0)
        assert np.abs(p.sum(axis=1) - 1).max() < 1e-9

    def test_prediction_reproducible(self):
        m = VoxelContextModel(crop_size=5, channels=(2, 4), hidden=16, seed=2)
        blob = m.serialize()
        m2 = VoxelContextModel.deserialize(blob)
        rng = np.random.default_rng(1)
        crops = (rng.random((8, 5, 5, 5)) < 0.4).astype(np.uint8)
        feats = rng.random((8, 4))
        assert np.array_equal(m.predict((crops,), feats), m2.predict((crops,), feats))
        assert m.content_hash() == m2.content_hash()

    def test_all_children_corpus_learns_255(self):
        # every node fully occupied: trained model must put mass on symbol 255
        dense = _dense_cloud()
        norm, _ = normalize(dense)
        tree = build(norm, 3)
        assert set(np.unique(np.concatenate(tree.symbols))) == {255}
        ds = build_node_dataset([tree], crop_size=5)
        m = VoxelContextModel(crop_size=5, channels=(2, 4), hidden=16, seed=0)
        m.train(ds, epochs=200, batch_size=32, lr=1e-2, seed=0)
        p = m.level_probabilities(make_level_context(1, 3, tree.levels[1]))
        assert np.all(p[:, 254] > 0.99)

    def test_epoch0_loss_exactly_ln255(self):
        ds = _tiny_dataset(seed=3, m=5, n=64)
        m = VoxelContextModel(crop_size=5, channels=(2, 4), hidden=16, seed=0)
        assert m.evaluate(ds) == math.log(255.0)

    def test_degenerate_all_255_fast_fit(self):
        ds = _tiny_dataset(seed=1, m=5, n=128)
        ds["symbols"] = np.full(128, 255, dtype=np.int64)
        m = VoxelContextModel(crop_size=5, channels=(2, 4), hidden=16, seed=0)
        curve = m.train(ds, epochs=200, batch_size=32, lr=1e-2, seed=0)
        assert curve[-1] < 0.05

    def test_crop_size_mismatch(self):
        m = VoxelContextModel(crop_size=9, channels=(2,), hidden=8, seed=0)
        with pytest.raises(ValueError):
            m.predict((np.zeros((2, 5, 5, 5), dtype=np.uint8),), np.zeros((2, 4)))

    def test_empty_dataset_rejected(self):
        m = VoxelContextModel(crop_size=5, channels=(2,), hidden=8, seed=0)
        empty = {"crops": np.zeros((0, 5, 5, 5), dtype=np.uint8),
                 "features": np.zeros((0, 4)), "symbols": np.zeros(0, dtype=np.int64)}
        with pytest.raises(ValueError):
            m.train(empty, epochs=1)


class TestDynamicModel:
    def test_zero_temporal_towers_ignore_temporal_crops(self):
        m = DynamicContextModel(crop_size=5, child_crop_size=6, channels=(2, 4),
                                hidden=16, seed=4)
        for tower in m.branches[1:]:
            for group in tower.tensors:
                for t in group:
                    t[:] = 0
        rng = np.random.default_rng(2)
        cur = (rng.random((6, 5, 5, 5)) < 0.4).astype(np.uint8)
        feats = rng.random((6, 4))
        zeros5 = np.zeros_like(cur)
        zeros6 = np.zeros((6, 6, 6, 6), dtype=np.uint8)
        rand5 = (rng.random((6, 5, 5, 5)) < 0.5).astype(np.uint8)
        rand6 = (rng.random((6, 6, 6, 6)) < 0.5).astype(np.uint8)
        a = m.predict((cur, zeros5, zeros5, zeros6), feats)
        b = m.predict((cur, rand5, rand5, rand6), feats)
        assert np.array_equal(a, b)

    def test_distribution_sums_to_one(self):
        m = DynamicContextModel(crop_size=5, child_crop_size=6, channels=(2, 4),
                                hidden=16, seed=0)
        # nudge away from the all-zero head so the check is non-trivial
        m.head.tensors[2][0][:] = np.random.default_rng(0).normal(
            0, 0.1, m.head.tensors[2][0].shape).astype(np.float32)
        rng = np.random.default_rng(1)
        crops = tuple((rng.random((7, s, s, s)) < 0.4).astype(np.uint8)
                      for s in (5, 5, 5, 6))
        p = m.predict(crops, rng.random((7, 4)))
        assert np.abs(p.sum(axis=1) - 1).max() < 1e-9

    def test_serialization_roundtrip(self):
        m = DynamicContextModel(crop_size=5, child_crop_size=6, channels=(2, 4),
                                hidden=16, seed=9)
        back = load_entropy_model(m.serialize())
        assert isinstance(back, DynamicContextModel)
        assert back.content_hash() == m.content_hash()
        rng = np.random.default_rng(0)
        crops = tuple((rng.random((4, s, s, s)) < 0.4).astype(np.uint8)
                      for s in (5, 5, 5, 6))
        feats = rng.random((4, 4))
        assert np.array_equal(m.predict(crops, feats), back.predict(crops, feats))


class TestTowerGeometry:
    """A model file whose towers cannot run on their crops is rejected at load."""

    def test_fully_connected_tower_rejected(self):
        kind, seed, meta, groups = nn.deserialize_model(
            VoxelContextModel(crop_size=5, channels=(2,), hidden=8, seed=0).serialize())
        fc = nn.init_params((nn.FullyConnected(18),), (125,), 0)
        groups = [(name, fc if name == "tower" else g) for name, g in groups]
        with pytest.raises(ValueError, match="Conv3D and ReLU"):
            load_entropy_model(nn.serialize_model(kind, seed, meta, groups))

    def test_tower_larger_than_crop_rejected(self):
        kind, seed, meta, groups = nn.deserialize_model(
            DynamicContextModel(crop_size=5, child_crop_size=6, channels=(2, 4), hidden=8,
                                seed=0).serialize())
        with pytest.raises(ValueError, match="too small"):
            load_entropy_model(nn.serialize_model(kind, seed, {**meta, "crop_size": 3}, groups))


class TestContentHash:
    """content_hash() must follow every change of the weights, in place or by
    assignment: nothing may cache it past a change."""

    @staticmethod
    def _uncached(model):
        digest = hashlib.sha256(model.serialize()[:-8]).digest()
        return int.from_bytes(digest[:8], "little")

    def test_hash_follows_in_place_training(self):
        m = VoxelContextModel(crop_size=5, channels=(2, 4), hidden=16, seed=5)
        before = m.content_hash()
        assert before == self._uncached(m)
        m.train(_tiny_dataset(seed=7, m=5, n=64), epochs=1, batch_size=32, lr=1e-2, seed=5)
        after = m.content_hash()
        assert after != before
        assert after == self._uncached(m)

    def test_hash_follows_branch_assignment(self):
        m = DynamicContextModel(crop_size=5, child_crop_size=6, channels=(2,), hidden=8, seed=0)
        before = m.content_hash()
        m.branches = DynamicContextModel(crop_size=5, child_crop_size=6, channels=(2,),
                                         hidden=8, seed=1).branches
        assert m.content_hash() != before
        assert m.content_hash() == self._uncached(m)


class TestTraining:
    def test_loss_curve_nonincreasing_structured_corpus(self):
        # 10k-node corpus, 20 epochs: the curve may jitter a little but not rise
        trees = []
        total = 0
        seed = 0
        while total < 10_000:
            norm, _ = normalize(structured_cloud(2500, seed=seed))
            tree = build(norm, 6)
            trees.append(tree)
            total += tree.symbol_count()
            seed += 1
        ds = build_node_dataset(trees, crop_size=5)
        m = VoxelContextModel(crop_size=5, channels=(2, 4), hidden=32, seed=0)
        curve = m.train(ds, epochs=20, batch_size=128, lr=1e-4, seed=0)
        assert len(curve) == 20
        for a, b in zip(curve, curve[1:]):
            assert b <= a * 1.05

    def test_training_deterministic(self):
        ds = _tiny_dataset(seed=7, m=5, n=256)
        runs = []
        for _ in range(2):
            m = VoxelContextModel(crop_size=5, channels=(2, 4), hidden=16, seed=5)
            m.train(ds, epochs=2, batch_size=32, lr=1e-3, seed=5)
            runs.append(m.serialize())
        assert runs[0] == runs[1]


class TestRateAccounting:
    def test_perfect_model_zero_bits(self):
        class Oracle(entropy.EntropyModel):
            kind_code = entropy.KIND_UNIFORM

            def __init__(self, tree):
                self.tree = tree

            def level_probabilities(self, ctx):
                syms = self.tree.symbols[ctx.depth].astype(np.int64)
                p = np.zeros((len(syms), ALPHABET))
                p[np.arange(len(syms)), syms - 1] = 1.0
                return p

        tree = build(random_cloud(200, 3), 4)
        bits = model_code_lengths(Oracle(tree), tree).sum()
        assert bits == 0.0

    def test_accounting_identity(self):
        tree = build(random_cloud(900, 4), 6)
        m = UniformModel()
        lengths = model_code_lengths(m, tree)
        assert len(lengths) == tree.symbol_count()
        assert abs(lengths.sum() - LOG2_ALPHABET * tree.symbol_count()) < 1e-9


def _tiny_dataset(seed, m=5, n=200):
    rng = np.random.default_rng(seed)
    return {"crops": (rng.random((n, m, m, m)) < 0.4).astype(np.uint8),
            "features": rng.random((n, 4)),
            "symbols": rng.integers(1, 256, n).astype(np.int64)}


def _dense_cloud():
    # all 64 cells of the depth-3 grid occupied via their centers at depth 3
    import itertools
    pts = [[(i + 0.5) / 8, (j + 0.5) / 8, (k + 0.5) / 8]
           for i, j, k in itertools.product(range(8), repeat=3)]
    from voxelcodec import PointCloud
    return PointCloud(pts)
