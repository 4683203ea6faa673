import hashlib
import math
from unittest import mock

import numpy as np
import pytest

from voxelcodec import (AdaptiveContextModel, DecodeError, DynamicContextModel, RefineParams,
                        UniformModel, VoxelContextModel, align_sequence, build,
                        build_node_dataset, build_refine_dataset, build_sequence_dataset, coder,
                        decode_cloud, decode_sequence, encode_cloud, encode_sequence, entropy,
                        load_entropy_model, model_code_lengths, nn, normalize, payload_size,
                        train_refine)
from voxelcodec.coder import RangeEncoder
from voxelcodec.entropy import ALPHABET, level_contexts, make_level_context

from conftest import (GivenContexts, contains, crop_tables, moving_sequence, random_cloud,
                      structured_cloud, uniform_code_lengths)

# the uniform model's one coded row, cumulative: [258, 257 x 254] out of 2^16
UNIFORM_CUM = np.concatenate([[0], np.cumsum([258] + [257] * 254)])


class TestUniform:
    def test_always_uniform(self):
        m = UniformModel()
        tree = build(random_cloud(100, 0), 3)
        ctx = make_level_context(2, 3, tree.levels[2])
        rows, update = m.stream()(ctx)
        rows = [np.asarray(row) for row in rows]
        assert update is None and len(rows) == len(ctx) > 1
        assert all(np.array_equal(row, UNIFORM_CUM) for row in rows)

    def test_stream_entropy_log2_255(self):
        m = UniformModel()
        tree = build(random_cloud(400, 1), 5)
        lengths = model_code_lengths(m, tree)
        assert np.array_equal(lengths, uniform_code_lengths(np.concatenate(tree.symbols)))
        bps = lengths.sum() / len(lengths)
        assert bps == pytest.approx(7.994, abs=1e-3)

    def test_serialization_roundtrip(self):
        m = UniformModel()
        back = load_entropy_model(m.serialize())
        assert isinstance(back, UniformModel)
        assert back.content_hash() == m.content_hash()


def _q(cum):
    """Probabilities of an integer cumulative table: freq / total."""
    return np.diff(cum) / cum[-1]


class TestLevelContext:
    @pytest.mark.parametrize("cloud", [random_cloud(3000, 5), structured_cloud(5000, 6)],
                             ids=["random", "structured"])
    def test_neighbor_bits_match_membership(self, cloud):
        # every level, faces of the grid included: bit b is the occupancy of
        # the cell's face neighbour b, looked up cell by cell
        norm, _ = normalize(cloud)
        tree = build(norm, 7)
        offsets = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
        for k, cells in enumerate(tree.levels):
            ctx = make_level_context(k, 7, cells)
            expected = sum(contains(ctx.grid, cells + off).astype(np.int64) << b
                           for b, off in enumerate(offsets))
            assert np.array_equal(ctx.neighbor_bits(), expected)
            on_face = ((cells == 0) | (cells == (1 << k) - 1)).any(axis=1)
            assert on_face.any()


class TestAdaptive:
    def test_fresh_context_uniform(self):
        (cum,), _ = GivenContexts(12).stream()([7])
        assert cum[-1] == 255
        assert np.allclose(_q(cum), 1.0 / 255)

    def test_single_observation_count(self):
        level_tables = GivenContexts(12).stream()
        (cum,), update = level_tables([3])
        update(cum, 255)
        p = _q(level_tables([3])[0][0])
        assert p[254] == pytest.approx(2.0 / 256)
        assert p[0] == pytest.approx(1.0 / 256)

    def test_steady_state_near_empirical_entropy(self):
        # 90/10 skewed i.i.d. stream in one context: after 1e4 symbols the
        # adaptive code length tracks the empirical entropy within 5%
        rng = np.random.default_rng(0)
        n, burn = 30_000, 10_000
        symbols = np.where(rng.random(n) < 0.9, 7,
                           rng.integers(1, 256, n)).astype(np.int64)
        bits = np.empty(n)
        rows, update = GivenContexts(8).stream()(np.zeros(n))
        for i, (cum, s) in enumerate(zip(rows, symbols.tolist())):
            bits[i] = -np.log2(_q(cum)[s - 1])
            update(cum, s)
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
        a, b = GivenContexts(10).stream(), GivenContexts(10).stream()
        cids = [cid for cid, _ in seq]
        (rows_a, update_a), (rows_b, update_b) = a(cids), b(cids)
        tables_a, tables_b = {}, {}   # each stream's context tables, as it made them
        for row_a, row_b, (cid, s) in zip(rows_a, rows_b, seq):
            assert np.array_equal(row_a, b([cid])[0][0])
            assert np.array_equal(row_a, row_b)
            tables_a[cid], tables_b[cid] = row_a, row_b
            update_a(row_a, s)
            update_b(row_b, s)
        assert set(tables_a) == set(tables_b)
        for cid in tables_a:
            assert np.array_equal(tables_a[cid], tables_b[cid])

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
        freq = crop_tables(m, (crops,), feats)
        assert np.all(freq == np.diff(UNIFORM_CUM))

    def test_distribution_valid(self):
        m = VoxelContextModel(crop_size=9, channels=(2, 4), hidden=16, seed=1)
        m.train(_tiny_dataset(seed=0, m=9), epochs=1, batch_size=16, lr=1e-3)
        rng = np.random.default_rng(5)
        crops = (rng.random((20, 9, 9, 9)) < 0.3).astype(np.uint8)
        freq = crop_tables(m, (crops,), rng.random((20, 4)))
        assert freq.shape == (20, ALPHABET) and freq.min() >= 1
        assert np.all(freq.sum(axis=1) == entropy.TOTAL_FREQ)

    def test_prediction_reproducible(self):
        m = VoxelContextModel(crop_size=5, channels=(2, 4), hidden=16, seed=2)
        blob = m.serialize()
        m2 = VoxelContextModel.deserialize(blob)
        rng = np.random.default_rng(1)
        crops = (rng.random((8, 5, 5, 5)) < 0.4).astype(np.uint8)
        feats = rng.random((8, 4))
        assert np.array_equal(crop_tables(m, (crops,), feats), crop_tables(m2, (crops,), feats))
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
        rows, _ = m.stream()(make_level_context(1, 3, tree.levels[1]))
        q = np.array([np.diff(row) / row[ALPHABET] for row in rows])
        assert len(q) == 8 and np.all(q[:, 254] > 0.99)

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
            crop_tables(m, (np.zeros((2, 5, 5, 5), dtype=np.uint8),), np.zeros((2, 4)))

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
        a = crop_tables(m, (cur, zeros5, zeros5, zeros6), feats)
        b = crop_tables(m, (cur, rand5, rand5, rand6), feats)
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
        freq = crop_tables(m, crops, rng.random((7, 4)))
        assert freq.min() >= 1 and np.all(freq.sum(axis=1) == entropy.TOTAL_FREQ)

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
        assert np.array_equal(crop_tables(m, crops, feats), crop_tables(back, crops, feats))


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


class TestStreamNet:
    """A context-net model quantizes its weights once per coded or decoded
    stream, and a refiner once per refined frame, and no integer net
    outlives its use: weights trained in place between two streams code, or
    refine, exactly as a freshly loaded copy of them."""

    DEPTH, TRUNC = 5, 4

    @staticmethod
    def _static():
        return VoxelContextModel(crop_size=5, channels=(2, 4), hidden=16, seed=0)

    @staticmethod
    def _dynamic():
        return DynamicContextModel(crop_size=5, child_crop_size=6, channels=(2, 4), hidden=16,
                                   seed=0)

    def _refiner(self):
        """A refiner for the decoded trees' depth, with a nonzero head, so
        refined points are not cell centers."""
        refiner = RefineParams(crop_size=5, channels=(2, 4), hidden=16, seed=0)
        _, head = refiner.add_depth(self.TRUNC)
        w = head.tensors[-1][0]
        w[...] = np.random.default_rng(0).normal(0.0, 0.2, w.shape)
        return refiner

    @staticmethod
    def _payload(data):
        return data[-payload_size(data):]

    def test_one_quantization_per_stream(self):
        d, trunc = self.DEPTH, self.TRUNC
        cloud, frames = structured_cloud(400, seed=11), moving_sequence(3, 300, seed=12)
        static, dynamic, refiner = self._static(), self._dynamic(), self._refiner()
        cloud_data = encode_cloud(cloud, d, trunc, static)
        seq_data = encode_sequence(frames, d, trunc, dynamic)
        five_data = encode_sequence(moving_sequence(5, 300, seed=12), d, trunc, dynamic)
        tree = build(normalize(cloud)[0], d)
        streams = {
            "encode_cloud": lambda: encode_cloud(cloud, d, trunc, static),
            "decode_cloud": lambda: decode_cloud(cloud_data, static),
            "model_code_lengths": lambda: model_code_lengths(static, tree, trunc),
            "encode_sequence": lambda: encode_sequence(frames, d, trunc, dynamic),
            "decode_sequence": lambda: decode_sequence(seq_data, dynamic),
            "decode_sequence refined": lambda: decode_sequence(five_data, dynamic, refiner),
        }
        calls = {}
        for name, stream in streams.items():
            with mock.patch.object(nn, "quantize_context_net",
                                   wraps=nn.quantize_context_net) as quantize:
                stream()
            calls[name] = quantize.call_count
        # each stream codes TRUNC levels per frame, one frame or three; the
        # refined decode quantizes the model once and the refiner once for
        # each of its five frames
        assert calls == {**dict.fromkeys(streams, 1), "decode_sequence refined": 1 + 5}

    def test_static_training_between_streams_takes_effect(self):
        d, trunc = self.DEPTH, self.TRUNC
        cloud = structured_cloud(400, seed=13)
        model = self._static()
        first = encode_cloud(cloud, d, trunc, model)
        model.train(build_node_dataset([build(normalize(cloud)[0], d)], crop_size=5),
                    epochs=2, batch_size=32, lr=1e-2, seed=0)
        second = encode_cloud(cloud, d, trunc, model)
        fresh = VoxelContextModel.deserialize(model.serialize())
        assert second == encode_cloud(cloud, d, trunc, fresh)
        assert self._payload(second) != self._payload(first)

    def test_dynamic_training_between_streams_takes_effect(self):
        d, trunc = self.DEPTH, self.TRUNC
        frames = moving_sequence(3, 300, seed=14)
        model = self._dynamic()
        first = encode_sequence(frames, d, trunc, model)
        model.train(build_sequence_dataset(align_sequence(frames), d, crop_size=5,
                                           child_crop_size=6),
                    epochs=2, batch_size=32, lr=1e-2, seed=0)
        second = encode_sequence(frames, d, trunc, model)
        fresh = DynamicContextModel.deserialize(model.serialize())
        assert second == encode_sequence(frames, d, trunc, fresh)
        assert self._payload(second) != self._payload(first)

    def test_refine_training_between_streams_takes_effect(self):
        d, trunc = self.DEPTH, self.TRUNC
        frames = moving_sequence(3, 300, seed=15)
        model, refiner = self._dynamic(), self._refiner()
        data = encode_sequence(frames, d, trunc, model)
        first = decode_sequence(data, model, refiner)
        train_refine(refiner, trunc, build_refine_dataset(normalize(frames[0])[0], trunc, 5),
                     epochs=2, batch_size=32, lr=1e-2, seed=0)
        second = decode_sequence(data, model, refiner)
        fresh = decode_sequence(data, model, RefineParams.deserialize(refiner.serialize()))
        assert all(np.array_equal(a.points, b.points) for a, b in zip(second, fresh))
        assert not all(np.array_equal(a.points, b.points) for a, b in zip(first, second))


class TestStreamState:
    """A model holds no stream state: each `stream()` builds its own tables
    and integer net, which end with the stream, however it ends."""

    DEPTH = 5

    def _case(self, kind):
        """(model, encode, decode) of one model kind: a cloud coded to DEPTH,
        or a 3-frame sequence for the dynamic model."""
        d = self.DEPTH
        if kind == "voxel-dynamic":
            frames = moving_sequence(3, 300, seed=32)
            model = DynamicContextModel(crop_size=5, child_crop_size=6, channels=(2, 4),
                                        hidden=16, seed=0)
            return model, lambda: encode_sequence(frames, d, d, model), decode_sequence
        cloud = structured_cloud(400, seed=31)
        model = {"uniform": UniformModel, "adaptive": lambda: AdaptiveContextModel(12),
                 "voxel-static": lambda: VoxelContextModel(crop_size=5, channels=(2, 4),
                                                           hidden=16, seed=0)}[kind]()
        return model, lambda: encode_cloud(cloud, d, d, model), decode_cloud

    @staticmethod
    def _same_state(obj, before):
        state = vars(obj)
        assert state.keys() == before.keys()
        assert all(state[k] is v for k, v in before.items())

    @pytest.mark.parametrize("kind", ["uniform", "adaptive", "voxel-static", "voxel-dynamic"])
    def test_streams_leave_the_model_as_it_was(self, kind):
        """An encode, a decode, a decode cut off mid-stream by DecodeError
        and a rate pass each leave every attribute of the model, and of a
        refiner, the same object."""
        d = self.DEPTH
        model, encode, decode = self._case(kind)
        refiner = RefineParams(crop_size=5, channels=(2, 4), hidden=16, seed=0)
        refiner.add_depth(d)
        data = encode()
        cut = data[:len(data) - payload_size(data) // 2]
        tree = build(normalize(structured_cloud(400, seed=35))[0], d)
        blobs = model.serialize(), refiner.serialize()
        before = [(obj, dict(vars(obj))) for obj in (model, refiner)]

        def truncated():
            with pytest.raises(DecodeError, match="payload exhausted"):
                decode(cut, model, refiner)

        for run in (encode, lambda: decode(data, model, refiner), truncated,
                    lambda: model_code_lengths(model, tree)):
            run()
            for obj, state in before:
                self._same_state(obj, state)
        assert (model.serialize(), refiner.serialize()) == blobs

    def test_interleaved_adaptive_streams_code_as_alone(self):
        """Two streams of one adaptive model, advanced level by level in
        alternation, code the payloads each codes alone, which are those of
        `encode_cloud`."""
        d, model = self.DEPTH, AdaptiveContextModel(12)
        clouds = [structured_cloud(400, seed=33), random_cloud(300, seed=34)]
        trees = [build(normalize(cloud)[0], d) for cloud in clouds]
        levels = [list(level_contexts([tree], d, d)) for tree in trees]
        alone = [encode_cloud(cloud, d, d, model) for cloud in clouds]
        alone = [data[-payload_size(data):] for data in alone]
        encoders = [RangeEncoder(), RangeEncoder()]
        streams = [model.stream(), model.stream()]
        for step in zip(*levels):
            for tree, (_, k, ctx), level_tables, enc in zip(trees, step, streams, encoders):
                coder._code_level(ctx, tree.symbols[k], level_tables, enc, decoding=False)
        assert [enc.finish() for enc in encoders] == alone
        assert alone[0] != alone[1]


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
    def test_perfect_model_costs_only_the_floor(self):
        # one-hot tables: every other symbol keeps its floor of 1, so each
        # symbol costs exactly log2(2^16 / (2^16 - 254)) bits
        class Oracle(entropy.EntropyModel):
            kind_code = entropy.KIND_UNIFORM

            def __init__(self, tree):
                self.tree = tree

            def stream(self):
                return self.level_tables

            def level_tables(self, ctx):
                syms = self.tree.symbols[ctx.depth].astype(np.int64)
                freq = np.ones((len(syms), ALPHABET), dtype=np.int64)
                freq[np.arange(len(syms)), syms - 1] = 2**16 - 254
                return entropy.table_rows(freq, len(syms))

        tree = build(random_cloud(200, 3), 4)
        lengths = model_code_lengths(Oracle(tree), tree)
        floor = -np.log2((2**16 - 254) / 2**16)
        assert len(lengths) == tree.symbol_count()
        assert np.all(lengths == floor)
        assert lengths.sum() == pytest.approx(tree.symbol_count() * floor, rel=1e-12)

    def test_accounting_identity(self):
        tree = build(random_cloud(900, 4), 6)
        m = UniformModel()
        lengths = model_code_lengths(m, tree)
        assert len(lengths) == tree.symbol_count()
        assert np.array_equal(lengths, uniform_code_lengths(np.concatenate(tree.symbols)))


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
