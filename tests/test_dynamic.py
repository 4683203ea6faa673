import numpy as np
import pytest

from voxelcodec import (AdaptiveContextModel, DecodeError, DynamicContextModel,
                        PointCloud, RigidTransform, UniformModel,
                        VoxelContextModel, align_sequence, build,
                        build_sequence_dataset, decode_cloud, decode_sequence,
                        encode_cloud, encode_sequence, payload_size,
                        sequence_code_lengths)
from voxelcodec.coder import BitstreamHeader

from conftest import coder_bound_bits, moving_sequence, random_cloud, structured_cloud


def _tiny_dynamic(seed=0):
    return DynamicContextModel(crop_size=9, channels=(2, 4), hidden=16, seed=seed)


class TestAlign:
    def test_shared_cube(self):
        frames = moving_sequence(3, 300, seed=1)
        seq = align_sequence(frames)
        pts = np.concatenate([f.points for f in seq.frames])
        assert pts.min() >= 0 and pts.max() <= 1.0
        assert len(seq.poses) == 3

    def test_aligned_identical_frames(self):
        frames = moving_sequence(4, 250, seed=2)
        seq = align_sequence(frames)
        for f in seq.frames[1:]:
            assert np.abs(np.sort(f.points, axis=0) -
                          np.sort(seq.frames[0].points, axis=0)).max() < 1e-9

    def test_empty_sequence(self):
        with pytest.raises(ValueError):
            align_sequence([])


class TestRoundTrip:
    @pytest.mark.parametrize("model_factory", [
        UniformModel, lambda: AdaptiveContextModel(10), _tiny_dynamic])
    def test_three_frame_roundtrip(self, model_factory):
        frames = moving_sequence(3, 350, seed=3)
        model = model_factory()
        data = encode_sequence(frames, 5, 4, model)
        clouds, trees, header = decode_sequence(data, model, return_trees=True)
        seq = align_sequence(frames)
        assert len(clouds) == 3
        for t in range(3):
            ref = build(seq.frames[t], 5).truncate(4)
            for a, b in zip(ref.levels, trees[t].levels):
                assert np.array_equal(a, b)
            for a, b in zip(ref.symbols, trees[t].symbols):
                assert np.array_equal(a, b)

    def test_single_frame_matches_static_geometry(self):
        cloud = structured_cloud(300, seed=4)
        model = _tiny_dynamic()
        data = encode_sequence([cloud], 5, 5, model)
        seq_out = decode_sequence(data, model)[0]
        static = decode_cloud(encode_cloud(cloud, 5, 5, UniformModel()), UniformModel())
        assert np.allclose(np.sort(seq_out.points, axis=0),
                           np.sort(static.points, axis=0))

    def test_truncated_payload_raises(self):
        frames = moving_sequence(3, 300, seed=5)
        model = UniformModel()
        data = encode_sequence(frames, 5, 5, model)
        with pytest.raises(DecodeError):
            decode_sequence(data[:-30], model)

    def test_pose_restoration(self):
        frames = moving_sequence(3, 280, seed=6, step=0.08)
        model = UniformModel()
        data = encode_sequence(frames, 7, 7, model, store_poses=True)
        restored = decode_sequence(data, model, restore_poses=True)
        for t, frame in enumerate(frames):
            err = np.abs(np.sort(restored[t].points, axis=0) -
                         np.sort(frame.points, axis=0)).max()
            assert err < np.sqrt(3) * 2.0 ** -7 * 1.3 + 1e-6

    def test_restore_without_poses_raises(self):
        frames = moving_sequence(2, 200, seed=7)
        model = UniformModel()
        data = encode_sequence(frames, 4, 4, model)
        with pytest.raises(DecodeError):
            decode_sequence(data, model, restore_poses=True)

    def test_header_per_frame_counts(self):
        frames = [PointCloud(random_cloud(n, n).points) for n in (120, 230, 180)]
        data = encode_sequence(frames, 4, 4, UniformModel())
        header, _ = BitstreamHeader.unpack(data)
        assert header.frame_point_counts == [120, 230, 180]
        assert header.point_count == 530

    def test_zero_frame_header_rejected(self):
        # a validly hashed sequence header that lists no frames is refused
        frames = moving_sequence(2, 150, seed=7)
        model = UniformModel()
        data = encode_sequence(frames, 4, 4, model)
        header, pos = BitstreamHeader.unpack(data)
        header.frame_point_counts = []
        with pytest.raises(DecodeError, match="no frames"):
            decode_sequence(header.pack() + data[pos:], model)

    def test_frame_level_larger_than_its_point_count_raises(self):
        # each frame's levels are bounded by that frame's count, not the total
        frames = [PointCloud(random_cloud(n, n).points) for n in (120, 230, 180)]
        model = UniformModel()
        data = encode_sequence(frames, 7, 7, model)
        header, pos = BitstreamHeader.unpack(data)
        header.frame_point_counts[1] = 5
        with pytest.raises(DecodeError, match="frame 1 depth"):
            decode_sequence(header.pack() + data[pos:], model)

    def test_static_model_rejected(self):
        frames = moving_sequence(2, 100, seed=8)
        with pytest.raises(ValueError):
            encode_sequence(frames, 4, 4, VoxelContextModel(
                crop_size=5, channels=(2,), hidden=8, seed=0))


class TestScheduleProperties:
    def test_alignment_invariance_payload_identical(self):
        # shifting the shared coordinate system by one world offset leaves the
        # coded payload byte-identical (normalization absorbs the translation)
        frames = moving_sequence(3, 320, seed=9)
        model = UniformModel()
        data_a = encode_sequence(frames, 5, 5, model)
        delta = np.array([12.5, -3.0, 8.25])
        shifted = [PointCloud(f.points,
                              pose=RigidTransform(f.pose.rotation,
                                                  f.pose.translation + delta))
                   for f in frames]
        data_b = encode_sequence(shifted, 5, 5, model)
        pa = data_a[-payload_size(data_a):]
        pb = data_b[-payload_size(data_b):]
        assert pa == pb

    def test_determinism(self):
        frames = moving_sequence(3, 260, seed=10)
        model = _tiny_dynamic(seed=2)
        assert encode_sequence(frames, 5, 4, model) == encode_sequence(frames, 5, 4, model)

    def test_identical_frames_temporal_crops_informative(self):
        # for identical aligned frames, the previous frame's child crop center
        # block equals the node's true children occupancy
        frames = [structured_cloud(400, seed=11)] * 3
        seq = align_sequence(frames)
        ds = build_sequence_dataset(seq, 4, crop_size=9, child_crop_size=10)
        frame_of = _frame_index_per_row(seq, 4, 4)
        sel = frame_of >= 1     # frames with a previous neighbour
        child = ds["crops_child"][sel]
        syms = ds["symbols"][sel]
        center = child[:, 4:6, 4:6, 4:6].astype(np.int64)
        bits = (center[:, 1, 0, 0] << 4 | center[:, 0, 1, 0] << 2 | center[:, 0, 0, 1] << 1
                | center[:, 0, 0, 0] | center[:, 1, 1, 0] << 6 | center[:, 1, 0, 1] << 5
                | center[:, 0, 1, 1] << 3 | center[:, 1, 1, 1] << 7)
        assert np.array_equal(bits, syms)

    def test_sequence_code_lengths_consistent_with_payload(self):
        frames = moving_sequence(4, 300, seed=12)
        model = AdaptiveContextModel(10)
        seq = align_sequence(frames)
        lengths = sequence_code_lengths(model, seq, 5, 5)
        total_bits = sum(float(l.sum()) for l in lengths)
        data = encode_sequence(frames, 5, 5, model)
        assert 8 * payload_size(data) <= total_bits * 1.01 + 64 * 8
        assert 8 * payload_size(data) >= total_bits * 0.99 - 64 * 8
        assert 8 * payload_size(data) <= coder_bound_bits(np.concatenate(lengths))


class TestPairedModels:
    def test_zeroed_temporal_branches_match_embedded_static_payload(self):
        # a dynamic model whose temporal towers are all zero must code a
        # single-frame sequence exactly like the static model made of its
        # main tower plus the matching head column slices
        from voxelcodec import nn
        cloud = structured_cloud(400, seed=20)
        dyn = DynamicContextModel(crop_size=9, child_crop_size=10, channels=(2, 4),
                                  hidden=16, seed=5)
        rng = np.random.default_rng(1)
        dyn.head.tensors[2][0][:] = rng.normal(0, 0.1, dyn.head.tensors[2][0].shape)
        for tower in dyn.branches[1:]:
            for group in tower.tensors:
                for t in group:
                    t[:] = 0

        main_dim = int(np.prod(nn.layer_shapes(dyn.branches[0].layers, (1, 9, 9, 9))[-1]))
        static = VoxelContextModel(crop_size=9, channels=(2, 4), hidden=16, seed=5)
        static.branches[0] = dyn.branches[0]
        fc1_w = dyn.head.tensors[0][0]
        cols = np.concatenate([fc1_w[:, :main_dim], fc1_w[:, -4:]], axis=1)
        static.head = nn.ModelParams(
            static.head.layers,
            [[cols.copy(), dyn.head.tensors[0][1].copy()], [],
             [dyn.head.tensors[2][0].copy(), dyn.head.tensors[2][1].copy()]],
            seed=5)

        data_dyn = encode_sequence([cloud], 5, 5, dyn)
        data_static = encode_cloud(cloud, 5, 5, static)
        assert data_dyn[-payload_size(data_dyn):] == data_static[-payload_size(data_static):]

    def test_heldout_cross_entropy_dynamic_beats_static(self):
        # identical aligned frames: temporal copies carry the answer, so the
        # trained dynamic model generalizes below the static model's CE
        def make_seq(seed):
            f = structured_cloud(400, seed=seed)
            return align_sequence([PointCloud(f.points.copy()) for _ in range(5)])

        depth = 4
        train_seq, held_seq = make_seq(30), make_seq(31)
        static_train = __import__("voxelcodec").build_node_dataset(
            [build(f, depth) for f in train_seq.frames], crop_size=9)
        dyn_train = build_sequence_dataset(train_seq, depth, 9, 10)
        static_held = __import__("voxelcodec").build_node_dataset(
            [build(f, depth) for f in held_seq.frames], crop_size=9)
        dyn_held = build_sequence_dataset(held_seq, depth, 9, 10)

        static = VoxelContextModel(crop_size=9, channels=(2, 4), hidden=32, seed=3)
        dynamic = DynamicContextModel(crop_size=9, child_crop_size=10,
                                      channels=(2, 4), hidden=32, seed=3)
        static.train(static_train, epochs=6, batch_size=64, lr=1e-3, seed=3)
        dynamic.train(dyn_train, epochs=6, batch_size=64, lr=1e-3, seed=3)
        assert dynamic.evaluate(dyn_held) <= static.evaluate(static_held)


def _frame_index_per_row(seq, depth, trunc):
    """Frame id of each dataset row, following the k-major, t-minor schedule."""
    trees = [build(f, depth) for f in seq.frames]
    parts = []
    for k in range(trunc):
        for t in range(len(trees)):
            parts.append(np.full(len(trees[t].levels[k]), t))
    return np.concatenate(parts)


def test_boundary_frames_zero_crops():
    frames = [structured_cloud(200, seed=13)] * 2
    seq = align_sequence(frames)
    ds = build_sequence_dataset(seq, 3, crop_size=9)
    frame_of = _frame_index_per_row(seq, 3, 3)
    first, last = frame_of == 0, frame_of == 1
    assert ds["crops_prev"][first].sum() == 0      # first frame has no previous
    assert ds["crops_child"][first].sum() == 0
    assert ds["crops_next"][last].sum() == 0       # last frame has no next
    assert ds["crops_prev"][last].sum() > 0
