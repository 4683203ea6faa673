import numpy as np
import pytest

from voxelcodec import (PointCloud, RefineParams, UniformModel, build,
                        build_refine_dataset, chamfer, decode_cloud, encode_cloud,
                        normalize, reconstruct_centers, refine_apply, nn, train_refine)
from voxelcodec.voxelgrid import VoxelGrid, local_crops

from conftest import planar_cloud, random_cloud
from oracles import refine_offsets


def _offset_cloud(n, seed, depth, local=(0.9, 0.9, 0.9)):
    """Points all at the same local position inside their (distinct) leaf cells."""
    rng = np.random.default_rng(seed)
    size = 1 << depth
    cells = np.unique(rng.integers(0, size, (n, 3)), axis=0)
    pts = (cells + np.asarray(local)) / size
    return PointCloud(pts)


class TestOffsets:
    def test_zero_head_zero_offset(self):
        params = RefineParams(crop_size=5, channels=(2, 4), hidden=16, seed=0)
        params.add_depth(4)
        crop = (np.random.default_rng(0).random((5, 5, 5)) < 0.5).astype(np.uint8)
        assert np.all(refine_offsets(params, 4, crop[None])[0] == 0.0)

    def test_offsets_bounded(self):
        params = RefineParams(crop_size=5, channels=(2, 4), hidden=16, seed=1)
        tower, head = params.add_depth(3)
        rng = np.random.default_rng(2)
        head.tensors[2][0][:] = rng.normal(0, 50, head.tensors[2][0].shape).astype(np.float32)
        head.tensors[2][1][:] = rng.normal(0, 50, 3).astype(np.float32)
        crops = (rng.random((40, 5, 5, 5)) < 0.5).astype(np.uint8)
        off = refine_offsets(params, 3, crops)
        assert np.all(np.abs(off) < 0.5)

    def test_missing_depth_errors(self):
        params = RefineParams(crop_size=5, channels=(2,), hidden=8, seed=0)
        with pytest.raises(ValueError):
            refine_offsets(params, 6, np.zeros((1, 5, 5, 5), dtype=np.uint8))


class TestApply:
    def test_zero_init_identity_on_centers(self):
        cloud = random_cloud(300, seed=3, lo=2.0, hi=9.0)
        norm, np_params = normalize(cloud)
        tree = build(norm, 5)
        params = RefineParams(crop_size=5, channels=(2, 4), hidden=16, seed=0)
        params.add_depth(5)
        refined = refine_apply(tree, params, np_params)
        centers = reconstruct_centers(tree, np_params)
        assert np.allclose(refined.points, centers.points)
        assert len(refined) == len(centers)

    def test_refined_points_stay_in_cells(self):
        cloud = random_cloud(400, seed=4)
        norm, np_params = normalize(cloud)
        depth = 4
        tree = build(norm, depth)
        params = RefineParams(crop_size=5, channels=(2, 4), hidden=16, seed=5)
        tower, head = params.add_depth(depth)
        rng = np.random.default_rng(0)
        head.tensors[2][0][:] = rng.normal(0, 10, head.tensors[2][0].shape).astype(np.float32)
        refined = refine_apply(tree, params, np_params)
        cells = np.floor(np_params.apply(refined.points) * (1 << depth)).astype(np.int64)
        assert np.array_equal(cells, tree.levels[depth])


class TestTraining:
    def test_all_zero_targets_loss_stays_tiny(self):
        rng = np.random.default_rng(0)
        ds = {"crops": (rng.random((128, 5, 5, 5)) < 0.4).astype(np.uint8),
              "targets": np.zeros((128, 3))}
        params = RefineParams(crop_size=5, channels=(2, 4), hidden=16, seed=0)
        curve = train_refine(params, 4, ds, epochs=200, batch_size=32, lr=1e-3, seed=0)
        assert all(v < 1e-4 for v in curve)

    def test_epoch0_loss_is_mean_squared_target(self):
        rng = np.random.default_rng(1)
        targets = rng.uniform(-0.5, 0.5, (64, 3))
        ds = {"crops": (rng.random((64, 5, 5, 5)) < 0.4).astype(np.uint8),
              "targets": targets}
        params = RefineParams(crop_size=5, channels=(2, 4), hidden=16, seed=0)
        curve = train_refine(params, 4, ds, epochs=1, batch_size=64, lr=0.0, seed=0)
        assert curve[0] == pytest.approx(float((targets ** 2).sum(axis=1).mean()), rel=1e-12)

    def test_constant_target_regression(self):
        # every point at local (0.9, 0.9, 0.9): trained offset -> (0.4, 0.4, 0.4)
        depth = 5
        cloud = _offset_cloud(700, seed=2, depth=depth)
        ds = build_refine_dataset(cloud, depth, crop_size=5)
        assert np.abs(ds["targets"] - 0.4).max() < 1e-9
        params = RefineParams(crop_size=5, channels=(2, 4), hidden=16, seed=0)
        train_refine(params, depth, ds, epochs=60, batch_size=64, lr=1e-2, seed=0)
        grid = VoxelGrid(depth, ds["tree"].levels[depth])
        crops = local_crops(grid, ds["tree"].levels[depth], 5)
        off = refine_offsets(params, depth, crops)
        assert np.abs(off - 0.4).max() < 0.05

    def test_learnable_offsets_beat_epoch0(self):
        # targets perfectly predictable from the crop: loss must drop below 10%
        rng = np.random.default_rng(3)
        n = 512
        crops = np.zeros((n, 5, 5, 5), dtype=np.uint8)
        crops[:, 2, 2, 2] = 1
        flag = rng.integers(0, 2, n)
        crops[np.arange(n), 2 + 2 * (flag - 0), 2, 2] = 1   # neighbour above when flag=1
        targets = np.where(flag[:, None] == 1, 0.35, -0.35) * np.ones(3)
        ds = {"crops": crops, "targets": targets}
        params = RefineParams(crop_size=5, channels=(2, 4), hidden=16, seed=0)
        epoch0 = float((targets ** 2).sum(axis=1).mean())
        curve = train_refine(params, 4, ds, epochs=80, batch_size=64, lr=1e-2, seed=0)
        assert curve[-1] < 0.1 * epoch0

    def test_empty_dataset_rejected(self):
        params = RefineParams(crop_size=5, channels=(2,), hidden=8, seed=0)
        with pytest.raises(ValueError):
            train_refine(params, 3, {"crops": np.zeros((0, 5, 5, 5)),
                                     "targets": np.zeros((0, 3))}, epochs=1)


class TestEndToEnd:
    def test_planar_cloud_chamfer_improves(self):
        depth = 6
        train_cloud = planar_cloud(1500, seed=5, z=0.37)
        test_cloud = planar_cloud(900, seed=6, z=0.37)
        norm_train, _ = normalize(train_cloud)
        ds = build_refine_dataset(norm_train, depth, crop_size=5)
        params = RefineParams(crop_size=5, channels=(2, 4), hidden=16, seed=0)
        train_refine(params, depth, ds, epochs=40, batch_size=64, lr=1e-2, seed=0)

        norm_test, np_params = normalize(test_cloud)
        tree = build(norm_test, depth)
        before = chamfer(reconstruct_centers(tree, np_params), test_cloud)
        after = chamfer(refine_apply(tree, params, np_params), test_cloud)
        assert after <= before

    def test_decoder_only_bitstream_unchanged(self):
        cloud = random_cloud(250, seed=7)
        model = UniformModel()
        data = encode_cloud(cloud, 5, 5, model)
        params = RefineParams(crop_size=5, channels=(2, 4), hidden=16, seed=0)
        params.add_depth(5)
        plain = decode_cloud(data, model)
        refined = decode_cloud(data, model, refine_params=params)
        assert np.allclose(plain.points, refined.points)   # zero-init head
        assert encode_cloud(cloud, 5, 5, model) == data    # encode ignores refinement

    def test_serialization_roundtrip(self):
        params = RefineParams(crop_size=5, channels=(2, 4), hidden=16, seed=8)
        params.add_depth(4)
        params.add_depth(6)
        back = RefineParams.deserialize(params.serialize())
        assert sorted(back.entries) == [4, 6]
        assert back.serialize() == params.serialize()
        rng = np.random.default_rng(0)
        crops = (rng.random((5, 5, 5, 5)) < 0.5).astype(np.uint8)
        assert np.array_equal(refine_offsets(params, 6, crops),
                              refine_offsets(back, 6, crops))

    def test_tower_larger_than_crop_rejected(self):
        params = RefineParams(crop_size=5, channels=(2, 4), hidden=16, seed=8)
        params.add_depth(4)
        kind, seed, meta, groups = nn.deserialize_model(params.serialize())
        with pytest.raises(ValueError, match="too small"):
            RefineParams.deserialize(nn.serialize_model(kind, seed, {**meta, "crop_size": 3},
                                                        groups))
