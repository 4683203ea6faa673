"""Benchmark workloads: seeded synthetic inputs, trained models and the codec
calls each workload times.

The generators follow `structured_cloud` and `moving_sequence` in
`tests/conftest.py`; they are copied here so that the benchmark's inputs do
not change when the tests do. The coded input is drawn from the workload
seed. Training corpora, subsamples and warm-up inputs come from fixed seeds,
so every workload seed codes with the same trained networks and the spread of
`bpp` across seeds reflects the inputs alone.
"""

from __future__ import annotations

import time

import numpy as np

from voxelcodec import coder, dynamic, entropy, refine
from voxelcodec.octree import build
from voxelcodec.pointcloud import PointCloud, RigidTransform, normalize

# Seeds of the training corpora and of the warm-up inputs.
CORPUS_SEED = 1000
WARMUP_SEED = 2000


def structured_cloud(n, seed, scale=1.0):
    """Axis-aligned planes plus sphere shells: highly structured, learnable geometry."""
    rng = np.random.default_rng(seed)
    parts = []
    n_plane = n // 2
    for axis, level in ((0, 0.2), (1, 0.55), (2, 0.8)):
        pts = rng.random((n_plane // 3, 3))
        pts[:, axis] = level + rng.normal(0, 0.004, len(pts))
        parts.append(pts)
    n_sphere = n - sum(len(p) for p in parts)
    for center, radius, m in (((0.35, 0.4, 0.5), 0.18, n_sphere // 2),
                              ((0.7, 0.65, 0.35), 0.12, n_sphere - n_sphere // 2)):
        u = rng.normal(size=(m, 3))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        parts.append(np.asarray(center) + radius * u)
    pts = np.clip(np.concatenate(parts), 0.0, 1.0) * scale
    return PointCloud(pts)


def moving_sequence(n_frames, n_points, seed, step=0.05):
    """Rigidly drifting copies of one cloud, each carrying the aligning pose."""
    base = structured_cloud(n_points, seed).points
    frames = []
    for t in range(n_frames):
        shift = np.array([step * t, -0.3 * step * t, 0.0])
        pose = RigidTransform(np.eye(3), -shift)   # maps the frame back onto base
        frames.append(PointCloud(base + shift, pose=pose))
    return frames


# Input sizes. "full" is what the benchmark measures; "smoke" runs every code
# path of every workload in seconds and exists for perfbench/test_smoke.py.
SIZES = {
    "full": {
        "static-adaptive": dict(points=12_000, depth=9, trunc=9, warmup_points=2_000),
        "static-voxel": dict(points=20_000, depth=7, trunc=5, warmup_points=2_000,
                             train_samples=256),
        "sequence-dynamic": dict(frames=5, points=500, depth=6, warmup_points=100,
                                 train_samples=512, refine_epochs=3),
    },
    "smoke": {
        "static-adaptive": dict(points=1_500, depth=6, trunc=6, warmup_points=200),
        "static-voxel": dict(points=1_500, depth=5, trunc=3, warmup_points=200,
                             train_samples=32),
        "sequence-dynamic": dict(frames=5, points=100, depth=4, warmup_points=50,
                                 train_samples=128, refine_epochs=1),
    },
}


class StaticCase:
    """One cloud coded with encode_cloud / decode_cloud."""

    def __init__(self, cloud, depth, trunc, model):
        self.cloud = cloud
        self.depth = depth
        self.trunc = trunc
        self.model = model
        self.points = len(cloud)

    def frames(self):
        """Input frames as (points, pose) pairs."""
        return [(self.cloud.points, None)]

    def encode(self) -> bytes:
        return coder.encode_cloud(self.cloud, self.depth, self.trunc, self.model)

    def decode(self, data):
        """-> (decoded clouds, decoded octrees, header)."""
        cloud, tree, header = coder.decode_cloud(data, self.model, return_tree=True)
        return [cloud], [tree], header

    def model_bits(self) -> float:
        """Sum of -log2 q over every coded symbol, from the model alone."""
        tree = build(normalize(self.cloud)[0], self.depth)
        return float(entropy.model_code_lengths(self.model, tree, self.trunc).sum())


class SequenceCase:
    """Pose-carrying frames coded with encode_sequence / decode_sequence."""

    def __init__(self, clouds, depth, trunc, model, refiner):
        self.clouds = clouds
        self.depth = depth
        self.trunc = trunc
        self.model = model
        self.refiner = refiner
        self.points = sum(len(c) for c in clouds)

    def frames(self):
        return [(f.points, f.pose) for f in self.clouds]

    def encode(self) -> bytes:
        return dynamic.encode_sequence(self.clouds, self.depth, self.trunc, self.model)

    def decode(self, data):
        return dynamic.decode_sequence(data, self.model, refine_params=self.refiner,
                                       return_trees=True)

    def model_bits(self) -> float:
        seq = dynamic.align_sequence(self.clouds)
        lengths = dynamic.sequence_code_lengths(self.model, seq, self.depth, self.trunc)
        return float(sum(part.sum() for part in lengths))


class Training:
    """Samples and wall time spent fitting networks during set-up."""

    def __init__(self):
        self.samples = 0
        self.seconds = 0.0

    def fit(self, fn, samples, **kwargs):
        """Call fn(**kwargs), a training loop over `samples` for kwargs['epochs'] epochs."""
        t0 = time.perf_counter()
        fn(**kwargs)
        self.seconds += time.perf_counter() - t0
        self.samples += samples * kwargs["epochs"]


def _subset(dataset, count, seed):
    n = len(dataset["symbols"])
    pick = np.sort(np.random.default_rng(seed).permutation(n)[:min(count, n)])
    return {k: v[pick] for k, v in dataset.items()}


def _warm(case):
    case.decode(case.encode())


def setup_static_adaptive(seed, size, training):
    warm = StaticCase(structured_cloud(size["warmup_points"], WARMUP_SEED),
                      size["depth"], size["trunc"], entropy.AdaptiveContextModel(16))
    _warm(warm)
    return StaticCase(structured_cloud(size["points"], seed), size["depth"], size["trunc"],
                      warm.model)


def setup_static_voxel(seed, size, training):
    depth, trunc = size["depth"], size["trunc"]
    model = entropy.VoxelContextModel(crop_size=9, channels=(16, 32, 64), hidden=256, seed=0)
    corpus = build(normalize(structured_cloud(size["points"], CORPUS_SEED))[0],
                   depth).truncate(trunc)
    data = _subset(entropy.build_node_dataset([corpus], crop_size=9),
                   size["train_samples"], CORPUS_SEED)
    training.fit(model.train, len(data["symbols"]), dataset=data, epochs=1, batch_size=32,
                 lr=1e-3, seed=CORPUS_SEED)
    _warm(StaticCase(structured_cloud(size["warmup_points"], WARMUP_SEED),
                     depth, max(1, trunc - 1), model))
    return StaticCase(structured_cloud(size["points"], seed), depth, trunc, model)


def setup_sequence_dynamic(seed, size, training):
    depth = size["depth"]
    model = entropy.DynamicContextModel(crop_size=9, child_crop_size=10, channels=(2, 4),
                                        hidden=16, seed=0)
    corpus = dynamic.align_sequence(
        moving_sequence(size["frames"], size["points"], CORPUS_SEED))
    data = _subset(dynamic.build_sequence_dataset(corpus, depth, crop_size=9,
                                                  child_crop_size=10),
                   size["train_samples"], CORPUS_SEED)
    training.fit(model.train, len(data["symbols"]), dataset=data, epochs=1, batch_size=64,
                 lr=1e-3, seed=CORPUS_SEED)
    refiner = refine.RefineParams(crop_size=9, channels=(2, 4), hidden=16, seed=0)
    leaves = refine.build_refine_dataset(corpus.frames[0], depth, crop_size=9)
    epochs = size["refine_epochs"]
    training.fit(refine.train_refine, len(leaves["crops"]), params=refiner, depth=depth,
                 dataset=leaves, epochs=epochs, batch_size=64, lr=1e-2, seed=CORPUS_SEED)
    _warm(SequenceCase(moving_sequence(2, size["warmup_points"], WARMUP_SEED),
                       depth, depth, model, refiner))
    return SequenceCase(moving_sequence(size["frames"], size["points"], seed),
                        depth, depth, model, refiner)


WORKLOADS = {
    "static-adaptive": setup_static_adaptive,
    "static-voxel": setup_static_voxel,
    "sequence-dynamic": setup_sequence_dynamic,
}
