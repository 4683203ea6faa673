"""Golden values of fixed-seed training runs, one per network shape.

Each case trains a small network for a few epochs from fixed seeds and pins
the sha256 of its VCNM model file, of its per-epoch loss curve (float64
bytes), of its held-in evaluation and of what it produces: a bitstream for
the entropy models, the refined points for the refiner. More cases pin a
uniform-model bitstream, whose level tables come from one shared row;
adaptive static and sequence bitstreams, coded node by node; the refined,
pose-restored points of a decoded sequence; and code lengths and training
features at a truncation depth below the tree depth, whose node features
divide by the untruncated depth. The "wide" cases run three-conv towers on
9^3 crops (and 10^3 child crops) over levels that span several tiles of
the level-wise tower pass, and the "deep" case codes and refines a depth-11
cloud whose levels 10 and 11 span 2^10 and 2^11 cells a side; their models
are trained, since a fresh model's zeroed head predicts uniformly whatever
its towers compute. A change to the shared context net, the training loop, the
level schedule, the tower pass or the coder that alters a single bit of
any of these fails here. Coding, code lengths and refinement run the
integer-exact network, training and evaluation the float one. The values
were recorded with numpy 2.4 on x86-64 Linux; the bitstreams are of wire
version 3.
"""

import hashlib

import numpy as np
import pytest

from voxelcodec import (AdaptiveContextModel, DynamicContextModel, RefineParams, UniformModel,
                        VoxelContextModel, align_sequence, build, build_node_dataset,
                        build_refine_dataset, build_sequence_dataset, decode_cloud,
                        decode_sequence, encode_cloud, encode_sequence, model_code_lengths, normalize,
                        refine_apply, sequence_code_lengths, train_refine)

from conftest import moving_sequence, structured_cloud


def _sha(data) -> str:
    if not isinstance(data, bytes):
        data = np.ascontiguousarray(data, dtype=np.float64).tobytes()
    return hashlib.sha256(data).hexdigest()


def static_run(crop_size):
    cloud = structured_cloud(600, seed=71)
    norm, _ = normalize(cloud)
    ds = build_node_dataset([build(norm, 5)], crop_size=crop_size)
    model = VoxelContextModel(crop_size=crop_size, channels=(2, 4), hidden=16, seed=3)
    curve = model.train(ds, epochs=3, batch_size=32, lr=1e-2, seed=5)
    return {"model": _sha(model.serialize()), "curve": _sha(curve),
            "evaluate": _sha([model.evaluate(ds)]),
            "bitstream": _sha(encode_cloud(cloud, 5, 5, model))}


def dynamic_run():
    frames = moving_sequence(3, 200, seed=72)
    ds = build_sequence_dataset(align_sequence(frames), 4, crop_size=5, child_crop_size=6)
    model = DynamicContextModel(crop_size=5, child_crop_size=6, channels=(2, 4),
                                hidden=16, seed=4)
    curve = model.train(ds, epochs=2, batch_size=32, lr=1e-2, seed=6)
    return {"model": _sha(model.serialize()), "curve": _sha(curve),
            "evaluate": _sha([model.evaluate(ds)]),
            "bitstream": _sha(encode_sequence(frames, 4, 4, model))}


def refine_run():
    norm, params = normalize(structured_cloud(500, seed=73))
    ds = build_refine_dataset(norm, 5, crop_size=5)
    refiner = RefineParams(crop_size=5, channels=(2, 4), hidden=16, seed=2)
    curve = train_refine(refiner, 5, ds, epochs=3, batch_size=32, lr=1e-2, seed=7)
    return {"model": _sha(refiner.serialize()), "curve": _sha(curve),
            "points": _sha(refine_apply(ds["tree"], refiner, params).points)}


def uniform_run():
    return {"bitstream": _sha(encode_cloud(structured_cloud(600, seed=71), 6, 6, UniformModel()))}


def adaptive_run():
    cloud = structured_cloud(600, seed=71)
    frames = moving_sequence(3, 200, seed=72)
    return {"static": _sha(encode_cloud(cloud, 6, 4, AdaptiveContextModel(12))),
            "sequence": _sha(encode_sequence(frames, 5, 3, AdaptiveContextModel(10)))}


def sequence_decode_run():
    frames = moving_sequence(3, 200, seed=72)
    refiner = RefineParams(crop_size=5, channels=(2, 4), hidden=16, seed=2)
    ds = build_refine_dataset(align_sequence(frames).frames[0], 4, crop_size=5)
    train_refine(refiner, 4, ds, epochs=2, batch_size=32, lr=1e-2, seed=7)
    model = AdaptiveContextModel(10)
    data = encode_sequence(frames, 6, 4, model, store_poses=True)
    clouds = decode_sequence(data, model, refine_params=refiner, restore_poses=True)
    return {"points": _sha(np.concatenate([c.points for c in clouds]))}


def truncated_lengths_run():
    norm, _ = normalize(structured_cloud(600, seed=71))
    tree = build(norm, 5)
    static = VoxelContextModel(crop_size=5, channels=(2, 4), hidden=16, seed=3)
    static.train(build_node_dataset([tree], crop_size=5), epochs=2, batch_size=32, lr=1e-2,
                 seed=5)
    seq = align_sequence(moving_sequence(3, 200, seed=72))
    ds = build_sequence_dataset(seq, 5, crop_size=5, child_crop_size=6, trunc_depth=3)
    dynamic = DynamicContextModel(crop_size=5, child_crop_size=6, channels=(2, 4), hidden=16,
                                  seed=4)
    dynamic.train(ds, epochs=2, batch_size=32, lr=1e-2, seed=6)
    return {"static": _sha(model_code_lengths(static, tree, 3)),
            "static-bitstream": _sha(encode_cloud(structured_cloud(600, seed=71), 5, 3, static)),
            "dataset": _sha(ds["features"]),
            "dynamic": _sha(np.concatenate(sequence_code_lengths(dynamic, seq, 5, 3))),
            "dynamic-bitstream": _sha(encode_sequence(seq, 5, 3, dynamic))}


WIDE = (2, 4, 8)


def static_wide_run():
    cloud = structured_cloud(1500, seed=74)
    norm, _ = normalize(cloud)
    ds = build_node_dataset([build(norm, 6)], crop_size=9)
    model = VoxelContextModel(crop_size=9, channels=WIDE, hidden=16, seed=3)
    curve = model.train(ds, epochs=2, batch_size=64, lr=1e-2, seed=5)
    data = encode_cloud(cloud, 7, 7, model)
    return {"model": _sha(model.serialize()), "curve": _sha(curve),
            "bitstream": _sha(data), "decoded": _sha(decode_cloud(data, model).points)}


def dynamic_wide_run():
    frames = moving_sequence(3, 300, seed=75)
    ds = build_sequence_dataset(align_sequence(frames), 5, crop_size=9, child_crop_size=10)
    model = DynamicContextModel(crop_size=9, child_crop_size=10, channels=WIDE, hidden=16,
                                seed=4)
    curve = model.train(ds, epochs=2, batch_size=64, lr=1e-2, seed=6)
    data = encode_sequence(frames, 6, 6, model)
    clouds = decode_sequence(data, model)
    return {"model": _sha(model.serialize()), "curve": _sha(curve), "bitstream": _sha(data),
            "decoded": _sha(np.concatenate([c.points for c in clouds]))}


def refine_wide_run():
    norm, params = normalize(structured_cloud(1500, seed=76))
    ds = build_refine_dataset(norm, 7, crop_size=9)
    refiner = RefineParams(crop_size=9, channels=WIDE, hidden=16, seed=2)
    curve = train_refine(refiner, 7, ds, epochs=2, batch_size=64, lr=1e-2, seed=7)
    return {"model": _sha(refiner.serialize()), "curve": _sha(curve),
            "points": _sha(refine_apply(ds["tree"], refiner, params).points)}


def deep_run():
    cloud = structured_cloud(300, seed=77)
    norm, _ = normalize(cloud)
    tree = build(norm, 11)
    model = VoxelContextModel(crop_size=9, channels=WIDE, hidden=16, seed=3)
    curve = model.train(build_node_dataset([tree], crop_size=9), epochs=2, batch_size=64,
                        lr=1e-2, seed=5)
    refiner = RefineParams(crop_size=9, channels=WIDE, hidden=16, seed=2)
    train_refine(refiner, 11, build_refine_dataset(norm, 11, crop_size=9), epochs=2,
                 batch_size=64, lr=1e-2, seed=7)
    data = encode_cloud(cloud, 11, 11, model)
    return {"model": _sha(model.serialize()), "curve": _sha(curve), "bitstream": _sha(data),
            "refined": _sha(decode_cloud(data, model, refine_params=refiner).points)}


GOLDEN = {
    "static-crop5": {
        "model": "3e2657e17d3ac5e4b7a60311ac557ef0637bcc8f4bd0b146d8483b24c6e1e3cb",
        "curve": "8108e56757ce80c76fc25ce7caf5e0e021aec3ae6d52f06098f462e4c5250f99",
        "evaluate": "cdf12bacd3d21146fdc3e2f629cf823d1a38073cf263ee4eeb49e10d00d032cd",
        "bitstream": "db08cfb036cb7d8e60579eaf7fdbdfa28947e8f26d91f078856fada20f879215",
    },
    "static-crop1": {
        "model": "a96de24fd41f997b65c340509e3a79c79916c69d6cdadb0c7f00515c7ec45f57",
        "curve": "ea6e4b69cfe70523b462838fbd9fbda26ecd534f0e75690e252af8e20c6cbd0b",
        "evaluate": "a18166b6899b20d1adb9bd4f7027f61a346047f26dfd5a72f01f171afd7dbdef",
        "bitstream": "6ac6ea646fd227ae771c36876c6ab95f2a0b06a13889c38829e0ea3bb51e064d",
    },
    "dynamic": {
        "model": "cc27c61362fc55aa87bf9954e45f08e55b7b156a0fba9cadf2239828df16a53e",
        "curve": "d0b15cffc20b15aa9ab35328e4758c9b62f53573db7c638a86a37751117d6c6e",
        "evaluate": "699e080d124d1d1b275b6e0de4203c3325ec2d698b13c1581a4eaf2540e40535",
        "bitstream": "c886ffbc7d0a4f946b10915dfa773cb87f4fd7d143e8ed587d2b5594a6429759",
    },
    "refine": {
        "model": "1ce0e535091cb6363692d137e6adcdf592323dddfb6733a8f6a7c0d39d72d3f0",
        "curve": "4a25d53843bdc4b0e5a03af40c840269e6e83b1d73652c006c3e81709198ba2d",
        "points": "c2f6622dad77f5c3f80ce9b54a78b105ea551594812ff5756e0057b9f367c4a0",
    },
    "uniform": {
        "bitstream": "e8aba6f83b228f199b0bf0c6810cc3e037a62c267074c32c6e5e605976314292",
    },
    "adaptive": {
        "static": "bdad2c224e36b2420635ec2d7130133b939ade9298416ba3df790c93f517875a",
        "sequence": "b38084c873c567926697f845e5a4600d13cb361da7cd5f44c6c5ea1adb1ae3d9",
    },
    "sequence-decode": {
        "points": "c23a26b9242e0b8a481204dcc6d7d7f7121144c4f643d3280b5015259d0c9323",
    },
    "truncated-lengths": {
        "static": "97439437afabb5d79bec42de525ddadaa4cb92dc56e2c35e186567f117b58ab3",
        "static-bitstream": "e68dbe99e9ded1689317ae7c406ba85710349f19c01e643f1ef82432bcd1a979",
        "dataset": "261e9f45888bbaf00c513bb1f5595c2b6b02c6c908f2792a3c981066643e123d",
        "dynamic": "46ca5482db1abe4d14b21f87027ce1f39ab02fb69f3b1e1a78136e516ca6b810",
        "dynamic-bitstream": "4cbf2e0993c232dc90392fc98b4db3dc9626c2617d06a4b857cca67dc1dab014",
    },
    "static-wide": {
        "model": "76f19572ddaf955053304327ea9c126cb02ee696bd6b234f3c1d4f9640eb78bd",
        "curve": "c877bb4fd6503762f83d02d4d60ab730f54c1584e4d49e30b02acea833345956",
        "bitstream": "857c83a3e0879f5e2cc6131c1b9c760f146367f1827f93bd0fa1d88362646dbb",
        "decoded": "f342a38f9094d7f32c1fbede3cc8c59e2ce3b97dd8f4aabc6f40608fe04603a2",
    },
    "dynamic-wide": {
        "model": "68e8caada12a73a213639b93b3cf3d6456e5dea40670e5302a2db6aae548fa97",
        "curve": "5f83c864a4957361b699df84bc7bac4119f24be656f9b34e17a3cfbf77cdd47f",
        "bitstream": "6d9e42afbb7c22f6d42b76487c98d584c6c535488cf55a27868ad13c08c5ddb1",
        "decoded": "fdb45c5f6c8b5fbb7e8449c53d62bfe0a1fe9f0818994ba81734843b177b1401",
    },
    "refine-wide": {
        "model": "dfbb14baf5aa1df8f5ba5ef6e97e1f7f33cd1dcc2b2c49b01812ce4cb72a1498",
        "curve": "09483e0dcc900a62080e5daf298fd49e575ebff1410ab88f04875dd57bec8533",
        "points": "fab40b4e41a54c44f59e6759a3c3f4d863e1d9a12c961b0339ed245b2a022c06",
    },
    "deep": {
        "model": "e98dcc165a123bed57722bd6bd50b9d17a36e0beb2eb7c0b58014699bd90bcc0",
        "curve": "f417d2ee15f4b2a9949c5c80b95b700673cd2a4543b4eac39bdef65a72e0c603",
        "bitstream": "6aef84f361e14bfc2af3dfe6ca22ca2eef3762d130e5878b7b3acf7b4e6868ca",
        "refined": "3a29503d75e5fbdf95f66817822e0266aa6f9e3fac08a28298ceb1012d50cdb0",
    },
}

RUNS = {
    "static-crop5": lambda: static_run(5),
    "static-crop1": lambda: static_run(1),
    "dynamic": dynamic_run,
    "refine": refine_run,
    "uniform": uniform_run,
    "adaptive": adaptive_run,
    "sequence-decode": sequence_decode_run,
    "truncated-lengths": truncated_lengths_run,
    "static-wide": static_wide_run,
    "dynamic-wide": dynamic_wide_run,
    "refine-wide": refine_wide_run,
    "deep": deep_run,
}


@pytest.mark.parametrize("case", list(GOLDEN))
def test_golden_bytes(case):
    assert RUNS[case]() == GOLDEN[case]
