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
version 4.
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
        "model": "9251804fcd5026e01df4c23e9a38722a38daf29116924c58c59d04ddc507a7a7",
        "curve": "8108e56757ce80c76fc25ce7caf5e0e021aec3ae6d52f06098f462e4c5250f99",
        "evaluate": "cdf12bacd3d21146fdc3e2f629cf823d1a38073cf263ee4eeb49e10d00d032cd",
        "bitstream": "2fd021bbc901a717aa00617899557b8f004d29efbd2525f60f279ea68a60170d",
    },
    "static-crop1": {
        "model": "0417f051e941518dc6280f95f3fe61597174eadc6045bcca12a08fbb0795b0a6",
        "curve": "ea6e4b69cfe70523b462838fbd9fbda26ecd534f0e75690e252af8e20c6cbd0b",
        "evaluate": "a18166b6899b20d1adb9bd4f7027f61a346047f26dfd5a72f01f171afd7dbdef",
        "bitstream": "76b92943f304de3ccf4fcce8f9a7b3589513bb8fb1853df43f5664c5eb3f8a31",
    },
    "dynamic": {
        "model": "6b42681d341a100b8c9d1fa80c06bd4bd00cd5bc9986f547509cd93455696f6f",
        "curve": "d0b15cffc20b15aa9ab35328e4758c9b62f53573db7c638a86a37751117d6c6e",
        "evaluate": "699e080d124d1d1b275b6e0de4203c3325ec2d698b13c1581a4eaf2540e40535",
        "bitstream": "8ab44fb308ba00c25b8199c79a3ef7e623de921876cf93f239a3e29ffc80d4a3",
    },
    "refine": {
        "model": "e91b1850c53718d29f527c997e1815f0eb33da4dc2dff7af843c0d03ed398bc8",
        "curve": "4a25d53843bdc4b0e5a03af40c840269e6e83b1d73652c006c3e81709198ba2d",
        "points": "c2f6622dad77f5c3f80ce9b54a78b105ea551594812ff5756e0057b9f367c4a0",
    },
    "uniform": {
        "bitstream": "1fe07c71767c47392f4b9bcbeb7852d33d1c236354717210d49804b3d59eb078",
    },
    "adaptive": {
        "static": "f10b28e7ef875381c4f13759c019ac50af31e8f0a8cda31af57a9261fb89372b",
        "sequence": "574ed43340081a5549e732ebff8ebd7080112de626e2bbe03b96fff24815ae9a",
    },
    "sequence-decode": {
        "points": "c23a26b9242e0b8a481204dcc6d7d7f7121144c4f643d3280b5015259d0c9323",
    },
    "truncated-lengths": {
        "static": "97439437afabb5d79bec42de525ddadaa4cb92dc56e2c35e186567f117b58ab3",
        "static-bitstream": "bf5bf690ae21c3a7084942248181edaccc5216910e0f1479ac1a0cc765ce2f84",
        "dataset": "261e9f45888bbaf00c513bb1f5595c2b6b02c6c908f2792a3c981066643e123d",
        "dynamic": "46ca5482db1abe4d14b21f87027ce1f39ab02fb69f3b1e1a78136e516ca6b810",
        "dynamic-bitstream": "8217a0d9520aa1d62dbe53d578b07ce254a80b17b79fef7ecf0e1244f5399104",
    },
    "static-wide": {
        "model": "469f14f8b2906f35e8ab0ea544be97e77ebc544047faf9151600ee362aa9c2d1",
        "curve": "c877bb4fd6503762f83d02d4d60ab730f54c1584e4d49e30b02acea833345956",
        "bitstream": "d5fe0ef119cbf541133ed7c695d00f936f155903b3fd5aceaf4ba97e7c58406e",
        "decoded": "f342a38f9094d7f32c1fbede3cc8c59e2ce3b97dd8f4aabc6f40608fe04603a2",
    },
    "dynamic-wide": {
        "model": "0cf0c797c3f87ffacb8dd108b476cb84e58faf96bc08745c3b9e1afb5f9bf5c1",
        "curve": "5f83c864a4957361b699df84bc7bac4119f24be656f9b34e17a3cfbf77cdd47f",
        "bitstream": "d5410e546e3945b7d04b5c5a64b5d352c081cafa02c37b30afa5615135840806",
        "decoded": "fdb45c5f6c8b5fbb7e8449c53d62bfe0a1fe9f0818994ba81734843b177b1401",
    },
    "refine-wide": {
        "model": "10b352f4535450e432698fffe94246e5c8c36926458652c958bcb25525052bca",
        "curve": "09483e0dcc900a62080e5daf298fd49e575ebff1410ab88f04875dd57bec8533",
        "points": "fab40b4e41a54c44f59e6759a3c3f4d863e1d9a12c961b0339ed245b2a022c06",
    },
    "deep": {
        "model": "d87ec3fc2ff6f16e55d3618ac25b2b8ef2b7cb09cbec125f193af61a9cc2e4cd",
        "curve": "f417d2ee15f4b2a9949c5c80b95b700673cd2a4543b4eac39bdef65a72e0c603",
        "bitstream": "8417574395b9d9c40d892ec855f49e3fa4209dcbf8783563cec4c727958d7ea6",
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
