"""Command-line front end: encode, decode, train, eval, bdbr.

Exit codes: 0 success, 1 usage, 2 I/O, 3 format/hash mismatch, 4 training
failure. Output files are written to a temp path and renamed on success, so a
failing command never leaves partial artifacts.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from . import coder, dynamic, entropy, metrics, octree, pointcloud, refine
from .octree import MAX_DEPTH

EXIT_USAGE = 1
EXIT_IO = 2
EXIT_FORMAT = 3
EXIT_TRAINING = 4


class CliError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message, EXIT_USAGE)


def _atomic_write(path, data: bytes):
    tmp = f"{path}.tmp-{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except OSError as exc:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise CliError(f"cannot write {path}: {exc}", EXIT_IO) from exc


def _read_bytes(path) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}", EXIT_IO) from exc


def _load_cloud(path) -> pointcloud.PointCloud:
    try:
        return pointcloud.load(path)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}", EXIT_IO) from exc
    except pointcloud.ParseError as exc:
        raise CliError(f"{path}: {exc}", EXIT_FORMAT) from exc


def _load_poses(path):
    poses = []
    for lineno, line in enumerate(_read_bytes(path).decode("utf-8").splitlines(), 1):
        if not line.strip():
            continue
        vals = [float(v) for v in line.split()]
        if len(vals) != 12:
            raise CliError(f"{path}:{lineno}: pose line needs 12 values (3x4 row-major)",
                           EXIT_FORMAT)
        mat = np.array(vals).reshape(3, 4)
        poses.append(pointcloud.RigidTransform(mat[:, :3], mat[:, 3]))
    return poses


def _sequence_files(path):
    if not os.path.isdir(path):
        raise CliError(f"--sequence input must be a directory: {path}", EXIT_IO)
    names = sorted(n for n in os.listdir(path)
                   if n.lower().endswith((".ply", ".xyz")))
    if not names:
        raise CliError(f"no .ply/.xyz frames in {path}", EXIT_IO)
    return [os.path.join(path, n) for n in names]


def _load_sequence(path, poses_path):
    files = _sequence_files(path)
    frames = [_load_cloud(f) for f in files]
    if poses_path:
        poses = _load_poses(poses_path)
        if len(poses) != len(frames):
            raise CliError(f"{len(poses)} poses for {len(frames)} frames", EXIT_FORMAT)
        frames = [pointcloud.PointCloud(f.points, pose=p) for f, p in zip(frames, poses)]
    return frames


def _make_model(args):
    kind = args.model_kind
    if kind in (None, "uniform") and not args.model:
        return entropy.UniformModel()
    if kind == "adaptive" and not args.model:
        try:
            return entropy.AdaptiveContextModel(args.context_bits)
        except ValueError as exc:
            raise CliError(f"--context-bits: {exc}", EXIT_USAGE) from exc
    if not args.model:
        raise CliError(f"model kind {kind!r} needs --model FILE", EXIT_USAGE)
    if not os.path.exists(args.model):
        raise CliError(f"model file not found: {args.model}", EXIT_IO)
    try:
        model = entropy.load_entropy_model(_read_bytes(args.model))
    except ValueError as exc:
        raise CliError(f"{args.model}: {exc}", EXIT_FORMAT) from exc
    if kind and model.kind != kind:
        raise CliError(f"{args.model} holds a {model.kind} model, not {kind}", EXIT_FORMAT)
    return model


def _load_refine(path):
    if not os.path.exists(path):
        raise CliError(f"refinement model not found: {path}", EXIT_IO)
    try:
        return refine.RefineParams.deserialize(_read_bytes(path))
    except ValueError as exc:
        raise CliError(f"{path}: {exc}", EXIT_FORMAT) from exc


def _write_report(path, payload: dict):
    if path:
        _atomic_write(path, (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode())


def _check_truncs(depth, truncs):
    """A usage error unless 1 <= trunc <= depth for every truncation depth, and
    no depth repeats."""
    for i, trunc in enumerate(truncs):
        if not 1 <= trunc <= depth:
            raise CliError(f"truncation depth {trunc} out of range [1, {depth}]", EXIT_USAGE)
        if trunc in truncs[:i]:
            raise CliError(f"truncation depth {trunc} given twice", EXIT_USAGE)


def cmd_encode(args):
    if args.poses and not args.sequence:
        raise CliError("--poses needs --sequence", EXIT_USAGE)
    trunc = args.depth if args.trunc is None else args.trunc
    _check_truncs(args.depth, [trunc])
    model = _make_model(args)
    t0 = time.perf_counter()
    if args.sequence:
        frames = _load_sequence(args.input, args.poses)
        data = dynamic.encode_sequence(frames, args.depth, trunc, model,
                                       store_poses=bool(args.poses))
    else:
        frames = [_load_cloud(args.input)]
        if len(frames[0]) == 0:
            raise CliError(f"{args.input}: empty cloud", EXIT_FORMAT)
        data = coder.encode_cloud(frames[0], args.depth, trunc, model)
    wall = time.perf_counter() - t0
    _atomic_write(args.output, data)
    if args.report:
        # the symbol count rebuilds each frame's octree, outside the timed encode
        if args.sequence:
            coded = dynamic.align_sequence(frames).frames
        else:
            coded = [pointcloud.normalize(frames[0])[0]]
        n_symbols = sum(octree.build(c, trunc).symbol_count()
                        for c in coded)
        n_points = sum(len(f) for f in frames)
        payload_bits = 8 * coder.payload_size(data)
        _write_report(args.report, {
            "bpp": payload_bits / n_points, "symbols": n_symbols,
            "payload_bytes": payload_bits // 8, "total_bytes": len(data),
            "points": n_points, "wall_time_s": round(wall, 4)})
    return 0


def cmd_decode(args):
    data = _read_bytes(args.input)
    model = _make_model(args)
    refine_params = _load_refine(args.refine) if args.refine else None
    t0 = time.perf_counter()
    try:
        header, _ = coder.BitstreamHeader.unpack(data)
        if args.restore_poses and header.mode != coder.MODE_DYNAMIC:
            raise CliError("--restore-poses needs a sequence bitstream", EXIT_USAGE)
        if header.mode == coder.MODE_DYNAMIC:
            clouds = dynamic.decode_sequence(data, model, refine_params,
                                             restore_poses=args.restore_poses)
        else:
            clouds = [coder.decode_cloud(data, model, refine_params)]
    except coder.DecodeError as exc:
        raise CliError(f"{args.input}: {exc}", EXIT_FORMAT) from exc
    wall = time.perf_counter() - t0
    if len(clouds) == 1:
        _atomic_write(args.output, pointcloud.write_points(
            clouds[0], pointcloud.guess_format(args.output)))
    else:
        try:
            os.makedirs(args.output, exist_ok=True)
        except OSError as exc:
            raise CliError(f"cannot create directory {args.output}: {exc}", EXIT_IO) from exc
        for i, cloud in enumerate(clouds):
            _atomic_write(os.path.join(args.output, f"frame_{i:04d}.ply"),
                          pointcloud.write_points(cloud, pointcloud.PLY_BINARY))
    _write_report(args.report, {
        "frames": len(clouds), "points": sum(len(c) for c in clouds),
        "wall_time_s": round(wall, 4)})
    return 0


def _corpus_clouds(path):
    """The normalized clouds of a corpus, one file or a directory of them,
    all read before any is normalized."""
    files = _sequence_files(path) if os.path.isdir(path) else [path]
    clouds = [_load_cloud(f) for f in files]
    return [pointcloud.normalize(c)[0] for c in clouds]


def cmd_train(args):
    if args.refine and args.model_kind:
        raise CliError("--refine trains the refiner and takes no --model-kind", EXIT_USAGE)
    if args.poses and args.model_kind != "voxel-dynamic":
        raise CliError("--poses needs --model-kind voxel-dynamic", EXIT_USAGE)
    if args.crop_size % 2 == 0:
        raise CliError(f"--crop-size {args.crop_size} is not odd", EXIT_USAGE)
    if not args.model:
        raise CliError("train needs --model OUTPUT_PATH", EXIT_USAGE)
    try:
        if args.refine:
            params = refine.RefineParams(args.crop_size, seed=args.seed,
                                         channels=args.channels, hidden=args.hidden)
            datasets = [refine.build_refine_dataset(c, args.depth, args.crop_size)
                        for c in _corpus_clouds(args.input)]
            merged = {"crops": np.concatenate([d["crops"] for d in datasets]),
                      "targets": np.concatenate([d["targets"] for d in datasets])}
            curve = refine.train_refine(params, args.depth, merged, args.epochs,
                                        args.batch, args.lr, args.seed)
            blob = params.serialize()
        elif args.model_kind == "voxel-dynamic":
            frames = _load_sequence(args.input, args.poses)
            seq = dynamic.align_sequence(frames)
            dataset = dynamic.build_sequence_dataset(seq, args.depth, args.crop_size)
            model = entropy.DynamicContextModel(args.crop_size, channels=args.channels,
                                                hidden=args.hidden, seed=args.seed)
            curve = model.train(dataset, args.epochs, args.batch, args.lr, args.seed)
            blob = model.serialize()
        elif args.model_kind == "voxel-static":
            trees = [octree.build(c, args.depth) for c in _corpus_clouds(args.input)]
            dataset = entropy.build_node_dataset(trees, args.crop_size)
            model = entropy.VoxelContextModel(args.crop_size, channels=args.channels,
                                              hidden=args.hidden, seed=args.seed)
            curve = model.train(dataset, args.epochs, args.batch, args.lr, args.seed)
            blob = model.serialize()
        else:
            raise CliError(f"cannot train model kind {args.model_kind!r} "
                           "(use voxel-static, voxel-dynamic, or --refine)", EXIT_USAGE)
    except ValueError as exc:
        raise CliError(f"training failed: {exc}", EXIT_TRAINING) from exc
    _atomic_write(args.model, blob)
    csv = "epoch,loss\n" + "".join(f"{i},{v:.8f}\n" for i, v in enumerate(curve))
    _atomic_write(args.loss_csv or args.model + ".loss.csv", csv.encode())
    _write_report(args.report, {"epochs": args.epochs, "final_loss": curve[-1],
                                "model": args.model})
    return 0


def cmd_eval(args):
    _check_truncs(args.depth, args.truncs)
    model = _make_model(args)
    cloud = _load_cloud(args.input)
    refine_params = _load_refine(args.refine) if args.refine else None
    truncs = sorted(args.truncs)
    normals_ref = metrics.estimate_normals(cloud.points) if len(cloud) > 12 else None
    peak = pointcloud.normalize(cloud)[1].edge   # PSNR on normalized coordinates
    rows = []
    for trunc in truncs:
        data = coder.encode_cloud(cloud, args.depth, trunc, model)
        decoded = coder.decode_cloud(data, model, refine_params
                                     if refine_params and trunc in refine_params.entries
                                     else None)
        bpp = 8 * coder.payload_size(data) / len(cloud)
        cd = metrics.chamfer(decoded, cloud)
        d1 = metrics.psnr_point(decoded, cloud, peak)
        if normals_ref is not None and len(decoded) > 12:
            d2 = metrics.psnr_plane(decoded, cloud, metrics.estimate_normals(decoded.points),
                                    normals_ref, peak)
        else:
            d2 = float("nan")
        rows.append(metrics.RDPoint(bpp, cd, d1, d2, depth=trunc))
    _atomic_write(args.output, metrics.rd_to_csv(rows).encode())
    return 0


def cmd_bdbr(args):
    anchor = metrics.rd_from_csv(_read_bytes(args.anchor).decode())
    test = metrics.rd_from_csv(_read_bytes(args.test).decode())
    try:
        value = metrics.bdbr(anchor, test, metric=args.metric)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_FORMAT) from exc
    print(f"BDBR {value:+.2f}%")
    _write_report(args.report, {"bdbr_percent": value, "metric": args.metric})
    return 0


def _depth(text):
    """argparse type of --depth: an octree depth in [1, MAX_DEPTH]."""
    try:
        depth = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if not 1 <= depth <= MAX_DEPTH:
        raise argparse.ArgumentTypeError(f"depth {depth} out of range [1, {MAX_DEPTH}]")
    return depth


def _positive(text):
    """argparse type of a count such as --epochs: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} is not at least 1")
    return value


def _learning_rate(text):
    """argparse type of --lr: a finite float above 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"{value} is not a finite number above 0")
    return value


def _int_list(text):
    """argparse type of a comma-separated integer list such as "16,32,64"."""
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}") from None


def _channels(text):
    """argparse type of --channels: comma-separated conv widths, each at least 1."""
    return tuple(_positive(v) for v in text.split(","))


def _add_model(p, context_bits=True):
    p.add_argument("--model", help="model file (VCNM)")
    p.add_argument("--model-kind",
                   choices=["uniform", "adaptive", "voxel-static", "voxel-dynamic"])
    if context_bits:
        p.add_argument("--context-bits", type=int, default=16,
                       help="adaptive model context hash bits, 1-16")


def build_parser():
    parser = _Parser(prog="voxelcodec",
                     description="Octree point-cloud geometry codec with voxel-context entropy models")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", help="compress a cloud or sequence into a bitstream")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--depth", type=_depth, required=True)
    p.add_argument("--trunc", type=int, help="truncation depth (default: --depth)")
    p.add_argument("--sequence", action="store_true", help="input is a directory of frames")
    p.add_argument("--poses", help="pose file, one 3x4 row-major pose per line")
    p.add_argument("--report", help="write a JSON report here")
    _add_model(p)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="reconstruct a cloud or sequence from a bitstream")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--refine", help="refinement model file")
    p.add_argument("--restore-poses", action="store_true")
    p.add_argument("--report", help="write a JSON report here")
    _add_model(p)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("train", help="train an entropy or refinement model")
    p.add_argument("input", help="corpus: cloud file, directory of clouds, or frame directory")
    p.add_argument("--depth", type=_depth, required=True)
    p.add_argument("--epochs", type=_positive, default=20)
    p.add_argument("--batch", type=_positive, default=32)
    p.add_argument("--lr", type=_learning_rate, default=1e-4)
    p.add_argument("--crop-size", type=_positive, default=9)
    p.add_argument("--channels", type=_channels, default="16,32,64")
    p.add_argument("--hidden", type=_positive, default=256)
    p.add_argument("--refine", action="store_true", help="train the coordinate refiner")
    p.add_argument("--poses")
    p.add_argument("--loss-csv", help="loss curve path (default: MODEL.loss.csv)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report", help="write a JSON report here")
    _add_model(p, context_bits=False)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="rate-distortion sweep over truncation depths")
    p.add_argument("input")
    p.add_argument("output", help="RD CSV path")
    p.add_argument("--depth", type=_depth, required=True)
    p.add_argument("--truncs", type=_int_list, default="3,4,5,6")
    p.add_argument("--refine")
    _add_model(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bdbr", help="Bjontegaard delta bitrate between two RD CSVs")
    p.add_argument("anchor")
    p.add_argument("test")
    p.add_argument("--metric", default="psnr_d1", choices=["psnr_d1", "psnr_d2", "cd"])
    p.add_argument("--report", help="write a JSON report here")
    p.set_defaults(func=cmd_bdbr)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:   # argparse exits only after printing --help
            return exc.code
        return args.func(args)
    except CliError as exc:
        print(f"voxelcodec: {exc}", file=sys.stderr)
        return exc.code
    except ValueError as exc:
        print(f"voxelcodec: {exc}", file=sys.stderr)
        return EXIT_FORMAT


if __name__ == "__main__":
    sys.exit(main())
