import importlib.metadata
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from voxelcodec import (PointCloud, UniformModel, cli, decode_cloud, encode_cloud, metrics,
                        pointcloud, psnr_point)
from voxelcodec.cli import main

from conftest import (VCNB_V3_UNIFORM, malformed_model_files, random_cloud, structured_cloud,
                      unknown_layer_kind_model)

_PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"
MALFORMED = malformed_model_files()


def _write_cloud(path, cloud):
    Path(path).write_bytes(pointcloud.write_points(cloud, pointcloud.guess_format(path)))


def _run(*argv):
    return main([str(a) for a in argv])


class TestEncodeDecode:
    def test_one_point_three_symbols(self, tmp_path):
        xyz = tmp_path / "p.xyz"
        xyz.write_bytes(b"0.25 0.5 0.75\n")
        out = tmp_path / "p.vcnb"
        report = tmp_path / "r.json"
        code = _run("encode", xyz, out, "--depth", 3, "--report", report)
        assert code == 0
        rep = json.loads(report.read_text())
        assert rep["symbols"] == 3
        assert out.exists()

    @pytest.mark.parametrize("sequence", [False, True])
    def test_report_wall_time_excludes_symbol_recount(self, tmp_path, monkeypatch, sequence):
        frames_dir = tmp_path / "frames"
        frames_dir.mkdir()
        for t in range(2 if sequence else 1):
            _write_cloud(frames_dir / f"f{t}.xyz", structured_cloud(200, seed=t))
        real_build = cli.octree.build

        def slow_build(*args, **kwargs):
            time.sleep(1.0)
            return real_build(*args, **kwargs)

        monkeypatch.setattr(cli, "octree", SimpleNamespace(build=slow_build))
        report = tmp_path / "r.json"
        source = frames_dir if sequence else frames_dir / "f0.xyz"
        flags = ["--sequence"] if sequence else []
        assert _run("encode", source, tmp_path / "c.vcnb", "--depth", 4, "--report", report,
                    *flags) == 0
        rep = json.loads(report.read_text())
        assert rep["wall_time_s"] < 1.0
        assert rep["symbols"] > 0

    @pytest.mark.parametrize("sequence", [False, True])
    def test_no_octree_rebuild_without_report(self, tmp_path, monkeypatch, sequence):
        """Without --report the encode builds each frame's octree once, to code it."""
        frames_dir = tmp_path / "frames"
        frames_dir.mkdir()
        n_frames = 3 if sequence else 1
        for t in range(n_frames):
            _write_cloud(frames_dir / f"f{t}.xyz", structured_cloud(200, seed=t))
        real_build = cli.octree.build
        calls = []

        def counted_build(*args, **kwargs):
            calls.append(args)
            return real_build(*args, **kwargs)

        monkeypatch.setattr(cli.octree, "build", counted_build)
        source = frames_dir if sequence else frames_dir / "f0.xyz"
        flags = ["--sequence"] if sequence else []
        assert _run("encode", source, tmp_path / "c.vcnb", "--depth", 4, *flags) == 0
        assert (tmp_path / "c.vcnb").exists()
        assert len(calls) == n_frames

    def test_end_to_end_matches_library(self, tmp_path):
        cloud = structured_cloud(800, seed=1)
        src = tmp_path / "in.ply"
        _write_cloud(src, cloud)
        bitstream = tmp_path / "c.vcnb"
        decoded_path = tmp_path / "out.ply"
        assert _run("encode", src, bitstream, "--depth", 6, "--trunc", 5) == 0
        assert _run("decode", bitstream, decoded_path) == 0
        got = pointcloud.load(str(decoded_path))
        # library reference (file round trip quantizes coords to f32)
        stored = pointcloud.load(str(src))
        ref = decode_cloud(encode_cloud(stored, 6, 5, UniformModel()), UniformModel())
        assert np.abs(np.sort(got.points, 0) - np.sort(ref.points, 0)).max() < 1e-6
        assert psnr_point(got, stored) > 20

    def test_missing_model_file(self, tmp_path, capsys):
        src = tmp_path / "in.xyz"
        _write_cloud(src, random_cloud(30, 2))
        code = _run("encode", src, tmp_path / "o.vcnb", "--depth", 4,
                    "--model-kind", "voxel-static", "--model", tmp_path / "missing.vcnm")
        assert code == 2
        assert "missing.vcnm" in capsys.readouterr().err

    def test_hash_mismatch_exit_3(self, tmp_path):
        src = tmp_path / "in.xyz"
        _write_cloud(src, random_cloud(50, 3))
        bitstream = tmp_path / "c.vcnb"
        assert _run("encode", src, bitstream, "--depth", 4) == 0
        corrupt = bytearray(bitstream.read_bytes())
        corrupt[10] ^= 0xFF
        bitstream.write_bytes(bytes(corrupt))
        assert _run("decode", bitstream, tmp_path / "o.ply") == 3

    def test_unknown_layer_kind_exit_3(self, tmp_path, capsys):
        src = tmp_path / "in.xyz"
        _write_cloud(src, random_cloud(50, 3))
        bitstream = tmp_path / "c.vcnb"
        assert _run("encode", src, bitstream, "--depth", 4) == 0
        model = tmp_path / "bad.vcnm"
        model.write_bytes(unknown_layer_kind_model())
        assert _run("decode", bitstream, tmp_path / "o.ply", "--model", model) == 3
        assert "unknown layer kind 9" in capsys.readouterr().err

    def test_version_3_stream_exit_3(self, tmp_path, capsys):
        bitstream = tmp_path / "v3.vcnb"
        bitstream.write_bytes(VCNB_V3_UNIFORM)
        assert _run("decode", bitstream, tmp_path / "o.ply") == 3
        assert "unsupported bitstream version 3" in capsys.readouterr().err

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_model_file_exit_3(self, tmp_path, capsys, case):
        blob, option, message = MALFORMED[case]
        src = tmp_path / "in.xyz"
        _write_cloud(src, random_cloud(50, 3))
        bitstream = tmp_path / "c.vcnb"
        assert _run("encode", src, bitstream, "--depth", 4) == 0
        model = tmp_path / "bad.vcnm"
        model.write_bytes(blob)
        assert _run("decode", bitstream, tmp_path / "o.ply", option, model) == 3
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["float-crop-size", "float-context-bits",
                                      "string-crop-size"])
    def test_mistyped_model_field_encode_exit_3(self, tmp_path, capsys, case):
        """A hand-edited integer field is refused when encode loads the model,
        not at coding with a TypeError."""
        blob, _, message = MALFORMED[case]
        src = tmp_path / "in.xyz"
        _write_cloud(src, random_cloud(50, 3))
        model = tmp_path / "bad.vcnm"
        model.write_bytes(blob)
        assert _run("encode", src, tmp_path / "c.vcnb", "--depth", 4, "--model", model) == 3
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("line", [b"format", b"property float"])
    def test_short_ply_header_line_exit_3(self, tmp_path, capsys, line):
        """A malformed PLY header line is a format error, not a crash."""
        src = tmp_path / "in.ply"
        head = b"format ascii 1.0\nelement vertex 1\n" if line != b"format" else b""
        src.write_bytes(b"ply\n" + head + line + b"\nproperty float x\nproperty float y\n"
                        b"property float z\nend_header\n0.1 0.2 0.3\n")
        assert _run("encode", src, tmp_path / "o.vcnb", "--depth", 4) == 3
        assert "byte offset" in capsys.readouterr().err

    @pytest.mark.parametrize("fmt", ["ascii", "binary_little_endian"])
    def test_negative_vertex_count_exit_3(self, tmp_path, capsys, fmt):
        src = tmp_path / "in.ply"
        src.write_bytes(f"ply\nformat {fmt} 1.0\nelement vertex -1\n".encode()
                        + b"property float x\nproperty float y\nproperty float z\n"
                        b"end_header\n0.1 0.2 0.3\n")
        assert _run("encode", src, tmp_path / "o.vcnb", "--depth", 4) == 3
        assert "bad vertex element line" in capsys.readouterr().err

    def test_usage_error_exit_1(self):
        assert _run("encode") == 1
        assert _run("frobnicate") == 1

    def test_help_returns_0(self, capsys):
        assert _run("--help") == 0
        assert _run("encode", "--help") == 0
        assert capsys.readouterr().out.count("usage: voxelcodec") == 2

    def test_io_error_exit_2(self, tmp_path):
        assert _run("encode", tmp_path / "absent.xyz", tmp_path / "o.vcnb",
                    "--depth", 4) == 2

    def test_no_partial_output_on_failure(self, tmp_path):
        src = tmp_path / "in.xyz"
        src.write_bytes(b"not numbers at all\n")
        out = tmp_path / "o.vcnb"
        assert _run("encode", src, out, "--depth", 4) != 0
        assert not out.exists()
        assert not any(p.name.startswith("o.vcnb.tmp") for p in tmp_path.iterdir())

    def test_adaptive_roundtrip(self, tmp_path):
        src = tmp_path / "in.ply"
        _write_cloud(src, structured_cloud(400, seed=4))
        bitstream = tmp_path / "c.vcnb"
        out = tmp_path / "o.xyz"
        assert _run("encode", src, bitstream, "--depth", 5,
                    "--model-kind", "adaptive") == 0
        assert _run("decode", bitstream, out, "--model-kind", "adaptive") == 0
        assert len(pointcloud.load(str(out))) > 0

    def test_sequence_roundtrip(self, tmp_path):
        frames_dir = tmp_path / "frames"
        frames_dir.mkdir()
        base = structured_cloud(250, seed=5)
        for t in range(3):
            _write_cloud(frames_dir / f"f{t:03d}.ply",
                         PointCloud(base.points + [0.05 * t, 0, 0]))
        poses = tmp_path / "poses.txt"
        lines = []
        for t in range(3):
            mat = np.concatenate([np.eye(3), [[-0.05 * t], [0], [0]]], axis=1)
            lines.append(" ".join(f"{v:.9g}" for v in mat.reshape(-1)))
        poses.write_text("\n".join(lines) + "\n")
        bitstream = tmp_path / "seq.vcnb"
        out_dir = tmp_path / "decoded"
        assert _run("encode", frames_dir, bitstream, "--depth", 5, "--sequence",
                    "--poses", poses) == 0
        assert _run("decode", bitstream, out_dir) == 0
        decoded = sorted(os.listdir(out_dir))
        assert decoded == ["frame_0000.ply", "frame_0001.ply", "frame_0002.ply"]

    def test_sequence_decode_onto_a_file_is_io_error(self, tmp_path, capsys):
        """A sequence decodes into a directory: an existing file at the output
        path is an I/O error (exit 2) that names it, and is left as it was."""
        frames_dir = tmp_path / "frames"
        frames_dir.mkdir()
        for t in range(2):
            _write_cloud(frames_dir / f"f{t}.ply", structured_cloud(200, seed=t))
        bitstream, out = tmp_path / "seq.vcnb", tmp_path / "out"
        assert _run("encode", frames_dir, bitstream, "--depth", 4, "--sequence") == 0
        out.write_bytes(b"kept")
        assert _run("decode", bitstream, out) == 2
        assert str(out) in capsys.readouterr().err
        assert out.read_bytes() == b"kept"


class TestTrain:
    def _corpus(self, tmp_path, n_clouds=2, n_points=300):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for i in range(n_clouds):
            _write_cloud(corpus / f"c{i}.ply", structured_cloud(n_points, seed=i))
        return corpus

    def test_deterministic_model_files(self, tmp_path):
        corpus = self._corpus(tmp_path)
        blobs = []
        for name in ("a.vcnm", "b.vcnm"):
            model = tmp_path / name
            code = _run("train", corpus, "--depth", 4, "--model", model,
                        "--model-kind", "voxel-static", "--epochs", 2,
                        "--crop-size", 5, "--channels", "2,4", "--hidden", 16,
                        "--lr", 1e-3, "--seed", 7)
            assert code == 0
            blobs.append(model.read_bytes())
        assert blobs[0] == blobs[1]

    def test_loss_csv_rows(self, tmp_path):
        corpus = self._corpus(tmp_path, n_clouds=1)
        model = tmp_path / "m.vcnm"
        assert _run("train", corpus, "--depth", 4, "--model", model,
                    "--model-kind", "voxel-static", "--epochs", 3,
                    "--crop-size", 5, "--channels", "2,4", "--hidden", 16) == 0
        rows = (tmp_path / "m.vcnm.loss.csv").read_text().strip().splitlines()
        assert rows[0] == "epoch,loss"
        assert len(rows) == 4

    def test_trained_model_encodes(self, tmp_path):
        corpus = self._corpus(tmp_path, n_clouds=1)
        model = tmp_path / "m.vcnm"
        assert _run("train", corpus, "--depth", 4, "--model", model,
                    "--model-kind", "voxel-static", "--epochs", 1,
                    "--crop-size", 5, "--channels", "2,4", "--hidden", 16) == 0
        src = corpus / "c0.ply"
        bitstream = tmp_path / "c.vcnb"
        out = tmp_path / "o.ply"
        assert _run("encode", src, bitstream, "--depth", 4, "--model", model) == 0
        assert _run("decode", bitstream, out, "--model", model) == 0

    def test_refine_training_and_decode_identity(self, tmp_path):
        corpus = self._corpus(tmp_path, n_clouds=1)
        model = tmp_path / "r.vcnm"
        assert _run("train", corpus, "--depth", 4, "--model", model, "--refine",
                    "--epochs", 0, "--crop-size", 5, "--channels", "2,4",
                    "--hidden", 16) == 1   # zero epochs is a usage error
        assert _run("train", corpus, "--depth", 4, "--model", model, "--refine",
                    "--epochs", 1, "--crop-size", 5, "--channels", "2,4",
                    "--hidden", 16, "--lr", 0.0) == 1   # so is a zero learning rate
        assert not model.exists()
        assert _run("train", corpus, "--depth", 4, "--model", model, "--refine",
                    "--epochs", 1, "--crop-size", 5, "--channels", "2,4",
                    "--hidden", 16, "--lr", 1e-12) == 0
        src = corpus / "c0.ply"
        bitstream = tmp_path / "c.vcnb"
        assert _run("encode", src, bitstream, "--depth", 4) == 0
        plain, refined = tmp_path / "p.xyz", tmp_path / "r.xyz"
        assert _run("decode", bitstream, plain) == 0
        assert _run("decode", bitstream, refined, "--refine", model) == 0
        a = pointcloud.load(str(plain)).points
        b = pointcloud.load(str(refined)).points
        assert np.allclose(a, b)   # lr 1e-12 keeps the zero-initialized head near zero

    def test_empty_corpus_fails(self, tmp_path):
        empty = tmp_path / "none"
        empty.mkdir()
        assert _run("train", empty, "--depth", 4, "--model", tmp_path / "m.vcnm",
                    "--model-kind", "voxel-static") == 2

    def test_train_dynamic_from_frame_directory(self, tmp_path):
        frames_dir = tmp_path / "frames"
        frames_dir.mkdir()
        base = structured_cloud(200, seed=40)
        for t in range(2):
            _write_cloud(frames_dir / f"f{t}.ply",
                         PointCloud(base.points + [0.02 * t, 0, 0]))
        model = tmp_path / "dyn.vcnm"
        assert _run("train", frames_dir, "--depth", 3, "--model", model,
                    "--model-kind", "voxel-dynamic", "--epochs", 1,
                    "--crop-size", 5, "--channels", "2", "--hidden", 8) == 0
        bitstream = tmp_path / "seq.vcnb"
        assert _run("encode", frames_dir, bitstream, "--depth", 3, "--sequence",
                    "--model", model) == 0
        assert _run("decode", bitstream, tmp_path / "out", "--model", model) == 0

    def test_eval_with_refinement_model(self, tmp_path):
        corpus = self._corpus(tmp_path, n_clouds=1, n_points=500)
        refine_model = tmp_path / "r.vcnm"
        assert _run("train", corpus, "--depth", 4, "--model", refine_model,
                    "--refine", "--epochs", 1, "--crop-size", 5,
                    "--channels", "2,4", "--hidden", 16, "--lr", 1e-2) == 0
        csv_path = tmp_path / "rd.csv"
        assert _run("eval", corpus / "c0.ply", csv_path, "--depth", 5,
                    "--truncs", "3,4,5", "--refine", refine_model) == 0
        assert len(csv_path.read_text().strip().splitlines()) == 4


class TestEvalBdbr:
    def test_sweep_monotone_bpp(self, tmp_path):
        src = tmp_path / "in.ply"
        _write_cloud(src, structured_cloud(1200, seed=9))
        csv_path = tmp_path / "rd.csv"
        assert _run("eval", src, csv_path, "--depth", 7, "--truncs", "3,4,5,6") == 0
        rows = csv_path.read_text().strip().splitlines()
        assert len(rows) == 5
        bpps = [float(r.split(",")[0]) for r in rows[1:]]
        assert all(a < b for a, b in zip(bpps, bpps[1:]))

    def test_psnr_on_normalized_coordinates(self, tmp_path):
        """A cloud and its x10+5 copy code alike, so they read the same PSNR:
        the peak is the normalization edge, not 1 in input units."""
        points = structured_cloud(1200, seed=9).points
        curves = []
        for name, copy in (("a", points), ("b", points * 10 + 5)):
            src, csv_path = tmp_path / f"{name}.xyz", tmp_path / f"{name}.csv"
            _write_cloud(src, PointCloud(copy))
            assert _run("eval", src, csv_path, "--depth", 7, "--truncs", "3,4,5,6") == 0
            curves.append(metrics.rd_from_csv(csv_path.read_text()))
        for a, b in zip(*curves):
            assert a.bpp == b.bpp
            # the CSV keeps 4 decimals: equal readings may round one step (1e-4) apart
            assert abs(a.psnr_d1 - b.psnr_d1) < 1.5e-4
            assert abs(a.psnr_d2 - b.psnr_d2) < 0.05

    def test_bdbr_self_zero(self, tmp_path, capsys):
        src = tmp_path / "in.ply"
        _write_cloud(src, structured_cloud(900, seed=10))
        csv_path = tmp_path / "rd.csv"
        assert _run("eval", src, csv_path, "--depth", 7, "--truncs", "3,4,5,6") == 0
        report = tmp_path / "bd.json"
        assert _run("bdbr", csv_path, csv_path, "--report", report) == 0
        assert abs(json.loads(report.read_text())["bdbr_percent"]) < 1e-9

    def test_trained_model_negative_bdbr_vs_uniform(self, tmp_path):
        # end-to-end: a model trained on this distribution must save rate
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for i in range(2):
            _write_cloud(corpus / f"c{i}.ply", structured_cloud(1500, seed=20 + i))
        model = tmp_path / "m.vcnm"
        assert _run("train", corpus, "--depth", 6, "--model", model,
                    "--model-kind", "voxel-static", "--epochs", 3, "--crop-size", 5,
                    "--channels", "2,4", "--hidden", 32, "--lr", 1e-3) == 0
        src = tmp_path / "eval.ply"
        _write_cloud(src, structured_cloud(1200, seed=30))
        csv_uniform = tmp_path / "uniform.csv"
        csv_trained = tmp_path / "trained.csv"
        assert _run("eval", src, csv_uniform, "--depth", 6, "--truncs", "3,4,5,6") == 0
        assert _run("eval", src, csv_trained, "--depth", 6, "--truncs", "3,4,5,6",
                    "--model", model) == 0
        report = tmp_path / "bd.json"
        assert _run("bdbr", csv_uniform, csv_trained, "--report", report) == 0
        assert json.loads(report.read_text())["bdbr_percent"] < 0


class TestOptions:
    """Every option is read, and a bad value is a usage error (exit 1)."""

    @pytest.fixture
    def files(self, tmp_path):
        src = tmp_path / "in.xyz"
        _write_cloud(src, structured_cloud(300, seed=2))
        bitstream, rd = tmp_path / "c.vcnb", tmp_path / "rd.csv"
        assert _run("encode", src, bitstream, "--depth", 5) == 0
        assert _run("eval", src, rd, "--depth", 5, "--truncs", "2,3,4,5") == 0
        poses = tmp_path / "poses.txt"
        poses.write_text("1 0 0 0 0 1 0 0 0 0 1 0\n")
        return SimpleNamespace(src=src, bitstream=bitstream, rd=rd, poses=poses, dir=tmp_path)

    @pytest.mark.parametrize("command,option", [
        ("encode", "--seed"), ("decode", "--seed"), ("eval", "--seed"), ("bdbr", "--seed"),
        ("eval", "--report"), ("train", "--context-bits"), ("encode", "--poses"),
        ("train", "--poses"), ("train", "--refine"), ("decode", "--restore-poses")])
    def test_unread_option_rejected(self, files, command, option):
        """Also options that the mode chosen never reads: --poses outside a
        sequence or dynamic training, --model-kind when training the refiner,
        and --restore-poses on a single-cloud bitstream."""
        argv = {
            "encode": ("encode", files.src, files.dir / "o.vcnb", "--depth", 5),
            "decode": ("decode", files.bitstream, files.dir / "o.xyz"),
            "eval": ("eval", files.src, files.dir / "o.csv", "--depth", 5, "--truncs", "3,4"),
            "bdbr": ("bdbr", files.rd, files.rd),
            "train": ("train", files.src, "--depth", 3, "--model", files.dir / "m.vcnm",
                      "--model-kind", "voxel-static", "--epochs", 1, "--crop-size", 5,
                      "--channels", "2", "--hidden", 8),
        }[command]
        values = {"--seed": (5,), "--report": (files.dir / "r.json",), "--context-bits": (4,),
                  "--poses": (files.poses,), "--refine": (), "--restore-poses": ()}[option]
        assert _run(*argv) == 0
        assert _run(*argv, option, *values) == 1
        assert not (files.dir / "r.json").exists()

    @pytest.mark.parametrize("option,value", [
        ("--batch", 0), ("--batch", -4), ("--hidden", 0), ("--epochs", 0), ("--epochs", "x"),
        ("--channels", "2,0"), ("--channels", "-1"), ("--crop-size", 4), ("--crop-size", 0),
        ("--crop-size", -3), ("--lr", "nan"), ("--lr", "inf"), ("--lr", 0), ("--lr", -1)])
    def test_bad_training_value_is_usage_error(self, files, option, value, capsys):
        """Rejected before the corpus is read: that corpus is missing, which
        with good values exits 2 (I/O)."""
        model = files.dir / "m.vcnm"
        argv = ("train", files.dir / "missing", "--depth", 3, "--model", model,
                "--model-kind", "voxel-static", "--epochs", 1, "--crop-size", 5,
                "--channels", "2", "--hidden", 8)
        assert _run(*argv) == 2
        capsys.readouterr()
        assert _run(*argv, option, value) == 1
        assert option in capsys.readouterr().err
        assert not model.exists()

    @pytest.mark.parametrize("command,args", [
        ("encode", ("--trunc", 5)),
        ("encode", ("--trunc", 0)),
        ("encode", ("--model-kind", "adaptive", "--context-bits", 0)),
        ("eval", ("--truncs", "2,x")),
        ("eval", ("--truncs", "2,5")),
        ("eval", ("--truncs", "3,3")),
    ], ids=["trunc-past-depth", "trunc-zero", "context-bits-zero", "truncs-not-int",
            "eval-trunc-past-depth", "eval-trunc-repeated"])
    def test_bad_value_is_usage_error(self, files, command, args):
        out = files.dir / ("o.vcnb" if command == "encode" else "o.csv")
        assert _run(command, files.src, out, "--depth", 4, *args) == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["encode", "train", "eval"])
    @pytest.mark.parametrize("depth", [0, 17])
    def test_depth_out_of_range_is_usage_error(self, files, command, depth, capsys):
        outputs = {"encode": files.dir / "o.vcnb", "train": files.dir / "m.vcnm",
                   "eval": files.dir / "o.csv"}
        argv = {
            "encode": ("encode", files.src, outputs["encode"]),
            "train": ("train", files.src, "--model", outputs["train"], "--model-kind",
                      "voxel-static", "--epochs", 1, "--crop-size", 5, "--channels", "2",
                      "--hidden", 8),
            "eval": ("eval", files.src, outputs["eval"], "--truncs", "1"),
        }[command]
        assert _run(*argv, "--depth", depth) == 1
        assert f"depth {depth} out of range [1, 16]" in capsys.readouterr().err
        assert not outputs[command].exists()


def _declared_scripts():
    """The ``[project.scripts]`` table of this repository's pyproject.toml."""
    try:
        import tomllib
    except ModuleNotFoundError:   # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with open(_PYPROJECT, "rb") as fh:
        return tomllib.load(fh).get("project", {}).get("scripts", {})


def _distribution_installed():
    try:
        importlib.metadata.distribution("voxelcodec")
    except importlib.metadata.PackageNotFoundError:
        return False
    return True


def test_console_script_installed(tmp_path):
    # The declared entry point must resolve to cli.main and behave, when run
    # the way an installed console-script wrapper runs it, as the README says.
    scripts = _declared_scripts()
    assert "voxelcodec" in scripts
    ep = importlib.metadata.EntryPoint(name="voxelcodec", value=scripts["voxelcodec"],
                                       group="console_scripts")
    assert ep.load() is main
    wrapper = f"import sys; from {ep.module} import {ep.attr}; sys.exit({ep.attr}())"
    env = dict(os.environ)
    src = str(_PYPROJECT.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

    def run(*argv):
        return subprocess.run([sys.executable, "-c", wrapper, *map(str, argv)],
                              capture_output=True, text=True, timeout=120, env=env)

    proc = run("--help")
    assert proc.returncode == 0, proc.stderr
    assert "usage: voxelcodec" in proc.stdout
    proc = run("frobnicate")
    assert proc.returncode == 1, proc.stderr
    xyz = tmp_path / "p.xyz"
    xyz.write_bytes(b"0.25 0.5 0.75\n")
    out = tmp_path / "p.vcnb"
    proc = run("encode", xyz, out, "--depth", 3)
    assert proc.returncode == 0, proc.stderr
    assert out.stat().st_size > 0


@pytest.mark.skipif(not _distribution_installed(),
                    reason="voxelcodec distribution not installed (PackageNotFoundError)")
def test_console_script_on_path():
    assert shutil.which("voxelcodec") is not None
    installed = importlib.metadata.distribution("voxelcodec").entry_points.select(
        group="console_scripts", name="voxelcodec")
    assert [ep.value for ep in installed] == [_declared_scripts().get("voxelcodec")]
