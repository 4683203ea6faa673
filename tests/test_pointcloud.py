import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voxelcodec import (ParseError, PointCloud, RigidTransform, apply_pose, normalize,
                        pointcloud, read_points, write_points)

from conftest import random_cloud, rotation_z

FORMATS = (pointcloud.PLY_ASCII, pointcloud.PLY_BINARY, pointcloud.XYZ)


class TestReadWrite:
    def test_empty_ply(self):
        data = b"ply\nformat ascii 1.0\nelement vertex 0\nproperty float x\nproperty float y\nproperty float z\nend_header\n"
        assert len(read_points(data, pointcloud.PLY_ASCII)) == 0

    def test_xyz_single_point(self):
        cloud = read_points(b"0.6 0.7 0.7\n", pointcloud.XYZ)
        assert np.allclose(cloud.points, [[0.6, 0.7, 0.7]])

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_roundtrip_1000(self, fmt):
        cloud = random_cloud(1000, seed=3)
        back = read_points(write_points(cloud, fmt), fmt)
        assert np.abs(back.points - cloud.points).max() < 1e-6

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_roundtrip_10k(self, fmt):
        cloud = random_cloud(10_000, seed=4)
        back = read_points(write_points(cloud, fmt), fmt)
        assert np.abs(back.points - cloud.points).max() < 1e-6

    def test_empty_write_reparses(self):
        for fmt in FORMATS:
            data = write_points(PointCloud(), fmt)
            assert len(read_points(data, fmt)) == 0
        assert b"element vertex 0" in write_points(PointCloud(), pointcloud.PLY_ASCII)

    def test_single_point_identity(self):
        cloud = PointCloud([[0.25, 0.5, 0.125]])
        for fmt in FORMATS:
            back = read_points(write_points(cloud, fmt), fmt)
            assert np.allclose(back.points, cloud.points, atol=1e-7)

    @pytest.mark.parametrize("fmt,name", [(pointcloud.PLY_ASCII, "c.ply"),
                                          (pointcloud.PLY_BINARY, "c.PLY"),
                                          (pointcloud.XYZ, "c.xyz")])
    def test_load_reads_the_file_format(self, tmp_path, fmt, name):
        """`load` picks XYZ by suffix; a PLY file's header says ASCII or binary."""
        cloud = random_cloud(50, seed=5)
        path = tmp_path / name
        path.write_bytes(write_points(cloud, fmt))
        assert np.abs(pointcloud.load(str(path)).points - cloud.points).max() < 1e-6

    def test_ignores_extra_properties(self):
        data = (b"ply\nformat ascii 1.0\nelement vertex 1\n"
                b"property float x\nproperty float y\nproperty float z\n"
                b"property uchar red\nend_header\n"
                b"0.1 0.2 0.3 255\n")
        cloud = read_points(data, pointcloud.PLY_ASCII)
        assert np.allclose(cloud.points, [[0.1, 0.2, 0.3]])

    def test_malformed_header(self):
        with pytest.raises(ParseError):
            read_points(b"not a ply file", pointcloud.PLY_ASCII)
        with pytest.raises(ParseError):
            read_points(b"ply\nformat ascii 1.0\nelement vertex 1\nproperty float x\n"
                        b"property float y\nproperty float z\n", pointcloud.PLY_ASCII)

    def test_vertex_element_must_come_first(self):
        """The payload is read as vertices from its first byte, so an element
        declared before `vertex`, or a second `vertex`, is a parse error, in
        either format; an element after `vertex` is ignored."""
        vertex = b"element vertex 2\nproperty float x\nproperty float y\nproperty float z\n"
        camera = b"element camera 1\nproperty float a\nproperty float b\nproperty float c\n"
        binary = (b"ply\nformat binary_little_endian 1.0\nelement camera 1\nproperty float k\n"
                  + vertex + b"end_header\n"
                  + np.array([9, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6], dtype="<f4").tobytes())
        ascii_ = (b"ply\nformat ascii 1.0\n" + camera + vertex + b"end_header\n"
                  b"9 0 0\n0.1 0.2 0.3\n0.4 0.5 0.6\n")
        twice = b"ply\nformat ascii 1.0\n" + vertex + vertex + b"end_header\n0 0 0\n0 0 0\n"
        for data in (binary, ascii_, twice):
            with pytest.raises(ParseError, match="vertex element must come first"):
                read_points(data, pointcloud.PLY_ASCII)
        after = (b"ply\nformat ascii 1.0\n" + vertex + camera + b"end_header\n"
                 b"0.1 0.2 0.3\n0.4 0.5 0.6\n9 0 0\n")
        assert np.allclose(read_points(after, pointcloud.PLY_ASCII).points,
                           [[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]])

    @pytest.mark.parametrize("header", [
        b"format\n",
        b"format ascii 1.0\nelement vertex 1\nproperty\n",
        b"format ascii 1.0\nelement vertex 1\nproperty float\n",
        b"format binary_little_endian 1.0\nelement vertex 1\nproperty\n",
        b"format binary_little_endian 1.0\nelement vertex 1\nproperty float\n",
    ])
    def test_short_header_line_names_its_offset(self, header):
        """A bare `format` line, or a vertex `property` line without a type
        or a name, is a parse error at the offset of that line (the last of
        `header`)."""
        data = b"ply\n" + header + b"property float x\nproperty float y\nproperty float z\nend_header\n"
        with pytest.raises(ParseError) as exc:
            read_points(data, pointcloud.PLY_ASCII)
        assert exc.value.offset == len(b"ply\n") + header.rfind(b"\n", 0, -1) + 1

    def test_truncated_binary_payload_names_offset(self):
        cloud = random_cloud(10, seed=0)
        data = write_points(cloud, pointcloud.PLY_BINARY)
        with pytest.raises(ParseError) as exc:
            read_points(data[:-5], pointcloud.PLY_BINARY)
        assert exc.value.offset == len(data) - 5

    def test_nonfinite_coordinate_rejected(self):
        with pytest.raises(ParseError):
            read_points(b"0.1 nan 0.3\n", pointcloud.XYZ)

    def test_truncated_ascii_row(self):
        data = (b"ply\nformat ascii 1.0\nelement vertex 2\n"
                b"property float x\nproperty float y\nproperty float z\nend_header\n"
                b"0.1 0.2 0.3\n0.4 0.5\n")
        with pytest.raises(ParseError):
            read_points(data, pointcloud.PLY_ASCII)


class TestNormalize:
    def test_two_point_example(self):
        cloud, params = normalize(PointCloud([[0, 0, 0], [2, 1, 1]]))
        assert params.edge == 2.0
        assert np.allclose(cloud.points, [[0, 0, 0], [1, 0.5, 0.5]])

    def test_degenerate_single_point(self):
        cloud, params = normalize(PointCloud([[5.0, 5.0, 5.0]]))
        assert params.edge == 1.0
        assert np.allclose(cloud.points, [[0, 0, 0]])

    def test_roundtrip_random(self):
        cloud = random_cloud(500, seed=9, lo=-30.0, hi=55.0)
        norm, params = normalize(cloud)
        assert norm.points.min() >= 0.0 and norm.points.max() <= 1.0
        back = params.invert(norm.points)
        assert np.abs(back - cloud.points).max() < 1e-6 * params.edge

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            normalize(PointCloud())

    @given(st.lists(st.tuples(*[st.floats(-1e4, 1e4) for _ in range(3)]),
                    min_size=1, max_size=60))
    @settings(max_examples=40, deadline=None)
    def test_normalize_denormalize_identity(self, pts):
        cloud = PointCloud(np.asarray(pts))
        norm, params = normalize(cloud)
        assert norm.points.min() >= -1e-12 and norm.points.max() <= 1.0 + 1e-12
        back = params.invert(norm.points)
        assert np.abs(back - cloud.points).max() <= 1e-6 * max(params.edge, 1.0)


class TestPose:
    def test_identity_pose(self):
        cloud = PointCloud(random_cloud(50, 1).points, pose=RigidTransform(np.eye(3), np.zeros(3)))
        out = apply_pose(cloud)
        assert np.allclose(out.points, cloud.points)
        assert out.pose is None

    def test_translation(self):
        cloud = PointCloud([[0, 0, 0]], pose=RigidTransform(np.eye(3), [1, 0, 0]))
        assert np.allclose(apply_pose(cloud).points, [[1, 0, 0]])

    def test_rotation_90deg_z(self):
        pose = RigidTransform(rotation_z(np.pi / 2), np.zeros(3))
        cloud = PointCloud([[1, 0, 0]], pose=pose)
        assert np.abs(apply_pose(cloud).points - [[0, 1, 0]]).max() < 1e-6

    def test_missing_pose_errors(self):
        with pytest.raises(ValueError):
            apply_pose(PointCloud([[0, 0, 0]]))

    def test_rigidity_preserves_distances(self):
        rng = np.random.default_rng(7)
        pts = rng.random((40, 3)) * 10
        pose = RigidTransform(rotation_z(0.83) @ np.array(
            [[1, 0, 0], [0, 0, -1], [0, 1, 0.0]]), rng.random(3))
        out = apply_pose(PointCloud(pts, pose=pose))
        d_before = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
        d_after = np.linalg.norm(out.points[:, None] - out.points[None, :], axis=2)
        assert np.abs(d_before - d_after).max() < 1e-6

    def test_bad_rotation_rejected(self):
        with pytest.raises(ValueError):
            RigidTransform(np.eye(3) * 2.0, np.zeros(3))
        with pytest.raises(ValueError):
            RigidTransform(np.diag([1.0, 1.0, -1.0]), np.zeros(3))  # det -1

    def test_inverse(self):
        pose = RigidTransform(rotation_z(1.1), [0.3, -0.2, 0.9])
        pts = random_cloud(20, 5).points
        assert np.abs(pose.inverse().apply(pose.apply(pts)) - pts).max() < 1e-9


def test_nonfinite_points_rejected():
    with pytest.raises(ValueError):
        PointCloud([[0.0, np.inf, 0.0]])
