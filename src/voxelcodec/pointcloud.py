"""Point cloud containers, file I/O (PLY / XYZ), unit-cube normalization and rigid poses."""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np


class ParseError(ValueError):
    """Malformed point cloud file. Carries the byte offset where parsing failed."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


@dataclass(frozen=True)
class RigidTransform:
    """Rotation + translation, p -> R @ p + t. Rotation must be proper orthonormal."""

    rotation: np.ndarray    # (3, 3)
    translation: np.ndarray  # (3,)

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=np.float64).reshape(3, 3)
        t = np.asarray(self.translation, dtype=np.float64).reshape(3)
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)
        if not np.allclose(r.T @ r, np.eye(3), atol=1e-6):
            raise ValueError("rotation is not orthonormal")
        if abs(np.linalg.det(r) - 1.0) > 1e-6:
            raise ValueError("rotation determinant is not +1")

    def apply(self, points):
        return np.asarray(points, dtype=np.float64) @ self.rotation.T + self.translation

    def inverse(self):
        return RigidTransform(self.rotation.T, -self.rotation.T @ self.translation)


@dataclass(frozen=True)
class NormalizationParams:
    """Cubic bounding box: origin corner plus a single edge length (cells stay cubes)."""

    origin: np.ndarray  # (3,)
    edge: float

    def __post_init__(self):
        object.__setattr__(self, "origin", np.asarray(self.origin, dtype=np.float64).reshape(3))
        object.__setattr__(self, "edge", float(self.edge))
        if not self.edge > 0:
            raise ValueError("edge must be positive")

    @classmethod
    def identity(cls):
        return cls(np.zeros(3), 1.0)

    def apply(self, points):
        return (np.asarray(points, dtype=np.float64) - self.origin) / self.edge

    def invert(self, points):
        return np.asarray(points, dtype=np.float64) * self.edge + self.origin


@dataclass
class PointCloud:
    """An ordered set of 3D points with an optional rigid pose."""

    points: np.ndarray = field(default_factory=lambda: np.empty((0, 3)))
    pose: RigidTransform | None = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.size == 0:
            pts = pts.reshape(0, 3)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError(f"points must have shape (n, 3), got {pts.shape}")
        if not np.isfinite(pts).all():
            raise ValueError("points contain non-finite coordinates")
        self.points = pts

    def __len__(self):
        return self.points.shape[0]


def apply_pose(cloud: PointCloud) -> PointCloud:
    """Move the cloud into the shared coordinate system; the pose is consumed."""
    if cloud.pose is None:
        raise ValueError("cloud has no pose")
    return PointCloud(cloud.pose.apply(cloud.points), pose=None)


def normalize(cloud: PointCloud) -> tuple[PointCloud, NormalizationParams]:
    """Scale into the unit cube using a cubic bounding box.

    origin is the componentwise minimum, the edge is the largest axis extent
    (1.0 for a fully degenerate cloud), so output coordinates land in [0, 1]^3.
    """
    if len(cloud) == 0:
        raise ValueError("cannot normalize an empty cloud")
    origin = cloud.points.min(axis=0)
    edge = float((cloud.points.max(axis=0) - origin).max())
    if edge == 0.0:
        edge = 1.0
    params = NormalizationParams(origin, edge)
    return PointCloud(params.apply(cloud.points), pose=cloud.pose), params


# ---------------------------------------------------------------------------
# File formats: PLY (ascii / binary_little_endian) and XYZ text.
# Only vertex positions are read; every other attribute is skipped.

PLY_ASCII = "ply-ascii"
PLY_BINARY = "ply-binary"
XYZ = "xyz"

_PLY_TYPES = {
    "char": "b", "int8": "b", "uchar": "B", "uint8": "B",
    "short": "h", "int16": "h", "ushort": "H", "uint16": "H",
    "int": "i", "int32": "i", "uint": "I", "uint32": "I",
    "float": "f", "float32": "f", "double": "d", "float64": "d",
}


def _parse_ply_header(data: bytes):
    """Return (fmt, vertex_count, properties, payload_offset)."""
    if not data.startswith(b"ply"):
        raise ParseError("missing 'ply' magic", 0)
    offset = 0
    fmt = None
    vertex_count = None
    properties = []   # (name, struct char) for the vertex element only
    in_vertex = False
    seen_end = False
    while offset < len(data):
        nl = data.find(b"\n", offset)
        if nl < 0:
            raise ParseError("header not terminated by end_header", offset)
        line = data[offset:nl].strip().decode("ascii", errors="replace")
        line_off = offset
        offset = nl + 1
        tokens = line.split()
        if not tokens or tokens[0] == "comment":
            continue
        if tokens[0] == "ply":
            continue
        if tokens[0] == "format":
            if len(tokens) < 2:
                raise ParseError("format line names no format", line_off)
            if tokens[1] == "ascii":
                fmt = PLY_ASCII
            elif tokens[1] == "binary_little_endian":
                fmt = PLY_BINARY
            else:
                raise ParseError(f"unsupported PLY format '{tokens[1]}'", line_off)
        elif tokens[0] == "element":
            in_vertex = tokens[1:2] == ["vertex"]
            if in_vertex == (vertex_count is not None):   # the payload is read as vertices
                raise ParseError("the vertex element must come first, and once", line_off)
            if in_vertex:
                try:
                    vertex_count = int(tokens[2])
                except (IndexError, ValueError):
                    raise ParseError("bad vertex element line", line_off) from None
        elif tokens[0] == "property" and in_vertex:
            if tokens[1:2] == ["list"]:
                raise ParseError("list property in vertex element is unsupported", line_off)
            if len(tokens) < 3:
                raise ParseError("property line needs a type and a name", line_off)
            if tokens[1] not in _PLY_TYPES:
                raise ParseError(f"unknown property type '{tokens[1]}'", line_off)
            properties.append((tokens[2], _PLY_TYPES[tokens[1]]))
        elif tokens[0] == "end_header":
            seen_end = True
            break
    if not seen_end:
        raise ParseError("header not terminated by end_header", offset)
    if fmt is None:
        raise ParseError("PLY header has no format line", 0)
    if vertex_count is None:
        raise ParseError("PLY header has no vertex element", 0)
    names = [p[0] for p in properties]
    if vertex_count > 0 and any(axis not in names for axis in "xyz"):
        raise ParseError("vertex element lacks x/y/z properties", 0)
    return fmt, vertex_count, properties, offset


def _read_ply(data: bytes) -> PointCloud:
    fmt, count, props, offset = _parse_ply_header(data)
    if count == 0:
        return PointCloud()
    names = [p[0] for p in props]
    xyz_cols = [names.index(a) for a in "xyz"]
    if fmt == PLY_ASCII:
        rows = []
        pos = offset
        for i in range(count):
            nl = data.find(b"\n", pos)
            line = data[pos:nl] if nl >= 0 else data[pos:]
            fields = line.split()
            if len(fields) < len(props):
                raise ParseError(f"vertex row {i} truncated", pos)
            try:
                rows.append([float(fields[c]) for c in xyz_cols])
            except ValueError:
                raise ParseError(f"bad numeric field in vertex row {i}", pos) from None
            if nl < 0 and i != count - 1:
                raise ParseError("payload ended early", len(data))
            pos = nl + 1
        points = np.asarray(rows, dtype=np.float64)
    else:
        rec = struct.Struct("<" + "".join(ch for _, ch in props))
        need = offset + rec.size * count
        if len(data) < need:
            raise ParseError(f"binary payload truncated, need {need} bytes", len(data))
        raw = np.frombuffer(data, dtype=np.dtype([(f"f{i}", "<" + ch) for i, (_, ch) in enumerate(props)]),
                            count=count, offset=offset)
        points = np.stack([raw[f"f{c}"].astype(np.float64) for c in xyz_cols], axis=1)
    if not np.isfinite(points).all():
        bad = int(np.argwhere(~np.isfinite(points))[0][0])
        raise ParseError(f"non-finite coordinate in vertex row {bad}", offset)
    return PointCloud(points)


def _read_xyz(data: bytes) -> PointCloud:
    rows = []
    pos = 0
    lineno = 0
    for raw_line in data.splitlines(keepends=True):
        line = raw_line.strip()
        lineno += 1
        if line:
            fields = line.split()
            if len(fields) < 3:
                raise ParseError(f"line {lineno} has fewer than 3 fields", pos)
            try:
                rows.append([float(v) for v in fields[:3]])
            except ValueError:
                raise ParseError(f"bad numeric field on line {lineno}", pos) from None
        pos += len(raw_line)
    points = np.asarray(rows, dtype=np.float64) if rows else np.empty((0, 3))
    if points.size and not np.isfinite(points).all():
        raise ParseError("non-finite coordinate", 0)
    return PointCloud(points)


def read_points(data: bytes, fmt: str) -> PointCloud:
    """Parse a point cloud from raw bytes in one of PLY_ASCII, PLY_BINARY and
    XYZ; a PLY file's own header says whether it is ASCII or binary."""
    if fmt in (PLY_ASCII, PLY_BINARY):
        return _read_ply(data)
    if fmt == XYZ:
        return _read_xyz(data)
    raise ValueError(f"unknown format {fmt!r}")


def write_points(cloud: PointCloud, fmt: str) -> bytes:
    """Serialize a cloud; PLY stores coordinates as 32-bit floats, XYZ as full-precision text."""
    pts = cloud.points
    if fmt == PLY_ASCII or fmt == PLY_BINARY:
        kind = "ascii" if fmt == PLY_ASCII else "binary_little_endian"
        header = (
            "ply\n"
            f"format {kind} 1.0\n"
            f"element vertex {len(pts)}\n"
            "property float x\n"
            "property float y\n"
            "property float z\n"
            "end_header\n"
        ).encode("ascii")
        f32 = pts.astype(np.float32)
        if fmt == PLY_ASCII:
            body = "".join(f"{x:.9g} {y:.9g} {z:.9g}\n" for x, y, z in f32)
            return header + body.encode("ascii")
        return header + f32.astype("<f4").tobytes()
    if fmt == XYZ:
        return "".join(f"{x:.17g} {y:.17g} {z:.17g}\n" for x, y, z in pts).encode("ascii")
    raise ValueError(f"unknown format {fmt!r}")


def guess_format(path: str) -> str:
    return XYZ if str(path).lower().endswith(".xyz") else PLY_BINARY


def load(path: str) -> PointCloud:
    with open(path, "rb") as fh:
        data = fh.read()
    return read_points(data, guess_format(path))

