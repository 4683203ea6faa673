import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from voxelcodec import (bdbr, chamfer, estimate_normals, nearest_neighbor,
                        psnr_plane, psnr_point, rd_from_csv, rd_to_csv)
from voxelcodec.metrics import RDPoint

from conftest import brute_force_chamfer, brute_force_nn, random_cloud


class TestNearestNeighbor:
    def test_exact_match_zero(self):
        ref = random_cloud(50, 0).points
        idx, d2 = nearest_neighbor(ref[13], ref)
        assert idx == 13 and d2 == 0.0

    def test_two_point_example(self):
        ref = np.array([[0, 0, 0], [1, 0, 0]], dtype=float)
        idx, d2 = nearest_neighbor([0.4, 0, 0], ref)
        assert idx == 0
        assert d2 == pytest.approx(0.16)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(1)
        ref = rng.random((1000, 3))
        for q in rng.random((100, 3)):
            idx, d2 = nearest_neighbor(q, ref)
            bidx, bd2 = brute_force_nn(q, ref)
            assert d2 == pytest.approx(bd2, abs=1e-12)
            assert idx == bidx

    def test_tie_breaks_to_lowest_index(self):
        ref = np.array([[1.0, 0, 0], [-1.0, 0, 0], [0, 1.0, 0]])
        idx, d2 = nearest_neighbor([0, 0, 0], ref)
        assert idx == 0 and d2 == pytest.approx(1.0)

    def test_empty_reference(self):
        with pytest.raises(ValueError):
            nearest_neighbor([0, 0, 0], np.empty((0, 3)))


class TestChamfer:
    def test_identical_zero(self):
        cloud = random_cloud(80, 2)
        assert chamfer(cloud, cloud) == 0.0

    def test_closed_form_pair(self):
        assert chamfer(np.array([[0, 0, 0.0]]), np.array([[1, 0, 0.0]])) == pytest.approx(2.0)

    def test_matches_brute_force_500(self):
        rng = np.random.default_rng(3)
        a, b = rng.random((500, 3)), rng.random((500, 3))
        assert chamfer(a, b) == pytest.approx(brute_force_chamfer(a, b), abs=1e-9)

    def test_symmetric_nonnegative(self):
        a, b = random_cloud(60, 4).points, random_cloud(70, 5).points
        assert chamfer(a, b) == pytest.approx(chamfer(b, a))
        assert chamfer(a, b) > 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            chamfer(np.empty((0, 3)), np.ones((2, 3)))


class TestPsnrPoint:
    def test_identical_cap(self):
        cloud = random_cloud(100, 6)
        assert psnr_point(cloud, cloud) == 100.0

    def test_constant_offset_40db(self):
        # co-registered dense grids offset by 0.01 -> MSE 1e-4 -> 40 dB
        g = np.stack(np.meshgrid(*[np.linspace(0.1, 0.9, 12)] * 3, indexing="ij"), -1).reshape(-1, 3)
        shifted = g + np.array([0.01, 0, 0])
        assert psnr_point(shifted, g) == pytest.approx(40.0, abs=1e-9)

    def test_symmetry(self):
        a, b = random_cloud(90, 7).points, random_cloud(110, 8).points
        assert psnr_point(a, b) == pytest.approx(psnr_point(b, a))

    def test_monotone_in_noise(self):
        base = random_cloud(2000, 9).points
        rng = np.random.default_rng(10)
        values = []
        for sigma in (0.001, 0.005, 0.01):
            noisy = base + rng.normal(0, sigma, base.shape)
            values.append(psnr_point(noisy, base))
        assert values[0] > values[1] > values[2]


class TestNormals:
    def test_plane_z0(self):
        rng = np.random.default_rng(11)
        pts = np.c_[rng.random(300), rng.random(300), np.zeros(300)]
        normals = estimate_normals(pts)
        assert np.abs(np.abs(normals[:, 2]) - 1.0).max() < 1e-6
        assert np.abs(normals[:, :2]).max() < 1e-6

    def test_sphere_radial_within_5_degrees(self):
        rng = np.random.default_rng(12)
        u = rng.normal(size=(4000, 3))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        normals = estimate_normals(u)
        cosang = np.abs(np.einsum("ni,ni->n", normals, u))
        assert np.degrees(np.arccos(np.clip(cosang, -1, 1))).max() < 5.0

    def test_unit_norm(self):
        pts = random_cloud(200, 13).points
        normals = estimate_normals(pts)
        assert np.abs(np.linalg.norm(normals, axis=1) - 1.0).max() < 1e-9

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            estimate_normals(np.zeros((5, 3)), k=12)


class TestPsnrPlane:
    def _plane(self, n, seed, z=0.0):
        rng = np.random.default_rng(seed)
        return np.c_[rng.random(n), rng.random(n), np.full(n, z)]

    def test_identical_cap(self):
        pts = self._plane(200, 1)
        n = estimate_normals(pts)
        assert psnr_plane(pts, pts, n, n) == 100.0

    def test_lifted_plane_40db(self):
        a = self._plane(400, 2, z=0.01)
        b = self._plane(400, 3, z=0.0)
        na, nb = estimate_normals(a), estimate_normals(b)
        assert psnr_plane(a, b, na, nb) == pytest.approx(40.0, abs=0.05)

    def test_tangential_slide_beats_point_psnr(self):
        base = self._plane(500, 4)
        slid = base + np.array([0.005, 0.003, 0.0])
        na, nb = estimate_normals(slid), estimate_normals(base)
        assert psnr_plane(slid, base, na, nb) >= psnr_point(slid, base)

    def test_missing_normals(self):
        pts = self._plane(100, 5)
        with pytest.raises(ValueError):
            psnr_plane(pts, pts, None, estimate_normals(pts))


class TestBdbr:
    def _curve(self, scale=1.0):
        quality = np.array([30.0, 34.0, 38.0, 42.0, 46.0])
        bpp = scale * np.array([0.5, 1.1, 2.3, 4.8, 9.5])
        return np.c_[bpp, quality]

    def test_identical_curves_zero(self):
        assert bdbr(self._curve(), self._curve()) == pytest.approx(0.0, abs=1e-9)

    def test_half_rate_minus_50(self):
        assert bdbr(self._curve(), self._curve(0.5)) == pytest.approx(-50.0, abs=0.1)

    def test_antisymmetry_relation(self):
        a, b = self._curve(), self._curve(0.7)
        ab = bdbr(a, b)
        ba = bdbr(b, a)
        assert ab == pytest.approx(-ba / (1 + ba / 100.0), abs=0.1)

    def test_needs_four_points(self):
        short = self._curve()[:3]
        with pytest.raises(ValueError):
            bdbr(short, short)

    def test_needs_overlap(self):
        a = self._curve()
        b = a.copy()
        b[:, 1] += 100.0
        with pytest.raises(ValueError):
            bdbr(a, b)

    def test_non_monotone_bpp_rejected(self):
        a = self._curve()
        a[2, 0] = a[1, 0]
        with pytest.raises(ValueError):
            bdbr(a, self._curve())

    def test_rdpoint_curves(self):
        pts_a = [RDPoint(b, 0.0, q, q) for b, q in self._curve()]
        pts_b = [RDPoint(b / 2, 0.0, q, q) for b, q in self._curve()]
        assert bdbr(pts_a, pts_b) == pytest.approx(-50.0, abs=0.1)


def test_rd_csv_roundtrip():
    pts = [RDPoint(0.5, 1e-4, 40.0, 44.0), RDPoint(1.5, 5e-5, 46.0, 50.0)]
    text = rd_to_csv(pts)
    assert text.splitlines()[0] == "bpp,cd,psnr_d1,psnr_d2"
    back = rd_from_csv(text)
    assert back[0].bpp == pytest.approx(0.5)
    assert back[1].psnr_d2 == pytest.approx(50.0)
    with pytest.raises(ValueError):
        rd_from_csv("1,2,3\n")


_NO_SCIPY_SCRIPT = """
import sys
import numpy as np
import voxelcodec as vc
model = vc.AdaptiveContextModel(12)
cloud = vc.PointCloud(np.random.default_rng(0).random((300, 3)))
assert len(vc.decode_cloud(vc.encode_cloud(cloud, 6, 5, model), model)) > 0
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_codec_does_not_load_scipy():
    """`import voxelcodec`, one encode and one decode leave scipy, and so
    `scipy.spatial`, unloaded: the metrics import cKDTree on first use."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
