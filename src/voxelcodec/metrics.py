"""Rate-distortion metrics: Chamfer distance, point-to-point / point-to-plane
PSNR, normal estimation, and Bjontegaard delta bitrate between RD curves.

Conventions (stated here so numbers are comparable across tools): Chamfer is
the symmetric sum of mean squared nearest-neighbour distances; PSNR uses the
max of the two directional mean squared errors with peak p^2/MSE and no extra
constant factor, capped at 100 dB for identical clouds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PSNR_CAP_DB = 100.0


def _kdtree(points):
    """A scipy `cKDTree` over points. scipy is imported on the first call, so
    importing the package, encoding and decoding never load it."""
    from scipy.spatial import cKDTree
    return cKDTree(points)


def _points(cloud):
    pts = getattr(cloud, "points", cloud)
    return np.asarray(pts, dtype=np.float64)


def nearest_neighbor(query, reference):
    """Exact nearest neighbour of one query point; ties break to the lowest index.

    Returns (index, squared distance).
    """
    ref = _points(reference)
    if len(ref) == 0:
        raise ValueError("empty reference cloud")
    q = np.asarray(query, dtype=np.float64).reshape(3)
    tree = _kdtree(ref)
    d, idx = tree.query(q)
    ties = tree.query_ball_point(q, r=d)
    idx = min(ties) if ties else int(idx)
    d2 = float(((ref[idx] - q) ** 2).sum())
    return int(idx), d2


def _nn_sq_dists(a, b):
    """Squared distance from each point of a to its nearest neighbour in b."""
    d, _ = _kdtree(b).query(a, workers=1)
    return d ** 2


def chamfer(a, b) -> float:
    """Symmetric sum of mean squared nearest-neighbour distances."""
    pa, pb = _points(a), _points(b)
    if len(pa) == 0 or len(pb) == 0:
        raise ValueError("chamfer distance needs two non-empty clouds")
    return float(_nn_sq_dists(pa, pb).mean() + _nn_sq_dists(pb, pa).mean())


def psnr_point(a, b, peak=1.0) -> float:
    """Point-to-point geometry PSNR (D1), max of the directional MSEs."""
    pa, pb = _points(a), _points(b)
    if len(pa) == 0 or len(pb) == 0:
        raise ValueError("psnr needs two non-empty clouds")
    mse = max(float(_nn_sq_dists(pa, pb).mean()), float(_nn_sq_dists(pb, pa).mean()))
    if mse == 0.0:
        return PSNR_CAP_DB
    return min(10.0 * np.log10(peak * peak / mse), PSNR_CAP_DB)


def estimate_normals(cloud, k=12) -> np.ndarray:
    """Unit normals from the least eigenvector of each point's k-NN covariance.

    Sign is unspecified; the point-to-plane metric squares the projection.
    """
    pts = _points(cloud)
    if len(pts) < k + 1:
        raise ValueError(f"need at least {k + 1} points to estimate normals with k={k}")
    tree = _kdtree(pts)
    _, idx = tree.query(pts, k=k + 1, workers=1)   # includes the point itself
    neigh = pts[idx]
    centered = neigh - neigh.mean(axis=1, keepdims=True)
    cov = np.einsum("nki,nkj->nij", centered, centered, optimize=False)
    _, vecs = np.linalg.eigh(cov)
    normals = vecs[:, :, 0]
    return normals / np.linalg.norm(normals, axis=1, keepdims=True)


def _plane_sq_errors(src, ref, ref_normals):
    d, idx = _kdtree(ref).query(src, workers=1)
    err = src - ref[idx]
    return np.einsum("ni,ni->n", err, ref_normals[idx], optimize=False) ** 2


def psnr_plane(a, b, a_normals, b_normals, peak=1.0) -> float:
    """Point-to-plane geometry PSNR (D2): NN error projected on reference normals."""
    pa, pb = _points(a), _points(b)
    if a_normals is None or b_normals is None:
        raise ValueError("point-to-plane PSNR needs normals on both clouds")
    mse = max(float(_plane_sq_errors(pa, pb, np.asarray(b_normals)).mean()),
              float(_plane_sq_errors(pb, pa, np.asarray(a_normals)).mean()))
    if mse == 0.0:
        return PSNR_CAP_DB
    return min(10.0 * np.log10(peak * peak / mse), PSNR_CAP_DB)


# ---------------------------------------------------------------------------
# rate-distortion curves


@dataclass
class RDPoint:
    """One operating point: rate in bits per input point plus quality readings."""
    bpp: float
    cd: float = float("nan")
    psnr_d1: float = float("nan")
    psnr_d2: float = float("nan")
    depth: int = 0

    def quality(self, metric="psnr_d1"):
        return getattr(self, metric)


def rd_to_csv(points) -> str:
    lines = ["bpp,cd,psnr_d1,psnr_d2"]
    for p in points:
        lines.append(f"{p.bpp:.6f},{p.cd:.6g},{p.psnr_d1:.4f},{p.psnr_d2:.4f}")
    return "\n".join(lines) + "\n"


def rd_from_csv(text: str):
    rows = [r.strip() for r in text.strip().splitlines()]
    if not rows or not rows[0].startswith("bpp"):
        raise ValueError("RD CSV must start with a 'bpp,...' header row")
    points = []
    for row in rows[1:]:
        vals = [float(v) for v in row.split(",")]
        points.append(RDPoint(*vals[:4]))
    return points


def _as_rate_quality(curve, metric):
    if len(curve) and isinstance(curve[0], RDPoint):
        rate = np.array([p.bpp for p in curve])
        qual = np.array([p.quality(metric) for p in curve])
    else:
        arr = np.asarray(curve, dtype=np.float64)
        rate, qual = arr[:, 0], arr[:, 1]
    return rate, qual


def bdbr(anchor, test, metric="psnr_d1") -> float:
    """Bjontegaard delta bitrate of `test` against `anchor`, in percent.

    Curves are sequences of RDPoints or (bpp, quality) rows, at least 4 each
    with strictly increasing bpp. Cubic polynomials of log10(bpp) over quality
    are integrated across the overlapping quality range; negative means the
    test codec saves rate at equal quality.
    """
    ra, qa = _as_rate_quality(anchor, metric)
    rt, qt = _as_rate_quality(test, metric)
    for name, r in (("anchor", ra), ("test", rt)):
        if len(r) < 4:
            raise ValueError(f"{name} curve needs at least 4 points for the cubic fit")
        if np.any(np.diff(r) <= 0):
            raise ValueError(f"{name} curve must have strictly increasing bpp")
    lo = max(qa.min(), qt.min())
    hi = min(qa.max(), qt.max())
    if not hi > lo:
        raise ValueError("curves have no overlapping quality range")
    fit_a = np.polyfit(qa, np.log10(ra), 3)
    fit_t = np.polyfit(qt, np.log10(rt), 3)
    int_a = np.polyval(np.polyint(fit_a), hi) - np.polyval(np.polyint(fit_a), lo)
    int_t = np.polyval(np.polyint(fit_t), hi) - np.polyval(np.polyint(fit_t), lo)
    avg_diff = (int_t - int_a) / (hi - lo)
    return float((10.0 ** avg_diff - 1.0) * 100.0)
