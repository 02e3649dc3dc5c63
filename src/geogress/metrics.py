"""Error metrics: subspace distance, geodesic-path distance, data error, PSNR."""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatch, check_count
from .geodesic import GeodesicModel, _path

DEFAULT_QUADRATURE = 201


def _outside_span(U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """U - V (V^T U), the part of U outside span V; stacks of bases (..., d, k) go pairwise."""
    return U - np.matmul(V, np.matmul(np.swapaxes(V, -1, -2), U))


def subspace_error(U: np.ndarray, V: np.ndarray) -> float:
    """Normalized projector distance (1/sqrt(2k)) ||U U^T - V V^T||_F in [0, 1].

    Computed without forming d x d projectors via
    ||U U^T - V V^T||_F^2 = 2k - 2 ||U^T V||_F^2 = 2 ||U - V (V^T U)||_F^2;
    the residual form on the right avoids the cancellation that would other-
    wise floor the value near sqrt(eps) for nearly equal spans.
    """
    U = np.asarray(U, dtype=float)
    V = np.asarray(V, dtype=float)
    if U.shape != V.shape:
        raise DimensionMismatch(f"bases must share a shape, got {U.shape} vs {V.shape}")
    if U.ndim != 2 or U.shape[1] == 0:
        raise DimensionMismatch(f"bases must be d x k matrices with k >= 1, got shape {U.shape}")
    k = U.shape[1]
    resid = _outside_span(U, V)
    return math.sqrt(float(np.sum(resid * resid)) / k)


def geodesic_error(m1: GeodesicModel, m2: GeodesicModel, n_quad: int = DEFAULT_QUADRATURE) -> float:
    """Root-mean-square subspace error between two geodesics over [0, 1].

    The integral is approximated on a uniform grid of n_quad points
    including both endpoints.  Both paths stay inside the span of
    Z = [H1 Y1 H2 Y2], and the subspace error is the same in any
    orthonormal basis of that span (Edelman, Arias & Smith 1998).  So the
    paths are evaluated in the coordinates Q^T Z, where Z = QR is one thin
    QR factorisation: min(d, 4k) rows instead of d.  The error at each
    grid point takes the residual form of `subspace_error`, batched over
    the grid.
    """
    if (m1.d, m1.k) != (m2.d, m2.k):
        raise DimensionMismatch(f"models differ in (d, k): ({m1.d}, {m1.k}) vs ({m2.d}, {m2.k})")
    check_count("n_quad", n_quad, 2)
    k = m1.k
    grid = np.linspace(0.0, 1.0, n_quad)
    z = np.concatenate([m1.H, m1.Y, m2.H, m2.Y], axis=1)
    coords = np.linalg.qr(z)[0].T @ z
    p1 = _path(coords[:, :k], coords[:, k : 2 * k], m1.theta, grid)
    p2 = _path(coords[:, 2 * k : 3 * k], coords[:, 3 * k :], m2.theta, grid)
    resid = _outside_span(p1, p2)
    err_sq = np.sum(resid * resid, axis=(1, 2)) / k
    return math.sqrt(float(np.mean(err_sq)))


def data_error(reconstructed, clean) -> float:
    """Stacked residual norm between reconstructions and clean data, relative
    to the clean-data norm (undefined, and rejected, when that norm is zero)."""
    if len(reconstructed) != len(clean):
        raise DimensionMismatch("sample counts differ")
    if len(clean) == 0:
        raise DimensionMismatch("data_error needs at least one sample")
    num = 0.0
    den = 0.0
    for xr, xc in zip(reconstructed, clean):
        xr = np.asarray(xr, dtype=float)
        xc = np.asarray(xc, dtype=float)
        if xr.shape != xc.shape:
            raise DimensionMismatch(f"sample shapes differ: {xr.shape} vs {xc.shape}")
        num += float(np.sum((xr - xc) ** 2))
        den += float(np.sum(xc * xc))
    if den == 0.0:
        raise ValueError("the clean data has zero norm, so the relative error is undefined")
    return math.sqrt(num) / math.sqrt(den)


def psnr(reconstructed: np.ndarray, clean: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB on the 0-255 pixel scale.

    20 log10(255 / RMSE) with RMSE = ||clean - reconstructed||_F / sqrt(d ell);
    returns +inf for an exact reconstruction.
    """
    xr = np.asarray(reconstructed, dtype=float)
    xc = np.asarray(clean, dtype=float)
    if xr.shape != xc.shape:
        raise DimensionMismatch(f"frame shapes differ: {xr.shape} vs {xc.shape}")
    if xc.size == 0:
        raise DimensionMismatch(f"frames must hold at least one pixel, got shape {xc.shape}")
    rmse = math.sqrt(float(np.mean((xc - xr) ** 2)))
    if rmse == 0.0:
        return math.inf
    return 20.0 * math.log10(255.0 / rmse)
