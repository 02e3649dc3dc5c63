"""Geodesic curves of subspaces and their orthonormal-basis parameterization.

A rank-k geodesic on the Grassmannian of k-dimensional subspaces of R^d is
parameterized by a base basis H (d x k), a tangent direction basis Y (d x k)
with H^T Y = 0, and k signed angles theta, via

    U(t) = H diag(cos(theta * t)) + Y diag(sin(theta * t)).

Both bases have orthonormal columns, which together with the tangency
constraint makes U(t) orthonormal for every t.  Only the span of U(t)
matters, so the parameterization is unique only up to column permutations
and joint sign flips of (Y column, angle); `canonicalize` fixes one
representative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotOrthonormal, NotTangent, check_count, check_setting

# Construction-time validation tolerance; internal assertions use 1e-10.
ORTHO_TOL = 1e-8

# Angles at or below this are treated as zero in `connect`: the direction
# column is then unidentifiable from data and is filled by completion.
_TINY_ANGLE = 1e-9


def gram_defect(basis: np.ndarray) -> float:
    """Max-abs deviation of basis^T basis from the identity."""
    b = np.asarray(basis, dtype=float)
    g = b.T @ b
    return float(np.max(np.abs(g - np.eye(b.shape[1]))))


def require_basis(basis: np.ndarray, what: str = "basis") -> np.ndarray:
    """Validate a d x r matrix with orthonormal columns (to ORTHO_TOL) and return it as float64."""
    b = np.asarray(basis, dtype=float)
    if b.ndim != 2:
        raise DimensionMismatch(f"{what} must be a 2-D matrix, got ndim={b.ndim}")
    if b.shape[1] < 1 or b.shape[0] < b.shape[1]:
        raise DimensionMismatch(f"{what} must be tall with at least one column, got shape {b.shape}")
    if not np.all(np.isfinite(b)):
        raise NotOrthonormal(f"{what} has non-finite entries")
    _check_defect(what, gram_defect(b))
    return b


def _check_defect(what: str, defect: float) -> None:
    if not defect <= ORTHO_TOL:
        raise NotOrthonormal(f"{what} columns are not orthonormal (defect {defect:.3e} > {ORTHO_TOL:.1e})")


def orthonormalize(matrix: np.ndarray) -> np.ndarray:
    """Orthonormalize columns by QR with non-negative diagonal of R.

    The sign convention removes the factorization ambiguity so random draws
    are reproducible across runs given the same input.
    """
    q, r = np.linalg.qr(np.asarray(matrix, dtype=float))
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs


def orthonormal_complement(basis: np.ndarray, count: int) -> np.ndarray:
    """Return `count` orthonormal columns orthogonal to span(basis)."""
    b = np.asarray(basis, dtype=float)
    d, p = b.shape
    if count > d - p:
        raise DimensionMismatch(f"complement of dimension {count} does not fit in {d - p} directions")
    full, _, _ = np.linalg.svd(b, full_matrices=True)
    return _largest_entry_positive(full[:, p : p + count])


def principal_basis(matrix: np.ndarray, rank: int) -> np.ndarray:
    """Top-`rank` left singular vectors with a deterministic sign convention."""
    a = np.asarray(matrix, dtype=float)
    u, _, _ = np.linalg.svd(a, full_matrices=False)
    return _largest_entry_positive(u[:, :rank])


def _largest_entry_positive(columns: np.ndarray) -> np.ndarray:
    """Flip each column so its largest-magnitude entry is positive.

    Fixes the sign of singular vectors for reproducibility; the span is
    unaffected.
    """
    idx = np.argmax(np.abs(columns), axis=0)
    signs = np.sign(columns[idx, np.arange(columns.shape[1])])
    signs[signs == 0] = 1.0
    return columns * signs


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float)
    out.flags.writeable = False
    return out


def _path(H: np.ndarray, Y: np.ndarray, theta: np.ndarray, times) -> np.ndarray:
    """H cos(theta t) + Y sin(theta t) for each t of `times`, shape (len(times), rows, k).

    H and Y may be written in any orthonormal coordinates, not only the
    ambient ones.
    """
    a = np.multiply.outer(np.asarray(times, dtype=float), theta)
    return H[None, :, :] * np.cos(a)[:, None, :] + Y[None, :, :] * np.sin(a)[:, None, :]


@dataclass(frozen=True)
class GeodesicModel:
    """Immutable (H, Y, theta) triple describing a subspace geodesic.

    H, Y are d x k with orthonormal columns and H^T Y = 0; theta holds the k
    finite signed angles (radians of arc swept per unit time).  Validation
    happens at construction, so any held instance satisfies the invariants.
    """

    H: np.ndarray
    Y: np.ndarray
    theta: np.ndarray

    def __post_init__(self) -> None:
        H = np.asarray(self.H, dtype=float)
        Y = np.asarray(self.Y, dtype=float)
        theta = np.atleast_1d(np.asarray(self.theta, dtype=float))
        if H.ndim != 2 or Y.ndim != 2:
            raise DimensionMismatch("H and Y must be 2-D matrices")
        if H.shape != Y.shape:
            raise DimensionMismatch(f"H and Y must share a shape, got {H.shape} vs {Y.shape}")
        d, k = H.shape
        if 2 * k > d:
            raise DimensionMismatch(f"need 2k <= d, got k={k}, d={d}")
        if theta.shape != (k,):
            raise DimensionMismatch(f"theta must have shape ({k},), got {theta.shape}")
        if not np.all(np.isfinite(theta)):
            raise ValueError("theta must be finite")
        q = np.concatenate([H, Y], axis=1)
        if k < 1 or not np.all(np.isfinite(q)):
            # Each of these raises on the first fault, in the order below.
            require_basis(H, "H")
            require_basis(Y, "Y")
        # One Gram of [H Y] holds H^T H, Y^T Y and H^T Y.
        offset = np.abs(q.T @ q - np.eye(2 * k))
        _check_defect("H", float(np.max(offset[:k, :k])))
        _check_defect("Y", float(np.max(offset[k:, k:])))
        cross = float(np.max(offset[:k, k:]))
        if not cross <= ORTHO_TOL:
            raise NotTangent(f"H^T Y != 0 (max-abs {cross:.3e} > {ORTHO_TOL:.1e})")
        object.__setattr__(self, "H", _freeze(H))
        object.__setattr__(self, "Y", _freeze(Y))
        object.__setattr__(self, "theta", _freeze(theta))

    @property
    def d(self) -> int:
        return self.H.shape[0]

    @property
    def k(self) -> int:
        return self.H.shape[1]

    def evaluate(self, t: float) -> np.ndarray:
        """Orthonormal basis U(t) = H cos(theta t) + Y sin(theta t), shape d x k."""
        a = self.theta * t
        return self.H * np.cos(a) + self.Y * np.sin(a)

    def evaluate_path(self, times: np.ndarray) -> np.ndarray:
        """Stack of bases over `times`, shape (len(times), d, k)."""
        return _path(self.H, self.Y, self.theta, times)

    def canonicalize(self) -> GeodesicModel:
        """Equivalent model with theta >= 0, sorted descending.

        Signs are absorbed into Y columns and columns permuted jointly, so
        the projector path U(t) U(t)^T is unchanged for every t.
        """
        theta = self.theta.copy()
        Y = self.Y.copy()
        neg = theta < 0
        theta[neg] = -theta[neg]
        Y[:, neg] = -Y[:, neg]
        order = np.argsort(-theta, kind="stable")
        return GeodesicModel(self.H[:, order], Y[:, order], theta[order])


def connect(U_start: np.ndarray, U_end: np.ndarray) -> GeodesicModel:
    """Geodesic running from span(U_start) at t=0 to span(U_end) at t=1.

    Uses the principal-angle construction: the thin SVD of U_start^T U_end
    yields rotations aligning the two bases and singular values cos(theta);
    the direction basis comes from normalizing the projected difference of
    the aligned end basis.  Angles lie in [0, pi/2].  Coincident directions
    (theta ~ 0) get direction columns from an orthonormal completion, which
    the construction leaves free.
    """
    U0 = require_basis(U_start, "U_start")
    U1 = require_basis(U_end, "U_end")
    if U0.shape != U1.shape:
        raise DimensionMismatch(f"endpoint shapes differ: {U0.shape} vs {U1.shape}")
    d, k = U0.shape
    if 2 * k > d:
        raise DimensionMismatch(f"need 2k <= d to connect, got k={k}, d={d}")

    rot0, cosines, rot1t = np.linalg.svd(U0.T @ U1)
    cosines = np.clip(cosines, 0.0, 1.0)
    H = U0 @ rot0
    aligned_end = U1 @ rot1t.T
    # Projected difference; a second projection pass keeps the columns
    # orthogonal to span(U0) even when the raw difference is tiny.
    G = aligned_end - U0 @ (U0.T @ aligned_end)
    G -= U0 @ (U0.T @ G)
    # The column norms recover sin(theta) to machine precision, so small
    # angles are far more accurate than arccos of the singular values.
    theta = np.arctan2(np.linalg.norm(G, axis=0), cosines)

    keep = theta > _TINY_ANGLE
    theta = np.where(keep, theta, 0.0)
    Y = np.zeros_like(H)
    if np.any(keep):
        cols = G[:, keep] / np.linalg.norm(G[:, keep], axis=0)
        # QR repairs the mutual orthogonality lost to rounding when several
        # angles are small; its positive-diagonal convention keeps each
        # column aligned with its normalized input.
        Y[:, keep] = orthonormalize(cols)
    if np.any(~keep):
        Y[:, ~keep] = orthonormal_complement(np.concatenate([U0, Y[:, keep]], axis=1), int(np.sum(~keep)))
    return GeodesicModel(H, Y, theta)


def random_geodesic(d: int, k: int, theta_max: float, seed=None) -> GeodesicModel:
    """Draw a random geodesic: Gaussian bases, angles uniform in [-theta_max, theta_max].

    A d x 2k standard Gaussian matrix is orthonormalized (QR with sign
    convention) and split into H and Y.  Deterministic under a fixed seed;
    `seed` may be an int or a numpy Generator.
    """
    check_count("k", k, 1)
    check_count("d", d, 1)
    if 2 * k > d:
        raise DimensionMismatch(f"need 2k <= d, got k={k}, d={d}")
    check_setting("theta_max", theta_max, 0, np.pi / 2)
    rng = np.random.default_rng(seed)
    q = orthonormalize(rng.standard_normal((d, 2 * k)))
    theta = rng.uniform(-theta_max, theta_max, size=k)
    return GeodesicModel(q[:, :k], q[:, k:], theta)
