"""Geodesic fitting by monotone block-coordinate descent.

The objective is the projection residual

    loss(H, Y, theta) = sum_i || X_i - U(t_i) U(t_i)^T X_i ||_F^2,

i.e. the least-squares misfit after eliminating the optimal per-sample
loading matrices.  Each outer iteration performs two majorize-minimize
steps, neither of which can increase the loss:

1. (H, Y) jointly: minimize a linear surrogate over d x 2k matrices with
   orthonormal columns.  The minimizer is the orthogonal polar factor
   W V^T of the weighted data-projection sum (an orthogonal Procrustes
   solution via one thin SVD).
2. theta, one angle at a time: the loss restricted to a single angle is a
   sum over samples of shifted cosines
       f_i(x) = -r_i cos(2 x t_i - phi_i) + b_i,
   each of which admits a quadratic majorizer with the classic sinc-type
   curvature weight 4 t_i^2 r_i sin(a)/a, where a = 2 x t_i - phi_i is
   wrapped to [-pi, pi]; one sine of a gives both this weight and the
   derivative 2 r_i t_i sin(a).  The summed majorizer has a closed-form
   minimizer.

Samples at t_i = 0 contribute a term constant in theta (their curvature
weight is undefined), so they are excluded from the angle sums.  Negative
times, which arise when the time axis is recentered, are folded back to
positive ones through the identity f(x; t, phi) = f(x; -t, -phi).

3. Near the parameter-counting edge N = 2k (N data columns in all), the two
   blocks are strongly coupled and block descent crawls along an
   ill-conditioned valley.  For data with N <= 8k columns (and k <= 22)
   each outer iteration whose block updates removed less than half of the
   loss therefore also tries one Levenberg-Marquardt step on the stacked
   residual, in a chart of the rotations within span [H Y] and the angles:
   2k^2 unknowns, retracted by a 2k x 2k polar factor (Edelman, Arias &
   Smith 1998; Absil, Mahony & Sepulchre 2008).  Moving the span itself is
   left to step 1, which runs just before.  The step is kept only when its
   loss is not above the block iterate's, so the loss still never
   increases; everywhere else the iterates are those of steps 1-2.
   Block descent also crawls past 8k columns at low noise; the bound is
   where the fits the acceptance criteria were set on begin (see
   `_EDGE_COLUMNS_PER_RANK`), not where the step stops helping.

The loss is a sum over data columns, so every dataset, ragged or not, is
handled as one d x N column stack with a time per column (`_Columns`):
the loss, both block updates, the step of 3. and the public functions
built on them share that one kernel.  Its `evaluate` returns one record
per point (`_Point`), which `fit` carries from iterate to iterate and the
step linearises at.  The residual is formed explicitly, in one d x N
workspace allocated with the stack.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass
from math import ceil

import numpy as np

from .dataset import Dataset
from .errors import DimensionMismatch, InitFailure, NonpositiveTime, RankCollapseWarning
from .geodesic import GeodesicModel, connect, principal_basis, random_geodesic

_TINY = np.finfo(float).tiny
_TWO_PI = 2.0 * np.pi
# Angle MM steps per outer iteration; any count >= 1 keeps the loss monotone.
_ANGLE_MM_STEPS = 5


# ---------------------------------------------------------------------------
# Initialization strategies


@dataclass(frozen=True)
class RandomInit:
    """Start from a random geodesic of the given rank."""

    k: int
    theta_max: float = np.pi / 4
    seed: int | None = None


@dataclass(frozen=True)
class EndpointsInit:
    """Start from the geodesic connecting coarse endpoint subspace estimates."""

    k: int
    pool_fraction: float = 0.25


@dataclass(frozen=True)
class ProvidedInit:
    """Start from a caller-supplied model."""

    model: GeodesicModel


InitStrategy = RandomInit | EndpointsInit | ProvidedInit


@dataclass(frozen=True)
class EstimatorConfig:
    """Iteration budgets, stopping tolerance, initialization, optional recentering.

    `inner_basis_iters` repeats the (H, Y) Procrustes step within each outer
    iteration; every repetition is itself a descent step, so monotonicity is
    unaffected.  The default of 1 is the plain alternation; larger values
    relax the basis block closer to its conditional optimum, which speeds up
    the strongly coupled regime near the sample-complexity boundary.
    """

    init: InitStrategy
    outer_iters: int = 200
    inner_basis_iters: int = 1
    rel_loss_tol: float = 1e-10
    time_center: float | None = None

    def __post_init__(self) -> None:
        if self.outer_iters < 1:
            raise ValueError("outer_iters must be >= 1")
        if self.inner_basis_iters < 1:
            raise ValueError("inner_basis_iters must be >= 1")
        if self.rel_loss_tol < 0:
            raise ValueError("rel_loss_tol must be >= 0")
        if isinstance(self.init, EndpointsInit) and not 0.0 < self.init.pool_fraction <= 0.5:
            raise ValueError("pool_fraction must lie in (0, 0.5]")
        if self.time_center is not None and not 0.0 <= self.time_center <= 1.0:
            raise ValueError("time_center must lie in [0, 1]")


@dataclass(frozen=True)
class FitReport:
    """Outcome of a fit: final model plus the per-outer-iteration loss trail.

    `loss_per_outer_iter[0]` is the loss of the initial model; subsequent
    entries follow each outer iteration and are non-increasing up to
    floating-point slack.  `stop_reason` says why the fit ended:
    "tolerance" (the relative decrease fell below `rel_loss_tol`),
    "non_descent" (an outer iteration failed to descend and was reverted)
    or "budget" (`outer_iters` ran out).  `converged` is true for the first
    two.
    """

    model: GeodesicModel
    loss_per_outer_iter: np.ndarray
    outer_iters_run: int
    wall_time: float
    converged: bool
    stop_reason: str


@dataclass(frozen=True)
class AngleConstants:
    """Per-(sample, angle) constants of the separable angle loss, all (T, k).

    alpha, beta, gamma are the matching diagonal entries of H^T X X^T H,
    Y^T X X^T H and Y^T X X^T Y; r, phi are the amplitude/phase of the
    combined cosine and b its offset:  r^2 = ((alpha-gamma)/2)^2 + beta^2,
    phi = arctan2(beta, (alpha-gamma)/2), b = (alpha+gamma)/2.
    """

    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    r: np.ndarray
    phi: np.ndarray
    b: np.ndarray


# ---------------------------------------------------------------------------
# The column-stack kernel


@dataclass(slots=True)
class _Point:
    """A point (H, Y, theta) with what `_Columns.evaluate` computed there.

    Q = [H Y], proj = Q^T X, cos and sin of theta tau, the loadings
    c = U(tau)^T x of each column (coords), [cos c; sin c] (weighted) and
    the loss, or None when it was not asked for.
    """

    H: np.ndarray
    Y: np.ndarray
    theta: np.ndarray
    Q: np.ndarray
    proj: np.ndarray
    cos: np.ndarray
    sin: np.ndarray
    coords: np.ndarray
    weighted: np.ndarray
    loss: float | None


class _Columns:
    """A dataset as one d x N column stack X with a time tau per column.

    The loss and both block updates are sums over columns, so ragged and
    uniform-width data take the same kernel: U(tau)^T x is cos(theta tau)
    times H^T x plus sin(theta tau) times Y^T x, elementwise, and the
    per-sample sums of the angle constants are segment sums over the
    sample start offsets.
    """

    def __init__(self, dataset: Dataset):
        widths = [m.shape[1] for m in dataset.matrices]
        self.x = dataset.column_stack()
        self.tau = np.repeat(dataset.times, widths)
        self.starts = np.cumsum([0, *widths[:-1]])
        # `evaluate` forms its d x N residual here: a fresh temporary per
        # call costs more in page faults than its arithmetic on wide data.
        self.resid = np.empty_like(self.x)

    def project(self, Q):
        """Q^T X for Q = [H Y], shape 2k x N."""
        return Q.T @ self.x

    def evaluate(self, H, Y, theta, proj=None, with_loss: bool = True) -> _Point:
        """The point (H, Y, theta) with its loadings and (optionally) its residual loss.

        With c = U(tau)^T x the loadings of each column, the weighted
        loadings [cos(theta tau) c; sin(theta tau) c] (2k x N) give both the
        projections [H Y] times them and the Procrustes target.  The residual
        is formed explicitly, in this object's workspace: ||X||^2 - ||c||^2
        cancels catastrophically at the noise floors the fits reach.  The
        arrays computed here are fresh, so a later call leaves the returned
        point intact.  `proj` is [H Y]^T X if the caller has it.
        """
        Q = np.concatenate([H, Y], axis=1)
        if proj is None:
            proj = self.project(Q)
        k = H.shape[1]
        angles = theta[:, None] * self.tau[None, :]
        cos_all, sin_all = np.cos(angles), np.sin(angles)
        coords = cos_all * proj[:k] + sin_all * proj[k:]
        weighted = np.concatenate([cos_all * coords, sin_all * coords])
        value = None
        if with_loss:
            resid = np.matmul(Q, weighted, out=self.resid)
            np.subtract(self.x, resid, out=resid)
            np.multiply(resid, resid, out=resid)
            value = float(resid.sum())
        return _Point(H, Y, theta, Q, proj, cos_all, sin_all, coords, weighted, value)

    def update_bases(self, weighted):
        """Polar factor of the Procrustes target X weighted^T, and whether it kept full rank."""
        d, k = self.x.shape[0], weighted.shape[0] // 2
        w, sv, vt = np.linalg.svd(self.x @ weighted.T, full_matrices=False)
        rank_ok = sv[0] > 0.0 and sv[-1] > sv[0] * max(d, 2 * k) * np.finfo(float).eps
        q = w @ vt
        return q[:, :k], q[:, k:], rank_ok

    def constants(self, proj) -> AngleConstants:
        """Angle constants per sample from `project([H Y])`."""
        k = proj.shape[0] // 2
        a, c = proj[:k], proj[k:]
        sums = np.add.reduceat(np.concatenate([a * a, c * a, c * c]), self.starts, axis=1).T
        alpha, beta, gamma = sums[:, :k], sums[:, k : 2 * k], sums[:, 2 * k :]
        half_diff = 0.5 * (alpha - gamma)
        return AngleConstants(
            alpha=alpha,
            beta=beta,
            gamma=gamma,
            r=np.hypot(half_diff, beta),
            phi=np.arctan2(beta, half_diff),
            b=0.5 * (alpha + gamma),
        )


# ---------------------------------------------------------------------------
# Loss and reconstruction


def _check_dims(dataset: Dataset, model: GeodesicModel) -> None:
    if dataset.d != model.d:
        raise DimensionMismatch(f"dataset has d={dataset.d} but model has d={model.d}")


def loss(dataset: Dataset, model: GeodesicModel) -> float:
    """Projection residual sum_i ||X_i - U(t_i) U(t_i)^T X_i||_F^2 (non-negative)."""
    _check_dims(dataset, model)
    return _Columns(dataset).evaluate(model.H, model.Y, model.theta).loss


def reconstruct(dataset: Dataset, model: GeodesicModel) -> list[np.ndarray]:
    """Per-sample projections U(t_i) (U(t_i)^T X_i) onto the model's subspaces."""
    _check_dims(dataset, model)
    columns = _Columns(dataset)
    point = columns.evaluate(model.H, model.Y, model.theta, with_loss=False)
    return np.split(point.Q @ point.weighted, columns.starts[1:], axis=1)


# ---------------------------------------------------------------------------
# (H, Y) block update


def basis_update(dataset: Dataset, model: GeodesicModel) -> tuple[np.ndarray, np.ndarray]:
    """Joint Procrustes update of (H, Y) with theta held fixed.

    Forms M = sum_i [P_i cos(theta t_i) | P_i sin(theta t_i)] with
    P_i = X_i (X_i^T U(t_i)) and returns the two halves of W V^T from the
    thin SVD of M.  The result is orthonormal with zero cross-block Gram by
    construction, and the loss cannot increase.  A numerically rank-deficient
    M is reported through RankCollapseWarning; the factors remain valid.
    """
    _check_dims(dataset, model)
    columns = _Columns(dataset)
    point = columns.evaluate(model.H, model.Y, model.theta, with_loss=False)
    H, Y, rank_ok = columns.update_bases(point.weighted)
    if not rank_ok:
        warnings.warn(
            "Procrustes target is numerically rank deficient; some basis columns are unconstrained by the data",
            RankCollapseWarning,
            stacklevel=2,
        )
    return H, Y


# ---------------------------------------------------------------------------
# Angle block: constants, curvature, MM step


def angle_constants(dataset: Dataset, H: np.ndarray, Y: np.ndarray) -> AngleConstants:
    """Constants of the separable angle loss for the given basis pair.

    Computed from the k x ell products H^T X_i and Y^T X_i, never from the
    d x d outer products.
    """
    H = np.asarray(H, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if H.shape != Y.shape:
        raise DimensionMismatch("H and Y must share a shape")
    if dataset.d != H.shape[0]:
        raise DimensionMismatch(f"dataset has d={dataset.d} but bases have d={H.shape[0]}")
    columns = _Columns(dataset)
    return columns.constants(columns.project(np.concatenate([H, Y], axis=1)))


class _AngleStepper:
    """The majorize-minimize step on every angle, theta-independent parts hoisted.

    Each (sample, angle) term -r cos(2 theta t - phi) + b gets the
    curvature weight that `curvature_weight` describes; this is the one
    place it is computed.  Negative times are reflected to positive ones
    with phi negated, which leaves each term unchanged.  Samples at t = 0
    fall out: their derivative amplitude and curvature limit are both zero.
    """

    def __init__(self, r: np.ndarray, phi: np.ndarray, times: np.ndarray):
        t = np.abs(times)[:, None]
        self.phi = phi * np.sign(times)[:, None]
        self.freq = 2.0 * t
        self.amp = 2.0 * r * t
        self.limit = 4.0 * t * t * r

    def slopes(self, theta: np.ndarray):
        """Derivative and curvature weight per (sample, angle) at theta.

        With a = 2 t theta - phi wrapped to [-pi, pi], the derivative is
        2 r t sin(a) and the weight 4 t^2 r sin(a) / a, whose ratio is 1 at
        a = 0.
        """
        a = self.freq * theta - self.phi
        a -= _TWO_PI * np.rint(a / _TWO_PI)
        s = np.sin(a)
        ratio = np.divide(s, a, out=np.ones_like(a), where=a != 0.0)
        return self.amp * s, self.limit * ratio

    def run(self, theta: np.ndarray, steps: int) -> np.ndarray:
        """`steps` MM steps: theta_j moves by -(sum_i f'_ij) / (sum_i w_ij)."""
        for _ in range(steps):
            deriv, weight = self.slopes(theta)
            num, den = deriv.sum(axis=0), weight.sum(axis=0)
            theta = theta - np.divide(num, den, out=np.zeros_like(num), where=den != 0.0)
        return theta


def curvature_weight(theta: float, t: float, r: float, phi: float) -> float:
    """Sinc-type curvature of the quadratic majorizer of -r cos(2 theta t - phi).

    Equals f'(theta) divided by the distance from theta to the nearest
    cosine axis (phi + 2 pi m) / (2 t), that is 4 t^2 r sin(a) / a with
    a = 2 t theta - phi wrapped to [-pi, pi]; at the axis itself the limit
    4 t^2 r is returned.  Non-negative and finite for t > 0, r >= 0.
    """
    if t <= 0:
        raise NonpositiveTime(f"curvature weight requires t > 0, got t={t}")
    stepper = _AngleStepper(np.full((1, 1), float(r)), np.full((1, 1), float(phi)), np.array([float(t)]))
    _, weight = stepper.slopes(np.array([float(theta)]))
    return float(weight[0, 0])


def angle_loss_terms(constants: AngleConstants, theta: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Separable angle loss per angle: sum_i -r cos(2 theta t_i - phi) + b, shape (k,)."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    t = np.asarray(times, dtype=float)[:, None]
    f = -constants.r * np.cos(2.0 * theta[None, :] * t - constants.phi) + constants.b
    return np.sum(f, axis=0)


def angle_gradient(constants: AngleConstants, theta: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Gradient of the separable angle loss per angle, shape (k,)."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    stepper = _AngleStepper(constants.r, constants.phi, np.asarray(times, dtype=float))
    deriv, _ = stepper.slopes(theta)
    return np.sum(deriv, axis=0)


def angle_mm_step(constants: AngleConstants, theta: np.ndarray, times: np.ndarray) -> np.ndarray:
    """One majorize-minimize step on every angle independently.

    theta_j moves by -(sum_i f'_ij) / (sum_i w_ij); angles whose curvature
    sum is zero (flat separable loss) stay put.  The step never increases
    the separable loss of any angle.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    return _AngleStepper(constants.r, constants.phi, np.asarray(times, dtype=float)).run(theta, 1)


# ---------------------------------------------------------------------------
# Initialization and the outer loop


def init_endpoints(dataset: Dataset, k: int, pool_fraction: float = 0.25) -> GeodesicModel:
    """Connect coarse SVD estimates of the starting and ending subspaces.

    Pools the first and last ceil(pool_fraction * T) samples, takes the
    rank-k SVD basis of each pool, and returns the connecting geodesic.
    """
    if not 0.0 < pool_fraction <= 0.5:
        raise ValueError("pool_fraction must lie in (0, 0.5]")
    n_pool = ceil(pool_fraction * dataset.n_samples)
    first = np.concatenate(dataset.matrices[:n_pool], axis=1)
    last = np.concatenate(dataset.matrices[-n_pool:], axis=1)
    if first.shape[1] < k or last.shape[1] < k:
        raise InitFailure(
            f"endpoint pools have {first.shape[1]} and {last.shape[1]} columns; need at least k={k}"
        )
    return connect(principal_basis(first, k), principal_basis(last, k))


def _initial_model(dataset: Dataset, init: InitStrategy) -> GeodesicModel:
    if isinstance(init, ProvidedInit):
        return init.model
    if isinstance(init, RandomInit):
        return random_geodesic(dataset.d, init.k, init.theta_max, init.seed)
    if isinstance(init, EndpointsInit):
        return init_endpoints(dataset, init.k, init.pool_fraction)
    raise TypeError(f"unknown init strategy: {init!r}")


# ---------------------------------------------------------------------------
# Second-order step near the parameter-counting edge

# The step is tried on data with at most this many columns per unit of rank.
# This bound is not where the step stops paying: on planted instances at
# sigma <= 1e-3, (d, k) = (30, 3), (50, 5), (50, 6), block descent alone
# ran out a 1250-iteration budget at every N/k measured (2 to 16, and to 64
# at sigma = 1e-3), and with the step the fits stopped after a median of
# 4-49 iterations at a lower error.  8 is set by the test suite: it is the
# widest bound that keeps the fits of acceptance criteria 4-6 (N down to
# 11k) and of the landscape tests (N = 9k) on the block updates alone, so
# their iterates stay those the criteria were set on.
_EDGE_COLUMNS_PER_RANK = 8
# A memory and time guard for a large k: the step forms and solves a dense
# system of 2k^2 unknowns, at most this many, so k <= 22.  At k = 22 and
# N = 8k columns its Jacobian blocks are 30 MB each and take, with the
# normal equations, about 0.25 s on one core.  No fit in the tests or the
# benchmark comes near it; the largest, at k = 8, has 128.
_MAX_STEP_UNKNOWNS = 1024
# Levenberg-Marquardt damping, relative to the largest Gauss-Newton curvature.
_DAMPING_START = 1e-4
_DAMPING_MIN = 1e-12
_DAMPING_MAX = 1e4
# Consecutive rejections double the outer iterations skipped before the
# next attempt, up to this many.
_MAX_BACKOFF = 64
# Block descent that removes at least this share of the loss in an outer
# iteration is not stalling, and the step's dense solve is not tried after
# it.  These are mostly the first iterations from a far start; at
# (d, k, N) = (40, 8, 32) skipping them halves the time the step adds to a
# 5-iteration fit (about 10 -> 5 ms on one core).
_STALL_SHARE = 0.5


def _near_edge(k: int, n_columns: int) -> bool:
    """Whether `fit` tries the Gauss-Newton step: N <= 8k columns, small system.

    The system has 2k^2 unknowns, k(2k - 1) for the skew A and k for dtheta,
    whatever N and d are.
    """
    return n_columns <= _EDGE_COLUMNS_PER_RANK * k and 2 * k * k <= _MAX_STEP_UNKNOWNS


class _EdgeChart:
    """The stacked residual X_i - U(t_i) U(t_i)^T X_i, linearised at a block iterate.

    The chart rotates Q = [H Y] within its span, to Q polar(I + A) with A a
    skew 2k x 2k matrix, and moves the angles along dtheta.  The data's
    component outside span Q, and its share of the loss, stay fixed: moving
    the span is left to the Procrustes update that runs before every step.
    Per column the residual has k rows along U(t), zero at the chart's
    origin, and k rows along the rest of span Q.  A step packs
    (upper triangle of A, dtheta) into one vector of 2k^2 unknowns.

    Q, Q^T X, cos(theta tau), sin(theta tau) and the loadings are those
    `_Columns.evaluate` computed at the iterate.
    """

    def __init__(self, point: _Point, tau: np.ndarray):
        self.point = point
        self.k = k = point.H.shape[1]
        cos_all, sin_all, c, v = point.cos, point.sin, point.coords, point.weighted
        self.e = e = cos_all * point.proj[k:] - sin_all * point.proj[:k]
        # v = U(t) c and r = the rest of span Q times e, in Q coordinates.
        # Column m of Q moves row m mod k of each block: along U(t) by cs[m]
        # and along the rest of span Q by cd[m].
        r = np.concatenate([-sin_all * e, cos_all * e])
        cs, cd = np.concatenate([cos_all, sin_all]), np.concatenate([-sin_all, cos_all])
        # The skew generator e_a e_b^T - e_b e_a^T (a < b) moves the rows by
        # -cd^T A v (rest of span Q) and cs^T A r (along U(t)); each of its
        # two terms touches one row, written into a zeroed block.
        self.ia, self.ib = ia, ib = np.triu_indices(2 * k, 1)
        row_a, row_b, pair, idx = ia % k, ib % k, np.arange(ia.size), np.arange(k)
        self.jac_n = np.zeros((tau.size, k, ia.size + k))
        self.jac_n[:, row_b, pair] = (cd[ib] * v[ia]).T
        self.jac_n[:, row_a, pair] -= (cd[ia] * v[ib]).T
        self.jac_n[:, idx, ia.size + idx] = -tau[:, None] * c.T
        self.jac_u = np.zeros((tau.size, k, ia.size + k))
        self.jac_u[:, row_a, pair] = (cs[ia] * r[ib]).T
        self.jac_u[:, row_b, pair] -= (cs[ib] * r[ia]).T
        self.jac_u[:, idx, ia.size + idx] = -tau[:, None] * e.T

    def directional(self, step: np.ndarray) -> np.ndarray:
        """Jacobian times `step`, as a d x N matrix of residual changes."""
        p = self.point
        along_rest, along_u = (self.jac_n @ step).T, (self.jac_u @ step).T
        in_q = np.concatenate([p.cos * along_u - p.sin * along_rest, p.sin * along_u + p.cos * along_rest])
        return p.Q @ in_q

    def normal_equations(self):
        """Gauss-Newton matrix J^T J and gradient J^T r of the stacked residual.

        Of the residual r only the rows along the rest of span Q, e, are
        nonzero where J is: the rows along U(t) vanish at the chart's origin.
        """
        n, k, n_s = self.jac_n.shape
        jn, ju = self.jac_n.reshape(n * k, n_s), self.jac_u.reshape(n * k, n_s)
        return jn.T @ jn + ju.T @ ju, jn.T @ self.e.T.reshape(-1)

    def retract(self, step: np.ndarray):
        """(H, Y, theta) after `step`: Q times the polar factor of I + A."""
        k, n_a = self.k, self.ia.size
        A = np.zeros((2 * k, 2 * k))
        A[self.ia, self.ib] = step[:n_a]
        A -= A.T
        u, _, vt = np.linalg.svd(np.eye(2 * k) + A)
        q = self.point.Q @ (u @ vt)
        return q[:, :k], q[:, k:], self.point.theta + step[n_a:]


class _EdgeStep:
    """Safeguarded Levenberg-Marquardt step tried after a stalling block iteration.

    The step is tried only when the block updates removed less than half of
    the loss, and kept only when its loss is not above the block iterate's,
    so the loss trail stays monotone.  The damping follows the gain ratio of
    kept steps (Nielsen's rule); a rejected step raises it and skips the
    next attempts, doubling the wait on each consecutive rejection, so a fit
    the step cannot help pays little for it.
    """

    def __init__(self, columns: _Columns):
        self.columns = columns
        self.damping = _DAMPING_START
        self.raise_by = 2.0
        self.wait = 0
        self.backoff = 1

    def improve(self, block: _Point, previous: float) -> _Point | None:
        """The evaluated point of a kept step from `block`, or None.

        `block` is the block iterate as `_Columns.evaluate` returned it, with
        its loss, and `previous` the loss before the block updates.  The
        trial point is evaluated by the same `columns.evaluate`, so the trail
        holds one loss formula and the loop goes on from the kept record.
        """
        if previous - block.loss >= _STALL_SHARE * previous:
            return None
        if self.wait > 0:
            self.wait -= 1
            return None
        chart = _EdgeChart(block, self.columns.tau)
        gram, grad = chart.normal_equations()
        shift = self.damping * max(float(np.max(np.diag(gram))), _TINY)
        gram[np.diag_indices_from(gram)] += shift
        try:
            step = -np.linalg.solve(gram, grad)
        except np.linalg.LinAlgError:
            step = None
        if step is not None and np.all(np.isfinite(step)):
            trial = self.columns.evaluate(*chart.retract(step))
            if trial.loss <= block.loss:
                # Decrease of the undamped Gauss-Newton model along the step.
                predicted = shift * float(step @ step) - float(grad @ step)
                gain = (block.loss - trial.loss) / predicted if predicted > 0 else 0.0
                self.damping = max(self.damping * max(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3), _DAMPING_MIN)
                self.raise_by = 2.0
                self.backoff = 1
                return trial
        self.damping = min(self.damping * self.raise_by, _DAMPING_MAX)
        self.raise_by *= 2.0
        self.wait = self.backoff
        self.backoff = min(2 * self.backoff, _MAX_BACKOFF)
        return None


def fit(dataset: Dataset, config: EstimatorConfig, callback=None) -> FitReport:
    """Fit a geodesic to the dataset by alternating the two block updates.

    Runs up to `outer_iters` outer iterations, each consisting of the
    (H, Y) update (repeated `inner_basis_iters` times) followed by
    five angle MM steps, and stops early once the relative loss
    decrease over an outer iteration falls below `rel_loss_tol`.  Both
    block updates are majorize-minimize steps, so the recorded loss trail
    never increases; an outer iteration whose block updates fail to
    descend numerically (possible only at the floating-point noise floor)
    is reverted and treated as converged.  `FitReport.stop_reason` records
    which of these ended the fit, or that the budget ran out.

    Every dataset, ragged or not, is fitted as one d x N column stack with
    a time per column: an outer iteration is a handful of GEMMs over the
    stack, one d x 2k SVD and elementwise angle arithmetic.  A Procrustes
    target that lost rank during the fit is reported once, at the end,
    through RankCollapseWarning.

    For data near the edge N = 2k (at most 8k columns in all, and k <= 22)
    each outer iteration whose block updates removed less than half of the
    loss then tries a damped Gauss-Newton step from the block iterate, in
    the rotations within span [H Y] and the angles, and keeps it only if
    its loss is not above the block iterate's.  A rejected step, or a solve
    that fails, leaves the block iterate in place and the fit goes on;
    repeated rejections space out further attempts.  Other fits never take
    the step, so their iterates are those of the two block updates alone.

    When `time_center` is set, fitting happens on the shifted axis
    t - t_center and the returned model is re-expressed on the original
    axis, so its evaluate() semantics are unchanged.

    `callback(model, loss_value)`, if given, runs after every outer
    iteration with the current model in fitting coordinates.
    """
    start = time.perf_counter()
    model = _initial_model(dataset, config.init)
    _check_dims(dataset, model)
    work = dataset
    t_center = config.time_center
    if t_center is not None and t_center != 0.0:
        work = dataset.with_times(dataset.times - t_center)
        model = model.shifted_origin(t_center)

    columns = _Columns(work)
    edge = _EdgeStep(columns) if _near_edge(model.k, columns.x.shape[1]) else None
    point = columns.evaluate(model.H, model.Y, model.theta)
    losses = [point.loss]
    stop_reason = "budget"
    iters_run = 0
    rank_collapsed = False
    for n in range(1, config.outer_iters + 1):
        new_H, new_Y, rank_ok = columns.update_bases(point.weighted)
        rank_collapsed |= not rank_ok
        for _ in range(config.inner_basis_iters - 1):
            inner = columns.evaluate(new_H, new_Y, point.theta, with_loss=False)
            new_H, new_Y, rank_ok = columns.update_bases(inner.weighted)
            rank_collapsed |= not rank_ok
        proj = columns.project(np.concatenate([new_H, new_Y], axis=1))
        constants = columns.constants(proj)
        new_theta = _AngleStepper(constants.r, constants.phi, work.times).run(point.theta, _ANGLE_MM_STEPS)
        block = columns.evaluate(new_H, new_Y, new_theta, proj)
        previous = point.loss
        iters_run = n
        if block.loss > previous:
            # Numerical non-descent: keep the previous iterate.
            stop_reason = "non_descent"
            break
        better = edge.improve(block, previous) if edge is not None else None
        point = block if better is None else better
        losses.append(point.loss)
        if callback is not None:
            callback(GeodesicModel(point.H, point.Y, point.theta), point.loss)
        if (previous - point.loss) < config.rel_loss_tol * max(previous, _TINY):
            stop_reason = "tolerance"
            break
    if rank_collapsed:
        warnings.warn(
            "Procrustes target was numerically rank deficient during the fit",
            RankCollapseWarning,
            stacklevel=2,
        )

    model = GeodesicModel(point.H, point.Y, point.theta)
    if t_center is not None and t_center != 0.0:
        model = model.shifted_origin(-t_center)
    trail = np.asarray(losses)
    trail.flags.writeable = False
    return FitReport(
        model=model,
        loss_per_outer_iter=trail,
        outer_iters_run=iters_run,
        wall_time=time.perf_counter() - start,
        converged=stop_reason != "budget",
        stop_reason=stop_reason,
    )
