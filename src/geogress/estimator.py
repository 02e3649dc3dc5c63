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
   minimizer.  Up to five such steps run per outer iteration, stopping at
   an exact fixed point.

Samples at t_i = 0 contribute a term constant in theta (their curvature
weight is undefined), so they are excluded from the angle sums.  Negative
times, as on data recentred by `landscape.recenter_times`, are folded back
to positive ones through the identity f(x; t, phi) = f(x; -t, -phi).

3. Block descent crawls wherever the two blocks are strongly coupled: near
   the parameter-counting edge N = 2k (N data columns in all), and at low
   noise for any N.  Each outer iteration therefore also tries one
   Levenberg-Marquardt step on the stacked residual, in a chart of the
   rotations within span [H Y] and the angles: 2k^2 unknowns, retracted by
   a 2k x 2k polar factor (Edelman, Arias & Smith 1998; Absil, Mahony &
   Sepulchre 2008).  Its normal equations are built by row class, never
   from the N k x 2k^2 Jacobian (`_EdgeChart`).  Moving the span itself is
   left to step 1, which runs just before.  The step is kept only when its
   loss is not above the block iterate's, so the loss still never
   increases.  Only a rank above 22 (over `_MAX_STEP_UNKNOWNS` unknowns)
   leaves the iterates to steps 1-2 alone.

The loss is a sum over data columns, so every dataset, ragged or not, is
handled as its d x N column stack (`Dataset.column_stack`, not copied)
with a time per column (`_Columns`): the loss, both block updates, the
step of 3. and the public functions built on them share that one kernel.
Its `evaluate` returns one record per point (`_Point`), which `fit`
carries from iterate to iterate and the step linearises at.  The
residual is formed explicitly, in one d x N workspace allocated with the
kernel.
"""

from __future__ import annotations

import functools
import time
import warnings
from dataclasses import dataclass
from math import ceil

import numpy as np

from .dataset import Dataset
from .errors import DimensionMismatch, InitFailure, NonpositiveTime, RankCollapseWarning, check_count, check_setting
from .geodesic import GeodesicModel, _largest_entry_positive, connect, principal_basis, random_geodesic

_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny
_TWO_PI = 2.0 * np.pi
# Most angle MM steps per outer iteration, fewer once a step leaves theta
# exactly unchanged; any count >= 1 keeps the loss monotone.
_ANGLE_MM_STEPS = 5


# ---------------------------------------------------------------------------
# Initialization strategies


@dataclass(frozen=True)
class RandomInit:
    """Start from a random geodesic of the given rank."""

    k: int
    theta_max: float = np.pi / 4
    seed: int | None = None

    def __post_init__(self) -> None:
        check_count("k", self.k, 1)
        check_setting("theta_max", self.theta_max, 0, np.pi / 2)
        if self.seed is not None:
            check_count("seed", self.seed, 0)


def _check_pool_fraction(pool_fraction: float) -> None:
    if not 0.0 < pool_fraction <= 0.5:
        raise ValueError(f"pool_fraction must lie in (0, 0.5], got {pool_fraction}")


@dataclass(frozen=True)
class EndpointsInit:
    """Start from the geodesic connecting coarse endpoint subspace estimates."""

    k: int
    pool_fraction: float = 0.25

    def __post_init__(self) -> None:
        check_count("k", self.k, 1)
        _check_pool_fraction(self.pool_fraction)


@dataclass(frozen=True)
class ProvidedInit:
    """Start from a caller-supplied model."""

    model: GeodesicModel


InitStrategy = RandomInit | EndpointsInit | ProvidedInit


@dataclass(frozen=True)
class EstimatorConfig:
    """Iteration budgets, stopping tolerance and initialization.

    `inner_basis_iters` repeats the (H, Y) Procrustes step within each outer
    iteration; every repetition is itself a descent step, so monotonicity is
    unaffected.  The default of 1 is the plain alternation; larger values
    relax the basis block closer to its conditional optimum.  That does not
    speed up a fit that takes the Gauss-Newton step (k <= 22): the step
    crosses the coupled H/Y/theta valley the repetitions were meant to
    ease, and the phase-transition grid near the sample-complexity boundary
    reaches the same errors with 1, 3 or 10 basis repetitions.
    """

    init: InitStrategy
    outer_iters: int = 200
    inner_basis_iters: int = 1
    rel_loss_tol: float = 1e-10

    def __post_init__(self) -> None:
        check_count("outer_iters", self.outer_iters, 1)
        check_count("inner_basis_iters", self.inner_basis_iters, 1)
        check_setting("rel_loss_tol", self.rel_loss_tol, 0)


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

    Q = [H Y] (H and Y are views of it), proj = Q^T X, cos and sin of
    theta tau, the loadings c = U(tau)^T x of each column (coords),
    [cos c; sin c] (weighted) and the loss, or None when it was not asked
    for.
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
        # The dataset's own read-only stack: nothing here writes to it.
        self.x = dataset.column_stack()
        self.tau = np.repeat(dataset.times, widths)
        self.starts = np.cumsum([0, *widths[:-1]])
        # `evaluate` forms its d x N residual here: a fresh temporary per
        # call costs more in page faults than its arithmetic on wide data.
        self.resid = np.empty_like(self.x)

    def project(self, Q):
        """Q^T X for Q = [H Y], shape 2k x N."""
        return Q.T @ self.x

    def evaluate(self, Q, theta, proj=None, with_loss: bool = True) -> _Point:
        """The point (H, Y, theta), Q = [H Y], with its loadings and (optionally) its residual loss.

        With c = U(tau)^T x the loadings of each column, the weighted
        loadings [cos(theta tau) c; sin(theta tau) c] (2k x N) give both the
        projections [H Y] times them and the Procrustes target.  The residual
        is formed explicitly, in this object's workspace: ||X||^2 - ||c||^2
        cancels catastrophically at the noise floors the fits reach.  The
        arrays computed here are fresh, so a later call leaves the returned
        point intact.  `proj` is Q^T X if the caller has it.
        """
        if proj is None:
            proj = self.project(Q)
        k = Q.shape[1] // 2
        angles = theta[:, None] * self.tau[None, :]
        cos_all, sin_all = np.cos(angles), np.sin(angles)
        coords, weighted = self.loadings(proj, cos_all, sin_all)
        value = None
        if with_loss:
            resid = np.matmul(Q, weighted, out=self.resid)
            np.subtract(self.x, resid, out=resid)
            np.multiply(resid, resid, out=resid)
            value = float(resid.sum())
        return _Point(Q[:, :k], Q[:, k:], theta, Q, proj, cos_all, sin_all, coords, weighted, value)

    @staticmethod
    def loadings(proj, cos_all, sin_all):
        """The loadings c = U(tau)^T x and [cos(theta tau) c; sin(theta tau) c] from proj = Q^T X."""
        k = proj.shape[0] // 2
        coords = cos_all * proj[:k] + sin_all * proj[k:]
        return coords, np.concatenate([cos_all * coords, sin_all * coords])

    def update_bases(self, weighted):
        """Q = [H Y], the polar factor of the Procrustes target X weighted^T, and whether it kept full rank."""
        w, sv, vt = np.linalg.svd(self.x @ weighted.T, full_matrices=False)
        rank_ok = sv[0] > 0.0 and sv[-1] > sv[0] * max(self.x.shape[0], weighted.shape[0]) * _EPS
        return w @ vt, rank_ok

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


def _stacked(model: GeodesicModel) -> np.ndarray:
    """Q = [H Y] of a model, d x 2k."""
    return np.concatenate([model.H, model.Y], axis=1)


def loss(dataset: Dataset, model: GeodesicModel) -> float:
    """Projection residual sum_i ||X_i - U(t_i) U(t_i)^T X_i||_F^2 (non-negative)."""
    _check_dims(dataset, model)
    return _Columns(dataset).evaluate(_stacked(model), model.theta).loss


def reconstruct(dataset: Dataset, model: GeodesicModel) -> list[np.ndarray]:
    """Per-sample projections U(t_i) (U(t_i)^T X_i) onto the model's subspaces."""
    _check_dims(dataset, model)
    columns = _Columns(dataset)
    point = columns.evaluate(_stacked(model), model.theta, with_loss=False)
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
    point = columns.evaluate(_stacked(model), model.theta, with_loss=False)
    q, rank_ok = columns.update_bases(point.weighted)
    if not rank_ok:
        warnings.warn(
            "Procrustes target is numerically rank deficient; some basis columns are unconstrained by the data",
            RankCollapseWarning,
            stacklevel=2,
        )
    return q[:, : model.k], q[:, model.k :]


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
        """`steps` MM steps: theta_j moves by -(sum_i f'_ij) / (sum_i w_ij).

        Stops early at an exact fixed point: once a step returns theta bit
        for bit, every later step would too, since `slopes` is deterministic.
        """
        for _ in range(steps):
            deriv, weight = self.slopes(theta)
            num, den = deriv.sum(axis=0), weight.sum(axis=0)
            stepped = theta - np.divide(num, den, out=np.zeros_like(num), where=den != 0.0)
            if stepped.tobytes() == theta.tobytes():
                break
            theta = stepped
        return theta


def curvature_weight(theta: float, t: float, r: float, phi: float) -> float:
    """Sinc-type curvature of the quadratic majorizer of -r cos(2 theta t - phi).

    Equals f'(theta) divided by the distance from theta to the nearest
    cosine axis (phi + 2 pi m) / (2 t), that is 4 t^2 r sin(a) / a with
    a = 2 t theta - phi wrapped to [-pi, pi]; at the axis itself the limit
    4 t^2 r is returned.  Non-negative and finite for t > 0, r >= 0.
    """
    if not t > 0:
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


def _endpoint_basis(pool: np.ndarray, k: int) -> np.ndarray:
    """`principal_basis(pool, k)`, from one symmetric eigensolve when the pool is wide.

    A pool with at least as many columns as rows takes the top-k
    eigenvectors of its d x d Gram, about half the time of its SVD at
    d = 200.  Forming the Gram squares the condition number, so unless the
    k-th eigenvalue is above sqrt(eps) times the largest (sigma_k above
    eps^(1/4) sigma_1), and for thinner pools, the thin SVD is kept.
    """
    d, n = pool.shape
    if k <= d <= n:
        values, vectors = np.linalg.eigh(pool @ pool.T)
        if values[-k] > np.sqrt(_EPS) * values[-1]:
            return _largest_entry_positive(vectors[:, : -k - 1 : -1])
    return principal_basis(pool, k)


def init_endpoints(dataset: Dataset, k: int, pool_fraction: float = 0.25) -> GeodesicModel:
    """Connect coarse SVD estimates of the starting and ending subspaces.

    Pools the first and last ceil(pool_fraction * T) samples, takes the
    rank-k principal basis of each pool, and returns the connecting
    geodesic.  Each pool is a column range of the dataset's stack, not a copy.
    """
    _check_pool_fraction(pool_fraction)
    n_pool = ceil(pool_fraction * dataset.n_samples)
    stack = dataset.column_stack()
    first = stack[:, : sum(m.shape[1] for m in dataset.matrices[:n_pool])]
    last = stack[:, stack.shape[1] - sum(m.shape[1] for m in dataset.matrices[-n_pool:]) :]
    if first.shape[1] < k or last.shape[1] < k:
        raise InitFailure(
            f"endpoint pools have {first.shape[1]} and {last.shape[1]} columns; need at least k={k}"
        )
    return connect(_endpoint_basis(first, k), _endpoint_basis(last, k))


def _initial_model(dataset: Dataset, init: InitStrategy) -> GeodesicModel:
    if isinstance(init, ProvidedInit):
        return init.model
    if isinstance(init, RandomInit):
        return random_geodesic(dataset.d, init.k, init.theta_max, init.seed)
    if isinstance(init, EndpointsInit):
        return init_endpoints(dataset, init.k, init.pool_fraction)
    raise TypeError(f"unknown init strategy: {init!r}")


# ---------------------------------------------------------------------------
# Second-order step on the coupled blocks

# A memory and time guard for a large k: the step forms and solves a dense
# system of 2k^2 unknowns, at most this many, so k <= 22.  At k = 22 one
# normal-equation build and solve take about 45 ms at N = 1000 on one core.
# No fit in the tests or the benchmark comes near it; the largest, at k = 8,
# has 128.
_MAX_STEP_UNKNOWNS = 1024
# The row-class stack takes 16k(4k + 1) bytes per data column (4.2 kB at
# k = 8, 31 kB at k = 22), so its Grams are summed over column chunks of at
# most this many bytes.  Every benchmark fit takes one chunk: the widest,
# (k, N) = (8, 800), needs 3.4 MB.
_STACK_BYTES = 8 << 20
# Levenberg-Marquardt damping, relative to the largest Gauss-Newton curvature.
_DAMPING_START = 1e-4
_DAMPING_MIN = 1e-12
_DAMPING_MAX = 1e4


def _step_system_fits(k: int) -> bool:
    """Whether the Gauss-Newton step's 2k^2 unknowns are within `_MAX_STEP_UNKNOWNS`.

    The system has k(2k - 1) unknowns for the skew A and k for dtheta,
    whatever N and d are.
    """
    return 2 * k * k <= _MAX_STEP_UNKNOWNS


class _RowClasses:
    """Where the row-class Grams of rank k land in the 2k^2 normal equations.

    Row m of each residual block is moved only by dtheta_m and by the
    rotation pairs (a, b) with a or b congruent to m mod k.  Class m's stack
    has a row for each x in (m, m + k) and each y < 2k, the pair of x and y
    (the product of column x's move and component y), then dtheta_m: 4k + 1
    rows.  `unknown` gives each row's index in the packed step, `sign` its
    sign there (+1 when x is the pair's larger index).  The pair (m, m + k)
    has two rows, whose Gram entries add up in the scatter; x = y names no
    pair and gets sign 0.  `flat` indexes each Gram entry of every class in
    the flattened 2k^2 x 2k^2 system, `sign2` is its sign.
    """

    def __init__(self, k: int):
        n = 2 * k
        self.ia, self.ib = ia, ib = np.triu_indices(n, 1)
        pair = np.zeros((n, n), dtype=np.intp)
        pair[ia, ib] = pair[ib, ia] = np.arange(ia.size)
        x, y = np.arange(k)[:, None, None] + k * np.arange(2)[None, :, None], np.arange(n)
        self.size = size = ia.size + k
        self.unknown = np.concatenate([pair[x, y].reshape(k, 2 * n), ia.size + np.arange(k)[:, None]], axis=1)
        self.sign = np.concatenate([np.sign(x - y).reshape(k, 2 * n), np.ones((k, 1))], axis=1)
        self.flat = (self.unknown[:, :, None] * size + self.unknown[:, None, :]).ravel()
        self.sign2 = self.sign[:, :, None] * self.sign[:, None, :]


# Built on first use for each k, not at import: a process that never takes
# the step pays nothing.
_row_classes = functools.cache(_RowClasses)


class _EdgeChart:
    """The stacked residual X_i - U(t_i) U(t_i)^T X_i, linearised at a block iterate.

    The chart rotates Q = [H Y] within its span, to Q polar(I + A) with A a
    skew 2k x 2k matrix, and moves the angles along dtheta.  The data's
    component outside span Q, and its share of the loss, stay fixed: moving
    the span is left to the Procrustes update that runs before every step.
    Per column the residual has k rows along U(t), zero at the chart's
    origin, and k rows along the rest of span Q.  A step packs
    (upper triangle of A, dtheta) into one vector of 2k^2 unknowns.

    The Jacobian is never formed: for n columns at a time, each row class
    of the residual (see `_RowClasses`) fills one slab of a k x (4k + 1) x 2n
    stack with the rows' Jacobian entries along the rest of span Q (first n
    columns) and along U(t) (last n), up to sign.  `stack` is a buffer its
    caller owns, k x (4k + 1) x 2w: the Grams of data wider than w columns
    are summed over chunks of w.

    Q, Q^T X, cos(theta tau), sin(theta tau) and the loadings are those
    `_Columns.evaluate` computed at the iterate.
    """

    def __init__(self, point: _Point, tau: np.ndarray, stack: np.ndarray):
        self.point, self.tau, self.stack = point, tau, stack
        self.k = k = point.Q.shape[1] // 2
        self.classes = _row_classes(k)
        self.e = point.cos * point.proj[k:] - point.sin * point.proj[:k]

    def _fill(self, cols: slice) -> np.ndarray:
        """The stack of the columns `cols`, k x (4k + 1) x 2n, in the front of the buffer."""
        k, point, tau = self.k, self.point, self.tau[cols]
        n = tau.size
        stack = self.stack.reshape(-1)[: k * (4 * k + 1) * 2 * n].reshape(k, 4 * k + 1, 2 * n)
        cos_all, sin_all, c, v = point.cos[:, cols], point.sin[:, cols], point.coords[:, cols], point.weighted[:, cols]
        e = self.e[:, cols]
        # v = U(t) c and r = the rest of span Q times e, in Q coordinates.
        # Column x of Q moves row x mod k of each block: along U(t) by cs[x]
        # and along the rest of span Q by cd[x].  The skew generator
        # e_a e_b^T - e_b e_a^T (a < b) moves the rows by -cd^T A v (rest
        # of span Q) and cs^T A r (along U(t)), so the pair of x and y
        # moves row x mod k by cd[x] v[y] and -cs[x] r[y], times +1 if
        # x = b and -1 if x = a.  Negating the U(t) part of a whole class
        # leaves its Gram unchanged, so the rows hold cs[x] r[y].
        r = np.concatenate([-sin_all * e, cos_all * e])
        cs, cd = np.concatenate([cos_all, sin_all]), np.concatenate([-sin_all, cos_all])
        by_x = (k, 2, 1, n)
        pairs = stack[:, : 4 * k].reshape(k, 2, 2 * k, 2 * n)
        np.multiply(cd.reshape(2, k, n).transpose(1, 0, 2).reshape(by_x), v, out=pairs[..., :n])
        np.multiply(cs.reshape(2, k, n).transpose(1, 0, 2).reshape(by_x), r, out=pairs[..., n:])
        # dtheta_m moves row m by -tau c[m] (rest of span Q) and -tau e[m]
        # (along U(t), negated with its class).
        np.multiply(c, -tau, out=stack[:, 4 * k, :n])
        np.multiply(e, tau, out=stack[:, 4 * k, n:])
        return stack

    def normal_equations(self):
        """Gauss-Newton matrix J^T J and gradient J^T r of the stacked residual.

        One batched matmul per column chunk gives every row class's Gram;
        they are signed and summed into the 2k^2 x 2k^2 system.  Of the
        residual r only the rows along the rest of span Q, e, are nonzero
        where J is: the rows along U(t) vanish at the chart's origin.
        """
        classes, width = self.classes, self.stack.shape[2] // 2
        grams = grads = 0.0
        for start in range(0, self.tau.size, width):
            cols = slice(start, start + width)
            stack = self._fill(cols)
            grams = grams + np.matmul(stack, stack.transpose(0, 2, 1))
            grads = grads + np.matmul(stack[:, :, : stack.shape[2] // 2], self.e[:, cols, None])[:, :, 0]
        grams *= classes.sign2
        grads *= classes.sign
        size = classes.size
        gram = np.bincount(classes.flat, weights=grams.ravel(), minlength=size * size).reshape(size, size)
        return gram, np.bincount(classes.unknown.ravel(), weights=grads.ravel(), minlength=size)

    def retract(self, step: np.ndarray):
        """(Q, theta) after `step`: Q times the polar factor of I + A."""
        k, ia, ib = self.k, self.classes.ia, self.classes.ib
        A = np.zeros((2 * k, 2 * k))
        A[ia, ib] = step[: ia.size]
        A -= A.T
        u, _, vt = np.linalg.svd(np.eye(2 * k) + A)
        return self.point.Q @ (u @ vt), self.point.theta + step[ia.size :]


class _EdgeStep:
    """Safeguarded Levenberg-Marquardt step tried after every block iteration.

    The step is kept only when its loss is not above the block iterate's,
    so the loss trail stays monotone.  The damping and its raise factor
    (Nielsen's mu and nu) are all the state carried from one attempt to
    the next; Nielsen's rule updates them after every attempt.
    """

    def __init__(self, columns: _Columns, k: int):
        self.columns = columns
        # The chart's row-class stack, allocated once per fit like the
        # residual workspace: a fresh one per attempt costs page faults.
        width = min(columns.tau.size, _STACK_BYTES // (16 * k * (4 * k + 1)))
        self.stack = np.empty((k, 4 * k + 1, 2 * width))
        self.damping = _DAMPING_START
        self.raise_by = 2.0

    def improve(self, block: _Point) -> _Point | None:
        """The evaluated point of a kept step from `block`, or None.

        `block` is the block iterate as `_Columns.evaluate` returned it, with
        its loss.  The trial point is evaluated by the same `columns.evaluate`,
        so the trail holds one loss formula and the loop goes on from the
        kept record.
        """
        chart = _EdgeChart(block, self.columns.tau, self.stack)
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
                return trial
        self.damping = min(self.damping * self.raise_by, _DAMPING_MAX)
        self.raise_by *= 2.0
        return None


def fit(dataset: Dataset, config: EstimatorConfig, callback=None) -> FitReport:
    """Fit a geodesic to the dataset by alternating the two block updates.

    Runs up to `outer_iters` outer iterations, each consisting of the
    (H, Y) update (repeated `inner_basis_iters` times) followed by up to
    five angle MM steps, stopping at an exact fixed point, and stops early
    once the relative loss decrease over an outer iteration falls below
    `rel_loss_tol`.  Both block updates are majorize-minimize steps, so the
    recorded loss trail never increases; an outer iteration whose block
    updates fail to descend numerically (possible only at the
    floating-point noise floor) is reverted and treated as converged.  If
    that happens in the first iteration, the returned model is the initial
    model object itself.
    `FitReport.stop_reason` records which of these ended the fit, or that
    the budget ran out.

    Every dataset, ragged or not, is fitted as one d x N column stack with
    a time per column: an outer iteration is a handful of GEMMs over the
    stack, one d x 2k SVD and elementwise angle arithmetic.  A Procrustes
    target that lost rank during the fit is reported once, at the end,
    through RankCollapseWarning.

    For k <= 22 each outer iteration then tries a damped Gauss-Newton step
    from the block iterate, in the rotations within span [H Y] and the
    angles, and keeps it only if its loss is not above the block iterate's.
    A rejected step, or a solve that fails, raises the damping, leaves the
    block iterate in place and the fit goes on.  Fits of a larger rank never
    take the step, so their iterates are those of the two block updates
    alone.

    `callback(model, loss_value)`, if given, runs after every outer
    iteration with the current model.
    """
    start = time.perf_counter()
    model = _initial_model(dataset, config.init)
    _check_dims(dataset, model)
    columns = _Columns(dataset)
    edge = _EdgeStep(columns, model.k) if _step_system_fits(model.k) else None
    point = columns.evaluate(_stacked(model), model.theta)
    losses = [point.loss]
    stop_reason = "budget"
    iters_run = 0
    rank_collapsed = False
    for n in range(1, config.outer_iters + 1):
        q, rank_ok = columns.update_bases(point.weighted)
        rank_collapsed |= not rank_ok
        for _ in range(config.inner_basis_iters - 1):
            # theta stays at point.theta here, and so do its cosines and sines.
            _, weighted = columns.loadings(columns.project(q), point.cos, point.sin)
            q, rank_ok = columns.update_bases(weighted)
            rank_collapsed |= not rank_ok
        proj = columns.project(q)
        constants = columns.constants(proj)
        new_theta = _AngleStepper(constants.r, constants.phi, dataset.times).run(point.theta, _ANGLE_MM_STEPS)
        block = columns.evaluate(q, new_theta, proj)
        previous = point.loss
        iters_run = n
        if block.loss > previous:
            # Numerical non-descent: keep the previous iterate.
            stop_reason = "non_descent"
            break
        better = edge.improve(block) if edge is not None else None
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

    # With no iteration accepted, the initial model stands as validated.
    if len(losses) > 1:
        model = GeodesicModel(point.H, point.Y, point.theta)
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
