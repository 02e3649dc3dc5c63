"""Penalized piecewise-geodesic fitting with known knots.

Each knot interval gets its own geodesic on a local time axis rescaled to
[0, 1].  Continuity at interior knots is encouraged by a penalty that, for
segment j, enters the block-coordinate subproblem as two pseudo-samples:
sqrt(lambda) times the left neighbor's end basis at local t = 0 and
sqrt(lambda) times the right neighbor's start basis at local t = 1.  Each
segment refit therefore descends the global penalized objective

    sum_j loss_j + lambda * sum_interior (k - ||U_j(1)^T U_{j+1}(0)||_F^2),

whose penalty term is half the squared projector gap at each interior knot.
Sweeps alternate left-to-right and right-to-left so information propagates
symmetrically.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dataset import Dataset
from .errors import DimensionMismatch, EmptySegment
from .estimator import EstimatorConfig, ProvidedInit, fit, loss
from .geodesic import GeodesicModel
from .metrics import subspace_error

_TINY = np.finfo(float).tiny


def _checked_knots(knots) -> np.ndarray:
    """Knots as floats: at least two, strictly increasing, spanning [0, 1] within 1e-12."""
    knots = np.asarray(knots, dtype=float)
    if knots.ndim != 1 or knots.size < 2:
        raise DimensionMismatch("need at least two knots")
    if not np.all(np.diff(knots) > 0):
        raise ValueError("knots must be strictly increasing")
    if not (abs(knots[0]) <= 1e-12 and abs(knots[-1] - 1.0) <= 1e-12):
        raise ValueError("knots must span [0, 1]")
    return knots


def check_lambda(lam) -> None:
    """Raise ValueError unless the penalty weight is finite and >= 0 (NaN fails too)."""
    if not 0.0 <= lam < np.inf:
        raise ValueError(f"lambda must be finite and >= 0, got {lam!r}")


@dataclass(frozen=True)
class PiecewiseModel:
    """J geodesic segments over strictly increasing knots spanning [0, 1]."""

    knots: np.ndarray
    segments: tuple[GeodesicModel, ...]

    def __post_init__(self) -> None:
        knots = _checked_knots(self.knots)
        if len(self.segments) != knots.size - 1:
            raise DimensionMismatch(
                f"{knots.size - 1} knot intervals but {len(self.segments)} segments"
            )
        d, k = self.segments[0].d, self.segments[0].k
        for seg in self.segments:
            if (seg.d, seg.k) != (d, k):
                raise DimensionMismatch("segments must share (d, k)")
        knots = knots.copy()
        knots.flags.writeable = False
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "segments", tuple(self.segments))

    @property
    def n_segments(self) -> int:
        return len(self.segments)

    def segment_index(self, t: float) -> int:
        j = int(np.searchsorted(self.knots, t, side="right") - 1)
        return min(max(j, 0), self.n_segments - 1)

    def evaluate(self, t: float) -> np.ndarray:
        """Basis at global time t, from the owning segment's local axis."""
        j = self.segment_index(t)
        lo, hi = self.knots[j], self.knots[j + 1]
        return self.segments[j].evaluate((t - lo) / (hi - lo))


@dataclass(frozen=True)
class PiecewiseFitReport:
    """Fitted piecewise model plus the penalized objective after each sweep."""

    model: PiecewiseModel
    objective_per_sweep: np.ndarray
    sweeps_run: int
    converged: bool


def split_by_knots(dataset: Dataset, knots: np.ndarray) -> list[Dataset]:
    """Per-segment datasets with local times rescaled to [0, 1].

    A sample at an interior knot belongs to the right-hand segment; the
    final knot belongs to the last segment.  The knots obey PiecewiseModel's
    rules.  Raises EmptySegment when an interval has no samples.
    """
    knots = _checked_knots(knots)
    J = knots.size - 1
    t = dataset.times
    if np.any(t < knots[0] - 1e-12) or np.any(t > knots[-1] + 1e-12):
        raise ValueError("sample times fall outside the knot range")
    idx = np.clip(np.searchsorted(knots, t, side="right") - 1, 0, J - 1)
    out = []
    for j in range(J):
        members = np.flatnonzero(idx == j)
        if members.size == 0:
            raise EmptySegment(f"knot interval [{knots[j]}, {knots[j + 1]}] contains no samples")
        local = (t[members] - knots[j]) / (knots[j + 1] - knots[j])
        out.append(Dataset(local, tuple(dataset.matrices[m] for m in members)))
    return out


def continuity_gap(model: PiecewiseModel) -> np.ndarray:
    """Subspace error between adjacent segment endpoints, one per interior knot."""
    gaps = [
        subspace_error(model.segments[j].evaluate(1.0), model.segments[j + 1].evaluate(0.0))
        for j in range(model.n_segments - 1)
    ]
    return np.asarray(gaps)


def penalized_objective(segment_data: list[Dataset], segments: list[GeodesicModel], lam: float) -> float:
    """Data residual plus lambda times the interior-knot continuity penalty."""
    total = sum(loss(sd, seg) for sd, seg in zip(segment_data, segments))
    if lam > 0:
        for j in range(len(segments) - 1):
            # k - ||U^T V||_F^2 in its residual form ||U - V V^T U||_F^2,
            # which stays non-negative and accurate when the gap closes.
            u, v = segments[j].evaluate(1.0), segments[j + 1].evaluate(0.0)
            resid = u - v @ (v.T @ u)
            total += lam * float(np.sum(resid * resid))
    return total


def loss_per_timepoint(dataset: Dataset, model) -> np.ndarray:
    """Per-sample residual ||X_i - U(t_i) U(t_i)^T X_i||_F^2; sums to the loss.

    Accepts a GeodesicModel or a PiecewiseModel.
    """
    if dataset.d != (model.d if isinstance(model, GeodesicModel) else model.segments[0].d):
        raise DimensionMismatch("dataset and model ambient dimensions differ")
    out = np.empty(dataset.n_samples)
    for i, (t, x) in enumerate(zip(dataset.times, dataset.matrices)):
        u = model.evaluate(t)
        resid = x - u @ (u.T @ x)
        out[i] = float(np.sum(resid * resid))
    return out


def _augmented(segment_data: Dataset, j: int, segments: list[GeodesicModel], lam: float) -> Dataset:
    """Segment data plus the continuity pseudo-samples at local t = 0 and 1."""
    times = list(segment_data.times)
    mats = list(segment_data.matrices)
    root = np.sqrt(lam)
    if j > 0:
        times.append(0.0)
        mats.append(root * segments[j - 1].evaluate(1.0))
    if j < len(segments) - 1:
        times.append(1.0)
        mats.append(root * segments[j + 1].evaluate(0.0))
    return Dataset(np.asarray(times), tuple(mats))


def fit_piecewise(
    dataset: Dataset,
    knots: np.ndarray,
    lam: float,
    config: EstimatorConfig,
    init_segments=None,
    max_sweeps: int = 50,
) -> PiecewiseFitReport:
    """Fit a piecewise geodesic by block-coordinate sweeps over segments.

    Without `init_segments`, the first stage fits every segment
    independently; with lambda = 0 that is the entire computation (the
    penalty vanishes and the segments decouple), so the result matches
    per-segment `fit` calls exactly.  For lambda > 0 the sweeps then refit
    each segment on its data augmented with the neighbor pseudo-samples,
    starting from its current model, until the penalized objective stalls
    (same relative rule as the inner fits) or `max_sweeps` is reached.
    Lambda must be finite and >= 0.
    """
    check_lambda(lam)
    knots = np.asarray(knots, dtype=float)
    segment_data = split_by_knots(dataset, knots)
    J = len(segment_data)

    if init_segments is None:
        segments = [fit(sd, config).model for sd in segment_data]
    else:
        if len(init_segments) != J:
            raise DimensionMismatch(f"{J} segments required, got {len(init_segments)} initial models")
        segments = list(init_segments)

    objectives = [penalized_objective(segment_data, segments, lam)]
    converged = lam == 0.0 and init_segments is None
    sweeps = 1
    if not converged:
        for sweep in range(2, max_sweeps + 1):
            order = range(J) if sweep % 2 == 0 else range(J - 1, -1, -1)
            for j in order:
                data_j = _augmented(segment_data[j], j, segments, lam) if lam > 0 else segment_data[j]
                cfg_j = replace(config, init=ProvidedInit(segments[j]))
                segments[j] = fit(data_j, cfg_j).model
            objectives.append(penalized_objective(segment_data, segments, lam))
            sweeps = sweep
            previous, current = objectives[-2], objectives[-1]
            if (previous - current) < config.rel_loss_tol * max(previous, _TINY):
                converged = True
                break

    trail = np.asarray(objectives)
    trail.flags.writeable = False
    return PiecewiseFitReport(
        model=PiecewiseModel(knots, tuple(segments)),
        objective_per_sweep=trail,
        sweeps_run=sweeps,
        converged=converged,
    )


def fit_piecewise_schedule(
    dataset: Dataset,
    knots: np.ndarray,
    lams,
    config: EstimatorConfig,
    max_sweeps: int = 50,
) -> list[PiecewiseFitReport]:
    """Continuation over a lambda schedule, each stage warm-started from the last; every lambda is checked first."""
    lams = list(lams)
    for lam in lams:
        check_lambda(lam)
    reports = []
    segments = None
    for lam in lams:
        report = fit_piecewise(dataset, knots, lam, config, init_segments=segments, max_sweeps=max_sweeps)
        reports.append(report)
        segments = report.model.segments
    return reports
