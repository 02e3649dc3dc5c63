"""Rank-1, two-dimensional loss-surface tooling.

For d = 2, k = 1 the model reduces to two scalars: the base angle omega
with H = [cos w, sin w] and Y = [-sin w, cos w], and the arc angle theta.
The loss then has the closed form

    sum_i b_i - r_i cos(2 theta t_i - phi_i + 2 omega)

with the per-sample cosine constants computed at the identity basis pair.
The surface is pi-periodic in omega.
"""

from __future__ import annotations

import numpy as np

from .dataset import Dataset
from .errors import DimensionMismatch, check_setting
from .estimator import EstimatorConfig, angle_constants, fit
from .geodesic import GeodesicModel


def loss_surface_2d(dataset: Dataset, omega_grid: np.ndarray, theta_grid: np.ndarray) -> np.ndarray:
    """Loss at every (omega, theta) grid point, shape (len(omega), len(theta))."""
    if dataset.d != 2:
        raise DimensionMismatch(f"surface requires ambient dimension 2, got {dataset.d}")
    omega = np.asarray(omega_grid, dtype=float)
    theta = np.asarray(theta_grid, dtype=float)
    constants = angle_constants(dataset, np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]]))
    r, phi = constants.r[:, 0], constants.phi[:, 0]
    surface = np.full((omega.size, theta.size), np.sum(constants.b))
    for i, t in enumerate(dataset.times):
        surface -= r[i] * np.cos(2.0 * theta[None, :] * t - phi[i] + 2.0 * omega[:, None])
    return surface


def recenter_times(dataset: Dataset, t_center: float) -> Dataset:
    """Shift every sample time by -t_center; matrices untouched."""
    check_setting("t_center", t_center, 0, 1)
    return dataset.with_times(dataset.times - t_center)


def plane_coordinates(model: GeodesicModel) -> tuple[float, float]:
    """Extract (omega, theta) for a d=2, k=1 model.

    omega is fixed to the branch (-pi/2, pi/2]; the base-sign and
    direction-sign ambiguities are absorbed into the sign of theta, so the
    returned pair traces the same projector path as the model.
    """
    if model.d != 2 or model.k != 1:
        raise DimensionMismatch("plane coordinates require d=2, k=1")
    omega = float(np.arctan2(model.H[1, 0], model.H[0, 0]))
    base_sign = 1.0
    if omega > np.pi / 2:
        omega -= np.pi
        base_sign = -1.0
    elif omega <= -np.pi / 2:
        omega += np.pi
        base_sign = -1.0
    canonical_dir = np.array([-np.sin(omega), np.cos(omega)])
    dir_sign = 1.0 if float(model.Y[:, 0] @ canonical_dir) >= 0 else -1.0
    return omega, base_sign * dir_sign * float(model.theta[0])


def record_iterates(dataset: Dataset, config: EstimatorConfig):
    """Run a d=2, k=1 fit and collect (omega, theta) after each outer iteration.

    The pairs live on the surface of the dataset as given, so a study on a
    recentred axis passes `recenter_times` data.  Returns (pairs, report)
    with one pair per accepted outer iteration, shape (n, 2).
    """
    if dataset.d != 2:
        raise DimensionMismatch(f"iterate recording requires ambient dimension 2, got {dataset.d}")
    pairs = []

    def watch(model: GeodesicModel, _loss_value: float) -> None:
        pairs.append(plane_coordinates(model))

    report = fit(dataset, config, callback=watch)
    return np.asarray(pairs, dtype=float).reshape(-1, 2), report
