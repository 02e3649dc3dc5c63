"""Planted-model instance generation for the synthetic experiments."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import DimensionMismatch
from .geodesic import GeodesicModel, connect, random_geodesic


@dataclass(frozen=True)
class PlantedInstance:
    """A synthetic dataset together with the ground truth that generated it.

    X_i = U(t_i) G_i + N_i with the model U drawn at random, standard-normal
    loadings G_i and i.i.d. Gaussian noise of standard deviation sigma;
    `clean` holds the noiseless U(t_i) G_i.
    """

    dataset: Dataset
    truth: GeodesicModel
    clean: tuple[np.ndarray, ...]


def sample_times(T: int) -> np.ndarray:
    """Equispaced time points on [0, 1]; a single sample sits at t = 0."""
    if T == 1:
        return np.zeros(1)
    return np.arange(T) / (T - 1)


def _sample(rng: np.random.Generator, bases, ell: int, sigma: float):
    """Noisy and clean matrices U_i G_i (+ sigma N_i), one per d x k basis U_i.

    `bases` is iterated once, in time order.  Per time the loadings G_i are
    drawn before the noise N_i, so the stream of a seed is fixed.
    """
    noisy, clean = [], []
    for u in bases:
        d, k = u.shape
        g = rng.standard_normal((k, ell))
        n = rng.standard_normal((d, ell))
        x = u @ g
        clean.append(x)
        noisy.append(x + sigma * n)
    return tuple(noisy), tuple(clean)


def planted_instance(
    d: int, k: int, ell: int, T: int, sigma: float, theta_max: float, seed: int
) -> PlantedInstance:
    """Generate one planted instance, deterministic under the seed.

    The noise stream is drawn (and scaled by sigma) even when sigma = 0,
    so instances with the same seed share loadings across noise levels.
    """
    if 2 * k > d:
        raise DimensionMismatch(f"need 2k <= d, got k={k}, d={d}")
    if T < 1 or ell < 1:
        raise ValueError("need T >= 1 and ell >= 1")
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    rng = np.random.default_rng(seed)
    truth = random_geodesic(d, k, theta_max, rng)
    times = sample_times(T)
    noisy, clean = _sample(rng, (truth.evaluate(t) for t in times), ell, sigma)
    return PlantedInstance(dataset=Dataset(times, noisy), truth=truth, clean=clean)


def permute_times(dataset: Dataset, seed: int) -> Dataset:
    """Shuffle the sample matrices against the (unchanged) time grid."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(dataset.n_samples)
    return Dataset(dataset.times, tuple(dataset.matrices[p] for p in perm))


def planted_piecewise_instance(d: int, k: int, ell: int, T: int, sigma: float, theta_max: float, seed: int):
    """Two-segment continuous piecewise-geodesic instance, knots (0, 0.5, 1).

    The first segment is a random geodesic; the second starts from the first
    segment's end span and heads toward an independent random span, so the
    path is continuous at the knot t = 0.5.  Returns (dataset, (segment
    models), knots, clean matrices).
    """
    knot = 0.5
    rng = np.random.default_rng(seed)
    first = random_geodesic(d, k, theta_max, rng)
    far = random_geodesic(d, k, theta_max, rng)
    second = connect(first.evaluate(1.0), far.evaluate(1.0))
    times = sample_times(T)
    bases = (
        first.evaluate(t / knot) if t <= knot else second.evaluate((t - knot) / (1.0 - knot)) for t in times
    )
    noisy, clean = _sample(rng, bases, ell, sigma)
    knots = np.array([0.0, knot, 1.0])
    return Dataset(times, noisy), (first, second), knots, clean
