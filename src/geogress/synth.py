"""Planted-model instance generation for the synthetic experiments."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import DimensionMismatch, check_count, check_setting
from .geodesic import GeodesicModel, connect, random_geodesic


@dataclass(frozen=True)
class PlantedInstance:
    """A synthetic dataset together with what generated it.

    X_i = U(t_i) G_i + N_i with the model U (`truth`) drawn at random, the
    standard-normal loadings G_i (`loadings`, read-only k x ell arrays) and
    i.i.d. Gaussian noise of standard deviation sigma.  Only the noisy data
    are stored; `clean` computes the noiseless U(t_i) G_i on each access.
    """

    dataset: Dataset
    truth: GeodesicModel
    loadings: tuple[np.ndarray, ...]

    @property
    def clean(self) -> tuple[np.ndarray, ...]:
        """The noiseless matrices U(t_i) G_i, bitwise the products the data were drawn from."""
        return tuple(self.truth.evaluate(t) @ g for t, g in zip(self.dataset.times, self.loadings))


def sample_times(T: int) -> np.ndarray:
    """Equispaced time points on [0, 1]; a single sample sits at t = 0."""
    if T == 1:
        return np.zeros(1)
    return np.arange(T) / (T - 1)


def check_instance_settings(d: int, k: int, ell: int, T: int, sigma: float, theta_max: float) -> None:
    """Reject settings no planted instance has."""
    check_count("k", k, 1)
    check_count("d", d, 1)
    if not 2 * k <= d:
        raise DimensionMismatch(f"need 2k <= d, got k={k}, d={d}")
    check_count("T", T, 1)
    check_count("ell", ell, 1)
    check_setting("sigma", sigma, 0)
    check_setting("theta_max", theta_max, 0, np.pi / 2)


def _sample(rng: np.random.Generator, bases, ell: int, sigma: float):
    """Read-only loadings G_i and noisy matrices U_i G_i + sigma N_i, one per d x k basis U_i.

    `bases` is iterated once, in time order.  Per time the loadings G_i are
    drawn before the noise N_i, so the stream of a seed is fixed.
    """
    loadings, noisy = [], []
    for u in bases:
        d, k = u.shape
        g = rng.standard_normal((k, ell))
        n = rng.standard_normal((d, ell))
        g.flags.writeable = False
        loadings.append(g)
        noisy.append(u @ g + sigma * n)
    return tuple(loadings), tuple(noisy)


def planted_instance(
    d: int, k: int, ell: int, T: int, sigma: float, theta_max: float, seed: int
) -> PlantedInstance:
    """Generate one planted instance, deterministic under the seed.

    The noise stream is drawn (and scaled by sigma) even when sigma = 0,
    so instances with the same seed share loadings across noise levels.
    """
    check_instance_settings(d, k, ell, T, sigma, theta_max)
    check_count("seed", seed, 0)
    rng = np.random.default_rng(seed)
    truth = random_geodesic(d, k, theta_max, rng)
    times = sample_times(T)
    loadings, noisy = _sample(rng, (truth.evaluate(t) for t in times), ell, sigma)
    return PlantedInstance(dataset=Dataset(times, noisy), truth=truth, loadings=loadings)


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
    check_instance_settings(d, k, ell, T, sigma, theta_max)
    check_count("seed", seed, 0)
    knot = 0.5
    rng = np.random.default_rng(seed)
    first = random_geodesic(d, k, theta_max, rng)
    far = random_geodesic(d, k, theta_max, rng)
    second = connect(first.evaluate(1.0), far.evaluate(1.0))
    times = sample_times(T)
    bases = [
        first.evaluate(t / knot) if t <= knot else second.evaluate((t - knot) / (1.0 - knot)) for t in times
    ]
    loadings, noisy = _sample(rng, bases, ell, sigma)
    clean = tuple(u @ g for u, g in zip(bases, loadings))
    knots = np.array([0.0, knot, 1.0])
    return Dataset(times, noisy), (first, second), knots, clean
