"""Metric definitions against small-case oracles."""

import math
import re
import warnings

import numpy as np
import pytest

from geogress import (
    DimensionMismatch,
    GeodesicModel,
    data_error,
    geodesic_error,
    psnr,
    random_geodesic,
    static_as_geodesic,
    subspace_error,
)
from geogress.geodesic import orthonormalize


def projector_oracle(U, V):
    k = U.shape[1]
    P = U @ U.T
    Q = V @ V.T
    return np.linalg.norm(P - Q) / math.sqrt(2 * k)


class TestSubspaceError:
    def test_rotation_invariance(self):
        U = random_geodesic(8, 3, 1.0, seed=1).H
        rot = orthonormalize(np.random.default_rng(2).standard_normal((3, 3)))
        assert subspace_error(U, U @ rot) <= 1e-12

    def test_orthogonal_spans_have_error_one(self):
        U = np.eye(6)[:, :2]
        V = np.eye(6)[:, 2:4]
        assert subspace_error(U, V) == pytest.approx(1.0, abs=1e-14)

    def test_plane_angle_oracle(self):
        for psi in (0.1, 0.73, 1.2, np.pi / 2):
            U = np.array([[1.0], [0.0]])
            V = np.array([[np.cos(psi)], [np.sin(psi)]])
            assert subspace_error(U, V) == pytest.approx(abs(np.sin(psi)), abs=1e-12)

    def test_matches_explicit_projector_difference(self):
        for trial in range(30):
            d = 3 + trial % 4
            k = 1 + trial % 2 if d >= 4 else 1
            U = orthonormalize(np.random.default_rng(100 + trial).standard_normal((d, k)))
            V = orthonormalize(np.random.default_rng(200 + trial).standard_normal((d, k)))
            assert subspace_error(U, V) == pytest.approx(projector_oracle(U, V), abs=1e-10)

    def test_symmetric_and_bounded(self):
        for trial in range(30):
            U = random_geodesic(9, 3, 1.0, seed=300 + trial).H
            V = random_geodesic(9, 3, 1.0, seed=400 + trial).H
            e1, e2 = subspace_error(U, V), subspace_error(V, U)
            assert e1 == pytest.approx(e2, abs=1e-12)
            assert 0.0 <= e1 <= 1.0 + 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            subspace_error(np.eye(4)[:, :2], np.eye(4)[:, :1])

    @pytest.mark.parametrize("shape", [(4, 0), (4,), (0,)])
    def test_non_bases_rejected_with_their_shape(self, shape):
        # k = 0 used to divide by zero, and 1-D input to index a missing axis.
        with pytest.raises(DimensionMismatch, match=re.escape(str(shape))):
            subspace_error(np.zeros(shape), np.zeros(shape))


def ambient_geodesic_error(m1, m2, n_quad=201):
    """The d-dimensional formula geodesic_error used before it moved to span coordinates."""
    grid = np.linspace(0.0, 1.0, n_quad)
    p1 = m1.evaluate_path(grid)
    p2 = m2.evaluate_path(grid)
    cross = np.einsum("ndk,ndm->nkm", p2, p1)
    resid = p1 - np.einsum("ndk,nkm->ndm", p2, cross)
    return math.sqrt(float(np.mean(np.sum(resid * resid, axis=(1, 2)) / m1.k)))


class TestGeodesicError:
    # (6, 3) has 4k > d: the span coordinates are then all d of them.
    SHAPES = ((6, 3), (5, 1), (40, 8), (200, 8))

    def test_matches_ambient_formula(self):
        for d, k in self.SHAPES:
            for trial in range(5):
                a = random_geodesic(d, k, 1.5, seed=1000 + trial)
                b = random_geodesic(d, k, 1.5, seed=2000 + trial)
                assert abs(geodesic_error(a, b) - ambient_geodesic_error(a, b)) <= 1e-14, (d, k, trial)

    def test_identical_models_have_zero_error(self):
        for d, k in self.SHAPES:
            for trial in range(5):
                m = random_geodesic(d, k, 1.5, seed=3000 + trial)
                assert geodesic_error(m, m) <= 1e-15, (d, k, trial)

    def test_canonicalized_model_has_zero_error(self):
        m = random_geodesic(8, 2, 1.4, seed=5)
        assert geodesic_error(m, m.canonicalize()) <= 1e-10

    def test_orthogonal_static_models(self):
        a = static_as_geodesic(np.eye(8)[:, :2])
        b = static_as_geodesic(np.eye(8)[:, 2:4])
        assert geodesic_error(a, b) == pytest.approx(1.0, abs=1e-12)

    def test_frozen_quadrature_value_for_plane_rotation(self):
        # static line vs quarter rotation: error(t) = |sin(pi t / 2)|.
        # Expected value computed with the same uniform-grid quadrature at
        # n_quad = 1e5 and frozen here; the default grid must approach it.
        static = GeodesicModel(np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]]), np.zeros(1))
        rotating = GeodesicModel(
            np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]]), np.array([np.pi / 2])
        )
        grid = np.linspace(0.0, 1.0, 100_000)
        oracle = float(np.sqrt(np.mean(np.sin(np.pi * grid / 2) ** 2)))
        assert oracle == pytest.approx(0.7071067811865476, abs=1e-12)
        assert geodesic_error(static, rotating) == pytest.approx(oracle, abs=1e-3)
        assert geodesic_error(static, rotating, n_quad=100_000) == pytest.approx(oracle, abs=1e-12)

    def test_symmetry(self):
        a = random_geodesic(10, 2, 1.2, seed=6)
        b = random_geodesic(10, 2, 1.2, seed=7)
        assert geodesic_error(a, b) == pytest.approx(geodesic_error(b, a), abs=1e-15)
        for d, k in self.SHAPES:
            a = random_geodesic(d, k, 1.2, seed=4000 + d)
            b = random_geodesic(d, k, 1.2, seed=5000 + d)
            assert abs(geodesic_error(a, b) - geodesic_error(b, a)) <= 1e-15, (d, k)

    def test_quadrature_converged_at_default_resolution(self):
        for trial in range(10):
            a = random_geodesic(10, 2, 1.5, seed=800 + trial)
            b = random_geodesic(10, 2, 1.5, seed=900 + trial)
            coarse = geodesic_error(a, b, n_quad=201)
            fine = geodesic_error(a, b, n_quad=2001)
            assert abs(coarse - fine) <= 1e-3

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            geodesic_error(random_geodesic(8, 2, 1.0, seed=1), random_geodesic(8, 3, 1.0, seed=1))

    def test_quadrature_size_checked(self):
        m = random_geodesic(8, 2, 1.0, seed=1)
        for n_quad in (1, 0, math.nan, math.inf):
            with pytest.raises(ValueError, match="^n_quad must"):
                geodesic_error(m, m, n_quad=n_quad)


class TestDataError:
    def test_exact_reconstruction(self):
        clean = [np.ones((4, 2)), np.zeros((4, 1)) + 3.0]
        assert data_error(clean, clean) == 0.0

    def test_zero_reconstruction(self):
        clean = [np.ones((4, 2)), np.full((4, 3), -2.0)]
        zeros = [np.zeros_like(c) for c in clean]
        assert data_error(zeros, clean) == pytest.approx(1.0, abs=1e-14)

    def test_constructed_perturbation(self):
        rng = np.random.default_rng(8)
        clean = [rng.standard_normal((5, 3)) for _ in range(4)]
        noise = [rng.standard_normal((5, 3)) for _ in range(4)]
        rec = [c + 0.1 * n for c, n in zip(clean, noise)]
        expected = 0.1 * math.sqrt(sum(np.sum(n * n) for n in noise)) / math.sqrt(
            sum(np.sum(c * c) for c in clean)
        )
        assert data_error(rec, clean) == pytest.approx(expected, rel=1e-12)

    def test_no_samples_rejected(self):
        with pytest.raises(DimensionMismatch, match="at least one sample"):
            data_error([], [])

    def test_zero_clean_norm_rejected(self):
        zeros = [np.zeros((4, 2)), np.zeros((4, 1))]
        with pytest.raises(ValueError, match="clean data has zero norm"):
            data_error([np.ones((4, 2)), np.ones((4, 1))], zeros)


class TestPsnr:
    def test_identical_frames_are_infinite(self):
        frame = np.full((8, 6), 100.0)
        assert psnr(frame, frame) == math.inf

    def test_rmse_255_is_zero_db(self):
        clean = np.zeros((4, 4))
        noisy = np.full((4, 4), 255.0)
        assert psnr(noisy, clean) == pytest.approx(0.0, abs=1e-12)

    def test_rmse_one_tenth_of_peak_is_twenty_db(self):
        clean = np.zeros((4, 4))
        noisy = np.full((4, 4), 25.5)
        assert psnr(noisy, clean) == pytest.approx(20.0, abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            psnr(np.zeros((4, 4)), np.zeros((4, 5)))

    def test_empty_frames_rejected_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DimensionMismatch, match=re.escape("(0, 3)")):
                psnr(np.zeros((0, 3)), np.zeros((0, 3)))
