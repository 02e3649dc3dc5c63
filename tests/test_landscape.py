"""Plane (d=2, k=1) loss surface and iterate recording."""

import numpy as np
import pytest

from geogress import (
    DimensionMismatch,
    EstimatorConfig,
    GeodesicModel,
    RandomInit,
    ProvidedInit,
    loss,
    loss_surface_2d,
    plane_coordinates,
    planted_instance,
    record_iterates,
    recenter_times,
)
from geogress import estimator


def plane_model(omega, theta):
    return GeodesicModel(
        np.array([[np.cos(omega)], [np.sin(omega)]]),
        np.array([[-np.sin(omega)], [np.cos(omega)]]),
        np.array([theta]),
    )


class TestLossSurface:
    def test_matches_generic_loss_on_grid(self):
        inst = planted_instance(2, 1, 1, 9, 0.1, 1.2, seed=3)
        omegas = np.linspace(-np.pi / 2, np.pi / 2, 7)
        thetas = np.linspace(-np.pi, np.pi, 9)
        surface = loss_surface_2d(inst.dataset, omegas, thetas)
        for i, omega in enumerate(omegas):
            for j, theta in enumerate(thetas):
                expected = loss(inst.dataset, plane_model(omega, theta))
                assert surface[i, j] == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_pi_periodic_in_omega(self):
        inst = planted_instance(2, 1, 2, 6, 0.3, 1.0, seed=4)
        thetas = np.linspace(-np.pi, np.pi, 11)
        a = loss_surface_2d(inst.dataset, np.array([0.3]), thetas)
        b = loss_surface_2d(inst.dataset, np.array([0.3 + np.pi]), thetas)
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_zero_data_gives_constant_surface(self):
        from geogress import Dataset

        ds = Dataset(np.array([0.0, 0.5, 1.0]), tuple(np.zeros((2, 2)) for _ in range(3)))
        surface = loss_surface_2d(ds, np.linspace(-1, 1, 5), np.linspace(-2, 2, 5))
        assert np.max(np.abs(surface)) <= 1e-15

    def test_requires_plane_data(self):
        inst = planted_instance(4, 1, 1, 5, 0.1, 1.0, seed=5)
        with pytest.raises(DimensionMismatch):
            loss_surface_2d(inst.dataset, np.zeros(3), np.zeros(3))


class TestRecenterTimes:
    def test_center_outside_unit_interval_rejected(self):
        inst = planted_instance(2, 1, 1, 5, 0.1, 1.0, seed=6)
        for t_center in (-0.1, 1.5, np.nan, np.inf):
            with pytest.raises(ValueError, match="^t_center must"):
                recenter_times(inst.dataset, t_center)

    def test_zero_center_is_identity(self):
        inst = planted_instance(2, 1, 1, 5, 0.1, 1.0, seed=6)
        out = recenter_times(inst.dataset, 0.0)
        np.testing.assert_array_equal(out.times, inst.dataset.times)

    def test_half_center_is_symmetric(self):
        inst = planted_instance(2, 1, 1, 5, 0.1, 1.0, seed=7)
        out = recenter_times(inst.dataset, 0.5)
        np.testing.assert_allclose(out.times, -out.times[::-1], atol=1e-15)


class TestPlaneCoordinates:
    def test_round_trip_preserves_projector_path(self):
        rng = np.random.default_rng(10)
        for _ in range(25):
            omega = rng.uniform(-np.pi, np.pi)
            theta = rng.uniform(-2.5, 2.5)
            m = plane_model(omega, theta)
            # randomly flip the stored column signs; the span path is unchanged
            H = m.H * (-1.0 if rng.random() < 0.5 else 1.0)
            Y = m.Y * (-1.0 if rng.random() < 0.5 else 1.0)
            flipped = GeodesicModel(H, Y, m.theta)
            w, a = plane_coordinates(flipped)
            assert -np.pi / 2 < w <= np.pi / 2
            rebuilt = plane_model(w, a)
            for t in np.linspace(0, 1, 5):
                u, v = rebuilt.evaluate(t), flipped.evaluate(t)
                assert np.linalg.norm(u @ u.T - v @ v.T) <= 1e-10


class TestRecordIterates:
    def test_minimum_init_yields_single_point(self):
        inst = planted_instance(2, 1, 3, 7, 1e-4, 1.0, seed=11)
        cfg = EstimatorConfig(init=RandomInit(1, seed=12), outer_iters=300)
        _, first = record_iterates(inst.dataset, cfg)
        cfg2 = EstimatorConfig(init=ProvidedInit(first.model), outer_iters=300)
        pairs, report = record_iterates(inst.dataset, cfg2)
        assert report.outer_iters_run == 1
        assert pairs.shape[0] <= 1

    def test_centered_fit_converges_faster(self):
        # A claim about block descent, so the Gauss-Newton step is off:
        # with it, both fits stop within a few iterations (next test).
        inst = planted_instance(2, 1, 1, 9, 0.1, 1.2, seed=3)
        config = EstimatorConfig(init=RandomInit(1, theta_max=1.0, seed=11), outer_iters=400, rel_loss_tol=1e-9)
        centered = recenter_times(inst.dataset, 0.5)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(estimator, "_MAX_STEP_UNKNOWNS", 0)
            _, rep_plain = record_iterates(inst.dataset, config)
            _, rep_centered = record_iterates(centered, config)
        assert rep_centered.outer_iters_run < rep_plain.outer_iters_run

    def test_step_makes_centering_unneeded(self):
        # With the step, the plain fit stops within five iterations, before
        # block descent on the centred axis does, at the same loss.
        inst = planted_instance(2, 1, 1, 9, 0.1, 1.2, seed=3)
        config = EstimatorConfig(init=RandomInit(1, theta_max=1.0, seed=11), outer_iters=400, rel_loss_tol=1e-9)
        centered = recenter_times(inst.dataset, 0.5)
        _, rep_plain = record_iterates(inst.dataset, config)
        _, rep_centered = record_iterates(centered, config)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(estimator, "_MAX_STEP_UNKNOWNS", 0)
            _, block_centered = record_iterates(centered, config)
        assert rep_plain.outer_iters_run <= 5 and rep_centered.outer_iters_run <= 5
        assert rep_plain.outer_iters_run < block_centered.outer_iters_run
        for rep in (rep_centered, block_centered):
            assert rep.loss_per_outer_iter[-1] == pytest.approx(rep_plain.loss_per_outer_iter[-1], rel=1e-8)

    def test_iterate_losses_read_off_surface_are_monotone(self):
        inst = planted_instance(2, 1, 1, 9, 0.1, 1.2, seed=3)
        cfg = EstimatorConfig(init=RandomInit(1, theta_max=1.0, seed=11), outer_iters=200, rel_loss_tol=1e-9)
        pairs, report = record_iterates(inst.dataset, cfg)
        values = []
        for (omega, theta), recorded in zip(pairs, report.loss_per_outer_iter[1:]):
            v = loss_surface_2d(inst.dataset, np.array([omega]), np.array([theta]))[0, 0]
            assert v == pytest.approx(recorded, rel=1e-9)
            values.append(v)
        values = np.asarray(values)
        assert np.all(values[1:] <= values[:-1] * (1 + 1e-10))

    def test_requires_plane_data(self):
        inst = planted_instance(4, 1, 1, 5, 0.1, 1.0, seed=13)
        with pytest.raises(DimensionMismatch):
            record_iterates(inst.dataset, EstimatorConfig(init=RandomInit(1, seed=1)))
