"""Tests for the loss, the two block updates, and the outer fit loop."""

import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from geogress import (
    AngleConstants,
    Dataset,
    DimensionMismatch,
    EndpointsInit,
    EstimatorConfig,
    GeodesicModel,
    InitFailure,
    NonpositiveTime,
    ProvidedInit,
    RandomInit,
    angle_constants,
    angle_gradient,
    angle_loss_terms,
    angle_mm_step,
    basis_update,
    curvature_weight,
    fit,
    geodesic_error,
    init_endpoints,
    loss,
    planted_instance,
    random_geodesic,
    reconstruct,
    subspace_error,
)
from geogress import estimator
from geogress.errors import check_count, check_setting
from geogress.geodesic import orthonormal_complement


def lstsq_loss(dataset, model):
    """Independent oracle: per-sample least-squares fit of the loadings."""
    total = 0.0
    for t, x in zip(dataset.times, dataset.matrices):
        u = model.evaluate(t)
        g, *_ = np.linalg.lstsq(u, x, rcond=None)
        total += float(np.sum((x - u @ g) ** 2))
    return total


def ragged_dataset(seed, d=8, k=2, T=7, sigma=0.5):
    """Planted data with widths 1-3 on a recentred axis: one sample at t = 0, some at t < 0."""
    inst = planted_instance(d, k, 3, T, sigma, 1.3, seed=seed)
    times = inst.dataset.times - inst.dataset.times[T // 2]
    return Dataset(times, tuple(x[:, : 1 + i % 3] for i, x in enumerate(inst.dataset.matrices)))


# Per-sample reference implementations of the estimator's column-stack kernel.


def sample_loss(dataset, model):
    """sum_i ||X_i - U(t_i) U(t_i)^T X_i||^2, one sample at a time."""
    total = 0.0
    for t, x in zip(dataset.times, dataset.matrices):
        u = model.evaluate(t)
        resid = x - u @ (u.T @ x)
        total += float(np.sum(resid * resid))
    return total


def sample_basis_target(dataset, model):
    """Procrustes target sum_i X_i X_i^T U(t_i) [diag cos(theta t_i) | diag sin(theta t_i)]."""
    target = np.zeros((dataset.d, 2 * model.k))
    for t, x in zip(dataset.times, dataset.matrices):
        p = x @ (x.T @ model.evaluate(t))
        target += np.concatenate([p * np.cos(model.theta * t), p * np.sin(model.theta * t)], axis=1)
    return target


def polar_factor(matrix):
    w, _, vt = np.linalg.svd(matrix, full_matrices=False)
    return w @ vt


def sample_angle_constants(dataset, H, Y):
    """Angle constants from the k x ell_i products H^T X_i and Y^T X_i of each sample."""
    sums = []
    for x in dataset.matrices:
        a, c = H.T @ x, Y.T @ x
        sums.append([np.sum(a * a, axis=1), np.sum(c * a, axis=1), np.sum(c * c, axis=1)])
    alpha, beta, gamma = np.moveaxis(np.array(sums), 1, 0)
    half_diff = 0.5 * (alpha - gamma)
    return AngleConstants(
        alpha, beta, gamma, np.hypot(half_diff, beta), np.arctan2(beta, half_diff), 0.5 * (alpha + gamma)
    )


def reference_slopes(r, phi, times, theta):
    """The angle step's derivative and curvature weight, as first written.

    The weight is the derivative divided by the distance delta from theta
    to the nearest cosine axis, wrapped with np.mod; within 1e-9 half
    periods of the axis it takes the limit 4 t^2 r.
    """
    t = np.abs(times)[:, None]
    sign = np.sign(times)[:, None]
    t_safe = np.where(t > 0, t, 1.0)
    phi = phi * sign
    axis, half, period = phi / (2.0 * t_safe), np.pi / (2.0 * t_safe), np.pi / t_safe
    deriv = 2.0 * r * t * np.sin(2.0 * t * theta[None, :] - phi)
    delta = np.mod(theta[None, :] - axis + half, period) - half
    near_axis = np.abs(delta) <= 1e-9 * half
    weight = np.divide(deriv, delta, out=np.zeros_like(deriv), where=~near_axis)
    return deriv, np.where(near_axis, 4.0 * t * t * r, weight)


def reference_mm_steps(r, phi, times, theta, steps):
    """`steps` MM steps on every angle with `reference_slopes`."""
    for _ in range(steps):
        deriv, weight = reference_slopes(r, phi, times, theta)
        num, den = np.sum(deriv, axis=0), np.sum(weight, axis=0)
        theta = theta - np.divide(num, den, out=np.zeros_like(num), where=den != 0.0)
    return theta


def full_mm_steps(stepper, theta, steps):
    """`steps` MM steps with `stepper.slopes`, as `_AngleStepper.run` takes them but with no early exit."""
    for _ in range(steps):
        deriv, weight = stepper.slopes(theta)
        num, den = deriv.sum(axis=0), weight.sum(axis=0)
        theta = theta - np.divide(num, den, out=np.zeros_like(num), where=den != 0.0)
    return theta


def counting_slopes(stepper, slopes=None):
    """Record every theta `stepper.slopes` is called at; `slopes` replaces the real one if given."""
    calls = []
    slopes = slopes or stepper.slopes

    def counted(theta):
        calls.append(theta)
        return slopes(theta)

    stepper.slopes = counted
    return calls


def reference_jacobian(point, tau):
    """The edge chart's Jacobian as two dense N x k x 2k^2 blocks, along the rest of span Q and along U(t).

    The chart's Jacobian as first written, which `fit` no longer forms:
    block [i, m, j] is the change of row m of column i's residual under
    unknown j, the unknowns packed as (upper triangle of A, dtheta).
    """
    k = point.H.shape[1]
    cos_all, sin_all, c, v = point.cos, point.sin, point.coords, point.weighted
    e = cos_all * point.proj[k:] - sin_all * point.proj[:k]
    r = np.concatenate([-sin_all * e, cos_all * e])
    cs, cd = np.concatenate([cos_all, sin_all]), np.concatenate([-sin_all, cos_all])
    ia, ib = np.triu_indices(2 * k, 1)
    row_a, row_b, pair, idx = ia % k, ib % k, np.arange(ia.size), np.arange(k)
    jac_n = np.zeros((tau.size, k, ia.size + k))
    jac_n[:, row_b, pair] = (cd[ib] * v[ia]).T
    jac_n[:, row_a, pair] -= (cd[ia] * v[ib]).T
    jac_n[:, idx, ia.size + idx] = -tau[:, None] * c.T
    jac_u = np.zeros((tau.size, k, ia.size + k))
    jac_u[:, row_a, pair] = (cs[ia] * r[ib]).T
    jac_u[:, row_b, pair] -= (cs[ib] * r[ia]).T
    jac_u[:, idx, ia.size + idx] = -tau[:, None] * e.T
    return jac_n, jac_u, e


def reference_normal_equations(point, tau):
    """J^T J and J^T e of `reference_jacobian`."""
    jac_n, jac_u, e = reference_jacobian(point, tau)
    n, k, size = jac_n.shape
    jn, ju = jac_n.reshape(n * k, size), jac_u.reshape(n * k, size)
    return jn.T @ jn + ju.T @ ju, jn.T @ e.T.reshape(-1)


def reference_directional(point, tau, step):
    """`reference_jacobian` times `step`, as a d x N matrix of residual changes."""
    jac_n, jac_u, _ = reference_jacobian(point, tau)
    along_rest, along_u = (jac_n @ step).T, (jac_u @ step).T
    in_q = np.concatenate([point.cos * along_u - point.sin * along_rest, point.sin * along_u + point.cos * along_rest])
    return point.Q @ in_q


def edge_chart(columns, model):
    """The step's chart at `model`, on a stack allocated as `fit` allocates it."""
    point = columns.evaluate(estimator._stacked(model), model.theta)
    return estimator._EdgeChart(point, columns.tau, estimator._EdgeStep(columns, model.k).stack)


def oracle_fit(dataset, model, config):
    """`fit`'s outer loop built from the per-sample references; returns (trail, iterations run).

    Same stop rules and the same Gauss-Newton step; the trail
    records the per-sample loss, and the step is taken and judged on the
    column stack, as in `fit`.  No time centering.
    """
    k = model.k
    columns = estimator._Columns(dataset)
    edge = estimator._EdgeStep(columns, k) if estimator._step_system_fits(k) else None
    H, Y, theta = model.H, model.Y, model.theta
    losses = [sample_loss(dataset, model)]
    for n in range(1, config.outer_iters + 1):
        new_H, new_Y = H, Y
        for _ in range(config.inner_basis_iters):
            q = polar_factor(sample_basis_target(dataset, GeodesicModel(new_H, new_Y, theta)))
            new_H, new_Y = q[:, :k], q[:, k:]
        constants = sample_angle_constants(dataset, new_H, new_Y)
        new_theta = theta
        for _ in range(estimator._ANGLE_MM_STEPS):
            new_theta = angle_mm_step(constants, new_theta, dataset.times)
        current = sample_loss(dataset, GeodesicModel(new_H, new_Y, new_theta))
        previous = losses[-1]
        if current > previous:
            return losses, n
        if edge is not None:
            better = edge.improve(columns.evaluate(np.concatenate([new_H, new_Y], axis=1), new_theta))
            if better is not None:
                new_H, new_Y, new_theta = better.H, better.Y, better.theta
                current = sample_loss(dataset, GeodesicModel(new_H, new_Y, new_theta))
        H, Y, theta = new_H, new_Y, new_theta
        losses.append(current)
        if previous - current < config.rel_loss_tol * max(previous, np.finfo(float).tiny):
            return losses, n
    return losses, config.outer_iters


class TestLoss:
    def test_noiseless_planted_data_has_zero_loss(self):
        inst = planted_instance(8, 2, 3, 5, 0.0, 1.2, seed=1)
        scale = sum(np.sum(x * x) for x in inst.dataset.matrices)
        assert loss(inst.dataset, inst.truth) <= 1e-18 * scale

    def test_orthogonal_data_loses_everything(self):
        m = GeodesicModel(np.eye(8)[:, :2], np.eye(8)[:, 2:4], np.array([0.4, -0.2]))
        # columns only in coordinates 4..7, orthogonal to span([H Y]) at all t
        x = np.zeros((8, 3))
        x[5:, :] = np.random.default_rng(2).standard_normal((3, 3))
        ds = Dataset(np.array([0.0, 0.7]), (x, 2 * x))
        assert loss(ds, m) == pytest.approx(np.sum(x * x) + np.sum(4 * x * x), rel=1e-14)

    def test_matches_least_squares_oracle(self):
        for trial in range(10):
            inst = planted_instance(8, 2, 3, 5, 0.5, 1.3, seed=100 + trial)
            m = random_geodesic(8, 2, 1.0, seed=200 + trial)
            ours = loss(inst.dataset, m)
            assert ours == pytest.approx(lstsq_loss(inst.dataset, m), rel=1e-10)

    def test_trace_identity(self):
        inst = planted_instance(10, 3, 2, 7, 0.8, 1.4, seed=3)
        m = random_geodesic(10, 3, 1.2, seed=4)
        direct = loss(inst.dataset, m)
        total = sum(np.sum(x * x) for x in inst.dataset.matrices)
        proj = sum(
            np.sum((x.T @ m.evaluate(t)) ** 2) for t, x in zip(inst.dataset.times, inst.dataset.matrices)
        )
        assert direct == pytest.approx(total - proj, rel=1e-10)

    def test_dimension_mismatch(self):
        inst = planted_instance(8, 2, 1, 3, 0.1, 1.0, seed=5)
        with pytest.raises(DimensionMismatch):
            loss(inst.dataset, random_geodesic(10, 2, 1.0, seed=6))


class TestResidualWorkspace:
    """`_Columns.evaluate` forms every residual in one workspace per column stack."""

    def test_reuse_keeps_loadings_and_losses(self):
        uniform = planted_instance(10, 2, 3, 9, 0.3, 1.2, seed=70).dataset
        for data in (uniform, ragged_dataset(71)):
            columns = estimator._Columns(data)
            first, second = (random_geodesic(data.d, 2, 1.0, seed=seed) for seed in (72, 73))
            first_point = columns.evaluate(estimator._stacked(first), first.theta)
            kept = first_point.weighted.copy()
            second_point = columns.evaluate(estimator._stacked(second), second.theta)
            np.testing.assert_array_equal(first_point.weighted, kept)
            for m, value in ((first, first_point.loss), (second, second_point.loss)):
                assert value == estimator._Columns(data).evaluate(estimator._stacked(m), m.theta).loss

    def test_kept_gauss_newton_evaluation_survives_later_calls(self):
        # `fit` goes on from the evaluation of a kept step; a later
        # evaluation on the same stack must not overwrite it.
        data = planted_instance(12, 2, 2, 4, 1e-2, 1.2, seed=64).dataset
        columns = estimator._Columns(data)
        edge = estimator._EdgeStep(columns, 2)
        m = random_geodesic(12, 2, 1.0, seed=74)
        block = columns.evaluate(estimator._stacked(m), m.theta)
        better = edge.improve(block)
        assert better is not None
        kept = better.weighted.copy()
        block_again = columns.evaluate(estimator._stacked(m), m.theta)
        np.testing.assert_array_equal(better.weighted, kept)
        fresh = estimator._Columns(data).evaluate(better.Q, better.theta)
        np.testing.assert_array_equal(better.weighted, fresh.weighted)
        assert better.loss == fresh.loss < block.loss == block_again.loss


class TestBasisUpdate:
    def test_noiseless_truth_is_fixed_point(self):
        inst = planted_instance(10, 2, 2, 6, 0.0, 1.3, seed=7)
        before = loss(inst.dataset, inst.truth)
        H, Y = basis_update(inst.dataset, inst.truth)
        after = loss(inst.dataset, GeodesicModel(H, Y, inst.truth.theta))
        scale = sum(np.sum(x * x) for x in inst.dataset.matrices)
        assert abs(after - before) <= 1e-12 * scale

    def test_matches_per_sample_target(self):
        # The update is the polar factor of sum_i X_i X_i^T U(t_i) [cos | sin].
        for trial in range(5):
            m = random_geodesic(8, 2, 1.3, seed=400 + trial)
            uniform = planted_instance(8, 2, 3, 7, 0.5, 1.3, seed=500 + trial).dataset
            for data in (uniform, ragged_dataset(600 + trial)):
                H, Y = basis_update(data, m)
                expected = polar_factor(sample_basis_target(data, m))
                np.testing.assert_allclose(np.concatenate([H, Y], axis=1), expected, atol=1e-10)

    def test_output_is_orthonormal_pair(self):
        inst = planted_instance(12, 3, 1, 8, 0.6, 1.2, seed=8)
        m = random_geodesic(12, 3, 1.4, seed=9)
        H, Y = basis_update(inst.dataset, m)
        q = np.concatenate([H, Y], axis=1)
        assert np.max(np.abs(q.T @ q - np.eye(6))) <= 1e-10

    def test_rank_collapse_is_signaled_but_usable(self):
        # a single one-column sample cannot pin down 2k = 4 directions
        inst = planted_instance(10, 2, 1, 1, 0.1, 1.0, seed=50)
        m = random_geodesic(10, 2, 1.0, seed=51)
        with pytest.warns(Warning, match="rank deficient"):
            H, Y = basis_update(inst.dataset, m)
        q = np.concatenate([H, Y], axis=1)
        assert np.max(np.abs(q.T @ q - np.eye(4))) <= 1e-10

    def test_monte_carlo_monotonicity(self):
        # 200 random (dataset, model) pairs: the update never increases the loss.
        for trial in range(200):
            inst = planted_instance(12, 2, 1, 6, 0.4, 1.4, seed=1000 + trial)
            m = random_geodesic(12, 2, 1.5, seed=2000 + trial)
            before = loss(inst.dataset, m)
            H, Y = basis_update(inst.dataset, m)
            after = loss(inst.dataset, GeodesicModel(H, Y, m.theta))
            assert after <= before * (1 + 1e-10)


class TestAngleConstants:
    def test_shape_checks(self):
        m = random_geodesic(10, 3, 1.0, seed=11)
        ds = Dataset(np.array([0.0, 1.0]), (np.ones((10, 1)), np.ones((10, 2))))
        with pytest.raises(DimensionMismatch):
            angle_constants(ds, m.H, m.Y[:, :2])
        with pytest.raises(DimensionMismatch):
            angle_constants(ds, m.H[:8], m.Y[:8])

    def test_base_columns_as_data(self):
        m = random_geodesic(10, 3, 0.0, seed=10)
        ds = Dataset(np.array([0.0]), (m.H,))
        c = angle_constants(ds, m.H, m.Y)
        np.testing.assert_allclose(c.alpha[0], np.ones(3), atol=1e-12)
        np.testing.assert_allclose(c.beta[0], np.zeros(3), atol=1e-12)
        np.testing.assert_allclose(c.gamma[0], np.zeros(3), atol=1e-12)
        np.testing.assert_allclose(c.r[0], 0.5 * np.ones(3), atol=1e-12)
        np.testing.assert_allclose(c.phi[0], np.zeros(3), atol=1e-12)
        np.testing.assert_allclose(c.b[0], 0.5 * np.ones(3), atol=1e-12)

    def test_zero_data_gives_zero_constants(self):
        m = random_geodesic(8, 2, 1.0, seed=11)
        ds = Dataset(np.array([0.5]), (np.zeros((8, 3)),))
        c = angle_constants(ds, m.H, m.Y)
        for field in (c.alpha, c.beta, c.gamma, c.r, c.b):
            assert np.all(field == 0.0)

    def test_matches_dense_quadratic_forms(self):
        inst = planted_instance(9, 2, 4, 5, 0.7, 1.3, seed=12)
        m = random_geodesic(9, 2, 1.1, seed=13)
        for data in (inst.dataset, ragged_dataset(14, d=9)):
            c = angle_constants(data, m.H, m.Y)
            for i, x in enumerate(data.matrices):
                outer = x @ x.T
                np.testing.assert_allclose(c.alpha[i], np.diag(m.H.T @ outer @ m.H), rtol=1e-12)
                np.testing.assert_allclose(c.beta[i], np.diag(m.Y.T @ outer @ m.H), rtol=1e-12, atol=1e-14)
                np.testing.assert_allclose(c.gamma[i], np.diag(m.Y.T @ outer @ m.Y), rtol=1e-12)

    def test_amplitude_phase_identities(self):
        inst = planted_instance(9, 2, 4, 5, 0.7, 1.3, seed=14)
        m = random_geodesic(9, 2, 1.1, seed=15)
        c = angle_constants(inst.dataset, m.H, m.Y)
        np.testing.assert_allclose(c.r**2, (0.5 * (c.alpha - c.gamma)) ** 2 + c.beta**2, rtol=1e-12)
        np.testing.assert_allclose(c.b, 0.5 * (c.alpha + c.gamma), rtol=1e-12)
        assert np.all(c.r >= 0)


class TestCurvatureWeight:
    def test_limit_value_at_axis(self):
        assert curvature_weight(0.0, 1.0, 1.0, 0.0) == pytest.approx(4.0)
        assert curvature_weight(0.35 / (2 * 0.7), 0.7, 2.5, 0.35) == pytest.approx(4 * 0.7**2 * 2.5)

    def test_zero_amplitude_gives_zero(self):
        for theta in (-1.0, 0.0, 0.3, 2.0):
            assert curvature_weight(theta, 0.8, 0.0, 0.4) == 0.0

    def test_nonpositive_time_rejected(self):
        with pytest.raises(NonpositiveTime):
            curvature_weight(0.1, 0.0, 1.0, 0.0)
        with pytest.raises(NonpositiveTime):
            curvature_weight(0.1, -0.5, 1.0, 0.0)
        with pytest.raises(NonpositiveTime):
            curvature_weight(0.3, float("nan"), 1.0, 0.2)

    def test_nonnegative_and_finite(self):
        rng = np.random.default_rng(16)
        for _ in range(500):
            theta = rng.uniform(-10, 10)
            t = rng.uniform(0.01, 3.0)
            r = rng.uniform(0, 5.0)
            phi = rng.uniform(-np.pi, np.pi)
            w = curvature_weight(theta, t, r, phi)
            assert np.isfinite(w) and w >= -1e-12

    def test_majorizer_dominates_on_grid(self):
        # quadratic built from the weight stays above the cosine term and
        # touches it at the expansion point
        rng = np.random.default_rng(17)
        for _ in range(50):
            r = rng.uniform(0.1, 3.0)
            phi = rng.uniform(-np.pi, np.pi)
            t = rng.choice([0.3, 1.0, 2.0])
            ref = rng.uniform((phi - np.pi) / (2 * t), (phi + np.pi) / (2 * t))
            grid = np.linspace((phi - np.pi) / (2 * t), (phi + np.pi) / (2 * t), 2000)

            def f(x):
                return -r * np.cos(2 * x * t - phi)

            fp = 2 * r * t * np.sin(2 * ref * t - phi)
            w = curvature_weight(ref, t, r, phi)
            quad = f(ref) + fp * (grid - ref) + 0.5 * w * (grid - ref) ** 2
            assert np.all(quad >= f(grid) - 1e-9)
            # the majorizer also touches f at the mirror image of ref in the axis
            mirror = 2 * phi / (2 * t) - ref
            quad_at_mirror = f(ref) + fp * (mirror - ref) + 0.5 * w * (mirror - ref) ** 2
            assert abs(quad_at_mirror - f(mirror)) <= 1e-12


class TestAngleStep:
    def make_constants(self, seed, d=10, k=2, ell=4, T=1):
        inst = planted_instance(d, k, ell, T, 0.2, 1.0, seed=seed)
        m = random_geodesic(d, k, 1.0, seed=seed + 1)
        return inst, m, angle_constants(inst.dataset, m.H, m.Y)

    def test_single_sample_jumps_to_cosine_axis(self):
        inst, m, _ = self.make_constants(18)
        t1 = 0.62
        ds = Dataset(np.array([t1]), (inst.dataset.matrices[0],))
        c = angle_constants(ds, m.H, m.Y)
        theta0 = np.array([0.2, -0.4])
        # both starting points lie inside the base interval around phi/(2 t1)
        stepped = angle_mm_step(c, theta0, ds.times)
        np.testing.assert_allclose(stepped, c.phi[0] / (2 * t1), rtol=1e-12)

    def test_zero_amplitude_leaves_theta_unchanged(self):
        m = random_geodesic(8, 2, 1.0, seed=19)
        ds = Dataset(np.array([0.5]), (np.zeros((8, 3)),))
        c = angle_constants(ds, m.H, m.Y)
        theta = np.array([0.3, -1.2])
        assert np.array_equal(angle_mm_step(c, theta, ds.times), theta)

    def test_time_zero_samples_are_inert(self):
        inst, m, _ = self.make_constants(20)
        x = inst.dataset.matrices[0]
        ds_zero = Dataset(np.array([0.0]), (x,))
        c = angle_constants(ds_zero, m.H, m.Y)
        theta = np.array([0.7, -0.1])
        assert np.array_equal(angle_mm_step(c, theta, ds_zero.times), theta)

    def test_negative_times_match_reflected_problem(self):
        # the cosine term is invariant under (t, phi) -> (-t, -phi), so a step
        # on negative times must match the explicitly reflected problem
        from dataclasses import replace

        inst = planted_instance(10, 2, 2, 6, 0.5, 1.2, seed=21)
        m = random_geodesic(10, 2, 1.0, seed=22)
        c = angle_constants(inst.dataset, m.H, m.Y)
        reflected = replace(c, phi=-c.phi)
        theta = np.array([0.4, -0.9])
        a = angle_mm_step(c, theta, -inst.dataset.times)
        b = angle_mm_step(reflected, theta, inst.dataset.times)
        np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_gradient_correct_for_negative_times(self):
        inst = planted_instance(10, 2, 2, 6, 0.5, 1.2, seed=21)
        m = random_geodesic(10, 2, 1.0, seed=22)
        c = angle_constants(inst.dataset, m.H, m.Y)
        times = inst.dataset.times - 0.5
        theta = np.array([0.4, -0.9])
        grad = angle_gradient(c, theta, times)
        step = 1e-6
        for j in range(2):
            e = np.zeros(2)
            e[j] = step
            fd = (
                angle_loss_terms(c, theta + e, times)[j]
                - angle_loss_terms(c, theta - e, times)[j]
            ) / (2 * step)
            assert grad[j] == pytest.approx(fd, rel=1e-5)

    def test_descends_separable_loss_per_angle(self):
        inst = planted_instance(12, 3, 2, 9, 0.4, 1.4, seed=23)
        m = random_geodesic(12, 3, 1.4, seed=24)
        c = angle_constants(inst.dataset, m.H, m.Y)
        theta = m.theta
        previous = angle_loss_terms(c, theta, inst.dataset.times)
        for _ in range(100):
            theta = angle_mm_step(c, theta, inst.dataset.times)
            current = angle_loss_terms(c, theta, inst.dataset.times)
            assert np.all(current <= previous + 1e-12)
            previous = current

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(25)
        step = 1e-6
        for trial in range(20):
            inst = planted_instance(10, 3, 2, 7, 0.6, 1.4, seed=3000 + trial)
            m = random_geodesic(10, 3, 1.3, seed=4000 + trial)
            c = angle_constants(inst.dataset, m.H, m.Y)
            theta = rng.uniform(-1.5, 1.5, 3)
            grad = angle_gradient(c, theta, inst.dataset.times)
            for j in range(3):
                e = np.zeros(3)
                e[j] = step
                hi = angle_loss_terms(c, theta + e, inst.dataset.times)[j]
                lo = angle_loss_terms(c, theta - e, inst.dataset.times)[j]
                fd = (hi - lo) / (2 * step)
                assert grad[j] == pytest.approx(fd, rel=1e-5, abs=1e-9)


class TestAngleStepOracle:
    """The one-sine angle step against `reference_slopes`, the np.mod form it replaced,
    and its early exit against `full_mm_steps`."""

    def case(self, seed, T=40, k=6):
        # |2 theta t - phi| up to 10 pi, negative times, a t = 0 row, an
        # r = 0 row and one entry with 2 theta t - phi == 0 exactly.
        rng = np.random.default_rng(seed)
        times = rng.uniform(-1.5, 1.5, T)
        times[0] = 0.0
        times[1], times[3] = 1.25, -1.5
        r = rng.uniform(0.0, 3.0, (T, k))
        r[2] = 0.0
        phi = rng.uniform(-np.pi, np.pi, (T, k))
        theta = rng.uniform(-3 * np.pi, 3 * np.pi, k)
        theta[-1] = -2.9 * np.pi
        phi[1, 0] = 2.0 * times[1] * theta[0]
        return r, phi, times, theta

    def test_slopes_match_reference(self):
        for seed in range(5):
            r, phi, times, theta = self.case(80 + seed)
            arg = 2.0 * theta[None, :] * times[:, None] - phi * np.sign(times)[:, None]
            assert 7 * np.pi < np.max(np.abs(arg)) <= 10 * np.pi and arg[1, 0] == 0.0
            deriv, weight = estimator._AngleStepper(r, phi, times).slopes(theta)
            ref_deriv, ref_weight = reference_slopes(r, phi, times, theta)
            np.testing.assert_allclose(deriv, ref_deriv, rtol=1e-12, atol=0.0)
            np.testing.assert_allclose(weight, ref_weight, rtol=1e-12, atol=0.0)
            # t = 0 and r = 0 rows drop out exactly; a == 0 gives the limit
            assert np.all(deriv[[0, 2]] == 0.0) and np.all(weight[[0, 2]] == 0.0)
            assert deriv[1, 0] == 0.0 and weight[1, 0] == 4.0 * times[1] ** 2 * r[1, 0]

    def test_five_steps_match_reference(self):
        for seed in range(5):
            r, phi, times, theta = self.case(90 + seed)
            stepped = estimator._AngleStepper(r, phi, times).run(theta, 5)
            np.testing.assert_allclose(stepped, reference_mm_steps(r, phi, times, theta, 5), rtol=1e-12)

    def test_early_exit_is_bit_identical(self):
        # Each case reaches an exact fixed point after 160-220 steps.  From
        # the start, all five steps run; from two steps before the fixed
        # point, three (the third returns theta unchanged); from the fixed
        # point itself, one.
        for seed in range(5):
            r, phi, times, theta = self.case(90 + seed)
            stepper = estimator._AngleStepper(r, phi, times)
            path = [theta]
            while len(path) < 400 and full_mm_steps(stepper, path[-1], 1).tobytes() != path[-1].tobytes():
                path.append(full_mm_steps(stepper, path[-1], 1))
            assert 100 < len(path) < 400
            for start, calls_expected in ((theta, 5), (path[-3], 3), (path[-1], 1)):
                expected = full_mm_steps(stepper, start, 5)
                calls = counting_slopes(stepper)
                assert np.array_equal(stepper.run(start, 5), expected)
                assert len(calls) == calls_expected
                del stepper.slopes
            assert np.array_equal(stepper.run(path[-3], 5), path[-1])

    def test_one_ulp_moves_run_every_step(self):
        # A theta that moves by one ulp per step is not at a fixed point.
        theta = np.array([0.7, -1.3, 0.0])
        stepper = estimator._AngleStepper(np.ones((1, 3)), np.zeros((1, 3)), np.ones(1))
        calls = counting_slopes(stepper, lambda t: (-np.spacing(t)[None, :], np.ones((1, t.size))))
        stepped = stepper.run(theta, 5)
        assert len(calls) == 5
        assert np.array_equal(stepped, full_mm_steps(stepper, theta, 5))
        expected = theta
        for _ in range(5):
            expected = np.nextafter(expected, np.copysign(np.inf, theta))
        assert np.array_equal(stepped, expected)


class TestFit:
    def test_truth_init_converges_immediately_on_noiseless_data(self):
        inst = planted_instance(20, 3, 1, 30, 0.0, 1.3, seed=26)
        report = fit(inst.dataset, EstimatorConfig(init=ProvidedInit(inst.truth)))
        scale = sum(np.sum(x * x) for x in inst.dataset.matrices)
        assert report.converged
        assert report.outer_iters_run == 1
        assert np.all(report.loss_per_outer_iter <= 1e-18 * scale)

    def test_loss_trail_is_monotone(self):
        for trial in range(10):
            inst = planted_instance(20, 2, 1, 15, 10.0 ** -(trial % 3), 1.4, seed=5000 + trial)
            cfg = EstimatorConfig(init=RandomInit(2, seed=trial), outer_iters=60)
            report = fit(inst.dataset, cfg)
            trail = report.loss_per_outer_iter
            assert np.all(trail[1:] <= trail[:-1] * (1 + 1e-10))

    def test_matches_per_sample_oracle_on_uniform_and_ragged_data(self):
        # `fit` against the per-sample oracle loop, on uniform and ragged
        # data, with the Gauss-Newton step and with block updates alone
        # (no system is small enough for the step).  The fits stop at the
        # default tolerance: past it the two losses differ only by rounding,
        # which decides when each sees non-descent.
        uniform_wide = planted_instance(10, 2, 2, 10, 0.3, 1.2, seed=27).dataset
        uniform_edge = planted_instance(12, 2, 2, 4, 1e-2, 1.2, seed=28).dataset
        ragged_wide = ragged_dataset(29, d=10, T=13, sigma=0.3)
        ragged_edge = ragged_dataset(30, d=12, T=7, sigma=1e-2)
        for data in (uniform_wide, uniform_edge, ragged_wide, ragged_edge):
            for limit in (estimator._MAX_STEP_UNKNOWNS, 0):
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(estimator, "_MAX_STEP_UNKNOWNS", limit)
                    cfg = EstimatorConfig(init=RandomInit(2, seed=1), outer_iters=30)
                    report = fit(data, cfg)
                    start = random_geodesic(data.d, 2, np.pi / 4, seed=1)
                    trail, iters = oracle_fit(data, start, cfg)
                assert report.outer_iters_run == iters
                np.testing.assert_allclose(report.loss_per_outer_iter, trail, rtol=1e-9)

    def test_recomputed_loss_is_trail_end(self):
        # The final model's loss computed afresh is the trail's last entry,
        # and the trail never rises beyond criterion 1's slack: on uniform
        # and ragged data, where the evaluation of a kept step is reused.
        # Every recorded entry is checked the same way.
        uniform = planted_instance(10, 2, 2, 10, 0.3, 1.2, seed=27).dataset
        edge = planted_instance(12, 2, 2, 4, 1e-2, 1.2, seed=28).dataset
        for data in (uniform, ragged_dataset(29, d=10, T=13, sigma=0.3), edge):
            recomputed = []
            cfg = EstimatorConfig(init=RandomInit(2, seed=6), outer_iters=40, rel_loss_tol=0.0)
            report = fit(data, cfg, callback=lambda model, value: recomputed.append(loss(data, model)))
            trail = report.loss_per_outer_iter
            assert np.all(trail[1:] <= trail[:-1] * (1 + 1e-10))
            assert loss(data, report.model) == pytest.approx(trail[-1], rel=1e-12, abs=0.0)
            np.testing.assert_allclose(recomputed, trail[1:], rtol=1e-12, atol=0.0)

    def test_stop_reason_tolerance(self):
        inst = planted_instance(10, 2, 1, 8, 1e-2, 1.2, seed=31)
        cfg = EstimatorConfig(init=RandomInit(2, seed=4), outer_iters=500, rel_loss_tol=1e-3)
        report = fit(inst.dataset, cfg)
        assert report.stop_reason == "tolerance" and report.converged
        assert report.outer_iters_run < 500
        assert report.loss_per_outer_iter.size == report.outer_iters_run + 1

    def test_stop_reason_budget(self):
        inst = planted_instance(10, 2, 1, 8, 1e-2, 1.2, seed=31)
        report = fit(inst.dataset, EstimatorConfig(init=RandomInit(2, seed=4), outer_iters=3, rel_loss_tol=0.0))
        assert report.stop_reason == "budget" and not report.converged
        assert report.outer_iters_run == 3

    def test_stop_reason_non_descent(self):
        # A basis update that turns away from the data raises the loss: the
        # fit reverts it and stops.
        inst = planted_instance(10, 2, 1, 8, 1e-2, 1.2, seed=31)
        away = orthonormal_complement(np.concatenate([inst.truth.H, inst.truth.Y], axis=1), 4)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(estimator._Columns, "update_bases", lambda self, weighted: (away, True))
            report = fit(inst.dataset, EstimatorConfig(init=ProvidedInit(inst.truth), outer_iters=10))
        assert report.stop_reason == "non_descent" and report.converged
        assert report.outer_iters_run == 1
        np.testing.assert_array_equal(report.loss_per_outer_iter, [loss(inst.dataset, inst.truth)])
        # No iteration was accepted: the caller's model comes back as it is.
        assert report.model is inst.truth

    def test_inner_basis_iters_still_monotone(self):
        inst = planted_instance(16, 2, 1, 12, 1e-2, 1.4, seed=28)
        cfg = EstimatorConfig(init=RandomInit(2, seed=2), outer_iters=40, inner_basis_iters=5)
        report = fit(inst.dataset, cfg)
        trail = report.loss_per_outer_iter
        assert np.all(trail[1:] <= trail[:-1] * (1 + 1e-10))

    def test_time_center_preserves_semantics(self):
        inst = planted_instance(14, 2, 1, 12, 1e-3, 1.3, seed=29)
        base = EstimatorConfig(init=RandomInit(2, seed=3), outer_iters=50)
        centered = EstimatorConfig(init=RandomInit(2, seed=3), outer_iters=50, time_center=0.5)
        rep = fit(inst.dataset, centered)
        # the returned model is expressed on the original axis: its loss on the
        # original dataset equals the last recorded (centered-axis) loss
        assert loss(inst.dataset, rep.model) == pytest.approx(rep.loss_per_outer_iter[-1], rel=1e-9)
        # and both runs are valid monotone descents
        rep_plain = fit(inst.dataset, base)
        for r in (rep, rep_plain):
            trail = r.loss_per_outer_iter
            assert np.all(trail[1:] <= trail[:-1] * (1 + 1e-10))

    def test_time_center_reexpression_preserves_projector_path(self):
        m = random_geodesic(12, 2, 1.2, seed=30)
        for t in np.linspace(0, 1, 9):
            u = m.shifted_origin(0.5).shifted_origin(-0.5).evaluate(t)
            v = m.evaluate(t)
            assert np.linalg.norm(u @ u.T - v @ v.T) <= 1e-10

    def test_callback_sees_every_recorded_iteration(self):
        inst = planted_instance(10, 2, 1, 8, 1e-2, 1.2, seed=31)
        seen = []
        cfg = EstimatorConfig(init=RandomInit(2, seed=4), outer_iters=25, rel_loss_tol=0.0)
        report = fit(inst.dataset, cfg, callback=lambda model, value: seen.append(value))
        np.testing.assert_array_equal(report.loss_per_outer_iter[1:], seen)

    def test_dimension_mismatch_between_init_and_data(self):
        inst = planted_instance(10, 2, 1, 8, 1e-2, 1.2, seed=32)
        wrong = random_geodesic(12, 2, 1.0, seed=5)
        with pytest.raises(DimensionMismatch):
            fit(inst.dataset, EstimatorConfig(init=ProvidedInit(wrong)))


class TestGaussNewtonStep:
    """The safeguarded second-order step `fit` tries after every block iteration."""

    def test_directional_derivative_matches_finite_differences(self):
        inst = planted_instance(12, 2, 1, 7, 0.1, 1.4, seed=61)
        x = inst.dataset.column_stack()
        m = random_geodesic(12, 2, 1.2, seed=62)
        columns = estimator._Columns(inst.dataset)
        chart = edge_chart(columns, m)
        rng = np.random.default_rng(63)
        A = rng.standard_normal((4, 4))
        A -= A.T
        step = np.concatenate([A[np.triu_indices(4, 1)], rng.standard_normal(2)])
        assert chart.classes.size == step.size == 2 * 2**2

        def residual(s):
            q, theta = chart.retract(s * step)
            model = GeodesicModel(q[:, :2], q[:, 2:], theta)
            return x - np.concatenate(reconstruct(inst.dataset, model), axis=1)

        h = 1e-6
        fd = (residual(h) - residual(-h)) / (2 * h)
        jv = reference_directional(chart.point, columns.tau, step)
        assert np.max(np.abs(fd - jv)) <= 1e-7 * np.max(np.abs(jv))
        # the normal equations are those of the same Jacobian
        gram, grad = chart.normal_equations()
        assert step @ gram @ step == pytest.approx(np.sum(jv * jv), rel=1e-10)
        assert grad @ step == pytest.approx(np.sum(residual(0.0) * jv), rel=1e-10)

    def test_row_class_normal_equations_match_dense_jacobian(self):
        # J^T J and J^T e built by row class against those of the dense
        # Jacobian: uniform data (one column at t = 0), ragged data on a
        # recentred axis (negative times), a uniform axis recentred as
        # `time_center` does it, k = 1, and 50,000 columns.
        uniform = planted_instance(12, 3, 2, 9, 0.1, 1.3, seed=80).dataset
        cases = (
            (uniform, 3),
            (ragged_dataset(81, d=10, k=2, T=9), 2),
            (uniform.with_times(uniform.times - 0.5), 3),
            (planted_instance(5, 1, 2, 7, 0.1, 1.3, seed=82).dataset, 1),
            (planted_instance(6, 2, 1000, 50, 0.1, 1.3, seed=83).dataset, 2),
        )
        assert cases[-1][0].total_columns >= 50_000
        for trial, (data, k) in enumerate(cases):
            assert 0.0 in data.times
            columns = estimator._Columns(data)
            m = random_geodesic(data.d, k, 1.2, seed=84 + trial)
            chart = edge_chart(columns, m)
            gram, grad = chart.normal_equations()
            ref_gram, ref_grad = reference_normal_equations(chart.point, columns.tau)
            np.testing.assert_allclose(gram, ref_gram, rtol=1e-12, atol=0.0)
            np.testing.assert_allclose(grad, ref_grad, rtol=1e-12, atol=0.0)

    def test_normal_equations_summed_over_column_chunks(self):
        # k = 8 and 4000 columns: the stack holds 1985 of them, so the
        # Grams are summed over three chunks, the last one of 30 columns.
        data = planted_instance(20, 8, 100, 40, 0.1, 1.3, seed=85).dataset
        columns = estimator._Columns(data)
        chart = edge_chart(columns, random_geodesic(20, 8, 1.2, seed=86))
        assert chart.stack.shape == (8, 33, 2 * 1985)
        gram, grad = chart.normal_equations()
        ref_gram, ref_grad = reference_normal_equations(chart.point, columns.tau)
        np.testing.assert_allclose(gram, ref_gram, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(grad, ref_grad, rtol=1e-12, atol=0.0)

    def test_stack_is_bounded(self):
        # 20,000 columns at k = 8 would take 84 MB in one stack; the widest
        # benchmark shape, (k, N) = (8, 800), still takes one chunk.
        wide = estimator._Columns(planted_instance(16, 8, 100, 200, 0.1, 1.3, seed=87).dataset)
        assert wide.tau.size == 20_000
        assert estimator._EdgeStep(wide, 8).stack.nbytes <= estimator._STACK_BYTES
        bench_wide = estimator._Columns(planted_instance(16, 8, 4, 200, 0.1, 1.3, seed=88).dataset)
        assert estimator._EdgeStep(bench_wide, 8).stack.shape == (8, 33, 2 * 800)

    def test_trail_is_monotone_near_edge(self):
        shapes = ((12, 2, 3), (16, 3, 6), (20, 4, 8), (12, 2, 8), (16, 3, 12), (20, 4, 16))
        for trial, (d, k, T) in enumerate(shapes):
            inst = planted_instance(d, k, 1, T, 10.0 ** -(1 + trial % 3), 1.4, seed=6000 + trial)
            cfg = EstimatorConfig(init=RandomInit(k, seed=trial), outer_iters=60)
            trail = fit(inst.dataset, cfg).loss_per_outer_iter
            assert np.all(np.diff(trail) <= 0.0)

    def test_recovers_small_edge_instance(self):
        # d=20, k=3, T=6=2k, sigma=1e-5: the median over five instances is
        # recovered within 100 outer iterations; block descent alone is not
        errors = {True: [], False: []}
        for seed in range(100, 105):
            inst = planted_instance(20, 3, 1, 6, 1e-5, 1.4, seed=seed)
            cfg = EstimatorConfig(init=EndpointsInit(3, 0.5), outer_iters=100)
            for engaged in (True, False):
                with pytest.MonkeyPatch.context() as mp:
                    if not engaged:
                        mp.setattr(estimator, "_MAX_STEP_UNKNOWNS", 0)
                    errors[engaged].append(geodesic_error(fit(inst.dataset, cfg).model, inst.truth))
        assert np.median(errors[True]) <= 1e-3
        assert np.median(errors[False]) > 1e-2

    def test_one_attempt_evaluates_one_trial_point(self):
        inst = planted_instance(12, 2, 1, 4, 1e-2, 1.2, seed=65)
        m = random_geodesic(12, 2, 1.0, seed=66)
        columns = estimator._Columns(inst.dataset)
        step = estimator._EdgeStep(columns, 2)
        assert step.damping == estimator._DAMPING_START
        calls = []
        evaluate = columns.evaluate

        def counting(*point):
            calls.append(point)
            return evaluate(*point)

        columns.evaluate = counting
        block = evaluate(estimator._stacked(m), m.theta)
        assert block.loss == loss(inst.dataset, m)
        step.improve(block)
        assert len(calls) == 1

    def test_tried_even_when_block_descent_halves_the_loss(self):
        # The first outer iteration from a random start removes over half
        # of the loss; the step is tried after it all the same.
        inst = planted_instance(12, 2, 1, 4, 1e-2, 1.2, seed=65)
        cfg = EstimatorConfig(init=RandomInit(2, seed=66), outer_iters=1)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(estimator, "_MAX_STEP_UNKNOWNS", 0)
            trail = fit(inst.dataset, cfg).loss_per_outer_iter
        assert trail[1] <= 0.5 * trail[0]
        charts = []

        class CountingChart(estimator._EdgeChart):
            def __init__(self, *args):
                charts.append(args)
                super().__init__(*args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(estimator, "_EdgeChart", CountingChart)
            fit(inst.dataset, cfg)
        assert len(charts) == 1

    def test_rejected_step_falls_back_to_block_iterate(self):
        # Every attempt is rejected: the fit keeps the block iterates and
        # runs its whole budget instead of stopping as non-descent.
        inst = planted_instance(12, 2, 2, 4, 1e-2, 1.2, seed=64)
        mats = inst.dataset.matrices
        ragged = Dataset(inst.dataset.times, (mats[0], mats[1][:, :1], mats[2], mats[3]))
        cfg = EstimatorConfig(init=RandomInit(2, seed=5), outer_iters=40, rel_loss_tol=0.0)
        for data in (inst.dataset, ragged):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(estimator, "_MAX_STEP_UNKNOWNS", 0)
                block_only = fit(data, cfg)
            attempts = []
            improve = estimator._EdgeStep.improve

            def rejecting(self, block):
                # The trial's evaluation reports an infinite loss.
                columns = self.columns
                evaluate = columns.evaluate

                def worse(*point):
                    attempts.append(point)
                    trial = evaluate(*point)
                    trial.loss = np.inf
                    return trial

                columns.evaluate = worse
                try:
                    return improve(self, block)
                finally:
                    del columns.evaluate

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(estimator._EdgeStep, "improve", rejecting)
                rejected = fit(data, cfg)
            # No attempt is skipped after a rejection: one per outer iteration.
            assert len(attempts) == rejected.outer_iters_run == block_only.outer_iters_run == 40
            assert not rejected.converged
            np.testing.assert_array_equal(rejected.loss_per_outer_iter, block_only.loss_per_outer_iter)
            np.testing.assert_array_equal(rejected.model.H, block_only.model.H)

    def test_failed_solve_falls_back_to_block_iterate(self):
        # A LinAlgError in the step's solve rejects the step: the fit keeps
        # the block iterates, exactly as if the step were never tried.
        inst = planted_instance(12, 2, 2, 4, 1e-2, 1.2, seed=64)
        cfg = EstimatorConfig(init=RandomInit(2, seed=5), outer_iters=40, rel_loss_tol=0.0)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(estimator, "_MAX_STEP_UNKNOWNS", 0)
            block_only = fit(inst.dataset, cfg)
        solves = []

        def failing(*args):
            solves.append(args)
            raise np.linalg.LinAlgError("forced")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np.linalg, "solve", failing)
            failed = fit(inst.dataset, cfg)
        assert len(solves) == failed.outer_iters_run == block_only.outer_iters_run == 40
        np.testing.assert_array_equal(failed.loss_per_outer_iter, block_only.loss_per_outer_iter)
        np.testing.assert_array_equal(failed.model.H, block_only.model.H)
        np.testing.assert_array_equal(failed.model.Y, block_only.model.Y)
        np.testing.assert_array_equal(failed.model.theta, block_only.model.theta)

    def test_single_blas_thread_edge_fit_completes(self):
        # A PhaseTransition-grid instance on which an SVD of the data outside
        # span [H Y] failed to converge under one OpenBLAS thread; the step
        # now factorizes no data matrix.  BLAS reads its thread count at
        # import, hence the subprocess.
        script = (
            "import json\n"
            "from geogress import EndpointsInit, EstimatorConfig, fit, planted_instance\n"
            "inst = planted_instance(40, 8, 1, 32, 1e-5, 1.4, seed=305473420)\n"
            "cfg = EstimatorConfig(init=EndpointsInit(8), outer_iters=100, inner_basis_iters=10)\n"
            "print(json.dumps(fit(inst.dataset, cfg).loss_per_outer_iter.tolist()))\n"
        )
        src = str(Path(estimator.__file__).resolve().parents[1])
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
        )
        assert done.returncode == 0, done.stderr
        trail = np.array(json.loads(done.stdout.splitlines()[-1]))
        assert trail.size > 1
        assert np.all(np.diff(trail) <= 0.0)


class TestConfigValidation:
    def test_check_setting(self):
        nan, inf = float("nan"), float("inf")
        for value in (0, 2, 1.5, np.int64(0), np.int32(2), np.float64(0.0), np.float32(2.0)):
            check_setting("x", value, 0, 2)
        check_setting("x", 10**400, 0)
        for value in (-1, 3, -1e-300, 2.0000001, np.int64(3), np.float64(-0.5), nan, inf, -inf, np.float32(nan)):
            with pytest.raises(ValueError, match=r"^x must be finite and in \[0, 2\], got "):
                check_setting("x", value, 0, 2)
        for value in (-1, nan, inf, -inf):
            with pytest.raises(ValueError, match="^x must be finite and >= 0, got "):
                check_setting("x", value, 0)

    def test_check_count(self):
        for value in (0, 3, np.int64(2), np.int32(0), 10**400):
            check_count("n", value, 0)
        for value in (2.5, 2.0, np.float64(1.0), float("nan"), True, "2", None):
            with pytest.raises(ValueError, match="^n must be an integer, got "):
                check_count("n", value, 0)
        with pytest.raises(ValueError, match="^n must be finite and >= 1, got 0"):
            check_count("n", 0, 1)

    def test_bounds(self):
        # Every numeric field of the config and of both numeric inits; each
        # bad value is rejected at construction, naming the field.
        nan, inf = float("nan"), float("inf")
        cases = {
            (EstimatorConfig, "outer_iters"): (0, -1, nan, inf, 2.5, 3.0, True),
            (EstimatorConfig, "inner_basis_iters"): (0, nan, inf, 1.5, np.float64(2.0)),
            (EstimatorConfig, "rel_loss_tol"): (-1.0, nan, inf),
            (EstimatorConfig, "time_center"): (-0.5, 1.5, nan, inf),
            (RandomInit, "k"): (0, -1, nan, inf, 2.5),
            (RandomInit, "theta_max"): (-0.1, 2.0, nan, inf),
            (RandomInit, "seed"): (-1, nan, inf, 1.5),
            (EndpointsInit, "k"): (0, nan, inf, 2.0),
            (EndpointsInit, "pool_fraction"): (0.0, 0.75, nan, inf),
        }
        for cls in (EstimatorConfig, RandomInit, EndpointsInit):
            assert {f.name for f in fields(cls)} - {"init"} == {name for c, name in cases if c is cls}
        for (cls, name), values in cases.items():
            for value in values:
                kwargs = {"k": 2} if cls is not EstimatorConfig else {"init": RandomInit(2)}
                with pytest.raises(ValueError, match=f"^{name} must"):
                    cls(**{**kwargs, name: value})

    def test_pool_fraction_bound_on_init_endpoints(self):
        inst = planted_instance(10, 2, 1, 8, 0.1, 1.0, seed=52)
        with pytest.raises(ValueError):
            init_endpoints(inst.dataset, 2, 0.8)


class TestInitEndpoints:
    def test_static_data_yields_small_angles(self):
        inst = planted_instance(12, 3, 2, 16, 1e-5, 0.0, seed=33)
        init = init_endpoints(inst.dataset, 3, 0.25)
        assert np.max(np.abs(init.theta)) <= 0.1

    def test_two_exact_samples_recover_connecting_spans(self):
        truth = random_geodesic(10, 2, 1.2, seed=34)
        ds = Dataset(
            np.array([0.0, 1.0]),
            (truth.evaluate(0.0), truth.evaluate(1.0)),
        )
        init = init_endpoints(ds, 2, 0.25)
        assert subspace_error(init.evaluate(0.0), truth.evaluate(0.0)) <= 1e-10
        assert subspace_error(init.evaluate(1.0), truth.evaluate(1.0)) <= 1e-10

    def test_pool_too_small_raises(self):
        inst = planted_instance(12, 4, 1, 4, 1e-3, 1.0, seed=35)
        with pytest.raises(InitFailure):
            init_endpoints(inst.dataset, 4, 0.25)


class TestReconstruct:
    def test_in_span_data_is_unchanged(self):
        inst = planted_instance(10, 2, 3, 6, 0.0, 1.2, seed=36)
        for a, b in zip(reconstruct(inst.dataset, inst.truth), inst.dataset.matrices):
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_orthogonal_data_reconstructs_to_zero(self):
        m = GeodesicModel(np.eye(8)[:, :2], np.eye(8)[:, 2:4], np.zeros(2))
        x = np.zeros((8, 2))
        x[6:, :] = 1.0
        ds = Dataset(np.array([0.3]), (x,))
        assert np.max(np.abs(reconstruct(ds, m)[0])) <= 1e-15

    def test_residual_matches_loss(self):
        inst = planted_instance(9, 2, 2, 7, 0.5, 1.3, seed=37)
        m = random_geodesic(9, 2, 1.0, seed=38)
        resid = sum(
            float(np.sum((x - xh) ** 2))
            for x, xh in zip(inst.dataset.matrices, reconstruct(inst.dataset, m))
        )
        assert resid == pytest.approx(loss(inst.dataset, m), rel=1e-12)
