"""Planted-instance generation and the static SVD baselines."""

import numpy as np
import pytest

from geogress import (
    DimensionMismatch,
    EstimatorConfig,
    RandomInit,
    RankTooLarge,
    batch_svd_subspace,
    fit,
    loss,
    per_timepoint_svd,
    permute_times,
    planted_instance,
    planted_piecewise_instance,
    static_as_geodesic,
    subspace_error,
)
from geogress.geodesic import GeodesicModel


class TestPlantedInstance:
    def test_noiseless_data_lies_on_the_truth(self):
        inst = planted_instance(10, 2, 3, 6, 0.0, 1.3, seed=1)
        scale = sum(np.sum(x * x) for x in inst.dataset.matrices)
        assert loss(inst.dataset, inst.truth) <= 1e-18 * scale

    def test_noiseless_stack_has_rank_at_most_2k(self):
        inst = planted_instance(12, 3, 2, 10, 0.0, 1.4, seed=2)
        s = np.linalg.svd(inst.dataset.column_stack(), compute_uv=False)
        assert np.sum(s > s[0] * 1e-10) <= 6

    def test_noise_power_matches_sigma(self):
        d, sigma, T = 40, 1e-3, 400
        inst = planted_instance(d, 4, 1, T, sigma, 1.2, seed=3)
        per_sample = [np.sum((x - c) ** 2) for x, c in zip(inst.dataset.matrices, inst.clean)]
        mean_power = float(np.mean(per_sample))
        assert abs(mean_power - d * sigma**2) <= 0.2 * d * sigma**2

    def test_same_seed_is_bitwise_identical(self):
        a = planted_instance(10, 2, 2, 5, 0.1, 1.2, seed=4)
        b = planted_instance(10, 2, 2, 5, 0.1, 1.2, seed=4)
        assert np.array_equal(a.dataset.times, b.dataset.times)
        for x, y in zip(a.dataset.matrices, b.dataset.matrices):
            assert np.array_equal(x, y)
        assert np.array_equal(a.truth.H, b.truth.H)

    def test_same_seed_shares_loadings_across_noise_levels(self):
        clean0 = planted_instance(10, 2, 2, 5, 0.0, 1.2, seed=5).clean
        clean1 = planted_instance(10, 2, 2, 5, 0.7, 1.2, seed=5).clean
        for a, b in zip(clean0, clean1):
            assert np.array_equal(a, b)

    def test_time_grid(self):
        inst = planted_instance(8, 2, 1, 5, 0.0, 1.0, seed=6)
        np.testing.assert_allclose(inst.dataset.times, [0.0, 0.25, 0.5, 0.75, 1.0])
        single = planted_instance(8, 2, 1, 1, 0.0, 1.0, seed=7)
        np.testing.assert_array_equal(single.dataset.times, [0.0])

    def test_noiseless_samples_span_truth_when_ell_at_least_k(self):
        inst = planted_instance(10, 2, 4, 6, 0.0, 1.3, seed=8)
        for t, x in zip(inst.dataset.times, inst.dataset.matrices):
            basis = np.linalg.qr(x)[0][:, :2]
            assert subspace_error(basis, inst.truth.evaluate(t)) <= 1e-10

    def test_rejects_bad_shapes(self):
        with pytest.raises(DimensionMismatch):
            planted_instance(5, 3, 1, 4, 0.0, 1.0, seed=9)


class TestPermuteTimes:
    def test_multiset_of_parts_is_preserved(self):
        inst = planted_instance(8, 2, 2, 7, 0.2, 1.2, seed=10)
        shuffled = permute_times(inst.dataset, seed=11)
        np.testing.assert_array_equal(shuffled.times, inst.dataset.times)
        orig = sorted(float(np.sum(x)) for x in inst.dataset.matrices)
        perm = sorted(float(np.sum(x)) for x in shuffled.matrices)
        np.testing.assert_allclose(orig, perm)

    def test_static_data_fit_unaffected(self):
        inst = planted_instance(16, 2, 1, 24, 1e-3, 0.0, seed=12)
        shuffled = permute_times(inst.dataset, seed=13)
        cfg = EstimatorConfig(init=RandomInit(2, seed=14), outer_iters=150)
        a = fit(inst.dataset, cfg).loss_per_outer_iter[-1]
        b = fit(shuffled, cfg).loss_per_outer_iter[-1]
        assert b <= 1.2 * a + 1e-9

    def test_moving_data_fit_degrades(self):
        inst = planted_instance(16, 2, 1, 30, 1e-3, 1.5, seed=15)
        shuffled = permute_times(inst.dataset, seed=16)
        cfg = EstimatorConfig(init=RandomInit(2, seed=17), outer_iters=200)
        ordered = fit(inst.dataset, cfg).loss_per_outer_iter[-1]
        permuted = fit(shuffled, cfg).loss_per_outer_iter[-1]
        assert permuted > ordered


@pytest.mark.parametrize("make", [
    lambda: planted_instance(8, 2, 1, 0, 0.1, 1.0, seed=1),
    lambda: planted_instance(8, 2, 1, 5, -0.1, 1.0, seed=1),
], ids=["T-below-one", "negative-sigma"])
def test_invalid_generator_arguments_rejected(make):
    with pytest.raises(ValueError):
        make()


class TestPiecewiseInstance:
    def test_path_is_continuous_at_the_knot(self):
        data, (first, second), knots, clean = planted_piecewise_instance(
            12, 2, 1, 16, 0.0, 1.2, seed=18
        )
        assert subspace_error(first.evaluate(1.0), second.evaluate(0.0)) <= 1e-10
        np.testing.assert_array_equal(knots, [0.0, 0.5, 1.0])
        assert data.n_samples == 16 and len(clean) == 16


class TestBatchSvd:
    def test_static_truth_fits_exactly(self):
        inst = planted_instance(10, 2, 3, 6, 0.0, 0.0, seed=19)
        _, resid = batch_svd_subspace(inst.dataset, 2)
        scale = sum(np.sum(x * x) for x in inst.dataset.matrices)
        assert resid <= 1e-18 * scale

    def test_nested_rank_losses(self):
        inst = planted_instance(10, 2, 2, 8, 0.5, 1.3, seed=20)
        _, loss_k = batch_svd_subspace(inst.dataset, 2)
        _, loss_2k = batch_svd_subspace(inst.dataset, 4)
        assert loss_2k <= loss_k + 1e-12

    def test_rank_2k_absorbs_noiseless_geodesic(self):
        inst = planted_instance(12, 3, 1, 14, 0.0, 1.4, seed=21)
        _, resid = batch_svd_subspace(inst.dataset, 6)
        scale = sum(np.sum(x * x) for x in inst.dataset.matrices)
        assert resid <= 1e-16 * scale

    def test_rank_too_large(self):
        inst = planted_instance(10, 2, 1, 3, 0.1, 1.0, seed=22)
        with pytest.raises(RankTooLarge):
            batch_svd_subspace(inst.dataset, 4)


class TestStaticAsGeodesic:
    def test_constant_path(self):
        U = np.linalg.qr(np.random.default_rng(23).standard_normal((9, 3)))[0]
        m = static_as_geodesic(U)
        assert isinstance(m, GeodesicModel)
        for t in (0.0, 0.4, 1.0):
            assert subspace_error(m.evaluate(t), U) <= 1e-12

    def test_loss_matches_batch_svd(self):
        inst = planted_instance(10, 2, 2, 8, 0.5, 1.3, seed=24)
        basis, resid = batch_svd_subspace(inst.dataset, 2)
        assert loss(inst.dataset, static_as_geodesic(basis)) == pytest.approx(resid, rel=1e-10)

    def test_needs_room_for_the_direction_block(self):
        with pytest.raises(DimensionMismatch):
            static_as_geodesic(np.eye(4)[:, :3])


class TestPerTimepointSvd:
    def test_exact_recovery_with_full_rank_samples(self):
        inst = planted_instance(10, 2, 4, 6, 0.0, 1.2, seed=25)
        bases = per_timepoint_svd(inst.dataset, 2)
        for basis, t in zip(bases, inst.dataset.times):
            assert subspace_error(basis, inst.truth.evaluate(t)) <= 1e-8

    def test_insufficient_columns_raise(self):
        inst = planted_instance(10, 3, 2, 5, 0.1, 1.0, seed=26)
        with pytest.raises(RankTooLarge):
            per_timepoint_svd(inst.dataset, 3)
