"""Penalized piecewise fitting: reduction cases, descent, continuity trend."""

import numpy as np
import pytest

from geogress import (
    Dataset,
    DimensionMismatch,
    EmptySegment,
    EstimatorConfig,
    RandomInit,
    continuity_gap,
    fit,
    fit_piecewise,
    fit_piecewise_schedule,
    loss,
    loss_per_timepoint,
    penalized_objective,
    planted_instance,
    planted_piecewise_instance,
    random_geodesic,
    split_by_knots,
    static_as_geodesic,
    subspace_error,
)
from geogress import piecewise
from geogress.cli import main
from geogress.piecewise import PiecewiseModel

KNOTS = np.array([0.0, 0.5, 1.0])


def config(seed=5, outer=80):
    return EstimatorConfig(init=RandomInit(2, seed=seed), outer_iters=outer)


class TestSplitByKnots:
    def test_local_times_and_membership(self):
        inst = planted_instance(8, 2, 1, 9, 0.1, 1.0, seed=1)
        segments = split_by_knots(inst.dataset, KNOTS)
        assert [s.n_samples for s in segments] == [4, 5]
        np.testing.assert_allclose(segments[0].times, [0.0, 0.25, 0.5, 0.75])
        np.testing.assert_allclose(segments[1].times, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_empty_segment_raises(self):
        ds = Dataset(np.array([0.6, 0.8, 1.0]), tuple(np.ones((4, 1)) for _ in range(3)))
        with pytest.raises(EmptySegment):
            split_by_knots(ds, KNOTS)


    def test_sample_time_outside_knots_raises(self):
        ds = Dataset(np.array([-0.2, 0.4, 0.9]), tuple(np.ones((4, 1)) for _ in range(3)))
        with pytest.raises(ValueError, match="outside the knot range"):
            split_by_knots(ds, KNOTS)


class TestBadInput:
    """Invalid knots and arguments are rejected before any segment is fitted."""

    @pytest.fixture
    def fits(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return fit(*args, **kwargs)

        monkeypatch.setattr(piecewise, "fit", counting)
        return calls

    @pytest.mark.parametrize("knots, error", [
        ([0.0, 0.5, 2.0], ValueError),
        ([-1.0, 0.5, 1.0], ValueError),
        ([0.0, 0.6, 0.4, 1.0], ValueError),
        ([0.0, np.nan, 1.0], ValueError),
        ([0.5], DimensionMismatch),
    ], ids=["past-one", "below-zero", "not-increasing", "nan", "single-knot"])
    def test_bad_knots_raise_before_any_fit(self, fits, knots, error):
        inst = planted_instance(8, 2, 1, 9, 0.1, 1.0, seed=1)
        with pytest.raises(error):
            fit_piecewise(inst.dataset, np.array(knots), 1.0, config(outer=5))
        with pytest.raises(error):
            fit_piecewise_schedule(inst.dataset, np.array(knots), [0.0, 1.0], config(outer=5))
        with pytest.raises(error):
            split_by_knots(inst.dataset, np.array(knots))
        seg = random_geodesic(8, 2, 1.0, seed=2)
        with pytest.raises(error):
            PiecewiseModel(np.array(knots), (seg,) * max(len(knots) - 1, 1))
        assert fits == []

    def test_bad_knots_exit_one_before_any_fit(self, fits, tmp_path):
        data = tmp_path / "data.txt"
        assert main(["synth", "--d", "8", "--k", "2", "--T", "9", "--sigma", "0.1", "--seed", "1",
                     "--out", str(data)]) == 0
        assert main(["piecewise", "--data", str(data), "--knots", "0,0.5,2", "--k", "2",
                     "--out", str(tmp_path / "stages.csv")]) == 1
        assert fits == []
        assert not (tmp_path / "stages.csv").exists()

    @pytest.mark.parametrize("lam", [-1.0, np.nan, np.inf], ids=["negative", "nan", "inf"])
    def test_bad_lambda_rejected(self, fits, lam):
        inst = planted_instance(8, 2, 1, 9, 0.1, 1.0, seed=1)
        with pytest.raises(ValueError, match="lambda"):
            fit_piecewise(inst.dataset, KNOTS, lam, config(outer=5))
        with pytest.raises(ValueError, match="lambda"):
            fit_piecewise_schedule(inst.dataset, KNOTS, [0.0, lam], config(outer=5))
        assert fits == []

    def test_bad_lambda_exits_one_before_any_fit(self, fits, tmp_path):
        data = tmp_path / "data.txt"
        assert main(["synth", "--d", "8", "--k", "2", "--T", "9", "--sigma", "0.1", "--seed", "1",
                     "--out", str(data)]) == 0
        assert main(["piecewise", "--data", str(data), "--knots", "0,0.5,1", "--k", "2", "--lambdas", "0,nan",
                     "--out", str(tmp_path / "stages.csv")]) == 1
        assert fits == []
        assert not (tmp_path / "stages.csv").exists()

    def test_initial_segment_count_checked(self, fits):
        inst = planted_instance(8, 2, 1, 9, 0.1, 1.0, seed=1)
        seg = random_geodesic(8, 2, 1.0, seed=2)
        with pytest.raises(DimensionMismatch):
            fit_piecewise(inst.dataset, KNOTS, 1.0, config(outer=5), init_segments=(seg,) * 3)
        assert fits == []


class TestLambdaZero:
    def test_reduces_to_independent_fits_bitwise(self):
        inst = planted_instance(10, 2, 1, 12, 1e-3, 1.2, seed=2)
        cfg = config()
        report = fit_piecewise(inst.dataset, KNOTS, 0.0, cfg)
        for seg_data, seg_model in zip(split_by_knots(inst.dataset, KNOTS), report.model.segments):
            direct = fit(seg_data, cfg).model
            assert np.array_equal(direct.H, seg_model.H)
            assert np.array_equal(direct.Y, seg_model.Y)
            assert np.array_equal(direct.theta, seg_model.theta)

    def test_single_segment_equals_whole_fit(self):
        inst = planted_instance(10, 2, 1, 8, 1e-2, 1.2, seed=3)
        cfg = config()
        report = fit_piecewise(inst.dataset, np.array([0.0, 1.0]), 0.0, cfg)
        direct = fit(inst.dataset, cfg).model
        assert np.array_equal(report.model.segments[0].H, direct.H)
        assert np.array_equal(report.model.segments[0].theta, direct.theta)


class TestContinuityGap:
    def test_identical_static_segments_have_zero_gap(self):
        u = random_geodesic(8, 2, 0.0, seed=4)
        pw = PiecewiseModel(KNOTS, (u, u))
        np.testing.assert_allclose(continuity_gap(pw), [0.0], atol=1e-12)

    def test_orthogonal_endpoints_have_gap_one(self):
        a = static_as_geodesic(np.eye(8)[:, :2])
        b = static_as_geodesic(np.eye(8)[:, 2:4])
        pw = PiecewiseModel(KNOTS, (a, b))
        assert continuity_gap(pw)[0] == pytest.approx(1.0, abs=1e-12)

    def test_matches_subspace_error_oracle(self):
        a = random_geodesic(9, 2, 1.2, seed=5)
        b = random_geodesic(9, 2, 1.2, seed=6)
        pw = PiecewiseModel(KNOTS, (a, b))
        expected = subspace_error(a.evaluate(1.0), b.evaluate(0.0))
        assert continuity_gap(pw)[0] == pytest.approx(expected, abs=1e-12)


class TestLossPerTimepoint:
    def test_noiseless_planted_is_zero(self):
        inst = planted_instance(10, 2, 2, 6, 0.0, 1.2, seed=7)
        per = loss_per_timepoint(inst.dataset, inst.truth)
        scale = sum(np.sum(x * x) for x in inst.dataset.matrices)
        assert np.all(per <= 1e-18 * scale)

    def test_sums_to_loss(self):
        inst = planted_instance(10, 2, 2, 6, 0.4, 1.2, seed=8)
        m = random_geodesic(10, 2, 1.0, seed=9)
        per = loss_per_timepoint(inst.dataset, m)
        assert float(np.sum(per)) == pytest.approx(loss(inst.dataset, m), rel=1e-12)

    def test_corrupted_sample_dominates(self):
        inst = planted_instance(10, 2, 2, 6, 0.0, 1.2, seed=10)
        mats = list(inst.dataset.matrices)
        mats[3] = mats[3] + 50.0
        per = loss_per_timepoint(Dataset(inst.dataset.times, tuple(mats)), inst.truth)
        assert np.argmax(per) == 3
        assert per[3] > 10 * np.delete(per, 3).max()

    def test_works_on_piecewise_models(self):
        data, truths, knots, _ = planted_piecewise_instance(10, 2, 1, 9, 0.0, 1.2, seed=11)
        pw = PiecewiseModel(knots, truths)
        per = loss_per_timepoint(data, pw)
        scale = sum(np.sum(x * x) for x in data.matrices)
        assert np.all(per <= 1e-16 * scale)


class TestPenalizedFitting:
    def test_objective_descends_across_sweeps(self):
        data, _, knots, _ = planted_piecewise_instance(12, 2, 1, 9, 1e-2, 1.2, seed=12)
        report = fit_piecewise(data, knots, 5.0, config(seed=13), max_sweeps=12)
        obj = report.objective_per_sweep
        assert np.all(obj[1:] <= obj[:-1] * (1 + 1e-10))

    def test_lambda_continuation_tightens_the_gap(self):
        data, _, knots, _ = planted_piecewise_instance(12, 2, 1, 7, 0.0, 1.2, seed=42)
        lams = [0.0, 1.0, 10.0, 100.0]
        reports = fit_piecewise_schedule(
            data, knots, lams, EstimatorConfig(init=RandomInit(2, seed=9), outer_iters=150), max_sweeps=25
        )
        gaps = [float(np.max(continuity_gap(r.model))) for r in reports]
        assert gaps[-1] <= 0.05
        for earlier, later in zip(gaps, gaps[1:]):
            assert later <= earlier * (1 + 1e-9) + 1e-12

    def test_penalized_objective_matches_hand_computation(self):
        data, truths, knots, _ = planted_piecewise_instance(10, 2, 1, 9, 0.1, 1.2, seed=14)
        segments = list(truths)
        seg_data = split_by_knots(data, knots)
        lam = 3.0
        expected = (
            loss(seg_data[0], segments[0])
            + loss(seg_data[1], segments[1])
            + lam * (2 - float(np.sum((segments[0].evaluate(1.0).T @ segments[1].evaluate(0.0)) ** 2)))
        )
        assert penalized_objective(seg_data, segments, lam) == pytest.approx(expected, rel=1e-12)
