"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and cell tables.  The README's status table summarizes the results.
"""

import math
import time
import warnings
from collections import defaultdict

import numpy as np
import pytest

import geogress as gg
from geogress import (
    Dataset,
    EndpointsInit,
    EstimatorConfig,
    ExperimentSpec,
    GeodesicModel,
    ProvidedInit,
    RandomInit,
    angle_constants,
    angle_gradient,
    angle_loss_terms,
    batch_svd_subspace,
    continuity_gap,
    curvature_weight,
    fit,
    fit_piecewise_schedule,
    geodesic_error,
    loss,
    loss_surface_2d,
    per_timepoint_svd,
    permute_times,
    planted_instance,
    planted_piecewise_instance,
    psnr,
    random_geodesic,
    reconstruct,
    run_experiment,
    static_as_geodesic,
    subspace_error,
)
from geogress.geodesic import orthonormalize

warnings.simplefilter("ignore", gg.RankCollapseWarning)

pytestmark = pytest.mark.acceptance


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"criterion {number:2d} ({name}): {status}{suffix}")
    return ok


def test_c01_monotone_descent():
    """100 random instances, random inits: the loss trail never increases
    beyond 1e-10 relative slack."""
    start = time.perf_counter()
    sigmas = [0.0, 1e-3, 1e-1]
    violations = 0
    for trial in range(100):
        d = (8, 16, 28, 40)[trial % 4]
        k = 1 + trial % 6
        if 2 * k > d:
            k = d // 2
        T = 5 + trial % 30
        ell = 1 + trial % 3
        sigma = sigmas[trial % 3]
        inst = planted_instance(d, k, ell, T, sigma, 1.4, seed=10_000 + trial)
        cfg = EstimatorConfig(
            init=RandomInit(k, seed=20_000 + trial), outer_iters=40, rel_loss_tol=0.0
        )
        trail = fit(inst.dataset, cfg).loss_per_outer_iter
        violations += int(np.any(trail[1:] > trail[:-1] * (1 + 1e-10)))
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 120
    assert report(1, "monotone descent", ok, f"{violations} violations, {elapsed:.0f}s")


def test_c02_phase_transition():
    """d=40, ell=1, sigma=1e-5, k in {2,4,8}: median geodesic error <= 1e-3
    for T >= 2k and >= 0.1 for T < k, endpoints init where feasible.

    The cells at and near the T=2k boundary are where block descent alone
    crawls; `fit` closes them with its safeguarded Gauss-Newton step.  The
    table below prints every cell's median.
    """
    start = time.perf_counter()
    spec = ExperimentSpec(
        experiment="PhaseTransition",
        d=(40,),
        k=(2, 4, 8),
        ell=(1,),
        T=(1, 2, 4, 8, 16, 24, 32),
        sigma=(1e-5,),
        theta_max=(1.4,),
        trials=15,
        base_seed=20260809,
        estimator={"init": "endpoints", "outer_iters": 1250, "inner_basis_iters": 10},
    )
    header, rows = run_experiment(spec)
    i_k, i_T, i_err = header.index("k"), header.index("T"), header.index("geodesic_error")
    cells = defaultdict(list)
    for r in rows:
        cells[(r[i_k], r[i_T])].append(r[i_err])
    failing = []
    for (k, T), errs in sorted(cells.items()):
        med = float(np.median(errs))
        want = "<=1e-3" if T >= 2 * k else (">=0.1" if T < k else "(free)")
        bad = (T >= 2 * k and med > 1e-3) or (T < k and med < 0.1)
        if bad:
            failing.append((k, T, med))
        print(f"  k={k} T={T:3d} median={med:.3e} want {want}{'  <-- FAIL' if bad else ''}")
    elapsed = time.perf_counter() - start
    ok = not failing and elapsed < 300
    assert report(2, "phase transition", ok, f"{len(failing)} failing cells, {elapsed:.0f}s")


def test_c03_loss_sandwich():
    """50 instances, fit initialized from the rank-k SVD static model:
    svd(2k) - 1e-9 <= geodesic loss <= svd(k) + 1e-9."""
    start = time.perf_counter()
    bad = 0
    for trial in range(50):
        d = (10, 14, 20, 30)[trial % 4]
        k = 1 + trial % 3
        T = 8 + trial % 20
        ell = 1 + trial % 2
        sigma = (1e-3, 1e-2, 1e-1)[trial % 3]
        inst = planted_instance(d, k, ell, T, sigma, 1.4, seed=30_000 + trial)
        basis_k, loss_k = batch_svd_subspace(inst.dataset, k)
        _, loss_2k = batch_svd_subspace(inst.dataset, 2 * k)
        cfg = EstimatorConfig(init=ProvidedInit(static_as_geodesic(basis_k)), outer_iters=100)
        geo = fit(inst.dataset, cfg).loss_per_outer_iter[-1]
        if not (loss_2k - 1e-9 <= geo <= loss_k + 1e-9):
            bad += 1
    elapsed = time.perf_counter() - start
    ok = bad == 0 and elapsed < 60
    assert report(3, "loss sandwich", ok, f"{bad} violations, {elapsed:.0f}s")


def test_c04_permutation_degradation():
    """Rank-2 geodesic with angles near pi/2, sigma=1e-3, 20 trials: mean
    fitted loss on permuted data >= 1.5x the ordered mean."""
    start = time.perf_counter()
    d, k, T = 20, 2, 40
    ordered, permuted = [], []
    for trial in range(20):
        seed = 40_000 + trial
        rng = np.random.default_rng(seed)
        base = random_geodesic(d, k, 0.0, rng)
        signs = rng.choice([-1.0, 1.0], size=k)
        truth = GeodesicModel(base.H, base.Y, signs * 1.47)
        times = np.arange(T) / (T - 1)
        mats = tuple(
            truth.evaluate(t) @ rng.standard_normal((k, 1)) + 1e-3 * rng.standard_normal((d, 1))
            for t in times
        )
        dataset = Dataset(times, mats)
        shuffled = permute_times(dataset, seed ^ 0x5D2E1F45)
        cfg = EstimatorConfig(init=EndpointsInit(k), outer_iters=300)
        ordered.append(fit(dataset, cfg).loss_per_outer_iter[-1])
        permuted.append(fit(shuffled, cfg).loss_per_outer_iter[-1])
    ratio = float(np.mean(permuted)) / float(np.mean(ordered))
    elapsed = time.perf_counter() - start
    ok = ratio >= 1.5 and elapsed < 60
    assert report(4, "permutation degradation", ok, f"ratio {ratio:.1f}, {elapsed:.0f}s")


def test_c05_noise_floor_recovery():
    """d=40, k in {1,2,4}, T=100, ell=1, sigma=1e-3, random init: at least 80%
    of 20 trials per k reach geodesic error <= 10 sigma sqrt(d) within 500
    outer iterations."""
    start = time.perf_counter()
    threshold = 10 * 1e-3 * math.sqrt(40)
    rates = {}
    for k in (1, 2, 4):
        hits = 0
        for trial in range(20):
            seed = 50_000 + 97 * k + trial
            inst = planted_instance(40, k, 1, 100, 1e-3, 1.4, seed)
            cfg = EstimatorConfig(init=RandomInit(k, seed=seed ^ 0x9E3779B9), outer_iters=500)
            rep = fit(inst.dataset, cfg)
            hits += geodesic_error(rep.model, inst.truth) <= threshold
        rates[k] = hits / 20
    elapsed = time.perf_counter() - start
    ok = all(rate >= 0.8 for rate in rates.values()) and elapsed < 300
    assert report(5, "noise-floor recovery", ok, f"rates {rates}, {elapsed:.0f}s")


def test_c06_identifiability_below_k_columns():
    """k=4, sigma=1e-2: the geodesic fit beats per-timepoint SVD on matched
    ell=6 data, and still succeeds (error <= 0.1) at ell=1 where the
    per-timepoint SVD cannot run."""
    start = time.perf_counter()
    ell1_ok, comparisons = [], []
    for trial in range(5):
        seed = 60_000 + trial
        inst1 = planted_instance(40, 4, 1, 44, 1e-2, 1.4, seed)
        cfg = EstimatorConfig(init=EndpointsInit(4), outer_iters=600, inner_basis_iters=4)
        rep = fit(inst1.dataset, cfg)
        ell1_ok.append(geodesic_error(rep.model, inst1.truth) <= 0.1)

        inst6 = planted_instance(40, 4, 6, 11, 1e-2, 1.4, seed + 500)
        rep6 = fit(inst6.dataset, cfg)
        geo_pp = float(
            np.mean(
                [
                    subspace_error(rep6.model.evaluate(t), inst6.truth.evaluate(t))
                    for t in inst6.dataset.times
                ]
            )
        )
        svd_pp = float(
            np.mean(
                [
                    subspace_error(basis, inst6.truth.evaluate(t))
                    for basis, t in zip(per_timepoint_svd(inst6.dataset, 4), inst6.dataset.times)
                ]
            )
        )
        comparisons.append(geo_pp < svd_pp)
    elapsed = time.perf_counter() - start
    ok = all(ell1_ok) and all(comparisons) and elapsed < 60
    assert report(
        6, "identifiability below k columns", ok,
        f"ell=1 successes {sum(ell1_ok)}/5, wins vs per-point SVD {sum(comparisons)}/5, {elapsed:.0f}s",
    )


def test_c07_majorizer_suite():
    """Dominance q >= f - 1e-9 on 1e4-point grids and tangency at the mirror
    point of the expansion point for 100 random configurations, plus the
    closed-form curvature limit at touch points."""
    start = time.perf_counter()
    rng = np.random.default_rng(70_000)
    worst_gap = 0.0
    worst_tangency = 0.0
    for _ in range(100):
        r = rng.uniform(0.0, 4.0)
        phi = rng.uniform(-np.pi, np.pi)
        t = rng.uniform(0.05, 2.5)
        lo, hi = (phi - np.pi) / (2 * t), (phi + np.pi) / (2 * t)
        ref = rng.uniform(lo, hi)
        grid = np.linspace(lo, hi, 10_000)

        def f(x):
            return -r * np.cos(2 * x * t - phi)

        slope = 2 * r * t * np.sin(2 * ref * t - phi)
        w = curvature_weight(ref, t, r, phi)
        quad = f(ref) + slope * (grid - ref) + 0.5 * w * (grid - ref) ** 2
        worst_gap = max(worst_gap, float(np.max(f(grid) - quad)))
        # besides ref, the majorizer touches f at ref's mirror image in the axis
        mirror = 2 * phi / (2 * t) - ref
        quad_at_mirror = f(ref) + slope * (mirror - ref) + 0.5 * w * (mirror - ref) ** 2
        worst_tangency = max(worst_tangency, abs(quad_at_mirror - f(mirror)))
    # limit value at the cosine axis
    limit_ok = True
    for _ in range(100):
        r = rng.uniform(0.0, 4.0)
        phi = rng.uniform(-np.pi, np.pi)
        t = rng.uniform(0.05, 2.5)
        m = rng.integers(-2, 3)
        axis = (phi + 2 * np.pi * m) / (2 * t)
        limit_ok &= curvature_weight(axis, t, r, phi) == pytest.approx(4 * t * t * r, rel=1e-9, abs=1e-12)
    elapsed = time.perf_counter() - start
    ok = worst_gap <= 1e-9 and worst_tangency <= 1e-12 and limit_ok and elapsed < 30
    assert report(
        7, "majorizer suite", ok,
        f"max dominance gap {worst_gap:.1e}, max tangency gap {worst_tangency:.1e}, {elapsed:.1f}s",
    )


def test_c08_gradient_check():
    """Angle-loss gradient vs central finite differences, 100 random
    configurations, relative error <= 1e-5."""
    start = time.perf_counter()
    rng = np.random.default_rng(80_000)
    step = 1e-6
    worst = 0.0
    for trial in range(100):
        d = 8 + trial % 6
        k = 1 + trial % 3
        inst = planted_instance(d, k, 2, 6 + trial % 8, 0.5, 1.4, seed=81_000 + trial)
        m = random_geodesic(d, k, 1.3, seed=82_000 + trial)
        c = angle_constants(inst.dataset, m.H, m.Y)
        theta = rng.uniform(-1.5, 1.5, k)
        grad = angle_gradient(c, theta, inst.dataset.times)
        for j in range(k):
            e = np.zeros(k)
            e[j] = step
            hi = angle_loss_terms(c, theta + e, inst.dataset.times)[j]
            lo = angle_loss_terms(c, theta - e, inst.dataset.times)[j]
            fd = (hi - lo) / (2 * step)
            scale = max(abs(fd), 1e-6)
            worst = max(worst, abs(grad[j] - fd) / scale)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-5 and elapsed < 10
    assert report(8, "gradient check", ok, f"worst rel err {worst:.1e}, {elapsed:.1f}s")


def test_c09_oracle_equivalences():
    """Loss vs least-squares oracle, angle constants vs dense quadratic
    forms, plane surface vs generic loss, subspace error vs explicit
    projectors; plus the reconstruct/loss identity and PSNR examples that
    stand in for the out-of-scope image pipelines."""
    start = time.perf_counter()
    ok = True

    for trial in range(50):
        inst = planted_instance(8 + trial % 5, 2, 3, 5 + trial % 6, 0.5, 1.3, seed=90_000 + trial)
        m = random_geodesic(inst.dataset.d, 2, 1.1, seed=91_000 + trial)
        oracle = 0.0
        for t, x in zip(inst.dataset.times, inst.dataset.matrices):
            u = m.evaluate(t)
            g, *_ = np.linalg.lstsq(u, x, rcond=None)
            oracle += float(np.sum((x - u @ g) ** 2))
        ours = loss(inst.dataset, m)
        ok &= abs(ours - oracle) <= 1e-10 * max(oracle, 1.0)

    for trial in range(10):
        inst = planted_instance(9, 2, 4, 5, 0.7, 1.3, seed=92_000 + trial)
        m = random_geodesic(9, 2, 1.1, seed=93_000 + trial)
        c = angle_constants(inst.dataset, m.H, m.Y)
        for i, x in enumerate(inst.dataset.matrices):
            outer = x @ x.T
            scale = max(float(np.max(np.abs(outer))), 1.0)
            ok &= np.allclose(c.alpha[i], np.diag(m.H.T @ outer @ m.H), rtol=1e-12, atol=1e-12 * scale)
            ok &= np.allclose(c.beta[i], np.diag(m.Y.T @ outer @ m.H), rtol=1e-12, atol=1e-12 * scale)
            ok &= np.allclose(c.gamma[i], np.diag(m.Y.T @ outer @ m.Y), rtol=1e-12, atol=1e-12 * scale)

    inst = planted_instance(2, 1, 1, 9, 0.1, 1.2, seed=94_000)
    omegas = np.linspace(-np.pi / 2, np.pi / 2, 11)
    thetas = np.linspace(-np.pi, np.pi, 11)
    surface = loss_surface_2d(inst.dataset, omegas, thetas)
    for i, omega in enumerate(omegas):
        for j, theta in enumerate(thetas):
            model = GeodesicModel(
                np.array([[np.cos(omega)], [np.sin(omega)]]),
                np.array([[-np.sin(omega)], [np.cos(omega)]]),
                np.array([theta]),
            )
            expected = loss(inst.dataset, model)
            ok &= abs(surface[i, j] - expected) <= 1e-12 * max(expected, 1.0)

    for trial in range(30):
        d = 3 + trial % 4
        k = 1 + trial % 2 if d >= 4 else 1
        U = orthonormalize(np.random.default_rng(95_000 + trial).standard_normal((d, k)))
        V = orthonormalize(np.random.default_rng(96_000 + trial).standard_normal((d, k)))
        direct = np.linalg.norm(U @ U.T - V @ V.T) / math.sqrt(2 * k)
        ok &= abs(subspace_error(U, V) - direct) <= 1e-10

    # image-shaped denoising stand-in: reconstruct/loss identity and PSNR gain
    frames = planted_instance(64, 3, 8, 12, 12.0, 1.2, seed=97_000)
    model = fit(
        frames.dataset, EstimatorConfig(init=EndpointsInit(3), outer_iters=150)
    ).model
    denoised = reconstruct(frames.dataset, model)
    resid = sum(
        float(np.sum((x - xh) ** 2)) for x, xh in zip(frames.dataset.matrices, denoised)
    )
    ok &= abs(resid - loss(frames.dataset, model)) <= 1e-12 * resid
    gains = [
        psnr(xh, xc) - psnr(x, xc)
        for x, xh, xc in zip(frames.dataset.matrices, denoised, frames.clean)
    ]
    ok &= float(np.mean(gains)) > 0.0

    elapsed = time.perf_counter() - start
    ok = bool(ok) and elapsed < 30
    assert report(9, "oracle equivalences", ok, f"{elapsed:.1f}s")


def test_c10_piecewise_continuity_trend():
    """Two-segment noiseless continuous truth, lambda continuation 0 -> 1e3:
    the continuity gap is non-increasing across stages and <= 0.05 at the
    final stage; the penalized objective never increases within a stage."""
    start = time.perf_counter()
    data, _, knots, _ = planted_piecewise_instance(12, 2, 1, 7, 0.0, 1.2, seed=100_000)
    lams = [0.0, 1.0, 10.0, 100.0, 1000.0]
    cfg = EstimatorConfig(init=RandomInit(2, seed=100_001), outer_iters=200)
    reports = fit_piecewise_schedule(data, knots, lams, cfg, max_sweeps=25)
    gaps = [float(np.max(continuity_gap(r.model))) for r in reports]
    print(f"  gaps per lambda stage: {[f'{g:.2e}' for g in gaps]}")
    trend_ok = all(b <= a * (1 + 1e-9) + 1e-12 for a, b in zip(gaps, gaps[1:]))
    final_ok = gaps[-1] <= 0.05
    descent_ok = all(
        np.all(r.objective_per_sweep[1:] <= r.objective_per_sweep[:-1] * (1 + 1e-10))
        for r in reports
    )
    elapsed = time.perf_counter() - start
    ok = trend_ok and final_ok and descent_ok and elapsed < 60
    assert report(10, "piecewise continuity trend", ok, f"final gap {gaps[-1]:.1e}, {elapsed:.0f}s")
