"""Tests for geodesic value types and constructions."""

import numpy as np
import pytest

from geogress import (
    DimensionMismatch,
    GeodesicModel,
    NotOrthonormal,
    NotTangent,
    connect,
    random_geodesic,
    static_as_geodesic,
    subspace_error,
)
from geogress.geodesic import orthonormal_complement, orthonormalize


def canonical_pair(d, k):
    H = np.eye(d)[:, :k]
    Y = np.eye(d)[:, k : 2 * k]
    return H, Y


class TestGeodesicModel:
    def test_canonical_construction_accepted(self):
        H, Y = canonical_pair(6, 2)
        m = GeodesicModel(H, Y, np.array([0.3, -1.0]))
        assert m.d == 6 and m.k == 2

    def test_equal_bases_rejected_as_not_tangent(self):
        H, _ = canonical_pair(6, 2)
        with pytest.raises(NotTangent):
            GeodesicModel(H, H, np.zeros(2))

    def test_duplicated_column_rejected(self):
        H, Y = canonical_pair(6, 2)
        H_bad = H.copy()
        H_bad[:, 1] = H_bad[:, 0]
        with pytest.raises(NotOrthonormal):
            GeodesicModel(H_bad, Y, np.zeros(2))

    def test_dimension_checks(self):
        H, Y = canonical_pair(6, 2)
        with pytest.raises(DimensionMismatch):
            GeodesicModel(H, Y[:, :1], np.zeros(2))
        with pytest.raises(DimensionMismatch):
            GeodesicModel(H, Y, np.zeros(3))
        with pytest.raises(DimensionMismatch):
            GeodesicModel(np.eye(3)[:, :2], np.eye(3)[:, 1:], np.zeros(2))  # 2k > d

    @pytest.mark.parametrize("token", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("where, error", [("H", NotOrthonormal), ("Y", NotOrthonormal), ("theta", ValueError)])
    def test_non_finite_entries_rejected(self, where, error, token):
        H, Y = canonical_pair(6, 2)
        parts = {"H": H.copy(), "Y": Y.copy(), "theta": np.array([0.1, -0.4])}
        parts[where].reshape(-1)[1] = token
        with pytest.raises(error):
            GeodesicModel(parts["H"], parts["Y"], parts["theta"])

    @pytest.mark.parametrize("row, col", [(0, 0), (0, 1), (1, 0)])
    def test_one_off_tangent_entry_rejected(self, row, col):
        # Orthonormal H and Y whose only fault is one entry of H^T Y just
        # above ORTHO_TOL, on or off the diagonal.
        H, Y = canonical_pair(6, 2)
        Y[:, col] = np.cos(1e-7) * Y[:, col] + np.sin(1e-7) * H[:, row]
        with pytest.raises(NotTangent, match=r"^H\^T Y != 0 \(max-abs 1\.000e-07 > 1\.0e-08\)$"):
            GeodesicModel(H, Y, np.zeros(2))

    def test_first_fault_is_reported(self):
        # Faults are reported in a fixed order: H's shape, H's entries, H's
        # Gram, then the same for Y, then tangency.
        H, Y = canonical_pair(6, 2)
        skewed, broken = H.copy(), Y.copy()
        skewed[:, 1] = skewed[:, 0]
        broken[0, 0] = np.nan
        bad_h = (NotOrthonormal, r"^H columns are not orthonormal \(defect 1\.000e\+00 > 1\.0e-08\)$")
        cases = [
            (np.eye(6)[:, :0], np.eye(6)[:, :0], DimensionMismatch, r"^H must be tall with at least one column"),
            (broken, Y, NotOrthonormal, r"^H has non-finite entries$"),
            (skewed, broken, *bad_h),
            (skewed, H, *bad_h),
            (H, broken, NotOrthonormal, r"^Y has non-finite entries$"),
            (H, skewed, NotOrthonormal, r"^Y columns are not orthonormal \(defect 1\.000e\+00 > 1\.0e-08\)$"),
        ]
        for first, second, error, message in cases:
            with pytest.raises(error, match=message):
                GeodesicModel(first, second, np.zeros(first.shape[1]))

    def test_non_finite_bases_rejected_by_constructions(self):
        U, _ = canonical_pair(6, 2)
        bad = U.copy()
        bad[3, 0] = np.nan
        with pytest.raises(NotOrthonormal):
            connect(bad, U)
        with pytest.raises(NotOrthonormal):
            connect(U, bad)
        with pytest.raises(NotOrthonormal):
            static_as_geodesic(bad)

    def test_arrays_are_immutable(self):
        m = random_geodesic(8, 2, 1.0, seed=0)
        with pytest.raises(ValueError):
            m.H[0, 0] = 5.0

    def test_evaluate_at_zero_is_base(self):
        m = random_geodesic(9, 3, 1.2, seed=1)
        assert np.array_equal(m.evaluate(0.0), m.H)

    def test_zero_angles_give_constant_path(self):
        m = random_geodesic(9, 3, 0.0, seed=2)
        for t in (0.0, 0.4, 1.0, 2.5):
            np.testing.assert_allclose(m.evaluate(t), m.H, atol=1e-15)

    def test_quarter_rotation_in_plane(self):
        m = GeodesicModel(np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]]), np.array([np.pi / 2]))
        np.testing.assert_allclose(m.evaluate(1.0), [[0.0], [1.0]], atol=1e-15)

    def test_path_stays_orthonormal(self):
        rng = np.random.default_rng(3)
        for trial in range(10):
            m = random_geodesic(11, 3, 1.5, seed=100 + trial)
            for t in rng.uniform(0.0, 1.0, 100):
                u = m.evaluate(t)
                defect = np.max(np.abs(u.T @ u - np.eye(3)))
                assert defect <= 1e-10

    def test_evaluate_path_matches_scalar_evaluate(self):
        m = random_geodesic(7, 2, 1.1, seed=4)
        ts = np.linspace(-0.5, 1.5, 9)
        stacked = m.evaluate_path(ts)
        for i, t in enumerate(ts):
            np.testing.assert_array_equal(stacked[i], m.evaluate(t))


class TestCanonicalize:
    def test_idempotent_on_canonical_model(self):
        m = random_geodesic(8, 2, 1.0, seed=6).canonicalize()
        again = m.canonicalize()
        assert np.array_equal(m.H, again.H)
        assert np.array_equal(m.Y, again.Y)
        assert np.array_equal(m.theta, again.theta)

    def test_sign_and_order_normalization(self):
        base = random_geodesic(8, 2, 0.0, seed=7)
        m = GeodesicModel(base.H, base.Y, np.array([-0.3, 0.7]))
        c = m.canonicalize()
        np.testing.assert_allclose(c.theta, [0.7, 0.3])
        # column 0.3 was negated and moved to position 1
        np.testing.assert_array_equal(c.Y[:, 1], -m.Y[:, 0])
        for t in (0.0, 0.5, 1.0):
            u, v = m.evaluate(t), c.evaluate(t)
            gap = np.linalg.norm(u @ u.T - v @ v.T)
            assert gap <= 1e-12

    def test_zero_angles_keep_direction_columns(self):
        base = random_geodesic(8, 3, 0.0, seed=8)
        c = base.canonicalize()
        assert np.array_equal(np.sort(c.Y, axis=None), np.sort(base.Y, axis=None))

    def test_projector_path_preserved_on_random_models(self):
        for trial in range(20):
            m = random_geodesic(9, 3, 1.5, seed=300 + trial)
            c = m.canonicalize()
            for t in np.linspace(0, 1, 7):
                u, v = m.evaluate(t), c.evaluate(t)
                assert np.linalg.norm(u @ u.T - v @ v.T) <= 1e-10


class TestConnect:
    def test_identical_endpoints_give_zero_angles(self):
        u = random_geodesic(10, 3, 1.0, seed=9).H
        m = connect(u, u)
        assert np.array_equal(m.theta, np.zeros(3))
        assert subspace_error(m.evaluate(1.0), u) <= 1e-12

    def test_rotated_endpoint_treated_as_identical(self):
        u = random_geodesic(10, 3, 1.0, seed=10).H
        rot = orthonormalize(np.random.default_rng(0).standard_normal((3, 3)))
        m = connect(u, u @ rot)
        assert np.array_equal(m.theta, np.zeros(3))

    def test_orthogonal_lines_in_plane(self):
        m = connect(np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]]))
        np.testing.assert_allclose(m.theta, [np.pi / 2], atol=1e-12)
        assert abs(abs(m.Y[1, 0]) - 1.0) <= 1e-12

    def test_reaches_endpoints_on_random_pairs(self):
        for trial in range(20):
            a = random_geodesic(10, 3, 1.0, seed=500 + trial).H
            b = random_geodesic(10, 3, 1.0, seed=600 + trial).H
            m = connect(a, b)
            for basis, t in ((a, 0.0), (b, 1.0)):
                u = m.evaluate(t)
                assert np.linalg.norm(u @ u.T - basis @ basis.T) <= 1e-8
            assert np.all(m.theta >= 0.0) and np.all(m.theta <= np.pi / 2 + 1e-12)

    def test_small_genuine_angles_recovered(self):
        base = random_geodesic(12, 2, 0.0, seed=11)
        tiny = GeodesicModel(base.H, base.Y, np.array([1e-6, 5e-3]))
        m = connect(tiny.evaluate(0.0), tiny.evaluate(1.0))
        np.testing.assert_allclose(np.sort(m.theta), [1e-6, 5e-3], rtol=1e-6)
        assert subspace_error(m.evaluate(1.0), tiny.evaluate(1.0)) <= 1e-8

    def test_shape_mismatch_rejected(self):
        a = random_geodesic(10, 3, 1.0, seed=12).H
        with pytest.raises(DimensionMismatch):
            connect(a, a[:, :2])


class TestRandomGeodesic:
    def test_same_seed_is_bitwise_identical(self):
        a = random_geodesic(12, 3, 1.2, seed=42)
        b = random_geodesic(12, 3, 1.2, seed=42)
        assert np.array_equal(a.H, b.H)
        assert np.array_equal(a.Y, b.Y)
        assert np.array_equal(a.theta, b.theta)

    def test_zero_amplitude_is_static(self):
        m = random_geodesic(12, 3, 0.0, seed=13)
        assert np.array_equal(m.theta, np.zeros(3))

    def test_validation_sweep(self):
        # 1000 draws must all satisfy the model invariants (checked in the
        # constructor) and the amplitude bound.
        for trial in range(1000):
            m = random_geodesic(40, 4, 1.5, seed=trial)
            assert np.max(np.abs(m.theta)) < np.pi / 2

    def test_rejects_bad_arguments(self):
        with pytest.raises(DimensionMismatch):
            random_geodesic(5, 3, 1.0, seed=0)
        for theta_max in (-0.1, 2.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="^theta_max must"):
                random_geodesic(10, 2, theta_max, seed=0)
        for d, k, name in ((10, 2.5, "k"), (10, 0, "k"), (10.5, 2, "d")):
            with pytest.raises(ValueError, match=f"^{name} must"):
                random_geodesic(d, k, 1.0, seed=0)


def test_orthonormal_complement_is_orthogonal():
    basis = random_geodesic(10, 3, 1.0, seed=14).H
    comp = orthonormal_complement(basis, 4)
    assert comp.shape == (10, 4)
    assert np.max(np.abs(comp.T @ comp - np.eye(4))) <= 1e-12
    assert np.max(np.abs(basis.T @ comp)) <= 1e-12


def test_orthonormalize_sign_convention_deterministic():
    a = np.random.default_rng(15).standard_normal((8, 3))
    q1 = orthonormalize(a)
    q2 = orthonormalize(a.copy())
    assert np.array_equal(q1, q2)
    # non-negative diagonal of R implies q.T @ a has positive diagonal
    assert np.all(np.diag(q1.T @ a) > 0)
