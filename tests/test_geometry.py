"""Unit tests for the sphere-point primitives."""

import math

import numpy as np
import pytest

from wulffkit.errors import DimensionMismatchError, NonFiniteError, NormalizationError, WulffkitError
from wulffkit.geometry import (
    Angle,
    UnitPoint,
    arc_point,
    as_unit_point,
    as_vector,
    complement_basis,
    geodesic_distance,
    hemisphere_contains,
    sample_cap,
    subspace_canonical_basis,
)


class TestAngle:
    def test_plain_value_round_trips(self):
        assert float(Angle(1.25)) == 1.25

    def test_clamps_tiny_negative(self):
        assert float(Angle(-1e-12)) == 0.0

    def test_clamps_tiny_overshoot_above_pi(self):
        assert float(Angle(math.pi + 1e-12)) == math.pi

    def test_rejects_genuinely_negative(self):
        with pytest.raises(ValueError):
            Angle(-1e-3)

    def test_rejects_beyond_pi(self):
        with pytest.raises(ValueError):
            Angle(math.pi + 1e-3)

    def test_rejects_non_finite(self):
        # NaN fails both range comparisons, so it needs its own check
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(NonFiniteError):
                Angle(bad)

    def test_is_a_float(self):
        assert isinstance(Angle(0.5), float)
        assert Angle(0.5) + 0.25 == 0.75


class TestUnitPoint:
    def test_normalizes_input(self):
        p = UnitPoint((3.0, 4.0))
        assert np.allclose(p.vec, [0.6, 0.8])
        assert abs(np.linalg.norm(p.vec) - 1.0) < 1e-12

    def test_vector_is_read_only(self):
        p = UnitPoint((1.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            p.vec[0] = 2.0

    def test_rejects_near_zero(self):
        with pytest.raises(NormalizationError):
            UnitPoint((1e-12, 0.0))

    def test_huge_input_normalizes_without_overflow(self):
        assert np.allclose(UnitPoint((3e200, 4e200)).vec, [0.6, 0.8], atol=1e-15)

    def test_rejects_non_finite(self):
        for bad in ((math.nan, 1.0), (math.inf, 0.0), (0.0, -math.inf)):
            with pytest.raises(NonFiniteError):
                UnitPoint(bad)

    def test_as_vector_rejects_non_finite(self):
        with pytest.raises(NonFiniteError) as ei:
            as_vector([math.nan, 0.0, 1.0])
        # a package error that existing ValueError handlers still catch
        assert isinstance(ei.value, WulffkitError)
        assert isinstance(ei.value, ValueError)

    def test_rejects_single_coordinate(self):
        with pytest.raises(ValueError):
            UnitPoint((1.0,))

    def test_ambient_dim(self):
        assert UnitPoint((1.0, 0.0, 0.0)).ambient_dim == 2

    def test_equality_and_hash(self):
        p = UnitPoint((1.0, 0.0))
        q = UnitPoint((2.0, 0.0))
        r = UnitPoint((0.0, 1.0))
        assert p == q and hash(p) == hash(q)
        assert p != r

    def test_coercions(self):
        p = UnitPoint((0.0, 1.0))
        assert as_unit_point(p) is p
        assert isinstance(as_unit_point((0.0, 2.0)), UnitPoint)
        v = as_vector((3.0, 4.0))
        assert v.tolist() == [3.0, 4.0]
        assert as_vector(p).tolist() == [0.0, 1.0]


class TestGeodesicDistance:
    def test_orthogonal_pair(self):
        d = geodesic_distance((1.0, 0.0), (0.0, 1.0))
        assert abs(float(d) - math.pi / 2) < 1e-15

    def test_antipodal_pair(self):
        d = geodesic_distance((1.0, 0.0, 0.0), (-1.0, 0.0, 0.0))
        assert abs(float(d) - math.pi) < 1e-15

    def test_small_angles_keep_full_precision(self):
        # arccos of the dot product would floor out near 2^-26; the
        # perpendicular-part formula must resolve angles of 1e-10
        eps = 1e-10
        p = np.array([1.0, 0.0, 0.0])
        q = np.array([math.cos(eps), math.sin(eps), 0.0])
        d = geodesic_distance(p, q)
        assert abs(float(d) - eps) < 1e-16

    def test_symmetry(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            p, q = rng.standard_normal((2, 4))
            assert float(geodesic_distance(p, q)) == pytest.approx(
                float(geodesic_distance(q, p)), abs=1e-15
            )

    def test_triangle_inequality(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            p, q, r = rng.standard_normal((3, 3))
            dpq = float(geodesic_distance(p, q))
            dqr = float(geodesic_distance(q, r))
            dpr = float(geodesic_distance(p, r))
            assert dpr <= dpq + dqr + 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            geodesic_distance((1.0, 0.0), (1.0, 0.0, 0.0))


class TestArcPoint:
    def test_endpoints(self):
        p = (1.0, 0.0, 0.0)
        q = (0.0, 1.0, 0.0)
        assert np.allclose(arc_point(p, q, 0.0).vec, p)
        assert np.allclose(arc_point(p, q, 1.0).vec, q)

    def test_midpoint_of_quarter_turn(self):
        mid = arc_point((1.0, 0.0), (0.0, 1.0), 0.5)
        assert np.allclose(mid.vec, [math.sqrt(0.5), math.sqrt(0.5)])

    def test_stays_on_sphere(self):
        rng = np.random.default_rng(3)
        p, q = rng.standard_normal((2, 4))
        for t in np.linspace(0.0, 1.0, 7):
            assert abs(np.linalg.norm(arc_point(p, q, t).vec) - 1.0) < 1e-12

    def test_rejects_antipodal(self):
        with pytest.raises(ValueError):
            arc_point((1.0, 0.0), (-1.0, 0.0), 0.5)

    def test_rejects_parameter_outside_unit_interval(self):
        with pytest.raises(ValueError):
            arc_point((1.0, 0.0), (0.0, 1.0), 1.5)

    def test_convexity_characterization(self):
        # every arc point is a nonnegative combination of the endpoints
        rng = np.random.default_rng(5)
        p, q = rng.standard_normal((2, 3))
        pu, qu = UnitPoint(p), UnitPoint(q)
        for t in (0.25, 0.5, 0.75):
            m = arc_point(pu, qu, t)
            coeffs, resid, *_ = np.linalg.lstsq(
                np.column_stack([pu.vec, qu.vec]), m.vec, rcond=None
            )
            assert (coeffs >= -1e-12).all()


class TestHemisphereContains:
    def test_center_is_inside(self):
        assert hemisphere_contains((0.0, 0.0, 1.0), (0.0, 0.0, 1.0))

    def test_boundary_is_inside(self):
        assert hemisphere_contains((0.0, 0.0, 1.0), (1.0, 0.0, 0.0))

    def test_antipode_is_outside(self):
        assert not hemisphere_contains((0.0, 0.0, 1.0), (0.0, 0.0, -1.0))


class TestSubspaceBasis:
    def test_recovers_projector(self):
        rng = np.random.default_rng(13)
        for dim in (2, 3):
            M = rng.standard_normal((dim, 5))
            Q, _ = np.linalg.qr(M.T)
            P = Q @ Q.T
            B = subspace_canonical_basis(P, dim)
            assert B.shape == (dim, 5)
            assert np.allclose(B @ B.T, np.eye(dim), atol=1e-10)
            assert np.allclose(B.T @ B, P, atol=1e-9)

    def test_basis_independent_of_input_basis(self):
        # two different spanning sets of one plane give one canonical basis
        rng = np.random.default_rng(17)
        M = rng.standard_normal((2, 4))
        Q1, _ = np.linalg.qr(M.T)
        mixed = M.T @ np.array([[2.0, 1.0], [-1.0, 3.0]])
        Q2, _ = np.linalg.qr(mixed)
        B1 = subspace_canonical_basis(Q1 @ Q1.T, 2)
        B2 = subspace_canonical_basis(Q2 @ Q2.T, 2)
        assert np.allclose(B1, B2, atol=1e-9)

    def test_axis_order_rows_kept_when_their_count_is_the_rank(self):
        def axis_order(P):
            # Gram-Schmidt over the projected axes in order, keeping every
            # residual above 1e-9, with no rank given; returns the rows and
            # the smallest kept residual
            rows, kept = [], [1.0]
            for j in range(P.shape[0]):
                w = P[:, j].copy()
                for _ in range(2):
                    for b in rows:
                        w -= (b @ w) * b
                nw = float(np.linalg.norm(w))
                if nw > 1e-9:
                    w /= nw
                    rows.append(-w if w[int(np.argmax(np.abs(w)))] < 0 else w)
                    kept.append(nw)
            return np.array(rows).reshape(-1, P.shape[0]), min(kept)

        # random subspaces of R^2-R^6, and complements of unit vectors whose
        # entries span up to 11 orders of magnitude, so that residuals fall
        # on both sides of the margin
        rng = np.random.default_rng(89)
        same = pivoted = 0
        for t in range(600):
            d = 2 + t % 5
            if t % 2:
                rank = int(rng.integers(0, d + 1))
                Q = np.linalg.qr(rng.normal(size=(d, d)))[0][:, :rank]
            else:
                v = rng.normal(size=d) * 10.0 ** -rng.integers(0, 12, size=d)
                v /= np.linalg.norm(v)
                Q, rank = np.linalg.qr(np.eye(d) - np.outer(v, v))[0][:, : d - 1], d - 1
            P = Q @ Q.T
            B = subspace_canonical_basis(P, rank)
            assert B.shape == (rank, d), t
            assert np.abs(B @ B.T - np.eye(rank)).max(initial=0.0) <= 1e-15, t
            ref, least = axis_order(P)
            if ref.shape[0] == rank and least > 1e-4:
                assert np.array_equal(B, ref), t
                assert np.abs(B.T @ B - P).max() <= 2e-12, t
                same += 1
            else:
                assert np.abs(B.T @ B - P).max() <= 2e-15, t
                pivoted += 1
        assert same > 450 and pivoted > 60

    def test_complement_basis_of_a_vector_all_but_orthogonal_to_two_axes(self):
        # the row witness of a thin R^4 cone: the axis-order sweep keeps the
        # third axis at a residual of 6.7e-8, so its row lies 3.4e-6 off the
        # complement and the fourth axis is kept as well
        w = np.array([-0.97296, 0.23097, -8.3805e-4, -5.6553e-11])
        w /= np.linalg.norm(w)
        B = complement_basis(w)
        assert B.shape == (3, 4)
        assert np.abs(B @ B.T - np.eye(3)).max() <= 1e-15
        assert np.abs(B @ w).max() <= 1e-15

    def test_complement_basis(self):
        p = UnitPoint((0.0, 0.0, 1.0))
        B = complement_basis(p)
        assert B.shape == (2, 3)
        assert np.allclose(B @ p.vec, 0.0, atol=1e-12)
        assert np.allclose(B @ B.T, np.eye(2), atol=1e-12)

    @pytest.mark.parametrize("scale", [1.0, 1e300])
    def test_complement_basis_at_any_scale(self, scale):
        # normalized through `as_unit_point`, which scales first, so a
        # huge multiple gives the same basis instead of overflowing
        B = complement_basis(scale * np.array([3.0, 4.0, 0.0]))
        assert np.allclose(B, complement_basis([0.6, 0.8, 0.0]), rtol=0.0, atol=1e-15)
        assert np.allclose(B @ [0.6, 0.8, 0.0], 0.0, atol=1e-15)

    def test_complement_basis_refuses_a_tiny_multiple(self):
        # at 1e-300 the vector is shorter than NEAR_ZERO, so it gives no
        # direction, as in `as_unit_point`
        with pytest.raises(NormalizationError, match="cannot define a direction"):
            complement_basis([3e-300, 4e-300, 0.0])


class TestSampleCap:
    def test_samples_stay_in_cap(self):
        center = UnitPoint((0.0, 0.0, 1.0))
        pts = sample_cap(center, 0.7, 42, 200)
        assert len(pts) == 200
        for q in pts:
            assert float(geodesic_distance(center, q)) < 0.7

    def test_deterministic(self):
        center = UnitPoint((1.0, 0.0, 0.0, 0.0))
        a = sample_cap(center, 0.5, 9, 20)
        b = sample_cap(center, 0.5, 9, 20)
        assert all(x == y for x, y in zip(a, b))

    def test_rejects_bad_radius(self):
        with pytest.raises(ValueError):
            sample_cap(UnitPoint((1.0, 0.0)), math.pi / 2, 0, 1)
