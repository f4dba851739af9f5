"""Polar transform: frozen examples, involution, duality, antitonicity."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wulffkit import body, harness, metric, oracles, transforms
from wulffkit.errors import (
    NonHemisphericalError,
    NormalizationError,
    NotAWulffShapeError,
    PolarEmptyError,
)

POLE = np.array([0.0, 0.0, 1.0])


def cap_polytope(colat, azimuths_deg):
    rows = []
    for a in azimuths_deg:
        t = math.radians(a)
        rows.append(
            [
                math.sin(colat) * math.cos(t),
                math.sin(colat) * math.sin(t),
                math.cos(colat),
            ]
        )
    return body.from_generators(np.array(rows))


def ray_match(actual_rows, expected_rows):
    """Hungarian-matched worst geodesic gap between two ray lists."""
    from scipy.optimize import linear_sum_assignment

    A = np.asarray(actual_rows, dtype=float)
    B = np.asarray(expected_rows, dtype=float)
    assert A.shape == B.shape
    diff = np.linalg.norm(A[:, None, :] - B[None, :, :], axis=2)
    cost = 2.0 * np.arcsin(np.clip(diff / 2.0, 0.0, 1.0))
    r, c = linear_sum_assignment(cost)
    return float(cost[r, c].max())


class TestSquareExample:
    """Dual of the regular square at colatitude pi/6, phase 45 deg.

    Closed form (frozen from an independent derivation): the dual is the
    square at azimuths 0/90/180/270 whose inradius r satisfies
    tan(r) = tan(pi/6) * cos(pi/4), i.e. vertex colatitude
    pi/2 - arctan(tan(pi/6) / sqrt(2)) = 1.183199640139716.
    """

    COLAT = 1.183199640139716

    def setup_method(self):
        self.square = cap_polytope(math.pi / 6, [45, 135, 225, 315])
        self.dual = transforms.polar(self.square)

    def test_frozen_colatitude(self):
        assert self.COLAT == pytest.approx(
            math.pi / 2 - math.atan(math.tan(math.pi / 6) * math.cos(math.pi / 4)),
            abs=1e-15,
        )
        colat = np.arccos(self.dual.generator_array[:, 2])
        assert np.abs(colat - self.COLAT).max() <= 1e-12

    def test_rotated_45_degrees(self):
        az = np.degrees(
            np.arctan2(
                self.dual.generator_array[:, 1], self.dual.generator_array[:, 0]
            )
        ) % 360.0
        assert sorted(np.round(az, 9) % 360) == [0.0, 90.0, 180.0, 270.0]

    def test_support_normals_are_original_vertices(self):
        assert (
            ray_match(self.dual.normal_array, self.square.generator_array) <= 1e-12
        )

    def test_double_polar_recovers_square(self):
        back = transforms.double_polar(self.square)
        assert body.body_match_angle(back, self.square) <= 1e-12


class TestPolarBasics:
    def test_polar_of_hemisphere_is_its_center(self):
        h = body.hemisphere_body(POLE)
        p = transforms.polar(h)
        assert p.generator_array.shape == (1, 3)
        assert np.allclose(p.generator_array[0], POLE, atol=1e-12)

    def test_polar_of_point_is_hemisphere(self):
        pt = body.from_generators([POLE])
        p = transforms.polar(pt)
        assert body.body_match_angle(p, body.hemisphere_body(POLE)) <= 1e-12

    def test_polar_roles_swap(self):
        cap = cap_polytope(0.7, [10, 130, 250])
        p = transforms.polar(cap)
        assert ray_match(p.normal_array, cap.generator_array) <= 1e-12
        # and the polar's generators support the original
        slack = cap.generator_array @ p.generator_array.T
        assert float(slack.min()) >= -1e-9

    def test_polar_empty_raises(self):
        full = body.from_generators(np.vstack([np.eye(3), -np.eye(3)]))
        assert not transforms.polar_admissible(full)
        with pytest.raises(PolarEmptyError):
            transforms.polar(full)

    def test_admissible_iff_witness(self):
        rng = np.random.default_rng(17)
        for t in range(30):
            pts = rng.normal(size=(rng.integers(2, 8), 3))
            if t % 3 == 0:
                pts[:, 2] = np.abs(pts[:, 2]) + 0.2
            try:
                b = body.from_generators(pts)
            except ValueError:
                continue
            w = oracles.nontrivial_dual_witness(b.generator_array)
            assert transforms.polar_admissible(b) == (w is not None)
            if w is not None:
                assert (b.generator_array @ w).min() >= -1e-12

    def test_double_polar_random_bodies(self):
        rng = np.random.default_rng(41)
        for dim in (2, 3):
            for _ in range(15):
                pts = rng.normal(size=(rng.integers(dim + 1, dim + 6), dim + 1))
                pts[:, -1] = np.abs(pts[:, -1]) + 0.4
                b = body.from_generators(pts)
                back = transforms.double_polar(b)
                assert body.body_match_angle(back, b) <= 1e-10


class TestDualWulff:
    def test_wulff_to_wulff(self):
        cap = cap_polytope(0.5, [0, 72, 144, 216, 288])
        dual = transforms.dual_wulff(cap, POLE)
        assert body.is_wulff_relative(dual, POLE)
        back = transforms.dual_wulff(dual, POLE)
        assert body.body_match_angle(back, cap) <= 1e-10

    def test_rejects_non_wulff(self):
        arc = body.from_generators([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        with pytest.raises(NotAWulffShapeError):
            transforms.dual_wulff(arc, np.array([1.0, 1.0, 0.0]) / math.sqrt(2))

    def test_rejects_wrong_relative_point(self):
        cap = cap_polytope(0.5, [0, 120, 240])
        with pytest.raises(NotAWulffShapeError):
            transforms.dual_wulff(cap, [1.0, 0.0, 0.0])

    def test_relative_point_is_normalized(self):
        w = harness.gen_wulff(harness.pole_axis(2), 6, 0.5, 1)
        unit = transforms.dual_wulff(w, POLE)
        small = transforms.dual_wulff(w, [0.0, 0.0, 1e-9])
        assert np.array_equal(small.generator_array, unit.generator_array)
        # below the package's normalization floor the point has no direction
        with pytest.raises(NormalizationError):
            transforms.dual_wulff(w, [0.0, 0.0, 1e-12])


class TestSphericalHull:
    def test_hull_is_canonical_body(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(10, 3))
        pts[:, 2] = np.abs(pts[:, 2]) + 0.3
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        hull = transforms.spherical_hull(pts)
        for p in pts:
            assert body.contains(hull, p)

    def test_non_hemispherical_rejected(self):
        with pytest.raises(NonHemisphericalError):
            transforms.spherical_hull([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            transforms.spherical_hull([])

    @pytest.mark.filterwarnings("error")
    def test_huge_points_give_the_unit_scale_hull(self):
        unit = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [-1.0, -1.0, 1.0]])
        want = transforms.spherical_hull(unit)
        assert want.generator_array.shape == (3, 3)
        # a power-of-two scale is undone exactly, a decimal one to rounding
        exact = transforms.spherical_hull(2.0**600 * unit)
        assert np.array_equal(exact.generator_array, want.generator_array)
        assert np.array_equal(exact.normal_array, want.normal_array)
        huge = transforms.spherical_hull(1e200 * unit)
        assert np.abs(huge.generator_array - want.generator_array).max() <= 1e-15
        assert np.abs(huge.normal_array - want.normal_array).max() <= 1e-15


class TestAntitone:
    def test_nested_caps(self):
        inner = cap_polytope(0.3, [0, 90, 180, 270])
        outer = cap_polytope(0.8, [0, 90, 180, 270])
        assert transforms.polar_antitone_check(inner, outer)

    def test_precondition_enforced(self):
        a = cap_polytope(0.8, [0, 90, 180, 270])
        b2 = cap_polytope(0.3, [0, 90, 180, 270])
        with pytest.raises(ValueError, match="subset"):
            transforms.polar_antitone_check(a, b2)

    def test_random_nested_pairs(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            pts = rng.normal(size=(8, 3))
            pts[:, 2] = np.abs(pts[:, 2]) + 0.4
            big = body.from_generators(pts)
            sub = body.from_generators(pts[rng.permutation(8)[:4]])
            assert transforms.polar_antitone_check(sub, big)


def _isometry_wulff(seed):
    # the shape draw of the isometry suite on S^2
    rng = np.random.default_rng(seed)
    return harness.gen_wulff(
        harness.pole_axis(2), int(rng.integers(4, 10)), rng.uniform(0.1, 1.2), seed
    )


class TestPolarIsometryProperty:
    """The paper's claim: the polar transform preserves the Hausdorff
    distance between spherical Wulff shapes, on the exact route."""

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
    def test_hausdorff_preserved_on_wulff_pairs(self, seed_a, seed_b):
        a = _isometry_wulff(seed_a)
        b2 = _isometry_wulff(seed_b)
        h, err, path = metric.hausdorff_with_bound(a, b2)
        hd, err_d, path_d = metric.hausdorff_with_bound(transforms.polar(a), transforms.polar(b2))
        assert (path, path_d) == ("exact", "exact")
        assert err == err_d == 0.0
        assert abs(float(hd) - float(h)) <= 1e-8



@st.composite
def seeded_body(draw):
    """A body from `gen_wulff` or `gen_convex_body` on S^1-S^3."""
    dim = draw(st.sampled_from([1, 2, 3]))
    kind = draw(st.sampled_from(["wulff", "hull", "arc", "point", "wide_cap"]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    pole = harness.pole_axis(dim)
    if kind == "wulff":
        return harness.gen_wulff(
            pole, dim + 2 + int(rng.integers(0, 5)), rng.uniform(0.1, 1.3), seed
        )
    return harness.gen_convex_body(pole, kind, rng)


@st.composite
def body_and_sub_body(draw):
    """A seeded body and the hull of a drawn nonempty subset of its generators."""
    b = draw(seeded_body())
    G = b.generator_array
    subset = draw(st.sets(st.integers(0, G.shape[0] - 1), min_size=1))
    return b, body.from_generators(G[sorted(subset)])


class TestDualityProperties:
    """Double duality and antitonicity of the polar on drawn bodies."""

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(seeded_body())
    def test_double_polar_recovers_body(self, b):
        assert body.bodies_equal(transforms.double_polar(b), b, 1e-10)

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(body_and_sub_body())
    def test_polar_reverses_inclusion(self, case):
        b, sub = case
        assert transforms.polar_antitone_check(sub, b) is True
