"""Unit tests for the polyhedral cone layer.

The dual-conversion tests compare the incremental double-description
implementation against the independent subset-enumeration oracle on the
same inputs; neither is derived from the other.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from wulffkit import cones, oracles
from wulffkit.errors import NormalizationError


def ray_set_match_angle(A, B):
    """Largest geodesic gap of the optimal matching of two ray sets."""
    if A.shape[0] != B.shape[0]:
        return float("inf")
    if A.shape[0] == 0:
        return 0.0
    diff = np.linalg.norm(A[:, None, :] - B[None, :, :], axis=2)
    cost = 2.0 * np.arcsin(np.clip(diff / 2.0, 0.0, 1.0))
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def dual_pair(G):
    """(double-description rays, brute-force rays) as plain generator lists."""
    r1, l1 = cones.dual_cone_rays(G)
    r2, l2 = oracles.dual_cone_rays_bruteforce(G)
    return (
        cones.rays_with_lineality(r1, l1),
        cones.rays_with_lineality(r2, l2),
    )


class TestRowUtilities:
    def test_unitize(self):
        M = np.array([[3.0, 4.0], [0.0, 2.0]])
        U = cones.unitize(M)
        assert np.allclose(np.linalg.norm(U, axis=1), 1.0)

    def test_unitize_rejects_zero_rows(self):
        with pytest.raises(NormalizationError):
            cones.unitize(np.array([[0.0, 0.0]]))
        with pytest.raises(NormalizationError):
            cones.unitize(np.array([[1e-12, 0.0], [0.0, 1.0]]))

    @pytest.mark.filterwarnings("error")
    def test_unitize_huge_rows_without_overflow(self):
        M = np.array([[1.7e308, -1.7e308, 0.0], [3e200, 4e200, 0.0], [0.6, 0.8, 0.0]])
        U = cones.unitize(M)
        assert np.abs(U[0] - [math.sqrt(0.5), -math.sqrt(0.5), 0.0]).max() <= 1e-15
        assert np.abs(U[1] - [0.6, 0.8, 0.0]).max() <= 1e-15
        # rows at unit scale or below, and rows scaled by a power of two,
        # come out as plain division by the norm gives them
        R = np.random.default_rng(7).normal(size=(20, 4))
        plain = R / np.linalg.norm(R, axis=1, keepdims=True)
        assert np.array_equal(cones.unitize(R), plain)
        assert np.array_equal(cones.unitize(2.0**900 * R), plain)
        assert np.array_equal(cones.unitize(2.0**-20 * R), plain)

    @pytest.mark.filterwarnings("error")
    def test_dual_cone_of_huge_rows(self):
        G = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [-1.0, -1.0, 1.0]])
        want, want_lin = cones.dual_cone_rays(G)
        rays, lin = cones.dual_cone_rays(1e200 * G)
        assert rays.shape == want.shape and lin.shape == want_lin.shape
        assert np.abs(rays - want).max() <= 1e-15

    def test_dedupe_rays(self):
        M = np.array([[1.0, 0.0], [1.0, 1e-12], [0.0, 1.0]])
        out = cones.dedupe_rays(cones.unitize(M))
        assert out.shape[0] == 2

    def test_lex_sorted_rows(self):
        M = np.array([[1.0, 0.0], [-1.0, 2.0], [1.0, -1.0]])
        out = cones.lex_sorted_rows(M)
        assert out[0].tolist() == [-1.0, 2.0]
        assert out[1].tolist() == [1.0, -1.0]
        assert out[2].tolist() == [1.0, 0.0]

    def test_span_basis_rank(self):
        M = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        B, rank = cones.span_basis(M)
        assert rank == 2
        assert B.shape == (2, 3)


class TestConeMembershipAndProjection:
    def test_member_inside(self):
        G = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert cones.cone_member(G, np.array([0.5, 0.25]))

    def test_member_outside(self):
        G = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert not cones.cone_member(G, np.array([-0.5, 0.25]))

    def test_projection_is_nearest_point(self):
        # the projection must beat every sampled cone point by distance
        rng = np.random.default_rng(23)
        G = cones.unitize(rng.standard_normal((4, 3)))
        for _ in range(10):
            x = rng.standard_normal(3)
            proj, lam = cones.project_onto_cone(G, x)
            assert (lam >= 0.0).all()
            d_proj = np.linalg.norm(x - proj)
            for _ in range(50):
                lam_rand = rng.uniform(0.0, 2.0, size=4)
                y = G.T @ lam_rand
                assert d_proj <= np.linalg.norm(x - y) + 1e-9

    def test_projection_residual_orthogonal_to_projection(self):
        # at the nearest point, (x - proj) . proj = 0
        rng = np.random.default_rng(29)
        G = cones.unitize(rng.standard_normal((5, 4)))
        for _ in range(10):
            x = rng.standard_normal(4)
            proj, _ = cones.project_onto_cone(G, x)
            assert abs(float((x - proj) @ proj)) < 1e-8


class TestWitnesses:
    def test_pointed_witness_found_for_cap_cone(self):
        rng = np.random.default_rng(31)
        G = cones.unitize(rng.normal(loc=(0.0, 0.0, 1.0), scale=0.3, size=(6, 3)))
        w = cones.pointed_witness(G)
        assert w is not None
        assert float((G @ w).min()) >= cones.FEAS_EPS

    def test_pointed_witness_absent_for_line(self):
        G = np.array([[1.0, 0.0], [-1.0, 0.0]])
        assert cones.pointed_witness(G) is None

    def test_interior_witness_with_no_constraints(self):
        w = cones.interior_witness(np.zeros((0, 3)), 3)
        assert w is not None

    def test_nontrivial_dual_witness_agrees_with_conversion(self):
        # LP feasibility route vs the constructive dual-cone route
        rng = np.random.default_rng(37)
        for trial in range(30):
            d = 2 + trial % 3
            m = int(rng.integers(2, 9))
            G = oracles.uniform_sphere_points(d - 1, m, 100 + trial)
            w = oracles.nontrivial_dual_witness(G)
            rays, lin = cones.dual_cone_rays(G)
            nontrivial = rays.shape[0] > 0 or lin.shape[0] > 0
            assert (w is not None) == nontrivial
            if w is not None:
                assert float((G @ w).min()) >= -cones.FEAS_EPS


class TestDualConversion:
    def test_orthant_self_duality(self):
        G = np.eye(3)
        dd, bf = dual_pair(G)
        assert ray_set_match_angle(dd, np.eye(3)) < 1e-12
        assert ray_set_match_angle(dd, bf) < 1e-12

    def test_halfspace_dual_is_single_ray(self):
        # cone of a closed half-space {x : x2 >= 0} in R^3: generators
        # span the x0/x1 plane both ways plus the x2 axis
        G = np.array(
            [[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
             [0.0, -1.0, 0.0], [0.0, 0.0, 1.0]]
        )
        dd, bf = dual_pair(G)
        assert dd.shape[0] == 1
        assert np.allclose(dd[0], [0.0, 0.0, 1.0], atol=1e-12)
        assert ray_set_match_angle(dd, bf) < 1e-12

    def test_plane_dual_is_orthogonal_line(self):
        # the x0/x1 coordinate plane as a cone: dual = the x2 axis line
        G = np.array(
            [[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, -1.0, 0.0]]
        )
        rays, lin = cones.dual_cone_rays(G)
        assert rays.shape[0] == 0
        assert lin.shape[0] == 1
        assert np.allclose(np.abs(lin[0]), [0.0, 0.0, 1.0], atol=1e-12)

    def test_trivial_dual_for_positively_spanning_set(self):
        # generators positively span R^2, so only q = 0 satisfies all
        ang = 2.0 * math.pi * np.arange(3) / 3.0
        G = np.column_stack([np.cos(ang), np.sin(ang)])
        dd, bf = dual_pair(G)
        assert dd.shape[0] == 0
        assert bf.shape[0] == 0

    def test_every_dual_ray_satisfies_all_constraints(self):
        rng = np.random.default_rng(41)
        for trial in range(40):
            d = 2 + trial % 3
            m = int(rng.integers(d, 10))
            G = oracles.uniform_sphere_points(d - 1, m, 300 + trial)
            rays, lin = cones.dual_cone_rays(G)
            full = cones.rays_with_lineality(rays, lin)
            if full.shape[0]:
                assert float((full @ G.T).min()) >= -1e-9

    def test_double_description_matches_bruteforce_random(self):
        rng = np.random.default_rng(43)
        draws = []
        for trial in range(60):
            d = 2 + trial % 3
            m = int(rng.integers(d, 13))
            if trial % 2:
                G = oracles.uniform_sphere_points(d - 1, m, 500 + trial)
            else:
                # cap-concentrated draws give mostly nontrivial duals
                G = rng.normal(size=(m, d)) * 0.4
                G[:, -1] = np.abs(G[:, -1]) + 0.6
                G = cones.unitize(G)
            draws.append(G)
        # plain normal draws, half of them tilted toward the last axis;
        # the untilted ones include trivial duals
        rng = np.random.default_rng(47)
        for trial in range(40):
            d = 2 + trial % 3
            G = rng.normal(size=(int(rng.integers(d, d + 6)), d))
            if trial % 2:
                G[:, -1] = np.abs(G[:, -1]) + 0.3
            draws.append(G)
        trivial = 0
        for trial, G in enumerate(draws):
            dd, bf = dual_pair(G)
            assert dd.shape[0] == bf.shape[0], f"trial {trial}: ray counts differ"
            assert ray_set_match_angle(dd, bf) <= 1e-9, f"trial {trial}"
            trivial += dd.shape[0] == 0
        assert trivial > 0

    def test_duality_is_involutive_on_pointed_full_cones(self):
        rng = np.random.default_rng(47)
        for trial in range(20):
            d = 3
            G = rng.normal(size=(6, d)) * 0.35
            G[:, -1] = np.abs(G[:, -1]) + 0.65
            G = cones.unitize(G)
            prim = cones.extreme_rays(G)[0]
            rays, lin = cones.dual_cone_rays(G)
            assert lin.shape[0] == 0
            back, lin2 = cones.dual_cone_rays(cones.rays_with_lineality(rays, lin))
            assert lin2.shape[0] == 0
            assert ray_set_match_angle(back, prim) <= 1e-9


@st.composite
def degenerate_generators(draw):
    """A generator set on S^1-S^3 that stresses the start of the double
    description (kind, rows).

    * "pairs": +/- pairs of the axes 1..k with zero first coordinate
      and a few rows of positive first coordinate (half-spaces, lunes,
      hemispheres, and planes when there are none), so the leading
      lex-sorted rows contain a +/- pair;
    * "coplanar" (S^2, S^3): three rows in one plane through e_0 with
      first coordinate below -0.87, lex-sorted ahead of rows with a
      positive one;
    * "repeated": a random set whose lex-first row is repeated within
      RAY_TOL;
    * "thin" (S^2, S^3): points within 1e-6 of an arc of a great circle
      plus the arc midpoint lifted 1e-3 off the circle's plane.
    """
    kind = draw(st.sampled_from(["thin", "coplanar", "repeated", "pairs"]))
    d = draw(st.integers(3 if kind in ("thin", "coplanar") else 2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def forward(count):
        rows = rng.normal(size=(count, d))
        rows[:, 0] = np.abs(rows[:, 0]) + 0.1
        return rows

    if kind == "pairs":
        axes = np.eye(d)[1 : draw(st.integers(1, d - 1)) + 1]
        G = np.vstack([axes, -axes, forward(draw(st.integers(0, 3)))])
    elif kind == "coplanar":
        v = cones.unitize(rng.normal(size=(1, d - 1)))[0]
        t = rng.uniform(0.0, 0.5, size=3)
        plane = np.column_stack([-np.cos(t), np.sin(t)[:, None] * v])
        G = np.vstack([plane, forward(draw(st.integers(0, 4)))])
    elif kind == "repeated":
        G = cones.lex_sorted_rows(cones.unitize(rng.normal(size=(d + 2, d))))
        nudge = cones.unitize(rng.normal(size=(1, d)))[0]
        G = np.vstack([G[0] + rng.uniform(0.0, cones.RAY_TOL) * nudge, G])
    else:
        u, w, n = np.linalg.qr(rng.normal(size=(d, d)))[0].T[:3]
        ang = rng.uniform(0.0, 2.0, size=draw(st.integers(3, 8)))
        arc = np.cos(ang)[:, None] * u + np.sin(ang)[:, None] * w
        noise = cones.unitize(rng.normal(size=arc.shape))
        arc = arc + rng.uniform(-1e-6, 1e-6, size=(len(ang), 1)) * noise
        mid = np.cos(1.0) * u + np.sin(1.0) * w
        G = np.vstack([arc, mid + 1e-3 * n])
    return kind, G


class TestDegenerateStarts:
    """The double description against the brute-force oracle on inputs
    whose leading rows are dependent or nearly so."""

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(degenerate_generators())
    def test_matches_bruteforce(self, case):
        kind, G = case
        dd, bf = dual_pair(G)
        assert dd.shape[0] == bf.shape[0], kind
        assert ray_set_match_angle(dd, bf) <= 1e-9, kind
        # where the rows span the space the engine sees them in input
        # coordinates, leading dependent rows included
        C = cones.lex_sorted_rows(cones.dedupe_rays(cones.unitize(G)))
        if cones.span_basis(C)[1] == C.shape[1]:
            rays = cones.lex_sorted_rows(cones._dd_in_span(C))
            ref = oracles.dual_cone_rays_bruteforce(G)[0]
            assert rays.shape == ref.shape, kind
            assert ray_set_match_angle(rays, ref) <= 1e-9, kind


class TestExtremeRays:
    def test_redundant_ray_dropped(self):
        G = cones.unitize(
            np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        )
        rays, lin = cones.extreme_rays(G)
        assert lin.shape[0] == 0
        assert rays.shape[0] == 2
        assert ray_set_match_angle(rays, np.eye(2)) < 1e-12

    def test_lineality_detected(self):
        G = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        rays, lin = cones.extreme_rays(G)
        assert lin.shape[0] == 1
        assert np.allclose(np.abs(lin[0]), [1.0, 0.0, 0.0], atol=1e-12)
        assert rays.shape[0] == 1
        assert np.allclose(rays[0], [0.0, 0.0, 1.0], atol=1e-12)

    def test_hull_path_matches_membership_path(self):
        # Qhull-backed reduction vs the per-ray nonnegative-fit oracle
        rng = np.random.default_rng(53)
        for trial in range(25):
            d = 2 + trial % 3
            m = int(rng.integers(d + 1, 14))
            G = rng.normal(size=(m, d)) * 0.4
            G[:, -1] = np.abs(G[:, -1]) + 0.6
            G = cones.unitize(G)
            fast, lin = cones.extreme_rays(G)
            assert lin.shape[0] == 0
            slow = oracles.extreme_rays_nnls(G)
            assert ray_set_match_angle(fast, slow) <= 1e-9, f"trial {trial}"

    def test_extreme_rays_generate_the_same_cone(self):
        rng = np.random.default_rng(59)
        G = rng.normal(size=(9, 3)) * 0.4
        G[:, -1] = np.abs(G[:, -1]) + 0.6
        G = cones.unitize(G)
        rays, _ = cones.extreme_rays(G)
        for g in G:
            assert cones.cone_member(rays, g)

    def test_rays_with_lineality_layout(self):
        rays = np.array([[0.0, 0.0, 1.0]])
        lin = np.array([[1.0, 0.0, 0.0]])
        out = cones.rays_with_lineality(rays, lin)
        assert out.shape == (3, 3)
        assert ray_set_match_angle(
            out, np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
        ) < 1e-12


class TestNonnegLstsq:
    """The in-package active-set solver that replaced scipy.optimize.nnls.

    scipy 1.15's nnls returns KKT-violating answers with a wrong reported
    residual on wide systems (the shape of every cone fit here), so the
    solver it replaced is held to explicit optimality certificates.
    """

    def test_kkt_certificate_on_wide_systems(self):
        # gradient of 0.5|Ax-b|^2 must be <= 0 everywhere and ~0 on the
        # support; residual must match a recomputation from x.
        rng = np.random.default_rng(99)
        for t in range(400):
            d = 2 + t % 4
            m = int(rng.integers(d + 1, 20))
            A = rng.normal(size=(d, m))
            b = rng.normal(size=d)
            x, rnorm = cones.nonneg_lstsq(A, b)
            assert (x >= 0.0).all()
            assert rnorm == pytest.approx(np.linalg.norm(A @ x - b), abs=0.0)
            grad = A.T @ (b - A @ x)
            scale = max(1.0, float(np.abs(A).max()) * float(np.linalg.norm(b)))
            assert grad.max() <= 1e-10 * scale
            support = x > 1e-10
            if support.any():
                assert np.abs(grad[support]).max() <= 1e-10 * scale

    def test_membership_agrees_with_lp(self):
        # decisive fits (clearly zero / clearly positive residual) must
        # classify membership exactly like an LP feasibility solve.
        from scipy.optimize import linprog

        rng = np.random.default_rng(205)
        for t in range(60):
            d = 2 + t % 3
            m = int(rng.integers(d + 1, 12))
            M = rng.normal(size=(m, d))
            M = cones.unitize(M)
            x = M[0] if t % 2 else rng.normal(size=d)
            A = np.delete(M, 0, axis=0).T
            _, rnorm = cones.nonneg_lstsq(A, x)
            if 1e-9 < rnorm < 1e-6:
                continue
            res = linprog(
                np.zeros(A.shape[1]),
                A_eq=A,
                b_eq=x,
                bounds=[(0, None)] * A.shape[1],
                method="highs",
            )
            assert res.success == (rnorm <= 1e-9), f"trial {t}: {rnorm}"

    def test_regression_wide_draw_reports_true_residual(self):
        # the draw on which scipy's nnls claimed residual 0.0 while the
        # true least-squares residual is ~0.138 (LP-confirmed nonmember).
        rng = np.random.default_rng(53)
        for trial in range(5):
            d = 2 + trial % 3
            m = int(rng.integers(d + 1, 14))
            G = rng.normal(size=(m, d)) * 0.4
            G[:, -1] = np.abs(G[:, -1]) + 0.6
            G = cones.unitize(G)
        G = cones.dedupe_rays(cones.unitize(G))
        others = np.delete(G, 3, axis=0)
        _, rnorm = cones.nonneg_lstsq(others.T, G[3])
        assert rnorm == pytest.approx(0.13765052388734908, abs=1e-12)

    def test_exact_fit_recovers_combination(self):
        A = np.array([[1.0, 0.0, 0.5], [0.0, 1.0, 0.5]])
        b = A @ np.array([0.25, 0.75, 1.0])
        x, rnorm = cones.nonneg_lstsq(A, b)
        assert rnorm <= 1e-14
        assert np.allclose(A @ x, b, atol=1e-14)

    def test_all_infeasible_directions_give_zero(self):
        A = np.array([[1.0, 0.7], [0.0, 0.3]])
        b = np.array([-1.0, -0.2])
        x, rnorm = cones.nonneg_lstsq(A, b)
        assert np.allclose(x, 0.0)
        assert rnorm == pytest.approx(np.linalg.norm(b), rel=1e-15)

    def test_no_columns_gives_empty_fit(self):
        # an empty generator set: the fit is empty and leaves all of b;
        # membership and projection follow from it without guards
        b = np.array([1.0, 2.0, 2.0])
        x, rnorm = cones.nonneg_lstsq(np.zeros((3, 0)), b)
        assert x.shape == (0,)
        assert rnorm == 3.0
        G = np.zeros((0, 3))
        assert cones.cone_member(G, np.zeros(3))
        assert not cones.cone_member(G, b)
        proj, lam = cones.project_onto_cone(G, b)
        assert proj.shape == (3,) and not proj.any()
        assert lam.shape == (0,)


class TestLeastDistance:
    """The Lawson-Hanson least-distance program min |z| s.t. G z >= h."""

    @staticmethod
    def _systems():
        rng = np.random.default_rng(419)
        for t in range(320):
            d = 2 + t % 4
            m = int(rng.integers(1, 3 * d + 1))
            yield rng.normal(size=(m, d)), rng.normal(size=m)

    def test_feasibility_agrees_with_lp(self):
        from scipy.optimize import linprog

        feasible = 0
        for G, h in self._systems():
            z = cones.least_distance(G, h)
            res = linprog(
                np.zeros(G.shape[1]),
                A_ub=-G,
                b_ub=-h,
                bounds=[(None, None)] * G.shape[1],
                method="highs",
            )
            assert res.status in (0, 2)
            assert (z is not None) == (res.status == 0)
            feasible += z is not None
        # both outcomes occur often enough to matter
        assert 50 <= feasible <= 300

    def test_feasible_answers_satisfy_the_system_and_kkt(self):
        # z is optimal iff it is feasible and a non-negative combination
        # of the rows tight at z (then u . (G z - h) = 0 for that u)
        for G, h in self._systems():
            z = cones.least_distance(G, h)
            if z is None:
                continue
            scale = max(1.0, float(np.linalg.norm(z)))
            slack = G @ z - h
            assert slack.min() >= -1e-12 * scale
            tight = np.abs(slack) <= 1e-9 * scale
            if not tight.any():
                assert not z.any()
                continue
            u, res = cones.nonneg_lstsq(G[tight].T, z)
            assert (u >= 0.0).all()
            assert res <= 1e-9 * scale
            assert abs(float(u @ slack[tight])) <= 1e-9 * scale * max(1.0, float(u.sum()))

    def test_zero_right_hand_side_gives_origin(self):
        G = np.random.default_rng(3).normal(size=(5, 3))
        z = cones.least_distance(G, np.zeros(5))
        assert z is not None and not z.any()

    def test_no_rows_gives_origin(self):
        z = cones.least_distance(np.zeros((0, 4)), np.zeros(0))
        assert z.shape == (4,) and not z.any()

    def test_infeasible_systems_give_none(self):
        # z >= 1 and -z >= 1 on a line; three half-planes with no common point
        assert cones.least_distance(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.ones(2)) is None
        G = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
        assert cones.least_distance(G, np.array([1.0, 1.0, -1.0])) is None
