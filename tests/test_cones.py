"""Unit tests for the polyhedral cone layer.

The conversion tests judge the double description (`dual_cone_rays`)
and the extreme-ray reduction (`extreme_rays`) against the exact
references `oracles.dual_cone_rays_exact` and `oracles.extreme_rays_exact`,
which enumerate the same cones in rational arithmetic over the exact
values of the same float rows.  The references decide every sign and
every rank exactly, so a disagreement is the float code's; the float
results are held to 1e-9, and the thin inputs of `TestDegenerateStarts`
to a bound argued from their conditioning.  Rows dependent only up to
rounding are independent in exact arithmetic, so `TestDegenerateStarts`
judges its coplanar rows against the exact dual of a twin that is
coplanar exactly in floats.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment
from scipy.spatial import ConvexHull, QhullError

from wulffkit import body, cones, harness, oracles, transforms
from wulffkit.errors import NormalizationError
from wulffkit.geometry import (
    NEAR_ZERO,
    complement_basis,
    subspace_canonical_basis,
    uniform_sphere_points,
)


def matched_gaps(A, B):
    """Geodesic gap of each row of B to its partner in the optimal
    matching of two equally long ray sets, in B's row order."""
    diff = np.linalg.norm(A[:, None, :] - B[None, :, :], axis=2)
    cost = 2.0 * np.arcsin(np.clip(diff / 2.0, 0.0, 1.0))
    rows, cols = linear_sum_assignment(cost)
    return cost[rows, cols][np.argsort(cols)]


def ray_set_match_angle(A, B):
    """Largest geodesic gap of the optimal matching of two ray sets."""
    if A.shape[0] != B.shape[0]:
        return float("inf")
    if A.shape[0] == 0:
        return 0.0
    return float(matched_gaps(A, B).max())


def dual_pair(G):
    """(double-description rays, exact rays) as plain generator lists."""
    r1, l1 = cones.dual_cone_rays(G)
    r2, l2 = oracles.dual_cone_rays_exact(G)
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

    def test_dedupe_rays_matches_the_greedy_loop(self):
        def greedy(M):
            keep = []
            for i in range(M.shape[0]):
                if keep and np.linalg.norm(M[keep] - M[i], axis=1).min() <= cones.RAY_TOL:
                    continue
                keep.append(i)
            return M[keep]

        # a chain a ~ b ~ c with a, c apart: b goes, c stays
        a = np.array([1.0, 0.0, 0.0])
        b = cones.unitize(a + [0.0, 0.7e-9, 0.0])[0]
        c = cones.unitize(a + [0.0, 1.4e-9, 0.0])[0]
        chain = np.array([a, b, c, [0.0, 1.0, 0.0]])
        assert np.array_equal(cones.dedupe_rays(chain), chain[[0, 2, 3]])
        assert np.array_equal(greedy(chain), chain[[0, 2, 3]])
        # clusters of rows at chordal gaps on both sides of RAY_TOL, and
        # one set large enough to span several blocks of pairs
        rng = np.random.default_rng(67)
        for trial in range(40):
            d = 2 + trial % 3
            base = cones.unitize(rng.normal(size=(int(rng.integers(1, 7)), d)))
            reps = base[rng.integers(0, base.shape[0], size=int(rng.integers(1, 12)))]
            gaps = rng.choice([2e-10, 6e-10, 1e-9, 1.5e-9, 3e-9], size=(reps.shape[0], 1))
            M = np.vstack([base, reps + gaps * cones.unitize(rng.normal(size=reps.shape))])
            M = M[rng.permutation(M.shape[0])]
            assert np.array_equal(cones.dedupe_rays(M), greedy(M)), trial
        M = cones.unitize(rng.normal(size=(300, 3)))
        M = np.vstack([M, M[:150] + 5e-10 * cones.unitize(rng.normal(size=(150, 3)))])
        assert np.array_equal(cones.dedupe_rays(M), greedy(M))
        assert cones.dedupe_rays(M).shape[0] == 300

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


def in_cone(G, x):
    """Whether x lies in cone(rows of G): its projection onto the cone
    is x itself, up to RAY_TOL."""
    proj, _ = cones.project_onto_cone(G, x)
    return float(np.linalg.norm(proj - x)) <= cones.RAY_TOL


class TestConeMembershipAndProjection:
    def test_member_inside(self):
        G = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert in_cone(G, np.array([0.5, 0.25]))

    def test_member_outside(self):
        G = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert not in_cone(G, np.array([-0.5, 0.25]))

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


def _counted_linprog(monkeypatch):
    """Count the calls of `cones`' linear program; returns the counter."""
    calls = []
    linprog = cones.linprog

    def counted(*args, **kwargs):
        calls.append(1)
        return linprog(*args, **kwargs)

    monkeypatch.setattr(cones, "linprog", counted)
    return calls


class TestWitnesses:
    def test_pointed_witness_found_for_cap_cone(self):
        rng = np.random.default_rng(31)
        G = cones.unitize(rng.normal(loc=(0.0, 0.0, 1.0), scale=0.3, size=(6, 3)))
        w = cones.pointed_witness(G)
        assert w is not None
        assert float((G @ w).min()) >= cones.FEAS_EPS

    def test_pointed_witness_takes_the_row_of_largest_margin(self, monkeypatch):
        calls = _counted_linprog(monkeypatch)
        rng = np.random.default_rng(71)
        for trial in range(30):
            d = 2 + trial % 3
            G = rng.normal(size=(int(rng.integers(2, 9)), d)) * 0.5
            G[:, -1] = np.abs(G[:, -1]) + 1.0
            G *= rng.uniform(0.5, 3.0, size=(G.shape[0], 1))
            w = cones.pointed_witness(G)
            Q = G / np.linalg.norm(G, axis=1, keepdims=True)
            margins = (G @ Q.T).min(axis=0)
            assert np.array_equal(w, Q[int(np.argmax(margins))]), trial
            assert float((G @ w).min()) >= cones.FEAS_EPS
        assert not calls

    def test_pointed_witness_absent_for_line(self, monkeypatch):
        # no row qualifies, so the linear program decides, and finds none
        calls = _counted_linprog(monkeypatch)
        assert cones.pointed_witness(np.array([[1.0, 0.0], [-1.0, 0.0]])) is None
        assert cones.pointed_witness(np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0],
                                               [1.0, 0.0, 0.0]])) is None
        assert len(calls) == 2

    def test_linear_program_runs_only_when_no_row_qualifies(self, monkeypatch):
        # the rows `gen_wulff` adds 0.02 rad from its pole lie within
        # 0.02 + rho < pi/2 of every row, so a row is always the witness;
        # each boundary row of a cap of radius 1.3 lies 2.6 rad from the
        # opposite one, so no row is one and the linear program runs (as
        # on the wide caps of the benchmark's mixed workload)
        calls = _counted_linprog(monkeypatch)
        for t in range(50):
            dim = 1 + t % 3
            rng = np.random.default_rng([dim, t, 73])
            harness.gen_wulff(
                harness.pole_axis(dim), int(rng.integers(dim + 2, dim + 7)),
                rng.uniform(0.1, 1.2), int(rng.integers(2**31)),
            )
        assert not calls
        witnesses = []
        pointed_witness = cones.pointed_witness

        def recorded(G):
            witnesses.append((G, pointed_witness(G)))
            return witnesses[-1][1]

        monkeypatch.setattr(cones, "pointed_witness", recorded)
        harness.cap_polytope(harness.pole_axis(2), 1.3, 8)
        assert calls and witnesses
        for G, w in witnesses:
            assert w is not None and float((G @ w).min()) >= cones.FEAS_EPS

    def test_nontrivial_dual_witness_agrees_with_conversion(self):
        # the exact dual is nontrivial iff it has a ray or a lineality
        # vector, and any of them is a witness; the conversion must agree
        rng = np.random.default_rng(37)
        for trial in range(30):
            d = 2 + trial % 3
            m = int(rng.integers(2, 9))
            G = uniform_sphere_points(d - 1, m, 100 + trial)
            witnesses = cones.rays_with_lineality(*oracles.dual_cone_rays_exact(G))
            rays, lin = cones.dual_cone_rays(G)
            nontrivial = rays.shape[0] > 0 or lin.shape[0] > 0
            assert (witnesses.shape[0] > 0) == nontrivial
            if nontrivial:
                assert float((G @ witnesses[0]).min()) >= -cones.FEAS_EPS


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

    def test_dual_of_a_256_gon_cap(self):
        # each dual ray of a k-gon cone is the normal of one edge: tight on
        # that edge's two cyclically consecutive vertices and on no other
        k = 256
        ang = 2.0 * math.pi * np.arange(k) / k
        G = np.column_stack(
            [math.sin(1.0) * np.cos(ang), math.sin(1.0) * np.sin(ang), np.full(k, math.cos(1.0))]
        )
        rays, lin = cones.dual_cone_rays(G)
        assert rays.shape == (k, 3)
        assert lin.shape[0] == 0
        tight = np.abs(rays @ G.T) <= 1e-9
        edges = {frozenset((i, (i + 1) % k)) for i in range(k)}
        assert {frozenset(np.flatnonzero(row)) for row in tight} == edges

    def test_shared_zero_rows_do_not_decide_adjacency(self):
        # cones over lattice points of R^5 whose double description meets
        # positive/negative pairs that share s - 2 zero rows without being
        # adjacent; only the zero-set containment test rejects those pairs
        for seed in (29, 69, 115, 258, 259):
            rng = np.random.default_rng(seed)
            G = rng.integers(-2, 3, size=(int(rng.integers(9, 14)), 5)).astype(float)
            G[:, -1] = np.abs(G[:, -1]) + 1.0
            dd, bf = dual_pair(G)
            assert dd.shape[0] == bf.shape[0], seed
            assert ray_set_match_angle(dd, bf) <= 1e-9, seed

    def test_every_dual_ray_satisfies_all_constraints(self):
        rng = np.random.default_rng(41)
        for trial in range(40):
            d = 2 + trial % 3
            m = int(rng.integers(d, 10))
            G = uniform_sphere_points(d - 1, m, 300 + trial)
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
                G = uniform_sphere_points(d - 1, m, 500 + trial)
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
    description, as (kind, cases).  Each case is (G, T, H): rows G for
    the double description, and rows T whose exact dual, carried by the
    orthogonal map H, is the reference; G is T H^T up to rounding.

    * "pairs": +/- pairs of the axes 1..k with zero first coordinate
      and a few rows of positive first coordinate (half-spaces, lunes,
      hemispheres, and planes when there are none), so the leading
      lex-sorted rows contain a +/- pair;
    * "coplanar" (S^2, S^3): three rows in one plane through e_0 with
      first coordinate below -0.87, lex-sorted ahead of rows with a
      positive one.  The plane's other direction v is a random unit
      vector, so the rows are coplanar only up to rounding: in exact
      arithmetic they span one dimension more, and the exact dual of
      these float rows is ill-posed (the rounding sets its rays).  So
      the reference is the exact dual of their twin T = G H, H the
      reflection that fixes e_0 and swaps v with a sign vector over
      sqrt(d - 1).  T's plane rows are built on that sign vector, so
      the entries of a row off e_0 all round alike and the rows are
      coplanar exactly in floats, before and after `unitize`; the twin
      is also a case of its own, judged against its own exact dual;
    * "repeated": a random set whose lex-first row is repeated within
      RAY_TOL;
    * "thin" (S^2, S^3): points within 1e-6 of an arc of a great circle
      plus the arc midpoint lifted 1e-3 off the circle's plane, and the
      same arc with the points' offsets scaled to within 1e-7.
    """
    kind = draw(st.sampled_from(["thin", "coplanar", "repeated", "pairs"]))
    d = draw(st.integers(3 if kind in ("thin", "coplanar") else 2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    eye = np.eye(d)

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
        fwd = forward(draw(st.integers(0, 4)))
        sign = np.where(v >= 0.0, 1.0, -1.0) / math.sqrt(d - 1)
        u = np.concatenate([[0.0], v - sign])
        H = eye - 2.0 * np.outer(u, u) / (u @ u)
        G, T = (
            np.vstack([np.column_stack([-np.cos(t), np.sin(t)[:, None] * w]), rows])
            for w, rows in ((v, fwd), (sign, fwd @ H))
        )
        return kind, [(T, T, eye), (G, T, H)]
    elif kind == "repeated":
        G = cones.lex_sorted_rows(cones.unitize(rng.normal(size=(d + 2, d))))
        nudge = cones.unitize(rng.normal(size=(1, d)))[0]
        G = np.vstack([G[0] + rng.uniform(0.0, cones.RAY_TOL) * nudge, G])
    else:
        u, w, n = np.linalg.qr(rng.normal(size=(d, d)))[0].T[:3]
        ang = rng.uniform(0.0, 2.0, size=draw(st.integers(3, 8)))
        arc = np.cos(ang)[:, None] * u + np.sin(ang)[:, None] * w
        noise = cones.unitize(rng.normal(size=arc.shape))
        jitter = rng.uniform(-1e-6, 1e-6, size=(len(ang), 1)) * noise
        mid = np.cos(1.0) * u + np.sin(1.0) * w + 1e-3 * n
        thin = (np.vstack([arc + offset, mid]) for offset in (jitter, jitter / 10))
        return kind, [(G, G, eye) for G in thin]
    return kind, [(G, G, eye)]


def carried_dual(T, H):
    """The exact dual of the rows T carried by the orthogonal map H,
    in the layout of `cones.dual_cone_rays`."""
    rays, lin = oracles.dual_cone_rays_exact(T)
    lin = lin @ H.T
    return cones.lex_sorted_rows(rays @ H.T), subspace_canonical_basis(lin.T @ lin, lin.shape[0])


def rounding_bounds(G, rays):
    """Per-ray bound 1e-9 + 16 * 2^-52 / sigma on how far a float ray may
    sit from the exact dual ray of G it stands for, for rows G that span
    R^d (so the dual has rays only).

    sigma is the (d - 1)-th singular value of the rows of G (prepared as
    the conversion prepares them) that the exact ray is tight on.  The
    argument, to first order: a float ray r' is the exact ray r plus the
    rounding of solving T r = 0 for those rows T, so its residual |T r'|
    is a few rounding errors of unit rows, below 16 * 2^-52; and a unit
    vector whose residual on T is rho lies within rho / sigma of the line
    of r, because T has rank d - 1 with that line as its kernel, so it
    shrinks no vector orthogonal to the line by more than sigma.  A row
    counted as tight here by mistake (its slack on the rounded ray is
    below 1e-12) only raises sigma, so it only tightens the bound.
    """
    C = cones.dedupe_rays(cones.unitize(G))
    d = C.shape[1]
    sigma = [np.linalg.svd(C[np.abs(C @ r) <= 1e-12], compute_uv=False)[d - 2] for r in rays]
    return 1e-9 + 16 * 2.0**-52 / np.array(sigma)


class TestDegenerateStarts:
    """The double description against the exact reference on inputs
    whose leading rows are dependent or nearly so.

    The thin inputs are held to `rounding_bounds`, ray by ray: near such
    an arc the rays are tight on rows that are nearly dependent, so a
    rounding error the size of 2^-52 moves them by far more than 1e-9
    (on 50 seeded draws at thickness 1e-7 the double description sat up
    to 2.2e-8 from the exact rays, within the bound).  At thickness 1e-8
    it errs beyond any bound argued from rounding, so that thickness is
    not tested.
    """

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(degenerate_generators())
    def test_matches_bruteforce(self, case):
        kind, cases = case
        for G, T, H in cases:
            dd = cones.rays_with_lineality(*cones.dual_cone_rays(G))
            rays, lin = carried_dual(T, H)
            ref = cones.rays_with_lineality(rays, lin)
            assert dd.shape == ref.shape, kind
            # thin rows span the space, so their dual has rays only
            bound = rounding_bounds(T, rays) if kind == "thin" else 1e-9
            assert (matched_gaps(dd, ref) <= bound).all(), kind
            # where the rows span the space the engine sees them in input
            # coordinates, leading dependent rows included; the dual then
            # has no lineality, and `ref` holds its rays
            C = cones.lex_sorted_rows(cones.dedupe_rays(cones.unitize(G)))
            if cones.span_basis(C)[1] == C.shape[1]:
                in_span = cones.lex_sorted_rows(cones._dd_in_span(C))
                assert in_span.shape == ref.shape, kind
                assert (matched_gaps(in_span, ref) <= bound).all(), kind


def _lp_pointed_witness(G):
    """`cones.pointed_witness` as it ran before the rows were tried: the
    linear program alone, projected onto the rows' span and re-verified."""
    G = np.asarray(G, dtype=float)
    m, d = G.shape
    if m == 0:
        return None
    c = np.zeros(d + 1)
    c[-1] = -1.0
    A = np.hstack([-G, np.ones((m, 1))])
    bounds = [(-1.0, 1.0)] * d + [(None, 2.0)]
    res = cones.linprog(c, A_ub=A, b_ub=np.zeros(m), bounds=bounds, method="highs")
    if not res.success:
        return None
    B, _ = cones.span_basis(G)
    q = B.T @ (B @ res.x[:d])
    nq = float(np.linalg.norm(q))
    if nq < NEAR_ZERO:
        return None
    q = q / nq
    return q if float((G @ q).min()) >= cones.FEAS_EPS else None


def _thin_rows(rng, d, thickness):
    """Points within `thickness` of an arc of a great circle of S^(d-1),
    plus the arc midpoint lifted 1e-3 off the circle's plane (the thin
    kind of `degenerate_generators`)."""
    u, w, n = np.linalg.qr(rng.normal(size=(d, d)))[0].T[:3]
    ang = rng.uniform(0.0, 2.0, size=int(rng.integers(3, 9)))
    arc = np.cos(ang)[:, None] * u + np.sin(ang)[:, None] * w
    noise = cones.unitize(rng.normal(size=arc.shape))
    jitter = rng.uniform(-thickness, thickness, size=(len(ang), 1)) * noise
    mid = np.cos(1.0) * u + np.sin(1.0) * w + 1e-3 * n
    return np.vstack([arc + jitter, mid])


def _cap_rows(n, radius, count):
    """The rows `harness.cap_polytope` hulls: `count` points on the
    boundary circle of the cap of the given radius about the pole of S^n."""
    pole = harness.pole_axis(n)
    B = complement_basis(pole)
    ang = 2.0 * math.pi * np.arange(count) / count
    dirs = np.cos(ang)[:, None] * B[0] + np.sin(ang)[:, None] * B[1]
    return math.cos(radius) * pole.vec[None, :] + math.sin(radius) * dirs


@st.composite
def rank3_rows(draw):
    """(family, rows) of a pointed rank-3 cone in R^3 whose rows hold a
    witness: a random cloud about the pole, a thin draw (`_thin_rows`), a
    cap c * 10^-k short of a hemisphere, three to nine rows of one great
    circle with an apex off it, or a `harness.cap_polytope` of 3 to 16
    points."""
    family = draw(st.sampled_from(["cloud", "thin", "cap", "collinear", "cap_polytope"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if family == "cloud":
        m = int(rng.integers(4, 17))
        return family, cones.unitize(rng.normal(size=(m, 3)) * rng.uniform(0.1, 0.7) + np.eye(3)[2])
    if family == "thin":
        return family, _thin_rows(rng, 3, 10.0 ** -rng.integers(6, 11))
    if family == "cap":
        radius = math.pi / 2 - rng.uniform(1.0, 9.9) * 10.0 ** -rng.integers(1, 9)
        return family, _cap_rows(2, radius, int(rng.integers(4, 10)))
    if family == "collinear":
        u, v, n = np.linalg.qr(rng.normal(size=(3, 3)))[0].T
        ang = np.sort(rng.uniform(0.0, rng.uniform(0.2, 2.5), size=int(rng.integers(3, 10))))
        apex = np.cos(ang.mean()) * u + np.sin(ang.mean()) * v + rng.uniform(0.05, 1.0) * n
        return family, np.vstack([np.cos(ang)[:, None] * u + np.sin(ang)[:, None] * v, apex])
    return family, harness.cap_polytope(
        rng.normal(size=3) + [0.0, 0.0, 3.0], rng.uniform(0.1, 1.3), int(rng.integers(3, 17)),
        rng.uniform(0.0, 1.0),
    ).generator_array


def _qhull_polygon(U):
    """Qhull's hull of a 2-D section as the rank-3 branch read it before
    its closed form: (sorted vertices, one `equations` row per edge)."""
    hull = ConvexHull(U)
    return np.sort(hull.vertices), hull.equations


class TestSectionPolygon:
    """The closed-form hull of a rank-3 gnomonic section against Qhull and
    the exact references."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(rank3_rows())
    def test_matches_qhull_and_the_exact_references(self, case):
        family, G = case
        R = cones.dedupe_rays(cones.unitize(G))
        assert cones.span_basis(R)[1] == 3
        if R.shape[0] > 3:
            # the section `_pointed_extreme` charts, read by both hulls
            w = cones.pointed_witness(R)
            Bw = cones._reflected_complement(w)
            U = (R / (R @ w)[:, None] - w) @ Bw.T
            (verts, eq), (ref_verts, ref_eq) = cones._section_polygon(U), _qhull_polygon(U)
            assert np.array_equal(verts, ref_verts) and eq.shape == ref_eq.shape
            normals, ref_normals = (cones.unitize(-(e[:, :-1] @ Bw + e[:, -1:] * w)) for e in (eq, ref_eq))
            # measured worst over 1,326 draws of these families: 3.5e-15
            assert ray_set_match_angle(normals, ref_normals) <= 1e-13
        if family == "collinear":
            # the middle rows lie on one great circle only up to rounding,
            # so in exact arithmetic they are extreme; Qhull and the
            # polygon drop them alike
            return
        rays, lin, (N, N_lin) = cones.extreme_rays(G)
        ref_rays, ref_lin = oracles.extreme_rays_exact(G)
        assert rays.shape == ref_rays.shape and lin.shape == ref_lin.shape == (0, 3)
        assert ray_set_match_angle(rays, ref_rays) <= 1e-9
        ref_N, ref_N_lin = oracles.dual_cone_rays_exact(G)
        assert N.shape == ref_N.shape and N_lin.shape == ref_N_lin.shape == (0, 3)
        assert ray_set_match_angle(N, ref_N) <= 1e-9

    def test_collinear_points_give_no_polygon(self):
        # fewer than 3 vertices: the points of one line, exactly and up to
        # rounding of the section's scale
        t = np.linspace(-2.0, 3.0, 7)
        assert cones._section_polygon(np.column_stack([t, 0.5 * t + 1.0])) is None
        wobble = 1e-15 * np.array([1.0, -1.0, 0.0, 1.0, -1.0, 0.0, 1.0])
        assert cones._section_polygon(np.column_stack([t, 0.3 * t + wobble])) is None

    def test_degenerate_section_falls_back_to_the_dual_read(self, monkeypatch):
        # a section flattened onto a line has fewer than 3 vertices, so
        # `_pointed_extreme` gives up and both descriptions are read off
        # `dual_cone_rays`
        reads = []
        polygon, dual_cone_rays = cones._section_polygon, cones.dual_cone_rays
        monkeypatch.setattr(cones, "_section_polygon", lambda U: polygon(U * [1.0, 0.0]))
        monkeypatch.setattr(cones, "dual_cone_rays", lambda R: reads.append(1) or dual_cone_rays(R))
        rng = np.random.default_rng(73)
        for m in (4, 9):
            G = cones.unitize(rng.normal(size=(m, 3)) * 0.4 + np.eye(3)[2])
            reads.clear()
            rays, lin, (N, N_lin) = cones.extreme_rays(G)
            assert len(reads) == 1
            ref_rays, ref_lin = oracles.extreme_rays_exact(G)
            assert rays.shape == ref_rays.shape and lin.shape == ref_lin.shape == (0, 3)
            assert ray_set_match_angle(rays, ref_rays) <= 1e-9
            ref_N, _ = oracles.dual_cone_rays_exact(G)
            assert N.shape == ref_N.shape and N_lin.shape == (0, 3)
            assert ray_set_match_angle(N, ref_N) <= 1e-9


class TestExtremeRays:
    def test_every_branch_matches_the_exact_reference(self, monkeypatch):
        # the raw rows `from_generators` hands to the conversion while it
        # builds bodies of every suite kind, hemispheres, lunes, the full
        # sphere and a pair of antipodes
        inputs = []
        extreme_rays = cones.extreme_rays

        def recorded(G):
            inputs.append(np.array(G, dtype=float))
            return extreme_rays(G)

        monkeypatch.setattr(cones, "extreme_rays", recorded)
        kinds = ["hull", "arc", "point", "wide_cap"]
        for dim in (1, 2, 3):
            pole = harness.pole_axis(dim)
            e = np.eye(dim + 1)
            for t in range(8):
                rng = np.random.default_rng([dim, t, 19])
                harness.gen_convex_body(pole, kinds[t % 4], rng)
                harness.gen_wulff(
                    pole, int(rng.integers(dim + 2, dim + 7)), rng.uniform(0.1, 1.2),
                    int(rng.integers(2**31)),
                )
            body.from_generators(body.hemisphere_body(pole.vec).generator_array)
            body.from_generators(np.vstack([e, -e]))
            body.from_generators([e[dim], -e[dim]])
            if dim > 1:
                body.from_generators([e[dim], -e[dim], e[0], e[1]])
        monkeypatch.undo()
        # rows repeated at chordal distances on both sides of RAY_TOL
        rng = np.random.default_rng(61)
        for gap in (1e-10, 5e-10, 2e-9, 1e-8):
            G = cones.unitize(rng.normal(size=(6, 3)) * 0.4 + [0.0, 0.0, 1.0])
            inputs.append(np.vstack([G, G + gap * cones.unitize(rng.normal(size=G.shape))]))
        # caps just short of a hemisphere: up to 10^-10 short (10^-11 and
        # 10^-12 are `test_caps_within_1e_11_of_a_hemisphere`), and c * 1e-10
        # short, where no row and no linear program clears FEAS_EPS
        short = []
        for n in (2, 3):
            inputs += [_cap_rows(n, math.pi / 2 - 10.0**-k, 8) for k in range(7, 11)]
            short += [_cap_rows(n, math.pi / 2 - c * 1e-10, count)
                      for c in (5.0, 7.0, 9.9) for count in (5, 7, 8, 9)]
        dual_cone_rays = cones.dual_cone_rays
        branches = set()
        for i, G in enumerate(inputs + short):
            reads = []
            with monkeypatch.context() as m:
                m.setattr(cones, "dual_cone_rays", lambda R: reads.append(1) or dual_cone_rays(R))
                rays, lin, _ = cones.extreme_rays(G)
            ref_rays, ref_lin = oracles.extreme_rays_exact(G)
            assert rays.shape == ref_rays.shape and lin.shape == ref_lin.shape
            assert ray_set_match_angle(rays, ref_rays) <= 1e-9
            assert np.abs(lin.T @ lin - ref_lin.T @ ref_lin).max(initial=0.0) <= 1e-9
            R = cones.dedupe_rays(cones.unitize(G))
            if R.shape[0] <= cones.span_basis(R)[1]:
                branch = "simplicial"
            elif not reads:
                branch = "witness hull"
            elif not lin.shape[0]:
                branch = "read without lineality"
            else:
                branch = "read with lineality" if rays.shape[0] else "read of a subspace"
            branches.add(branch)
            if i >= len(inputs):
                assert branch == "read without lineality"
        assert branches == {"simplicial", "witness hull", "read without lineality",
                            "read with lineality", "read of a subspace"}

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.integers(2, 6), st.integers(0, 2**32 - 1), st.integers(0, 12))
    def test_reflected_complement_has_s_minus_one_orthonormal_rows(self, s, seed, decades):
        # the section chart's basis of w^perp: s - 1 rows for every unit w,
        # also one whose entries span many orders of magnitude, and the
        # thin R^4 cone's row witness, all but orthogonal to two axes
        rng = np.random.default_rng(seed)
        w = rng.normal(size=s) * 10.0 ** -rng.integers(0, decades + 1, size=s)
        witness = np.array([-0.97296, 0.23097, -8.3805e-4, -5.6553e-11])
        for v in (w, witness, np.eye(s)[seed % s], -np.eye(s)[seed % s]):
            v = v / np.linalg.norm(v)
            Bw = cones._reflected_complement(v)
            assert Bw.shape == (v.size - 1, v.size)
            assert np.abs(Bw @ Bw.T - np.eye(v.size - 1)).max() <= 1e-15
            assert np.abs(Bw @ v).max() <= 1e-15

    def test_qhull_refusal_falls_back_to_the_dual_read(self, monkeypatch):
        # when Qhull refuses a gnomonic section of rank 4 or more,
        # `_pointed_extreme` gives up and both descriptions are read off
        # `dual_cone_rays`; `_section_hull` imports Qhull on each call, so
        # the refusal is patched into `scipy.spatial`
        def refuse(U):
            raise QhullError("section refused")

        reads = []
        dual_cone_rays = cones.dual_cone_rays
        monkeypatch.setattr("scipy.spatial.ConvexHull", refuse)
        monkeypatch.setattr(cones, "dual_cone_rays", lambda R: reads.append(1) or dual_cone_rays(R))
        rng = np.random.default_rng(71)
        d = 4
        for m in (d + 1, d + 5):
            G = cones.unitize(rng.normal(size=(m, d)) * 0.4 + np.eye(d)[-1])
            reads.clear()
            rays, lin, (N, N_lin) = cones.extreme_rays(G)
            assert len(reads) == 1
            ref_rays, ref_lin = oracles.extreme_rays_exact(G)
            assert rays.shape == ref_rays.shape and lin.shape == ref_lin.shape == (0, d)
            assert ray_set_match_angle(rays, ref_rays) <= 1e-9
            ref_N, ref_N_lin = oracles.dual_cone_rays_exact(G)
            assert N.shape == ref_N.shape and N_lin.shape == ref_N_lin.shape == (0, d)
            assert ray_set_match_angle(N, ref_N) <= 1e-9

    @pytest.mark.xfail(strict=True, reason="FOUND (a) and item 2 in ROADMAP.md: caps within "
                       "1e-11 of a hemisphere come back as a plane of lineality")
    @pytest.mark.parametrize("n, k", [(2, 11), (2, 12), (3, 11), (3, 12)])
    def test_caps_within_1e_11_of_a_hemisphere(self, n, k):
        G = _cap_rows(n, math.pi / 2 - 10.0**-k, 8)
        rays, lin, _ = cones.extreme_rays(G)
        ref_rays, ref_lin = oracles.extreme_rays_exact(G)
        assert rays.shape == ref_rays.shape and lin.shape == ref_lin.shape
        assert ray_set_match_angle(rays, ref_rays) <= 1e-9

    @pytest.mark.parametrize("n", [2, 3])
    def test_caps_c_1e_10_short_of_a_hemisphere_build(self, n):
        # the pole is the only witness, with margin c * 1e-10 below FEAS_EPS,
        # so the rays are read off the dual; bodies and both descriptions
        # must match the exact references
        for c in (5.0, 7.0, 9.9):
            for count in (7, 8, 9):
                rows = _cap_rows(n, math.pi / 2 - c * 1e-10, count)
                b = body.from_generators(rows)
                gens, _ = oracles.extreme_rays_exact(rows)
                assert b.generator_array.shape == gens.shape == (count, n + 1)
                assert ray_set_match_angle(b.generator_array, gens) <= 1e-9
                normals, lin = oracles.dual_cone_rays_exact(b.generator_array)
                full = cones.rays_with_lineality(normals, lin)
                assert b.normal_array.shape == full.shape
                assert ray_set_match_angle(b.normal_array, full) <= 1e-9
        # 1e-10 short, every generator comes back; the normals do not yet
        # (5 of 8 on S^2 and 7 of 10 on S^3, a FOUND in CHANGES.md)
        rows = _cap_rows(n, math.pi / 2 - 1e-10, 8)
        b = body.from_generators(rows)
        gens, _ = oracles.extreme_rays_exact(rows)
        assert b.generator_array.shape == gens.shape == (8, n + 1)
        assert ray_set_match_angle(b.generator_array, gens) <= 1e-9

    def test_row_witness_matches_the_lp_witness(self, monkeypatch):
        # any witness inside the dual cone gives a gnomonic section whose
        # vertices are the extreme rays, so the best row and the solved
        # witness must pick the same rows
        inputs = []
        extreme_rays = cones.extreme_rays

        def recorded(G):
            inputs.append(np.array(G, dtype=float))
            return extreme_rays(G)

        monkeypatch.setattr(cones, "extreme_rays", recorded)
        for dim in (1, 2, 3):
            pole = harness.pole_axis(dim)
            for kind in ("hull", "arc", "point", "wide_cap"):
                for t in range(12):
                    b = harness.gen_convex_body(pole, kind, np.random.default_rng([dim, t, 79]))
                    if b.normal_array.shape[0]:
                        inputs.append(b.normal_array)
        monkeypatch.undo()
        rng = np.random.default_rng(83)
        for thickness in (1e-6, 1e-7, 1e-8):
            inputs += [_thin_rows(rng, 3 + t % 2, thickness) for t in range(20)]
        for n in (2, 3):
            for k in range(1, 13):
                inputs += [_cap_rows(n, math.pi / 2 - c * 10.0**-k, count)
                           for c in (1.0, 3.0) for count in (5, 8)]
            # the opposite rows of an even cap of radius pi/4 - 10^-e are
            # 2 * 10^-e short of a quarter turn apart, so the best row's
            # margin falls to about 2e-9 at e = 9
            inputs += [_cap_rows(n, math.pi / 4 - 10.0**-e, 8) for e in range(3, 12)]
        margins = []
        for G in inputs:
            rays, lin, _ = cones.extreme_rays(G)
            with monkeypatch.context() as m:
                m.setattr(cones, "pointed_witness", _lp_pointed_witness)
                ref_rays, ref_lin, _ = cones.extreme_rays(G)
            assert np.array_equal(rays, ref_rays) and np.array_equal(lin, ref_lin)
            R = cones.dedupe_rays(cones.unitize(G))
            B, s = cones.span_basis(R)
            if R.shape[0] > s >= 2:
                Rs = cones.unitize(R @ B.T)
                margins.append(float((Rs @ Rs.T).min(axis=0).max()))
        margins = np.array(margins)
        row_path = margins[margins >= cones.FEAS_EPS]
        # both witnesses met, and the row path reached margins near FEAS_EPS
        assert row_path.size and (margins < cones.FEAS_EPS).any()
        assert row_path.min() < 1e-8

    def test_redundant_ray_dropped(self):
        G = cones.unitize(
            np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        )
        rays, lin, _ = cones.extreme_rays(G)
        assert lin.shape[0] == 0
        assert rays.shape[0] == 2
        assert ray_set_match_angle(rays, np.eye(2)) < 1e-12

    def test_lineality_detected(self):
        G = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        rays, lin, _ = cones.extreme_rays(G)
        assert lin.shape[0] == 1
        assert np.allclose(np.abs(lin[0]), [1.0, 0.0, 0.0], atol=1e-12)
        assert rays.shape[0] == 1
        assert np.allclose(rays[0], [0.0, 0.0, 1.0], atol=1e-12)

    def test_hull_path_matches_membership_path(self):
        # Qhull-backed reduction vs the exact dual of the exact dual
        rng = np.random.default_rng(53)
        for trial in range(25):
            d = 2 + trial % 3
            m = int(rng.integers(d + 1, 14))
            G = rng.normal(size=(m, d)) * 0.4
            G[:, -1] = np.abs(G[:, -1]) + 0.6
            G = cones.unitize(G)
            fast, lin, _ = cones.extreme_rays(G)
            assert lin.shape[0] == 0
            slow, slow_lin = oracles.extreme_rays_exact(G)
            assert slow_lin.shape[0] == 0
            assert ray_set_match_angle(fast, slow) <= 1e-9, f"trial {trial}"

    def test_extreme_rays_generate_the_same_cone(self):
        rng = np.random.default_rng(59)
        G = rng.normal(size=(9, 3)) * 0.4
        G[:, -1] = np.abs(G[:, -1]) + 0.6
        G = cones.unitize(G)
        rays, _, _ = cones.extreme_rays(G)
        for g in G:
            assert in_cone(rays, g)

    def test_rays_with_lineality_layout(self):
        rays = np.array([[0.0, 0.0, 1.0]])
        lin = np.array([[1.0, 0.0, 0.0]])
        out = cones.rays_with_lineality(rays, lin)
        assert out.shape == (3, 3)
        assert ray_set_match_angle(
            out, np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
        ) < 1e-12


def _built_body(kind, dim, seed):
    """A body of a `gen_convex_body` kind or a `gen_wulff` draw on S^dim."""
    rng = np.random.default_rng(seed)
    pole = harness.pole_axis(dim)
    if kind == "wulff":
        return harness.gen_wulff(
            pole, int(rng.integers(dim + 2, dim + 8)), rng.uniform(0.1, 1.2),
            int(rng.integers(2**63)),
        )
    return harness.gen_convex_body(pole, kind, rng)


def _assert_stores_the_exact_dual(build):
    """The body `build()` stores the exact dual of its generators as its
    normals, and a second build gives both arrays bit for bit."""
    b = build()
    ref = cones.rays_with_lineality(*oracles.dual_cone_rays_exact(b.generator_array))
    assert b.normal_array.shape == ref.shape
    assert ray_set_match_angle(b.normal_array, ref) <= 1e-9
    again = build()
    assert np.array_equal(again.generator_array, b.generator_array)
    assert np.array_equal(again.normal_array, b.normal_array)


class TestStoredNormals:
    """The normals `from_generators` stores come from the conversion
    that found the generators; they must be the exact dual of the
    stored generators."""

    @pytest.mark.parametrize("kind", ["hull", "arc", "point", "wide_cap", "wulff"])
    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_drawn_bodies(self, kind, dim, seed):
        _assert_stores_the_exact_dual(lambda: _built_body(kind, dim, seed))

    @pytest.mark.parametrize("kind", ["cube", "orthoplex"])
    def test_s4_polytope_cones(self, kind):
        # `TestFaceSpans`' cones: the cube's facets have 8 generators, so
        # the hull reports each of its section's facets in pieces.  Turned
        # copies are not tested: rounding moves a facet's generators off
        # one hyperplane, and the exact dual of the float rows splits it
        V = (np.array(list(itertools.product([1.0, -1.0], repeat=4))) if kind == "cube"
             else np.vstack([np.eye(4), -np.eye(4)]))
        G = np.hstack([V, np.full((V.shape[0], 1), 3.0)])
        _assert_stores_the_exact_dual(lambda: body.from_generators(G))

    def test_one_conversion_per_body(self, monkeypatch):
        # one `cones.extreme_rays` call per built body; inside it no
        # section hull (the rank-3 polygon or Qhull's) and no double
        # description for a body whose
        # deduplicated rows are independent or the two ends of an arc
        # (its dual has a closed form), and exactly one, never both, for
        # every other kind and branch
        inputs, conversions = [], []
        extreme_rays, dual = cones.extreme_rays, cones.dual_cone_rays
        monkeypatch.setattr(cones, "extreme_rays", lambda G: inputs.append(G) or extreme_rays(G))
        for name in ("_section_polygon", "_section_hull"):
            section = getattr(cones, name)
            monkeypatch.setattr(cones, name, lambda U, f=section: conversions.append(U) or f(U))
        monkeypatch.setattr(cones, "dual_cone_rays", lambda G: conversions.append(G) or dual(G))

        def expected(b):
            # the body was built by one conversion call, on inputs[0]
            assert len(inputs) == 1
            R = cones.dedupe_rays(cones.unitize(inputs[0]))
            s = cones.span_basis(R)[1]
            arc = s == 2 and b.generator_array.shape[0] == 2
            return 0 if R.shape[0] <= s or arc else 1

        rows = [_cap_rows(n, math.pi / 2 - 5e-10, 8) for n in (2, 3)]
        for dim in (1, 2, 3):
            e = np.eye(dim + 1)
            rows += [np.vstack([e, -e]), np.vstack([e[dim], -e[dim]])]
        for G in rows:
            inputs.clear()
            conversions.clear()
            b = body.from_generators(G)
            assert len(conversions) == expected(b) == 1
        counts = set()
        for dim in (1, 2, 3):
            for kind in ("hull", "arc", "point", "wide_cap", "wulff"):
                for seed in range(4):
                    inputs.clear()
                    conversions.clear()
                    want = expected(_built_body(kind, dim, seed))
                    counts.add(want)
                    assert len(conversions) == want, (kind, dim, seed)
        assert counts == {0, 1}

    @pytest.mark.parametrize("d", [3, 4])
    def test_arc_branch_stores_the_closed_form_dual(self, monkeypatch, d):
        # 3-6 rows on one great circle, spread less than pi: the arc
        # branch finds the two ends, and their dual in closed form
        dual = cones.dual_cone_rays
        reads = []
        rng = np.random.default_rng([d, 89])
        for trial in range(20):
            P = np.linalg.qr(rng.normal(size=(d, 2)))[0].T
            ang = rng.uniform(0.0, rng.uniform(0.1, math.pi - 0.1), size=int(rng.integers(3, 7)))
            rows = np.cos(ang)[:, None] * P[0] + np.sin(ang)[:, None] * P[1]
            with monkeypatch.context() as m:
                m.setattr(cones, "dual_cone_rays", lambda G: reads.append(G) or dual(G))
                b = body.from_generators(rows)
            assert not reads
            assert b.generator_array.shape == (2, d)
            exact = cones.rays_with_lineality(*oracles.dual_cone_rays_exact(b.generator_array))
            assert b.normal_array.shape == exact.shape == (2 * d - 2, d)
            assert ray_set_match_angle(b.normal_array, exact) <= 1e-9
            rerun = cones.rays_with_lineality(*dual(b.generator_array))
            assert rerun.shape == b.normal_array.shape
            assert np.abs(b.normal_array - rerun).max() <= 1e-13, trial
            back = transforms.double_polar(b)
            assert body.body_match_angle(back, b) <= 1e-10

    def test_thin_draws_store_every_normal(self):
        # at thickness 1e-8 the double description misses facets of some
        # of these draws (FOUND (c) in ROADMAP.md): rerun on the stored
        # generators it is short on seeds 7, 31, 35 and 43, where the hull
        # that found the generators has every facet
        for seed in range(50):
            b = body.from_generators(_thin_rows(np.random.default_rng(seed), 3 + seed % 2, 1e-8))
            ref = cones.rays_with_lineality(*oracles.dual_cone_rays_exact(b.generator_array))
            assert b.normal_array.shape == ref.shape, seed


def _wide_cap_least_distance_system():
    """(E, f) of the least-distance program `metric._deep_witness` poses
    from the polar of one wide cap to the polar of another: E = [G^T; h^T]
    with G = [G_src; N_tgt] (16 x 3) and h = [1]*8 + [0]*8, f = e_4."""
    rng = np.random.default_rng([2, 15])
    a = harness.gen_convex_body(harness.pole_axis(2), "wide_cap", rng)
    b = harness.gen_convex_body(harness.pole_axis(2), "wide_cap", rng)
    src, tgt = transforms.polar(b), transforms.polar(a)
    G = np.vstack([src.generator_array, tgt.normal_array])
    h = np.concatenate([np.ones(src.generator_array.shape[0]), np.zeros(tgt.normal_array.shape[0])])
    return np.vstack([G.T, h[None, :]]), np.eye(4)[3]


class TestNonnegLstsq:
    """The in-package active-set solver that replaced scipy.optimize.nnls.

    scipy's nnls (1.17.1, as on 1.15) returns KKT-violating answers with a
    wrong reported residual on wide systems (the shape of every cone fit
    here), so the solver it replaced is held to explicit optimality
    certificates.
    """

    def test_kkt_certificate_on_wide_systems(self):
        # gradient of 0.5|Ax-b|^2 must be <= 0 everywhere and ~0 on the
        # support; residual must match a recomputation from x.
        rng = np.random.default_rng(99)
        systems = []
        for t in range(400):
            d = 2 + t % 4
            m = int(rng.integers(d + 1, 20))
            systems.append((rng.normal(size=(d, m)), rng.normal(size=d)))
        # scipy 1.17.1's nnls reports residual 0.519 on this system for an
        # x of residual 0.728; the optimum is 0.6996
        systems.append(_wide_cap_least_distance_system())
        for A, b in systems:
            x, rnorm = cones.nonneg_lstsq(A, b)
            assert (x >= 0.0).all()
            assert rnorm == pytest.approx(np.linalg.norm(A @ x - b), abs=0.0)
            grad = A.T @ (b - A @ x)
            scale = max(1.0, float(np.abs(A).max()) * float(np.linalg.norm(b)))
            assert grad.max() <= 1e-10 * scale
            support = x > 1e-10
            if support.any():
                assert np.abs(grad[support]).max() <= 1e-10 * scale
        assert rnorm == pytest.approx(0.6995532117657767, abs=1e-12)

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
        assert in_cone(G, np.zeros(3))
        assert not in_cone(G, b)
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
