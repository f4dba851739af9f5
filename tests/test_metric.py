"""Distances, dilations, separation: exact paths vs independent oracles."""

import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from wulffkit import body, cones, harness, kernels, metric, oracles, transforms
from wulffkit.errors import (
    DimensionMismatchError,
    NonFiniteError,
    ResolutionError,
    SeparationError,
)
from wulffkit.geometry import (
    geodesic_distance,
    subspace_canonical_basis,
    uniform_sphere_points,
)

POLE = np.array([0.0, 0.0, 1.0])


def cap_body(colat, azimuths_deg):
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


class TestPointBodyDistance:
    def test_member_is_zero(self):
        b = cap_body(0.6, [0, 90, 180, 270])
        assert metric.point_body_distance(POLE, b) == 0.0

    def test_face_interior_nearest_point_closed_form(self):
        # a point on the mirror plane of an edge, pushed straight out
        # along the meridian through the edge midpoint, is nearest to
        # that midpoint (reflection symmetry pins the minimizer), so the
        # distance is exactly the colatitude offset
        b = cap_body(0.6, [0, 90, 180, 270])
        v0 = np.array([math.sin(0.6), 0.0, math.cos(0.6)])
        v90 = np.array([0.0, math.sin(0.6), math.cos(0.6)])
        mid = v0 + v90
        mid /= np.linalg.norm(mid)
        colat_mid = math.acos(mid[2])
        delta = 0.3
        t = colat_mid + delta
        x = np.array(
            [
                math.sin(t) * math.cos(math.pi / 4),
                math.sin(t) * math.sin(math.pi / 4),
                math.cos(t),
            ]
        )
        got = float(metric.point_body_distance(x, b))
        assert got == pytest.approx(delta, abs=1e-14)
        # and the nearest point is not a vertex
        assert min(
            math.acos(np.clip(x @ g, -1, 1)) for g in b.generator_array
        ) > delta + 1e-3

    def test_equator_point_to_cap_closed_form(self):
        # along azimuth 0 the nearest body point is the vertex there
        b = cap_body(0.6, [0, 90, 180, 270])
        x = np.array([1.0, 0.0, 0.0])
        assert float(metric.point_body_distance(x, b)) == pytest.approx(
            math.pi / 2 - 0.6, abs=1e-14
        )

    def test_arc_distances(self):
        arc = body.from_generators([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        assert float(metric.point_body_distance(POLE, arc)) == pytest.approx(
            math.pi / 2, abs=1e-15
        )
        s = 0.4
        x = np.array([math.cos(math.pi / 2 + s), math.sin(math.pi / 2 + s), 0.0])
        assert float(metric.point_body_distance(x, arc)) == pytest.approx(
            s, abs=1e-14
        )

    def test_dimension_mismatch(self):
        b = cap_body(0.6, [0, 90, 180])
        with pytest.raises(ValueError):
            metric.point_body_distance([1.0, 0.0], b)

    def test_exact_within_sampled_band(self):
        # sampled uses only true body points, so exact <= sampled
        # <= exact + resolution
        rng = np.random.default_rng(61)
        res = 0.02
        for _ in range(12):
            pts = rng.normal(size=(6, 3))
            pts[:, 2] = np.abs(pts[:, 2]) + 0.4
            b = body.from_generators(pts)
            x = rng.normal(size=3)
            x /= np.linalg.norm(x)
            exact = float(metric.point_body_distance(x, b))
            sampled = float(metric.point_body_distance_sampled(x, b, res))
            assert exact - 1e-12 <= sampled <= exact + res


class TestBatchConsistency:
    def test_matches_scalar_full_dim(self):
        rng = np.random.default_rng(67)
        pts = rng.normal(size=(7, 3))
        pts[:, 2] = np.abs(pts[:, 2]) + 0.3
        b = body.from_generators(pts)
        X = rng.normal(size=(40, 3))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        batch = metric.batch_point_body_distance(X, b)
        for i in range(X.shape[0]):
            assert batch[i] == pytest.approx(
                float(metric.point_body_distance(X[i], b)), abs=1e-12
            )

    def test_matches_scalar_rank_deficient(self):
        arc = body.from_generators([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        rng = np.random.default_rng(71)
        X = rng.normal(size=(25, 3))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        batch = metric.batch_point_body_distance(X, arc)
        for i in range(X.shape[0]):
            assert batch[i] == pytest.approx(
                float(metric.point_body_distance(X[i], arc)), abs=1e-12
            )

    def test_matches_scalar_many_generators(self):
        # a 40-gon: points on a circle are all extreme, so none get
        # reduced away
        rng = np.random.default_rng(73)
        b = cap_body(0.5, list(range(0, 360, 9)))
        assert b.generator_array.shape[0] == 40
        X = rng.normal(size=(20, 3))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        batch = metric.batch_point_body_distance(X, b)
        for i in range(X.shape[0]):
            assert batch[i] == pytest.approx(
                float(metric.point_body_distance(X[i], b)), abs=1e-12
            )

    @pytest.mark.parametrize("case", ["40-gon on S^2", "80-vertex cap on S^3", "wulff on S^4"])
    def test_matches_cone_projection_reference(self, case):
        # bodies with many face spans against the per-row cone projection
        rng = np.random.default_rng(79)
        if case == "40-gon on S^2":
            b = cap_body(0.5, list(range(0, 360, 9)))
        elif case == "80-vertex cap on S^3":
            pole = harness.pole_axis(3).vec
            dirs = rng.normal(size=(80, 4)) * [1.0, 1.0, 1.0, 0.0]
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            b = body.from_generators(math.cos(0.6) * pole + math.sin(0.6) * dirs)
            assert b.generator_array.shape[0] == 80
        else:
            b = harness.gen_wulff(harness.pole_axis(4), 25, 0.9, 1)
            assert b.generator_array.shape[0] >= 19
        X = _query_rows(b, rng, 79)
        batch = metric.batch_point_body_distance(X, b)
        want = np.array([_cone_projection_distance(x, b) for x in X])
        assert np.abs(batch - want).max() <= 1e-12
        assert (want > 0.0).sum() >= 12

    def test_input_validation(self):
        b = cap_body(0.5, [0, 120, 240])
        with pytest.raises(ValueError):
            metric.batch_point_body_distance(np.eye(2), b)
        assert metric.batch_point_body_distance(np.empty((0, 3)), b).size == 0

    def test_rows_off_the_sphere_rejected(self):
        w = harness.gen_wulff(harness.pole_axis(2), 6, 0.5, 1)
        x = np.array([1.0, 0.2, 0.3])
        with pytest.raises(ValueError, match="unit"):
            metric.batch_point_body_distance(np.array([x]), w)
        u = x / np.linalg.norm(x)
        with pytest.raises(ValueError, match="unit"):
            metric.batch_point_body_distance(np.array([u, (1.0 + 2e-9) * u]), w)
        near = metric.batch_point_body_distance(np.array([(1.0 + 5e-10) * u]), w)
        assert abs(near[0] - float(metric.point_body_distance(u, w))) <= 1e-9

    def test_single_points_are_normalized(self):
        w = harness.gen_wulff(harness.pole_axis(2), 6, 0.5, 1)
        x = np.array([1.0, 0.2, 0.3])
        want = float(metric.batch_point_body_distance(np.array([x / np.linalg.norm(x)]), w)[0])
        for scale in (1e-9, 1.0, 5.0, 1e200):
            assert abs(float(metric.point_body_distance(scale * x, w)) - want) <= 1e-15
            assert metric.dilation_contains(w, want + 1e-6, scale * x)
            assert not metric.dilation_contains(w, want - 1e-6, scale * x)

    def test_non_finite_rows_rejected(self):
        b = body.hemisphere_body(POLE)
        X = np.array([[0.0, 0.0, 1.0], [math.nan, 0.0, 1.0]])
        with pytest.raises(NonFiniteError):
            metric.batch_point_body_distance(X, b)
        with pytest.raises(NonFiniteError):
            metric.point_body_distance([math.nan, 0.0, 1.0], b)
        with pytest.raises(NonFiniteError):
            metric.point_body_distance([math.inf, 0.0, 1.0], b)

    def test_stable_angle_just_outside_a_vertex(self):
        # a point pushed delta beyond a vertex of a triangle, along the
        # meridian through it, is nearest to that vertex; arccos of the
        # cosine would lose the offset (1e-8 reads as 0)
        b = cap_body(0.5, [0, 120, 240])
        deltas = np.array([1e-8, 3e-8])
        X = np.array([[math.sin(0.5 + t), 0.0, math.cos(0.5 + t)] for t in deltas])
        got = metric.batch_point_body_distance(X, b)
        assert np.abs(got - deltas).max() <= 1e-12


def _cone_projection_distance(x, b):
    """Distance from the unit row x to b through its Euclidean cone
    projection (non-negative least squares), polished by the exact
    projection onto the span of the active generators."""
    G = b.generator_array
    N = b.normal_array
    if N.shape[0] == 0 or (N @ x).min() >= -1e-10:
        return 0.0
    best = min(math.atan2(np.linalg.norm(x - (x @ g) * g), x @ g) for g in G)
    if (G @ x).max() > 0.0:
        proj, lam = cones.project_onto_cone(G, x)
        B, _ = cones.span_basis(G[lam > 1e-12])
        for p in (proj, (x @ B.T) @ B):
            c = np.linalg.norm(p)
            if c > 1e-12 and (N @ (p / c)).min() >= -1e-10:
                best = min(best, math.atan2(np.linalg.norm(x - p), c))
    return best


# generator counts of the "many" kind on S^1, S^2 and S^3
_MANY = {1: 52, 2: 34, 3: 22}


def _seeded_body(kind, dim, seed):
    rng = np.random.default_rng(seed)
    pole = harness.pole_axis(dim)
    if kind == "wulff":
        b = harness.gen_wulff(pole, dim + 2 + int(rng.integers(0, 5)), rng.uniform(0.1, 1.3), seed)
    elif kind == "many":
        b = harness.cap_polytope(pole, rng.uniform(0.2, 1.3), _MANY[dim])
    elif kind == "hemisphere":
        b = body.hemisphere_body(rng.normal(size=dim + 1))
    elif kind == "lune":
        b = _lune(dim)
    else:
        b = harness.gen_convex_body(pole, kind, rng)
    return b, rng


def _draw_body(draw, dim, kinds):
    kind = draw(st.sampled_from(kinds))
    seed = draw(st.integers(0, 2**32 - 1))
    b, rng = _seeded_body(kind, dim, seed)
    return b, rng, seed


def _query_rows(b, rng, seed):
    dim = b.generator_array.shape[1] - 1
    G = b.generator_array
    near = G[rng.integers(0, G.shape[0], 12)] + 0.1 * rng.normal(size=(12, dim + 1))
    near /= np.linalg.norm(near, axis=1, keepdims=True)
    return np.vstack([uniform_sphere_points(dim, 12, seed), near])


_KINDS = ["wulff", "hull", "arc", "point", "wide_cap", "many"]


@st.composite
def body_and_points(draw):
    """A seeded body of any drawn kind plus query rows on its sphere.

    The rows mix uniform points with points scattered around the
    generators, so members, face projections and far points all occur;
    the "many" kind gives S^2 and S^3 bodies with many face spans.
    """
    dim = draw(st.sampled_from([1, 2, 3]))
    b, rng, seed = _draw_body(draw, dim, _KINDS)
    return b, _query_rows(b, rng, seed)


@st.composite
def body_pair_and_points(draw):
    """Two seeded bodies on one sphere plus query rows around the second.

    The source may be of the "many" kind; the target never is, so the
    subset oracle's span products remain small.
    """
    dim = draw(st.sampled_from([1, 2, 3]))
    a, _, _ = _draw_body(draw, dim, _KINDS)
    b, rng, seed = _draw_body(draw, dim, _KINDS[:-1])
    return a, b, _query_rows(b, rng, seed)


class TestNearestBodyPointsProperties:
    """Properties of the one nearest-point routine on drawn bodies."""

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(body_and_points())
    def test_nearest_points(self, case):
        b, X = case
        angles, points = metric._nearest_body_points(X, b)
        # generators, points on the chords between generator pairs and
        # random convex combinations are all body points
        G = b.generator_array
        p, q = np.triu_indices(G.shape[0], 1)
        t = np.array([0.25, 0.5, 0.75])[:, None, None]
        others = np.vstack(
            [
                G,
                ((1 - t) * G[p] + t * G[q]).reshape(-1, G.shape[1]),
                np.random.default_rng(0).exponential(size=(64, G.shape[0])) @ G,
            ]
        )
        others = others[np.linalg.norm(others, axis=1) > 1e-6]
        others /= np.linalg.norm(others, axis=1, keepdims=True)
        for i, (x, a, y) in enumerate(zip(X, angles, points)):
            # the nearest point is a member at the returned distance, no
            # farther than any of those body points
            assert body.contains(b, y)
            assert abs(float(geodesic_distance(x, y)) - a) <= 1e-12
            chord = np.linalg.norm(others - x, axis=1)
            assert a <= float(2.0 * np.arcsin(chord / 2.0).min()) + 1e-12
            # a batch of one agrees with its row inside the block
            one, _ = metric._nearest_body_points(X[i : i + 1], b)
            assert abs(one[0] - a) <= 1e-12

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(body_pair_and_points())
    def test_face_spans_match_the_subset_oracle(self, case):
        # the spans of all generator subsets include every face span, so
        # swapping them in must leave distances and exact directed
        # distances unchanged; with no spans read off the normals, the
        # oracle's bases stand for every face span, those of rank d - 1
        # included
        a, b, X = case
        new = metric._nearest_body_points(X, b)[0]
        new_directed = metric._exact_directed(a, b)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(metric, "_basis_spans", oracles.face_spans_bruteforce)
            mp.setattr(metric, "_facet_normals", lambda body: body.normal_array[:0])
            old = metric._nearest_body_points(X, b)[0]
            old_directed = metric._exact_directed(a, b)
        assert np.abs(new - old).max() <= 1e-12
        assert (new_directed is None) == (old_directed is None)
        if new_directed is not None:
            assert abs(new_directed - old_directed) <= 1e-12

    @pytest.mark.parametrize(
        "dim, kind",
        [
            (dim, kind)
            for dim in (1, 2, 3)
            for kind in ("hull", "arc", "point", "wide_cap", "hemisphere", "lune")
            if not (kind == "lune" and dim == 1)
        ],
    )
    def test_each_row_keeps_its_bits_in_any_block(self, dim, kind):
        # the sampled route evaluates whichever cells survive its bounds, in
        # blocks of any size, and its value is the maximum over the same
        # samples only because a row's distance and nearest point do not
        # depend on the rows beside it: alone, inside a block, or on either
        # side of a `_BLOCK_PAIRS` seam, a row gets the same bits
        for seed in range(3):
            b, rng = _seeded_body(kind, dim, seed)
            for target in (b, transforms.polar(b)) if transforms.polar_admissible(b) else (b,):
                X = _query_rows(target, rng, seed)
                angles, points = metric._nearest_body_points(X, target)
                for i in range(X.shape[0]):
                    alone, point = metric._nearest_body_points(X[i : i + 1], target)
                    assert np.array_equal(alone, angles[i : i + 1])
                    assert np.array_equal(point, points[i : i + 1])
                width = (
                    target.generator_array.shape[0]
                    + metric._facet_normals(target).shape[0]
                    + sum(T.shape[0] for T in metric._basis_spans(target))
                )
                for rows in (2, 5, 7):
                    with mock.patch.object(metric, "_BLOCK_PAIRS", rows * width):
                        seamed, seamed_points = metric._nearest_body_points(X, target)
                    assert np.array_equal(seamed, angles)
                    assert np.array_equal(seamed_points, points)


class TestOneMembershipTest:
    """`body.contains` and the nearest-point routine give one answer."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        st.sampled_from([1, 2, 3]),
        st.sampled_from(_KINDS + ["hemisphere", "lune"]),
        st.integers(0, 2**32 - 1),
        st.booleans(),
    )
    # a point on S^2 moved 0.8e-10 along both axes of its complement is
    # 1.1e-10 off its span but within 1e-10 of every normal slack
    @example(2, "point", 0, False)
    def test_contains_iff_distance_zero(self, dim, kind, seed, use_polar):
        b, rng = _seeded_body(kind, dim, seed)
        if use_polar and transforms.polar_admissible(b):
            b = transforms.polar(b)
        G = b.generator_array
        # every generator nudged by 0.3e-10 to 3e-10 in a random direction,
        # and moved 0.8e-10 along each axis of the complement of the span
        nudge = rng.normal(size=G.shape)
        nudge *= rng.uniform(0.3e-10, 3e-10, (G.shape[0], 1)) / np.linalg.norm(nudge, axis=1, keepdims=True)
        B, s = cones.span_basis(G)
        axes = subspace_canonical_basis(np.eye(G.shape[1]) - B.T @ B, G.shape[1] - s)
        for x in np.vstack([G + nudge, G + 0.8e-10 * axes.sum(axis=0)]):
            assert body.contains(b, x) == (metric.point_body_distance(x, b) == 0.0)


def _span_projector(T):
    return np.round(T.T @ T, 9)


def _face_bases_by_incidence(b):
    """Orthonormal bases of the body's face spans of rank 2 to d - 1, by
    `span_key`, every face read off the generator-normal incidence: the
    generators tight on one normal form a facet, a rank-deficient body
    is a face of itself, and the closure intersects the sets of the
    previous round with the facets until a round finds nothing new.
    Each basis is `cones.span_basis` of the face's tight generators."""
    G = b.generator_array
    m, d = G.shape
    tight = (np.abs(G @ b.normal_array.T) <= 1e-9).T
    if cones.span_basis(G)[1] < d:
        tight = np.vstack([tight, np.ones((1, m), dtype=bool)])
    facets = tight[tight.sum(axis=1) >= 2]
    known = {tuple(f) for f in facets}
    fresh = known
    while fresh:
        meets = {tuple(np.array(f) & g) for f in fresh for g in facets}
        fresh = {f for f in meets if sum(f) >= 2} - known
        known |= fresh
    bases = {}
    for face in sorted(known):
        B, r = cones.span_basis(G[np.array(face)])
        if 2 <= r < d:
            bases.setdefault(cones.span_key(B), B)
    return bases


def _span_shapes(b):
    """(count, rank, d) of the route's face spans, one entry per rank and
    sorted by rank: the stacks of `_basis_spans`, and the spans n^perp of
    the normals of `_facet_normals` as one entry of rank d - 1."""
    N = metric._facet_normals(b)
    d = N.shape[1]
    shapes = [T.shape for T in metric._basis_spans(b)]
    shapes += [(N.shape[0], d - 1, d)] if N.shape[0] else []
    return sorted(shapes, key=lambda shape: shape[1])


def _face_span_cases():
    """Bodies of every `gen_convex_body` kind on S^1 to S^3 and their
    polars, with hemispheres, lunes and S^4 polytope cones: arcs and
    points, full-rank bodies with facets only (S^2) and with lower
    faces (S^3, S^4), and rank-deficient bodies that are faces of
    themselves."""
    for dim in (1, 2, 3):
        pole = harness.pole_axis(dim)
        for seed in range(6):
            rng = np.random.default_rng([dim, seed, 5])
            bodies = [harness.gen_convex_body(pole, kind, rng) for kind in ("hull", "arc", "point", "wide_cap")]
            bodies += [body.hemisphere_body(rng.normal(size=dim + 1))]
            bodies += [_lune(dim)] if dim > 1 else []
            for b in bodies:
                yield b
                if transforms.polar_admissible(b):
                    yield transforms.polar(b)
    cube = np.array(list(itertools.product([1.0, -1.0], repeat=4)))
    yield body.from_generators(np.hstack([cube, np.full((16, 1), 3.0)]))
    orthoplex = np.vstack([np.eye(4), -np.eye(4)])
    yield body.from_generators(np.hstack([orthoplex, np.full((8, 1), 3.0)]))


class TestFaceSpans:
    """The face spans are exactly the body's faces of rank 2 to d - 1:
    those of rank d - 1 read off normals, the others through bases."""

    def test_matches_the_incidence_closure(self):
        ranks = set()
        for b in _face_span_cases():
            d = b.generator_array.shape[1]
            faces = _face_bases_by_incidence(b)
            keys = [cones.span_key(B) for T in metric._basis_spans(b) for B in T]
            assert len(keys) == len(set(keys))
            assert set(keys) == {key for key, B in faces.items() if B.shape[0] <= d - 2}
            # the faces of rank d - 1 and the normals match one to one, each
            # normal orthogonal to its face's basis
            N = metric._facet_normals(b)
            hyper = [B for B in faces.values() if B.shape[0] == d - 1]
            assert N.shape[0] == len(hyper)
            if hyper:
                tight = np.linalg.norm(np.stack(hyper) @ N.T, axis=1) <= 1e-9
                assert (tight.sum(axis=0) == 1).all() and (tight.sum(axis=1) == 1).all()
            ranks.add((cones.span_basis(b.generator_array)[1], tuple(rank for _, rank, _ in _span_shapes(b))))
        # (span rank, face ranks): an arc is a face of itself, S^2 bodies
        # have facets only, an S^3 lune has facets and itself, and the
        # full S^3 and S^4 bodies have lower faces too
        assert {(2, (2,)), (3, (2,)), (3, (2, 3)), (4, (2, 3)), (5, (2, 3, 4))} <= ranks

    @pytest.mark.parametrize("m", [3, 4, 5, 8, 12])
    def test_regular_polygon_has_one_span_per_edge(self, m):
        b = harness.cap_polytope(harness.pole_axis(2), 0.7, m)
        assert _span_shapes(b) == [(m, 2, 3)]
        # the subset oracle also carries every diagonal plane
        assert [T.shape for T in oracles.face_spans_bruteforce(b)] == [(math.comb(m, 2), 2, 3)]
        # each edge plane holds two adjacent vertices
        G = b.generator_array
        inside = np.abs(G @ metric._facet_normals(b).T) <= 1e-12
        assert (inside.sum(axis=0) == 2).all()

    def test_hemisphere_has_its_boundary_circle(self):
        hemi = body.hemisphere_body(POLE)
        assert _span_shapes(hemi) == [(1, 2, 3)]
        n = metric._facet_normals(hemi)[0]
        assert np.allclose(np.round(np.eye(3) - np.outer(n, n), 9), np.diag([1.0, 1.0, 0.0]))

    def test_arc_has_its_own_plane(self):
        arc = body.from_generators([[1.0, 0.0, 0.2], [0.0, 1.0, 0.3]])
        assert _span_shapes(arc) == [(1, 2, 3)]
        B, _ = cones.span_basis(arc.generator_array)
        n = metric._facet_normals(arc)[0]
        assert np.array_equal(np.round(np.eye(3) - np.outer(n, n), 9), _span_projector(B))

    def test_cube_cone_on_s3(self):
        G = np.array([[x, y, z, 3.0] for x, y, z in itertools.product([1.0, -1.0], repeat=3)])
        cube = body.from_generators(G)
        assert _span_shapes(cube) == [(12, 2, 4), (6, 3, 4)]
        # the oracle's spans: 28 planes of vertex pairs and 20 3-spaces of
        # vertex triples, where each of the 12 coplanar quadruples gives one
        assert sum(T.shape[0] for T in oracles.face_spans_bruteforce(cube)) == 48
        # edge planes hold 2 cube vertices, facet 3-spaces hold 4
        U = cube.generator_array
        (edges,) = metric._basis_spans(cube)
        inside = np.abs(np.linalg.norm(U @ edges.transpose(0, 2, 1), axis=2) - 1.0) <= 1e-12
        assert (inside.sum(axis=1) == 2).all()
        assert ((np.abs(U @ metric._facet_normals(cube).T) <= 1e-12).sum(axis=0) == 4).all()

    @pytest.mark.parametrize(
        "kind, counts",
        [
            ("cube", [(32, 2, 5), (24, 3, 5), (8, 4, 5)]),
            ("orthoplex", [(24, 2, 5), (32, 3, 5), (16, 4, 5)]),
        ],
    )
    def test_polytope_cones_on_s4(self, kind, counts):
        # cube: 32 edges, 24 squares, 8 cubes; orthoplex: 24 edges,
        # 32 triangles, 16 tetrahedra
        if kind == "cube":
            V = np.array(list(itertools.product([1.0, -1.0], repeat=4)))
        else:
            V = np.vstack([np.eye(4), -np.eye(4)])
        b = body.from_generators(np.hstack([V, np.full((V.shape[0], 1), 3.0)]))
        assert _span_shapes(b) == counts

    def test_no_spans_for_a_point_or_the_whole_sphere(self):
        assert _span_shapes(body.from_generators([POLE])) == []
        full = body.from_generators(np.vstack([np.eye(3), -np.eye(3)]))
        assert _span_shapes(full) == []


def _facet_basis(n):
    """An orthonormal basis of n^perp from the SVD."""
    d = n.size
    return np.linalg.svd(np.eye(d) - np.outer(n, n))[2][: d - 1]


@st.composite
def facet_normal_pairs(draw):
    """Unit normals f and e on S^2 or S^3 at a drawn angle t in (0, pi):
    e = cos(t) f + sin(t) g for a unit g orthogonal to f."""
    d = draw(st.sampled_from([3, 4]))
    t = draw(st.floats(1e-6, math.pi - 1e-6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    f, g = np.linalg.qr(rng.normal(size=(d, 2)))[0].T
    return f, math.cos(t) * f + math.sin(t) * g


@st.composite
def full_rank_s2_bodies(draw):
    """A full-rank body on S^2: a seeded body of a full-rank kind, or the
    polar of one (the polar of a pointed body is full rank too)."""
    b, _, seed = _draw_body(draw, 2, ["wulff", "hull", "wide_cap", "many", "hemisphere"])
    if draw(st.booleans()) and body.is_hemispherical(b):
        b = transforms.polar(b)
    return b, seed


@st.composite
def block_bodies(draw):
    """A full-rank body on S^2 (`full_rank_s2_bodies`), or an arc or a hull
    on S^2 or S^3: an arc's face spans all go through bases, and so do a
    hull's lower faces on S^3."""
    if draw(st.booleans()):
        return draw(full_rank_s2_bodies())
    b, _, seed = _draw_body(draw, draw(st.sampled_from([2, 3])), ["arc", "hull"])
    return b, seed


class TestFacetsByNormals:
    """A full-rank body's facets are read off its unit normals."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(facet_normal_pairs())
    def test_closed_form_candidates_are_the_eigh_enumeration(self, pair):
        f, e = pair
        d = f.size
        sigma = abs(float(e @ f))
        X = metric._normal_candidates(f[None], [], e[None], -1.0)
        assert X.shape == (1, d)
        x = X[0]
        # an eigenvector of P_F P_E P_F of eigenvalue sigma^2 in f^perp, on
        # the whole range of angles (to a few ulps of these products)
        image = x - (x @ e) * e
        image -= (image @ f) * f
        assert abs(x @ f) <= 1e-15
        assert np.abs(image - sigma**2 * x).max() <= 2e-15
        # the pair's eigh enumeration in facet bases has one eigenvalue
        # below 1, sigma^2, and its eigenvector is +/- x; eigh resolves that
        # eigenvector only to about 1e-16 / (1 - sigma^2), which reaches
        # 6e-14 at sigma = 0.99, so it is compared where the gap is wide
        F, E = _facet_basis(f), _facet_basis(e)
        vals, V = np.linalg.eigh(F @ E.T @ E @ F.T)
        assert np.abs(vals[1:] - 1.0).max() <= 2e-15
        if sigma <= 0.6:
            assert abs(vals[0] - sigma**2) <= 1e-15
            y = V[:, 0] @ F
            assert min(np.abs(x - y).max(), np.abs(x + y).max()) <= 1e-15

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(facet_normal_pairs())
    def test_a_span_gives_one_candidate_as_a_normal_and_as_a_basis(self, pair):
        # f^perp read off its normal f and through an SVD basis gives the
        # same candidate P_F e / |P_F e|; the rounding of P_F e is divided
        # by |P_F e| = sqrt(1 - (e . f)^2).  Over 20,000 pairs in R^3-R^5
        # the deviation times that norm was at most 7.2e-16
        f, e = pair
        d = f.size
        by_normal = metric._normal_candidates(f[None], [], e[None], -1.0)
        basis = [_facet_basis(f)[None]]
        by_basis = metric._normal_candidates(np.zeros((0, d)), basis, e[None], -1.0)
        assert by_normal.shape == by_basis.shape == (1, d)
        bound = 1.5e-15 / math.sqrt(1.0 - float(e @ f) ** 2)
        assert np.abs(by_normal - by_basis).max() <= bound

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(block_bodies())
    def test_a_row_reads_the_same_alone_and_in_a_block(self, case):
        # einsum rounds each row's products the same way in a block of any
        # size, for facets read off normals and for spans read through
        # bases alike, so a row's distance and nearest point do not depend
        # on the rows evaluated with it
        b, seed = case
        X = uniform_sphere_points(b.ambient_dim, 1000, seed)
        angles, points = metric._nearest_body_points(X, b)
        for i in np.random.default_rng(seed).integers(0, 1000, 20):
            one = metric.batch_point_body_distance(X[i : i + 1], b)
            alone, point = metric._nearest_body_points(X[i : i + 1], b)
            assert one[0] == alone[0] == angles[i]
            assert np.array_equal(point[0], points[i])

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(
        st.sampled_from([1, 2, 3]),
        st.sampled_from(_KINDS + ["hemisphere", "lune", "thin"]),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    # an arc whose stored lineality row lay 2.3e-13 off its plane before
    # a line got the largest column of its projector
    @example(2, "arc", False, 789)
    @example(3, "lune", False, 0)
    @example(3, "lune", True, 0)
    # a thin rank-3 body of R^4 whose stored generators lay 2.7e-11 off
    # the complement of its input rows' span
    @example(3, "thin", False, 33)
    def test_seeded_span_has_the_svd_rank(self, dim, kind, use_polar, seed):
        # the two linealities a body stores have the ranks an SVD of its
        # arrays finds, `has_interior` reads the span's rank off one of
        # them, and a polar swaps them
        if kind == "thin":
            b = _thin_body(seed % 100, 1e-8)
        else:
            b = _seeded_body(kind, dim, seed)[0]
        if use_polar and transforms.polar_admissible(b):
            b = transforms.polar(b)
        G, N = b.generator_array, b.normal_array
        C, L = b.complement_array, b.lineality_array
        d = G.shape[1]
        rank = cones.span_basis(G)[1]
        assert C.shape == (d - rank, d)
        # the normals carry +/- the complement, so N^perp, the lineality,
        # has d - rank(N) rows, and all d without normals
        assert L.shape == (d - cones.span_basis(N)[1], d)
        assert body.has_interior(b) == (rank == d)
        if transforms.polar_admissible(b):
            p = transforms.polar(b)
            assert p.lineality_array is C and p.complement_array is L
        # the complement is orthogonal to every generator: the worst over
        # 300 seeds of every seeded kind, S^1 to S^3, and their polars was
        # 2.5e-13, from a rank-2 complement
        assert np.abs(G @ C.T).max(initial=0.0) <= 1e-12
        # a span of rank d - 1 is read off the one complement row, which
        # the largest column of its projector makes exact: orthogonal to
        # every generator within 1e-15
        if d >= 3 and rank == d - 1:
            assert metric._facet_normals(b) is C
            assert np.abs(G @ C[0]).max() <= 1e-15

    def test_stored_complement_row_is_exact(self):
        # a span of rank d - 1 is read off the stored complement row, now
        # the largest column of its projector; axis order left these rows
        # 6.4e-14 and 6.2e-13 off orthogonal to a generator (the seed-789
        # arc is an example of `test_seeded_span_has_the_svd_rank`)
        pole = harness.pole_axis(2)
        bodies = [harness.gen_convex_body(pole, "arc", np.random.default_rng([2, 209, 7]))]
        # the hull of 4 points in a random 3-space of R^4
        rng = np.random.default_rng([4, 5])
        Q = np.linalg.qr(rng.normal(size=(4, 3)))[0]
        k = int(rng.integers(3, 7))
        bodies.append(body.from_generators((0.3 * rng.normal(size=(k, 3)) + [0.0, 0.0, 1.0]) @ Q.T))
        for b in bodies:
            G, C = b.generator_array, b.complement_array
            assert C.shape == (1, G.shape[1])
            assert np.abs(G @ C[0]).max() <= 1e-15
            assert metric._facet_normals(b) is C


class TestDirectedDistance:
    def test_self_distance_zero(self):
        b = cap_body(0.7, [10, 100, 200, 300])
        val, err, path = metric.directed_distance_with_bound(b, b)
        assert path == "exact"
        assert err == 0.0
        assert float(val) == 0.0

    def test_subset_gives_zero(self):
        outer = cap_body(0.8, [0, 90, 180, 270])
        inner = cap_body(0.3, [0, 90, 180, 270])
        val, _, path = metric.directed_distance_with_bound(inner, outer)
        assert path == "exact"
        assert float(val) == 0.0

    def test_point_source_takes_exact_path(self):
        pt = body.from_generators([[0.0, 0.0, 1.0]])
        target = cap_body(0.6, [0, 90, 180, 270])
        south = body.from_generators(-target.generator_array)
        val, err, path = metric.directed_distance_with_bound(pt, south)
        assert path == "exact" and err == 0.0
        assert float(val) == pytest.approx(
            float(metric.point_body_distance(POLE, south)), abs=0.0
        )

    def test_interior_face_maximum_regression(self):
        # pinned pair where the true directed distance exceeds every
        # generator's distance: the maximizer sits inside a face
        pole = harness.pole_axis(2)
        w1 = harness.gen_wulff(pole, 8, 0.9, 9)
        w2 = harness.gen_wulff(pole, 8, 0.9, 10009)
        val, err, path = metric.directed_distance_with_bound(w1, w2)
        assert path == "exact" and err == 0.0
        assert float(val) == pytest.approx(0.40571753876675193, abs=1e-12)
        gen_best = max(
            float(metric.point_body_distance(g, w2)) for g in w1.generator_array
        )
        assert gen_best == pytest.approx(0.4031995473485842, abs=1e-12)
        assert float(val) - gen_best > 2.5e-3
        sampled, res = metric.directed_distance_sampled(w1, w2, 0.004)
        assert abs(float(sampled) - float(val)) <= res

    def test_exact_agrees_with_sampled_random_pairs(self):
        pole = harness.pole_axis(2)
        rng = np.random.default_rng(83)
        res = 0.01
        for t in range(6):
            a = harness.gen_wulff(pole, int(rng.integers(4, 9)), 0.8, 100 + t)
            b2 = harness.gen_wulff(pole, int(rng.integers(4, 9)), 0.8, 200 + t)
            val, err, path = metric.directed_distance_with_bound(a, b2)
            assert path == "exact"
            sampled, _ = metric.directed_distance_sampled(a, b2, res)
            assert float(val) >= float(sampled) - 1e-12
            assert float(val) <= float(sampled) + res

    def test_wide_pair_falls_back_to_sampled(self):
        a = body.hemisphere_body(POLE)
        b2 = body.hemisphere_body([1.0, 0.0, 0.0])
        val, err, path = metric.directed_distance_with_bound(a, b2, 0.02)
        assert path == "sampled"
        assert err == 0.02
        assert float(val) == pytest.approx(math.pi / 2, abs=0.02)

    def test_dimension_mismatch(self):
        a = cap_body(0.5, [0, 120, 240])
        c = body.from_generators([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            metric.directed_distance_with_bound(a, c)


def _record_batches(monkeypatch):
    """Record every block passed to the exact batch routine from now on."""
    blocks = []
    evaluate = metric.batch_point_body_distance

    def recorded(X, target):
        blocks.append(X)
        return evaluate(X, target)

    monkeypatch.setattr(metric, "batch_point_body_distance", recorded)
    return blocks


def _unscreened_exact(a, b):
    """Exact directed distance from every generator of a and every
    eigenvector candidate within slack 1e-9 of a, moved onto a, with no
    screen: for each pair of face spans F of a and E of b, the
    eigenvectors of P_F P_E P_F in F below eigenvalue 1 and their
    antipodes, in the bases of the faces' tight generators
    (`_face_bases_by_incidence`)."""
    Ga, Na = a.generator_array, a.normal_array
    cands = [Ga]
    faces_a = _face_bases_by_incidence(a).values()
    faces_b = _face_bases_by_incidence(b).values()
    for F, E in itertools.product(faces_a, faces_b):
        vals, V = np.linalg.eigh(F @ E.T @ E @ F.T)
        # an eigenvalue of 1 to rounding marks a point of F in span(E),
        # of branch value 0: no stationary point, and never a maximum
        # above the generators'
        X = V.T[vals < 1.0 - 1e-12] @ F
        nrm = np.linalg.norm(X, axis=1)
        X = X[nrm > 1e-9] / nrm[nrm > 1e-9, None]
        X = np.vstack([X, -X])
        if Na.shape[0]:
            X = metric._nearest_body_points(X[(X @ Na.T).min(axis=1) >= -1e-9], a)[1]
        cands.append(X)
    return float(metric.batch_point_body_distance(np.vstack(cands), b).max())


def _lune(dim):
    """{x_0 >= 0, x_1 >= 0} on S^2, and that lune on a great S^2 of S^3."""
    e = np.eye(dim + 1)
    return body.from_generators([e[dim], -e[dim], e[0], e[1]])


def _exact_route_pairs():
    """Certified pairs on S^1 to S^3: seeded Wulff bodies, their polars,
    and hemisphere and lune targets; arcs against hulls and back on S^2
    and S^3; then the pinned pair whose maximum lies inside a face."""
    for dim in (1, 2, 3):
        pole = harness.pole_axis(dim)
        targets = [body.hemisphere_body(pole.vec)] + ([_lune(dim)] if dim > 1 else [])
        for t in range(6):
            rng = np.random.default_rng([dim, t, 11])
            w1, w2 = (
                harness.gen_wulff(
                    pole, int(rng.integers(dim + 2, dim + 7)), rng.uniform(0.1, 1.2),
                    int(rng.integers(2**31)),
                )
                for _ in range(2)
            )
            p1, p2 = transforms.polar(w1), transforms.polar(w2)
            yield from ((w1, w2), (w2, w1), (p1, p2), (p2, p1), (w1, p2), (p1, w2))
            for target in targets:
                yield from ((w1, target), (p1, target))
            if dim > 1:
                rng = np.random.default_rng([dim, t, 13])
                hull, arc = (harness.gen_convex_body(pole, kind, rng) for kind in ("hull", "arc"))
                yield from ((hull, arc), (arc, hull))
    pole = harness.pole_axis(2)
    yield harness.gen_wulff(pole, 8, 0.9, 9), harness.gen_wulff(pole, 8, 0.9, 10009)


def _thin_body(seed, thickness):
    """The hull of 3 to 8 points within `thickness` of an arc of a great
    circle of S^2 (even seeds) or S^3 (odd seeds), plus the arc midpoint
    lifted 1e-3 off the circle's plane."""
    rng = np.random.default_rng(seed)
    d = 3 + seed % 2
    u, w, n = np.linalg.qr(rng.normal(size=(d, d)))[0].T[:3]
    ang = rng.uniform(0.0, 2.0, size=int(rng.integers(3, 9)))
    arc = np.cos(ang)[:, None] * u + np.sin(ang)[:, None] * w
    noise = cones.unitize(rng.normal(size=arc.shape))
    jitter = rng.uniform(-thickness, thickness, size=(len(ang), 1)) * noise
    mid = np.cos(1.0) * u + np.sin(1.0) * w + 1e-3 * n
    return body.from_generators(np.vstack([arc + jitter, mid]))


class TestExactRoute:
    """The screened single batch of `_exact_directed` against no screen."""

    @pytest.mark.parametrize("thickness", [1e-6, 1e-7, 1e-8])
    def test_thin_body_is_at_distance_zero_from_itself(self, thickness):
        # an eigenvector candidate within slack 1e-9 of a thin source can
        # lie far outside it, across two nearly opposite normals; scored
        # without moving it onto the source, it puts such bodies up to
        # 0.58 rad from themselves, as exact
        for seed in range(50):
            b = _thin_body(seed, thickness)
            assert metric.hausdorff_with_bound(b, b) == (0.0, 0.0, "exact")

    def test_matches_the_unscreened_candidates(self):
        checked = inside_a_face = 0
        for a, b in _exact_route_pairs():
            value = metric._exact_directed(a, b)
            if value is None:
                continue
            assert abs(value - _unscreened_exact(a, b)) <= 1e-15
            checked += 1
            vertices = metric.batch_point_body_distance(a.generator_array, b).max()
            inside_a_face += value > vertices + 1e-12
        # the pinned pair needs a face-interior candidate to reach 0.4057
        assert abs(value - 0.40571753876675193) <= 1e-12
        assert checked >= 100 and inside_a_face >= 10

    def test_quarter_turn_guard_hands_the_pair_to_the_sampled_route(self, monkeypatch):
        # a certified pair stays below a quarter turn up to rounding, so
        # the guard is reached by reporting pi/2 from the exact batch once
        a, b = cap_body(0.9, [0, 120, 240]), cap_body(0.4, [60, 180, 300])
        exact, err, path = metric.directed_distance_with_bound(a, b)
        assert path == "exact" and err == 0.0 and float(exact) > 0.1
        batch = metric.batch_point_body_distance
        calls = []

        def saturated_once(X, target):
            calls.append(X.shape[0])
            d = batch(X, target)
            return np.full_like(d, math.pi / 2.0) if len(calls) == 1 else d

        monkeypatch.setattr(metric, "batch_point_body_distance", saturated_once)
        value, err, path = metric.directed_distance_with_bound(a, b, 0.01)
        assert path == "sampled" and err == 0.01
        assert abs(float(value) - float(exact)) <= 0.01

    def test_hull_to_arc_regression(self):
        # the hull -> arc pair of the mixed_convex benchmark, seed 3, op
        # 106, against the value of a 40-digit scan of the hull's edges;
        # read off the arc's stored lineality row, the plane moved the
        # value 4.7e-15 below it
        rng = np.random.default_rng([3, 106])
        hull, arc = (harness.gen_convex_body(harness.pole_axis(2), kind, rng) for kind in ("hull", "arc"))
        assert abs(metric._exact_directed(hull, arc) - 0.79386496320719345327) <= 1e-15

    def test_no_eigh_on_s2(self, monkeypatch):
        # every face span of an S^2 body has rank 2 = d - 1, so every pair
        # has a closed form
        bodies = []
        for seed in range(4):
            rng = np.random.default_rng([2, seed, 17])
            for kind in ("hull", "arc", "point", "wide_cap"):
                b = harness.gen_convex_body(harness.pole_axis(2), kind, rng)
                bodies += [b, transforms.polar(b)] if transforms.polar_admissible(b) else [b]

        def refused(*args, **kwargs):
            raise AssertionError("eigh called on S^2")

        monkeypatch.setattr(np.linalg, "eigh", refused)
        certified = sum(metric._exact_directed(a, b) is not None for a in bodies for b in bodies)
        assert certified >= 100

    def test_one_exact_batch(self, monkeypatch):
        blocks = _record_batches(monkeypatch)
        certified = 0
        for a, b in _exact_route_pairs():
            blocks.clear()
            if metric._exact_directed(a, b) is not None:
                assert len(blocks) == 1
                certified += 1
        assert certified >= 100


# resolutions of the pruning properties: coarse enough for 30 drawn
# pairs, fine enough for wide bodies to get thousands of samples
_PRUNE_RESOLUTION = {1: 0.01, 2: 0.04, 3: 0.099}


@st.composite
def sampled_pairs(draw):
    """Two seeded bodies of any drawn kind on one sphere, S^1 to S^3."""
    dim = draw(st.sampled_from([1, 2, 3]))
    return _draw_body(draw, dim, _KINDS)[0], _draw_body(draw, dim, _KINDS)[0]


@st.composite
def sampled_bodies(draw):
    """One seeded body of any drawn kind, S^1 to S^3."""
    return _draw_body(draw, draw(st.sampled_from([1, 2, 3])), _KINDS)[0]


def _all_sample_distances(a, b, resolution):
    samples = metric._body_sample_points(a, resolution)
    return samples, metric.batch_point_body_distance(samples, b)


def _evaluated_rows(monkeypatch, a, b, resolution):
    """The sampled value and the number of samples it evaluated exactly."""
    blocks = _record_batches(monkeypatch)
    value, _ = metric.directed_distance_sampled(a, b, resolution)
    return float(value), sum(X.shape[0] for X in blocks)


_FULL_SPHERE = body.from_generators(np.vstack([np.eye(3), -np.eye(3)]))
_LUNE = body.from_generators([[0, 0, 1.0], [0, 0, -1.0], [1.0, 0, 0], [0, 1.0, 0]])
# a lune 0.02 rad wide, narrower than a grid cell at the pruning resolutions
_THIN_LUNE = body.from_generators(
    [[0, 0, 1.0], [0, 0, -1.0], [1.0, 0, 0], [math.cos(0.02), math.sin(0.02), 0]]
)


class TestSampledPruning:
    """The sampled route returns the maximum over its whole sample set."""

    # fixed sources whose grid cells lie mostly or wholly inside them: the
    # full sphere has no normals, so every one of its cells is deep; from
    # the hemisphere to the small cap far below it, the generators' running
    # maximum drops most deep cells before their centers are scored
    @example((body.hemisphere_body([0.0, 0.0, 1.0]), cap_body(0.5, [0, 120, 240])))
    @example((body.hemisphere_body(POLE), harness.cap_polytope([0.2, 0.1, -1.0], 0.3, 5)))
    @example((_LUNE, cap_body(0.7, [30, 150, 270])))
    # band rows of the thin lune move onto it farther than their cells'
    # radii (see test_band_rows_move_farther_than_their_cell_radius)
    @example((_THIN_LUNE, cap_body(0.5, [0, 120, 240])))
    @example((_FULL_SPHERE, cap_body(0.6, [0, 90, 180, 270])))
    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(sampled_pairs())
    def test_pruned_maximum_is_the_full_maximum(self, pair):
        a, b = pair
        r = _PRUNE_RESOLUTION[a.ambient_dim]
        samples, exact = _all_sample_distances(a, b, r)
        lower = metric._hemisphere_lower_bound(samples, b)
        upper = metric._generator_upper_bound(samples, b)
        # the bounds bracket every exact distance; the upper bound's
        # arccos is off by up to sqrt(2 * 4 ulp) near zero
        assert (lower <= exact + 1e-9).all()
        assert (exact <= upper + 5e-8).all()
        value, _ = metric.directed_distance_sampled(a, b, r)
        assert abs(float(value) - exact.max()) <= 1e-15
        # small cell batches put the cell loop to work on every pair, not
        # only on those with many samples
        with mock.patch.object(metric, "_CELL_BATCH", 5):
            value, _ = metric.directed_distance_sampled(a, b, r)
        assert abs(float(value) - exact.max()) <= 1e-15

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(sampled_bodies())
    def test_every_edge_sample_lies_within_its_cell_bound(self, a):
        r = _PRUNE_RESOLUTION[a.ambient_dim]
        grid, cells, near, _, width = metric._cell_samples(a, r)
        explicit = metric._row_samples(a, grid[cells.rows(near)], width)
        # they hold each grid row inside a or in its band once, a band row
        # moved onto a
        slack = kernels.min_slack(grid, a.normal_array)
        band_width = 2.0 * math.sin(r / 2.05 / 2.0) + 1e-10
        assert explicit.shape[0] == int((slack >= -band_width).sum())
        assert all(body.contains(a, x) for x in explicit[:: max(1, explicit.shape[0] // 200)])
        # the samples come in the order of the near rows they stem from, so
        # each has its cell c, and lies within 2 r_c + t_c and within
        # r_c + 2 t_c of u_c, where t_c = dist(u_c, a)
        owner = np.repeat(np.arange(near.size), np.diff(cells.starts)[near])
        owner = owner[slack[cells.rows(near)] >= -band_width]
        t = metric.batch_point_body_distance(cells.centers[near], a)[owner]
        r_c = cells.radii[near[owner]]
        spread = kernels.angles(explicit, cells.centers[near[owner]])
        assert (spread <= 2.0 * r_c + t).all()
        assert (spread <= r_c + 2.0 * t).all()

    def test_band_rows_move_farther_than_their_cell_radius(self):
        # near the thin lune's poles a row far outside it can have a slack
        # inside the band, and moves onto a pole region far beyond its
        # cell's radius: only the dist(u, a) term of the edge radius
        # holds it
        a = _THIN_LUNE
        r = _PRUNE_RESOLUTION[2]
        grid, cells, edge, _, band_width = metric._cell_samples(a, r)
        rows = grid[cells.rows(edge)]
        owner = np.repeat(edge, np.diff(cells.starts)[edge])
        owner = owner[kernels.min_slack(rows, a.normal_array) >= -band_width]
        spread = kernels.angles(metric._row_samples(a, rows, band_width), cells.centers[owner])
        assert (spread > 5.0 * cells.radii[owner]).any()
        r_c = cells.radii[owner]
        t = metric.batch_point_body_distance(cells.centers[owner], a)
        assert (spread <= r_c + t + np.minimum(r_c, t)).all()

    def test_far_target_reads_few_edge_rows(self, monkeypatch):
        # the hemisphere's edge cells, the near cells not wholly inside
        # it, line its boundary circle; against a small cap far below it
        # they are bounded by their centers, and few rows get a slack:
        # about 2,500 beyond one per cell center, the visited interior
        # cells' rows among them, where reading the whole ring would slack
        # 18,308
        source = body.hemisphere_body(POLE)
        target = harness.cap_polytope([0.2, 0.1, -1.0], 0.3, 5)
        r = 0.01
        _, cells, near, _, _ = metric._cell_samples(source, r)
        depth = kernels.min_slack(cells.centers[near], source.normal_array) - cells.chords[near]
        ring = int(np.diff(cells.starts)[near[depth < metric._DEEP_SLACK]].sum())
        rows = []
        slack = kernels.min_slack

        def counted(X, M):
            if np.array_equal(M, source.normal_array):
                rows.append(X.shape[0])
            return slack(X, M)

        monkeypatch.setattr(kernels, "min_slack", counted)
        metric.directed_distance_sampled(source, target, r)
        # one slack per cell center classifies the cells; the rest are
        # rows of visited cells and the exact routine's membership tests
        # on a
        assert ring > 18000
        assert sum(rows) - cells.radii.size < 0.15 * ring

    @pytest.mark.parametrize(
        "source, target",
        [
            (cap_body(1.2, [0, 90, 180, 270]), body.hemisphere_body([1.0, 0.0, 0.0])),
            (_LUNE, cap_body(0.7, [30, 150, 270])),
        ],
        ids=["square-hemisphere", "lune-triangle"],
    )
    def test_few_rows_when_a_generator_holds_the_maximum(self, monkeypatch, source, target):
        # the source's generators set the running maximum before any cell
        # is scored, and the cells' bounds then stop at a few hundred rows
        samples, exact = _all_sample_distances(source, target, 0.01)
        assert samples.shape[0] > 2048
        value, rows = _evaluated_rows(monkeypatch, source, target, 0.01)
        assert value == exact.max()
        assert rows < 1024

    def test_full_sphere_target(self):
        assert _FULL_SPHERE.normal_array.shape[0] == 0
        value, _ = metric.directed_distance_sampled(
            cap_body(1.0, [0, 90, 180, 270]), _FULL_SPHERE, 0.02
        )
        assert float(value) == 0.0

    @pytest.mark.parametrize(
        "target",
        [
            body.hemisphere_body([1.0, 0.0, 0.0]),
            body.from_generators([[0, 0, 1.0], [0, 0, -1.0], [1.0, 0, 0], [0, 1.0, 0]]),
            body.from_generators([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
        ],
        ids=["hemisphere", "lune", "arc"],
    )
    def test_targets_with_lineality_normals(self, monkeypatch, target):
        source = cap_body(1.2, [0, 90, 180, 270])
        samples, exact = _all_sample_distances(source, target, 0.01)
        value, rows = _evaluated_rows(monkeypatch, source, target, 0.01)
        assert value == exact.max()
        assert rows < samples.shape[0] // 2

    def test_hemisphere_target_closed_form(self):
        # the distance to H(e1) is asin(-e1 . x); over the square it peaks
        # at the vertex at azimuth 180, a sample, where it is 1.2
        source = cap_body(1.2, [0, 90, 180, 270])
        hemisphere = body.hemisphere_body([1.0, 0.0, 0.0])
        value, _ = metric.directed_distance_sampled(source, hemisphere, 0.01)
        assert abs(float(value) - 1.2) <= 1e-12

    def test_point_source(self):
        point = body.from_generators([[0.3, 0.1, 1.0]])
        target = cap_body(0.3, [45, 165, 285])
        val, err, path = metric.directed_distance_with_bound(point, target, 0.01)
        assert path == "exact" and err == 0.0
        assert float(val) == float(metric.point_body_distance(point.generator_array[0], target))
        _, exact = _all_sample_distances(point, target, 0.01)
        value, _ = metric.directed_distance_sampled(point, target, 0.01)
        assert float(value) == exact.max()
        assert abs(float(value) - float(val)) <= 1e-15

    def test_maximizer_far_from_the_target_generators(self, monkeypatch):
        # a small cap just beyond the middle of a long edge: its farthest
        # point is nearest to the edge's interior, about 1 from either end
        target = cap_body(1.0, [0, 120, 240])
        edge = target.generator_array[:2].sum(axis=0)
        edge /= np.linalg.norm(edge)
        center = edge - 0.25 * np.array([0.0, 0.0, 1.0])
        center /= np.linalg.norm(center)
        spread = 0.12 * np.array([[1.0, 0, 0], [-1.0, 0, 0], [0, 1.0, 0], [0, -1.0, 0]])
        source = body.from_generators(center + spread)
        r = 0.004
        samples, exact = _all_sample_distances(source, target, r)
        upper = metric._generator_upper_bound(samples, target)
        top = int(exact.argmax())
        assert upper[top] - exact[top] > 0.3
        # every nearest-generator bound is loose, but the grid cells inside
        # the source are bounded from the exact distance at their centers,
        # which is tight there: most of the samples are still skipped
        assert samples.shape[0] > 2048
        value, rows = _evaluated_rows(monkeypatch, source, target, r)
        assert value == exact.max()
        assert rows < samples.shape[0] // 2

    def test_small_source_scans_no_whole_grid(self, monkeypatch):
        # only the cell centers (16,224 rows, 3% of the grid) and the rows
        # of the cells near the source's boundary get a slack, not the
        # whole grid
        rows = []
        slack = kernels.min_slack

        def counted(X, M):
            rows.append(X.shape[0])
            return slack(X, M)

        monkeypatch.setattr(kernels, "min_slack", counted)
        r = 0.01
        metric.directed_distance_sampled(
            cap_body(0.3, [0, 72, 144, 216, 288]), cap_body(0.5, [30, 150, 270]), r
        )
        spacing = r / 2.05 / oracles.COVERING_COEFF[2]
        assert sum(rows) < 0.05 * oracles.sphere_grid(2, spacing).shape[0]

    @pytest.mark.parametrize("center", [(1.0, 0.0, 0.3), (0.2, 0.1, -1.0)])
    def test_deep_cells_are_bounded_before_their_centers_are_scored(self, monkeypatch, center):
        # the hemisphere's 7,928 deep cells lie mostly far below the
        # generators' running maximum on their nearest-generator bound;
        # scoring every deep center exactly is what the bound saves
        source = body.hemisphere_body(POLE)
        target = harness.cap_polytope(center, 0.3, 5)
        r = 0.01
        _, cells, _, _, _ = metric._cell_samples(source, r)
        slack = kernels.min_slack(cells.centers, source.normal_array)
        deep = np.flatnonzero(slack - cells.chords >= metric._DEEP_SLACK)
        centers = {row.tobytes() for row in cells.centers[deep]}
        _, exact = _all_sample_distances(source, target, r)
        blocks = _record_batches(monkeypatch)
        value, _ = metric.directed_distance_sampled(source, target, r)
        assert float(value) == exact.max()
        assert deep.size == 7928
        scored = sum(row.tobytes() in centers for X in blocks for row in X)
        assert scored < 0.05 * deep.size

    def test_source_inside_its_target_evaluates_few_samples(self, monkeypatch):
        # no point of the hemisphere is strictly within a quarter turn of all
        # of it, so it takes the sampled route; the deep cells inside the
        # target are dropped, and only the samples near the boundary circle
        # are evaluated
        hemisphere = body.hemisphere_body(POLE)
        r = 0.01
        samples = metric._body_sample_points(hemisphere, r).shape[0]
        assert samples == 271048
        blocks = _record_batches(monkeypatch)
        value, err, path = metric.directed_distance_with_bound(hemisphere, hemisphere, r)
        assert (float(value), err, path) == (0.0, r, "sampled")
        assert sum(X.shape[0] for X in blocks) < 0.05 * samples

    def test_source_leaving_the_target_by_rounding_size(self):
        # one vertex of the source lies 5e-9 beyond a vertex of the target,
        # so the cosine to it rounds to 1 and its upper bound reads 0,
        # below its own lower bound: only the pruning margin keeps it
        target = cap_body(0.8, [0, 90, 180, 270])
        source = cap_body(0.8, [90, 180, 270])
        pushed = np.array([math.sin(0.8 + 5e-9), 0.0, math.cos(0.8 + 5e-9)])
        lower = metric._hemisphere_lower_bound(pushed[None, :], target)
        upper = metric._generator_upper_bound(pushed[None, :], target)
        assert upper[0] == 0.0 < lower[0]
        source = body.from_generators(np.vstack([source.generator_array, pushed]))
        r = 0.01
        samples, exact = _all_sample_distances(source, target, r)
        assert samples.shape[0] > 2048
        assert abs(exact.max() - 5e-9) <= 1e-15
        value, _ = metric.directed_distance_sampled(source, target, r)
        assert float(value) == exact.max()


def _lp_deep_margin(a, b):
    """Best worst-case inner product of a convex combination of b's
    generators with a's generators (the linear-program formulation)."""
    Ga, Gb = a.generator_array, b.generator_array
    mb = Gb.shape[0]
    c = np.zeros(mb + 1)
    c[mb] = -1.0
    res = linprog(
        c,
        A_ub=np.hstack([-(Ga @ Gb.T), np.ones((Ga.shape[0], 1))]),
        b_ub=np.zeros(Ga.shape[0]),
        A_eq=np.hstack([np.ones((1, mb)), np.zeros((1, 1))]),
        b_eq=np.ones(1),
        bounds=[(0.0, None)] * mb + [(None, 2.0)],
        method="highs",
    )
    return res.x[mb]


def _least_distance_witness(a, b):
    """`metric._deep_witness` with the least-distance program alone, as it
    ran before the cheap candidates: min |z| subject to G_a z >= 1 and
    N_b z >= 0, normalized and re-verified on the raw arrays."""
    Ga, Nb = a.generator_array, b.normal_array
    h = np.concatenate([np.ones(Ga.shape[0]), np.zeros(Nb.shape[0])])
    z = cones.least_distance(np.vstack([Ga, Nb]), h)
    if z is None:
        return None
    w = z / float(np.linalg.norm(z))
    if float((Ga @ w).min()) <= 1e-9 or float((Nb @ w).min(initial=0.0)) < -metric.MEMBERSHIP_TOL:
        return None
    return w


class TestDeepWitness:
    def test_decisions_agree_with_the_linear_program(self):
        # points, arcs, hulls, wide caps, their polars and hemispheres on
        # S^1 to S^3, including pairs whose margin is exactly zero
        kinds = ["hull", "arc", "point", "wide_cap"]
        seen = {True: 0, False: 0}
        for dim in (1, 2, 3):
            pole = harness.pole_axis(dim)
            for t in range(16):
                rng = np.random.default_rng([dim, t, 5])
                a = harness.gen_convex_body(pole, kinds[t % 4], rng)
                b2 = harness.gen_convex_body(pole, kinds[t // 4], rng)
                pa = transforms.polar(a) if transforms.polar_admissible(a) else a
                hemi = body.hemisphere_body(-pole.vec)
                for x, y in ((a, b2), (b2, a), (pa, b2), (b2, pa), (b2, hemi), (hemi, b2)):
                    w = metric._deep_witness(x, y)
                    assert (w is not None) == (_lp_deep_margin(x, y) > 1e-9)
                    assert (w is not None) == (_least_distance_witness(x, y) is not None)
                    seen[w is not None] += 1
                    if w is not None:
                        assert body.contains(y, w)
                        assert float((x.generator_array @ w).min()) > 1e-9
        assert min(seen.values()) >= 50

    def test_exact_route_solves_no_linear_program(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("linprog called on the exact route")

        monkeypatch.setattr(metric, "linprog", refuse)
        pole = harness.pole_axis(2)
        w1 = harness.gen_wulff(pole, 8, 0.9, 9)
        w2 = harness.gen_wulff(pole, 8, 0.9, 10009)
        _, err, path = metric.hausdorff_with_bound(w1, w2)
        assert (err, path) == (0.0, "exact")

    def test_wulff_pairs_and_their_polars_solve_no_least_distance_program(self, monkeypatch):
        # a point one of the two bodies stores certifies every such pair
        def refuse(*args, **kwargs):
            raise AssertionError("least_distance called on a Wulff pair")

        monkeypatch.setattr(metric, "least_distance", refuse)
        pole = harness.pole_axis(2)
        for t in range(20):
            rng = np.random.default_rng([t, 23])
            w1, w2 = (
                harness.gen_wulff(pole, int(rng.integers(4, 9)), rng.uniform(0.1, 1.2),
                                  int(rng.integers(2**31)))
                for _ in range(2)
            )
            for a, b in ((w1, w2), (transforms.polar(w1), transforms.polar(w2))):
                _, err, path = metric.hausdorff_with_bound(a, b)
                assert (err, path) == (0.0, "exact")


class TestDimensionMismatchErrors:
    """Every entry point raises the package error, still a ValueError."""

    S2 = cap_body(0.5, [0, 120, 240])
    S1 = body.from_generators([[1.0, 0.0], [0.0, 1.0]])

    @pytest.mark.parametrize(
        "call",
        [
            lambda a, c: metric.point_body_distance([1.0, 0.0], a),
            lambda a, c: metric.point_body_distance_sampled([1.0, 0.0], a),
            lambda a, c: metric.batch_point_body_distance(np.eye(2), a),
            lambda a, c: metric.directed_distance_with_bound(a, c),
            lambda a, c: oracles.min_body_gap(a, c),
            lambda a, c: metric.separate(a, c),
        ],
        ids=[
            "point_body_distance",
            "point_body_distance_sampled",
            "batch_point_body_distance",
            "directed_distance_with_bound",
            "min_body_gap",
            "separate",
        ],
    )
    def test_raises_package_error(self, call):
        with pytest.raises(DimensionMismatchError):
            call(self.S2, self.S1)


class TestHausdorff:
    def test_symmetric_and_exact(self):
        a = cap_body(0.5, [0, 90, 180, 270])
        b2 = cap_body(0.8, [45, 135, 225, 315])
        d1, e1, p1 = metric.hausdorff_with_bound(a, b2)
        d2, e2, p2 = metric.hausdorff_with_bound(b2, a)
        assert float(d1) == float(d2)
        assert p1 == p2 == "exact"
        assert e1 == e2 == 0.0
        assert float(d1) >= float(metric.directed_distance(a, b2))
        assert float(d1) >= float(metric.directed_distance(b2, a))

    def test_triangle_inequality(self):
        a = cap_body(0.4, [0, 90, 180, 270])
        b2 = cap_body(0.6, [30, 120, 210, 300])
        c = cap_body(0.8, [60, 150, 240, 330])
        hab = float(metric.hausdorff(a, b2))
        hbc = float(metric.hausdorff(b2, c))
        hac = float(metric.hausdorff(a, c))
        assert hac <= hab + hbc + 1e-12

    def test_rotation_isometry(self):
        theta = 0.3
        c, s = math.cos(theta), math.sin(theta)
        R = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        a = cap_body(0.5, [0, 90, 180, 270])
        b2 = cap_body(0.7, [20, 140, 260])
        ra = body.from_generators(a.generator_array @ R.T)
        rb = body.from_generators(b2.generator_array @ R.T)
        assert float(metric.hausdorff(ra, rb)) == pytest.approx(
            float(metric.hausdorff(a, b2)), abs=1e-13
        )


_CONVEX_KINDS = ["hull", "arc", "point", "wide_cap"]


@st.composite
def convex_bodies(draw, count):
    """`count` seeded `gen_convex_body` bodies on one drawn sphere, S^1 or S^2."""
    dim = draw(st.sampled_from([1, 2]))
    return [_draw_body(draw, dim, _CONVEX_KINDS)[0] for _ in range(count)]


class TestHausdorffProperties:
    """The factor-2 bound of the polar and the triangle inequality on
    drawn convex bodies; sampled values are lower bounds within their
    error bounds, which widen the slack."""

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(convex_bodies(2))
    def test_polar_distorts_by_at_most_two(self, pair):
        a, b2 = pair
        h, e_primal, _ = metric.hausdorff_with_bound(a, b2, 0.02)
        hd, e_dual, _ = metric.hausdorff_with_bound(
            transforms.polar(a), transforms.polar(b2), 0.02
        )
        s = 2.0 * e_primal + e_dual + 1e-8
        assert float(h) / 2.0 - s <= float(hd) <= 2.0 * float(h) + s

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(convex_bodies(3))
    def test_triangle_inequality(self, triple):
        a, b2, c = triple
        h_ab, e_ab, _ = metric.hausdorff_with_bound(a, b2, 0.02)
        h_bc, e_bc, _ = metric.hausdorff_with_bound(b2, c, 0.02)
        h_ac, e_ac, _ = metric.hausdorff_with_bound(a, c, 0.02)
        assert float(h_ac) <= float(h_ab) + float(h_bc) + e_ab + e_bc + e_ac + 1e-12


@st.composite
def directed_pairs(draw):
    """Two seeded `gen_convex_body` bodies on one drawn sphere, S^1 to S^3."""
    dim = draw(st.sampled_from([1, 2, 3]))
    return _draw_body(draw, dim, _CONVEX_KINDS)[0], _draw_body(draw, dim, _CONVEX_KINDS)[0]


class TestDirectedIsometry:
    """Polarity swaps directed distances below a quarter turn:
    d(a, b) = d(b*, a*) whenever d(a, b) < pi/2."""

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(directed_pairs())
    def test_exact_directed_distance_survives_the_swap(self, pair):
        a, b2 = pair
        # only exact values are compared, so the sampled route is not run
        with mock.patch.object(metric, "directed_distance_sampled", lambda *_: (None, None)):
            d_ab, _, path_ab = metric.directed_distance_with_bound(a, b2)
            d_ba, _, path_ba = metric.directed_distance_with_bound(
                transforms.polar(b2), transforms.polar(a)
            )
        assume(path_ab == path_ba == "exact" and float(d_ab) < math.pi / 2.0 - 1e-6)
        assert abs(float(d_ab) - float(d_ba)) <= 1e-12


class TestHemisphereHausdorff:
    def test_closed_form(self):
        q = np.array([math.sin(0.25), 0.0, math.cos(0.25)])
        assert float(metric.hemisphere_hausdorff(POLE, q)) == pytest.approx(
            0.25, abs=1e-15
        )

    def test_saturates_at_quarter_turn(self):
        q = [math.sin(2.0), 0.0, math.cos(2.0)]  # centers 2.0 rad apart
        assert float(metric.hemisphere_hausdorff(POLE, q)) == pytest.approx(
            math.pi / 2, abs=1e-15
        )

    @staticmethod
    def validated(p, q, resolution):
        # the closed form against the sampled route on the hemisphere bodies
        closed = metric.hemisphere_hausdorff(p, q)
        sampled, err, path = metric.hausdorff_with_bound(
            body.hemisphere_body(p), body.hemisphere_body(q), resolution
        )
        assert path == "sampled"
        assert abs(float(closed) - float(sampled)) <= max(1e-8, 2.0 * err)
        return closed

    def test_validated_against_sampling_s1(self):
        p = np.array([0.0, 1.0])
        q = np.array([math.sin(0.3), math.cos(0.3)])
        val = self.validated(p, q, 0.005)
        assert float(val) == pytest.approx(0.3, abs=1e-15)

    def test_validated_against_sampling_s2(self):
        q = np.array([math.sin(0.4), 0.0, math.cos(0.4)])
        val = self.validated(POLE, q, 0.02)
        assert float(val) == pytest.approx(0.4, abs=1e-15)


def generator_route_mismatches(w, r, samples, seed):
    """The dilation-identity count with the hemispheres of the generators only.

    The literal finite formula: worst hemisphere deficit max over g of
    max(0, angle(x, g) - pi/2), on the samples and with the boundary
    band of `metric.dilation_intersection_mismatches`.  It is not
    equivalent to the identity (see that docstring); the frozen counts
    below pin where it fails.
    """
    X = uniform_sphere_points(w.generator_array.shape[1] - 1, samples, seed)
    dist_polar = metric.batch_point_body_distance(X, transforms.polar(w))
    worst = np.arccos(np.clip((X @ w.generator_array.T).min(axis=1), -1.0, 1.0))
    dist_hemis = np.maximum(worst - math.pi / 2.0, 0.0)
    in_polar = dist_polar <= r + 1e-10
    in_hemis = dist_hemis <= r + 1e-10
    near = (np.abs(dist_polar - r) <= metric.IDENTITY_BAND) | (
        np.abs(dist_hemis - r) <= metric.IDENTITY_BAND
    )
    return int(((in_polar != in_hemis) & ~near).sum()), int((~near).sum())


class TestDilationIdentity:
    def test_square_frozen_counts(self):
        pole = harness.pole_axis(2)
        sq = harness.cap_polytope(pole, math.pi / 6, 4, phase=math.pi / 4)
        assert metric.dilation_intersection_mismatches(
            sq, 0.3, samples=10_000, seed=42
        ) == (0, 10_000)
        assert generator_route_mismatches(sq, 0.3, 10_000, 42) == (4, 10_000)
        assert metric.dilation_intersection_check(sq, 0.3, 10_000, 42)

    def test_octagon_frozen_counts(self):
        pole = harness.pole_axis(2)
        cap8 = harness.cap_polytope(pole, 0.3, 8, phase=0.0)
        assert metric.dilation_intersection_mismatches(
            cap8, 0.45, samples=10_000, seed=42
        ) == (0, 10_000)
        assert generator_route_mismatches(cap8, 0.45, 10_000, 42) == (1, 10_000)

    def test_circle_arc_frozen_counts(self):
        s, c = math.sin(math.radians(80)), math.cos(math.radians(80))
        arc = body.from_generators([[s, c], [-s, c]])
        r = math.radians(11)
        assert metric.dilation_intersection_mismatches(
            arc, r, samples=4000, seed=3
        ) == (0, 4000)
        assert generator_route_mismatches(arc, r, 4000, 3) == (21, 4000)

    def test_dilation_contains(self):
        b = cap_body(0.5, [0, 120, 240])
        assert metric.dilation_contains(b, 0.5, POLE)
        far = np.array([1.0, 0.0, 0.0])
        assert not metric.dilation_contains(b, 0.5, far)
        assert metric.dilation_contains(b, 1.2, far)

    def test_input_validation(self):
        b = cap_body(0.5, [0, 120, 240])
        with pytest.raises(ValueError):
            metric.dilation_contains(b, 0.0, POLE)
        with pytest.raises(ValueError):
            metric.dilation_intersection_mismatches(b, 1.6, 100, 0)
        with pytest.raises(ValueError):
            metric.dilation_intersection_mismatches(b, 0.3, 0, 0)
        full = body.from_generators(np.vstack([np.eye(3), -np.eye(3)]))
        with pytest.raises(ValueError):
            metric.dilation_intersection_mismatches(full, 0.3, 100, 0)


class TestComplementaryAngles:
    def test_distance_complementarity(self):
        # d(-x, W) + d(x, polar(W)) = pi/2 whenever both distances are
        # strictly between 0 and pi/2
        pole = harness.pole_axis(2)
        sq = harness.cap_polytope(pole, math.pi / 6, 4, phase=math.pi / 4)
        pw = transforms.polar(sq)
        rng = np.random.default_rng(7)
        used = 0
        for _ in range(300):
            x = rng.normal(size=3)
            x /= np.linalg.norm(x)
            d1 = float(metric.point_body_distance(-x, sq))
            d2 = float(metric.point_body_distance(x, pw))
            if 1e-6 < d1 < math.pi / 2 - 1e-6 and 1e-6 < d2 < math.pi / 2 - 1e-6:
                used += 1
                assert d1 + d2 == pytest.approx(math.pi / 2, abs=1e-12)
        assert used > 100


class TestSeparation:
    def test_min_gap_two_points(self):
        a = body.from_generators([POLE])
        q = np.array([math.sin(0.9), 0.0, math.cos(0.9)])
        b2 = body.from_generators([q])
        assert float(oracles.min_body_gap(a, b2)) == pytest.approx(0.9, abs=1e-12)

    def test_min_gap_point_to_cap(self):
        cap = cap_body(0.6, [0, 90, 180, 270])
        pt = body.from_generators([[1.0, 0.0, 0.0]])
        assert float(oracles.min_body_gap(pt, cap)) == pytest.approx(
            math.pi / 2 - 0.6, abs=1e-12
        )

    def test_min_gap_antipodal_caps(self):
        # gap between a cap and its antipodal image is pi minus the
        # cap's diameter, attained at opposite vertices (diameter
        # 2 * colatitude for the square)
        north = cap_body(0.5, [0, 90, 180, 270])
        south = body.from_generators(-north.generator_array)
        gap = float(oracles.min_body_gap(north, south))
        assert gap == pytest.approx(math.pi - 2 * 0.5, abs=1e-10)

    @pytest.mark.parametrize("dim,pairs,seed", [(2, 100, 13), (3, 60, 17)])
    def test_min_gap_never_below_the_exact_gap(self, dim, pairs, seed):
        # below a quarter turn the gap is exactly pi/2 - d(-a, b*), since
        # dist(-x, b*) = pi/2 - dist(x, b) for every x of a; the oracle
        # returns a distance between body points, so it is never below
        rng = np.random.default_rng(seed)
        d = dim + 1
        used = 0
        while used < pairs:
            centers = rng.normal(size=(2, d))
            centers /= np.linalg.norm(centers, axis=1)[:, None]
            a = body.from_generators(centers[0] + 0.3 * rng.normal(size=(d + 1, d)))
            b2 = body.from_generators(centers[1] + 0.3 * rng.normal(size=(d + 1, d)))
            if not transforms.polar_admissible(b2):
                continue
            minus_a = body.from_generators(-a.generator_array)
            value = metric._exact_directed(minus_a, transforms.polar(b2))
            if value is None or value <= 1e-6:
                continue
            assert float(oracles.min_body_gap(a, b2)) >= math.pi / 2 - value - 1e-12
            used += 1

    def test_separate_and_reverify(self):
        cap = cap_body(0.4, [0, 120, 240])
        south_pt = body.from_generators([[0.3, 0.1, -0.9]])
        q = metric.separate(cap, south_pt)
        assert float((cap.generator_array @ q.vec).min()) >= -1e-9
        assert float((south_pt.generator_array @ q.vec).max()) < 0.0

    def test_separate_random_disjoint_pairs(self):
        rng = np.random.default_rng(91)
        done = 0
        while done < 15:
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            pts_a = axis + 0.3 * rng.normal(size=(4, 3))
            pts_b = -axis + 0.3 * rng.normal(size=(4, 3))
            a = body.from_generators(pts_a)
            b2 = body.from_generators(pts_b)
            if float(oracles.min_body_gap(a, b2)) <= 1e-3:
                continue
            q = metric.separate(a, b2)
            assert float((a.generator_array @ q.vec).min()) >= -1e-9
            assert float((b2.generator_array @ q.vec).max()) < 0.0
            done += 1

    def test_overlapping_pair_raises(self):
        a = cap_body(0.6, [0, 90, 180, 270])
        b2 = cap_body(0.6, [45, 135, 225, 315])
        with pytest.raises(SeparationError):
            metric.separate(a, b2)

    def test_touching_pair_raises(self):
        shared = [math.sin(0.5), 0.0, math.cos(0.5)]
        a = body.from_generators([POLE, shared])
        b2 = body.from_generators([shared, [math.sin(1.1), 0.0, math.cos(1.1)]])
        with pytest.raises(SeparationError):
            metric.separate(a, b2)

    def test_near_touching_point_gets_a_separator(self):
        # the separation program decides alone, with no gap test in front:
        # a point a few 1e-8 beyond a vertex of the cap is separated, and
        # the vertex itself is not
        cap = cap_body(0.8, [0, 90, 180, 270])

        def beyond_vertex(gap):
            return body.from_generators([[math.sin(0.8 + gap), 0.0, math.cos(0.8 + gap)]])

        for gap in (3e-8, 1e-7):
            pt = beyond_vertex(gap)
            q = metric.separate(cap, pt).vec
            assert float((cap.generator_array @ q).min()) >= -metric.MEMBERSHIP_TOL
            assert float((pt.generator_array @ q).max()) <= -cones.FEAS_EPS
        with pytest.raises(SeparationError):
            metric.separate(cap, beyond_vertex(0.0))

    def test_dimension_mismatch(self):
        a = cap_body(0.5, [0, 120, 240])
        c = body.from_generators([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            oracles.min_body_gap(a, c)
        with pytest.raises(ValueError):
            metric.separate(a, c)


class TestResolutionControls:
    def test_out_of_range_rejected(self):
        b = cap_body(0.5, [0, 120, 240])
        for bad in (0.0, -0.1, 0.1, 0.5):
            with pytest.raises(ResolutionError):
                metric.point_body_distance_sampled(POLE, b, bad)

    def test_s3_samples_at_0_06_by_default(self):
        # the S^1 and S^2 default, 0.005, would need a 6.2e9-point S^3 grid
        c = [0.0, 0.0, math.sin(0.3), math.cos(0.3)]
        value, err, path = metric.hausdorff_with_bound(
            body.hemisphere_body([0.0, 0.0, 0.0, 1.0]), body.hemisphere_body(c)
        )
        assert (err, path) == (0.06, "sampled")
        assert float(value) == pytest.approx(0.3, abs=0.06)

    def test_no_default_above_s3(self):
        # sphere grids stop at S^3, so a sampled S^4 pair has no default
        a = body.hemisphere_body([0.0, 0.0, 0.0, 0.0, 1.0])
        c = body.hemisphere_body([0.0, 0.0, 0.0, math.sin(0.3), math.cos(0.3)])
        with pytest.raises(ResolutionError, match="S\\^4"):
            metric.hausdorff_with_bound(a, c)
