"""Distances, dilations, separation: exact paths vs independent oracles."""

import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from wulffkit import body, harness, metric, oracles, transforms
from wulffkit.errors import (
    DimensionMismatchError,
    NonFiniteError,
    ResolutionError,
    SeparationError,
)
from wulffkit.geometry import geodesic_distance

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

    def test_matches_scalar_beyond_face_cap(self):
        # more generators than the enumeration cap: per-point projections
        # (points on a circle are all extreme, so none get reduced away)
        rng = np.random.default_rng(73)
        b = cap_body(0.5, list(range(0, 360, 9)))
        assert b.generator_array.shape[0] > metric._FACE_CAP[3]
        X = rng.normal(size=(20, 3))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        batch = metric.batch_point_body_distance(X, b)
        for i in range(X.shape[0]):
            assert batch[i] == pytest.approx(
                float(metric.point_body_distance(X[i], b)), abs=1e-12
            )

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


def _draw_body(draw, dim, kinds):
    kind = draw(st.sampled_from(kinds))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    pole = harness.pole_axis(dim)
    if kind == "wulff":
        b = harness.gen_wulff(pole, dim + 2 + int(rng.integers(0, 5)), rng.uniform(0.1, 1.3), seed)
    elif kind == "many":
        b = harness.cap_polytope(pole, rng.uniform(0.2, 1.3), metric._FACE_CAP[dim + 1] + 4)
    else:
        b = harness.gen_convex_body(pole, kind, rng)
    return b, rng, seed


def _query_rows(b, rng, seed):
    dim = b.generator_array.shape[1] - 1
    G = b.generator_array
    near = G[rng.integers(0, G.shape[0], 12)] + 0.1 * rng.normal(size=(12, dim + 1))
    near /= np.linalg.norm(near, axis=1, keepdims=True)
    return np.vstack([oracles.uniform_sphere_points(dim, 12, seed), near])


_KINDS = ["wulff", "hull", "arc", "point", "wide_cap", "many"]


@st.composite
def body_and_points(draw):
    """A seeded body of any drawn kind plus query rows on its sphere.

    The rows mix uniform points with points scattered around the
    generators, so members, face projections and far points all occur;
    on S^2 and S^3 the "many" kind exceeds the face enumeration cap.
    """
    dim = draw(st.sampled_from([1, 2, 3]))
    b, rng, seed = _draw_body(draw, dim, _KINDS)
    return b, _query_rows(b, rng, seed)


@st.composite
def body_pair_and_points(draw):
    """Two seeded bodies on one sphere plus query rows around the second.

    The source may exceed the face cap; the target stays within it, so
    the subset oracle's span products remain small.
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
        # distances unchanged
        a, b, X = case
        new = metric._nearest_body_points(X, b)[0]
        new_directed = metric._exact_directed(a, b)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(metric, "_face_spans", oracles.face_spans_bruteforce)
            old = metric._nearest_body_points(X, b)[0]
            old_directed = metric._exact_directed(a, b)
        assert np.abs(new - old).max() <= 1e-12
        assert (new_directed is None) == (old_directed is None)
        if new_directed is not None:
            assert abs(new_directed - old_directed) <= 1e-12


def _span_projector(T):
    return np.round(T.T @ T, 9)


class TestFaceSpans:
    """The face spans are exactly the body's faces of rank 2 to d - 1."""

    @pytest.mark.parametrize("m", [3, 4, 5, 8, 12])
    def test_regular_polygon_has_one_span_per_edge(self, m):
        b = harness.cap_polytope(harness.pole_axis(2), 0.7, m)
        spans = metric._face_spans(b)
        assert [T.shape for T in spans] == [(m, 2, 3)]
        # the subset oracle also carries every diagonal plane
        assert [T.shape for T in oracles.face_spans_bruteforce(b)] == [(math.comb(m, 2), 2, 3)]
        # each edge plane holds two adjacent vertices
        G = b.generator_array
        inside = np.abs(np.linalg.norm(G @ spans[0].transpose(0, 2, 1), axis=2) - 1.0) <= 1e-12
        assert (inside.sum(axis=1) == 2).all()

    def test_hemisphere_has_its_boundary_circle(self):
        spans = metric._face_spans(body.hemisphere_body(POLE))
        assert [T.shape for T in spans] == [(1, 2, 3)]
        assert np.allclose(_span_projector(spans[0][0]), np.diag([1.0, 1.0, 0.0]))

    def test_arc_has_its_own_plane(self):
        arc = body.from_generators([[1.0, 0.0, 0.2], [0.0, 1.0, 0.3]])
        spans = metric._face_spans(arc)
        assert [T.shape for T in spans] == [(1, 2, 3)]
        B, _ = arc.span()
        assert np.array_equal(_span_projector(spans[0][0]), _span_projector(B))

    def test_cube_cone_on_s3(self):
        G = np.array([[x, y, z, 3.0] for x, y, z in itertools.product([1.0, -1.0], repeat=3)])
        cube = body.from_generators(G)
        spans = sorted(metric._face_spans(cube), key=lambda T: T.shape[1])
        assert [T.shape for T in spans] == [(12, 2, 4), (6, 3, 4)]
        # the oracle's spans: 28 planes of vertex pairs and 20 3-spaces of
        # vertex triples, where each of the 12 coplanar quadruples gives one
        assert sum(T.shape[0] for T in oracles.face_spans_bruteforce(cube)) == 48
        # edge planes hold 2 cube vertices, facet 3-spaces hold 4
        U = cube.generator_array
        for T, per in zip(spans, (2, 4)):
            inside = np.abs(np.linalg.norm(U @ T.transpose(0, 2, 1), axis=2) - 1.0) <= 1e-12
            assert (inside.sum(axis=1) == per).all()

    def test_no_spans_for_a_point_or_the_whole_sphere(self):
        assert metric._face_spans(body.from_generators([POLE])) == []
        full = body.from_generators(np.vstack([np.eye(3), -np.eye(3)]))
        assert metric._face_spans(full) == []


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


# resolutions of the pruning properties: coarse enough for 30 drawn
# pairs, fine enough for wide bodies to get thousands of samples
_PRUNE_RESOLUTION = {1: 0.01, 2: 0.04, 3: 0.099}


@st.composite
def sampled_pairs(draw):
    """Two seeded bodies of any drawn kind on one sphere, S^1 to S^3."""
    dim = draw(st.sampled_from([1, 2, 3]))
    return _draw_body(draw, dim, _KINDS)[0], _draw_body(draw, dim, _KINDS)[0]


def _all_sample_distances(a, b, resolution):
    samples = metric._body_sample_points(a, resolution)
    return samples, metric.batch_point_body_distance(samples, b)


def _evaluated_rows(monkeypatch, a, b, resolution):
    """The sampled value and the number of samples it evaluated exactly."""
    rows = []
    evaluate = metric.batch_point_body_distance

    def counted(X, target):
        rows.append(X.shape[0])
        return evaluate(X, target)

    monkeypatch.setattr(metric, "batch_point_body_distance", counted)
    value, _ = metric.directed_distance_sampled(a, b, resolution)
    return float(value), sum(rows)


class TestSampledPruning:
    """The sampled route returns the maximum over its whole sample set."""

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(sampled_pairs())
    def test_pruned_maximum_is_the_full_maximum(self, pair):
        a, b = pair
        r = _PRUNE_RESOLUTION[a.ambient_dim]
        samples, exact = _all_sample_distances(a, b, r)
        lower, upper = metric._distance_bounds(samples, b)
        # the bounds bracket every exact distance; the upper bound's
        # arccos is off by up to sqrt(2 * 4 ulp) near zero
        assert (lower <= exact + 1e-9).all()
        assert (exact <= upper + 5e-8).all()
        value, _ = metric.directed_distance_sampled(a, b, r)
        assert abs(float(value) - exact.max()) <= 1e-15
        # a small first pass and small bound blocks put the pruning pass
        # to work on every pair, not only on those with many samples
        with mock.patch.object(metric, "_FIRST_PASS", 8), mock.patch.object(
            metric, "_BOUND_BLOCK", 100
        ):
            value, _ = metric.directed_distance_sampled(a, b, r)
        assert abs(float(value) - exact.max()) <= 1e-15

    def test_full_sphere_target(self):
        full = body.from_generators(np.vstack([np.eye(3), -np.eye(3)]))
        assert full.normal_array.shape[0] == 0
        value, _ = metric.directed_distance_sampled(cap_body(1.0, [0, 90, 180, 270]), full, 0.02)
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

    def test_maximizer_far_from_the_target_generators(self):
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
        _, upper = metric._distance_bounds(samples, target)
        top = int(exact.argmax())
        assert upper[top] - exact[top] > 0.3
        # every upper bound is loose, so nothing can be pruned here
        assert samples.shape[0] > metric._FIRST_PASS
        value, _ = metric.directed_distance_sampled(source, target, r)
        assert float(value) == exact.max()

    def test_source_leaving_the_target_by_rounding_size(self):
        # one vertex of the source lies 5e-9 beyond a vertex of the target,
        # so the cosine to it rounds to 1 and its upper bound reads 0,
        # below its own lower bound: only the pruning margin keeps it
        target = cap_body(0.8, [0, 90, 180, 270])
        source = cap_body(0.8, [90, 180, 270])
        pushed = np.array([math.sin(0.8 + 5e-9), 0.0, math.cos(0.8 + 5e-9)])
        lower, upper = metric._distance_bounds(pushed[None, :], target)
        assert upper[0] == 0.0 < lower[0]
        source = body.from_generators(np.vstack([source.generator_array, pushed]))
        r = 0.01
        samples, exact = _all_sample_distances(source, target, r)
        assert samples.shape[0] > metric._FIRST_PASS
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


class TestDimensionMismatchErrors:
    """Every entry point raises the package error, still a ValueError."""

    S2 = cap_body(0.5, [0, 120, 240])
    S1 = body.from_generators([[1.0, 0.0], [0.0, 1.0]])

    @pytest.mark.parametrize(
        "call",
        [
            lambda a, c: metric.point_body_distance([1.0, 0.0], a),
            lambda a, c: metric.batch_point_body_distance(np.eye(2), a),
            lambda a, c: metric.directed_distance_with_bound(a, c),
            lambda a, c: metric.min_body_gap(a, c),
            lambda a, c: metric.separate(a, c),
        ],
        ids=[
            "point_body_distance",
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
    X = oracles.uniform_sphere_points(w.generator_array.shape[1] - 1, samples, seed)
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
        assert float(metric.min_body_gap(a, b2)) == pytest.approx(0.9, abs=1e-12)

    def test_min_gap_point_to_cap(self):
        cap = cap_body(0.6, [0, 90, 180, 270])
        pt = body.from_generators([[1.0, 0.0, 0.0]])
        assert float(metric.min_body_gap(pt, cap)) == pytest.approx(
            math.pi / 2 - 0.6, abs=1e-12
        )

    def test_min_gap_antipodal_caps(self):
        # gap between a cap and its antipodal image is pi minus the
        # cap's diameter, attained at opposite vertices (diameter
        # 2 * colatitude for the square)
        north = cap_body(0.5, [0, 90, 180, 270])
        south = body.from_generators(-north.generator_array)
        gap = float(metric.min_body_gap(north, south))
        assert gap == pytest.approx(math.pi - 2 * 0.5, abs=1e-10)

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
            if float(metric.min_body_gap(a, b2)) <= 1e-3:
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

    def test_dimension_mismatch(self):
        a = cap_body(0.5, [0, 120, 240])
        c = body.from_generators([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            metric.min_body_gap(a, c)
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
