"""Canonical body construction, membership, predicates, serialization."""

import itertools
import json
import math

import numpy as np
import pytest
import scipy.linalg

from wulffkit import body, cones, harness, metric, transforms
from wulffkit.errors import (
    DimensionMismatchError,
    NonFiniteError,
    NormalizationError,
    ShapeFileError,
)


def cap_points(colat, azimuths_deg):
    """Points at a fixed colatitude around the S^2 pole."""
    rows = []
    for a in azimuths_deg:
        t = math.radians(a)
        rows.append(
            [math.sin(colat) * math.cos(t), math.sin(colat) * math.sin(t), math.cos(colat)]
        )
    return np.array(rows)


class TestConstruction:
    def test_raw_constructor_is_internal(self):
        with pytest.raises(TypeError, match="from_generators"):
            body.SphericalBody(np.eye(3), np.eye(3))

    def test_redundant_interior_generator_dropped(self):
        square = cap_points(0.5, [0, 90, 180, 270])
        with_pole = np.vstack([square, [[0.0, 0.0, 1.0]]])
        b = body.from_generators(with_pole)
        assert b.generator_array.shape == (4, 3)
        assert body.contains(b, [0.0, 0.0, 1.0])

    def test_duplicate_generators_deduped(self):
        pts = cap_points(0.4, [0, 120, 240])
        b = body.from_generators(np.vstack([pts, pts, pts]))
        assert b.generator_array.shape == (3, 3)

    def test_generators_unit_and_lex_sorted(self):
        b = body.from_generators(cap_points(0.7, [15, 100, 250]))
        G = b.generator_array
        assert np.allclose(np.linalg.norm(G, axis=1), 1.0, atol=1e-12)
        assert (G == cones.lex_sorted_rows(G)).all()

    def test_arrays_read_only(self):
        b = body.from_generators(cap_points(0.4, [0, 120, 240]))
        with pytest.raises(ValueError):
            b.generator_array[0, 0] = 5.0
        with pytest.raises(ValueError):
            b.normal_array[0, 0] = 5.0

    def test_input_normalized(self):
        b = body.from_generators([[0.0, 0.0, 7.0]])
        assert np.allclose(b.generator_array, [[0.0, 0.0, 1.0]])

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            body.from_generators([])

    def test_non_finite_input_rejected(self):
        pts = cap_points(0.4, [0, 120, 240])
        pts[1, 2] = math.nan
        with pytest.raises(NonFiniteError):
            body.from_generators(pts)
        with pytest.raises(NonFiniteError):
            body.from_generators([[0.0, 0.0, 1.0], [math.inf, 0.0, 1.0]])

    def test_huge_rows_normalize_without_overflow(self):
        # the norms of 1e200-sized rows overflow unless each row is first
        # scaled down to unit size
        pts = cap_points(0.4, [0, 120, 240])
        huge = body.from_generators(1e200 * pts)
        assert body.bodies_equal(huge, body.from_generators(pts), 1e-12)

    def test_generator_normal_cross_consistency(self):
        # every generator weakly inside every supporting half-space
        rng = np.random.default_rng(5)
        for _ in range(20):
            pts = rng.normal(size=(6, 3))
            pts[:, 2] = np.abs(pts[:, 2]) + 0.5
            b = body.from_generators(pts)
            slack = b.generator_array @ b.normal_array.T
            assert float(slack.min()) >= -1e-9

    @pytest.mark.parametrize("k", [7, 8, 9])
    def test_caps_just_short_of_a_hemisphere(self, k):
        # the dual rays of these caps lie about 10^-k from the pole, so a
        # merge of rays closer than 1e-9 drops most normals at k = 9
        radius = math.pi / 2 - 10.0**-k
        for n, normals in ((2, 8), (3, 10)):
            b = harness.cap_polytope(harness.pole_axis(n), radius, 8)
            assert b.normal_array.shape[0] == normals
        # the equator point between the S^2 cap's first two vertices lies
        # outside the edge joining them, by arcsin(x . nu) for the edge's
        # unit normal nu: about 1.08 * 10^-k
        b = harness.cap_polytope(harness.pole_axis(2), radius, 8)
        g0, g1 = cap_points(radius, [0, 45])
        nu = np.cross(g0, g1) / np.linalg.norm(np.cross(g0, g1))
        x = np.array([math.cos(math.pi / 8), math.sin(math.pi / 8), 0.0])
        d = metric.point_body_distance(x, b)
        assert d <= 2.0 * 10.0**-k
        assert d == pytest.approx(math.asin(abs(x @ nu)), rel=1e-6)

    def test_singleton_body(self):
        b = body.from_generators([[0.0, 0.0, 1.0]])
        assert b.generator_array.shape == (1, 3)
        assert body.contains(b, [0.0, 0.0, 1.0])
        assert not body.contains(b, [0.1, 0.0, 0.995])


class TestHemisphereBody:
    def test_structure(self):
        h = body.hemisphere_body([0.0, 0.0, 1.0])
        assert h.normal_array.shape == (1, 3)
        assert np.allclose(h.normal_array[0], [0.0, 0.0, 1.0])
        # center plus +/- complement basis
        assert h.generator_array.shape == (5, 3)

    def test_membership(self):
        h = body.hemisphere_body([0.0, 0.0, 1.0])
        assert body.contains(h, [1.0, 0.0, 0.0])  # boundary
        assert body.contains(h, [0.0, 0.0, 1.0])
        assert not body.contains(h, [0.0, 0.1, -0.995])

    def test_not_hemispherical_itself(self):
        # contains antipodal boundary pairs, so avoids no open hemisphere
        h = body.hemisphere_body([0.0, 0.0, 1.0])
        assert not body.is_hemispherical(h)
        assert body.hemispherical_witness(h) is None


class TestContains:
    def test_convex_combinations_inside(self):
        b = body.from_generators(cap_points(0.6, [0, 90, 180, 270]))
        rng = np.random.default_rng(11)
        G = b.generator_array
        for _ in range(50):
            lam = rng.random(4)
            v = lam @ G
            v /= np.linalg.norm(v)
            assert body.contains(b, v)

    def test_outside_points_rejected(self):
        b = body.from_generators(cap_points(0.6, [0, 90, 180, 270]))
        assert not body.contains(b, [0.0, 0.0, -1.0])
        assert not body.contains(b, [1.0, 0.0, 0.0])

    def test_span_condition_for_arcs(self):
        # an arc on S^2 rejects points off its great circle even when
        # every normal slack is fine
        arc = body.from_generators([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        mid = np.array([1.0, 1.0, 0.0]) / math.sqrt(2)
        assert body.contains(arc, mid)
        off = np.array([0.7, 0.7, 0.14])
        off /= np.linalg.norm(off)
        assert not body.contains(arc, off)

    def test_dimension_mismatch(self):
        b = body.from_generators(cap_points(0.4, [0, 120, 240]))
        with pytest.raises(DimensionMismatchError):
            body.contains(b, [1.0, 0.0])

    def test_non_finite_point_rejected(self):
        with pytest.raises(NonFiniteError):
            body.contains(body.hemisphere_body([0.0, 0.0, 1.0]), [math.nan, 0.0, 1.0])

    @pytest.mark.parametrize("scale", [1e-6, 1e6, 1e300])
    def test_scale_of_the_point_does_not_matter(self, scale):
        # 1e-11 below the boundary circle: inside within the tolerance at
        # unit length, and at every scale, since the point is normalized
        h = body.hemisphere_body([0.0, 0.0, 1.0])
        x = np.array([1.0, 0.0, -1e-11])
        assert body.contains(h, x)
        assert body.contains(h, scale * x) == body.contains(h, x)
        far = np.array([1.0, 0.0, -1e-3])
        assert not body.contains(h, far)
        assert body.contains(h, scale * far) == body.contains(h, far)

    def test_zero_point_rejected(self):
        with pytest.raises(NormalizationError):
            body.contains(body.hemisphere_body([0.0, 0.0, 1.0]), [0.0, 0.0, 0.0])

    def test_point_just_outside_a_face_rejected(self):
        b = body.from_generators(cap_points(0.6, [0, 90, 180, 270]))
        # an edge midpoint sits on exactly one face; push it just outside
        v = cap_points(0.6, [0, 90])
        mid = v[0] + v[1]
        mid /= np.linalg.norm(mid)
        face = b.normal_array[int(np.argmin(b.normal_array @ mid))]
        assert abs(face @ mid) < 1e-12
        q = mid - 2e-7 * face
        q /= np.linalg.norm(q)
        assert body.contains(b, mid)
        assert not body.contains(b, q)


class TestPredicates:
    def test_cap_is_hemispherical_with_verified_witness(self):
        b = body.from_generators(cap_points(1.2, [0, 72, 144, 216, 288]))
        assert body.is_hemispherical(b)
        w = body.hemispherical_witness(b)
        assert w is not None
        assert (b.generator_array @ w).min() > 0.0

    def test_full_sphere_not_hemispherical(self):
        b = body.from_generators(np.vstack([np.eye(3), -np.eye(3)]))
        assert not body.is_hemispherical(b)
        assert b.normal_array.shape[0] == 0

    def test_has_interior(self):
        cap = body.from_generators(cap_points(0.5, [0, 120, 240]))
        arc = body.from_generators([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        point = body.from_generators([[0.0, 0.0, 1.0]])
        assert body.has_interior(cap)
        assert not body.has_interior(arc)
        assert not body.has_interior(point)
        # the full sphere has no normals at all; a hemisphere has one
        full = body.from_generators(np.vstack([np.eye(3), -np.eye(3)]))
        assert full.normal_array.shape[0] == 0
        assert body.has_interior(full)
        assert body.has_interior(body.hemisphere_body([0.0, 0.0, 1.0]))

    def test_is_wulff_relative(self):
        pole = [0.0, 0.0, 1.0]
        cap = body.from_generators(cap_points(0.5, [0, 120, 240]))
        assert body.is_wulff_relative(cap, pole)
        # arc: no interior
        arc = body.from_generators([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        assert not body.is_wulff_relative(arc, [1.0, 1.0, 0.0] / np.sqrt(2))
        # hemisphere: generators reach the boundary of H(pole)
        hemi = body.hemisphere_body(pole)
        assert not body.is_wulff_relative(hemi, pole)
        # wrong relative point: outside the cap
        assert not body.is_wulff_relative(cap, [1.0, 0.0, 0.0])

    def test_wulff_test_ignores_the_scale_of_the_point(self):
        w = harness.gen_wulff(harness.pole_axis(2), 6, 0.5, 1)
        for scale in (1e-9, 1.0, 1e200):
            assert body.is_wulff_relative(w, [0.0, 0.0, scale])
        assert not body.is_wulff_relative(w, [0.0, 0.0, -1e-9])

    def test_wulff_dimension_mismatch(self):
        cap = body.from_generators(cap_points(0.5, [0, 120, 240]))
        with pytest.raises(DimensionMismatchError):
            body.is_wulff_relative(cap, [1.0, 0.0])


def _seeded_bodies():
    # bodies from all three constructors on S^1-S^3: `gen_convex_body`
    # draws of every kind (`from_generators`), hemispheres about random
    # centers, and the polars of both (a hemisphere's is a point)
    for dim in (1, 2, 3):
        for kind in ("hull", "arc", "point", "wide_cap"):
            for seed in range(15):
                rng = np.random.default_rng(seed)
                drawn = harness.gen_convex_body(harness.pole_axis(dim), kind, rng)
                for b in (drawn, body.hemisphere_body(rng.normal(size=dim + 1))):
                    yield b
                    if transforms.polar_admissible(b):
                        yield transforms.polar(b)


class TestLinealityNormals:
    def test_complement_of_the_span_violates_a_normal(self):
        # the invariant that lets `contains` skip a span test
        rng = np.random.default_rng(5)
        for b in _seeded_bodies():
            C = scipy.linalg.null_space(b.generator_array)
            if C.shape[1]:
                c = C @ rng.normal(size=C.shape[1])
                c /= np.linalg.norm(c)
                assert (b.normal_array @ c).min() < 0.0

    def test_is_hemispherical_matches_the_linear_program(self):
        # caps 10^-k short of a hemisphere, k = 1..9; from k = 10 on their
        # construction is itself wrong (at k = 10 some normals are missing,
        # from k = 11 `extreme_rays` finds lineality in their generators),
        # so no predicate can be checked on them.  The S^3 cap's generators
        # span only 3 dimensions of R^4, so the reference projects its
        # linear program's witness onto their span; at k = 9 the pole clears
        # FEAS_EPS by 1.4e-16, and the witness does too only after that
        # projection
        caps = [
            harness.cap_polytope(harness.pole_axis(n), math.pi / 2 - 10.0**-k, 8)
            for n in (2, 3)
            for k in range(1, 10)
        ]
        for b in itertools.chain(_seeded_bodies(), caps):
            # the linear program, kept here as the reference
            assert body.is_hemispherical(b) == (cones.pointed_witness(b.generator_array) is not None)
            w = body.hemispherical_witness(b)
            if w is not None:
                assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-12)
                assert (b.generator_array @ w).min() >= cones.FEAS_EPS

    def test_has_interior_matches_the_linear_program_rule(self):
        for b in _seeded_bodies():
            N = b.normal_array
            # the linear-program rule, kept here as the reference
            rule = b.span()[1] == b.ambient_dim + 1 and (N.shape[0] == 0 or cones.pointed_witness(N) is not None)
            assert body.has_interior(b) == rule


def _ulp_nudged(X, seed):
    # every entry moved one ulp up or down at random
    rng = np.random.default_rng(seed)
    return np.nextafter(X, np.where(rng.random(X.shape) < 0.5, -np.inf, np.inf))


class TestCanonicalOrder:
    def test_stored_order_survives_last_bit_changes(self):
        # symmetric caps tie in their leading coordinates up to rounding;
        # the stored rows of a body and of its polar keep their order when
        # the input moves by an ulp
        inputs = []
        for n in (2, 3):
            pole = harness.pole_axis(n)
            inputs += [harness.cap_polytope(pole, 1.0, k).generator_array for k in (5, 8, 12, 60)]
            rng = np.random.default_rng(n)
            for _ in range(40):
                k = int(rng.integers(n + 2, n + 7))
                w = harness.gen_wulff(pole, k, rng.uniform(0.2, 1.3), int(rng.integers(2**31)))
                inputs.append(w.generator_array)

        def stored(X):
            b = body.from_generators(X)
            p = transforms.polar(b)
            return [b.generator_array, b.normal_array, p.generator_array, p.normal_array]

        for X in inputs:
            ref = stored(X)
            for seed in range(3):
                for A, B in zip(stored(_ulp_nudged(X, seed)), ref):
                    assert A.shape == B.shape
                    assert np.abs(A - B).max() <= 1e-9


class TestEquality:
    def test_canonicalize_idempotent(self):
        rng = np.random.default_rng(23)
        pts = rng.normal(size=(7, 3))
        pts[:, 2] = np.abs(pts[:, 2]) + 0.4
        b = body.from_generators(pts)
        again = body.canonicalize(b)
        assert body.body_match_angle(b, again) <= 1e-12

    def test_match_angle_reports_rotation(self):
        theta = 1e-4
        c, s = math.cos(theta), math.sin(theta)
        R = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        a = body.from_generators(cap_points(0.6, [0, 90, 180, 270]))
        b2 = body.from_generators(cap_points(0.6, [0, 90, 180, 270]) @ R.T)
        gap = body.body_match_angle(a, b2)
        # every vertex moves by theta * sin(colat)
        assert gap == pytest.approx(theta * math.sin(0.6), rel=1e-6)

    def test_match_angle_inf_on_count_mismatch(self):
        a = body.from_generators(cap_points(0.6, [0, 90, 180, 270]))
        b2 = body.from_generators(cap_points(0.6, [0, 120, 240]))
        assert body.body_match_angle(a, b2) == math.inf
        assert not body.bodies_equal(a, b2, 1.0)

    def test_match_angle_dimension_mismatch(self):
        a = body.from_generators(cap_points(0.6, [0, 90, 180]))
        c = body.from_generators([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(DimensionMismatchError):
            body.body_match_angle(a, c)

    def test_bodies_equal_tolerance(self):
        a = body.from_generators(cap_points(0.6, [0, 90, 180, 270]))
        jitter = cap_points(0.6, [0, 90, 180, 270]) + 1e-10
        b2 = body.from_generators(jitter)
        assert body.bodies_equal(a, b2, 1e-8)
        assert not body.bodies_equal(a, b2, 1e-12)


class TestShapeSpec:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(31)
        pts = rng.normal(size=(6, 4))
        pts[:, 3] = np.abs(pts[:, 3]) + 0.5
        b = body.from_generators(pts)
        path = tmp_path / "shape.json"
        body.save_shape(b, path, label="random-hull")
        spec = body.load_shape(path)
        assert spec.label == "random-hull"
        # the json layer is bit-exact on the stored rows
        assert spec.generator_rows == body.ShapeSpec.from_body(b).generator_rows
        # rebuilding may renormalize rows by an ulp either way; every
        # rebuild stays within that band of the previous one
        again = spec.to_body()
        assert np.abs(again.generator_array - b.generator_array).max() <= 1e-15
        body.save_shape(again, path)
        third = body.load_shape(path).to_body()
        assert np.abs(third.generator_array - again.generator_array).max() <= 1e-15
        assert body.body_match_angle(b, third) <= 1e-15

    def test_json_fields(self):
        b = body.from_generators([[0.0, 0.0, 2.0]])
        doc = json.loads(body.ShapeSpec.from_body(b, label="pt").to_json())
        assert doc == {"dim": 2, "generators": [[0.0, 0.0, 1.0]], "label": "pt"}

    def test_label_optional(self):
        b = body.from_generators([[0.0, 0.0, 1.0]])
        doc = json.loads(body.ShapeSpec.from_body(b).to_json())
        assert "label" not in doc

    def test_invalid_json_reports_line(self):
        with pytest.raises(ShapeFileError) as ei:
            body.ShapeSpec.from_json('{"dim": 2,\n "generators": [[1,0,0],]}')
        assert ei.value.line == 2

    def test_missing_dim(self):
        with pytest.raises(ShapeFileError) as ei:
            body.ShapeSpec.from_json('{"generators": [[1, 0, 0]]}')
        assert ei.value.field == "dim"

    def test_dim_must_be_integer(self):
        for bad in ('"2"', "2.0", "true"):
            with pytest.raises(ShapeFileError) as ei:
                body.ShapeSpec.from_json(
                    '{"dim": %s, "generators": [[1, 0, 0]]}' % bad
                )
            assert ei.value.field == "dim"

    def test_missing_or_empty_generators(self):
        with pytest.raises(ShapeFileError) as ei:
            body.ShapeSpec.from_json('{"dim": 2}')
        assert ei.value.field == "generators"
        with pytest.raises(ShapeFileError) as ei:
            body.ShapeSpec.from_json('{"dim": 2, "generators": []}')
        assert ei.value.field == "generators"

    def test_row_must_be_numbers(self):
        with pytest.raises(ShapeFileError) as ei:
            body.ShapeSpec.from_json(
                '{"dim": 2, "generators": [[1, 0, 0], [1, "x", 0]]}'
            )
        assert ei.value.field == "generators[1]"
        with pytest.raises(ShapeFileError) as ei:
            body.ShapeSpec.from_json(
                '{"dim": 2, "generators": [[1, 0, true]]}'
            )
        assert ei.value.field == "generators[0]"

    def test_row_length_mismatch(self):
        with pytest.raises(ShapeFileError) as ei:
            body.ShapeSpec.from_json('{"dim": 2, "generators": [[1, 0]]}')
        assert ei.value.field == "generators[0]"
        assert "expected 3" in str(ei.value)

    def test_dim_must_be_positive(self):
        for bad in ("0", "-1"):
            with pytest.raises(ShapeFileError) as ei:
                body.ShapeSpec.from_json('{"dim": %s, "generators": [[1.0]]}' % bad)
            assert ei.value.field == "dim"
            assert "field dim:" in str(ei.value)

    def test_bad_row_is_named_by_its_index(self):
        for rows, i in (
            ("[[1, 0, 0], [1, 0]]", 1),
            ("[[1, 0, 0], [0, 1, 0], [0, 0, 0]]", 2),
            ("[[1, 0, 1e999]]", 0),
            ("[[1, 0, 0], [1, 0, 1%s]]" % ("0" * 400), 1),
        ):
            with pytest.raises(ShapeFileError) as ei:
                body.ShapeSpec.from_json('{"dim": 2, "generators": %s}' % rows)
            assert ei.value.field == f"generators[{i}]"
            assert f"generator {i} " in str(ei.value)

    def test_zero_row_rejected(self):
        with pytest.raises(ShapeFileError) as ei:
            body.ShapeSpec.from_json(
                '{"dim": 2, "generators": [[0, 0, 0]]}'
            )
        assert "zero" in str(ei.value)

    def test_label_must_be_string(self):
        with pytest.raises(ShapeFileError) as ei:
            body.ShapeSpec.from_json(
                '{"dim": 2, "generators": [[1, 0, 0]], "label": 3}'
            )
        assert ei.value.field == "label"

    def test_top_level_must_be_object(self):
        with pytest.raises(ShapeFileError):
            body.ShapeSpec.from_json("[1, 2, 3]")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ShapeFileError) as ei:
            body.load_shape(tmp_path / "nope.json")
        assert str(tmp_path / "nope.json") in str(ei.value)

    def test_path_in_diagnostic(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"dim": 2}')
        with pytest.raises(ShapeFileError) as ei:
            body.load_shape(p)
        assert ei.value.path == p
        assert str(p) in str(ei.value)
