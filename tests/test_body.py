"""Canonical body construction, membership, predicates, serialization."""

import json
import math

import numpy as np
import pytest

from wulffkit import body, cones, harness
from wulffkit.errors import DimensionMismatchError, NonFiniteError, ShapeFileError


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

    def test_tolerance_knob(self):
        b = body.from_generators(cap_points(0.6, [0, 90, 180, 270]))
        # an edge midpoint sits on exactly one face; push it just outside
        v = cap_points(0.6, [0, 90])
        mid = v[0] + v[1]
        mid /= np.linalg.norm(mid)
        face = b.normal_array[int(np.argmin(b.normal_array @ mid))]
        assert abs(face @ mid) < 1e-12
        q = mid - 2e-7 * face
        q /= np.linalg.norm(q)
        assert not body.contains(b, q, tol=1e-9)
        assert body.contains(b, q, tol=1e-5)


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
        assert ei.value.field == "generators"
        assert "expected 3" in str(ei.value)

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
