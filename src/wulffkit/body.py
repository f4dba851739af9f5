"""Closed spherically convex subsets of S^n as polyhedral cone caps.

A body stores both descriptions of its cone: the generating rays
(V-form; the body is cone(generators) intersected with the sphere) and
the supporting normals (H-form; the body is the set of unit q with
n . q >= 0 for every normal n, inside the cone's linear span).  Both
lists are canonical — lexicographically sorted and irredundant — so
equal bodies have identical representations up to tolerance.

Non-pointed cones (hemispheres, lunes, subspheres) carry their
lineality as explicit +/- basis-vector generator pairs; the span
condition in `contains` is then automatic.
"""

import dataclasses
import json

import numpy as np
from scipy.optimize import linear_sum_assignment

from . import cones
from .errors import DimensionMismatchError, NonFiniteError, ShapeFileError
from .geometry import (
    MEMBERSHIP_TOL,
    UnitPoint,
    as_unit_point,
    as_vector,
    complement_basis,
)

# rank decisions (does the body span the ambient space, what is the
# dimension of a face span) reuse the cone-layer tolerance
_SPAN_TOL = cones.SPAN_TOL


class SphericalBody:
    """Canonical polyhedral-cone cap on S^n.

    Build through `from_generators` / `hemisphere_body`; the raw
    constructor trusts its inputs and is internal.
    """

    def __init__(self, gens, normals, _trusted=False):
        if not _trusted:
            raise TypeError(
                "construct bodies via from_generators or hemisphere_body"
            )
        gens = np.asarray(gens, dtype=float)
        normals = np.asarray(normals, dtype=float).reshape(-1, gens.shape[1])
        gens.flags.writeable = False
        normals.flags.writeable = False
        self._gens = gens
        self._normals = normals
        self.canonical = True
        self._cache = {}

    # -- representation ------------------------------------------------

    @property
    def ambient_dim(self):
        return self._gens.shape[1] - 1

    @property
    def generator_array(self):
        return self._gens

    @property
    def normal_array(self):
        return self._normals

    @property
    def generators(self):
        return [UnitPoint(row) for row in self._gens]

    @property
    def support_normals(self):
        return [UnitPoint(row) for row in self._normals]

    def span(self):
        """Orthonormal basis (rows) of the cone's linear span; cached."""
        if "span" not in self._cache:
            B, rank = cones.span_basis(self._gens)
            self._cache["span"] = (B, rank)
        return self._cache["span"]

    def __repr__(self):
        return (
            f"<SphericalBody dim={self.ambient_dim} "
            f"generators={self._gens.shape[0]} "
            f"normals={self._normals.shape[0]}>"
        )


def _build_canonical(points):
    """Canonical generator matrix from raw candidate rays."""
    rays, lin = cones.extreme_rays(points)
    return cones.rays_with_lineality(rays, lin)


def from_generators(points):
    """Spherical convex hull (cone-cap) of the given points.

    The generators are reduced to the extreme rays of their cone (plus
    the +/- lineality convention for non-pointed input) and the support
    normals are computed by exact dual-cone conversion.  If the points
    positively span the whole space the body is the full sphere and the
    normal list is empty.
    """
    if isinstance(points, np.ndarray):
        raw = points.astype(float)
    else:
        pts = list(points)
        if len(pts) == 0:
            raise ValueError("need at least one generator")
        raw = np.array([as_vector(p) for p in pts], dtype=float)
    if raw.ndim != 2 or raw.shape[0] == 0:
        raise ValueError("need at least one generator")
    if not np.isfinite(raw).all():
        raise NonFiniteError("generator coordinates must be finite")
    gens = _build_canonical(raw)
    if gens.shape[0] == 0:
        raise ValueError("generators span no direction")
    d_rays, d_lin = cones.dual_cone_rays(gens)
    normals = cones.rays_with_lineality(d_rays, d_lin)
    body = SphericalBody(gens, normals, _trusted=True)
    _check_cross_consistency(body)
    return body


def _check_cross_consistency(body):
    if body.normal_array.shape[0] and body.generator_array.shape[0]:
        slack = body.generator_array @ body.normal_array.T
        worst = float(slack.min())
        if worst < -MEMBERSHIP_TOL:
            raise AssertionError(
                f"generator/normal representations disagree: slack {worst:.3e}"
            )


def hemisphere_body(center):
    """The closed hemisphere H(center) as a body.

    Generators are the center plus +/- a canonical orthonormal basis of
    its orthogonal complement; the single support normal is the center.
    """
    c = as_unit_point(center)
    comp = complement_basis(c)
    gens = cones.lex_sorted_rows(
        np.vstack([c.vec[None, :], comp, -comp])
    )
    normals = c.vec[None, :]
    return SphericalBody(gens, normals, _trusted=True)


def contains(body, q, tol=MEMBERSHIP_TOL):
    """Closed membership test: all normal slacks >= -tol and q within
    tol of the cone's linear span (the span condition matters for
    lower-dimensional bodies)."""
    v = as_vector(q)
    if v.size != body.ambient_dim + 1:
        raise DimensionMismatchError(
            f"point in R^{v.size}, body in R^{body.ambient_dim + 1}"
        )
    N = body.normal_array
    if N.shape[0] and float((N @ v).min()) < -tol:
        return False
    B, rank = body.span()
    if rank < v.size:
        resid = v - (v @ B.T) @ B
        if float(np.linalg.norm(resid)) > tol:
            return False
    return True


def is_hemispherical(body):
    """Whether the body avoids some closed hemisphere.

    Equivalent to pointedness of its cone; decided by a strictly
    positive functional on the generators (witness re-verified, not
    trusted from the LP).
    """
    if "hemispherical" not in body._cache:
        w = cones.pointed_witness(body.generator_array)
        body._cache["hemispherical"] = (w is not None)
        body._cache["hemispherical_witness"] = w
    return body._cache["hemispherical"]


def hemispherical_witness(body):
    """The verified witness direction, or None."""
    is_hemispherical(body)
    return body._cache["hemispherical_witness"]


def has_interior(body):
    """Whether the body has nonempty interior in S^n: the cone must be
    full-dimensional and admit a ray strictly inside every supporting
    half-space."""
    if "interior" not in body._cache:
        _, rank = body.span()
        if rank < body.ambient_dim + 1:
            body._cache["interior"] = False
        else:
            w = cones.interior_witness(
                body.normal_array, body.ambient_dim + 1
            )
            body._cache["interior"] = w is not None
    return body._cache["interior"]


def is_wulff_relative(body, p):
    """Wulff test relative to p: (a) every generator is strictly inside
    H(p) (the body misses H(-p)), (b) p is an interior point, (c) the
    body is a spherical convex body (full rank with interior).

    Clause (a)'s witness makes the hemisphericity part of (c) automatic.
    p is normalized first, so its scale does not matter.
    """
    v = as_unit_point(p).vec
    if v.size != body.ambient_dim + 1:
        raise DimensionMismatchError("dimension mismatch in Wulff test")
    G = body.generator_array
    if float((G @ v).min()) < cones.FEAS_EPS:
        return False
    _, rank = body.span()
    if rank < body.ambient_dim + 1:
        return False
    N = body.normal_array
    if N.shape[0] == 0:
        return False
    return float((N @ v).min()) >= cones.FEAS_EPS


def canonicalize(body):
    """Re-run redundancy elimination; idempotent on canonical bodies."""
    return from_generators(body.generator_array)


def body_match_angle(a, b):
    """Largest pairwise geodesic gap of the optimal generator matching,
    or +inf when the generator counts differ.

    This is the quantitative core of bodies_equal: canonical generator
    lists are compared as sets via an optimal assignment.
    """
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatchError("bodies live on different spheres")
    A = a.generator_array
    B = b.generator_array
    if A.shape[0] != B.shape[0]:
        return float("inf")
    # chordal form 2 asin(|u - v| / 2): exact for unit vectors and, unlike
    # arccos of the dot, has no 1e-8 precision floor near zero angles
    diff = np.linalg.norm(A[:, None, :] - B[None, :, :], axis=2)
    cost = 2.0 * np.arcsin(np.clip(diff / 2.0, 0.0, 1.0))
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def bodies_equal(a, b, tol):
    """Set equality of canonical generator lists within geodesic tol."""
    return body_match_angle(a, b) <= float(tol)


# -- serialization -----------------------------------------------------


@dataclasses.dataclass
class ShapeSpec:
    """Serializable description of a body: sphere dimension, generator
    rows, optional label."""

    ambient_dim: int
    generator_rows: list
    label: str = None

    def __post_init__(self):
        self.ambient_dim = int(self.ambient_dim)
        if self.ambient_dim < 1:
            raise ValueError("ambient_dim must be >= 1")
        rows = []
        for i, row in enumerate(self.generator_rows):
            arr = [float(x) for x in row]
            if len(arr) != self.ambient_dim + 1:
                raise ValueError(
                    f"generator {i} has {len(arr)} coordinates, "
                    f"expected {self.ambient_dim + 1}"
                )
            if not np.isfinite(arr).all():
                raise ValueError(f"generator {i} has non-finite entries")
            if np.linalg.norm(arr) < 1e-9:
                raise ValueError(f"generator {i} is (numerically) zero")
            rows.append(tuple(arr))
        self.generator_rows = rows

    def to_body(self):
        return from_generators(np.array(self.generator_rows, dtype=float))

    @staticmethod
    def from_body(body, label=None):
        return ShapeSpec(
            ambient_dim=body.ambient_dim,
            generator_rows=[tuple(r) for r in body.generator_array],
            label=label,
        )

    def to_json(self):
        doc = {
            "dim": self.ambient_dim,
            "generators": [list(r) for r in self.generator_rows],
        }
        if self.label is not None:
            doc["label"] = self.label
        # json emits shortest-round-trip float literals, so canonical
        # bodies survive a save/load cycle bit for bit
        return json.dumps(doc, indent=2) + "\n"

    @staticmethod
    def from_json(text, path=None):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as e:
            raise ShapeFileError(
                f"invalid JSON: {e.msg}", path=path, line=e.lineno
            ) from e
        if not isinstance(doc, dict):
            raise ShapeFileError("top level must be an object", path=path)
        if "dim" not in doc:
            raise ShapeFileError("missing field", path=path, field="dim")
        if not isinstance(doc["dim"], int) or isinstance(doc["dim"], bool):
            raise ShapeFileError(
                "must be an integer", path=path, field="dim"
            )
        if "generators" not in doc:
            raise ShapeFileError(
                "missing field", path=path, field="generators"
            )
        gens = doc["generators"]
        if not isinstance(gens, list) or not gens:
            raise ShapeFileError(
                "must be a nonempty array", path=path, field="generators"
            )
        for i, row in enumerate(gens):
            if not isinstance(row, list) or not all(
                isinstance(x, (int, float)) and not isinstance(x, bool)
                for x in row
            ):
                raise ShapeFileError(
                    "must be an array of numbers",
                    path=path,
                    field=f"generators[{i}]",
                )
        label = doc.get("label")
        if label is not None and not isinstance(label, str):
            raise ShapeFileError("must be a string", path=path, field="label")
        try:
            return ShapeSpec(doc["dim"], gens, label)
        except ValueError as e:
            raise ShapeFileError(str(e), path=path, field="generators") from e


def save_shape(body_or_spec, path, label=None):
    spec = (
        body_or_spec
        if isinstance(body_or_spec, ShapeSpec)
        else ShapeSpec.from_body(body_or_spec, label=label)
    )
    with open(path, "w") as fh:
        fh.write(spec.to_json())


def load_shape(path):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as e:
        raise ShapeFileError(str(e), path=path) from e
    return ShapeSpec.from_json(text, path=path)
