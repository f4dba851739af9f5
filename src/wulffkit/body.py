"""Closed spherically convex subsets of S^n as polyhedral cone caps.

A body stores both descriptions of its cone: the generating rays
(V-form; the body is cone(generators) intersected with the sphere) and
the supporting normals (H-form; the body is the set of unit q with
n . q >= 0 for every normal n, inside the cone's linear span).  Both
lists are canonical — lexicographically sorted and irredundant — so
equal bodies have identical representations up to tolerance.

Non-pointed cones (hemispheres, lunes, subspheres) carry their
lineality as explicit +/- basis-vector generator pairs; normals carry
the complement of a lower-dimensional cone's span the same way.  A body
also keeps both bases as arrays of their own, as its conversion found
them.
"""

import dataclasses
import json

import numpy as np

from . import cones, kernels
from .errors import DimensionMismatchError, NonFiniteError, ShapeFileError
from .geometry import (
    MEMBERSHIP_TOL,
    NEAR_ZERO,
    as_unit_point,
    as_vector,
    complement_basis,
)

class SphericalBody:
    """Canonical polyhedral-cone cap on S^n.

    Build through `from_generators`, `hemisphere_body` or
    `transforms.polar`; the raw constructor trusts its inputs, which are
    four arrays: the generators G, the normals N, and the two linealities
    the conversion found along with them:
    - `lineality_array`, an orthonormal basis of the lineality of
      cone(G), whose +/- rows are among the generators;
    - `complement_array`, an orthonormal basis of span(G)^perp, which is
      the lineality of the dual cone, and whose +/- rows are among the
      normals.
    So span(G) has rank d - len(complement_array).  A polar swaps its
    input's pairs (G, lineality) and (N, complement) and shares the
    arrays (they are read-only): the lineality of the dual cone K* is
    span(G)^perp, and span(K*)^perp is the lineality of K = cone(G).
    Only the cache is its own.

    Invariant: every unit c orthogonal to span(G) has n . c < 0 for some
    normal n, so the slack test min(N q) >= -tol alone decides membership.
    Proof: c . e != 0 for some row e of the complement basis, since c is
    a nonzero vector of the span of those rows, and one of +/- e, both
    stored normals, has negative slack.

    The predicates below read only the stored arrays.  `_cache` holds
    the one thing derived from them at a cost, under its one key,
    "basis_spans": the face spans of `metric`'s nearest-point routine
    and exact route that are read through bases, built there on first
    use.
    """

    def __init__(self, gens, normals, lineality=None, complement=None, _trusted=False):
        # every trusted caller passes all four arrays; the defaults only
        # let an untrusted call reach the error below
        if not _trusted:
            raise TypeError(
                "construct bodies via from_generators or hemisphere_body"
            )
        arrays = [np.asarray(a, dtype=float) for a in (gens, normals, lineality, complement)]
        for a in arrays:
            a.flags.writeable = False
        self._gens, self._normals, self._lineality, self._complement = arrays
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
    def lineality_array(self):
        return self._lineality

    @property
    def complement_array(self):
        return self._complement

    def __repr__(self):
        return (
            f"<SphericalBody dim={self.ambient_dim} "
            f"generators={self._gens.shape[0]} "
            f"normals={self._normals.shape[0]}>"
        )


def from_generators(points):
    """Spherical convex hull (cone-cap) of the given points.

    The points must be a 2-D array (or a list of vectors) of at least
    one row and at least 2 columns; anything else is refused with a
    `ValueError` naming its shape.  The generators are reduced to the
    extreme rays of their cone (plus the +/- lineality convention for
    non-pointed input) by `cones.extreme_rays`, and the support normals
    are the dual cone's generators in the same layout.  If the points
    positively span the whole space the body is the full sphere and the
    normal list is empty.

    Each body costs one conversion call, and keeps both linealities it
    found (see `SphericalBody`): the normals are the dual that
    `extreme_rays` found along with the generators, in closed form for
    independent rows (simplicial and arc inputs), off the section hull,
    or off the double description it read the rays from.  The normals
    of a pointed cone with a witness w in span(G) are read off the hull
    of its gnomonic section S = {x in cone(G) : x . w = 1}.  They are
    the cone's facets:
    - every nonzero x in the cone has x . w > 0, so x -> x / (x . w)
      maps the cone's faces other than {0} one to one onto S's nonempty
      faces, keeping inclusion, and so maps facets onto facets;
    - a facet inequality of S, linear on the hyperplane x . w = 1, is
      made homogeneous by writing its constant as a multiple of x . w
      there; it then holds on all of cone(G), which is S scaled, and is
      tight exactly on the facet's rays (`cones.extreme_rays`, branch 2,
      has the formula in the section's chart);
    - for rank 4 and up, Qhull's triangulated output splits a facet into
      simplices that all carry the facet's hyperplane, one equation row
      bit for bit, so grouping the pieces by that row gives each facet
      once;
    - for rank 3 the section is a polygon, hulled in closed form by a
      monotone chain that keeps a point as a vertex only when it lies
      more than `cones.CHORD_TOL` (times the section's scale) beyond its
      neighbours' chord, so its edges are the facets, each once.
    """
    if isinstance(points, np.ndarray):
        raw = points.astype(float)
    else:
        raw = np.array([as_vector(p) for p in points], dtype=float)
    if raw.ndim != 2 or raw.shape[0] == 0 or raw.shape[1] < 2:
        raise ValueError(f"need a 2-D array of generators in R^2 or up, got shape {raw.shape}")
    if not np.isfinite(raw).all():
        raise NonFiniteError("generator coordinates must be finite")
    rays, lin, dual = cones.extreme_rays(raw)
    gens = cones.rays_with_lineality(rays, lin)
    if gens.shape[0] == 0:
        raise ValueError("generators span no direction")
    normals = cones.rays_with_lineality(*dual)
    # the dual's lineality is span(G)^perp, G the generators stored
    body = SphericalBody(gens, normals, lin, dual[1], _trusted=True)
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
    its orthogonal complement, which is the cone's lineality; the single
    support normal is the center, and the cone spans R^d.
    """
    c = as_unit_point(center)
    comp = complement_basis(c)
    gens = cones.lex_sorted_rows(
        np.vstack([c.vec[None, :], comp, -comp])
    )
    return SphericalBody(gens, c.vec[None, :], comp, comp[:0], _trusted=True)


def contains(body, q):
    """Closed membership test: every normal slack is >= -MEMBERSHIP_TOL.

    `metric`'s nearest-point routine reads the same test with the same
    tolerance, so q is contained exactly when `point_body_distance` is 0;
    the span of a lower-dimensional body needs no test of its own (see
    `SphericalBody`).  q is normalized first, so any large multiple gets
    the same answer, but NEAR_ZERO = 1e-9 is an absolute floor (only the
    overflow side is scale-free): a shorter vector raises
    `NormalizationError`.
    """
    v = as_unit_point(q).vec
    if v.size != body.ambient_dim + 1:
        raise DimensionMismatchError(
            f"point in R^{v.size}, body in R^{body.ambient_dim + 1}"
        )
    return bool(kernels.min_slack(v[None, :], body.normal_array)[0] >= -MEMBERSHIP_TOL)


def hemispherical_witness(body):
    """Unit w with g . w >= FEAS_EPS for every generator g, or None.

    w is the normalized sum of the stored normals, re-verified on the
    generators; None when the sum vanishes or fails that check.  It
    exists exactly when the cone K = cone(G) is pointed, up to the
    margin FEAS_EPS:
    - K is pointed exactly when its dual K* has interior in R^d.
    - The normals generate K*, with its lineality as +/- basis rows
      (see `SphericalBody`); those rows cancel in the sum, which is thus
      a positive combination of the dual rays.
    - If K* has interior, its rays span R^d modulo that lineality, and a
      strictly positive combination of a spanning generator set lies in
      the interior of the cone they generate.  An interior point of K*
      is strictly positive on every nonzero point of K.
    - If K holds a line +/- x, no w is positive on both x and -x, so
      the check refuses every candidate.
    """
    s = body.normal_array.sum(axis=0)
    norm = float(np.linalg.norm(s))
    if norm < NEAR_ZERO:
        return None
    w = s / norm
    return w if float((body.generator_array @ w).min()) >= cones.FEAS_EPS else None


def is_hemispherical(body):
    """Whether the body lies in some open hemisphere: its cone is
    pointed, decided by `hemispherical_witness` from the stored normals
    (no solver, nothing cached)."""
    return hemispherical_witness(body) is not None


def has_interior(body):
    """Whether the body has nonempty interior in S^n: its cone spans R^d.

    A cone spanning R^d holds d independent rays, whose positive
    combinations form an open set; a cone in a proper subspace has none.
    The span has rank d less the stored complement's rows.
    """
    return body.complement_array.shape[0] == 0


def is_wulff_relative(body, p):
    """Wulff test relative to p: (a) every generator is strictly inside
    H(p) (the body misses H(-p)), (b) p is an interior point, (c) the
    body is a spherical convex body (full rank with interior).

    Clause (b), n . p >= FEAS_EPS for every normal n, decides (c) too: a
    rank-deficient body has a +/- pair of normals (see `SphericalBody`),
    and the full sphere, with no normals, has +/- pairs of generators and
    fails (a).  Clause (a)'s witness makes the hemisphericity part of (c)
    automatic.
    p is normalized first, so its scale does not matter.
    """
    v = as_unit_point(p).vec
    if v.size != body.ambient_dim + 1:
        raise DimensionMismatchError("dimension mismatch in Wulff test")
    G = body.generator_array
    if float((G @ v).min()) < cones.FEAS_EPS:
        return False
    return float((body.normal_array @ v).min()) >= cones.FEAS_EPS


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
    m = A.shape[0]
    from scipy.optimize import linear_sum_assignment

    cost = kernels.angles(np.repeat(A, m, axis=0), np.tile(B, (m, 1))).reshape(m, m)
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def bodies_equal(a, b, tol):
    """Set equality of canonical generator lists within geodesic tol."""
    return body_match_angle(a, b) <= float(tol)


# -- serialization -----------------------------------------------------


class _FieldError(ValueError):
    """A `ShapeSpec` value failed validation; `field` names it the way a
    shape file does ("dim" or "generators[i]")."""

    def __init__(self, field, message):
        super().__init__(message)
        self.field = field


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
            raise _FieldError("dim", "ambient_dim must be >= 1")
        rows = []
        for i, row in enumerate(self.generator_rows):
            field = f"generators[{i}]"
            try:
                arr = [float(x) for x in row]
            except OverflowError as e:
                raise _FieldError(field, f"generator {i} has an entry beyond float range") from e
            if len(arr) != self.ambient_dim + 1:
                raise _FieldError(
                    field,
                    f"generator {i} has {len(arr)} coordinates, "
                    f"expected {self.ambient_dim + 1}",
                )
            if not np.isfinite(arr).all():
                raise _FieldError(field, f"generator {i} has non-finite entries")
            if np.linalg.norm(arr) < NEAR_ZERO:
                raise _FieldError(field, f"generator {i} is (numerically) zero")
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
        """Parse a shape file: an object with integer field "dim" (the
        sphere dimension n, at least 1), field "generators" (a nonempty
        array of arrays of n+1 finite reals, none of them zero) and an
        optional string "label".

        Raises `ShapeFileError` naming what is wrong: the line of a JSON
        syntax error, or the field, "dim", "generators", "generators[i]"
        for row i, or "label".
        """
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
        except _FieldError as e:
            raise ShapeFileError(str(e), path=path, field=e.field) from e


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
