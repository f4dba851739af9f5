"""Primitive operations on unit vectors of the n-sphere.

Points of S^n are unit vectors in (n+1)-space.  Everything here is pure
and immutable; the tolerances are module constants so the whole package
agrees on what "zero" means at each layer.
"""

import numbers

import numpy as np

from .errors import DimensionMismatchError, NonFiniteError, NormalizationError

# Vectors shorter than this cannot be normalized meaningfully; the arc
# formula is never evaluated at (numerically) zero vectors.
NEAR_ZERO = 1e-9
# Closed-set membership slack for "dot >= 0" style tests.  Boundary
# points of closed sets must test as members despite rounding.
MEMBERSHIP_TOL = 1e-10


class Angle(float):
    """A geodesic length/radius/distance in radians, clamped to [0, pi].

    Values that overshoot the range by more than 1e-9 are rejected;
    smaller excursions are rounding noise and get clamped.  NaN and
    infinities raise NonFiniteError.
    """

    def __new__(cls, radians):
        r = float(radians)
        if not np.isfinite(r):
            raise NonFiniteError(f"angle {r!r} is not finite")
        if r < 0.0:
            if r < -1e-9:
                raise ValueError(f"angle {r!r} is negative")
            r = 0.0
        elif r > np.pi:
            if r > np.pi + 1e-9:
                raise ValueError(f"angle {r!r} exceeds pi")
            r = float(np.pi)
        return super().__new__(cls, r)

    def __repr__(self):
        return f"Angle({float(self)!r})"


class UnitPoint:
    """A point of S^n stored as a read-only unit vector in (n+1)-space.

    Only the overflow side is scale-free: entries beyond 1 are scaled down
    before the norm is taken, but NEAR_ZERO = 1e-9 is an absolute floor,
    so (1e-12, 0) raises `NormalizationError` although it has a direction.
    """

    __slots__ = ("_vec",)

    def __init__(self, coords):
        v = np.array(coords, dtype=float).reshape(-1)
        if v.size < 2:
            raise ValueError("a sphere point needs at least 2 coordinates")
        _check_finite(v)
        # scaled first so that the norm of a huge vector cannot overflow
        v = v / max(1.0, float(np.abs(v).max()))
        n = float(np.linalg.norm(v))
        if n < NEAR_ZERO:
            raise NormalizationError(
                f"vector with norm {n:.3e} cannot define a direction"
            )
        v = v / n
        v.flags.writeable = False
        self._vec = v

    @property
    def vec(self):
        return self._vec

    @property
    def ambient_dim(self):
        return self._vec.size - 1

    def __iter__(self):
        return iter(self._vec.tolist())

    def __len__(self):
        return self._vec.size

    def __repr__(self):
        inner = ", ".join(repr(float(c)) for c in self._vec)
        return f"UnitPoint(({inner}))"

    def __eq__(self, other):
        if not isinstance(other, UnitPoint):
            return NotImplemented
        return self._vec.shape == other._vec.shape and bool(
            np.array_equal(self._vec, other._vec)
        )

    def __hash__(self):
        return hash(self._vec.tobytes())


def as_unit_point(value):
    """Coerce a UnitPoint or coordinate sequence to a UnitPoint (whose
    NEAR_ZERO floor is absolute; only the overflow side is scale-free)."""
    if isinstance(value, UnitPoint):
        return value
    return UnitPoint(value)


def as_vector(value):
    """Coerce a UnitPoint or coordinate sequence to a float vector."""
    if isinstance(value, UnitPoint):
        return value.vec
    v = np.asarray(value, dtype=float).reshape(-1)
    _check_finite(v)
    return v


def _check_finite(v):
    if not np.isfinite(v).all():
        raise NonFiniteError("coordinates must be finite")


def _check_same_dim(p, q):
    if p.vec.size != q.vec.size:
        raise DimensionMismatchError(
            f"points live in R^{p.vec.size} and R^{q.vec.size}"
        )


def geodesic_distance(p, q):
    """Great-circle angle between two sphere points.

    Computed as atan2(|perp component|, dot): arccos of the dot product
    alone loses half the significant digits near 0 and pi, which would
    sink the 1e-8 agreement the dual-isometry checks need.
    """
    p = as_unit_point(p)
    q = as_unit_point(q)
    _check_same_dim(p, q)
    c = float(p.vec @ q.vec)
    perp = q.vec - c * p.vec
    s = float(np.linalg.norm(perp))
    return Angle(np.arctan2(s, c))


def arc_point(p, q, t):
    """Point at parameter t of the normalized-chord arc from p to q.

    Returns ((1-t) p + t q) / |(1-t) p + t q|.  Antipodal endpoints are
    rejected: the chord passes through the origin at some t, so the arc
    is not defined.
    """
    p = as_unit_point(p)
    q = as_unit_point(q)
    _check_same_dim(p, q)
    if not isinstance(t, numbers.Real) or not 0.0 <= float(t) <= 1.0:
        raise ValueError(f"arc parameter {t!r} outside [0, 1]")
    if geodesic_distance(p, q) > np.pi - NEAR_ZERO:
        raise ValueError("arc endpoints are (numerically) antipodal")
    t = float(t)
    chord = (1.0 - t) * p.vec + t * q.vec
    n = float(np.linalg.norm(chord))
    if n < NEAR_ZERO:
        raise ValueError("arc chord passes through the origin")
    return UnitPoint(chord / n)


def hemisphere_contains(center, q):
    """Whether q lies in the closed hemisphere H(center)."""
    center = as_unit_point(center)
    q = as_unit_point(q)
    _check_same_dim(center, q)
    return float(center.vec @ q.vec) >= -MEMBERSHIP_TOL


def subspace_canonical_basis(projector, rank):
    """Deterministic orthonormal basis (rows) of a subspace of known rank.

    The input is the orthogonal projector onto the subspace, which is
    basis-independent, so two different computations of the same
    subspace produce the same canonical basis; `rank` is its dimension,
    which every caller knows.  The construction is Gram-Schmidt over the
    projected standard basis vectors with a sign fix (largest-magnitude
    entry made positive), and exactly `rank` rows come back.

    The columns are taken in axis order, each kept when its residual
    exceeds 1e-9.  A kept row carries its column's rounding, about
    1e-16, divided by its residual, so these rows are returned only when
    there are exactly `rank` of them and every residual exceeds the
    margin 1e-4, which keeps each row within about 1e-12 of the
    subspace.  A residual just above 1e-9 gives a row up to about 1e-7
    off it, and usually an extra row as well: the next column keeps a
    residual of that size.  Otherwise each row is taken from the column
    of largest residual; at each step the squared residuals of the d
    columns sum to the rank still missing, so that residual is at least
    1 / sqrt(d), and each row is exact to a few ulps times sqrt(d).
    """
    P = np.asarray(projector, dtype=float)
    d = P.shape[0]
    rows, kept = [], []
    for j in range(d):
        w = _residual(P[:, j], rows)
        nw = float(np.linalg.norm(w))
        if nw > 1e-9:
            rows.append(_signed_unit(w))
            kept.append(nw)
    if len(rows) != rank or min(kept, default=1.0) <= 1e-4:
        rows = []
        for _ in range(rank):
            w = max((_residual(P[:, j], rows) for j in range(d)), key=np.linalg.norm)
            rows.append(_signed_unit(w))
    return np.array(rows).reshape(rank, d)


def _residual(v, rows):
    """v minus its parts along the orthonormal rows; two passes keep the
    result orthogonal to them to machine precision even when v is nearly
    in their span."""
    w = v.copy()
    for _ in range(2):
        for b in rows:
            w -= (b @ w) * b
    return w


def _signed_unit(w):
    """w normalized, with its largest-magnitude entry made positive."""
    w = w / np.linalg.norm(w)
    k = int(np.argmax(np.abs(w)))
    return -w if w[k] < 0 else w


def complement_basis(p):
    """Canonical orthonormal basis (rows) of the complement of span(p).

    p, a UnitPoint too, is normalized afresh through `as_unit_point`,
    which scales before it normalizes, so any scale works."""
    v = as_unit_point(as_vector(p)).vec
    proj = np.eye(v.size) - np.outer(v, v)
    return subspace_canonical_basis(proj, v.size - 1)


def sample_cap(center, radius, rng_seed, count):
    """Deterministic area-uniform samples in the open cap around center.

    The colatitude density on S^n is proportional to sin(theta)^(n-1);
    we draw theta by rejection against the uniform envelope (sin is
    increasing on (0, pi/2), so the acceptance ratio is bounded by the
    value at the cap rim), then pick an independent uniform tangent
    direction.
    """
    center = as_unit_point(center)
    r = float(radius)
    if not 0.0 < r < np.pi / 2:
        raise ValueError(f"cap radius {r!r} outside (0, pi/2)")
    count = int(count)
    if count < 1:
        raise ValueError("count must be >= 1")
    n = center.ambient_dim
    rng = np.random.default_rng(int(rng_seed))
    basis = complement_basis(center)  # (n, n+1)
    sin_r = np.sin(r)
    out = []
    while len(out) < count:
        theta = rng.uniform(0.0, r)
        if n > 1:
            if rng.uniform() > (np.sin(theta) / sin_r) ** (n - 1):
                continue
        w = rng.normal(size=n)
        nw = float(np.linalg.norm(w))
        if nw < NEAR_ZERO:
            continue
        w /= nw
        vec = np.cos(theta) * center.vec + np.sin(theta) * (w @ basis)
        out.append(UnitPoint(vec))
    return out
