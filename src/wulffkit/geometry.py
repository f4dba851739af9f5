"""Primitive operations on unit vectors of the n-sphere.

Points of S^n are unit vectors in (n+1)-space.  Everything here is pure
and immutable; the tolerances are module constants so the whole package
agrees on what "zero" means at each layer.  Geodesic angles come from
the one batched routine `kernels.angles`.

The seeded random draws live here too: `sample_cap` (area-uniform in a
cap) and `uniform_sphere_points` (uniform on the sphere) each return an
array of unit rows.
"""

import functools
import math
import numbers

import numpy as np

from . import kernels
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
        v = _unit(v)
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


def _unit(v):
    """The finite vector v scaled to unit length, or NormalizationError
    when it is shorter than NEAR_ZERO."""
    # scaled first so that the norm of a huge vector cannot overflow
    v = v / max(1.0, float(np.abs(v).max()))
    n = float(np.linalg.norm(v))
    if n < NEAR_ZERO:
        raise NormalizationError(
            f"vector with norm {n:.3e} cannot define a direction"
        )
    return v / n


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

    Computed by `kernels.angles` as atan2(|perp component|, dot): arccos
    of the dot product alone loses half the significant digits near 0
    and pi, which would sink the 1e-8 agreement the dual-isometry checks
    need.
    """
    p = as_unit_point(p)
    q = as_unit_point(q)
    _check_same_dim(p, q)
    return Angle(kernels.angles(p.vec[None, :], q.vec)[0])


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

    A line (rank 1) is the largest column of the projector, normalized
    and sign-fixed.  That row is canonical: the projector onto the line
    of a unit n is n n^T, so every column is a multiple of n and each
    nonzero one, sign-fixed, is n itself.  It is also exact to a few
    ulps: the squared norms of the d columns sum to 1, so the largest
    has norm at least 1 / sqrt(d) and its normalization amplifies no
    rounding.

    For rank 2 and up the columns are taken in axis order, each kept
    when its residual exceeds 1e-9.  A kept row carries its column's
    rounding, about 1e-16, divided by its residual, so these rows are
    returned only when there are exactly `rank` of them and every
    residual exceeds the margin 1e-4, which keeps each row within about
    1e-12 of the subspace.  A residual just above 1e-9 gives a row up to
    about 1e-7 off it, and usually an extra row as well: the next column
    keeps a residual of that size.  Otherwise each row is taken from the
    column of largest residual, as for a line; at each step the squared
    residuals of the d columns sum to the rank still missing, so that
    residual is at least 1 / sqrt(d), and each row is exact to a few
    ulps times sqrt(d).

    Both paths stay for rank 2 and up because the basis must not depend
    on the spanning set the projector came from, and each path fails
    that on its own kind of subspace.  Rows of few distinct values tie
    the residuals, and rounding then picks the largest: on 3,000
    subspaces of R^2 to R^6 spanned by random {-1, 0, 1} rows, each
    projected from two spanning sets, the two bases agreed to 1.2e-14
    as computed here, but the largest-residual path alone picked
    different columns on 714 of them, with rows up to 1.0 apart.  On
    3,000 Gaussian subspaces the largest-residual path alone agreed to
    7e-15, and axis order, whose kept residuals can lie just above the
    margin, to 1e-13.  A line has no such tie to break, its columns all
    being one row up to sign and scale.
    """
    P = np.asarray(projector, dtype=float)
    d = P.shape[0]
    rows, kept = [], []
    # a line, and the empty subspace, go straight to the largest column
    for j in range(d if rank > 1 else 0):
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


def span_complement(B):
    """Canonical orthonormal basis (rows) of the complement of the span
    of the orthonormal rows B: `subspace_canonical_basis` of the
    projector I - B^T B, except that a line of R^2 gets the closed form
    `line_complement`, and R^d itself the empty complement.

    This is the one routine for the complement of a span: the cone
    layer takes a cone's span complement from it, and `complement_basis`
    is it on a single row."""
    s, d = B.shape
    if s == d:
        # the projector below is rounding noise then, and has no basis
        return np.zeros((0, d))
    if d == 2:
        return line_complement(B[0])
    return subspace_canonical_basis(np.eye(d) - B.T @ B, d - s)


def complement_basis(p):
    """Canonical orthonormal basis (rows) of the complement of span(p),
    as a read-only array: `span_complement` of the one row p.

    p, a UnitPoint too, is normalized afresh through `as_unit_point`,
    which scales before it normalizes, so any scale works.  The rows
    depend on nothing but the normalized vector, so they are cached
    under its bytes (the last `_COMPLEMENT_CACHE` vectors asked for): a
    repeated pole, as in `harness.gen_wulff`'s draws, gets the very rows
    its first call computed, bit for bit, and runs no Gram-Schmidt."""
    v = as_unit_point(as_vector(p)).vec
    return _complement_rows(v.tobytes())


#: how many unit vectors `complement_basis` keeps the rows of
_COMPLEMENT_CACHE = 64


@functools.lru_cache(maxsize=_COMPLEMENT_CACHE)
def _complement_rows(key):
    B = span_complement(np.frombuffer(key)[None])
    B.flags.writeable = False
    return B


def line_complement(c):
    """The complement of the unit c in R^2 as one row: (-c_2, c_1), with
    the sign fix of `subspace_canonical_basis` (largest-magnitude entry
    positive).

    The row is exact: its dot product with c is -c_2 c_1 + c_1 c_2, two
    products of one rounding that cancel to 0.  Gram-Schmidt over the
    projector I - c c^T is not: its first column (1 - c_1^2, -c_1 c_2)
    carries the rounding of 1 - c_1^2, which the division by its length
    |c_2| amplifies, and for c = (-0.99986, -0.01673) the row it kept
    was 1.9e-14 off orthogonal.  Where that column is exact, as for an
    axis, both give the same bits.  A tie |c_1| = |c_2| keeps the
    first entry positive, as `_signed_unit`'s argmax does, and adding
    0.0 after the sign fix turns a -0.0 entry into the 0.0 that
    Gram-Schmidt returns there."""
    e = np.array([-c[1], c[0]])
    if e[int(np.argmax(np.abs(e)))] < 0:
        e = -e
    return e[None, :] + 0.0


def sample_cap(center, radius, rng_seed, count):
    """Deterministic area-uniform samples in the open cap around center,
    as a (count, n+1) array of unit rows.

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
    return _draw_cap(center.vec, complement_basis(center), r, rng_seed, count)


def _draw_cap(center, basis, radius, rng_seed, count):
    """`sample_cap`'s draw on checked arguments: the unit vector center,
    `complement_basis(center)` (n rows) as basis, a float radius in
    (0, pi/2) and a positive int count.

    The loop only draws: a colatitude theta and a unit tangent direction
    w per accepted point, in the order the generator's stream has them
    (|w| is sqrt(w . w), which is how `np.linalg.norm` takes it).
    The rows cos(theta) center + sin(theta) (w @ basis) are then formed
    in one array step and normalized as `UnitPoint` normalizes its
    coordinates, with the same roundings: each row is scaled by
    max(1, max|entry|), and its norm is sqrt(v . v) with the dot product
    taken by `np.vecdot`, the BLAS ddot that `np.linalg.norm` uses on a
    single vector (a summed or einsum square is not bit-identical)."""
    n = basis.shape[0]
    rng = np.random.default_rng(int(rng_seed))
    sin_r = np.sin(radius)
    thetas, dirs = [], []
    while len(thetas) < count:
        # rng.uniform(0, r) is 0 + r * rng.random(), bit for bit
        theta = radius * rng.random()
        if n > 1:
            if rng.random() > (np.sin(theta) / sin_r) ** (n - 1):
                continue
        w = rng.normal(size=n)
        nw = math.sqrt(w @ w)
        if nw < NEAR_ZERO:
            continue
        thetas.append(theta)
        dirs.append(w / nw)
    thetas = np.array(thetas)[:, None]
    V = np.cos(thetas) * center + np.sin(thetas) * (np.array(dirs) @ basis)
    V /= np.maximum(1.0, np.abs(V).max(axis=1))[:, None]
    return V / np.sqrt(np.vecdot(V, V))[:, None]


def uniform_sphere_points(dim, count, seed):
    """Seeded uniform sample of `count` points on the dim-sphere."""
    if count < 1:
        raise ValueError(f"need at least one sample, got {count}")
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((count, dim + 1))
    norms = np.linalg.norm(pts, axis=1)
    # the probability of a near-zero gaussian draw is negligible, but
    # redrawing keeps the output well-defined for every seed
    bad = norms < 1e-12
    while bad.any():
        pts[bad] = rng.standard_normal((int(bad.sum()), dim + 1))
        norms = np.linalg.norm(pts, axis=1)
        bad = norms < 1e-12
    return pts / norms[:, None]
