"""Distances on the sphere: point-to-body, directed, Pompeiu-Hausdorff.

Every point-to-body distance comes from one batched routine,
`_nearest_body_points`, which returns the nearest body point of each
row of a query block together with its geodesic angle (a single point
is a batch of one).  Its candidates are genuine body members: the row
itself when it is inside, the nearest generator, and the normalized
projections onto the spans of the body's faces, found at once for the
whole block.  The closest candidate is exact.
The face spans follow one rule.  A span of rank d - 1 (d >= 3) is
n^perp for a unit normal n (`_facet_normals`): a facet of a full-rank
body, or the own span of a body of rank d - 1, such as an arc on S^2.
It needs no basis: the projection onto it is x - (x . n) n.  Every
other span, of rank 2 to d - 2, exists only on S^3 and up and is read
through an orthonormal basis from one incidence closure
(`_basis_spans`), so on S^2 no basis is built at all.

Directed distances are exact when the pair is certified quarter-turn
free (some point of the target within a strict quarter turn of the
whole source, found among a few points the two bodies store or, failing
those, by a least-distance program): the squared cosine
of the distance is then C^1, every interior extremum over a source
face is an eigenvector of a small operator projected on a source face
span and a target face span, and the finite candidate set (source
generators plus those eigenvectors) provably contains the maximizer.
When either span is n^perp the eigenvector is closed form; only a pair
of two spans read through bases goes to `np.linalg.eigh`, which never
happens on S^2.
The maximum can land strictly inside a face — generators alone are
NOT enough; a regression test pins a pair where the best generator is
off by more than 2.5e-3.  Outside the certified regime the directed
distance falls back to dense sampling of the source, within the
sampling resolution of the true value.  That route needs only the
largest sampled distance, so it works by branch and bound over small
cells of the cached sphere grid (`oracles.grid_cells`), and every
sample lies in a cell.  A cell that keeps the source far outside holds
none; the rows of every other cell, a near cell, are sampled one by
one, with band rows moved onto the source, and only when their cell is
visited.  Every cell is bounded by its center u alone: with r its grid
radius and t = dist(u, a) for the source a, its samples lie within
R = r + t + min(r, t) of u, the smaller of 2 r + t and r + 2 t, which
is r when u lies in a.  (A kept row lies within r of u.  A band row x
moves to its nearest point y of a.  dist(., a) is 1-Lipschitz, so
angle(x, y) <= t + r and angle(u, y) <= 2 r + t; and y is no farther
than x from the point z of a nearest to u, so angle(u, y) <=
t + angle(z, x) <= r + 2 t; see `_cell_samples`.)
Since dist(., b) is 1-Lipschitz too, a cell's samples lie within
dist(u, b) + R of b.
After the source's generators set a first maximum, cells inside b and
cells whose cheaper bound (through b's nearest generator) falls short
of it are dropped, the rest get the exact bound from one batch of
their centers, and they are visited in decreasing bound, about
`_CELL_BATCH` grid rows at a time, until the bound falls to the running
maximum.  So the exact routine runs only on cells that can still reach
the maximum, and the work grows with the source's boundary instead of
with the grid.  Each batch costs two nearest-point calls, one for its
band rows and one for its samples; a smaller batch reads fewer rows past
the stop and makes more calls, and the batch size is the measured best
of that trade on S^2.
"""

import itertools
import math

import numpy as np

from . import kernels, oracles
from .cones import FEAS_EPS, least_distance, linprog, span_basis, span_key
from .errors import (
    DimensionMismatchError,
    NonFiniteError,
    ResolutionError,
    SeparationError,
)
from .geometry import (
    MEMBERSHIP_TOL,
    NEAR_ZERO,
    Angle,
    UnitPoint,
    as_unit_point,
    geodesic_distance,
    uniform_sphere_points,
)
from .transforms import polar, polar_admissible

#: default sampling resolution (radians) of the sampled distances, keyed by
#: the sphere dimension n of the sampled body: 0.005 on S^1 and S^2, 0.06 on
#: S^3, whose grid grows with the cube of the inverse spacing (about 3.6e6
#: points at 0.06; 0.005 would need 6.2e9, over `oracles.GRID_POINT_LIMIT`)
DEFAULT_RESOLUTION = {1: 0.005, 2: 0.005, 3: 0.06}

#: boundary band excluded by the dilation-intersection identity check
IDENTITY_BAND = 1e-6

# a distance counts as within a dilation radius r up to r plus this much
_DILATION_TOL = 1e-10

# `_row_samples` refuses a block of rows with more band rows than this to
# project onto the body
_BAND_LIMIT = 2_000_000

_SAFE_ASSIGN = 1e-12

# nearest-point blocks hold about this many (row, generator or face
# span) pairs, which bounds the temporaries of a large query block
_BLOCK_PAIRS = 1 << 16

# rows of a nearest-point query block may be off unit length by this much
_UNIT_TOL = 1e-9

# the sampled directed distance evaluates its cells in batches of about
# this many rows, in decreasing order of their upper bounds.  A smaller
# batch stops nearer the row where the bound falls to the maximum, for
# two more nearest-point calls per batch; on `mixed_convex` ops (S^2),
# interleaved in one process, 1024 ran about 3% faster than 2048 and as
# fast as 512 and 768
_CELL_BATCH = 1024

# a grid cell counts as inside a body when the worst slack of its center
# against the body's normals exceeds the cell's chord by this much
_DEEP_SLACK = 1e-12

# a cell of samples or an eigenvector candidate is pruned only when
# its upper bound lies this far below a reached value or a lower bound:
# it covers the rounding of an arccos (up to sqrt(2 * 4 ulp), about
# 3e-8, near zero distance) and the 1e-10 membership tolerance behind
# the lower bound
_PRUNE_MARGIN = 1e-7


def _check_resolution(resolution):
    if not (0.0 < resolution < 0.1):
        raise ResolutionError(
            f"sampling resolution must lie in (0, 0.1) radians, got {resolution}"
        )


def _resolve_resolution(resolution, body):
    """The given resolution, checked, or the default for the body's sphere."""
    if resolution is None:
        n = body.generator_array.shape[1] - 1
        if n not in DEFAULT_RESOLUTION:
            raise ResolutionError(f"sampled distances cover S^1 to S^3, got S^{n}")
        return DEFAULT_RESOLUTION[n]
    resolution = float(resolution)
    _check_resolution(resolution)
    return resolution


def _norms(A):
    """Euclidean norms along the last axis."""
    return np.sqrt(np.einsum("...i,...i->...", A, A))


# ---------------------------------------------------------------------------
# face spans
# ---------------------------------------------------------------------------


def _facet_normals(body):
    """Unit normals n that stand for the body's face spans of rank d - 1,
    each the span n^perp, read off the stored arrays.

    Every span of rank d - 1 is read off its normal, with no basis: the
    projection onto n^perp is x - (x . n) n, and the stationary
    candidates of a pair with such a span have closed forms (see
    `_exact_directed`).  On S^1 those spans are single generators, which
    are no face spans, so d >= 3 here, and with C the stored complement
    of span(G), of d - rank rows:

    - C empty (span(G) = R^d): the dual has no lineality, so every
      stored normal is the normal of a facet, and that facet spans
      n^perp;
    - one row of C (rank d - 1): the facets have rank d - 2
      (`_basis_spans`), and the one span of rank d - 1 is the body's
      own, such as an arc's plane on S^2 or a lune's 3-space on S^3,
      whose normal is that row: `geometry.subspace_canonical_basis`
      takes a line's row from the largest column of its projector, so
      it is orthogonal to the span the conversion found to a few ulps;
    - two rows or more: there is no span of rank d - 1.
    """
    N, C = body.normal_array, body.complement_array
    if N.shape[1] < 3 or C.shape[0] > 1:
        return N[:0]
    return C if C.shape[0] else N


def _basis_spans(body):
    """Orthonormal bases of the body's face spans of rank 2 to d - 2,
    stacked by rank; cached.

    Every face span of rank d - 1 is read off its normal
    (`_facet_normals`), single generators are covered by the
    nearest-generator candidate, and the whole space by the membership
    test.  The spans left exist only on S^3 and up: the body's own span
    when 2 <= s <= d - 2, the facets of a rank-deficient body and the
    lower faces.  All of them are read off the generator-normal
    incidence.  The generators tight on one normal form a facet, or the
    whole body for a lineality normal, which is orthogonal to span(G);
    the closure intersects the sets found in the previous round with
    those, until a round finds nothing new, and sets of fewer than two
    generators are dropped.  Sets are deduplicated as rows packed
    big-endian by `np.packbits`, which sort the way the boolean rows do,
    and their spans by `span_key`.

    Returns a list of (k, f, d) arrays, one per span rank f.
    """
    cached = body._cache.get("basis_spans")
    if cached is not None:
        return cached
    G = body.generator_array
    m, d = G.shape
    by_rank = {}
    if d >= 4:
        tight = (np.abs(G @ body.normal_array.T) <= 1e-9).T
        facets = tight[tight.sum(axis=1) >= 2]
        known = np.unique(np.packbits(facets, axis=1), axis=0)
        fresh = np.unpackbits(known, axis=1, count=m).astype(bool)
        while fresh.shape[0]:
            meets = (fresh[:, None, :] & facets[None, :, :]).reshape(-1, m)
            meets = np.packbits(meets[meets.sum(axis=1) >= 2], axis=1)
            grown, first = np.unique(np.vstack([known, meets]), axis=0, return_index=True)
            fresh = np.unpackbits(grown[first >= known.shape[0]], axis=1, count=m).astype(bool)
            known = grown
        seen = {}
        for face in np.unpackbits(known, axis=1, count=m).astype(bool):
            Bf, r = span_basis(G[face])
            if 2 <= r <= d - 2:
                seen.setdefault(span_key(Bf), Bf)
        for Bf in seen.values():
            by_rank.setdefault(Bf.shape[0], []).append(Bf)
    cached = [np.stack(bases) for bases in by_rank.values()]
    body._cache["basis_spans"] = cached
    return cached


def _span_projections(X, T):
    """P[i, j]: the orthogonal projection of row i of X onto span j of
    the (k, f, d) stack T of orthonormal bases.  Both products are
    einsum sums, which, unlike BLAS products, round each row the same
    way in a block of any size."""
    return np.einsum("isf,sfk->isk", np.einsum("ik,sfk->isf", X, T), T)


def _face_projections(X, normals, spans):
    """P[i, j]: the orthogonal projection of row i of X onto face span j,
    first the spans n^perp of the unit normals, as x - (x . n) n with
    x . n an einsum product, then the spans of each basis stack of
    `spans` (`_span_projections`), so each row rounds the same way in a
    block of any size."""
    D = np.einsum("ik,jk->ij", X, normals)
    P = X[:, None, :] - D[:, :, None] * normals[None, :, :]
    if not spans:
        return P
    return np.concatenate([P] + [_span_projections(X, T) for T in spans], axis=1)


# ---------------------------------------------------------------------------
# nearest body points (exact)
# ---------------------------------------------------------------------------


def _nearest_body_points(X, body):
    """Nearest body point to each row of an (n, d) block of unit rows.

    Returns (angles, points): the geodesic distance from each row to the
    body and a body point attaining it.  Every candidate is a genuine
    body member, so each is an upper bound and the closest is exact:

    - members are their own nearest point, at distance 0;
    - the nearest generator is always a candidate; it is the answer for
      a row at a nonpositive inner product with every generator, since
      such a row meets the whole cone that way;
    - the block is projected onto every face span at once and the
      feasible normalized projections compete (the nearest cone point
      lies in the relative interior of a face, so one of them is it);
      only projections nearer than the nearest generator can win, so
      only those get the membership test.  One routine projects onto
      every span, read off a normal or through a basis
      (`_face_projections`).

    Angles take the stable form atan2(|perp|, dot): arccos of a cosine
    has a 1e-8 precision floor near zero distance.

    A block of at most `_BLOCK_PAIRS` (row, generator or face span) pairs,
    which is nearly every call, goes to `_nearest_block` as it is; only a
    longer one is cut into such blocks, written into output buffers.  On
    S^2 a call of a few rows costs the fixed cost of its numpy calls, not
    its rows, and most of those calls are on its live rows (those outside
    the body and within a quarter turn of a generator): a block with no
    live row, or a body with no face span, skips them, and so does a block
    none of whose screened candidates is a member.  Each row rounds the
    same way in a block of any size, so a row gets the same bits alone,
    inside a block, or on either side of a seam.
    """
    X = np.asarray(X, dtype=float)
    G = body.generator_array
    m, d = G.shape
    if X.ndim != 2 or X.shape[1] != d:
        raise DimensionMismatchError("point block does not match the body's ambient space")
    # rows are taken as they are, so a row off the sphere would get the
    # angle of a different point; callers normalize single points.  A
    # non-finite row fails the unit test too, and is told apart only then
    if not (np.abs(_norms(X) - 1.0) <= _UNIT_TOL).all():
        if not np.isfinite(X).all():
            raise NonFiniteError("point block has non-finite coordinates")
        raise ValueError(f"point block rows must be unit vectors within {_UNIT_TOL}")
    facets = _facet_normals(body)
    spans = _basis_spans(body)
    width = m + facets.shape[0] + sum(T.shape[0] for T in spans)
    step = max(1, _BLOCK_PAIRS // width)
    if X.shape[0] <= step:
        return _nearest_block(X, body, facets, spans)
    angles = np.empty(X.shape[0])
    points = np.empty_like(X)
    for lo in range(0, X.shape[0], step):
        blk = slice(lo, lo + step)
        angles[blk], points[blk] = _nearest_block(X[blk], body, facets, spans)
    return angles, points


def _nearest_block(X, body, facets, spans):
    # a call of a few rows is bound by the fixed cost of each numpy call,
    # so the block reads the C-level forms (`.nonzero()`, `np.copyto`, flat
    # indices) rather than the Python wrappers that cost a few times more
    G = body.generator_array
    N = body.normal_array
    dots = X @ G.T
    pick = dots.argmax(axis=1)
    Y = G[pick]
    ang = kernels.angles(X, Y)
    member = kernels.min_slack(X, N) >= -MEMBERSHIP_TOL
    live = (~member & (dots[np.arange(X.shape[0]), pick] > 0.0)).nonzero()[0]
    if live.size and (facets.shape[0] or spans):
        Xl = X[live]
        # P[i, k]: orthogonal projection of live row i onto its k-th face
        # span, so the normalized candidate sits at angle atan2(|x - p|, |p|)
        # from the row
        P = _face_projections(Xl, facets, spans)
        c = _norms(P)
        r = _norms(Xl[:, None, :] - P)
        ok = c > 1e-12
        c[~ok] = 1.0
        # rank by the tangent |x - p| / |p|, which orders angles below a
        # quarter turn as the angle does, without an arctan per candidate;
        # only candidates below the nearest generator's tangent (with
        # slack for rounding) can win, so only they get the membership test
        t = r / c
        ang_live = ang[live]
        ok &= t < np.tan(ang_live)[:, None] * (1.0 + 1e-9)
        sel = ok.ravel().nonzero()[0]
        Z = P.reshape(-1, P.shape[2])[sel] / c.reshape(-1)[sel, None]
        inside = kernels.min_slack(Z, N) >= -MEMBERSHIP_TOL
        if inside.any():
            ok.flat[sel] = inside
            k = np.where(ok, t, np.inf).argmin(axis=1)
            # best[i]: live row i's best candidate, as an index into the
            # flattened (live row, face span) arrays
            best = np.arange(0, t.size, t.shape[1]) + k
            a = np.where(ok.flat[best], np.arctan2(r.flat[best], c.flat[best]), np.inf)
            win = (a < ang_live).nonzero()[0]
            rows = live[win]
            ang[rows] = a[win]
            # a winner passed the screen, so its unit candidate is a row of Z
            Y[rows] = Z[sel.searchsorted(best[win])]
    np.copyto(Y, X, where=member[:, None])
    np.copyto(ang, 0.0, where=member)
    return ang, Y


def point_body_distance(x, body):
    """Exact geodesic distance from a point to a body (an Angle).

    The point is normalized first, so any large multiple of it gives the
    same distance, but NEAR_ZERO = 1e-9 is an absolute floor (only the
    overflow side is scale-free).  It is 0 exactly when `body.contains`
    accepts the point, since both read the same slack test.
    """
    return Angle(_nearest_body_points(as_unit_point(x).vec[None, :], body)[0][0])


def batch_point_body_distance(X, body):
    """Exact distances from each row of X to the body (vectorized).

    The rows must be unit vectors within 1e-9 (ValueError otherwise).
    They are not normalized here, since that would perturb rows that
    are already unit, such as the sampled route's samples.
    """
    return _nearest_body_points(X, body)[0]


# ---------------------------------------------------------------------------
# dense body sampling
# ---------------------------------------------------------------------------


def _cell_samples(body, resolution):
    """The cells of the sphere grid that hold the body's samples.

    Returns (grid, cells, near, outside, band_width): the cached grid,
    its `oracles.GridCells`, the indices of the cells near the body, the
    mask of the near cells whose center lies outside the body, and the
    slack width of the sampling band.  The rows of the near cells are
    sampled one by one (`_row_samples`): a row inside the body is kept,
    a row in the band is replaced by its nearest body point, and the
    rest are dropped.  The body's generators are samples too, in no
    cell.

    With s_u the worst normal slack of a cell's center u and c the chord
    of its radius r (`GridCells.chords`), every row x of the cell has
    n . x <= s_u + c for the normal n attaining s_u, so a cell with
    s_u + c < -band_width holds no row of the band or of the body; the
    others are the near cells.  A center is outside when
    s_u < -MEMBERSHIP_TOL, the membership test of `_nearest_body_points`,
    so t = dist(u, body) is 0 exactly at every other center.

    Every sample of a near cell lies within r + t + min(r, t) of u:
    within 2 r + t and within r + 2 t, and within r when u lies in the
    body.  A kept row lies within r of u.  A band row x moves to its
    nearest body point y, and then:

    - dist(., body) is 1-Lipschitz, so angle(x, y) = dist(x, body) <=
      t + r and angle(u, y) <= r + angle(x, y) <= 2 r + t;
    - y is p / |p|, with p the projection of x onto the body's cone.
      For every z of the cone, (x - p) . z <= 0, so z . p >= z . x, and
      |p| <= 1.  For the body point z nearest to u, angle(z, x) <= t + r,
      which is below pi/2 when t <= r (every cell radius is below pi/4:
      at the coarsest resolution `_check_resolution` admits, the
      largest is 0.29).  Then z . x >= 0, cos angle(z, y) = z . p / |p|
      >= z . x and angle(z, y) <= angle(z, x) <= t + r, so angle(u, y)
      <= t + angle(z, y) <= r + 2 t.

    So a cell is bounded by its center alone, before any of its rows is
    read.
    """
    sphere_dim = body.generator_array.shape[1] - 1
    r_cov = resolution / 2.05
    spacing = r_cov / oracles.COVERING_COEFF.get(sphere_dim, math.inf)
    grid = oracles.sphere_grid(sphere_dim, spacing)
    cells = oracles.grid_cells(sphere_dim, spacing)
    # a grid point within r_cov of a body point violates each
    # constraint by at most the chord length 2 sin(r_cov / 2)
    band_width = 2.0 * math.sin(r_cov / 2.0) + MEMBERSHIP_TOL
    center_slack = kernels.min_slack(cells.centers, body.normal_array)
    near = np.flatnonzero(center_slack + cells.chords >= -band_width)
    return grid, cells, near, center_slack[near] < -MEMBERSHIP_TOL, band_width


def _row_samples(body, rows, band_width):
    """The samples of a block of rows of near cells (see `_cell_samples`),
    in row order: every row inside the body as it is, and every row in
    the band (slack at least -band_width) replaced by its nearest body
    point."""
    slack = kernels.min_slack(rows, body.normal_array)
    inside = slack >= -MEMBERSHIP_TOL
    keep = inside | (slack >= -band_width)
    samples = rows[keep]
    band = ~inside[keep]
    moved = int(band.sum())
    if moved > _BAND_LIMIT:
        raise ResolutionError(f"sampling needs {moved} projections; increase the resolution")
    samples[band] = _nearest_body_points(samples[band], body)[1]
    return samples


def _body_sample_points(body, resolution):
    """Sample the body within geodesic covering radius resolution/2.

    The samples are the generators and the samples of every near cell
    (`_cell_samples`): grid points inside the body are kept, and grid
    points whose worst constraint slack puts them within one covering
    radius of the body are replaced by their nearest body points.
    Together these samples cover the body: every body point has a sample
    within 2 * (resolution/2.05) < resolution.  A body with no normals
    (the full sphere) has every grid point inside, so its samples are
    the whole grid and its generators.
    """
    grid, cells, near, _, band_width = _cell_samples(body, resolution)
    samples = _row_samples(body, grid[cells.rows(near)], band_width)
    return np.ascontiguousarray(np.vstack([samples, body.generator_array]))


def point_body_distance_sampled(x, body, resolution=None):
    """Sampled distance oracle; within `resolution` of the exact value."""
    v = as_unit_point(x).vec
    if v.size != body.generator_array.shape[1]:
        raise DimensionMismatchError("point does not match the body's ambient space")
    resolution = _resolve_resolution(resolution, body)
    samples = _body_sample_points(body, resolution)
    return Angle(float(kernels.angles(samples, v).min()))


# ---------------------------------------------------------------------------
# directed and Hausdorff distances
# ---------------------------------------------------------------------------


def _deep_witness(a, b):
    """A point of b strictly within a quarter turn of all of a, or None.

    A unit w counts when it passes two checks on the raw arrays:
    min(G_a w) > FEAS_EPS, the witness margin, and
    min(N_b w) >= -MEMBERSHIP_TOL.  The canonical normal list N_b, with
    its +/- lineality rows, generates the dual cone of b, so the second
    check says that w is a point of b; the first puts it strictly within
    a quarter turn of every generator of a, hence of every point of a.
    Any w that passes proves what the exact route needs, so the cheap
    candidates are tried first, in this order: the rows of G_b, the
    normalized sum of G_b (a point of cone(G_b)), and the normalized sum
    of a's normals (the point `body.hemispherical_witness` reads); the
    sums are built only when no row of G_b passes.  Only
    when none passes is the least-distance program min |z| subject to
    G_a z >= 1 and N_b z >= 0 solved (`cones.least_distance`).  A unit w
    in cone(G_b) with G_a w > 0 scales to a feasible z, and a feasible z
    normalizes to such a w, so the program is feasible exactly when some
    point of b is strictly within a quarter turn of all of a; its
    w = z / |z| gets the same two checks.  A candidate can thus only add
    pairs to the exact route, never take one away from it.  The witness
    keeps all point-to-body distances of the pair in the regime where
    the exact extremum enumeration is complete.
    """
    Ga = a.generator_array
    Gb = b.generator_array
    Nb = b.normal_array

    def first_verified(W):
        ok = (kernels.min_slack(W, Ga) > FEAS_EPS) & (kernels.min_slack(W, Nb) >= -MEMBERSHIP_TOL)
        return W[np.argmax(ok)] if ok.any() else None

    w = first_verified(Gb)
    if w is not None:
        return w
    sums = np.vstack([Gb.sum(axis=0), a.normal_array.sum(axis=0)])
    norms = np.linalg.norm(sums, axis=1, keepdims=True)
    keep = norms[:, 0] >= NEAR_ZERO
    w = first_verified(sums[keep] / norms[keep])
    if w is not None:
        return w
    h = np.concatenate([np.ones(Ga.shape[0]), np.zeros(Nb.shape[0])])
    z = least_distance(np.vstack([Ga, Nb]), h)
    if z is None:
        return None
    return first_verified(z[None, :] / float(np.linalg.norm(z)))


def _exact_directed(a, b):
    """Exact directed distance, or None outside the certified regime.

    Valid when some point of b is strictly within a quarter turn of all
    of a (then every point-to-body distance involved stays below pi/2,
    where the squared spherical support x -> |proj_cone(x)|^2 is
    continuously differentiable).  Any interior maximizer on a face
    with span F, whose nearest point has active span E, is then an
    eigenvector of P_F P_E P_F with eigenvalue sigma^2, sigma =
    cos(dist(x, b)); vertices cover the rest.  Each pair of spans gets
    one rule, keyed by the kind of the target span, with f^perp and
    e^perp the spans of rank d - 1 read off normals (`_facet_normals`)
    and the others read through bases (`_basis_spans`):

    - any span F against e^perp: the single candidate P_F e, with
      sigma^2 = 1 - |P_F e|^2 (`_normal_candidates`);
    - f^perp against a basis span E: the single candidate
      P_F P_E f = P_E f - |P_E f|^2 f, with sigma^2 = 1 - |P_E f|^2;
    - a basis span F against a basis span E: the eigenvectors of
      `np.linalg.eigh` in the spans' bases, which exist only on S^3 and
      up.

    Proof of the two closed forms.  P_F P_E P_F = X X^T with
    X = P_F P_E, and X^T X = P_E P_F P_E, so the two share their nonzero
    spectrum, and X maps an eigenvector v of X^T X to one of X X^T, of
    the same eigenvalue.  For E = e^perp, P_F P_E P_F = P_F - w w^T on F
    with w = P_F e: eigenvalue 1 - |w|^2 along w and 1 on the rest of
    F.  For F = f^perp, P_E P_F P_E = P_E - u u^T on E with u = P_E f:
    eigenvalue 1 - |u|^2 along u, which X maps to
    P_F u = u - (u . f) f = P_E f - |P_E f|^2 f, and 1 on the rest of
    E.  An eigenvalue-1 vector x has |P_E x| = 1, so it lies in F and E,
    where the branch value arccos(1) is 0: were a maximizer there, the
    directed distance would be 0, which the generators of a, scored
    along with the candidates, attain, since no distance is negative.
    An eigenvalue-0 vector has sigma = 0, a branch value of pi/2, which
    the certified regime (every distance below pi/2) excludes.  So the
    one candidate of the pair and its antipode, which the caller adds,
    are all that the pair contributes.

    The generators and the surviving candidates are scored in one exact
    batch.  A candidate survives when its own stationary branch value,
    arccos(sigma), exceeds the generators' largest lower bound (the
    distance to b's most violated supporting hemisphere,
    `_hemisphere_lower_bound`) less `_PRUNE_MARGIN`.  That screen cannot drop
    the maximizer x*: when it lies inside a face it appears among the
    candidates with its exact branch value sigma = cos(dist(x*, b)), and
    dist(x*, b) is at least every generator's distance, hence at least
    each generator's lower bound.  The margin covers the rounding on
    both sides: arccos of a rounded sigma near 1 is off by up to about
    sqrt(2 * 4 ulp), 3e-8, and the lower bound by at most the 1e-10
    membership tolerance and the rounding of arcsin.

    The candidates within slack 1e-9 of a are kept, and those of them
    that fail a's membership test (slack below -MEMBERSHIP_TOL) are
    replaced by their nearest points of a, so every scored point is a
    genuine point of a and the maximum never exceeds the true one.  (A
    slack bound is no angle bound: against two nearly opposite normals
    of a thin body, a candidate of slack -1e-9 can lie 1e-3 rad outside
    it.)  The members skip the projection, which reads the same slack
    test and would return them unchanged, so the maximizer, which lies
    in a, is still scored as it is.
    """
    if _deep_witness(a, b) is None:
        return None
    Ga = a.generator_array
    Na = a.normal_array
    d = Ga.shape[1]
    screen = float(_hemisphere_lower_bound(Ga, b).max()) - _PRUNE_MARGIN
    Fa, Fb = _facet_normals(a), _facet_normals(b)
    Sa, Sb = _basis_spans(a), _basis_spans(b)
    parts = [_normal_candidates(Fa, Sa, Fb, screen)]
    for TE in Sb:
        # U[i, j] = P_E f for normal f = Fa[i] and span E = TE[j]; the
        # candidate is its projection onto f^perp
        U = _span_projections(Fa, TE)
        X = U - np.einsum("ijk,ik->ij", U, Fa)[:, :, None] * Fa[:, None, :]
        parts.append(_screened_candidates(X, 1.0 - np.einsum("ijk,ijk->ij", U, U), screen))
    for TF, TE in itertools.product(Sa, Sb):
        sa, f = TF.shape[:2]
        sb, e = TE.shape[:2]
        # T[i, j]: the f x e inner products of face span i of a with
        # face span j of b, so T T^T is P_F P_E P_F in F's basis
        T = (TF.reshape(-1, d) @ TE.reshape(-1, d).T).reshape(sa, f, sb, e).swapaxes(1, 2)
        vals, vecs = np.linalg.eigh(T @ T.swapaxes(2, 3))
        parts.append(_screened_candidates(vecs.swapaxes(2, 3) @ TF[:, None, :, :], vals, screen))
    X = np.vstack(parts)
    X = np.vstack([X, -X])
    if Na.shape[0]:
        slack = kernels.min_slack(X, Na)
        near = (slack >= -1e-9) & (slack < -MEMBERSHIP_TOL)
        if near.any():
            X[near] = _nearest_body_points(X[near], a)[1]
        X = X[slack >= -1e-9]
    best = float(batch_point_body_distance(np.vstack([Ga, X]), b).max())
    if best >= math.pi / 2.0 - 1e-9:
        return None
    return best


def _normal_candidates(Fa, Sa, Fb, screen):
    """The stationary candidates of every face span F of a, the spans
    f^perp of the unit normals Fa and then the basis stacks Sa, against
    every span e^perp of b, e a row of Fb, in closed form: the unit rows
    of P_F e that pass the screen, with sigma^2 = 1 - |P_F e|^2.

    Every eigenvector of P_F P_E P_F that can hold a maximizer is +/- w
    with w = P_F e (see `_exact_directed`; the caller adds the
    antipodes).  w = 0, where e is orthogonal to F (for F = f^perp,
    where the spans coincide), gives none.  A nonzero w of rounding size
    gives a candidate of no use, but no harm either: like every
    candidate it is moved onto a before it is scored.  The columns of
    a's normals are computed once more against f, w <- w - (w . f) f,
    which puts the rounding of the first subtraction back inside f^perp:
    a candidate off its span f^perp by rounding alone can land a few
    ulps across a's boundary and score above the true maximum by as
    much.  (A projection through a basis lies in its span as it is: it
    is a combination of the basis rows.)  The products are einsum sums
    (`_face_projections`), which round each pair alike.
    """
    P = _face_projections(Fb, Fa, Sa)
    P[:, : len(Fa)] -= np.einsum("ijk,jk->ij", P[:, : len(Fa)], Fa)[:, :, None] * Fa
    return _screened_candidates(P, 1.0 - np.einsum("ijk,ijk->ij", P, P), screen)


def _screened_candidates(X, sig2, screen):
    """The unit rows x / |x| of the nonzero candidates, the rows of X
    along its last axis, whose branch value arccos(sigma) passes the
    screen, with sigma^2 the matching entry of sig2."""
    X = X.reshape(-1, X.shape[-1])
    nrm = _norms(X)
    ok = (nrm > 0.0) & (np.arccos(np.sqrt(sig2.reshape(-1).clip(0.0, 1.0))) > screen)
    return X[ok] / nrm[ok, None]


def _hemisphere_lower_bound(X, body):
    """Lower bound on each unit row's distance to the body: asin(-n . x),
    its distance to the most violated supporting hemisphere {n . y >= 0}
    (0 if none).  The normals carry the +/- lineality rows, so the body
    lies in every one."""
    return np.arcsin(np.clip(-kernels.min_slack(X, body.normal_array), 0.0, 1.0))


def _generator_upper_bound(X, body):
    """Upper bound on each unit row's distance to the body: its angle to
    the nearest generator, arccos(g . x)."""
    return np.arccos(np.clip(kernels.max_dot(X, body.generator_array), -1.0, 1.0))


def directed_distance_sampled(a, b, resolution=None):
    """Dense-sampling route for the directed distance.

    Always samples the source body, regardless of whether the exact
    path applies; the result is within `resolution` of the true value.

    It returns the maximum of the exact distances to b over the sample
    set of `_body_sample_points`, but evaluates only the samples that
    can still hold it.  The generators of a are evaluated first and
    seed the running maximum.  Every other sample lies in a near cell
    of a (`_cell_samples`), with a center u and a radius R that every
    one of its samples lies within: R = r + t + min(r, t), with r the
    cell's grid radius and t = dist(u, a), from one exact batch of the
    centers outside a and 0 at the others.  Its kept rows lie within r
    of u, and a band row moved onto a lies within 2 r + t of u, since
    dist(., a) is 1-Lipschitz, and within r + 2 t, since it is no
    farther than its row from the point of a nearest to u (see
    `_cell_samples`).  So a cell is bounded before its rows are read,
    and they get their slack and band projections (`_row_samples`) only
    when the cell is visited.  (r is padded for rounding.)

    dist(., b) is 1-Lipschitz in the geodesic metric, so every sample x
    of a cell has dist(x, b) <= dist(u, b) + R <= arccos(g . u) + R,
    where g is the generator of b nearest to u, a point of b.  A cell is
    dropped before any exact evaluation when its cheap bound
    arccos(g . u) + R is at or below the running maximum less
    `_PRUNE_MARGIN`, or when it lies inside b: with c the chord of
    min(R, pi), n . x >= n . u - c for every unit normal n of b, so a
    cell whose center slack against b's normals, less c, is at least
    `_DEEP_SLACK` has every sample strictly inside b, at distance 0.
    The other cells get the bound reach = dist(u, b) + R from one exact
    batch of their centers, and are visited in decreasing reach, about
    `_CELL_BATCH` grid rows at a time, until the next reach is at or
    below the running maximum less the margin; the maximum only grows,
    and every later cell has a smaller reach.

    So every skipped sample lies within its cell's bound, and that bound
    is at most the running maximum less the margin.  The exact routine
    returns the angle to a body point in the stable atan2 form, so the
    Lipschitz bounds add values exact to a few ulp; only the arccos of
    the cheap bound rounds by more, up to sqrt(2 * 4 ulp), about 3e-8,
    near zero distance, where the cosine rounds to 1.  The margin
    exceeds both, so a skipped sample is below the running maximum,
    which an evaluated sample reaches.  The bounds only decide what is
    skipped: the value is the maximum over the same samples whichever
    cells are pruned.
    """
    resolution = _resolve_resolution(resolution, a)
    grid, cells, near, outside, band_width = _cell_samples(a, resolution)
    best = float(batch_point_body_distance(a.generator_array, b).max())
    # the samples of cell near[j] lie within R[j] of its center u[j], and
    # c[j] is the chord of min(R[j], pi)
    u = cells.centers[near]
    t = np.zeros(near.size)
    t[outside] = _nearest_body_points(u[outside], a)[0]
    R = cells.radii[near]
    R += t + np.minimum(R, t)
    c = 2.0 * np.sin(np.minimum(R, math.pi) / 2.0)
    inside = kernels.min_slack(u, b.normal_array) - c >= _DEEP_SLACK
    cheap = _generator_upper_bound(u, b) + R
    live = np.flatnonzero(~inside & (cheap > best - _PRUNE_MARGIN))
    reach = batch_point_body_distance(u[live], b) + R[live]
    order = np.argsort(-reach, kind="stable")
    live, reach = live[order], reach[order]
    # taken[j]: grid rows in the first j cells of that order
    taken = np.concatenate([[0], np.cumsum(np.diff(cells.starts)[near[live]])])
    done = 0
    while True:
        stop = min(
            int(np.searchsorted(-reach, _PRUNE_MARGIN - best)),
            int(np.searchsorted(taken, taken[done] + _CELL_BATCH)),
        )
        if stop <= done:
            break
        X = _row_samples(a, grid[cells.rows(near[live[done:stop]])], band_width)
        if X.shape[0]:
            best = max(best, float(batch_point_body_distance(X, b).max()))
        done = stop
    return Angle(best), resolution


def directed_distance_with_bound(a, b, resolution=None):
    """Directed distance with provenance: (value, error_bound, path).

    path is "exact" (error bound 0) when the face-extremum enumeration
    is certified complete for the pair, and "sampled" (error bound =
    resolution) for the dense fallback.
    """
    if a.generator_array.shape[1] != b.generator_array.shape[1]:
        raise DimensionMismatchError("bodies live in different ambient spaces")
    Ga = a.generator_array
    if Ga.shape[0] == 1:
        return point_body_distance(Ga[0], b), 0.0, "exact"
    exact = _exact_directed(a, b)
    if exact is not None:
        return Angle(max(exact, 0.0)), 0.0, "exact"
    value, err = directed_distance_sampled(a, b, resolution)
    return value, err, "sampled"


def directed_distance(a, b, resolution=None):
    """max over x in a of point_body_distance(x, b)."""
    return directed_distance_with_bound(a, b, resolution)[0]


def hausdorff_with_bound(a, b, resolution=None):
    """Pompeiu-Hausdorff distance with its worst-case error bound."""
    d_ab, e_ab, p_ab = directed_distance_with_bound(a, b, resolution)
    d_ba, e_ba, p_ba = directed_distance_with_bound(b, a, resolution)
    path = "exact" if (p_ab == "exact" and p_ba == "exact") else "sampled"
    return Angle(max(d_ab, d_ba)), max(e_ab, e_ba), path


def hausdorff(a, b, resolution=None):
    """max of the two directed distances."""
    return hausdorff_with_bound(a, b, resolution)[0]


def hemisphere_hausdorff(p, q):
    """Closed-form Hausdorff distance between hemisphere bodies.

    Equals the angle between the centers, saturating at pi/2 once the
    centers are more than a quarter turn apart.
    """
    d = geodesic_distance(p, q)
    return Angle(min(float(d), math.pi / 2.0))


# ---------------------------------------------------------------------------
# dilations
# ---------------------------------------------------------------------------


def dilation_contains(body, r, x):
    """Whether x lies in the closed r-dilation of the body.

    Like `point_body_distance`, it normalizes x first.
    """
    r = float(r)
    if not (0.0 < r < math.pi):
        raise ValueError(f"dilation radius must lie in (0, pi), got {r}")
    return float(point_body_distance(x, body)) <= r + _DILATION_TOL


def dilation_intersection_mismatches(w, r, samples, seed):
    """Count sample points where the two r-dilation routes disagree.

    Route one: membership in the r-dilation of the polar body.  Route
    two: membership in the intersection of the r-dilations of the
    single hemispheres carried by the body's points P.  The worst
    hemisphere deficit sup_P max(0, angle(x, P) - pi/2) is computed
    exactly from the antipode, because max_P angle(x, P) = pi - min_P
    angle(-x, P) = pi - (distance from -x to the body); no convexity
    argument is involved.

    Intersecting over the generators only is NOT equivalent: angle(x, .)
    is not geodesically convex past pi/2, so its maximum over the body
    can land in a face interior and exceed the generator maximum (points
    between the two thresholds then disagree); tests pin a concrete
    square where that finite formula fails while this route agrees.

    Points within IDENTITY_BAND of either boundary are excluded.
    Returns (mismatches, tested).
    """
    r = float(r)
    if not (0.0 < r < math.pi / 2.0):
        raise ValueError(f"identity check needs 0 < r < pi/2, got {r}")
    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")
    if not polar_admissible(w):
        raise ValueError("body has a trivial polar; identity check undefined")
    pw = polar(w)
    d = w.generator_array.shape[1]
    X = uniform_sphere_points(d - 1, samples, seed)
    dist_polar = batch_point_body_distance(X, pw)
    worst = math.pi - batch_point_body_distance(-X, w)
    dist_hemis = np.maximum(worst - math.pi / 2.0, 0.0)
    in_polar = dist_polar <= r + _DILATION_TOL
    in_hemis = dist_hemis <= r + _DILATION_TOL
    near = (np.abs(dist_polar - r) <= IDENTITY_BAND) | (
        np.abs(dist_hemis - r) <= IDENTITY_BAND
    )
    mismatch = (in_polar != in_hemis) & ~near
    return int(mismatch.sum()), int((~near).sum())


def dilation_intersection_check(w, r, samples, seed):
    """True iff both r-dilation routes agree away from the boundary."""
    bad, _ = dilation_intersection_mismatches(w, r, samples, seed)
    return bad == 0


# ---------------------------------------------------------------------------
# separation
# ---------------------------------------------------------------------------


def separate(a, b):
    """Unit normal q of a great sphere with a inside and b strictly outside.

    A linear program maximizes t subject to G_a q >= t, G_b q <= -t and
    |q_i| <= 1.  Only t > `_SAFE_ASSIGN` counts, so a hemisphere or a
    lune as either argument always raises.  q / |q| is re-verified on
    the raw generators (G_a q >= -MEMBERSHIP_TOL, G_b q <= -FEAS_EPS),
    which carries over to the bodies: a member is y = sum(lam_i g_i)
    with sum(lam_i) >= |y| = 1.  No gap test is needed: a common point
    y = sum(lam_i g_a,i) = sum(mu_j g_b,j), lam, mu >= 0 not all zero,
    has t sum(lam) <= q . y <= -t sum(mu), so t <= 0.
    """
    Ga = a.generator_array
    Gb = b.generator_array
    if Ga.shape[1] != Gb.shape[1]:
        raise DimensionMismatchError("bodies live in different ambient spaces")
    d = Ga.shape[1]
    # variables (q, t): maximize t subject to  Ga q >= t,  Gb q <= -t
    c = np.zeros(d + 1)
    c[d] = -1.0
    A_ub = np.zeros((Ga.shape[0] + Gb.shape[0], d + 1))
    A_ub[: Ga.shape[0], :d] = -Ga
    A_ub[: Ga.shape[0], d] = 1.0
    A_ub[Ga.shape[0] :, :d] = Gb
    A_ub[Ga.shape[0] :, d] = 1.0
    bounds = [(-1.0, 1.0)] * d + [(None, 2.0)]
    res = linprog(c, A_ub=A_ub, b_ub=np.zeros(A_ub.shape[0]), bounds=bounds, method="highs")
    if not res.success or res.x is None or res.x[d] <= _SAFE_ASSIGN:
        raise SeparationError()
    q = res.x[:d]
    nq = float(np.linalg.norm(q))
    if nq < NEAR_ZERO:
        raise SeparationError()
    q = q / nq
    if float((Ga @ q).min()) < -MEMBERSHIP_TOL or float((Gb @ q).max()) > -FEAS_EPS:
        raise SeparationError()
    return UnitPoint(q)
