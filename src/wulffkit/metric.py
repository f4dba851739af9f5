"""Distances on the sphere: point-to-body, directed, Pompeiu-Hausdorff.

Every point-to-body distance comes from one batched routine,
`_nearest_body_points`, which returns the nearest body point of each
row of a query block together with its geodesic angle (a single point
is a batch of one).  Its candidates are genuine body members: the row
itself when it is inside, the nearest generator, and the normalized
projections onto the spans of the body's faces, found at once for the
whole block; bodies with more generators than `_FACE_CAP` use a
per-point cone projection instead.  The closest candidate is exact.
The faces are read off the generator-normal incidence (`_face_spans`).
The sampling band and the alternating projections of `min_body_gap`
use the same routine.

Directed distances are exact when the pair is certified quarter-turn
free (some point of the target within a strict quarter turn of the
whole source, found by a least-distance program): the squared cosine
of the distance is then C^1, every interior extremum over a source
face is an eigenvector of a small operator projected on a source face
span and a target face span, and the finite candidate set (source
generators plus those eigenvectors) provably contains the maximizer.
The maximum can land strictly inside a face — generators alone are
NOT enough; a regression test pins a pair where the best generator is
off by more than 2.5e-3.  Outside the certified regime the directed
distance falls back to dense sampling of the source, within the
sampling resolution of the true value.  That route needs only the
largest sampled distance: dist(., b) lies between the distance to b's
most violated supporting hemisphere and the distance to b's nearest
generator, two batch-kernel bounds per sample, and the exact routine
runs only on samples whose upper bound can still reach the maximum.
"""

import math

import numpy as np
from scipy.optimize import linprog

from . import kernels, oracles
from .cones import FEAS_EPS, least_distance, project_onto_cone, span_basis, span_key
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
)
from .transforms import polar, polar_admissible

#: default sampling resolution (radians) of the sampled distances, keyed by
#: the sphere dimension n of the sampled body: 0.005 on S^1 and S^2, 0.06 on
#: S^3, whose grid grows with the cube of the inverse spacing (about 3.6e6
#: points at 0.06; 0.005 would need 6.2e9, over `oracles.GRID_POINT_LIMIT`)
DEFAULT_RESOLUTION = {1: 0.005, 2: 0.005, 3: 0.06}

#: bodies with a smaller minimum gap than this are treated as touching
DISJOINTNESS_GAP = 1e-7

#: boundary band excluded by the dilation-intersection identity check
IDENTITY_BAND = 1e-6

# nearest points project onto the face spans of bodies with at most this
# many generators, keyed by ambient dimension; larger bodies get one cone
# projection per query row, whose cost does not grow with the face count
_FACE_CAP = {2: 48, 3: 30, 4: 18, 5: 13}

# sampled paths refuse to expand more than this many band points
_BAND_LIMIT = 2_000_000

_SAFE_ASSIGN = 1e-12

# alternating projections of `min_body_gap` stop after this many rounds
_GAP_ITERATIONS = 120

# nearest-point blocks hold about this many (row, generator or face
# span) pairs, which bounds the temporaries of a large query block
_BLOCK_PAIRS = 1 << 16

# rows of a nearest-point query block may be off unit length by this much
_UNIT_TOL = 1e-9

# the sampled directed distance bounds its samples in blocks of this many
# rows, so the kernels' temporaries stay small next to the sample set
_BOUND_BLOCK = 1 << 15

# it evaluates this many samples with the largest upper bounds first,
# which sets the running maximum that prunes the rest
_FIRST_PASS = 2048

# a sample is pruned only when its upper bound lies this far below a
# reached value: it covers the rounding of the arccos upper bound (up to
# sqrt(2 * 4 ulp), about 3e-8, near zero distance) and the 1e-10
# membership tolerance behind the lower bound
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


def _angles(X, Y):
    """Row-wise geodesic angles between unit rows, via the perpendicular part."""
    c = np.einsum("ij,ij->i", X, Y)
    return np.arctan2(_norms(Y - c[:, None] * X), c)


# ---------------------------------------------------------------------------
# face spans
# ---------------------------------------------------------------------------


def _face_spans(body):
    """Orthonormal bases of the spans of the body's faces, stacked by dimension.

    Reads the faces off the generator-normal incidence: the generators
    tight on one support normal form a face, every intersection of
    faces is a face, and a rank-deficient body is a face of itself.
    The sets are closed under pairwise intersection, and one basis is
    kept per distinct span of rank 2 up to d - 1 (single generators
    are covered by the nearest-generator candidate, and the whole
    space by the membership test).  Returns a list of (s, f, d) arrays,
    one per span dimension f.
    """
    cached = body._cache.get("face_spans")
    if cached is not None:
        return cached
    G = body.generator_array
    N = body.normal_array
    m, d = G.shape
    sets = (np.abs(G @ N.T) <= 1e-9).T
    if body.span()[1] < d:
        sets = np.vstack([sets, np.ones((1, m), dtype=bool)])
    sets = np.unique(sets[sets.sum(axis=1) >= 2], axis=0)
    while True:
        meets = (sets[:, None, :] & sets[None, :, :]).reshape(-1, m)
        grown = np.unique(np.vstack([sets, meets[meets.sum(axis=1) >= 2]]), axis=0)
        if grown.shape[0] == sets.shape[0]:
            break
        sets = grown
    seen = {}
    for face in sets:
        B, r = span_basis(G[face])
        if 2 <= r < d:
            seen.setdefault(span_key(B), B)
    by_dim = {}
    for B in seen.values():
        by_dim.setdefault(B.shape[0], []).append(B)
    spans = [np.stack(bases) for bases in by_dim.values()]
    body._cache["face_spans"] = spans
    return spans


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
    - up to `_FACE_CAP` generators, the block is projected onto every
      face span at once and the feasible normalized projections compete
      (the nearest cone point lies in the relative interior of a face,
      so one of them is it);
    - above the cap, each remaining row gets its Euclidean
      cone projection (non-negative least squares) and the exact
      projection onto the span of its active generators, which removes
      the solver's iteration residue.

    Angles take the stable form atan2(|perp|, dot): arccos of a cosine
    has a 1e-8 precision floor near zero distance.
    """
    X = np.asarray(X, dtype=float)
    G = body.generator_array
    m, d = G.shape
    if X.ndim != 2 or X.shape[1] != d:
        raise DimensionMismatchError("point block does not match the body's ambient space")
    if not np.isfinite(X).all():
        raise NonFiniteError("point block has non-finite coordinates")
    # rows are taken as they are, so a row off the sphere would get the
    # angle of a different point; callers normalize single points
    if (np.abs(_norms(X) - 1.0) > _UNIT_TOL).any():
        raise ValueError(f"point block rows must be unit vectors within {_UNIT_TOL}")
    spans = _face_spans(body) if m <= _FACE_CAP.get(d, 12) else None
    width = m + (0 if spans is None else sum(T.shape[0] for T in spans))
    step = max(1, _BLOCK_PAIRS // width)
    angles = np.empty(X.shape[0])
    points = np.empty_like(X)
    for lo in range(0, X.shape[0], step):
        blk = slice(lo, lo + step)
        angles[blk], points[blk] = _nearest_block(X[blk], body, spans)
    return angles, points


def _nearest_block(X, body, spans):
    G = body.generator_array
    N = body.normal_array
    d = G.shape[1]
    dots = X @ G.T
    pick = dots.argmax(axis=1)
    Y = G[pick]
    ang = _angles(X, Y)
    member = kernels.min_slack(X, N) >= -MEMBERSHIP_TOL
    live = np.flatnonzero(~member & (dots[np.arange(X.shape[0]), pick] > 0.0))
    Xl = X[live]
    # P[i, k]: orthogonal projection of live row i onto its k-th candidate
    # subspace (cone projections are orthogonal too, by Moreau), so the
    # normalized candidate sits at angle atan2(|x - p|, |p|) from the row
    if spans is None:
        P = np.empty((live.size, 2, d))
        for row, x in enumerate(Xl):
            proj, lam = project_onto_cone(G, x)
            B, _ = span_basis(G[lam > 1e-12])
            P[row] = proj, (x @ B.T) @ B
    else:
        parts = [np.empty((live.size, 0, d))]
        for T in spans:
            C = (Xl @ T.reshape(-1, d).T).reshape(live.size, *T.shape[:2])
            parts.append(np.matmul(C.swapaxes(0, 1), T).swapaxes(0, 1))
        P = np.concatenate(parts, axis=1)
    if P.shape[1]:
        c = _norms(P)
        ok = c > 1e-12
        c[~ok] = 1.0
        Z = P / c[..., None]
        ok &= kernels.min_slack(Z.reshape(-1, d), N).reshape(ok.shape) >= -MEMBERSHIP_TOL
        r = _norms(Xl[:, None, :] - P)
        # rank by the tangent |x - p| / |p|, which orders angles below a
        # quarter turn as the angle does, without an arctan per candidate
        k = np.where(ok, r / c, np.inf).argmin(axis=1)
        pos = np.arange(live.size)
        a = np.where(ok[pos, k], np.arctan2(r[pos, k], c[pos, k]), np.inf)
        win = a < ang[live]
        ang[live[win]] = a[win]
        Y[live[win]] = Z[win, k[win]]
    Y[member] = X[member]
    ang[member] = 0.0
    return ang, Y


def point_body_distance(x, body):
    """Exact geodesic distance from a point to a body (an Angle).

    The point is normalized first, so any positive multiple of it gives
    the same distance.
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


def _body_sample_points(body, resolution):
    """Sample the body within geodesic covering radius resolution/2.

    Grid points already inside the body are kept; grid points whose
    worst constraint slack puts them within one covering radius of the
    body are replaced by their nearest body points.  Together with the
    generators these samples cover the body: every body point has a
    sample within 2 * (resolution/2.05) < resolution.
    """
    d = body.generator_array.shape[1]
    sphere_dim = d - 1
    r_cov = resolution / 2.05
    spacing = r_cov / oracles.COVERING_COEFF.get(sphere_dim, math.inf)
    grid = oracles.sphere_grid(sphere_dim, spacing)
    N = body.normal_array
    if N.shape[0] == 0:
        return grid
    slack = kernels.min_slack(grid, N)
    inside = slack >= -MEMBERSHIP_TOL
    # a grid point within r_cov of a body point violates each
    # constraint by at most the chord length 2 sin(r_cov / 2)
    band_width = 2.0 * math.sin(r_cov / 2.0) + MEMBERSHIP_TOL
    band = (~inside) & (slack >= -band_width)
    band_idx = np.flatnonzero(band)
    if band_idx.size > _BAND_LIMIT:
        raise ResolutionError(
            f"sampling at resolution {resolution} needs {band_idx.size} projections; "
            "increase the resolution"
        )
    _, nearest = _nearest_body_points(grid[band_idx], body)
    return np.ascontiguousarray(np.vstack([grid[inside], body.generator_array, nearest]))


def point_body_distance_sampled(x, body, resolution=None):
    """Sampled distance oracle; within `resolution` of the exact value."""
    v = as_unit_point(x).vec
    resolution = _resolve_resolution(resolution, body)
    samples = _body_sample_points(body, resolution)
    return Angle(float(kernels.angles_to_point(samples, v).min()))


# ---------------------------------------------------------------------------
# directed and Hausdorff distances
# ---------------------------------------------------------------------------


def _deep_witness(a, b):
    """A point of b strictly within a quarter turn of all of a, or None.

    Solves the least-distance program min |z| subject to G_a z >= 1 and
    N_b z >= 0 (`cones.least_distance`).  The canonical normal list N_b,
    with its +/- lineality rows, generates the dual cone of b, so
    N_b z >= 0 says exactly that z lies in cone(G_b).  A unit w in that
    cone with G_a w > 0 scales to a feasible z, and a feasible z
    normalizes to such a w, so the program is feasible exactly when
    some point of b is strictly within a quarter turn of every
    generator of a, hence of every point of a.  The witness w = z / |z|
    is re-verified on the raw arrays before it is returned.  It keeps
    all point-to-body distances of the pair in the regime where the
    exact extremum enumeration is complete.
    """
    Ga = a.generator_array
    Nb = b.normal_array
    h = np.concatenate([np.ones(Ga.shape[0]), np.zeros(Nb.shape[0])])
    z = least_distance(np.vstack([Ga, Nb]), h)
    if z is None:
        return None
    w = z / float(np.linalg.norm(z))
    if float((Ga @ w).min()) <= 1e-9 or float((Nb @ w).min(initial=0.0)) < -MEMBERSHIP_TOL:
        return None
    return w


def _exact_directed(a, b):
    """Exact directed distance, or None outside the certified regime.

    Valid when some point of b is strictly within a quarter turn of all
    of a (then every point-to-body distance involved stays below pi/2,
    where the squared spherical support x -> |proj_cone(x)|^2 is
    continuously differentiable).  Any interior maximizer on a face
    with span F, whose nearest point has active span E, is then an
    eigenvector of P_F P_E P_F; vertices cover the rest.  Candidates
    are screened by their branch value before the exact evaluation.
    """
    if _deep_witness(a, b) is None:
        return None
    Ga = a.generator_array
    Na = a.normal_array
    d = Ga.shape[1]
    best = float(batch_point_body_distance(Ga, b).max())
    parts = []
    sigs = []
    for TF in _face_spans(a):
        f = TF.shape[1]
        for TE in _face_spans(b):
            T = np.einsum("afd,bed->abfe", TF, TE, optimize=True)
            M = (T @ np.swapaxes(T, 2, 3)).reshape(-1, f, f)
            vals, vecs = np.linalg.eigh(M)
            BF = np.broadcast_to(
                TF[:, None, :, :], (TF.shape[0], TE.shape[0], f, d)
            ).reshape(-1, f, d)
            X = np.einsum("pjk,pjd->pkd", vecs, BF).reshape(-1, d)
            sig = np.sqrt(np.clip(vals.reshape(-1), 0.0, 1.0))
            nrm = np.linalg.norm(X, axis=1)
            ok = nrm > 1e-9
            X = X[ok] / nrm[ok, None]
            parts.append(X)
            sigs.append(sig[ok])
    if parts:
        X = np.vstack(parts)
        sig = np.concatenate(sigs)
        # a candidate whose own stationary branch value cannot beat the
        # running maximum cannot be the true maximizer either: the true
        # maximizer appears with its exact branch value sigma = cos(dist)
        keep = np.arccos(np.clip(sig, -1.0, 1.0)) > best + 1e-15
        X = X[keep]
        if X.shape[0]:
            X = np.vstack([X, -X])
            if Na.shape[0]:
                X = X[kernels.min_slack(np.ascontiguousarray(X), Na) >= -1e-9]
        if X.shape[0]:
            _, idx = np.unique(np.round(X, 12), axis=0, return_index=True)
            dist = batch_point_body_distance(np.ascontiguousarray(X[idx]), b)
            best = max(best, float(dist.max()))
    if best >= math.pi / 2.0 - 1e-9:
        return None
    return best


def _distance_bounds(X, body):
    """Lower and upper bounds on the distance from each unit row to the body.

    Lower: asin(-n . x), the distance to the body's most violated
    supporting hemisphere {n . y >= 0}, or 0 when none is violated.  The
    normal list carries the +/- lineality rows, so the body lies inside
    every one of these hemispheres.  Upper: arccos(g . x), the angle to
    the nearest generator, which is a body point.
    """
    slack = kernels.min_slack(X, body.normal_array)
    align = kernels.max_dot(X, body.generator_array)
    return np.arcsin(np.clip(-slack, 0.0, 1.0)), np.arccos(np.clip(align, -1.0, 1.0))


def directed_distance_sampled(a, b, resolution=None):
    """Dense-sampling route for the directed distance.

    Always samples the source body, regardless of whether the exact
    path applies; the result is within `resolution` of the true value.

    It returns the maximum of the exact distances to b over the sample
    set, but evaluates only the samples that can still hold it.  Each
    sample first gets a lower and an upper bound (`_distance_bounds`,
    in blocks of `_BOUND_BLOCK` rows).  The `_FIRST_PASS` samples with
    the largest upper bounds are evaluated first.  The others follow
    block by block, and a sample is evaluated only when its upper bound
    exceeds the larger of the running maximum and the best lower bound,
    less `_PRUNE_MARGIN`.

    A skipped sample cannot change the result.  Its exact distance is
    at most its upper bound plus the bound's rounding, which is smaller
    than the margin (the nearest generator is one of the exact
    routine's candidates), so it lies below the larger of the two
    values.  The running maximum is reached by an evaluated sample.
    The best lower bound is at most the exact distance of its own
    sample, whose upper bound is at least that distance, so that sample
    is evaluated too.
    """
    resolution = _resolve_resolution(resolution, a)
    samples = _body_sample_points(a, resolution)
    n = samples.shape[0]
    upper = np.empty(n)
    floor = 0.0
    for lo in range(0, n, _BOUND_BLOCK):
        lower, upper[lo:lo + _BOUND_BLOCK] = _distance_bounds(samples[lo:lo + _BOUND_BLOCK], b)
        floor = max(floor, float(lower.max()))
    k = min(n, _FIRST_PASS)
    first = np.argpartition(upper, n - k)[n - k:]
    best = float(batch_point_body_distance(samples[first], b).max())
    upper[first] = -np.inf  # already evaluated
    for lo in range(0, n, _BOUND_BLOCK):
        live = np.flatnonzero(upper[lo:lo + _BOUND_BLOCK] > max(best, floor) - _PRUNE_MARGIN)
        if live.size:
            dist = batch_point_body_distance(samples[lo + live], b)
            best = max(best, float(dist.max()))
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
    return float(point_body_distance(x, body)) <= r + 1e-10


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
    X = oracles.uniform_sphere_points(d - 1, samples, seed)
    dist_polar = batch_point_body_distance(X, pw)
    worst = math.pi - batch_point_body_distance(-X, w)
    dist_hemis = np.maximum(worst - math.pi / 2.0, 0.0)
    in_polar = dist_polar <= r + 1e-10
    in_hemis = dist_hemis <= r + 1e-10
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


def min_body_gap(a, b):
    """Smallest geodesic distance between points of two bodies.

    Alternating nearest-point iteration on the two bodies, started from
    the closest generator pair.  For bodies in a common open hemisphere
    this converges to the minimizing pair; it is used as a disjointness
    gate, with the separation solve providing the final certificate.
    """
    Ga = a.generator_array
    Gb = b.generator_array
    if Ga.shape[1] != Gb.shape[1]:
        raise DimensionMismatchError("bodies live in different ambient spaces")
    dots = Ga @ Gb.T
    i, j = np.unravel_index(int(np.argmax(dots)), dots.shape)
    y = Gb[j][None, :]
    best = float(_angles(Ga[i][None, :], y)[0])
    for _ in range(_GAP_ITERATIONS):
        _, x = _nearest_body_points(y, a)
        gap, y = _nearest_body_points(x, b)
        current = float(gap[0])
        if best - current < 1e-14:
            best = min(best, current)
            break
        best = current
    return Angle(best)


def separate(a, b):
    """Unit normal of a great sphere with a inside and b strictly outside.

    Solves a small linear program maximizing the two-sided margin over
    the generator sets, then re-verifies both clauses before returning.
    Margin positivity at the generators transfers to the whole bodies:
    every body member is a convex-cone combination y = sum(lam_i g_i)
    with sum(lam_i) >= |y| = 1, so q . y <= -eps carries over.
    """
    Ga = a.generator_array
    Gb = b.generator_array
    if Ga.shape[1] != Gb.shape[1]:
        raise DimensionMismatchError("bodies live in different ambient spaces")
    gap = min_body_gap(a, b)
    if float(gap) <= DISJOINTNESS_GAP:
        raise SeparationError(
            f"no-separator: bodies are closer than the disjointness gap ({float(gap):.3e})"
        )
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
