"""Deterministic sphere sampling used by the sampled-distance routines,
and the test oracles.

The sampling part (`sphere_grid`, its cell index `grid_cells`,
`uniform_sphere_points` and `COVERING_COEFF`) is on the production
path: the sampled distance route and the dilation-identity check of
`metric`, and the harness suites, call it.

The oracles are slow routes, independent of the production code, to
answers it computes another way: subset enumeration for the face spans
of `metric` and for the extreme rays of a dual cone, per-ray membership
fits for extreme rays, a linear-program sweep for a nontrivial dual
cone, and alternating projections for the gap between two bodies.  The
tests cross-validate against them; no production path calls the
oracles.

The grid construction is recursive: a circle is sampled at equal
angles, and the n-sphere is built as colatitude rings, each ring
carrying a scaled copy of an (n-1)-sphere grid whose spacing is
widened by 1/sin(colatitude) so that arc lengths along the ring stay
bounded by the requested spacing.

Covering guarantee: every point of the n-sphere lies within
``COVERING_COEFF[n] * spacing`` (geodesic) of some grid point.

- circle: ring step <= spacing, so the covering radius is spacing/2.
- recursion: a point at colatitude t is within spacing/2 of a ring,
  and moving along that ring costs at most the sub-grid covering
  radius contracted by sin(t), so the coefficients satisfy
  c_n <= 1/2 + c_{n-1} * (1 + o(1)); the small inflation below absorbs
  the chord-to-geodesic correction for spacings up to ~0.2.

The coefficients are validated empirically in the test-suite by
probing random points against the grids.

Cell index: `grid_cells` groups the rows of a cached grid into small
cells of a cube map.  A row's cell is its largest-|coordinate| axis
and that coordinate's sign, plus its other coordinates divided by the
leading one and floored in steps of ``_CELL_SPAN`` grid spacings.
Each cell carries a unit center (its normalized row sum) and a
geodesic radius measured from its own rows, padded for rounding, so
every row of a cell lies within the cell's radius of its center
however the cell is shaped.  The index is built once per grid and kept
in the grid's cache entry, so the two are evicted together.
"""

import dataclasses
import itertools
import math

import numpy as np
from scipy.optimize import linprog

from . import cones
from .errors import DimensionMismatchError, NormalizationError, ResolutionError
from .geometry import Angle, subspace_canonical_basis

#: geodesic covering radius of ``sphere_grid(dim, s)`` is at most
#: ``COVERING_COEFF[dim] * s`` (dim = dimension of the sphere itself)
COVERING_COEFF = {1: 0.5, 2: 1.01, 3: 1.52}

#: largest sphere dimension the grid construction supports
MAX_GRID_DIM = max(COVERING_COEFF)

# a ring whose radius is below spacing/(2*pi) collapses to one point;
# its internal spread is then well under half the requested spacing
_RING_COLLAPSE = 2.0 * math.pi

#: hard cap on grid size; a grid this large occupies ~1 GB and marks a
#: spacing/dimension combination that should use a coarser resolution
GRID_POINT_LIMIT = 30_000_000

# side of a grid cell along each cube-map coordinate, in grid spacings
_CELL_SPAN = 8

# the cell index is built over this many grid rows at a time
_INDEX_CHUNK = 1 << 16

# added to every measured cell radius: covers the rounding of the rows,
# the centers and the chords it is measured from
_RADIUS_PAD = 1e-12

# alternating projections of `min_body_gap` stop after this many rounds
_GAP_ITERATIONS = 120

# (dim, spacing) -> {"grid": rows, "cells": GridCells once built}
_grid_cache = {}


#: hypersurface measure of the unit n-sphere, n = 1..3
_SPHERE_AREA = {1: 2.0 * math.pi, 2: 4.0 * math.pi, 3: 2.0 * math.pi**2}


def grid_size_estimate(dim, spacing):
    """Estimate of the number of points sphere_grid would build.

    The ring construction places about area/spacing^dim points; the
    factor 1.3 absorbs ring rounding so the estimate errs high.
    """
    return int(1.3 * _SPHERE_AREA[dim] / float(spacing) ** dim) + 2


def sphere_grid(dim, spacing):
    """Deterministic covering grid of the dim-sphere in R^{dim+1}.

    Returns an (N, dim+1) array of unit rows.  Results are cached per
    (dim, spacing); callers must not mutate them.
    """
    return _grid_entry(dim, spacing)["grid"]


def grid_cells(dim, spacing):
    """Cell index of ``sphere_grid(dim, spacing)``, built on first use.

    It is cached with the grid and evicted with it.  Callers must not
    mutate it.
    """
    entry = _grid_entry(dim, spacing)
    if "cells" not in entry:
        entry["cells"] = _build_cells(entry["grid"], float(spacing))
    return entry["cells"]


def _grid_entry(dim, spacing):
    if dim not in COVERING_COEFF:
        raise ResolutionError(
            f"sphere grids are available for sphere dimensions 1..{MAX_GRID_DIM}, got {dim}"
        )
    if not (spacing > 0.0):
        raise ResolutionError(f"grid spacing must be positive, got {spacing}")
    key = (dim, float(spacing))
    hit = _grid_cache.get(key)
    if hit is not None:
        return hit
    approx = grid_size_estimate(dim, float(spacing))
    if approx > GRID_POINT_LIMIT:
        raise ResolutionError(
            f"a spacing-{spacing} grid of the {dim}-sphere needs about "
            f"{approx} points (limit {GRID_POINT_LIMIT}); use a coarser resolution"
        )
    entry = {"grid": _build_grid(dim, float(spacing))}
    if len(_grid_cache) >= 4:
        _grid_cache.clear()
    _grid_cache[key] = entry
    return entry


def _build_grid(dim, spacing):
    if dim == 1:
        k = max(1, math.ceil(2.0 * math.pi / spacing))
        ang = np.arange(k) * (2.0 * math.pi / k)
        return np.ascontiguousarray(np.column_stack([np.cos(ang), np.sin(ang)]))
    # colatitude rings measured from the last coordinate axis
    k = max(1, math.ceil(math.pi / spacing))
    blocks = []
    for j in range(k + 1):
        theta = j * math.pi / k
        s, c = math.sin(theta), math.cos(theta)
        if s * _RING_COLLAPSE < spacing:
            point = np.zeros((1, dim + 1))
            point[0, dim] = 1.0 if c >= 0 else -1.0
            blocks.append(point)
            continue
        sub = _build_grid(dim - 1, min(spacing / s, 2.0 * math.pi))
        ring = np.empty((sub.shape[0], dim + 1))
        ring[:, :dim] = s * sub
        ring[:, dim] = c
        blocks.append(ring)
    return np.ascontiguousarray(np.vstack(blocks))


@dataclasses.dataclass(frozen=True)
class GridCells:
    """Cells of a sphere grid.

    Cell k holds the grid rows ``perm[starts[k]:starts[k + 1]]``, and
    every one of them lies within geodesic distance ``radii[k]`` of the
    unit vector ``centers[k]``.
    """

    perm: np.ndarray
    starts: np.ndarray
    centers: np.ndarray
    radii: np.ndarray

    def rows(self, cells):
        """Grid row indices of the given cells, cell after cell."""
        lo = self.starts[cells]
        size = self.starts[cells + 1] - lo
        offset = np.arange(size.sum()) - np.repeat(np.cumsum(size) - size, size)
        return self.perm[np.repeat(lo, size) + offset]


def _cell_keys(X, step):
    """Cube-map cell key of each row: leading axis, its sign, and the
    other coordinates over the leading one, floored in `step`s."""
    n, d = X.shape
    width = math.floor(1.0 / step) + 1  # floor(y / step) + width lies in [0, 2 width)
    axis = np.abs(X).argmax(axis=1)
    lead = X[np.arange(n), axis]
    keys = 2 * axis + (lead < 0)
    for j in range(1, d):
        y = X[np.arange(n), (axis + j) % d] / np.abs(lead)
        keys = keys * (2 * width) + (np.floor(y / step).astype(np.int64) + width)
    return keys


def _build_cells(grid, spacing):
    """Group the grid's rows into cells and measure each cell's radius.

    Works in chunks of `_INDEX_CHUNK` rows and keeps no reordered copy
    of the grid: the rows of a chunk of cells are gathered through the
    permutation.
    """
    n = grid.shape[0]
    step = _CELL_SPAN * spacing
    keys = np.empty(n, dtype=np.int64)
    for lo in range(0, n, _INDEX_CHUNK):
        keys[lo:lo + _INDEX_CHUNK] = _cell_keys(grid[lo:lo + _INDEX_CHUNK], step)
    perm = np.argsort(keys, kind="stable").astype(np.int32)
    keys.sort()
    starts = np.concatenate([[0], np.flatnonzero(np.diff(keys)) + 1, [n]])
    del keys
    m = starts.size - 1

    def chunks():
        # a chunk of rows in cell order, the cell of each row, and where
        # each cell's run of rows starts within the chunk
        for lo in range(0, n, _INDEX_CHUNK):
            pos = np.arange(lo, min(n, lo + _INDEX_CHUNK))
            cell = np.searchsorted(starts, pos, side="right") - 1
            yield grid[perm[pos]], cell, np.flatnonzero(np.diff(cell, prepend=-1))

    sums = np.zeros((m, grid.shape[1]))
    for rows, cell, run in chunks():
        sums[cell[run]] += np.add.reduceat(rows, run, axis=0)
    centers = sums / np.linalg.norm(sums, axis=1)[:, None]
    chord = np.zeros(m)
    for rows, cell, run in chunks():
        far = np.maximum.reduceat(np.linalg.norm(rows - centers[cell], axis=1), run)
        chord[cell[run]] = np.maximum(chord[cell[run]], far)
    radii = 2.0 * np.arcsin(np.minimum(chord / 2.0, 1.0)) + _RADIUS_PAD
    return GridCells(perm, starts, centers, radii)


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


def face_spans_bruteforce(body):
    """Subset-enumeration oracle for `metric._face_spans`.

    A span of rank r is spanned by r of the generators in it, so the
    spans of all generator subsets of size 2 up to min(rank, d - 1)
    include every face span of rank 2 to d - 1, along with spans that
    carry no face (whose projections the nearest-point routine rejects
    as infeasible or beaten).  Same layout as the production routine:
    one (s, f, d) stack per span dimension f.  The count grows as
    C(m, d - 1); it is a test oracle, not a production path.
    """
    G = body.generator_array
    m, d = G.shape
    seen = {}
    for size in range(2, min(m, body.span()[1], d - 1) + 1):
        for subset in itertools.combinations(range(m), size):
            B, r = cones.span_basis(G[list(subset)])
            if 2 <= r < d:
                seen.setdefault(cones.span_key(B), B)
    by_dim = {}
    for B in seen.values():
        by_dim.setdefault(B.shape[0], []).append(B)
    return [np.stack(bases) for bases in by_dim.values()]


def dual_cone_rays_bruteforce(G):
    """Subset-enumeration oracle for `cones.dual_cone_rays`.

    Every extreme ray of the (pointed, in span coordinates) dual cone
    has at least s-1 linearly independent active constraints, so the
    nullspace directions of all (s-1)-subsets of the generators, kept
    when feasible, enumerate all extreme rays.  Slow and independent of
    the double-description code; used for cross-validation.
    """
    G = cones.dedupe_rays(cones.unitize(np.asarray(G, dtype=float)))
    d = G.shape[1]
    B, s = cones.span_basis(G)
    if s == 0:
        raise NormalizationError("cone has no span")
    Gs = cones.unitize(G @ B.T)
    m = Gs.shape[0]
    cands = []
    for subset in itertools.combinations(range(m), s - 1):
        if subset:
            A = Gs[list(subset)]
            _, sv, Vt = np.linalg.svd(A)
            rank = int((sv > 1e-8).sum())
            if rank < s - 1:
                continue
            q = Vt[-1]
        else:
            q = np.ones(1)
        for cand in (q, -q):
            if float((Gs @ cand).min()) >= -cones.RAY_TOL:
                cands.append(cand / np.linalg.norm(cand))
    rays_s = cones.dedupe_rays(np.array(cands)) if cands else np.zeros((0, s))
    rays = rays_s @ B if rays_s.shape[0] else np.zeros((0, d))
    lin = subspace_canonical_basis(np.eye(d) - B.T @ B)
    rays = cones.lex_sorted_rows(rays) if rays.shape[0] else rays
    return rays, lin


def extreme_rays_nnls(G):
    """Per-ray membership-fit oracle for the pointed part of
    `cones.extreme_rays`, rows lex-sorted."""
    G = cones.dedupe_rays(cones.unitize(np.asarray(G, dtype=float)))
    return cones.lex_sorted_rows(cones._nnls_reduce(G))


def nontrivial_dual_witness(G):
    """A nonzero q with q . g >= 0 for all rows, or None if the dual
    cone is the origin alone.

    Sweeps the +/- coordinate objectives over the feasible box; the
    dual cone is nontrivial iff one sweep finds a point with positive
    norm (any unit dual vector has box-norm >= 1/sqrt(d), far above the
    decision threshold).
    """
    G = np.asarray(G, dtype=float)
    m, d = G.shape
    for j in range(d):
        for sgn in (1.0, -1.0):
            c = np.zeros(d)
            c[j] = -sgn
            res = linprog(
                c,
                A_ub=-G,
                b_ub=np.zeros(m),
                bounds=[(-1.0, 1.0)] * d,
                method="highs",
            )
            if res.success and sgn * res.x[j] > 1e-7:
                q = res.x / np.linalg.norm(res.x)
                if float((G @ q).min()) >= -cones.FEAS_EPS:
                    return q
    return None


def min_body_gap(a, b):
    """Smallest geodesic distance between points of two bodies, from above.

    Alternating nearest-point iteration from the closest generator pair.
    It holds distances between points of a and b, so it never falls
    below the gap, but it can stop above it: against the exact gap
    pi/2 - d(-a, b*) of 300 seeded S^2 and S^3 pairs each (gaps below
    pi/2), it was at most 1.4e-15 below, and above by more than 1e-9 on
    3 and 5 pairs, by up to 0.039 and 0.048 rad.
    """
    from . import metric  # not at load time: `metric` imports this module

    Ga = a.generator_array
    Gb = b.generator_array
    if Ga.shape[1] != Gb.shape[1]:
        raise DimensionMismatchError("bodies live in different ambient spaces")
    dots = Ga @ Gb.T
    i, j = np.unravel_index(int(np.argmax(dots)), dots.shape)
    y = Gb[j][None, :]
    best = float(metric._angles(Ga[i][None, :], y)[0])
    for _ in range(_GAP_ITERATIONS):
        _, x = metric._nearest_body_points(y, a)
        gap, y = metric._nearest_body_points(x, b)
        current = float(gap[0])
        if best - current < 1e-14:
            best = min(best, current)
            break
        best = current
    return Angle(best)
