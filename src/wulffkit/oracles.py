"""The covering grid of the sampled-distance routines, and the test
oracles.

The grid part (`sphere_grid`, its cell index `grid_cells` and
`COVERING_COEFF`) is on the production path: the sampled distance
route of `metric` and the approximation suite's ring directions call
it.  Seeded random draws on the sphere live in `geometry`.

The oracles are slow routes, independent of the production code, to
answers it computes another way.  The tests cross-validate against
them; no production path calls them.

- `face_spans_bruteforce`: subset enumeration for the face spans of
  `metric`, of every rank.
- `dual_cone_rays_exact`: the exact reference for
  `cones.dual_cone_rays`.
- `extreme_rays_exact`: the exact reference for `cones.extreme_rays`.
- `min_body_gap`: alternating projections for the gap between two
  bodies.

Exact contract.  The two exact references take the rows through the
conversion's own input contract (`cones.unitize`, then
`cones.dedupe_rays`), so they see the same float rows, and convert
each float exactly with `fractions.Fraction`.  Each row is then scaled
by the common denominator of its entries, a power of two, which makes
it a row of integers on the same ray.  From there every decision is
made in exact rational arithmetic on those integers (rows are reduced
by cross-multiplication, never divided): no tolerance is taken or
defined, and a row is tight on a ray only when their product is 0.
The answers come back as float rows in the conversion's layout: unit
rays in `cones.lex_sorted_rows` order and the canonical orthonormal
basis of the lineality.  So a disagreement on any input is the float
code's, up to the final rounding of the answer, with one exception by
design: rows dependent only up to rounding are independent in exact
arithmetic, and their dual is ill-posed (its rays are set by the
rounding), while `cones` decides their rank at `cones.SPAN_TOL`.  The
references judge inputs whose dependencies are exact in floats.  The
enumeration costs C(m, s - 1) exact eliminations for m rows of rank s;
it is meant for the tests' sizes, about 12 rows in R^4.

Enumeration argument.  Let C be the rows, of rank s in R^d, and L the
kernel of C, computed exactly.  The dual {q : C q >= 0} is L plus its
part in span(C) = L's complement, and that part is pointed, since a
line in it would be orthogonal to every row.  A pointed polyhedral cone
of dimension s is generated by its extreme rays, and a ray q of it is
extreme iff the rows tight at q have rank s - 1 (Fukuda and Prodon,
"Double description method revisited", 1996).  So each extreme ray is
the kernel of some s - 1 independent rows together with a basis of L,
that kernel being one-dimensional, with the sign that makes it
nonnegative on every row; the enumeration tries every (s - 1)-subset
and keeps those lines as primitive integer vectors (entries with gcd
1), so that one ray found from several subsets is kept once.
`extreme_rays_exact` runs the same enumeration on the exact rays and
+/- the lineality basis of the dual: the dual of the dual is cone(C)
itself, its lineality the kernel of those rows and its rays the
extreme rays of cone(C).

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
however the cell is shaped, and the chord of that radius, which the
sampled route's slack bounds read.  The index is built once per grid
and kept in the grid's cache entry, so the two are evicted together.
"""

import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np

from . import cones, kernels
from .errors import DimensionMismatchError, ResolutionError
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
    unit vector ``centers[k]``.  ``chords[k]`` is the chord of that
    radius, 2 sin(radii[k] / 2), computed once with the index, so that a
    unit normal n has n . x >= n . centers[k] - chords[k] on every row x
    of the cell.
    """

    perm: np.ndarray
    starts: np.ndarray
    centers: np.ndarray
    radii: np.ndarray
    chords: np.ndarray

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
    return GridCells(perm, starts, centers, radii, 2.0 * np.sin(radii / 2.0))


def face_spans_bruteforce(body):
    """Subset-enumeration oracle for the face spans of `metric`.

    A span of rank r is spanned by r of the generators in it, so the
    spans of all generator subsets of size 2 up to min(rank, d - 1)
    include every face span of rank 2 to d - 1, along with spans that
    carry no face (whose projections the nearest-point routine rejects
    as infeasible or beaten).  `metric` reads the face spans of rank
    d - 1 off unit normals (`metric._facet_normals`) and only the others
    through bases (`metric._basis_spans`); these bases, in the layout of
    the latter, one (s, f, d) stack per span dimension f, stand for all
    of them when the normals are left out.  The count grows as
    C(m, d - 1); it is a test oracle, not a production path.
    """
    G = body.generator_array
    m, d = G.shape
    seen = {}
    rank = cones.span_basis(G)[1]
    for size in range(2, min(m, rank, d - 1) + 1):
        for subset in itertools.combinations(range(m), size):
            B, r = cones.span_basis(G[list(subset)])
            if 2 <= r < d:
                seen.setdefault(cones.span_key(B), B)
    by_dim = {}
    for B in seen.values():
        by_dim.setdefault(B.shape[0], []).append(B)
    return [np.stack(bases) for bases in by_dim.values()]


def _primitive(v):
    """Integer vector v divided by the gcd of its entries (a positive
    scaling, so the same ray)."""
    g = math.gcd(*v)
    return [x // g for x in v] if g > 1 else v


def _kernel(rows, d):
    """Basis of {x : r . x = 0 for every integer row r}, as primitive
    integer vectors, one per free column of the reduced row echelon
    form.  Rows are reduced by cross-multiplication, never divided, so
    every entry stays an integer and every test is exact."""
    rows, pivots = list(rows), []
    for c in range(d):
        p = next((i for i in range(len(pivots), len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        top = rows.pop(p)
        rows = [_primitive([a * top[c] - r[c] * b for a, b in zip(r, top)]) if r[c] else r for r in rows]
        rows.insert(len(pivots), top)
        pivots.append(c)
    scale = math.prod(r[c] for r, c in zip(rows, pivots))
    basis = []
    for f in (c for c in range(d) if c not in pivots):
        x = [scale * (c == f) for c in range(d)]
        for r, c in zip(rows, pivots):
            x[c] = -r[f] * scale // r[c]
        basis.append(_primitive(x))
    return basis


def _exact_dual(rows, d):
    """(extreme rays, lineality basis) of {q : r . q >= 0 for every
    integer row r}, as primitive integer vectors."""
    lin = _kernel(rows, d)
    rays = {}
    for subset in itertools.combinations(rows, max(d - len(lin) - 1, 0)):
        edge = _kernel(list(subset) + lin, d)
        if len(edge) != 1:
            continue
        for q in (edge[0], [-x for x in edge[0]]):
            if all(sum(a * b for a, b in zip(r, q)) >= 0 for r in rows):
                rays[tuple(q)] = None
    return list(rays), lin


def _exact_input(G):
    """The rows `cones.dual_cone_rays` works on, exactly: each row's
    Fractions times their largest denominator (a power of two, so a
    common one) are integers."""
    G = cones.dedupe_rays(cones.unitize(np.asarray(G, dtype=float)))
    rows = [[Fraction(x) for x in g] for g in G.tolist()]
    return [[int(x * max(y.denominator for y in r)) for x in r] for r in rows], G.shape[1]


def _as_floats(rays, lin, d):
    """Exact (rays, lineality) in `cones.dual_cone_rays`' float layout."""
    rays, lin = ([[x / max(map(abs, v)) for x in v] for v in M] for M in (rays, lin))
    rays = cones.unitize(np.array(rays, dtype=float).reshape(-1, d))
    Q = np.linalg.qr(np.array(lin, dtype=float).reshape(-1, d).T)[0]
    return cones.lex_sorted_rows(rays), subspace_canonical_basis(Q @ Q.T, len(lin))


def dual_cone_rays_exact(G):
    """Exact reference for `cones.dual_cone_rays`: same input contract,
    same output layout."""
    rows, d = _exact_input(G)
    return _as_floats(*_exact_dual(rows, d), d)


def extreme_rays_exact(G):
    """Exact reference for the (rays, lineality) of `cones.extreme_rays`:
    the dual of the exact dual, enumerated on its rays and +/- its
    lineality basis."""
    rows, d = _exact_input(G)
    rays, lin = _exact_dual(rows, d)
    return _as_floats(*_exact_dual(rays + lin + [[-x for x in v] for v in lin], d), d)


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
    best = float(kernels.angles(Ga[i][None, :], y)[0])
    for _ in range(_GAP_ITERATIONS):
        _, x = metric._nearest_body_points(y, a)
        gap, y = metric._nearest_body_points(x, b)
        current = float(gap[0])
        if best - current < 1e-14:
            best = min(best, current)
            break
        best = current
    return Angle(best)
