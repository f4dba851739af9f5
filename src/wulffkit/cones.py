"""Polyhedral cone computations on raw coordinate arrays.

Every function here works on (m, d) float arrays whose rows are ray or
constraint directions.  Bodies on the sphere are handled one level up;
this module only knows cones.

Conventions
-----------
* A cone is given by generating rays (V-form) or by constraint normals
  (H-form, meaning {x : n . x >= 0 for all n}).
* Non-pointed cones are reported as (pointed rays, lineality basis);
  callers that need a plain generator list append +/- each lineality
  basis vector.
* `extreme_rays` reduces raw rows to their cone's extreme rays and
  hands back the dual description found by the same branch: the closed
  form of independent rows (simplicial and arc inputs), the facets of
  a gnomonic-section hull, or the `dual_cone_rays` result it read the
  rays off.  So a body costs one conversion call.
* Tolerance hierarchy: sign classification CLASS_TOL = 1e-10 is
  coarser than the construction accuracy (~1e-12), so the zero sets
  the double description reads, and the rows `extreme_rays` finds
  tight on dual rays, stay stable under downstream arithmetic.  The
  coarser RAY_TOL = 1e-9 decides only which input rows are one ray
  (`dedupe_rays`); computed rays are never merged by distance.  The
  finest, CHORD_TOL = 1e-14, decides only which points of a rank-3
  gnomonic section are vertices of its polygon (`_section_polygon`): a
  point goes when its slack beyond its neighbours' chord, along the
  chord's unit outward normal, is at most CHORD_TOL times the section's
  scale max(1, max |u|).  The slack is formed from coordinate
  differences, so it rounds by a few units of 2.2e-16 of that scale;
  rows of one great circle are collinear in the section only up to
  that rounding, and a bound of 1e-16 still keeps 33 of 300 such middle
  rows (1e-15 keeps none).  A true vertex of a thin cone has slack of
  about the cone's thickness, which SPAN_TOL lets fall to about 1e-10:
  a bound of 1e-12 drops one of 250 thin draws' vertices (thickness
  1e-6 to 1e-10), and CLASS_TOL 46.  CHORD_TOL sits a decade inside
  both ends; on 1,326 rank-3 inputs of these kinds, random clouds and
  caps, its vertices and edge count equal Qhull's.
* Two solvers: scipy's `linprog`, for the pointed witness, and the
  in-house `nonneg_lstsq`, behind the least-distance program
  `least_distance`.
* scipy is imported on first use only: `scipy.optimize` by `linprog`,
  `scipy.linalg` (pivoted QR) by the double description `_dd_in_span`,
  and `scipy.spatial` (Qhull) by `_section_hull`, the hull of a section
  of rank 4 or more.  So importing the package, or building a body
  whose rows hold a witness and span rank 3 or less (every such S^2
  body), loads no scipy module.
"""

import math

import numpy as np

from .errors import NormalizationError
from .geometry import NEAR_ZERO, span_complement, subspace_canonical_basis

RAY_TOL = 1e-9    # two unit rays within this chordal distance are one ray
CLASS_TOL = 1e-10  # sign classification of dot products / membership slack
FEAS_EPS = 1e-9   # strict-positivity margin demanded of pointed witnesses
SPAN_TOL = 1e-10  # singular values below this do not extend a span
CHORD_TOL = 1e-14  # a rank-3 section point this close to a chord is no vertex

# `dedupe_rays` forms its pairwise gaps in blocks of about this many pairs
_DEDUPE_PAIRS = 1 << 16


def linprog(*args, **kwargs):
    """`scipy.optimize.linprog`, imported on the first call: building a
    body with a row witness solves nothing, so a run that never solves
    never loads `scipy.optimize`."""
    from scipy.optimize import linprog as solve

    return solve(*args, **kwargs)


def unitize(M):
    """Normalize rows to unit length; reject near-zero rows.

    A row whose largest |entry| exceeds 1 is first scaled by a power of
    two to below 1, so its norm cannot overflow.  The scaling is exact,
    so every row rounds as it would without it, and rows at unit scale
    or below pass through it unchanged.  Only this overflow side is
    scale-free: NEAR_ZERO = 1e-9 is an absolute floor on the row norm.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        M = M.reshape(1, -1) if M.ndim == 1 else M
    if M.shape[0] == 0:
        return M
    top = np.abs(M).max(axis=1, keepdims=True)
    if (top > 1.0).any():
        M = np.ldexp(M, -np.where(top > 1.0, np.frexp(top)[1], 0))
    norms = np.linalg.norm(M, axis=1)
    if (norms < NEAR_ZERO).any():
        raise NormalizationError("zero row cannot define a ray")
    return M / norms[:, None]


def dedupe_rays(M):
    """Drop rows that repeat an earlier row within chordal distance RAY_TOL.

    Greedy in row order: a row goes when a kept earlier row lies within
    RAY_TOL, so of a chain a ~ b ~ c with a, c apart, b goes and c stays.
    The pairwise gaps are computed once, in blocks of about _DEDUPE_PAIRS
    pairs; a row with no earlier row that close is kept outright, and
    only the others go through the greedy pass.
    """
    m = M.shape[0]
    if m <= 1:
        return M
    step = max(1, _DEDUPE_PAIRS // m)
    idx = np.arange(m)
    # close[i, j]: row j is earlier than row i and within RAY_TOL of it
    close = np.vstack([
        (np.linalg.norm(M[lo:lo + step, None, :] - M[None, :, :], axis=2) <= RAY_TOL)
        & (idx[lo:lo + step, None] > idx)
        for lo in range(0, m, step)
    ])
    keep = ~close.any(axis=1)
    for i in np.flatnonzero(~keep):
        keep[i] = not (close[i] & keep).any()
    return M[keep]


def lex_sorted_rows(M):
    """Rows sorted lexicographically (first coordinate is primary).

    The keys are the entries rounded to 12 decimals, so two computations
    of a body that differ in the last bits store its rows in the same
    order (a -0.0 key ties with 0.0, as every float comparison has it).
    """
    if M.shape[0] <= 1:
        return M
    return M[np.lexsort(np.round(M, 12)[:, ::-1].T)]


def span_basis(M):
    """Orthonormal basis (rows) of the row span of M, plus its rank."""
    M = np.asarray(M, dtype=float)
    if M.shape[0] == 0:
        return np.zeros((0, M.shape[1] if M.ndim == 2 else 0)), 0
    _, sv, Vt = np.linalg.svd(M, full_matrices=False)
    rank = int((sv > SPAN_TOL).sum())
    return Vt[:rank], rank


def span_key(B):
    """Hashable key of the span of the orthonormal rows B.

    The projector B^T B rounded to 9 decimals; adding 0.0 folds -0.0
    into 0.0, so one span cannot get two keys from the sign of a zero.
    """
    return (np.round(B.T @ B, 9) + 0.0).tobytes()


def nonneg_lstsq(A, b):
    """min |A x - b| over x >= 0 by the classical active-set algorithm.

    scipy.optimize.nnls (the >= 1.12 rewrite, still on 1.17.1) returns
    KKT-violating coefficient vectors with a wrong (often zero) reported
    residual on underdetermined systems — and every cone fit here is
    underdetermined (d equations, m > d generator columns).  On the
    16-column least-distance system of two wide caps' polars it reports
    residual 0.519 for an x of residual 0.728, where the optimum is
    0.6996 (`tests/test_cones.py` pins that system).  So this module
    carries its own implementation with exact least-squares subproblems.
    Returns (x, residual_norm); the residual is recomputed from x, never
    trusted from intermediate state.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = A.shape
    if n == 0:
        return np.zeros(0), float(np.linalg.norm(b))
    max_iter = 6 * n + 60
    scale = float(np.abs(A).max(initial=0.0)) * float(np.linalg.norm(b))
    grad_tol = 1e-12 * max(1.0, scale)
    x = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    for _ in range(max_iter):
        grad = A.T @ (b - A @ x)
        grad[passive] = -np.inf
        j = int(np.argmax(grad))
        if not np.isfinite(grad[j]) or grad[j] <= grad_tol:
            break
        passive[j] = True
        for _ in range(max_iter):
            idx = np.flatnonzero(passive)
            sol, *_ = np.linalg.lstsq(A[:, idx], b, rcond=None)
            s = np.zeros(n)
            s[idx] = sol
            neg = passive & (s <= 0.0)
            if not neg.any():
                x = s
                break
            # back-step to the first passive coordinate that hits zero,
            # then drop every coordinate pinned at the boundary
            ratios = x[neg] / (x[neg] - s[neg])
            alpha = float(ratios.min())
            x = x + alpha * (s - x)
            drop = passive & (x <= 1e-14)
            x[drop] = 0.0
            passive[drop] = False
            if not passive.any():
                x = np.zeros(n)
                break
    x = np.where(x > 0.0, x, 0.0)
    return x, float(np.linalg.norm(A @ x - b))


def project_onto_cone(G, x):
    """Euclidean projection of x onto cone(rows of G).

    Returns (projection, coefficient vector).  The projection solves
    min |G^T lam - x| over lam >= 0, which is exactly the nearest point
    of the cone.
    """
    x = np.asarray(x, dtype=float)
    lam, _ = nonneg_lstsq(G.T, x)
    return G.T @ lam, lam


def least_distance(G, h):
    """Least-norm z with G z >= h, or None when no z satisfies it.

    The Lawson-Hanson least-distance program: fit f = e_{d+1} by
    E u with E = [G^T; h^T] and u >= 0 (non-negative least squares),
    and let r = E u - f.  The optimality conditions give r_{d+1} =
    -|r|^2, so r vanishes exactly when the system is infeasible (up to
    the rounding of E u); else z = -r[:d] / r_{d+1} satisfies G z >= h
    and is a non-negative combination of the rows tight at z, which
    makes it the least-norm solution.  That quotient cancels badly when
    |r| is small, so z is recomputed as the least-norm solution of the
    rows with u > 0 held tight, which is the same point.
    """
    G = np.asarray(G, dtype=float)
    h = np.asarray(h, dtype=float)
    d = G.shape[1]
    E = np.vstack([G.T, h[None, :]])
    f = np.zeros(d + 1)
    f[d] = 1.0
    u, res = nonneg_lstsq(E, f)
    if res <= 1e-12 * max(1.0, float(np.abs(E).max(initial=0.0) * u.sum())):
        return None
    tight = u > 0.0
    if not tight.any():
        return np.zeros(d)
    z, *_ = np.linalg.lstsq(G[tight], h[tight], rcond=None)
    return z


def pointed_witness(G):
    """Unit q with q . g >= FEAS_EPS for every row g, or None.

    Existence of such a q says cone(G) is pointed (equivalently: the
    rows sit in a common open half-space).  The rows themselves are
    tried first: each row of length at least NEAR_ZERO, normalized, is
    a candidate, one product G Q^T gives every candidate's margin
    min_j g_j . q, and the candidate of largest margin (the first on
    ties) is returned when that margin is at least FEAS_EPS, the same
    raw check the solved witness must pass.  The largest margin is
    taken because the witness only sets the chart of the caller's
    gnomonic section {x : x . q = 1}, whose conditioning is about one
    over the margin: for any q inside the dual cone the vertices of
    that section are the cone's extreme rays, so which witness is used
    does not change which rows come back, in exact arithmetic; in
    floats the margin bounds how much the chart amplifies rounding.

    Only when no row qualifies is the LP solved.  It maximizes the
    worst slack inside the unit box; the witness is re-verified after
    normalization rather than trusted from the solver.  The LP leaves
    the part of q off the rows' span free, and when the rows do not
    span R^d it can come back at the box's edge and shrink the
    normalized margin by up to sqrt(d); so q is first projected onto
    the span, which keeps every slack q . g and shortens q.  Its one
    package caller is `_pointed_extreme`, on raw rays that have no
    normals yet; a built body reads its witness off its normals
    (`body.hemispherical_witness`).
    """
    G = np.asarray(G, dtype=float)
    m, d = G.shape
    if m == 0:
        return None
    norms = np.linalg.norm(G, axis=1)
    usable = norms >= NEAR_ZERO
    Q = G[usable] / norms[usable, None]
    if Q.shape[0]:
        margins = (G @ Q.T).min(axis=0)
        best = int(np.argmax(margins))
        if margins[best] >= FEAS_EPS:
            return Q[best]
    c = np.zeros(d + 1)
    c[-1] = -1.0
    A = np.hstack([-G, np.ones((m, 1))])
    bounds = [(-1.0, 1.0)] * d + [(None, 2.0)]
    res = linprog(c, A_ub=A, b_ub=np.zeros(m), bounds=bounds, method="highs")
    if not res.success:
        return None
    q = res.x[:d]
    B, _ = span_basis(G)
    q = B.T @ (B @ q)
    nq = float(np.linalg.norm(q))
    if nq < NEAR_ZERO:
        return None
    q = q / nq
    if float((G @ q).min()) >= FEAS_EPS:
        return q
    return None


def _dd_in_span(C):
    """Incremental double description for the cone {q in R^s : C q >= 0}.

    C rows must be unit vectors spanning R^s, so the solution cone is
    pointed and its extreme rays describe it completely.  The start is
    the simplicial cone of s independent rows, picked by QR with column
    pivoting (largest residual first), whose extreme rays are
    `_simplicial_dual` of those rows.
    The remaining rows are added one at a time in their given order, each
    in one array step: the rays negative on the row go, and each
    adjacent positive/negative pair adds the ray where the edge between
    them crosses the row's hyperplane.

    Rays are identified by their zero sets Z(r), the processed rows
    they are tight on (Fukuda and Prodon, "Double description method
    revisited", 1996).  A pair (p, n) is adjacent iff no third ray's
    zero set contains Z(p) & Z(n); a common zero set of fewer than
    s - 2 rows cannot span an edge, so those pairs are dropped first.
    Each new ray is the positive combination of exactly one adjacent
    pair, positive on every processed row that p or n is positive on,
    so its zero set is exactly Z(p) & Z(n) plus the new row.  Distinct
    adjacent pairs have distinct common zero sets, so no two new rays
    coincide; and a kept ray tight on the new row cannot equal a new
    one, since its zero set would then contain the pair's common zero
    set and deny the pair's adjacency.  No metric merge is needed.

    Returns the extreme rays (k, s) as unit rows.
    """
    from scipy.linalg import qr

    m, s = C.shape
    first = qr(C.T, mode="r", pivoting=True)[1][:s]
    C = np.vstack([C[first], np.delete(C, first, axis=0)])
    R = _simplicial_dual(C[:s])
    Z = np.zeros((s, m), dtype=bool)  # Z[r, j]: ray r is tight on row j
    Z[:, :s] = ~np.eye(s, dtype=bool)
    for k in range(s, m):
        sv = R @ C[k]
        neg = sv < -CLASS_TOL
        Z[:, k] = ~neg & (sv <= CLASS_TOL)
        if not neg.any():
            continue
        Zf = Z.astype(float)
        P, N = np.flatnonzero(sv > CLASS_TOL), np.flatnonzero(neg)
        i, j = np.nonzero(Zf[P] @ Zf[N].T >= s - 2)
        p, n = P[i], N[j]
        # rays whose zero set contains the pair's common one: p and n
        # always do, so the pair is adjacent iff no other ray does
        covers = (Zf[p] * Zf[n]) @ (1.0 - Zf).T == 0.0
        adjacent = covers.sum(axis=1) == 2
        p, n = p[adjacent], n[adjacent]
        comb = sv[p, None] * R[n] - sv[n, None] * R[p]
        R = np.vstack([R[~neg], comb / np.linalg.norm(comb, axis=1, keepdims=True)])
        Znew = Z[p] & Z[n]
        Znew[:, k] = True
        Z = np.vstack([Z[~neg], Znew])
    return R


def _simplicial_dual(C):
    """Extreme rays of {q in R^s : C q >= 0} for s independent rows C of
    R^s: the unitized rows of inv(C)^T.  Row j is tight on every row of
    C but j and positive on row j (C inv(C) = I), so the rows are the s
    edges of the simplicial cone, one per facet."""
    return unitize(np.linalg.inv(C).T)


def dual_cone_rays(G):
    """Extreme structure of the dual cone {q : q . g >= 0 for rows g}.

    Returns (rays, lineality_basis), both with lexicographically sorted
    rows.  The lineality is exactly the orthogonal complement of
    span(G).  The rays are computed in span(G) coordinates, where the
    rows of G span the space and so the dual is pointed; mapped back,
    they are orthogonal to the lineality by construction.
    """
    G = dedupe_rays(unitize(np.asarray(G, dtype=float)))
    d = G.shape[1]
    B, s = span_basis(G)
    if s == 0:
        raise NormalizationError("cone has no span")
    rays = _dd_in_span(lex_sorted_rows(unitize(G @ B.T))) @ B
    return lex_sorted_rows(rays), span_complement(B)


def _pointed_extreme(R, span):
    """Extreme rays of cone(R) from a pointed witness, with the unit
    normals of the dual's part in span(R); or None.

    For m > s >= 2 rows of span rank s.  The rows must carry a
    `pointed_witness` w in span coordinates, which proves the cone
    pointed.  With w, an arc's ends are the rows of extreme angle about
    w, two independent rows whose normals are their `_simplicial_dual`.
    A higher cone's extreme rays are the vertices of its gnomonic
    section, and its facets are the section's facets: one unit normal
    per facet of the section hull (see `extreme_rays`), a polygon for
    s = 3 (`_section_polygon`) and Qhull's hull above (`_section_hull`).
    Without a witness, or when the section routine finds no hull (a
    polygon of fewer than 3 vertices, or a `QhullError`), the result is
    None and the caller reads the dual instead.  `span` is R's
    `span_basis`, passed in because `extreme_rays` already has it.

    Span coordinates are those of `_chart`: a full-rank input (s = d)
    is charted in R^d as it is, with no rotation.  The arguments above
    hold in any orthonormal chart of span(R), since an orthogonal
    change of coordinates keeps every dot product, so they hold in the
    identity chart too.
    """
    B, s = span
    Rs = _chart(R, B)
    w = pointed_witness(Rs)
    if w is None:
        return None
    if s == 2:
        wp = np.array([-w[1], w[0]])
        ang = np.arctan2(Rs @ wp, Rs @ w)
        idx = np.unique([np.argmin(ang), np.argmax(ang)])
        return R[idx], _unchart(_simplicial_dual(Rs[idx]), B)
    # gnomonic section: rays scaled to the hyperplane {x . w = 1} turn
    # extreme rays into vertices of a convex polytope
    t = Rs @ w
    X = Rs / t[:, None]
    # any orthonormal basis of w's complement gives the same vertices
    Bw = _reflected_complement(w)
    U = (X - w) @ Bw.T
    found = _section_polygon(U) if s == 3 else _section_hull(U)
    if found is None:
        return None
    vertices, eq = found
    normals = unitize(-(eq[:, :-1] @ Bw + eq[:, -1:] * w))
    return R[vertices], _unchart(normals, B)


def _section_polygon(U):
    """Hull of the points U of a rank-3 gnomonic section, a polygon in
    R^2: (sorted vertex indices, one row (a, b) per edge with unit a and
    a . u + b <= 0 on the polygon, as Qhull lays out `equations`), or
    None when fewer than 3 vertices remain.

    Andrew's monotone chain: the points sorted by (u_1, u_2), the lower
    chain built left to right and the upper one right to left, so the
    vertices come counterclockwise.  When a point b is added, the chain's
    last point a, with o before it, stays a vertex only when its slack
    beyond the chord from o to b, (a - o) x (b - o) / |b - o|, exceeds
    CHORD_TOL times max(1, max |u|); otherwise it is popped, so a point
    on an edge or within rounding of one is no vertex, as Qhull merges
    it.  Each edge from v to v' gives a = (v' - v) turned clockwise and
    unitized, the outward normal of a counterclockwise polygon, and
    b = -a . v.
    """
    P = U.tolist()
    order = sorted(range(len(P)), key=P.__getitem__)
    tol = CHORD_TOL * max(1.0, float(np.abs(U).max()))

    def chain(idx):
        out = []
        for k in idx:
            bx, by = P[k]
            while len(out) >= 2:
                (ox, oy), (ax, ay) = P[out[-2]], P[out[-1]]
                dx, dy = bx - ox, by - oy
                if (ax - ox) * dy - (ay - oy) * dx > tol * math.hypot(dx, dy):
                    break
                out.pop()
            out.append(k)
        return out

    ring = chain(order)[:-1] + chain(order[::-1])[:-1]
    if len(ring) < 3:
        return None
    eq = []
    for k, nxt in zip(ring, ring[1:] + ring[:1]):
        (ox, oy), (bx, by) = P[k], P[nxt]
        length = math.hypot(bx - ox, by - oy)
        a0, a1 = (by - oy) / length, (ox - bx) / length
        eq.append((a0, a1, -(a0 * ox + a1 * oy)))
    return sorted(ring), np.array(eq)


def _section_hull(U):
    """Qhull's hull of the points U of a gnomonic section of dimension 3
    or more: (sorted vertex indices, one `equations` row per facet), or
    None when Qhull refuses them (`QhullError`).

    The pieces of one triangulated facet repeat its equation row bit for
    bit, so the first row of each run of equal sorted rows is kept.
    `scipy.spatial` is imported on the first call.
    """
    from scipy.spatial import ConvexHull, QhullError

    try:
        hull = ConvexHull(U)
    except QhullError:
        return None
    eq = hull.equations[np.lexsort(hull.equations.T)]
    eq = eq[np.concatenate([[True], (eq[1:] != eq[:-1]).any(axis=1)])]
    return np.sort(hull.vertices), eq


def _reflected_complement(w):
    """Orthonormal basis (s - 1 rows) of the complement of the unit w in
    R^s, from one Householder reflection.

    With k the axis of w's largest |entry| and sigma its sign,
    H = I - 2 v v^T / (v . v) for v = w + sigma e_k is symmetric and
    orthogonal and maps w to -sigma e_k, so its rows other than k are
    orthonormal and orthogonal to w.  v . v = 2 (1 + |w_k|) >= 2, so no
    division amplifies rounding, and there are s - 1 rows for every w.
    Gram-Schmidt on I - w w^T gives no such count: its residuals are
    tested against a cutoff, and when w is all but orthogonal to a
    coordinate axis (as a row witness of a thin cone is to the last
    span coordinate) it can keep an extra row.
    """
    k = int(np.argmax(np.abs(w)))
    v = w.copy()
    v[k] += 1.0 if w[k] >= 0.0 else -1.0
    H = np.eye(w.size) - (2.0 / (v @ v)) * np.outer(v, v)
    return np.delete(H, k, axis=0)


def _chart(R, B):
    """The rows R, which lie in the span of the orthonormal rows B, in
    B's coordinates; R itself when B spans R^d, whose identity chart
    needs no rotation.  Unit rows stay unit up to rounding, and nothing
    read in the chart depends on row lengths: the witness is normalized,
    the section x / (x . w) is scale-free and the simplicial dual is
    unitized."""
    return R if B.shape[0] == B.shape[1] else R @ B.T


def _unchart(X, B):
    """Rows X in `_chart(., B)` coordinates mapped back to R^d."""
    return X if B.shape[0] == B.shape[1] else X @ B


def extreme_rays(G):
    """Both canonical descriptions of cone(rows of G), from one conversion.

    Returns (rays, lin, dual): the cone's pointed extreme rays and
    lineality basis, rows lex-sorted, and dual = (normals, normal
    lineality basis) in `dual_cone_rays`' layout, found by the same
    branch.  The rows are unitized and deduplicated to m rows of span
    rank s, and one of three branches answers:

    1. m <= s.  Since s <= m, the rows are independent: no nonzero
       nonnegative combination of them vanishes, so the cone is pointed,
       and no row is a nonnegative combination of the others, so every
       row is extreme.  The cone is simplicial and G comes back as is.
       Its dual's part in span(G) is the simplicial cone whose rays are
       `_simplicial_dual` of the rows in span coordinates, mapped back
       through the span basis (the start cone of the double
       description); the dual's lineality is span(G)^perp.
    2. m > s >= 2, and `_pointed_extreme` finds a witness and the hull
       of the section: its hull rows.  An arc (s = 2) has two
       independent ends, and its dual is theirs as in branch 1.  For
       s >= 3 the dual is read off the same hull, one normal per facet
       of the section (why those are the cone's facets is proved in
       `body.from_generators`).  In span coordinates, with
       witness w and Bw an orthonormal basis of w's complement, the
       section is charted by u = Bw x on the hyperplane x . w = 1, and
       a facet is a row (a, b) with unit a and a . u + b <= 0 on the
       section: one of Qhull's `equations` for s >= 4, and for s = 3,
       where the section is a polygon in R^2, an edge of the monotone
       chain `_section_polygon`, laid out the same way.  Since Bw^T a is
       orthogonal to w and x . w = 1 there, that is n . x >= 0 with
       n = -(Bw^T a + b w), which is homogeneous and so holds on the
       whole cone.  n is not zero: its part orthogonal to w is Bw^T a, of
       length |a| = 1.  Unitized and mapped through the span basis, the
       n are the dual's rays in span(G); its lineality is span(G)^perp.
       Span coordinates are any orthonormal chart of span(G), and the
       argument uses nothing else, so a full-rank input (s = d) is
       charted in R^d as it is, with no rotation into the SVD's basis
       and back (`_chart`), as in branch 1.
       For s >= 4, the pieces into which Qhull's triangulated output
       splits a facet repeat its equation row bit for bit, so the rows
       are grouped by exact equality.  No normal is derived from one
       piece's vertices, and none are merged by distance.  For s = 3
       the chain keeps no point within CHORD_TOL of its neighbours'
       chord, so each edge is one facet, and a section collinear up to
       that rule has fewer than 3 vertices and falls to branch 3.
    3. Every other input is read off one `dual_cone_rays(G)`, which is
       also the dual.  Its rays N lie in span(G) and generate the dual's
       part there, the dual being that part plus span(G)^perp.  The
       lineality L of cone(G) is the set of x orthogonal to the whole
       dual, so L = span(G) & N^perp, of rank l = s - rank(N).  Taken
       off L, cone(G) is the pointed cone
       C = {x in V : n . x >= 0 for every n in N} of dimension s - l in
       V = span(G) & L^perp, which N spans.  A nonzero x of such a cone
       spans an extreme ray iff the constraints tight at x have rank one
       less than the cone's dimension (Fukuda and Prodon, "Double
       description method revisited", 1996), here s - l - 1.  Every
       extreme ray of C is a generator, so one of the rows taken off L;
       the rows that pass the rank rule, deduplicated, are C's extreme
       rays.  A row is tight on n when |g . n| <= CLASS_TOL, and both
       ranks are taken at SPAN_TOL.  Without lineality the rows are not
       moved, so they come back with their bits as given.

    span(G)^perp, the dual's lineality, is the complement of the span of
    the rows returned (rays plus lineality): the input rows' span is cut
    at singular value SPAN_TOL, so rows lying up to that far off the
    extreme rays' span would tilt it by as much.  When rows were dropped
    and s < d it is taken from one more SVD of the returned rows, whose
    span is span(G) in exact arithmetic; otherwise the rows are the input
    rows and their span basis is reused.
    """
    G = dedupe_rays(unitize(np.asarray(G, dtype=float)))
    m, d = G.shape
    span = span_basis(G)
    B, s = span
    if m <= s:
        found = G, _unchart(_simplicial_dual(_chart(G, B)), B)
    else:
        found = _pointed_extreme(G, span) if s >= 2 else None
    if found is not None:
        rays, normals = found
        if len(rays) < m and s < d:
            B = span_basis(rays)[0]
        dual = lex_sorted_rows(normals), span_complement(B)
        return lex_sorted_rows(rays), np.zeros((0, d)), dual
    N, N_lin = dual_cone_rays(G)
    Bn, r = span_basis(N)
    lin, rest = np.zeros((0, d)), G
    if r < s:
        lin = subspace_canonical_basis(B.T @ B - Bn.T @ Bn, s - r)
        rest = G - (G @ lin.T) @ lin
        rest = dedupe_rays(unitize(rest[np.linalg.norm(rest, axis=1) > NEAR_ZERO]))
    tight = np.abs(rest @ N.T) <= CLASS_TOL
    keep = np.array([span_basis(N[t])[1] == r - 1 for t in tight], dtype=bool)
    if not keep.all() and s < d:
        N_lin = span_complement(span_basis(np.vstack([rest[keep], lin]))[0])
    return lex_sorted_rows(rest[keep]), lin, (N, N_lin)


def rays_with_lineality(rays, lin):
    """Plain generator list: pointed rays plus +/- lineality basis.

    The rays come lex-sorted, as `extreme_rays` and `dual_cone_rays`
    return them, so without lineality they come back as they are;
    otherwise the stacked rows are sorted."""
    if not lin.shape[0]:
        return rays
    return lex_sorted_rows(np.vstack([rays, lin, -lin]))
