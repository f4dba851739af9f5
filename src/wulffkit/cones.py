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
* Tolerance hierarchy: sign classification CLASS_TOL = 1e-10 is
  coarser than the construction accuracy (~1e-12), so the zero sets
  the double description reads, and the rows `extreme_rays` finds
  tight on dual rays, stay stable under downstream arithmetic.  The
  coarser RAY_TOL = 1e-9 decides only which input rows are one ray
  (`dedupe_rays`); computed rays are never merged by distance.
"""

import numpy as np
from scipy.linalg import qr
from scipy.optimize import linprog
from scipy.spatial import ConvexHull, QhullError

from .errors import NormalizationError
from .geometry import NEAR_ZERO, subspace_canonical_basis

RAY_TOL = 1e-9    # two unit rays within this chordal distance are one ray
CLASS_TOL = 1e-10  # sign classification of dot products / membership slack
FEAS_EPS = 1e-9   # strict-positivity margin demanded of pointed witnesses
SPAN_TOL = 1e-10  # singular values below this do not extend a span

# `dedupe_rays` forms its pairwise gaps in blocks of about this many pairs
_DEDUPE_PAIRS = 1 << 16


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
    close = np.vstack([
        np.linalg.norm(M[lo:lo + step, None, :] - M[None, :, :], axis=2) <= RAY_TOL
        for lo in range(0, m, step)
    ])
    close = np.tril(close, -1)
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

    scipy.optimize.nnls (the >= 1.12 rewrite) returns KKT-violating
    coefficient vectors with a wrong (often zero) reported residual on
    underdetermined systems — and every cone fit here is underdetermined
    (d equations, m > d generator columns) — so this module carries its
    own implementation with exact least-squares subproblems.  Returns
    (x, residual_norm); the residual is recomputed from x, never trusted
    from intermediate state.
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
    pivoting (largest residual first): its extreme rays are the columns
    of inv(C[first]), column j being tight on every picked row but j.
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
    m, s = C.shape
    first = qr(C.T, mode="r", pivoting=True)[1][:s]
    C = np.vstack([C[first], np.delete(C, first, axis=0)])
    R = unitize(np.linalg.inv(C[:s]).T)
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
    if s == d:
        # the projector below is rounding noise then, and has no basis
        lin = np.zeros((0, d))
    else:
        lin = subspace_canonical_basis(np.eye(d) - B.T @ B, d - s)
    return lex_sorted_rows(rays), lin


def _pointed_extreme(R, span):
    """Extreme rays of cone(R) from a pointed witness, or None.

    For m > s >= 2 rows of span rank s.  The rows must carry a
    `pointed_witness` w in span coordinates, which proves the cone
    pointed.  With w, an arc's ends are the rows of extreme angle about
    w, and a higher cone's extreme rays are the vertices of its gnomonic
    section.  Without a witness, or when Qhull refuses the section
    (`QhullError`), the result is None and the caller reads the dual
    instead.  `span` is R's `span_basis`, passed in because
    `extreme_rays` already has it.
    """
    B, s = span
    Rs = unitize(R @ B.T)
    w = pointed_witness(Rs)
    if w is None:
        return None
    if s == 2:
        wp = np.array([-w[1], w[0]])
        ang = np.arctan2(Rs @ wp, Rs @ w)
        idx = sorted({int(np.argmin(ang)), int(np.argmax(ang))})
        return R[idx]
    # gnomonic section: rays scaled to the hyperplane {x . w = 1} turn
    # extreme rays into vertices of a convex polytope
    t = Rs @ w
    X = Rs / t[:, None]
    # any orthonormal basis of w's complement gives the same vertices;
    # the SVD's has s - 1 rows for every w, where Gram-Schmidt on
    # I - w w^T can keep an extra row when w is all but orthogonal to a
    # coordinate axis (as a row witness of a thin cone is to the last
    # span coordinate)
    Bw = np.linalg.svd(w[None, :])[2][1:]
    U = (X - w) @ Bw.T
    try:
        hull = ConvexHull(U)
    except QhullError:
        return None
    idx = sorted(int(v) for v in hull.vertices)
    return R[idx]


def extreme_rays(G):
    """Canonical irredundant V-form of cone(rows of G).

    Returns (pointed rays, lineality basis), rows lex-sorted.  The rows
    are unitized and deduplicated to m rows of span rank s, and one of
    three branches answers:

    1. m <= s.  Since s <= m, the rows are independent: no nonzero
       nonnegative combination of them vanishes, so the cone is pointed,
       and no row is a nonnegative combination of the others, so every
       row is extreme.  The cone is simplicial and G comes back as is.
    2. m > s >= 2, and `_pointed_extreme` finds a witness and Qhull
       accepts the section: its hull rows.
    3. Every other input is read off one `dual_cone_rays(G)`.  Its rays
       N lie in span(G) and generate the dual's part there, the dual
       being that part plus span(G)^perp.  The lineality L of cone(G) is
       the set of x orthogonal to the whole dual, so L = span(G) & N^perp,
       of rank l = s - rank(N).  Taken off L, cone(G) is the pointed cone
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
    """
    G = dedupe_rays(unitize(np.asarray(G, dtype=float)))
    m, d = G.shape
    span = span_basis(G)
    B, s = span
    if m <= s:
        return lex_sorted_rows(G), np.zeros((0, d))
    if s >= 2:
        rays = _pointed_extreme(G, span)
        if rays is not None:
            return lex_sorted_rows(rays), np.zeros((0, d))
    N, _ = dual_cone_rays(G)
    Bn, r = span_basis(N)
    lin, rest = np.zeros((0, d)), G
    if r < s:
        lin = subspace_canonical_basis(B.T @ B - Bn.T @ Bn, s - r)
        rest = G - (G @ lin.T) @ lin
        rest = dedupe_rays(unitize(rest[np.linalg.norm(rest, axis=1) > NEAR_ZERO]))
    tight = np.abs(rest @ N.T) <= CLASS_TOL
    keep = np.array([span_basis(N[t])[1] == r - 1 for t in tight], dtype=bool)
    return lex_sorted_rows(rest[keep]), lin


def rays_with_lineality(rays, lin):
    """Plain generator list: pointed rays plus +/- lineality basis."""
    parts = [rays] if rays.shape[0] else []
    if lin.shape[0]:
        parts.append(lin)
        parts.append(-lin)
    if not parts:
        d = rays.shape[1] if rays.ndim == 2 else lin.shape[1]
        return np.zeros((0, d))
    return lex_sorted_rows(np.vstack(parts))
