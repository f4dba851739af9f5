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
* Tolerance hierarchy: ray identity RAY_TOL = 1e-9 is coarser than
  sign classification CLASS_TOL = 1e-10, which is coarser than the
  construction accuracy (~1e-12), so canonicalization decisions stay
  stable under downstream arithmetic.
"""

import numpy as np
from scipy.linalg import qr
from scipy.optimize import linprog
from scipy.spatial import ConvexHull, QhullError

from .errors import NormalizationError
from .geometry import NEAR_ZERO, subspace_canonical_basis

RAY_TOL = 1e-9    # two unit rays within this chordal distance are one ray
CLASS_TOL = 1e-10  # sign classification of dot products / membership slack
FEAS_EPS = 1e-9   # strict-positivity margin demanded of LP witnesses
SPAN_TOL = 1e-10  # singular values below this do not extend a span


def unitize(M):
    """Normalize rows to unit length; reject near-zero rows.

    A row whose largest |entry| exceeds 1 is first scaled by a power of
    two to below 1, so its norm cannot overflow.  The scaling is exact,
    so every row rounds as it would without it, and rows at unit scale
    or below pass through it unchanged.
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
    """Drop rows that repeat an earlier row within chordal distance RAY_TOL."""
    if M.shape[0] <= 1:
        return M
    keep = []
    for i in range(M.shape[0]):
        if keep:
            gaps = np.linalg.norm(M[keep] - M[i], axis=1)
            if gaps.min() <= RAY_TOL:
                continue
        keep.append(i)
    return M[keep]


def lex_sorted_rows(M):
    """Rows sorted lexicographically (first coordinate is primary)."""
    if M.shape[0] <= 1:
        return M
    order = np.lexsort(M[:, ::-1].T)
    return M[order]


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


def cone_member(G, x):
    """Whether x lies in cone(rows of G), via a nonnegative fit."""
    _, res = nonneg_lstsq(G.T, np.asarray(x, dtype=float))
    return res <= RAY_TOL


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
    rows sit in a common open half-space).  The LP maximizes the worst
    slack inside the unit box; the witness is re-verified after
    normalization rather than trusted from the solver.
    """
    G = np.asarray(G, dtype=float)
    m, d = G.shape
    if m == 0:
        return None
    c = np.zeros(d + 1)
    c[-1] = -1.0
    A = np.hstack([-G, np.ones((m, 1))])
    bounds = [(-1.0, 1.0)] * d + [(None, 2.0)]
    res = linprog(c, A_ub=A, b_ub=np.zeros(m), bounds=bounds, method="highs")
    if not res.success:
        return None
    q = res.x[:d]
    nq = float(np.linalg.norm(q))
    if nq < NEAR_ZERO:
        return None
    q = q / nq
    if float((G @ q).min()) >= FEAS_EPS:
        return q
    return None


def interior_witness(N, dim):
    """Unit q with q . n >= FEAS_EPS for all constraint normals, or None.

    With no constraints at all the whole space qualifies and the first
    canonical direction is returned.
    """
    N = np.asarray(N, dtype=float).reshape(-1, dim)
    if N.shape[0] == 0:
        e = np.zeros(dim)
        e[0] = 1.0
        return e
    return pointed_witness(N)


def _dd_in_span(C):
    """Incremental double description for the cone {q in R^s : C q >= 0}.

    C rows must be unit vectors spanning R^s, so the solution cone is
    pointed and its extreme rays describe it completely.  The start is
    the simplicial cone of s independent rows, picked by QR with column
    pivoting (largest residual first): its extreme rays are the columns
    of inv(C[first]), column j being tight on every picked row but j.
    The remaining rows are added one at a time in their given order;
    rays are split by sign and adjacent positive/negative pairs are
    combined (adjacency decided by the combinatorial zero-set
    containment test against the rows processed so far).

    Returns the extreme rays (k, s) as unit rows.
    """
    s = C.shape[1]
    first = qr(C.T, mode="r", pivoting=True)[1][:s]
    C = np.vstack([C[first], np.delete(C, first, axis=0)])
    R = unitize(np.linalg.inv(C[:s]).T)
    for k in range(s, C.shape[0]):
        g = C[k]
        sv = R @ g
        pos = sv > CLASS_TOL
        neg = sv < -CLASS_TOL
        zer = ~pos & ~neg
        if not neg.any():
            continue
        if not pos.any():
            R = R[zer]
            continue
        # rows processed so far: C[:k]
        Zb = np.abs(R @ C[:k].T) <= CLASS_TOL
        not_Zb = (~Zb).astype(float)
        pi = np.where(pos)[0]
        ni = np.where(neg)[0]
        new_rays = []
        for p in pi:
            common = Zb[p] & Zb[ni]  # (n_neg, n_processed)
            # viol[j, r] counts active constraints of the pair (p, ni[j])
            # that ray r misses; zero means Z(r) contains the pair's
            # common zero set, which kills adjacency
            viol = common.astype(float) @ not_Zb.T
            viol[:, p] = 1.0
            viol[np.arange(len(ni)), ni] = 1.0
            adjacent = (viol > 0.5).all(axis=1)
            for jj in np.where(adjacent)[0]:
                mneg = ni[jj]
                comb = sv[p] * R[mneg] - sv[mneg] * R[p]
                nc = float(np.linalg.norm(comb))
                if nc > NEAR_ZERO:
                    new_rays.append(comb / nc)
        kept = R[pos | zer]
        if new_rays:
            R = dedupe_rays(np.vstack([kept, np.array(new_rays)]))
        else:
            R = kept
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
    lin = subspace_canonical_basis(np.eye(d) - B.T @ B)
    return lex_sorted_rows(rays), lin


def _nnls_reduce(R):
    """Irredundant rays of a pointed cone by per-ray membership tests.

    A deduplicated ray is extreme iff it is not a nonnegative
    combination of the others; the tests are independent of each other,
    so they can run against the full list.
    """
    m = R.shape[0]
    keep = []
    for i in range(m):
        others = np.delete(R, i, axis=0)
        if not cone_member(others, R[i]):
            keep.append(i)
    return R[keep]


def _pointed_extreme(R):
    """Extreme rays of cone(R) assuming the cone is pointed."""
    m, d = R.shape
    B, s = span_basis(R)
    if m <= s or s == 1:
        # linearly independent rays span a simplicial cone; a pointed
        # 1-dimensional cone is a single ray
        return R if m <= s else R[:1]
    Rs = unitize(R @ B.T)
    w = pointed_witness(Rs)
    if w is None:
        return _nnls_reduce(R)
    if s == 2:
        wp = np.array([-w[1], w[0]])
        ang = np.arctan2(Rs @ wp, Rs @ w)
        idx = sorted({int(np.argmin(ang)), int(np.argmax(ang))})
        return R[idx]
    # gnomonic section: rays scaled to the hyperplane {x . w = 1} turn
    # extreme rays into vertices of a convex polytope
    t = Rs @ w
    X = Rs / t[:, None]
    Bw = subspace_canonical_basis(np.eye(s) - np.outer(w, w))
    U = (X - w) @ Bw.T
    try:
        hull = ConvexHull(U)
    except QhullError:
        return _nnls_reduce(R)
    idx = sorted(int(v) for v in hull.vertices)
    return R[idx]


def extreme_rays(G):
    """Canonical irredundant V-form of cone(rows of G).

    Returns (pointed rays, lineality basis), rows lex-sorted.  The
    lineality space is the span of the two-sided generators (those g
    with -g also in the cone): any vanishing nonnegative combination
    only involves two-sided generators, so they span every line the
    cone contains.
    """
    G = dedupe_rays(unitize(np.asarray(G, dtype=float)))
    d = G.shape[1]
    m = G.shape[0]
    two = [i for i in range(m) if cone_member(G, -G[i])]
    if two:
        Bl, _ = span_basis(G[two])
        lin = subspace_canonical_basis(Bl.T @ Bl)
        rest = G - (G @ lin.T) @ lin
        norms = np.linalg.norm(rest, axis=1)
        rest = rest[norms > NEAR_ZERO]
        if rest.shape[0]:
            rest = dedupe_rays(unitize(rest))
    else:
        lin = np.zeros((0, d))
        rest = G
    if rest.shape[0] == 0:
        return np.zeros((0, d)), lin
    rays = _pointed_extreme(rest)
    return lex_sorted_rows(rays), lin


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
