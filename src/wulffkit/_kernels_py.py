"""Pure-numpy implementations of the hot batch kernels.

These run on (N, d) point blocks against small (m, d) direction sets.
They are the fallback backend when the compiled extension is absent;
the compiled versions fuse the loops to skip the (m, N) temporaries.
The reductions run across the m rows of that product, elementwise over
long rows, which numpy does several times faster than reducing each
short row of the transposed (N, m) product.
"""

import numpy as np

_CHUNK = 262144  # keep the (chunk, m) temporaries around 8-32 MB


def min_slack(X, M):
    """Per-row minimum of X @ M.T (worst constraint slack per point)."""
    X = np.ascontiguousarray(X, dtype=float)
    M = np.ascontiguousarray(M, dtype=float)
    if M.shape[0] == 0:
        return np.full(X.shape[0], np.inf)
    out = np.empty(X.shape[0])
    for lo in range(0, X.shape[0], _CHUNK):
        hi = min(lo + _CHUNK, X.shape[0])
        out[lo:hi] = (M @ X[lo:hi].T).min(axis=0)
    return out


def max_dot(X, M):
    """Per-row maximum of X @ M.T (best generator alignment per point)."""
    X = np.ascontiguousarray(X, dtype=float)
    M = np.ascontiguousarray(M, dtype=float)
    if M.shape[0] == 0:
        return np.full(X.shape[0], -np.inf)
    out = np.empty(X.shape[0])
    for lo in range(0, X.shape[0], _CHUNK):
        hi = min(lo + _CHUNK, X.shape[0])
        out[lo:hi] = (M @ X[lo:hi].T).max(axis=0)
    return out


def angles_to_point(X, p):
    """Stable geodesic angle from each row of X to the unit vector p.

    Uses atan2 of the explicit perpendicular component; plain arccos of
    the dot product loses precision near 0 and pi.
    """
    X = np.ascontiguousarray(X, dtype=float)
    p = np.asarray(p, dtype=float).reshape(-1)
    out = np.empty(X.shape[0])
    for lo in range(0, X.shape[0], _CHUNK):
        hi = min(lo + _CHUNK, X.shape[0])
        block = X[lo:hi]
        c = block @ p
        perp = block - c[:, None] * p[None, :]
        s = np.linalg.norm(perp, axis=1)
        out[lo:hi] = np.arctan2(s, c)
    return out
