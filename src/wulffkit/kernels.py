"""Batch kernels on (N, d) point blocks against small (m, d) direction sets.

- ``min_slack(X, M)``: per-row min of ``X @ M.T``
- ``max_dot(X, M)``: per-row max of ``X @ M.T``
- ``angles_to_point(X, p)``: stable geodesic angle from each row to p

``min_slack`` against a body's normals is the one membership test, read
by ``body``, ``transforms`` and ``metric``; ``metric`` calls ``max_dot``
for the nearest-generator upper bound of the sampled directed distance.

Inputs are validated once at entry.  Large blocks run in chunks of
``_CHUNK`` rows to bound the temporaries.  The reductions run across
the m rows of the (m, chunk) product, elementwise over long rows,
which numpy does several times faster than reducing each short row of
the transposed (chunk, m) product.
"""

import numpy as np

BACKEND = "python"

_CHUNK = 262144  # keep the (m, chunk) temporaries around 8-32 MB


def _prep(X):
    X = np.ascontiguousarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError("expected a 2-d point block")
    return X


def _reduce_products(X, M, ufunc, empty):
    X = _prep(X)
    M = _prep(M)
    if M.shape[0] == 0:
        return np.full(X.shape[0], empty)
    if X.shape[1] != M.shape[1]:
        raise ValueError("point block and direction set disagree on dimension")
    out = np.empty(X.shape[0])
    for lo in range(0, X.shape[0], _CHUNK):
        out[lo:lo + _CHUNK] = ufunc.reduce(M @ X[lo:lo + _CHUNK].T, axis=0)
    return out


def min_slack(X, M):
    """Per-row minimum of X @ M.T (worst constraint slack per point)."""
    return _reduce_products(X, M, np.minimum, np.inf)


def max_dot(X, M):
    """Per-row maximum of X @ M.T (best generator alignment per point)."""
    return _reduce_products(X, M, np.maximum, -np.inf)


def angles_to_point(X, p):
    """Stable geodesic angle from each row of X to the unit vector p.

    Uses atan2 of the explicit perpendicular component; plain arccos of
    the dot product loses precision near 0 and pi.
    """
    X = _prep(X)
    p = np.asarray(p, dtype=float).reshape(-1)
    if X.shape[1] != p.size:
        raise ValueError("point block and reference point disagree on dimension")
    out = np.empty(X.shape[0])
    for lo in range(0, X.shape[0], _CHUNK):
        block = X[lo:lo + _CHUNK]
        c = block @ p
        perp = block - c[:, None] * p[None, :]
        out[lo:lo + _CHUNK] = np.arctan2(np.linalg.norm(perp, axis=1), c)
    return out
