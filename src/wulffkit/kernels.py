"""Batch kernels on (N, d) point blocks.

- ``min_slack(X, M)``: per-row min of ``X @ M.T``
- ``max_dot(X, M)``: per-row max of ``X @ M.T``
- ``angles(X, Y)``: geodesic angle between matching unit rows of X and
  Y, or from each row of X to one unit vector Y

``min_slack`` against a body's normals is the one membership test, read
by ``body``, ``transforms`` and ``metric``; ``metric`` calls ``max_dot``
for the nearest-generator upper bound of the sampled directed distance.
``angles`` is the package's one geodesic-angle routine: ``geometry``'s
point distance, ``metric``'s nearest-point routine and ``body``'s
generator matching all read it.

Inputs are validated once at entry.  A block of at most ``_CHUNK``
rows is reduced in one product, with no loop or output buffer: most
calls hold one to a few thousand rows, where the fixed cost of each
numpy call, not the rows, sets the time.  Larger blocks run in chunks of
``_CHUNK`` rows to bound the temporaries.  Either way each row gets the
same bits.  The reductions run across the m rows of the (m, chunk)
product, elementwise over long rows, which numpy does several times
faster than reducing each short row of the transposed (chunk, m)
product.
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
    if X.shape[0] <= _CHUNK:
        return ufunc.reduce(M @ X.T, axis=0)
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


def angles(X, Y):
    """Geodesic angle between each unit row x of X and the matching row y
    of Y, or the one unit vector Y: atan2(|y - c x|, c) with c = x . y.

    arccos of the dot alone loses half the significant digits near 0 and
    pi; the perpendicular part keeps them.
    """
    X = _prep(X)
    Y = np.asarray(Y, dtype=float)
    if Y.shape not in (X.shape, X.shape[1:]):
        raise ValueError("point blocks disagree on shape")
    if X.shape[0] > _CHUNK:
        return np.concatenate([
            angles(X[lo:lo + _CHUNK], Y if Y.ndim == 1 else Y[lo:lo + _CHUNK])
            for lo in range(0, X.shape[0], _CHUNK)
        ])
    Y = Y.reshape(-1, X.shape[1])
    c = np.einsum("ij,ij->i", X, Y)
    perp = Y - c[:, None] * X
    return np.arctan2(np.sqrt(np.einsum("ij,ij->i", perp, perp)), c)
