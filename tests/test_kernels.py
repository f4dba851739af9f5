"""Reference parity and edge-case behavior for the batch kernels."""

import math
from unittest import mock

import numpy as np
import pytest

from wulffkit import kernels


def reference_min_slack(X, M):
    return (X @ M.T).min(axis=1)


def reference_max_dot(X, M):
    return (X @ M.T).max(axis=1)


def reference_angles(X, p):
    out = np.empty(X.shape[0])
    for i, row in enumerate(X):
        c = float(row @ p)
        perp = p - c * row
        out[i] = math.atan2(float(np.linalg.norm(perp)), c)
    return out


def random_blocks(seed, n=400, m=17, d=4):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    M = rng.normal(size=(m, d))
    M /= np.linalg.norm(M, axis=1, keepdims=True)
    return X, M


class TestActiveBackend:
    def test_matches_reference(self):
        X, M = random_blocks(1)
        assert np.abs(kernels.min_slack(X, M) - reference_min_slack(X, M)).max() <= 1e-14
        assert np.abs(kernels.max_dot(X, M) - reference_max_dot(X, M)).max() <= 1e-14
        p = M[0]
        assert np.abs(kernels.angles(X, p) - reference_angles(X, p)).max() <= 1e-12
        # matching rows: row i of X against row i of Y
        Y = np.roll(X, 1, axis=0)
        expect = [reference_angles(x[None, :], y)[0] for x, y in zip(X, Y)]
        assert np.abs(kernels.angles(X, Y) - expect).max() <= 1e-12

    def test_read_only_inputs_accepted(self):
        X, M = random_blocks(3)
        X.flags.writeable = False
        M.flags.writeable = False
        kernels.min_slack(X, M)
        kernels.max_dot(X, M)
        kernels.angles(X, M[0])  # read-only row view
        kernels.angles(X, X)

    def test_non_contiguous_inputs_accepted(self):
        X, M = random_blocks(4, d=6)
        Xs = X[:, ::2]
        Ms = M[:, ::2]
        expect = reference_min_slack(np.ascontiguousarray(Xs), np.ascontiguousarray(Ms))
        assert np.abs(kernels.min_slack(Xs, Ms) - expect).max() <= 1e-14
        Xs = Xs / np.linalg.norm(Xs, axis=1, keepdims=True)
        Ms = Ms / np.linalg.norm(Ms, axis=1, keepdims=True)
        expect = reference_angles(np.ascontiguousarray(Xs), np.ascontiguousarray(Ms[0]))
        assert np.abs(kernels.angles(Xs, Ms[0]) - expect).max() <= 1e-12

    def test_angle_precision_near_zero(self):
        # arccos of the dot loses half the digits near zero angle; the
        # perpendicular form must not
        p = np.array([0.0, 0.0, 1.0])
        eps = 1e-9
        X = np.array([[math.sin(eps), 0.0, math.cos(eps)]])
        got = kernels.angles(X, p)[0]
        assert got == pytest.approx(eps, rel=1e-6)

    def test_empty_direction_set(self):
        X, _ = random_blocks(5)
        M = np.empty((0, 4))
        assert (kernels.min_slack(X, M) == np.inf).all()
        assert (kernels.max_dot(X, M) == -np.inf).all()

    def test_dimension_mismatch(self):
        X, M = random_blocks(6)
        with pytest.raises(ValueError):
            kernels.min_slack(X, M[:, :3])
        with pytest.raises(ValueError):
            kernels.max_dot(X, M[:, :3])
        with pytest.raises(ValueError):
            kernels.angles(X, M[0, :3])
        with pytest.raises(ValueError):
            kernels.angles(X, X[:-1])
        with pytest.raises(ValueError):
            kernels.min_slack(X[0], M)

    def test_large_block_chunking(self):
        # large blocks run in chunks; make sure results are seam-free
        # on a block crossing the chunk size
        X, M = random_blocks(7, n=kernels._CHUNK + 1000, m=5, d=3)
        assert (
            np.abs(kernels.min_slack(X, M) - reference_min_slack(X, M)).max()
            <= 1e-14
        )
        Y = np.roll(X, 1, axis=0)
        whole = kernels.angles(X, Y)
        for lo in (0, kernels._CHUNK - 3):
            part = kernels.angles(X[lo:lo + 1000], Y[lo:lo + 1000])
            assert np.array_equal(whole[lo:lo + 1000], part)
        seam = slice(kernels._CHUNK - 3, kernels._CHUNK + 3)
        assert np.abs(kernels.angles(X, M[0])[seam] - reference_angles(X[seam], M[0])).max() <= 1e-12

    def test_one_chunk_and_the_chunk_loop_agree_bit_for_bit(self):
        # a block within one chunk skips the chunk loop; it must give the
        # bits the loop gives, with the block cut into chunks of 7 rows
        X, M = random_blocks(8, n=60, m=9, d=4)
        Y = np.roll(X, 1, axis=0)

        def results():
            return (kernels.min_slack(X, M), kernels.max_dot(X, M),
                    kernels.angles(X, Y), kernels.angles(X, M[0]))

        whole = results()
        with mock.patch.object(kernels, "_CHUNK", 7):
            chunked = results()
            # empty direction sets and dimension mismatches as in one chunk
            assert (kernels.min_slack(X, M[:0]) == np.inf).all()
            assert (kernels.max_dot(X, M[:0]) == -np.inf).all()
            with pytest.raises(ValueError):
                kernels.min_slack(X, M[:, :3])
            with pytest.raises(ValueError):
                kernels.angles(X, X[:-1])
        for one, loop in zip(whole, chunked):
            assert np.array_equal(one, loop)


class TestBackendSelection:
    def test_backend_name_is_exposed(self):
        assert kernels.BACKEND == "python"
