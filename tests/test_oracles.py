"""Sphere grids: covering guarantees, caching, size limits, sampling."""

import math

import numpy as np
import pytest

from wulffkit import geometry, kernels, oracles
from wulffkit.errors import ResolutionError


class TestGridStructure:
    def test_rows_are_unit(self):
        for dim, spacing in ((1, 0.01), (2, 0.05), (3, 0.25)):
            g = oracles.sphere_grid(dim, spacing)
            assert g.shape[1] == dim + 1
            assert np.abs(np.linalg.norm(g, axis=1) - 1.0).max() <= 1e-12

    def test_circle_grid_exact(self):
        g = oracles.sphere_grid(1, 0.1)
        k = math.ceil(2 * math.pi / 0.1)
        assert g.shape == (k, 2)
        # consecutive points are exactly 2*pi/k apart
        step = 2 * math.pi / k
        dots = (g[:-1] * g[1:]).sum(axis=1)
        assert np.abs(np.arccos(np.clip(dots, -1, 1)) - step).max() <= 1e-12

    def test_size_estimate_errs_high(self):
        for dim, spacing in ((1, 0.01), (2, 0.04), (3, 0.2)):
            g = oracles.sphere_grid(dim, spacing)
            assert g.shape[0] <= oracles.grid_size_estimate(dim, spacing)

    def test_poles_present_on_s2(self):
        g = oracles.sphere_grid(2, 0.3)
        assert np.abs(g @ [0.0, 0.0, 1.0]).max() == pytest.approx(1.0, abs=0.0)


class TestCoveringGuarantee:
    @pytest.mark.parametrize(
        "dim,spacing,probes",
        [(1, 0.01, 4000), (1, 0.2, 4000), (2, 0.05, 3000), (2, 0.3, 3000), (3, 0.3, 1500)],
    )
    def test_random_probes_within_radius(self, dim, spacing, probes):
        grid = oracles.sphere_grid(dim, spacing)
        pts = geometry.uniform_sphere_points(dim, probes, seed=dim * 1000 + 1)
        bound = oracles.COVERING_COEFF[dim] * spacing
        worst = 0.0
        for p in pts:
            worst = max(worst, float(kernels.angles(grid, p).min()))
        assert worst <= bound, f"covering radius {worst} > {bound}"

    def test_adversarial_probes_near_rings(self):
        # midpoints between consecutive colatitude rings are the worst
        # spots of the construction
        spacing = 0.2
        grid = oracles.sphere_grid(2, spacing)
        k = math.ceil(math.pi / spacing)
        bound = oracles.COVERING_COEFF[2] * spacing
        rng = np.random.default_rng(5)
        worst = 0.0
        for j in range(k):
            theta = (j + 0.5) * math.pi / k
            for t in rng.uniform(0, 2 * math.pi, size=40):
                p = np.array(
                    [
                        math.sin(theta) * math.cos(t),
                        math.sin(theta) * math.sin(t),
                        math.cos(theta),
                    ]
                )
                worst = max(worst, float(kernels.angles(grid, p).min()))
        assert worst <= bound


class TestGridGuards:
    def test_unsupported_dimension(self):
        with pytest.raises(ResolutionError):
            oracles.sphere_grid(4, 0.3)
        with pytest.raises(ResolutionError):
            oracles.sphere_grid(0, 0.3)

    def test_nonpositive_spacing(self):
        with pytest.raises(ResolutionError):
            oracles.sphere_grid(2, 0.0)
        with pytest.raises(ResolutionError):
            oracles.sphere_grid(2, -1.0)

    def test_size_limit_enforced(self):
        tiny = (oracles._SPHERE_AREA[3] / oracles.GRID_POINT_LIMIT) ** (1 / 3) / 2
        with pytest.raises(ResolutionError, match="coarser"):
            oracles.sphere_grid(3, tiny)

    def test_cache_returns_same_object(self):
        a = oracles.sphere_grid(2, 0.17)
        b = oracles.sphere_grid(2, 0.17)
        assert a is b


# the sampling resolutions of the default table and of the benchmark's
# and acceptance sweep's sampled pairs, per sphere dimension
_CELL_RESOLUTIONS = [(1, 0.005), (1, 0.01), (2, 0.005), (2, 0.01), (3, 0.06), (3, 0.099)]


def _sampling_spacing(dim, resolution):
    # the grid spacing the sampled distances use at this resolution
    return resolution / 2.05 / oracles.COVERING_COEFF[dim]


def _check_cells(grid, cells):
    """Every row in exactly one cell, within the cell's radius of its unit center."""
    n = grid.shape[0]
    assert cells.perm.dtype == np.int32
    assert (np.bincount(cells.perm, minlength=n) == 1).all()
    assert cells.starts[0] == 0 and cells.starts[-1] == n
    assert (np.diff(cells.starts) > 0).all()
    assert np.abs(np.linalg.norm(cells.centers, axis=1) - 1.0).max() <= 1e-12
    cell = np.repeat(np.arange(cells.radii.size), np.diff(cells.starts))
    for lo in range(0, n, 1 << 18):
        rows = grid[cells.perm[lo:lo + (1 << 18)]]
        u = cells.centers[cell[lo:lo + (1 << 18)]]
        c = np.einsum("ij,ij->i", rows, u)
        angle = np.arctan2(np.linalg.norm(rows - c[:, None] * u, axis=1), c)
        assert (angle <= cells.radii[cell[lo:lo + (1 << 18)]]).all()


class TestGridCells:
    @pytest.mark.parametrize("dim,resolution", _CELL_RESOLUTIONS)
    def test_cells_cover_the_grid_within_their_radii(self, dim, resolution):
        spacing = _sampling_spacing(dim, resolution)
        grid = oracles.sphere_grid(dim, spacing)
        cells = oracles.grid_cells(dim, spacing)
        _check_cells(grid, cells)
        # a cell spans _CELL_SPAN spacings along each of its dim cube-map
        # coordinates, and the gnomonic map only stretches angles
        assert cells.radii.max() <= oracles._CELL_SPAN * spacing * math.sqrt(dim)
        assert oracles.grid_cells(dim, spacing) is cells

    def test_rows_of_cells(self):
        cells = oracles.grid_cells(2, 0.05)
        picked = np.array([3, 0, 7])
        expected = np.concatenate(
            [cells.perm[cells.starts[k]:cells.starts[k + 1]] for k in picked]
        )
        assert np.array_equal(cells.rows(picked), expected)
        assert cells.rows(np.array([], dtype=int)).size == 0

    def test_index_is_evicted_and_rebuilt_with_its_grid(self):
        spacing = _sampling_spacing(2, 0.01)
        grid = oracles.sphere_grid(2, spacing)
        cells = oracles.grid_cells(2, spacing)
        for other in (0.21, 0.22, 0.23, 0.24, 0.25):
            oracles.grid_cells(2, other)
        rebuilt = oracles.sphere_grid(2, spacing)
        again = oracles.grid_cells(2, spacing)
        assert rebuilt is not grid and again is not cells
        assert np.array_equal(rebuilt, grid)
        _check_cells(rebuilt, again)
        assert np.array_equal(again.perm, cells.perm)
        assert np.array_equal(again.radii, cells.radii)


# the seeded draw of the covering probes above, from `geometry`
class TestUniformSamples:
    def test_deterministic(self):
        a = geometry.uniform_sphere_points(2, 100, seed=9)
        b = geometry.uniform_sphere_points(2, 100, seed=9)
        assert (a == b).all()
        c = geometry.uniform_sphere_points(2, 100, seed=10)
        assert not (a == c).all()

    def test_unit_rows(self):
        pts = geometry.uniform_sphere_points(3, 500, seed=1)
        assert pts.shape == (500, 4)
        assert np.abs(np.linalg.norm(pts, axis=1) - 1.0).max() <= 1e-12

    def test_count_validation(self):
        with pytest.raises(ValueError):
            geometry.uniform_sphere_points(2, 0, seed=0)

    def test_roughly_isotropic(self):
        pts = geometry.uniform_sphere_points(2, 20_000, seed=4)
        mean = pts.mean(axis=0)
        assert np.linalg.norm(mean) < 0.02
