import numpy as np
import pytest

from levyfp.grids import DensityField, Grid, ScalarField
from levyfp.operators import NumericalFailure, RunGuard


def test_grid_geometry():
    g = Grid(256, 16.0)
    assert g.dx * g.n == 2 * g.half_width  # exact in binary fp: n is a power of two
    assert g.nodes[0] == -16.0
    assert g.nodes[-1] == pytest.approx(16.0 - g.dx)
    # xi_j = pi j / L in FFT ordering
    assert g.wavenumbers[1] == pytest.approx(np.pi / 16.0)
    assert g.wavenumbers[-1] == pytest.approx(-np.pi / 16.0)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(100, 16.0)  # not a power of two
    with pytest.raises(ValueError):
        Grid(4, 16.0)  # too small
    with pytest.raises(ValueError):
        Grid(64, -1.0)


def test_plane_wave_is_periodic():
    g = Grid(128, 8.0)
    xi = g.wavenumbers[3]
    wave = np.exp(1j * xi * g.nodes)
    assert np.exp(1j * xi * (g.nodes[0] + 2 * g.half_width)) == pytest.approx(wave[0])


def test_field_shape_and_finiteness_checks():
    g = Grid(64, 8.0)
    with pytest.raises(ValueError):
        ScalarField(g, np.zeros(65))
    with pytest.raises(ValueError):
        ScalarField(g, np.full(64, np.nan))
    f = ScalarField(g, np.ones(64))
    with pytest.raises(ValueError):
        f.values[0] = 2.0  # immutable buffer


def test_density_moments_against_gaussian():
    g = Grid(1024, 16.0)
    x = g.nodes
    m = DensityField(g, np.exp(-x**2 / 2) / np.sqrt(2 * np.pi))
    assert m.mass() == pytest.approx(1.0, abs=1e-12)
    assert m.variance() == pytest.approx(1.0, abs=1e-10)


def test_boundary_band_mass_matches_mask_oracle():
    # the band used to be taken with this boolean mask of ceil(0.05 n) cells
    # off each edge; the guard's two end slices must sum to the same bits
    rng = np.random.default_rng(5)
    for n, width in ((8, 1), (1024, 52)):
        g = Grid(n, 16.0)
        idx = np.arange(n)
        mask = (idx < width) | (idx >= n - width)
        m = rng.standard_normal(n)
        oracle = float(np.sum(np.abs(m[mask])) * g.dx)
        assert RunGuard.boundary_mass(m, g.dx, np.inf) == oracle
        with pytest.raises(NumericalFailure, match=r"^boundary mass .* at t=0\.5: the box"):
            RunGuard.boundary_mass(m, g.dx, 0.5 * oracle, t=0.5)
        with pytest.raises(NumericalFailure, match=r"^stationary profile parks"):
            RunGuard.boundary_mass(m, g.dx, 0.5 * oracle)
