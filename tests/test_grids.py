import numpy as np
import pytest

from levyfp.grids import DensityField, Grid, ScalarField, read_field_csv, write_field_csv


def test_grid_geometry():
    g = Grid(1, 256, 16.0)
    assert g.dx * g.n == 2 * g.half_width  # exact in binary fp: n is a power of two
    assert g.nodes[0] == -16.0
    assert g.nodes[-1] == pytest.approx(16.0 - g.dx)
    # xi_j = pi j / L in FFT ordering
    assert g.wavenumbers[1] == pytest.approx(np.pi / 16.0)
    assert g.wavenumbers[-1] == pytest.approx(-np.pi / 16.0)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(1, 100, 16.0)  # not a power of two
    with pytest.raises(ValueError):
        Grid(1, 4, 16.0)  # too small
    with pytest.raises(ValueError):
        Grid(2, 32, 4.0)  # d = 1 only
    with pytest.raises(ValueError):
        Grid(3, 64, 16.0)
    with pytest.raises(ValueError):
        Grid(1, 64, -1.0)


def test_plane_wave_is_periodic():
    g = Grid(1, 128, 8.0)
    xi = g.wavenumbers[3]
    wave = np.exp(1j * xi * g.nodes)
    assert np.exp(1j * xi * (g.nodes[0] + 2 * g.half_width)) == pytest.approx(wave[0])


def test_field_shape_and_finiteness_checks():
    g = Grid(1, 64, 8.0)
    with pytest.raises(ValueError):
        ScalarField(g, np.zeros(65))
    with pytest.raises(ValueError):
        ScalarField(g, np.full(64, np.nan))
    f = ScalarField(g, np.ones(64))
    with pytest.raises(ValueError):
        f.values[0] = 2.0  # immutable buffer


def test_density_moments_against_gaussian():
    g = Grid(1, 1024, 16.0)
    x = g.nodes
    m = DensityField(g, np.exp(-x**2 / 2) / np.sqrt(2 * np.pi))
    assert m.mass() == pytest.approx(1.0, abs=1e-12)
    assert m.moment(2) == pytest.approx(1.0, abs=1e-10)
    assert m.variance() == pytest.approx(1.0, abs=1e-10)
    assert m.is_probability()


def test_boundary_band_width():
    g = Grid(1, 1024, 16.0)
    band = g.boundary_band(0.05)
    # ceil(0.05 * 1024) = 52 cells off each edge
    assert band.sum() == 2 * 52
    m = DensityField(g, np.ones(1024) / 32.0)
    assert m.boundary_mass() == pytest.approx(2 * 52 * g.dx / 32.0)


def test_field_csv_roundtrip(tmp_path):
    g = Grid(1, 64, 4.0)
    rng = np.random.default_rng(0)
    m = DensityField(g, rng.normal(size=64), t=1.5)
    path = tmp_path / "field.csv"
    write_field_csv(m, path)
    back = read_field_csv(path, kind="density", t=1.5)
    assert back.grid == g
    np.testing.assert_array_equal(back.values, m.values)  # 17 sig digits round-trips
    first = path.read_text().splitlines()[0]
    assert first == "x,value"
