"""The diffusion stage against its oracles: the half-spectrum FFT pair against
the complex pair it replaced, and the sliced second differences against their
np.roll stencils, bit for bit, sign bits of zeros included. The quadrature
oracle's tap-built impulse response is held to its per-node shell loop the
same way."""
import numpy as np
import pytest
import quadrature_oracle
from quadrature_oracle import fourth_order_d2, impulse_response, levy_integral_field

from levyfp.generators import DriftSpec, GeneratorSpec, LevyMeasureSpec, LocalDiffusionSpec
from levyfp.grids import Field, Grid
from levyfp.operators import StepSetup, _variable_diffusion_term, shell_quadrature_nodes

# ---------------------------------------------------------------------------
# oracles: the complex FFT pair and the np.roll stencils


def oracle_factor(setup: StepSetup) -> np.ndarray:
    """The diffusion factor on the full spectrum, as the complex pair applied it."""
    spec, xi = setup.spec, setup.grid.wavenumber_magnitude
    return np.exp(-setup.dt * (spec.diffusion.lambda0 * xi**2 + spec.levy.symbol(xi)))


def oracle_variable_term(values, grid, g, adjoint):
    if not g.diffusion.has_variable_part:
        return np.zeros_like(values)
    s2 = g.diffusion.sigma_squared(grid.nodes)
    if adjoint:
        prod = s2 * values
        return (np.roll(prod, -1) - 2.0 * prod + np.roll(prod, 1)) / grid.dx**2
    d2 = (np.roll(values, -1) - 2.0 * values + np.roll(values, 1)) / grid.dx**2
    return s2 * d2


def oracle_diffuse(setup: StepSetup, values: np.ndarray, adjoint: bool) -> np.ndarray:
    out = np.real(np.fft.ifft(oracle_factor(setup) * np.fft.fft(values)))
    if setup.spec.diffusion.has_variable_part:
        out = out + setup.dt * oracle_variable_term(out, setup.grid, setup.spec, adjoint)
    return out


def oracle_d2(vals, dx):
    return (
        -np.roll(vals, -2)
        + 16.0 * np.roll(vals, -1)
        - 30.0 * vals
        + 16.0 * np.roll(vals, 1)
        - np.roll(vals, 2)
    ) / (12.0 * dx**2)


def assert_bitwise(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def random_field(rng, n):
    """Scales 1e-5 to 1e5, exact zeros of both signs, equal neighbours."""
    x = rng.standard_normal(n) * 10.0 ** rng.uniform(-5.0, 5.0, n)
    k = max(1, n // 8)
    x[rng.choice(n, k, replace=False)] = 0.0
    x[rng.choice(n, k, replace=False)] = -0.0
    i = rng.choice(n, k, replace=False)
    x[i] = x[(i + 1) % n]
    return x


def _spec(kind: str, variable: bool) -> GeneratorSpec:
    diffusion = LocalDiffusionSpec.tanh_variable(0.5, 0.5) if variable else LocalDiffusionSpec.constant(0.5)
    return GeneratorSpec(diffusion, getattr(LevyMeasureSpec, kind)(1.5), DriftSpec.ou(1.0))


SIZES = (8, 64, 1024)

# ---------------------------------------------------------------------------
# the half-spectrum pair


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("variable", [False, True], ids=["constant", "variable"])
@pytest.mark.parametrize("kind", ["fractional", "tempered"])
def test_diffuse_matches_complex_pair(kind, variable, n):
    g = Grid(n=n, half_width=16.0)
    setup = StepSetup(_spec(kind, variable), g, 1e-4)
    # the half factor is the complex pair's factor on the first n//2 + 1 modes
    assert setup.diffusion_factor.shape == (n // 2 + 1,)
    assert np.array_equal(setup.diffusion_factor, oracle_factor(setup)[: n // 2 + 1])
    rng = np.random.default_rng(30 + n)
    for adjoint in (True, False):
        for _ in range(5):
            v = rng.standard_normal(n)
            want = oracle_diffuse(setup, v, adjoint)
            got = setup.diffuse(v, adjoint)
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_diffuse_leaves_its_input_alone():
    setup = StepSetup(_spec("fractional", True), Grid(n=64, half_width=16.0), 1e-4)
    v = np.random.default_rng(5).standard_normal(64)
    keep = v.copy()
    setup.diffuse(v, adjoint=True)
    assert np.array_equal(v, keep)


# ---------------------------------------------------------------------------
# the quadrature oracle's impulse response


@pytest.mark.parametrize("half_width", [16.0, 0.5])
@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("sigma", [0.3, 0.7, 1.5, 1.9])
@pytest.mark.parametrize("kind", ["tempered", "fractional"])
def test_impulse_response_matches_node_loop(kind, sigma, n, half_width):
    g = Grid(n=n, half_width=half_width)
    nu = getattr(LevyMeasureSpec, kind)(sigma)
    # the default rule wraps its far shells through the box many times, and
    # its sub-cell nodes put taps of +z and -z on the same cells
    z, _ = shell_quadrature_nodes(g.dx / 4.0, 64.0 * half_width)
    assert z.max() > 2.0 * half_width
    j_plus, j_minus = np.floor(z / g.dx), np.floor(-z / g.dx)
    assert np.any(np.abs(j_plus - j_minus) <= 3)
    impulse = np.zeros(n)
    impulse[0] = 1.0
    want = levy_integral_field(Field(g, impulse), nu).values
    assert_bitwise(impulse_response(g, nu), want)


# ---------------------------------------------------------------------------
# sliced stencils


@pytest.mark.parametrize("n", SIZES)
def test_fourth_order_d2_matches_roll_oracle(n):
    rng = np.random.default_rng(40 + n)
    for dx in (1e-3, 0.0625, 3.0):
        v = random_field(rng, n)
        assert_bitwise(fourth_order_d2(v, dx), oracle_d2(v, dx))


def test_levy_field_matches_roll_stencil(monkeypatch):
    g = Grid(n=64, half_width=4.0)
    u = Field(g, random_field(np.random.default_rng(41), g.n))
    nu = LevyMeasureSpec.tempered(1.2)
    got = levy_integral_field(u, nu).values
    monkeypatch.setattr(quadrature_oracle, "fourth_order_d2", oracle_d2)
    assert_bitwise(got, levy_integral_field(u, nu).values)


@pytest.mark.parametrize("adjoint", [True, False])
@pytest.mark.parametrize("n", SIZES)
def test_variable_diffusion_term_matches_roll_oracle(n, adjoint):
    rng = np.random.default_rng(50 + n)
    for half_width in (0.5, 16.0):
        g = Grid(n=n, half_width=half_width)
        spec = _spec("fractional", True)
        v = random_field(rng, n)
        assert_bitwise(_variable_diffusion_term(v, spec.diffusion.sigma_squared(g.nodes), g.dx, adjoint),
                       oracle_variable_term(v, g, spec, adjoint))
