"""Operator discretizations: exact symbols, shell quadrature, transport.

The assembled generator and its adjoint below are test oracles: no stepper
applies them, and the duality tests pair one against the other. The checks
of the declared measure and drift constants are test helpers too.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from quadrature_oracle import levy_integral_field, quadrature_symbol

from levyfp.generators import (
    DriftSpec,
    GeneratorSpec,
    LevyMeasureSpec,
    LocalDiffusionSpec,
    stable_normalization,
)
from levyfp.grids import Field, Grid
from levyfp.operators import (
    StepSetup,
    _variable_diffusion_term,
    divergence_of_flux,
    face_velocities,
    levy_integral_callable,
    shell_quadrature_nodes,
    transport_flux,
    upwind_faces,
)

GRID = Grid(n=1024, half_width=16.0)


# ---------------------------------------------------------------------------
# oracle: spectral route


def spectral_derivative(values: np.ndarray, grid: Grid, order: int = 1) -> np.ndarray:
    """FFT derivative on the grid."""
    xi = 2.0 * np.pi * np.fft.fftfreq(grid.n, d=grid.dx)
    spec = np.fft.fft(values) * (1j * xi) ** order
    if order % 2 == 1:
        # the Nyquist mode has no well-defined odd derivative; zero it
        spec[grid.n // 2] = 0.0
    return np.real(np.fft.ifft(spec))


def fractional_action(values: np.ndarray, grid: Grid, sigma: float) -> np.ndarray:
    """(-Lap)^{sigma/2} via the multiplier |xi|^sigma; sigma = 2 is -Lap."""
    if not 0.0 < sigma <= 2.0:
        raise ValueError(f"sigma must lie in (0, 2], got {sigma}")
    mult = grid.wavenumber_magnitude**sigma
    return np.real(np.fft.ifft(mult * np.fft.fft(values)))


# ---------------------------------------------------------------------------
# oracle: assembled generator and adjoint


def _jump_term(values: np.ndarray, grid: Grid, g: GeneratorSpec, route: str) -> np.ndarray:
    """-I(x, [u]) as a value array, by the measure's exact symbol ("spectral")
    or the shell-quadrature oracle ("quadrature"); the adjoint jump term is
    identical because the builtin measures are symmetric, so reflecting the
    measure is a no-op."""
    nu = g.levy
    if route == "quadrature":
        return -levy_integral_field(Field(grid, values), nu).values
    if route != "spectral":
        raise ValueError(f"unknown jump route {route!r}")
    return np.real(np.fft.ifft(nu.symbol(grid.wavenumber_magnitude) * np.fft.fft(values)))


def apply_generator(u: Field, g: GeneratorSpec, t: float = 0.0, jump_route: str = "spectral") -> Field:
    """L^b[u] = -lambda0 Lap u - tr(Sigma Sigma^T D^2 u) - I(x,[u]) + b . Du.

    Differential parts use spectral differentiation, so fields sampled from
    non-periodic functions carry seam oscillation; the jump part goes through
    the measure's exact symbol, or the shell quadrature with
    ``jump_route="quadrature"``.
    """
    grid = u.grid
    vals = u.values
    out = np.zeros_like(vals)
    lam0 = g.diffusion.lambda0
    if lam0 > 0:
        out += lam0 * fractional_action(vals, grid, 2.0)  # -lambda0 Lap u
    if g.diffusion.has_variable_part:
        out -= _variable_diffusion_term(vals, g.diffusion.sigma_squared(grid.nodes), grid.dx, adjoint=False)
    out += _jump_term(vals, grid, g, jump_route)
    b = np.asarray(g.drift(t, grid.nodes), dtype=float)
    out += b * spectral_derivative(vals, grid, 1)
    return Field(grid, out, t)


def apply_adjoint_generator(
    m: Field,
    g: GeneratorSpec,
    t: float = 0.0,
    limiter: str = "mc",
    jump_route: str = "spectral",
) -> Field:
    """L^*[m] - div(b m): the spatial operator of the forward equation
    d/dt m = -(L^*[m] - div(b m)).

    Second-order terms are spectral / centered FD; the divergence uses the
    conservative upwind flux, so the output integrates to zero exactly up to
    rounding and signed inputs are handled without clipping.
    """
    grid = m.grid
    vals = m.values
    out = np.zeros_like(vals)
    lam0 = g.diffusion.lambda0
    if lam0 > 0:
        out += lam0 * fractional_action(vals, grid, 2.0)
    if g.diffusion.has_variable_part:
        out -= _variable_diffusion_term(vals, g.diffusion.sigma_squared(grid.nodes), grid.dx, adjoint=True)
    out += _jump_term(vals, grid, g, jump_route)
    faces = upwind_faces(face_velocities(grid, g.drift, t), grid.dx)
    flux = transport_flux(vals, faces, grid.dx, limiter)
    # flux approximates -b*m, so div(b m) = -divergence_of_flux(flux)
    out += divergence_of_flux(flux, grid.dx)
    return Field(grid, out, t)


# ---------------------------------------------------------------------------
# declared constants of the measure and drift


def check_bounds(nu: LevyMeasureSpec, upper: float, z_samples: np.ndarray) -> bool:
    """Verify the pinching nu.lower <= density * |z|^{1+sigma} <= upper on
    sample points (lower bound only where it is claimed, i.e. |z| <= 1 for
    tempered kernels); upper is the Lam the constructor's docstring states."""
    if not nu.is_active:
        return True
    z = np.abs(np.asarray(z_samples, dtype=float))
    z = z[z > 0]
    rho = nu.density(z) * z ** (1.0 + nu.sigma)
    ok_upper = bool(np.all(rho <= upper * (1.0 + 1e-12)))
    small = z <= 1.0
    ok_lower = bool(np.all(rho[small] >= nu.lower * (1.0 - 1e-12)))
    return ok_upper and ok_lower


def check_confinement(drift: DriftSpec, R: float, radii: np.ndarray, t_samples=(0.0, 0.7, 1.9),
                      slack: float = 1e-9) -> bool:
    """b(t, x).x >= alpha|x|^gamma on sampled |x| >= R (both signs, d=1)."""
    r = np.asarray(radii, dtype=float)
    r = r[r >= max(R, 1e-12)]
    if r.size == 0:
        return True
    x = np.concatenate([r, -r])
    for t in t_samples:
        if np.any(drift.fn(t, x) * x < drift.alpha * np.abs(x) ** drift.gamma - slack):
            return False
    return True


def check_one_sided(drift: DriftSpec, c0: float, xs: np.ndarray, ys: np.ndarray, t: float = 0.0,
                    slack: float = 1e-9) -> bool:
    """(b(x)-b(y)).(x-y) >= -c0 |x-y| (|x-y| wedge 1) on sample pairs."""
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    lhs = (drift.fn(t, x) - drift.fn(t, y)) * (x - y)
    r = np.abs(x - y)
    return bool(np.all(lhs >= -c0 * r * np.minimum(r, 1.0) - slack))


# ---------------------------------------------------------------------------
# fixtures


def _zero_drift() -> DriftSpec:
    return DriftSpec(alpha=0.0, gamma=2.0,
                     fn=lambda t, x: np.zeros_like(np.asarray(x, dtype=float)))


def _tempered_spec() -> GeneratorSpec:
    return GeneratorSpec(LocalDiffusionSpec.constant(1.0), LevyMeasureSpec.tempered(1.5), DriftSpec.ou(1.0))


def _gaussian(grid: Grid) -> Field:
    return Field(grid=grid, values=np.exp(-0.5 * grid.nodes**2))


# ---------------------------------------------------------------------------
# spectral route


def test_spectral_derivative_on_plane_wave():
    x = GRID.nodes
    xi = 5.0 * np.pi / GRID.half_width
    u = np.sin(xi * x)
    np.testing.assert_allclose(spectral_derivative(u, GRID, 1), xi * np.cos(xi * x), atol=1e-11)
    np.testing.assert_allclose(spectral_derivative(u, GRID, 2), -(xi**2) * u, atol=1e-9)


def test_spectral_derivative_kills_nyquist_odd_order():
    u = np.cos(np.pi * np.arange(GRID.n))  # pure Nyquist mode +1,-1,+1,...
    assert np.abs(spectral_derivative(u, GRID, 1)).max() < 1e-12


def test_fractional_action_eigenfunction():
    # sin(xi x) is an eigenfunction with eigenvalue |xi|^sigma
    x = GRID.nodes
    xi = 3.0 * np.pi / GRID.half_width
    u = np.sin(xi * x)
    for sigma in (0.6, 1.0, 1.5, 2.0):
        np.testing.assert_allclose(
            fractional_action(u, GRID, sigma), xi**sigma * u, atol=1e-10,
            err_msg=f"sigma={sigma}")


def test_fractional_action_sigma_two_is_minus_laplacian():
    rng = np.random.default_rng(3)
    u = np.real(np.fft.ifft(np.fft.fft(rng.standard_normal(GRID.n)) * (GRID.wavenumber_magnitude < 4.0)))
    np.testing.assert_allclose(
        fractional_action(u, GRID, 2.0), -spectral_derivative(u, GRID, 2), atol=1e-12)


def test_fractional_action_rejects_bad_sigma():
    u = np.zeros(GRID.n)
    for sigma in (0.0, -1.0, 2.2):
        with pytest.raises(ValueError, match="sigma"):
            fractional_action(u, GRID, sigma)


def test_stable_normalization_known_value():
    # sigma = 1 (Cauchy) in d = 1: C = 1/pi
    assert stable_normalization(1.0) == pytest.approx(1.0 / np.pi, rel=1e-14)
    for sigma in (0.3, 0.8, 1.5, 1.9):
        c = stable_normalization(sigma)
        assert 0.0 < c < 10.0
    with pytest.raises(ValueError):
        stable_normalization(2.0)


# ---------------------------------------------------------------------------
# quadrature route and cross-route agreement


def test_shell_nodes_cover_range_and_integrate_powers():
    z, w = shell_quadrature_nodes(1e-3, 1e3, shells_per_octave=1, nodes_per_shell=8)
    assert z.min() > 1e-3 and z.max() < 1e3
    # integral of z^{-2} over [1e-3, 1e3] = 1/1e-3 - 1/1e3
    got = np.sum(w * z**-2.0)
    assert got == pytest.approx(1e3 - 1e-3, rel=1e-10)


def test_shell_nodes_validation():
    with pytest.raises(ValueError, match="r_min"):
        shell_quadrature_nodes(0.0, 1.0)
    with pytest.raises(ValueError, match="r_min"):
        shell_quadrature_nodes(2.0, 1.0)


def test_levy_field_on_constant_is_zero():
    u = Field(grid=GRID, values=np.full(GRID.n, 0.7))
    out = levy_integral_field(u, LevyMeasureSpec.fractional(1.5)).values
    assert np.abs(out).max() < 1e-13


def test_levy_field_inactive_measure_is_zero():
    out = levy_integral_field(_gaussian(GRID), LevyMeasureSpec.none()).values
    assert np.abs(out).max() == 0.0


@pytest.mark.parametrize("sigma,tol", [(0.8, 5e-3), (1.5, 1e-3), (1.9, 5e-4)])
def test_quadrature_matches_multiplier_on_gaussian(sigma, tol):
    # the multiplier route computes -I exactly on the periodic grid, so the
    # shell quadrature must reproduce scale * (-Lap)^{sigma/2} with sign flip
    u = _gaussian(GRID)
    nu = LevyMeasureSpec.fractional(sigma)
    ref = -nu.scale * fractional_action(u.values, GRID, sigma)
    got = levy_integral_field(u, nu).values
    inner = np.abs(GRID.nodes) <= GRID.half_width / 2
    assert np.abs(got - ref)[inner].max() <= tol


def test_quadrature_error_shrinks_with_refinement():
    u = _gaussian(GRID)
    nu = LevyMeasureSpec.fractional(0.8)
    ref = -nu.scale * fractional_action(u.values, GRID, 0.8)
    coarse = np.abs(levy_integral_field(u, nu).values - ref).max()
    fine = np.abs(levy_integral_field(u, nu, shells_per_octave=2, nodes_per_shell=16).values - ref).max()
    assert fine < 0.5 * coarse


@pytest.mark.parametrize("n", [64, 1024])
@pytest.mark.parametrize("sigma", [0.7, 1.5, 1.9])
@pytest.mark.parametrize("kind", ["tempered", "fractional"])
def test_quadrature_symbol_matches_node_loop(kind, sigma, n):
    # the shell loop is a circulant on the periodic grid: its FFT symbol
    # reproduces it to rounding on any field
    g = Grid(n=n, half_width=16.0)
    nu = getattr(LevyMeasureSpec, kind)(sigma)
    lam = quadrature_symbol(g, nu)
    rng = np.random.default_rng(20)
    for _ in range(20):
        u = rng.standard_normal(n)
        want = levy_integral_field(Field(g, u), nu).values
        got = np.real(np.fft.ifft(lam * np.fft.fft(u)))
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


# ---------------------------------------------------------------------------
# the exact tempered symbol


@pytest.mark.parametrize("sigma", [0.3, 0.7, 1.0, 1.5, 1.9])
def test_tempered_symbol_matches_node_loop_on_low_modes(sigma):
    # I = -symbol, so the quadrature's symbol is -lam; on N=1024, L=16 its
    # discretization error on |xi| <= 1 measured at most 2.0e-5 relative
    # (sigma 1.5 and 1.9), and the bound leaves a factor 5
    nu = LevyMeasureSpec.tempered(sigma)
    lam = quadrature_symbol(GRID, nu)
    xi = GRID.wavenumber_magnitude
    low = (xi > 0) & (xi <= 1.0)
    psi = nu.symbol(xi[low])
    assert np.all(np.abs(-lam[low] - psi) <= 1e-4 * psi)


@pytest.mark.parametrize("sigma", [0.01, 0.3, 1.0, 1.5, 1.99])
def test_tempered_symbol_small_xi_series(sigma):
    # symbol = c Gamma(2 - sigma) xi^2 (1 - (2 - sigma)(3 - sigma) xi^2 / 12 + ...),
    # and the next-term coefficient is at most 1/2
    nu = LevyMeasureSpec.tempered(sigma)
    xi = np.array([1e-8, 1e-6, 1e-4, 1e-3, 1e-2])
    ratio = nu.symbol(xi) / (nu.scale * math.gamma(2.0 - sigma) * xi**2)
    assert np.all(np.abs(ratio - 1.0) <= 0.5 * xi**2 + 1e-12)


def test_tempered_symbol_continuous_across_sigma_one():
    # the pole-free form has no 0/0 at sigma = 1: one step of 1e-9 moves the
    # symbol by 1e-9 times d(log symbol)/d(sigma), at most log(1 + xi) < 5
    # on this grid, and the two sides average to sigma = 1 to rounding
    xi = GRID.wavenumber_magnitude[: GRID.n // 2 + 1]
    c = stable_normalization(1.0)
    at_one = LevyMeasureSpec.tempered(1.0, c).symbol(xi)
    below, above = (LevyMeasureSpec.tempered(s, c).symbol(xi) for s in (1.0 - 1e-9, 1.0 + 1e-9))
    assert at_one[0] == 0.0 and np.all(at_one[1:] > 0.0)
    for side in (below, above):
        assert np.all(np.abs(side - at_one)[1:] <= 5e-9 * at_one[1:])
    assert np.abs(0.5 * (below + above) - at_one)[1:].max() <= 1e-14 * at_one[1:].max()


@pytest.mark.parametrize("lambda0", [0.0, 1.0])
@pytest.mark.parametrize("sigma", [0.3, 1.0, 1.5])
def test_tempered_zero_mode_is_exact(sigma, lambda0):
    # symbol(0) is -0.0, so the zero mode's factor is exactly 1 and mass telescopes
    spec = GeneratorSpec(LocalDiffusionSpec.constant(lambda0), LevyMeasureSpec.tempered(sigma),
                         DriftSpec.ou(1.0))
    assert spec.levy.symbol(np.zeros(1))[0] == 0.0
    assert StepSetup(spec, GRID, 5e-4).diffusion_factor[0] == 1.0


def test_levy_field_rejects_sigma_two():
    with pytest.raises(ValueError, match="sigma"):
        LevyMeasureSpec.fractional(2.0)


def test_callable_route_matches_field_route_tempered():
    g = GRID
    x = g.nodes
    u = _gaussian(g)
    nu = LevyMeasureSpec.tempered(1.5)
    sub = np.abs(x) <= 4.0
    field_vals = levy_integral_field(u, nu).values[sub]
    call_vals = levy_integral_callable(lambda y: np.exp(-0.5 * np.minimum(np.abs(y), 50.0)**2), x[sub], nu,
                                       lambda y: (y**2 - 1.0) * np.exp(-0.5 * y**2))
    assert np.abs(field_vals - call_vals).max() < 2e-4


def test_callable_route_even_symmetry_and_sign_at_minimum():
    # u = <x>^beta with beta < sigma: integrable tail, minimum at the origin,
    # so the compensated integral is positive there and even in x
    nu = LevyMeasureSpec.fractional(1.5)
    beta = 0.5
    fn = lambda y: (1.0 + y**2) ** (beta / 2.0)
    d2fn = lambda y: beta * (1.0 + y**2) ** (beta / 2.0 - 2.0) * (1.0 + (beta - 1.0) * y**2)
    xs = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
    vals = levy_integral_callable(fn, xs, nu, d2fn)
    assert np.all(np.isfinite(vals))
    assert vals[2] > 0.0
    np.testing.assert_allclose(vals, vals[::-1], rtol=1e-10)


def test_measure_bound_declarations():
    # Lam = scale * C(1, sigma) for both kinds at their default scales
    z = np.geomspace(1e-6, 50.0, 200)
    assert check_bounds(LevyMeasureSpec.fractional(1.2), stable_normalization(1.2), z)
    assert check_bounds(LevyMeasureSpec.tempered(1.2), stable_normalization(1.2), z)
    nu = LevyMeasureSpec.tempered(0.8)
    # upper bound is global, lower bound claimed on |z| <= 1 only
    rho = nu.density(z) * z ** (1.0 + nu.sigma)
    assert np.all(rho <= stable_normalization(0.8) + 1e-15)
    assert np.all(rho[z <= 1.0] >= nu.lower - 1e-15)


# ---------------------------------------------------------------------------
# transport pieces


def test_face_velocities_positions_and_sign():
    g = Grid(n=8, half_width=4.0)
    w = face_velocities(g, DriftSpec.ou(1.0), 0.0)
    # faces at x_i + dx/2; the last one, at L - dx/2, separates the last cell
    # from the first through the periodic seam
    np.testing.assert_allclose(w, -(g.nodes + 0.5 * g.dx))
    assert w[-1] == pytest.approx(-(4.0 - 0.5 * g.dx))


def test_divergence_telescopes_to_zero():
    rng = np.random.default_rng(11)
    m = rng.standard_normal(GRID.n) ** 2
    faces = upwind_faces(rng.standard_normal(GRID.n), GRID.dx)
    for limiter in ("off", "mc"):
        flux = transport_flux(m, faces, GRID.dx, limiter)
        div = divergence_of_flux(flux, GRID.dx)
        assert abs(div.sum() * GRID.dx) < 1e-10


def test_transport_flux_donor_upwind():
    m = np.array([1.0, 2.0, 4.0, 0.5])
    w = np.array([1.0, 1.0, -1.0, 2.0])
    faces = upwind_faces(w, 1.0)
    # positive w takes the left cell, negative w the right cell
    assert faces.donor.tolist() == [0, 1, 3, 3]
    assert faces.half.tolist() == [0.5, 0.5, -0.5, 0.5]
    flux = transport_flux(m, faces, 1.0, limiter="off")
    np.testing.assert_allclose(flux, [1.0, 2.0, -0.5, 1.0])


def test_limited_slopes_second_order_on_linear_data():
    # on locally linear data the MC limiter returns the exact slope, so the
    # reconstruction is second order there
    g = Grid(n=64, half_width=8.0)
    m = np.sin(np.pi * g.nodes / g.half_width)
    faces = upwind_faces(np.full(g.n, 1.0), g.dx)
    err_off = np.abs(divergence_of_flux(transport_flux(m, faces, g.dx, "off"), g.dx)
                     - np.pi / g.half_width * np.cos(np.pi * g.nodes / g.half_width)).max()
    err_mc = np.abs(divergence_of_flux(transport_flux(m, faces, g.dx, "mc"), g.dx)
                    - np.pi / g.half_width * np.cos(np.pi * g.nodes / g.half_width)).max()
    assert err_mc < 0.2 * err_off


def test_unknown_limiter_rejected():
    with pytest.raises(ValueError, match="limiter"):
        transport_flux(np.ones(8), upwind_faces(np.ones(8), 0.1), 0.1, limiter="superbee")


# ---------------------------------------------------------------------------
# assembled generator and adjoint


def test_generator_on_quadratic_large_box():
    # L^b[x^2] = -2 lambda0 + 2 alpha x^2 for the linear drift; the seam of
    # the periodized parabola pollutes spectral derivatives, so compare on an
    # interior band of a large box
    g = Grid(n=2048, half_width=64.0)
    x = g.nodes
    u = Field(grid=g, values=x**2)
    spec = GeneratorSpec(LocalDiffusionSpec.constant(1.0), LevyMeasureSpec.none(), DriftSpec.ou(1.0))
    got = apply_generator(u, spec).values
    want = -2.0 + 2.0 * x**2
    band = (np.abs(x) >= 8.0) & (np.abs(x) <= 32.0)
    rel = np.abs(got - want)[band] / np.abs(want)[band]
    assert rel.max() < 5e-3


def test_adjoint_annihilates_ou_stationary_density():
    # N(0,1) is stationary for dX = -X dt + sqrt(2) dW, i.e. lambda0 = 1,
    # b(x) = x in the sign convention of the forward equation
    g = Grid(n=512, half_width=16.0)
    m = Field(grid=g, values=np.exp(-0.5 * g.nodes**2) / np.sqrt(2 * np.pi))
    spec = GeneratorSpec(LocalDiffusionSpec.constant(1.0), LevyMeasureSpec.none(), DriftSpec.ou(1.0))
    res = apply_adjoint_generator(m, spec).values
    assert np.abs(res).max() < 1e-3


def test_adjoint_output_integrates_to_zero_both_routes():
    m = Field(grid=GRID, values=np.exp(-0.4 * (GRID.nodes - 1.0) ** 2))
    spec = GeneratorSpec(LocalDiffusionSpec.constant(0.5), LevyMeasureSpec.fractional(1.2), DriftSpec.ou(1.0))
    for route in ("spectral", "quadrature"):
        out = apply_adjoint_generator(m, spec, jump_route=route).values
        assert abs(out.sum() * GRID.dx) < 1e-12


def test_diffusion_and_jump_parts_self_adjoint():
    # with the drift switched off both routes are symmetric operators; the
    # spectral pieces are diagonal multipliers, hence machine-exact
    rng = np.random.default_rng(5)
    x = GRID.nodes
    u = Field(grid=GRID, values=np.exp(-0.3 * (x - 1.0) ** 2))
    v = Field(grid=GRID, values=np.exp(-0.5 * (x + 0.5) ** 2) * (1.0 + 0.1 * np.sin(x)))
    spec = GeneratorSpec(
        LocalDiffusionSpec.tanh_variable(0.7, 0.4),
        LevyMeasureSpec.fractional(1.5),
        _zero_drift(),
    )
    lhs = np.sum(apply_generator(u, spec).values * v.values) * GRID.dx
    rhs = np.sum(u.values * apply_adjoint_generator(v, spec, limiter="off").values) * GRID.dx
    assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-13)


def test_duality_gap_shrinks_with_resolution():
    # transport discretizations differ between the two sides (spectral vs
    # upwind), so the pairing gap is O(dx) and must shrink by ~half per halving
    gaps = []
    for n in (256, 512):
        g = Grid(n=n, half_width=16.0)
        x = g.nodes
        u = Field(grid=g, values=np.exp(-0.3 * (x - 1.0) ** 2) + 0.2 * np.sin(2 * np.pi * x / 16.0))
        m = Field(grid=g, values=np.exp(-0.5 * x**2))
        spec = GeneratorSpec(LocalDiffusionSpec.constant(0.5), LevyMeasureSpec.fractional(1.5), DriftSpec.ou(1.0))
        lhs = np.sum(apply_generator(u, spec).values * m.values) * g.dx
        rhs = np.sum(u.values * apply_adjoint_generator(m, spec, limiter="off").values) * g.dx
        gaps.append(abs(lhs - rhs))
    assert gaps[1] < 0.65 * gaps[0]


def test_generator_rejects_degenerate_operator():
    with pytest.raises(ValueError, match="degenerate"):
        GeneratorSpec(LocalDiffusionSpec.constant(0.0), LevyMeasureSpec.none(), DriftSpec.ou(1.0))


# ---------------------------------------------------------------------------
# drift declarations


# R as each constructor's docstring states it; for the perturbed power drift
# at gamma 1.5 that is max(R, (2A/a)^{1/(gamma-1)}) with a = alpha 2^{-1/4}
@pytest.mark.parametrize("drift, R", [
    (DriftSpec.ou(0.8), 0.0),
    (DriftSpec.power(1.0, 1.5), 1.0),
    (DriftSpec.power(2.0, 0.5, R=2.0), 2.0),
    (DriftSpec.perturbed_power(1.0, 1.0, 0.3), 1.0),
    (DriftSpec.perturbed_power(1.0, 1.5, 0.8), max(1.0, (2.0 * 0.8 / 2.0**-0.25) ** 2.0)),
], ids=[f"drift{i}" for i in range(5)])
def test_drift_confinement_holds_as_declared(drift, R):
    radii = np.geomspace(max(R, 1e-3), 1e3, 60)
    assert check_confinement(drift, R, radii)


@settings(max_examples=30, deadline=None)
@given(
    x=st.floats(-30.0, 30.0),
    y=st.floats(-30.0, 30.0),
    t=st.floats(0.0, 5.0),
)
def test_perturbed_drift_one_sided_bound(x, y, t):
    drift = DriftSpec.perturbed_power(1.0, 1.5, 0.6)
    # c0 = 2A
    assert check_one_sided(drift, 2.0 * 0.6, np.array([x]), np.array([y]), t=t)


def test_perturbed_power_validation():
    with pytest.raises(ValueError, match="gamma"):
        DriftSpec.perturbed_power(1.0, 0.5, 0.1)
    with pytest.raises(ValueError, match="swallows"):
        DriftSpec.perturbed_power(1.0, 1.0, 5.0)
