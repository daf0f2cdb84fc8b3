"""Operator discretizations: spectral route, shell quadrature, transport."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levyfp.generators import (
    DriftSpec,
    GeneratorSpec,
    LevyMeasureSpec,
    LocalDiffusionSpec,
    stable_normalization,
)
from levyfp.grids import Grid, ScalarField
from levyfp.operators import (
    StepSetup,
    apply_adjoint_generator,
    apply_generator,
    divergence_of_flux,
    face_velocities,
    fractional_action,
    levy_integral_callable,
    levy_integral_field,
    shell_quadrature_nodes,
    spectral_derivative,
    transport_flux,
)

GRID = Grid(dim=1, n=1024, half_width=16.0)


def _zero_drift() -> DriftSpec:
    return DriftSpec(kind="zero", alpha=0.0, gamma=2.0, R=0.0,
                     fn=lambda t, x: np.zeros_like(np.asarray(x, dtype=float)))


def _tempered_spec() -> GeneratorSpec:
    return GeneratorSpec(LocalDiffusionSpec.constant(1.0), LevyMeasureSpec.tempered(1.5), DriftSpec.ou(1.0))


def _gaussian(grid: Grid) -> ScalarField:
    return ScalarField(grid=grid, values=np.exp(-0.5 * grid.nodes**2))


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
    assert stable_normalization(1, 1.0) == pytest.approx(1.0 / np.pi, rel=1e-14)
    for sigma in (0.3, 0.8, 1.5, 1.9):
        c = stable_normalization(1, sigma)
        assert 0.0 < c < 10.0
    with pytest.raises(ValueError):
        stable_normalization(1, 2.0)


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
    u = ScalarField(grid=GRID, values=np.full(GRID.n, 0.7))
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
    g = Grid(dim=1, n=n, half_width=16.0)
    spec = GeneratorSpec(LocalDiffusionSpec.constant(1.0), getattr(LevyMeasureSpec, kind)(sigma),
                         DriftSpec.ou(1.0))
    nu = spec.levy
    lam = StepSetup(spec, g, 1e-4, "quadrature").jump_symbol
    rng = np.random.default_rng(20)
    for _ in range(20):
        u = rng.standard_normal(n)
        want = levy_integral_field(ScalarField(g, u), nu).values
        got = np.real(np.fft.ifft(lam * np.fft.fft(u)))
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_quadrature_symbol_zero_mode_is_exact():
    setup = StepSetup(_tempered_spec(), GRID, 5e-4, "auto")
    assert setup.jump_symbol[0] == 0.0
    assert setup.diffusion_factor[0] == 1.0


@pytest.mark.parametrize("n", [64, 1024])
@pytest.mark.parametrize("kind", ["tempered", "fractional"])
def test_symbol_radius_equals_nyquist_probe(kind, n):
    # the stability gate reads max|lam|; on the builtin kernels the largest
    # modulus sits at the Nyquist mode, where a quadrature pass on the most
    # oscillatory grid mode measured it
    g = Grid(dim=1, n=n, half_width=16.0)
    spec = GeneratorSpec(LocalDiffusionSpec.constant(1.0), getattr(LevyMeasureSpec, kind)(1.5),
                         DriftSpec.ou(1.0))
    radius = StepSetup(spec, g, 1e-4, "quadrature").jump_radius
    probe = ScalarField(g, np.cos(np.pi * np.arange(n)))
    want = np.abs(levy_integral_field(probe, spec.levy).values).max()
    assert abs(radius - want) <= 1e-12 * want


def test_step_setup_route_resolution():
    assert StepSetup(_tempered_spec(), GRID, 1e-4, "auto").jump_route == "quadrature"
    frac = GeneratorSpec(LocalDiffusionSpec.constant(1.0), LevyMeasureSpec.fractional(1.5), DriftSpec.ou(1.0))
    assert StepSetup(frac, GRID, 1e-4, "auto").jump_route == "spectral"
    assert StepSetup(frac, GRID, 1e-4, "quadrature").jump_route == "quadrature"
    local = GeneratorSpec(LocalDiffusionSpec.constant(1.0), LevyMeasureSpec.none(), DriftSpec.ou(1.0))
    assert StepSetup(local, GRID, 1e-4, "quadrature").jump_route is None
    with pytest.raises(ValueError, match="no exact symbol"):
        StepSetup(_tempered_spec(), GRID, 1e-4, "spectral")
    with pytest.raises(ValueError, match="unknown jump route"):
        StepSetup(frac, GRID, 1e-4, "fourier")
    with pytest.raises(ValueError, match="unknown jump route"):
        apply_generator(_gaussian(GRID), frac, jump_route="fourier")


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
    call_vals = levy_integral_callable(lambda y: np.exp(-0.5 * np.minimum(np.abs(y), 50.0)**2), x[sub], nu)
    assert np.abs(field_vals - call_vals).max() < 2e-4


def test_callable_route_even_symmetry_and_sign_at_minimum():
    # u = <x>^beta with beta < sigma: integrable tail, minimum at the origin,
    # so the compensated integral is positive there and even in x
    nu = LevyMeasureSpec.fractional(1.5)
    beta = 0.5
    fn = lambda y: (1.0 + y**2) ** (beta / 2.0)
    xs = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
    vals = levy_integral_callable(fn, xs, nu)
    assert np.all(np.isfinite(vals))
    assert vals[2] > 0.0
    np.testing.assert_allclose(vals, vals[::-1], rtol=1e-10)


def test_measure_bound_declarations():
    z = np.geomspace(1e-6, 50.0, 200)
    assert LevyMeasureSpec.fractional(1.2).check_bounds(z)
    assert LevyMeasureSpec.tempered(1.2).check_bounds(z)
    nu = LevyMeasureSpec.tempered(0.8)
    # upper bound is global, lower bound claimed on |z| <= 1 only
    rho = nu.density(z) * z ** (1.0 + nu.sigma)
    assert np.all(rho <= nu.upper + 1e-15)
    assert np.all(rho[z <= 1.0] >= nu.lower - 1e-15)


# ---------------------------------------------------------------------------
# transport pieces


def test_face_velocities_positions_and_sign():
    g = Grid(dim=1, n=8, half_width=4.0)
    w = face_velocities(g, DriftSpec.ou(1.0), 0.0)
    # faces at x_i + dx/2; the last one, at L - dx/2, separates the last cell
    # from the first through the periodic seam
    np.testing.assert_allclose(w, -(g.nodes + 0.5 * g.dx))
    assert w[-1] == pytest.approx(-(4.0 - 0.5 * g.dx))


def test_divergence_telescopes_to_zero():
    rng = np.random.default_rng(11)
    m = rng.standard_normal(GRID.n) ** 2
    w = rng.standard_normal(GRID.n)
    for limiter in ("off", "minmod", "mc", "fromm"):
        flux = transport_flux(m, w, GRID.dx, limiter)
        div = divergence_of_flux(flux, GRID.dx)
        assert abs(div.sum() * GRID.dx) < 1e-10


def test_transport_flux_donor_upwind():
    m = np.array([1.0, 2.0, 4.0, 0.5])
    w = np.array([1.0, 1.0, -1.0, 2.0])
    flux = transport_flux(m, w, 1.0, limiter="off")
    # positive w takes the left cell, negative w the right cell
    np.testing.assert_allclose(flux, [1.0, 2.0, -0.5, 1.0])


def test_limited_slopes_second_order_on_linear_data():
    # on locally linear data every limiter returns the exact slope, so the
    # reconstruction is second order there
    g = Grid(dim=1, n=64, half_width=8.0)
    m = np.sin(np.pi * g.nodes / g.half_width)
    w = np.full(g.n, 1.0)
    err_off = np.abs(divergence_of_flux(transport_flux(m, w, g.dx, "off"), g.dx)
                     - np.pi / g.half_width * np.cos(np.pi * g.nodes / g.half_width)).max()
    err_mc = np.abs(divergence_of_flux(transport_flux(m, w, g.dx, "mc"), g.dx)
                    - np.pi / g.half_width * np.cos(np.pi * g.nodes / g.half_width)).max()
    assert err_mc < 0.2 * err_off


def test_unknown_limiter_rejected():
    with pytest.raises(ValueError, match="limiter"):
        transport_flux(np.ones(8), np.ones(8), 0.1, limiter="superbee")


# ---------------------------------------------------------------------------
# assembled generator and adjoint


def test_generator_on_quadratic_large_box():
    # L^b[x^2] = -2 lambda0 + 2 alpha x^2 for the linear drift; the seam of
    # the periodized parabola pollutes spectral derivatives, so compare on an
    # interior band of a large box
    g = Grid(dim=1, n=2048, half_width=64.0)
    x = g.nodes
    u = ScalarField(grid=g, values=x**2)
    spec = GeneratorSpec(LocalDiffusionSpec.constant(1.0), LevyMeasureSpec.none(), DriftSpec.ou(1.0))
    got = apply_generator(u, spec).values
    want = -2.0 + 2.0 * x**2
    band = (np.abs(x) >= 8.0) & (np.abs(x) <= 32.0)
    rel = np.abs(got - want)[band] / np.abs(want)[band]
    assert rel.max() < 5e-3


def test_adjoint_annihilates_ou_stationary_density():
    # N(0,1) is stationary for dX = -X dt + sqrt(2) dW, i.e. lambda0 = 1,
    # b(x) = x in the sign convention of the forward equation
    g = Grid(dim=1, n=512, half_width=16.0)
    m = ScalarField(grid=g, values=np.exp(-0.5 * g.nodes**2) / np.sqrt(2 * np.pi))
    spec = GeneratorSpec(LocalDiffusionSpec.constant(1.0), LevyMeasureSpec.none(), DriftSpec.ou(1.0))
    res = apply_adjoint_generator(m, spec).values
    assert np.abs(res).max() < 1e-3


def test_adjoint_output_integrates_to_zero_both_routes():
    m = ScalarField(grid=GRID, values=np.exp(-0.4 * (GRID.nodes - 1.0) ** 2))
    spec = GeneratorSpec(LocalDiffusionSpec.constant(0.5), LevyMeasureSpec.fractional(1.2), DriftSpec.ou(1.0))
    for route in ("spectral", "quadrature"):
        out = apply_adjoint_generator(m, spec, jump_route=route).values
        assert abs(out.sum() * GRID.dx) < 1e-12


def test_diffusion_and_jump_parts_self_adjoint():
    # with the drift switched off both routes are symmetric operators; the
    # spectral pieces are diagonal multipliers, hence machine-exact
    rng = np.random.default_rng(5)
    x = GRID.nodes
    u = ScalarField(grid=GRID, values=np.exp(-0.3 * (x - 1.0) ** 2))
    v = ScalarField(grid=GRID, values=np.exp(-0.5 * (x + 0.5) ** 2) * (1.0 + 0.1 * np.sin(x)))
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
        g = Grid(dim=1, n=n, half_width=16.0)
        x = g.nodes
        u = ScalarField(grid=g, values=np.exp(-0.3 * (x - 1.0) ** 2) + 0.2 * np.sin(2 * np.pi * x / 16.0))
        m = ScalarField(grid=g, values=np.exp(-0.5 * x**2))
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


@pytest.mark.parametrize("drift", [
    DriftSpec.ou(0.8),
    DriftSpec.power(1.0, 1.5),
    DriftSpec.power(2.0, 0.5, R=2.0),
    DriftSpec.perturbed_power(1.0, 1.0, 0.3),
    DriftSpec.perturbed_power(1.0, 1.5, 0.8),
])
def test_drift_confinement_holds_as_declared(drift):
    radii = np.geomspace(max(drift.R, 1e-3), 1e3, 60)
    assert drift.check_confinement(radii)


@settings(max_examples=30, deadline=None)
@given(
    x=st.floats(-30.0, 30.0),
    y=st.floats(-30.0, 30.0),
    t=st.floats(0.0, 5.0),
)
def test_perturbed_drift_one_sided_bound(x, y, t):
    drift = DriftSpec.perturbed_power(1.0, 1.5, 0.6)
    assert drift.check_one_sided(np.array([x]), np.array([y]), t=t)


def test_perturbed_power_validation():
    with pytest.raises(ValueError, match="gamma"):
        DriftSpec.perturbed_power(1.0, 0.5, 0.1)
    with pytest.raises(ValueError, match="swallows"):
        DriftSpec.perturbed_power(1.0, 1.0, 5.0)
