"""Transport layer against its np.roll oracles: the limited upwind flux, its
divergence and the backward advection must agree bit for bit, sign bits of
zeros included, and so must whole forward and backward steps. A (rows, n)
stack must give each row the bits of that row alone."""
import numpy as np
import pytest

import levyfp.forward as forward
from levyfp.adjoint import _AdjointStepper
from levyfp.forward import _run_stepper, _Stepper
from levyfp.generators import DriftSpec, GeneratorSpec, LevyMeasureSpec, LocalDiffusionSpec
from levyfp.grids import Grid
from levyfp.operators import (
    LIMITERS,
    StepSetup,
    divergence_of_flux,
    stack_faces,
    transport_flux,
    upwind_faces,
)

# ---------------------------------------------------------------------------
# oracles: the np.roll expressions the slicing code replaced


def oracle_slope(m, dx, limiter):
    if limiter == "off":
        return np.zeros_like(m)
    left = (m - np.roll(m, 1)) / dx
    right = (np.roll(m, -1) - m) / dx
    central = 0.5 * (left + right)
    lim = np.minimum(np.abs(central), 2.0 * np.minimum(np.abs(left), np.abs(right)))
    return np.where(left * right > 0, np.sign(central) * lim, 0.0)


def oracle_flux(m, faces, dx, limiter="mc"):
    # both reconstructions, then the upwind pick per face: reads only faces.w
    w = faces.w
    s = oracle_slope(m, dx, limiter)
    from_left = m + 0.5 * dx * s
    from_right = np.roll(m - 0.5 * dx * s, -1)
    return np.where(w >= 0, w * from_left, w * from_right)


def oracle_divergence(flux, dx):
    return (flux - np.roll(flux, 1)) / dx


def oracle_advect(stepper, v, s):
    w = stepper.stage.faces(stepper.horizon - s).w
    wp, wm = np.maximum(w, 0.0), np.minimum(w, 0.0)
    rho = stepper.dt / stepper.grid.dx
    return v - rho * (wp * (v - np.roll(v, -1)) + np.roll(wm, 1) * (np.roll(v, 1) - v))


def assert_bitwise(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


# ---------------------------------------------------------------------------
# seeded fields: scales 1e-5 to 1e5, exact zeros of both signs, equal
# neighbours (zero differences), and velocities of both signs with zeros


def random_field(rng, n):
    x = rng.standard_normal(n) * 10.0 ** rng.uniform(-5.0, 5.0, n)
    k = max(1, n // 8)
    x[rng.choice(n, k, replace=False)] = 0.0
    x[rng.choice(n, k, replace=False)] = -0.0
    i = rng.choice(n, k, replace=False)
    x[i] = x[(i + 1) % n]
    return x


def random_velocity(rng, n):
    w = rng.standard_normal(n)
    p = rng.permutation(n)
    k = max(1, n // 8)
    w[p[:k]] = 0.0
    w[p[k:2 * k]] = -0.0
    w[p[-2]], w[p[-1]] = abs(w[p[-2]]), -abs(w[p[-1]])
    return w


SIZES = (4, 8, 256, 1024)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("limiter", LIMITERS)
def test_flux_and_divergence_match_roll_oracle(n, limiter):
    rng = np.random.default_rng(1000 + n)
    for dx in (1e-3, 0.0625, 3.0):
        m = random_field(rng, n)
        w = random_velocity(rng, n)
        assert np.any(w > 0) and np.any(w < 0) and np.any(w == 0)
        faces = upwind_faces(w, dx)
        flux = transport_flux(m, faces, dx, limiter)
        assert_bitwise(flux, oracle_flux(m, faces, dx, limiter))
        assert_bitwise(divergence_of_flux(flux, dx), oracle_divergence(flux, dx))


@pytest.mark.parametrize("limiter", LIMITERS)
def test_flux_matches_oracle_on_signed_zero_fields(limiter):
    # all-zero data of mixed sign: the "off" reconstruction m + 0.0 must
    # turn -0.0 into +0.0 exactly as zero slopes did
    m = np.array([0.0, -0.0, -0.0, 0.0, -0.0, 0.0, 0.0, -0.0])
    w = np.array([1.0, -1.0, 0.0, -0.0, 2.0, -2.0, -0.0, 1.0])
    faces = upwind_faces(w, 0.5)
    assert_bitwise(transport_flux(m, faces, 0.5, limiter), oracle_flux(m, faces, 0.5, limiter))


@pytest.mark.parametrize("scale", [1e-318, 1e303])
def test_flux_matches_oracle_at_the_ends_of_the_float_range(scale):
    # subnormal differences (left * right underflows to 0) and overflowing
    # ones (slopes of inf): the MC slope built from |d| and copysign must
    # still agree with the oracle's sign(central) * lim bit for bit
    rng = np.random.default_rng(5000)
    for _ in range(20):
        m = random_field(rng, 64) * scale
        faces = upwind_faces(random_velocity(rng, 64), 0.0625)
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            got, want = transport_flux(m, faces, 0.0625, "mc"), oracle_flux(m, faces, 0.0625, "mc")
        # inf * 0 leaves NaN in both; the other entries agree with their sign bits
        assert np.array_equal(np.isnan(got), np.isnan(want))
        number = ~np.isnan(want)
        assert_bitwise(got[number], want[number])


def _advect_stepper(n, rng, time_dependent):
    g = Grid(n=n, half_width=4.0)
    w = random_velocity(rng, n)
    if time_dependent:
        drift = DriftSpec(alpha=0.0, gamma=2.0, time_dependent=True,
                          fn=lambda t, x: -(1.0 + t) * w)
    else:
        drift = DriftSpec(alpha=0.0, gamma=2.0, fn=lambda t, x: -w)
    spec = GeneratorSpec(LocalDiffusionSpec.constant(1.0), LevyMeasureSpec.none(), drift)
    # horizon 1: the moving faces reach 2 max|w|
    dt = 0.2 * g.dx / (2.0 * np.abs(w).max())
    return _AdjointStepper(spec, g, dt, 1.0)


@pytest.mark.parametrize("n", SIZES[1:])  # Grid needs n >= 8
@pytest.mark.parametrize("time_dependent", [False, True])
def test_advect_matches_roll_oracle(n, time_dependent):
    rng = np.random.default_rng(2000 + n)
    stepper = _advect_stepper(n, rng, time_dependent)
    for s in (0.0, 0.25, 0.5):
        v = random_field(rng, n)
        assert_bitwise(stepper._advect(v, s), oracle_advect(stepper, v, s))


# ---------------------------------------------------------------------------
# whole steps built from the oracles


FRAC_OU = GeneratorSpec(LocalDiffusionSpec.constant(0.5), LevyMeasureSpec.fractional(1.5), DriftSpec.ou(1.0))
MOVING = GeneratorSpec(LocalDiffusionSpec.constant(1.0), LevyMeasureSpec.none(),
                       DriftSpec.perturbed_power(1.0, 2.0, 0.5))


@pytest.mark.parametrize("limiter", LIMITERS)
@pytest.mark.parametrize("spec", [FRAC_OU, MOVING], ids=["spectral", "moving"])
def test_forward_strang_step_matches_oracle_step(monkeypatch, limiter, spec):
    g = Grid(n=256, half_width=8.0)
    m = random_field(np.random.default_rng(3), g.n)
    stepper = _run_stepper(spec, g, 2e-3, limiter)
    got = stepper.step(m, 0.25)
    # the stepper must reach the oracles through forward's module names (the
    # names perfbench's spans wrap): 2 RK substeps x 2 transport halves
    calls = []

    def counted(name, fn):
        def call(*args):
            calls.append(name)
            return fn(*args)
        return call

    monkeypatch.setattr(forward, "transport_flux", counted("flux", oracle_flux))
    monkeypatch.setattr(forward, "divergence_of_flux", counted("div", oracle_divergence))
    assert_bitwise(got, stepper.step(m, 0.25))
    assert calls == ["flux", "div"] * 4


def test_static_faces_are_one_record_at_every_time():
    stage = _run_stepper(FRAC_OU, Grid(n=64, half_width=8.0), 2e-3, "mc").stage
    faces = stage.faces(0.0)
    assert all(stage.faces(t) is faces for t in (1e-3, 0.25, 7.5, -1.0))


@pytest.mark.parametrize("spec", [FRAC_OU, MOVING], ids=["spectral", "moving"])
def test_backward_step_matches_oracle_step(monkeypatch, spec):
    g = Grid(n=256, half_width=8.0)
    rng = np.random.default_rng(4)
    v = random_field(rng, g.n)
    stepper = _AdjointStepper(spec, g, 2e-3, 1.0)
    got = stepper.step(v, 0.25)
    monkeypatch.setattr(_AdjointStepper, "_advect", oracle_advect)
    assert_bitwise(got, stepper.step(v, 0.25))


# ---------------------------------------------------------------------------
# stacks: every kernel acts row by row


def assert_complex_bitwise(got, want):
    assert_bitwise(got.real, want.real)
    assert_bitwise(got.imag, want.imag)


@pytest.mark.parametrize("n", [8, 256, 1024, 2048])
def test_real_fft_pair_over_a_stack_matches_each_row(n):
    # the diffusion stage transforms a (rows, n) stack along its rows; numpy
    # must give every row the bits of its own 1-D transform
    rng = np.random.default_rng(6000 + n)
    for rows in range(1, 9):
        stack = np.array([random_field(rng, n) for _ in range(rows)])
        spectra = np.fft.rfft(stack)
        spectra_in = spectra * np.exp(-rng.uniform(0.0, 3.0, spectra.shape))
        back = np.fft.irfft(spectra_in, n)
        for r in range(rows):
            assert_complex_bitwise(spectra[r], np.fft.rfft(stack[r]))
            assert_bitwise(back[r], np.fft.irfft(spectra_in[r], n))


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("limiter", LIMITERS)
def test_flux_and_divergence_of_a_stack_match_each_row(n, limiter):
    rng = np.random.default_rng(7000 + n)
    for dx in (1e-3, 0.0625, 3.0):
        m = np.array([random_field(rng, n) for _ in range(5)])
        records = [upwind_faces(random_velocity(rng, n), dx) for _ in range(5)]
        flux = transport_flux(m, stack_faces(records), dx, limiter)
        div = divergence_of_flux(flux, dx)
        for r, faces in enumerate(records):
            assert_bitwise(flux[r], transport_flux(m[r], faces, dx, limiter))
            assert_bitwise(div[r], divergence_of_flux(flux[r], dx))


VARIABLE = GeneratorSpec(LocalDiffusionSpec.tanh_variable(0.5, 0.5), LevyMeasureSpec.fractional(1.5),
                         DriftSpec.ou(1.0))
TEMPERED_POWER = GeneratorSpec(LocalDiffusionSpec.constant(1.0), LevyMeasureSpec.tempered(1.2),
                               DriftSpec.power(1.0, 1.5))


DRIFT_FREE = GeneratorSpec(LocalDiffusionSpec.constant(0.5), LevyMeasureSpec.fractional(1.5),
                           DriftSpec.none())


@pytest.mark.parametrize("limiter", LIMITERS)
@pytest.mark.parametrize("specs, zero_rows", [
    ([FRAC_OU, TEMPERED_POWER, FRAC_OU], ()),
    ([MOVING, FRAC_OU, VARIABLE, TEMPERED_POWER, MOVING, VARIABLE], ()),
    ([VARIABLE, DRIFT_FREE], (1,)),
], ids=["static", "mixed", "signed-zero"])
def test_forward_step_of_a_stack_matches_each_row(limiter, specs, zero_rows):
    # "mixed" stacks moving faces with static ones, and variable Sigma with
    # constant diffusion. In "signed-zero" a row of -0.0 keeps its sign bits
    # next to a variable-Sigma row: the stack adds it no zero term
    g = Grid(n=256, half_width=8.0)
    rng = np.random.default_rng(8)
    m = np.array([random_field(rng, g.n) for _ in specs])
    m[list(zero_rows)] = -0.0
    stepper = _Stepper([StepSetup(spec, g, 2e-3, substep=0.5) for spec in specs], limiter)
    got = stepper.step(m, 0.25)
    for r, spec in enumerate(specs):
        assert_bitwise(got[r], _run_stepper(spec, g, 2e-3, limiter).step(m[r], 0.25))
