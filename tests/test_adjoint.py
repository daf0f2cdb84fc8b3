"""Backward solver: semigroup oracles, duality against the forward run,
oscillation traces, and the transpose structure of the advection step."""
import dataclasses

import numpy as np
import pytest
from quadrature_oracle import levy_integral_field

from levyfp.adjoint import (
    _BackwardStepper,
    duality_residual,
    oscillation_trace,
    ramp_profile,
    smoothed_indicator,
    solve_backward,
    tanh_profile,
    tapered_linear,
)
from levyfp.forward import NumericalFailure, _run_stepper, gaussian, solve
from levyfp.generators import DriftSpec, GeneratorSpec, LevyMeasureSpec, LocalDiffusionSpec
from levyfp.grids import Field, Grid
from levyfp.norms import weighted_seminorm
from levyfp.operators import StepSetup, divergence_of_flux, transport_flux
from levyfp.weights import WeightFunction

GRID = Grid(n=1024, half_width=16.0)

OU = GeneratorSpec(LocalDiffusionSpec.constant(1.0), LevyMeasureSpec.none(), DriftSpec.ou(1.0))
OU_FRAC = GeneratorSpec(
    LocalDiffusionSpec.constant(1.0), LevyMeasureSpec.fractional(1.5), DriftSpec.ou(1.0)
)
FRAC_ONLY = GeneratorSpec(
    LocalDiffusionSpec.constant(0.0), LevyMeasureSpec.fractional(1.5), DriftSpec.none()
)


# ---------------------------------------------------------------------------
# terminal data library


def test_profiles_live_on_the_grid():
    for xi in (tanh_profile(GRID), ramp_profile(GRID), smoothed_indicator(GRID),
               tapered_linear(GRID)):
        assert xi.values.shape == (GRID.n,)
        assert np.all(np.isfinite(xi.values))


def test_tapered_linear_is_x_inside_and_zero_at_seam():
    xi = tapered_linear(GRID)
    inner = np.abs(GRID.nodes) <= 0.65 * GRID.half_width
    assert np.array_equal(xi.values[inner], GRID.nodes[inner])
    seam = np.abs(GRID.nodes) >= 0.95 * GRID.half_width
    assert np.all(xi.values[seam] == 0.0)


# ---------------------------------------------------------------------------
# backward marching


@pytest.mark.parametrize("levy", [LevyMeasureSpec.fractional(1.5), LevyMeasureSpec.tempered(1.5)],
                         ids=["fractional", "tempered"])
def test_constant_terminal_datum_stays_constant(levy):
    spec = GeneratorSpec(LocalDiffusionSpec.constant(1.0), levy, DriftSpec.ou(1.0))
    xi = Field(grid=GRID, values=np.full(GRID.n, 0.7))
    run = solve_backward(xi, spec, s_final=0.1, dt=1e-3, record_every=25)
    for p in run.profiles:
        assert np.abs(p.values - 0.7).max() < 1e-12


def test_drift_free_fractional_is_exact_mode_wise():
    xi = tanh_profile(GRID)
    run = solve_backward(xi, FRAC_ONLY, s_final=0.5, dt=1e-3, record_every=10**9)
    want = np.real(
        np.fft.ifft(np.exp(-0.5 * GRID.wavenumber_magnitude**1.5) * np.fft.fft(xi.values))
    )
    assert np.abs(run.final.values - want).max() < 1e-11


def test_ou_linear_terminal_matches_exact_expectation():
    # E[X_{t-s} | X_s = x] = e^{-(t-s)} x for dX = -X dt; tapering keeps the
    # seam quiet, so compare on the interior half only; measured 5.7e-3
    run = solve_backward(tapered_linear(GRID), OU, s_final=0.5, dt=1e-3, record_every=10**9)
    band = np.abs(GRID.nodes) <= 0.5 * GRID.half_width
    gap = np.abs(run.final.values - np.exp(-0.5) * GRID.nodes)[band].max()
    assert gap < 1e-2


def test_backward_times_and_final_orientation():
    xi = tanh_profile(GRID)
    run = solve_backward(xi, OU, s_final=0.01, dt=1e-3, record_every=4)
    assert run.times[0] == 0.0
    assert run.times[-1] == pytest.approx(0.01)
    assert np.all(np.diff(run.times) > 0)
    assert run.final is run.profiles[-1]
    assert np.array_equal(run.profiles[0].values, xi.values)


def test_sup_norm_bounded_by_terminal():
    xi = tanh_profile(GRID)
    run = solve_backward(xi, OU_FRAC, s_final=1.0, dt=1e-3, record_every=20)
    assert np.all(run.sup_norm <= np.abs(xi.values).max() + 1e-9)


def test_comparison_principle_on_spectral_route():
    xi1 = tanh_profile(GRID)
    xi2 = Field(grid=GRID, values=xi1.values + 0.05 * (1.0 + np.cos(GRID.nodes)))
    u1 = solve_backward(xi1, OU_FRAC, s_final=0.5, dt=1e-3, record_every=10**9).final
    u2 = solve_backward(xi2, OU_FRAC, s_final=0.5, dt=1e-3, record_every=10**9).final
    assert np.max(u1.values - u2.values) <= 1e-8


def test_advection_step_is_exact_transpose_of_forward_flux():
    # the forward donor update and the backward advection are assembled from
    # the same face velocities; their matrices must be transposes bitwise.
    # The forward record holds Courant numbers of a stage of dt/2, so a
    # forward-Euler step of dt takes twice the difference of its flux
    g = Grid(n=64, half_width=4.0)
    spec = GeneratorSpec(LocalDiffusionSpec.constant(1.0), LevyMeasureSpec.none(), DriftSpec.ou(1.0))
    dt = 0.125 * g.dx
    stepper = _BackwardStepper([StepSetup(spec, g, dt)])
    faces = _run_stepper(spec, g, dt, "off").faces(0.0)  # the forward stepper's one-row record
    fwd = np.zeros((g.n, g.n))
    adj = np.zeros((g.n, g.n))
    for j in range(g.n):
        e = np.zeros((1, g.n))
        e[0, j] = 1.0
        (fwd[:, j],) = e - 2.0 * divergence_of_flux(transport_flux(e, faces, "off"))
        (adj[:, j],) = stepper._advect(e, dt)  # the backward step's advection of a one-row stack
    assert np.abs(adj - fwd.T).max() == 0.0


def test_tempered_backward_step_matches_unfused_node_loop():
    # reference: advection, an exact heat factor, then an explicit Euler
    # step of the per-node shell loop. The two jump stages differ by O(dt^2)
    # and by the quadrature error; on the smooth tapered profile that
    # measured 4.4e-7 of a step that moves the data by 2.4e-3
    spec = GeneratorSpec(
        LocalDiffusionSpec.constant(1.0), LevyMeasureSpec.tempered(1.5), DriftSpec.ou(1.0)
    )
    dt = 5e-4
    xi = tapered_linear(GRID)
    ref = _BackwardStepper([StepSetup(spec, GRID, dt)])
    heat = np.exp(-dt * spec.diffusion.lambda0 * GRID.wavenumber_magnitude**2)
    v = np.real(np.fft.ifft(heat * np.fft.fft(ref._advect(xi.values[None, :], dt)[0])))
    want = v + dt * levy_integral_field(Field(GRID, v), spec.levy).values
    got = solve_backward(xi, spec, s_final=dt, dt=dt).final.values
    assert np.abs(got - want).max() <= 2e-6 * np.abs(want).max()


# ---------------------------------------------------------------------------
# oscillation traces


def test_oscillation_of_constant_is_zero():
    xi = Field(grid=GRID, values=np.full(GRID.n, 2.0))
    run = solve_backward(xi, OU_FRAC, s_final=0.05, dt=1e-3, record_every=10)
    trace = oscillation_trace(run, WeightFunction.power(0.5))
    assert np.abs(trace).max() < 1e-12


def test_oscillation_trace_is_shift_invariant():
    g = Grid(n=256, half_width=16.0)
    spec = GeneratorSpec(
        LocalDiffusionSpec.constant(1.0), LevyMeasureSpec.fractional(1.5), DriftSpec.ou(1.0)
    )
    xi = tanh_profile(g)
    shifted = Field(grid=g, values=xi.values + 3.0)
    w = WeightFunction.power(0.5)
    ta = oscillation_trace(solve_backward(xi, spec, s_final=0.5, dt=2e-3, record_every=50), w)
    tb = oscillation_trace(solve_backward(shifted, spec, s_final=0.5, dt=2e-3, record_every=50), w)
    assert np.abs(ta - tb).max() < 1e-12


def test_oscillation_trace_is_the_per_profile_seminorm():
    # the trace evaluates each weight on the nodes once, and every entry is
    # the bits of the profile's own weighted_seminorm; an exponential weight
    # that overflows at the box ends takes the seminorm's finite-part rule
    g = Grid(n=256, half_width=16.0)
    run = solve_backward(tanh_profile(g), OU_FRAC, s_final=0.2, dt=2e-3, record_every=10)
    with np.errstate(over="ignore"):
        assert not np.isfinite(WeightFunction.exponential(50.0, 1.0)(g.nodes)).all()
    for w in (WeightFunction.power(0.5), WeightFunction.power(1.0), WeightFunction.exponential(50.0, 1.0)):
        calls = []
        counted = dataclasses.replace(w, profile=lambda s, w=w: calls.append(s.size) or w.profile(s))
        with np.errstate(over="ignore"):
            trace = oscillation_trace(run, counted)
            expected = np.array([weighted_seminorm(p, w) for p in run.profiles])
        assert calls == [g.n]
        assert len(trace) == len(run.profiles) == 11 and trace[0] > 0.0
        assert np.array_equal(trace, expected)


def test_oscillation_heavier_weight_dominates():
    # <x>^1 >= <x>^0.5 node-wise, so the k = 1 seminorm can only be smaller
    g = Grid(n=256, half_width=16.0)
    spec = GeneratorSpec(
        LocalDiffusionSpec.constant(1.0), LevyMeasureSpec.fractional(1.5), DriftSpec.ou(1.0)
    )
    run = solve_backward(tanh_profile(g), spec, s_final=0.5, dt=2e-3, record_every=50)
    t_half = oscillation_trace(run, WeightFunction.power(0.5))
    t_one = oscillation_trace(run, WeightFunction.power(1.0))
    assert np.all(t_one <= t_half + 1e-15)


def test_oscillation_eventually_decreasing_under_confinement():
    run = solve_backward(tanh_profile(GRID), OU_FRAC, s_final=3.0, dt=1e-3, record_every=50)
    trace = oscillation_trace(run, WeightFunction.power(0.5))
    tail = trace[run.times >= 0.5]
    assert np.all(np.diff(tail) <= 1e-10)
    assert trace[-1] < 0.2 * trace[0]


# ---------------------------------------------------------------------------
# duality against the forward solver


def test_duality_constant_terminal_is_mass_identity():
    fw = solve(gaussian(GRID), OU_FRAC, t_final=0.5, dt=1e-3, limiter="off",
               eps_boundary=0.05, record_every=10**9)
    rep = duality_residual(fw, Field(grid=GRID, values=np.ones(GRID.n)))
    assert rep.normalized < 1e-12


def test_duality_drift_free_fractional_is_exact():
    fw = solve(gaussian(GRID), FRAC_ONLY, t_final=0.5, dt=1e-3, eps_boundary=0.05,
               record_every=10**9)
    rep = duality_residual(fw, tanh_profile(GRID))
    assert rep.normalized < 1e-8


def test_duality_residual_first_order_in_dt():
    # splitting-order mismatch between the two solvers is the only gap left;
    # measured 1.3e-7 then ratio 0.445 under halving
    reps = []
    for dt in (1e-3, 5e-4):
        fw = solve(gaussian(GRID), OU_FRAC, t_final=2.0, dt=dt, limiter="off",
                   eps_boundary=0.05, record_every=10**9)
        reps.append(duality_residual(fw, tanh_profile(GRID)))
    assert reps[0].normalized < 5e-3
    ratio = reps[1].normalized / reps[0].normalized
    assert 0.3 < ratio < 0.7
    assert reps[0].n_steps == 2000


def test_duality_rejects_grid_mismatch():
    fw = solve(gaussian(GRID), OU, t_final=0.01, dt=1e-3)
    other = tanh_profile(Grid(n=512, half_width=16.0))
    with pytest.raises(ValueError, match="grid"):
        duality_residual(fw, other)


# ---------------------------------------------------------------------------
# failure paths


def test_backward_cfl_violation_detected():
    with pytest.raises(NumericalFailure, match="CFL violation in adjoint"):
        solve_backward(tanh_profile(GRID), OU, s_final=0.1, dt=5e-3)


def test_backward_cfl_bound_covers_run_times():
    # |b| = (1 + t)|x| is checked at the forward times the run steps through:
    # within the bound for t <= 0.01, broken once 1 + t > 0.95 / (1e-3 * 16 * 32)
    drift = DriftSpec(alpha=1.0, gamma=2.0, steady=np.zeros_like, wave=lambda t, x: (1.0 + t) * x)
    spec = GeneratorSpec(LocalDiffusionSpec.constant(1.0), LevyMeasureSpec.none(), drift)
    assert 1e-3 * 1.01 * GRID.half_width < 0.95 * GRID.dx < 1e-3 * 2.0 * GRID.half_width
    run = solve_backward(tanh_profile(GRID), spec, s_final=0.01, dt=1e-3)
    assert np.all(np.isfinite(run.final.values))
    with pytest.raises(NumericalFailure, match="CFL violation in adjoint advection at t=1:"):
        solve_backward(tanh_profile(GRID), spec, s_final=1.0, dt=1e-3)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.inf, np.nan, 1e13])
@pytest.mark.parametrize("record_every, message, raised_after",
                         [(1, "backward run blew up at s=0.03", 3), (4, "backward run blew up at s=0.04", 4)])
def test_backward_blow_up_is_raised_at_the_first_record_after_it(monkeypatch, bad, record_every, message,
                                                                 raised_after):
    # as on the forward clock: checked at records, so raised at step 3 or 4
    steps = []
    clean = _BackwardStepper.step

    def poisoned(self, v, t):
        steps.append(t)
        out = clean(self, v, t).copy()
        if len(steps) == 3:
            out[0, 40] = bad
        return out

    monkeypatch.setattr(_BackwardStepper, "step", poisoned)
    g = Grid(128, 8.0)
    with pytest.raises(NumericalFailure) as info:
        solve_backward(tanh_profile(g), OU, s_final=0.1, dt=0.01, record_every=record_every)
    assert str(info.value) == message
    assert len(steps) == raised_after


@pytest.mark.parametrize("drift", [DriftSpec.ou(1.0), DriftSpec.perturbed_power(1.0, 2.0, 0.5)],
                         ids=["ou", "perturbed-power"])
def test_backward_records_do_not_depend_on_the_stride(drift):
    # the march steps through every step whatever it records, so the
    # profiles and sup norms at the s two strides share are the same bits;
    # the moving drift is read at forward time s_final - s on every stride
    g = Grid(n=128, half_width=4.0)
    spec = GeneratorSpec(LocalDiffusionSpec.constant(1.0), LevyMeasureSpec.fractional(1.5), drift)
    n_steps, dt = 21, 1e-3
    runs = {stride: solve_backward(tanh_profile(g), spec, s_final=n_steps * dt, dt=dt, record_every=stride)
            for stride in (1, 7, n_steps)}
    every = runs[1]
    assert list(every.times) == [k * dt for k in range(n_steps + 1)]
    for stride in (7, n_steps):
        run = runs[stride]
        steps = list(range(0, n_steps + 1, stride))
        assert list(run.times) == [every.times[k] for k in steps]
        for j, k in enumerate(steps):
            assert np.array_equal(run.profiles[j].values, every.profiles[k].values)
            assert run.sup_norm[j] == every.sup_norm[k]


def test_backward_horizon_must_be_step_multiple():
    with pytest.raises(ValueError, match="integer number of steps"):
        solve_backward(tanh_profile(GRID), OU, s_final=0.0015, dt=1e-3)


def test_time_dependent_drift_runs_without_a_horizon():
    g = Grid(n=128, half_width=4.0)
    spec = GeneratorSpec(
        LocalDiffusionSpec.constant(1.0),
        LevyMeasureSpec.none(),
        DriftSpec.perturbed_power(1.0, 2.0, 0.5),
    )
    run = solve_backward(tanh_profile(g), spec, s_final=0.005, dt=1e-3)
    assert np.all(np.isfinite(run.final.values))


def test_backward_clock_reverses_at_s_final(monkeypatch):
    # step k (from 0) reads the drift at forward time s_final - k dt
    read = []
    evaluate = StepSetup.moving_w

    def spy(self, t):
        read.append(t)
        return evaluate(self, t)

    monkeypatch.setattr(StepSetup, "moving_w", spy)
    g = Grid(n=128, half_width=4.0)
    spec = GeneratorSpec(LocalDiffusionSpec.constant(1.0), LevyMeasureSpec.none(),
                         DriftSpec.perturbed_power(1.0, 2.0, 0.5))
    s_final, dt = 0.007, 1e-3
    solve_backward(tanh_profile(g), spec, s_final=s_final, dt=dt, record_every=3)
    assert read == [s_final - k * dt for k in range(7)]
