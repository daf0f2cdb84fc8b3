"""Forward solver: semigroup oracles, conservation invariants, failure paths."""
import numpy as np
import pytest

from levyfp import operators
from levyfp.forward import (
    NumericalFailure,
    _Stepper,
    gaussian,
    gaussian_difference,
    smooth_bump,
    solve,
    stationary_solve,
)
from levyfp.generators import DriftSpec, GeneratorSpec, LevyMeasureSpec, LocalDiffusionSpec
from levyfp.grids import DensityField, Grid
from levyfp.norms import weighted_tv_norm
from levyfp.operators import levy_integral_field
from levyfp.weights import WeightFunction

GRID = Grid(n=1024, half_width=16.0)


def ou_spec(lambda0: float = 1.0) -> GeneratorSpec:
    return GeneratorSpec(
        LocalDiffusionSpec.constant(lambda0), LevyMeasureSpec.none(), DriftSpec.ou(1.0)
    )


def ou_frac_spec() -> GeneratorSpec:
    return GeneratorSpec(
        LocalDiffusionSpec.constant(1.0), LevyMeasureSpec.fractional(1.5), DriftSpec.ou(1.0)
    )


def tempered_ou_spec() -> GeneratorSpec:
    return GeneratorSpec(
        LocalDiffusionSpec.constant(1.0), LevyMeasureSpec.tempered(1.5), DriftSpec.ou(1.0)
    )


def drift_free(sigma: float) -> GeneratorSpec:
    return GeneratorSpec(
        LocalDiffusionSpec.constant(0.0), LevyMeasureSpec.fractional(sigma), DriftSpec.none()
    )


# ---------------------------------------------------------------------------
# initial data


def test_gaussian_has_unit_mass_on_grid():
    m = gaussian(GRID, std=2.0)
    assert abs(m.values.sum() * GRID.cell_volume - 1.0) < 1e-13
    assert m.values.min() > 0.0


def test_gaussian_rejects_nonpositive_std():
    with pytest.raises(ValueError, match="std"):
        gaussian(GRID, std=0.0)


def test_gaussian_difference_has_zero_mass():
    m = gaussian_difference(GRID, center1=-1.0, std1=1.0, center2=1.0, std2=1.0)
    assert abs(m.values.sum() * GRID.cell_volume) < 1e-13


def test_bump_mass_and_support():
    m = smooth_bump(GRID, center=2.0, width=1.5)
    assert abs(m.values.sum() * GRID.cell_volume - 1.0) < 1e-13
    outside = np.abs(GRID.nodes - 2.0) >= 1.5
    assert np.all(m.values[outside] == 0.0)


def test_bump_rejects_empty_support():
    # support narrower than a cell, centered between nodes
    with pytest.raises(ValueError, match="support"):
        smooth_bump(GRID, center=0.5 * GRID.dx, width=0.25 * GRID.dx)
    with pytest.raises(ValueError, match="width"):
        smooth_bump(GRID, width=-1.0)


# ---------------------------------------------------------------------------
# single steps


def test_single_step_is_exact_fractional_semigroup():
    # b = 0, lambda0 = 0: the whole Strang step collapses to the Fourier
    # multiplier, so one step must reproduce it to rounding
    m0 = gaussian(GRID)
    out = _Stepper(drift_free(1.5), GRID, 0.1, "mc", "auto").step(m0.values, 0.0)
    want = np.real(
        np.fft.ifft(np.exp(-0.1 * GRID.wavenumber_magnitude**1.5) * np.fft.fft(m0.values))
    )
    assert np.abs(out - want).max() < 1e-12


@pytest.mark.parametrize("route", ["spectral", "quadrature"])
def test_step_conserves_mass(route):
    stepper = _Stepper(ou_frac_spec(), GRID, 1e-3, "mc", route)
    m = gaussian(GRID).values
    prev = m.sum() * GRID.cell_volume
    for k in range(5):
        m = stepper.step(m, k * 1e-3)
        mass = m.sum() * GRID.cell_volume
        assert abs(mass - prev) < 1e-12
        prev = mass


def test_quadrature_route_mass_drift_over_many_steps():
    # the fused jump factor is exactly 1 at k = 0, so mass telescopes
    run = solve(gaussian(GRID), tempered_ou_spec(), t_final=1.0, dt=5e-4, record_every=100)
    assert len(run.mass) == 21
    assert np.abs(run.mass - run.mass[0]).max() <= 1e-12


def test_quadrature_strang_step_matches_unfused_node_loop():
    # reference: the diffusion stage as an exact heat factor followed by an
    # explicit Euler step of the per-node shell loop
    spec = tempered_ou_spec()
    dt = 5e-4
    m0 = gaussian_difference(GRID, -1.0, 1.0, 1.0, 1.0)
    ref = _Stepper(spec, GRID, dt, "mc", "auto")
    heat = np.exp(-dt * spec.diffusion.lambda0 * GRID.wavenumber_magnitude**2)

    def unfused_stage(m):
        out = np.real(np.fft.ifft(heat * np.fft.fft(m)))
        return out + dt * levy_integral_field(DensityField(GRID, out), spec.levy).values

    want = ref._transport_half(unfused_stage(ref._transport_half(m0.values, 0.0)), 0.5 * dt)
    got = _Stepper(spec, GRID, dt, "mc", "auto").step(m0.values, 0.0)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_ou_variance_matches_closed_form():
    # v' = 2 - 2v from v(0) = 4, so v(1) = 1 + 3 e^{-2}; measured 2.1e-4
    fw = solve(gaussian(GRID, std=2.0), ou_spec(), t_final=1.0, dt=1e-3, record_every=10**9)
    var = float(np.sum(GRID.nodes**2 * fw.final.values) * GRID.cell_volume)
    assert abs(var - (1.0 + 3.0 * np.exp(-2.0))) < 1e-3


# ---------------------------------------------------------------------------
# full runs


def test_recorded_times_strictly_increasing():
    fw = solve(gaussian(GRID), ou_spec(), t_final=0.02, dt=1e-3, record_every=4)
    assert fw.times[0] == 0.0
    assert fw.times[-1] == pytest.approx(0.02)
    assert np.all(np.diff(fw.times) > 0)


def test_zero_average_run_decays_and_keeps_zero_mass():
    m0 = gaussian_difference(GRID, center1=-1.0, std1=1.0, center2=1.0, std2=1.0)
    fw = solve(
        m0,
        ou_spec(),
        t_final=6.0,
        dt=2e-3,
        record_every=125,
        record_weights={"m0": WeightFunction.power(0.0)},
        eps_boundary=0.05,
    )
    assert np.abs(fw.mass).max() < 1e-13
    series = fw.norm_series("m0")
    late = series[fw.times >= 1.0]
    assert np.all(np.diff(late) <= 1e-12)
    assert series[-1] < 0.05 * series[0]


def test_probability_mass_series_stays_one():
    spec = GeneratorSpec(
        LocalDiffusionSpec.constant(1.0), LevyMeasureSpec.tempered(1.5), DriftSpec.ou(1.0)
    )
    fw = solve(smooth_bump(GRID, width=2.0), spec, t_final=0.5, dt=1e-3, record_every=50)
    assert np.abs(fw.mass - 1.0).max() < 1e-9


def test_pure_fractional_matches_exact_kernel():
    # sigma = 1: every step is the exact multiplier, so t = 1 must match the
    # closed-form kernel; this guards the composition and recording plumbing
    m0 = gaussian(GRID)
    fw = solve(m0, drift_free(1.0), t_final=1.0, dt=0.01, eps_boundary=0.05, record_every=10**9)
    want = np.real(np.fft.ifft(np.exp(-GRID.wavenumber_magnitude) * np.fft.fft(m0.values)))
    assert np.abs(fw.final.values - want).max() < 1e-8


@pytest.mark.parametrize("limiter", ["fromm", "off"])
def test_solve_is_linear_with_linear_limiters(limiter):
    ma = gaussian(GRID, center=-1.0, std=0.7)
    mb = gaussian(GRID, center=1.5, std=1.2)
    combo = ma.with_values(0.3 * ma.values - 1.1 * mb.values)
    kw = dict(t_final=0.2, dt=1e-3, limiter=limiter, eps_boundary=0.05, record_every=10**9)
    ra = solve(ma, ou_frac_spec(), **kw)
    rb = solve(mb, ou_frac_spec(), **kw)
    rc = solve(combo, ou_frac_spec(), **kw)
    gap = np.abs(rc.final.values - (0.3 * ra.final.values - 1.1 * rb.final.values)).max()
    assert gap < 1e-9


def test_positivity_from_sharp_bump():
    fw = solve(smooth_bump(GRID, width=2.0), ou_frac_spec(), t_final=1.0, dt=1e-3,
               record_every=25, eps_boundary=0.05)
    floor = -1e-8 * np.abs(fw.final.values).max()
    assert fw.min_value.min() >= floor


def test_snapshots_match_repeated_single_steps():
    m0 = gaussian(GRID)
    fw = solve(m0, ou_frac_spec(), t_final=0.004, dt=1e-3, record_every=10**9,
               eps_boundary=0.05, snapshot_times=(0.002,))
    assert len(fw.snapshots) == 1
    stepper = _Stepper(ou_frac_spec(), GRID, 1e-3, "mc", "auto")
    manual = stepper.step(stepper.step(m0.values, 0.0), 1e-3)
    assert np.array_equal(fw.snapshots[0].values, manual)


def test_pairings_recorded_against_static_function():
    m0 = gaussian(GRID)
    phi = GRID.nodes**2
    fw = solve(m0, ou_spec(), t_final=0.01, dt=1e-3, pair_with=phi)
    assert fw.pairings is not None and len(fw.pairings) == len(fw.times)
    assert fw.pairings[0] == pytest.approx(float(np.sum(phi * m0.values) * GRID.cell_volume))


def test_norm_series_accessor_matches_direct_norm():
    m0 = gaussian(GRID)
    w = WeightFunction.power(0.5)
    fw = solve(m0, ou_spec(), t_final=0.01, dt=1e-3, record_weights={"mk": w})
    assert fw.norm_series("mk")[0] == pytest.approx(weighted_tv_norm(m0, w))


# ---------------------------------------------------------------------------
# failure paths


def test_cfl_violation_reports_allowed_dt():
    with pytest.raises(NumericalFailure, match="CFL violation.*exceeds"):
        solve(gaussian(GRID), ou_spec(), t_final=1.0, dt=0.01)


def test_cfl_bound_covers_times_past_ten():
    # b = (1 + t) x breaks 0.5 dt max|w| <= 0.95 dx only once t > 11.06
    g = Grid(n=64, half_width=4.0)
    drift = DriftSpec(kind="growing-ou", alpha=1.0, gamma=2.0, R=0.0, time_dependent=True,
                      fn=lambda t, x: (1.0 + t) * np.asarray(x, dtype=float))
    spec = GeneratorSpec(LocalDiffusionSpec.constant(1.0), LevyMeasureSpec.none(), drift)
    m0 = gaussian(g, std=0.5)
    run = solve(m0, spec, t_final=11.0, dt=5e-3, record_every=10**9)
    assert np.all(np.isfinite(run.final.values))
    with pytest.raises(NumericalFailure, match=r"CFL violation at t=11\.06\d*: dt=0\.005 exceeds"):
        solve(m0, spec, t_final=12.0, dt=5e-3, record_every=10**9)


def test_moving_faces_evaluated_once_per_distinct_time(monkeypatch):
    # a Strang step asks for faces at t, t + dt/2, t + dt/2 and t + dt; the
    # second t + dt/2 is served from the last faces, so at most 3 of the 4
    # evaluations per step remain, and the trajectory does not move
    spec = GeneratorSpec(LocalDiffusionSpec.constant(0.5), LevyMeasureSpec.fractional(1.5),
                         DriftSpec.perturbed_power(1.0, 1.5, 0.3))
    m0 = gaussian(GRID, std=1.0)
    weights = {"pow0.5": WeightFunction.power(0.5)}
    calls = []
    evaluate = operators.face_velocities

    def spy(grid, drift, t):
        calls.append(t)
        return evaluate(grid, drift, t)

    monkeypatch.setattr(operators, "face_velocities", spy)
    run = solve(m0, spec, t_final=0.1, dt=1e-2, record_weights=weights, eps_boundary=0.05)
    memo_calls = list(calls)
    assert len(memo_calls) <= 3 * 10
    assert len(memo_calls) == len(set(memo_calls))

    def faces_unmemoized(self, t):
        w = operators.face_velocities(self.grid, self.spec.drift, t)
        self._check_cfl(w, t)
        return w

    calls.clear()
    monkeypatch.setattr(operators.StepSetup, "faces", faces_unmemoized)
    oracle = solve(m0, spec, t_final=0.1, dt=1e-2, record_weights=weights, eps_boundary=0.05)
    assert len(calls) == 4 * 10
    assert set(calls) == set(memo_calls)
    assert np.array_equal(run.final.values, oracle.final.values)
    assert np.array_equal(run.weighted_norms["pow0.5"], oracle.weighted_norms["pow0.5"])


def test_explicit_jump_term_instability_detected():
    spec = GeneratorSpec(
        LocalDiffusionSpec.constant(0.0), LevyMeasureSpec.tempered(1.5), DriftSpec.none()
    )
    with pytest.raises(NumericalFailure, match="jump term unstable.*reduce dt"):
        solve(gaussian(GRID), spec, t_final=0.5, dt=0.5)


def test_variable_diffusion_instability_detected():
    spec = GeneratorSpec(
        LocalDiffusionSpec.tanh_variable(1.0, 0.5), LevyMeasureSpec.none(), DriftSpec.ou(1.0)
    )
    with pytest.raises(NumericalFailure, match="variable diffusion unstable"):
        solve(gaussian(GRID), spec, t_final=2e-3, dt=2e-3)


def test_horizon_must_be_step_multiple():
    with pytest.raises(ValueError, match="integer number of steps"):
        solve(gaussian(GRID), ou_spec(), t_final=0.0015, dt=1e-3)


def test_nonpositive_dt_rejected():
    with pytest.raises(ValueError, match="dt"):
        solve(gaussian(GRID), ou_spec(), t_final=0.0, dt=0.0)


def test_boundary_breach_names_first_offending_time():
    # sigma = 1 tails carry real mass to the seam; a tight budget must fail
    # with the time of first breach, not at the end of the run
    with pytest.raises(NumericalFailure, match=r"boundary mass.*at t="):
        solve(gaussian(GRID), drift_free(1.0), t_final=1.0, dt=0.01, eps_boundary=1e-4)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.inf, np.nan, 1e13])
@pytest.mark.parametrize("record_every, message, raised_after",
                         [(1, "forward run blew up at t=0.03", 3), (4, "forward run blew up at t=0.04", 4)])
def test_blow_up_is_raised_at_the_first_record_after_it(monkeypatch, bad, record_every, message,
                                                        raised_after):
    # step 3 writes one bad value; blow-up is checked at records, so it is
    # raised at step 3 when every step is recorded and at step 4 otherwise
    steps = []
    clean = _Stepper.step

    def poisoned(self, m, t):
        steps.append(t)
        out = clean(self, m, t).copy()
        if len(steps) == 3:
            out[40] = bad
        return out

    monkeypatch.setattr(_Stepper, "step", poisoned)
    g = Grid(128, 8.0)
    with pytest.raises(NumericalFailure) as info:
        solve(gaussian(g), ou_spec(), t_final=0.1, dt=0.01, record_every=record_every, eps_boundary=0.05)
    assert str(info.value) == message
    assert len(steps) == raised_after


# ---------------------------------------------------------------------------
# stationary profiles


@pytest.fixture(scope="module")
def ou_stationary():
    return stationary_solve(ou_spec(), GRID, dt=2e-3)


def test_stationary_ou_is_standard_gaussian(ou_stationary):
    # fixed point of v' = 2 - 2v is v = 1; measured sup gap 2.5e-5
    st, _ = ou_stationary
    ref = np.exp(-0.5 * GRID.nodes**2)
    ref /= ref.sum() * GRID.cell_volume
    assert np.abs(st.values - ref).max() < 1e-4


def test_stationary_mass_is_exactly_normalized(ou_stationary):
    st, _ = ou_stationary
    assert abs(st.values.sum() * GRID.cell_volume - 1.0) < 1e-10


def test_stationary_reports_convergence_time(ou_stationary):
    _, info = ou_stationary
    assert info["tv_increment"] < 1e-8
    assert 0.0 < info["t_converged"] < 400.0


def test_stationary_fractional_transform():
    # |xi|^sigma mhat = -xi mhat' integrates to mhat = e^{-|xi|^sigma/sigma};
    # measured 3.6e-3 on the checked band
    g = Grid(n=1024, half_width=32.0)
    spec = GeneratorSpec(
        LocalDiffusionSpec.constant(0.0), LevyMeasureSpec.fractional(1.5), DriftSpec.ou(1.0)
    )
    st, _ = stationary_solve(spec, g, dt=2e-3, eps_boundary=0.1)
    mhat = np.abs(np.fft.fft(st.values)) * g.dx
    xi = g.wavenumber_magnitude
    band = xi <= 8.0
    gap = np.abs(mhat - np.exp(-(xi**1.5) / 1.5))[band].max()
    assert gap < 1e-2


def test_stationary_rejects_time_dependent_drift():
    spec = GeneratorSpec(
        LocalDiffusionSpec.constant(1.0),
        LevyMeasureSpec.none(),
        DriftSpec.perturbed_power(1.0, 2.0, 0.5),
    )
    with pytest.raises(ValueError, match="time-independent"):
        stationary_solve(spec, GRID, dt=1e-4)


def test_stationary_nonconvergence_raises():
    g = Grid(n=256, half_width=16.0)
    with pytest.raises(NumericalFailure, match="no stationary profile"):
        stationary_solve(ou_spec(), g, dt=5e-3, tol=1e-15, max_time=2.0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.inf, np.nan, 1e13])
def test_stationary_blow_up_is_raised_at_the_first_block_end(monkeypatch, bad):
    # step 3 writes one bad value; with check_interval 1 and dt 0.01 the first
    # block ends at step 100, not at max_time (500 steps)
    steps = []
    clean = _Stepper.step

    def poisoned(self, m, t):
        steps.append(t)
        out = clean(self, m, t).copy()
        if len(steps) == 3:
            out[40] = bad
        return out

    monkeypatch.setattr(_Stepper, "step", poisoned)
    with pytest.raises(NumericalFailure) as info:
        stationary_solve(ou_spec(), Grid(64, 8.0), dt=0.01, max_time=5.0)
    assert str(info.value) == "forward run blew up at t=1"
    assert len(steps) == 100


def test_stationary_clock_is_a_step_count(monkeypatch):
    # t = k * dt: 500 steps reach max_time=5 at dt=0.01, where summing dt
    # 500 times falls short of 5 and ran a sixth block
    steps = []
    clean = _Stepper.step

    def counted(self, m, t):
        steps.append(t)
        return clean(self, m, t)

    monkeypatch.setattr(_Stepper, "step", counted)
    with pytest.raises(NumericalFailure, match="no stationary profile within t=5"):
        stationary_solve(ou_spec(), Grid(64, 8.0), dt=0.01, tol=0.0, max_time=5.0)
    assert steps == [k * 0.01 for k in range(500)]
