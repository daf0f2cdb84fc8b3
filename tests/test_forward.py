"""Forward solver: semigroup oracles, conservation invariants, failure paths."""
import dataclasses
import gc

import numpy as np
import pytest
from quadrature_oracle import levy_integral_field
from record_oracle import solve_stack_per_row, weighted_tv_norm_per_field
from strang_oracle import strang_step_retired

from levyfp import forward, generators
from levyfp.adjoint import solve_backward, tanh_profile
from levyfp.forward import (
    NumericalFailure,
    _run_stepper,
    _Stepper,
    gaussian,
    gaussian_difference,
    smooth_bump,
    solve,
    solve_stack,
    stationary_solve,
)
from levyfp.generators import DriftSpec, GeneratorSpec, LevyMeasureSpec, LocalDiffusionSpec
from levyfp.grids import Field, Grid
from levyfp.norms import weighted_tv_norm
from levyfp.operators import RunGuard, StepSetup
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
    assert abs(m.values.sum() * GRID.dx - 1.0) < 1e-13
    assert m.values.min() > 0.0


def test_gaussian_rejects_nonpositive_std():
    with pytest.raises(ValueError, match="std"):
        gaussian(GRID, std=0.0)


def test_gaussian_difference_has_zero_mass():
    m = gaussian_difference(GRID, center1=-1.0, std1=1.0, center2=1.0, std2=1.0)
    assert abs(m.values.sum() * GRID.dx) < 1e-13


def test_bump_mass_and_support():
    m = smooth_bump(GRID, center=2.0, width=1.5)
    assert abs(m.values.sum() * GRID.dx - 1.0) < 1e-13
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
    # b = 0, lambda0 = 0: the whole Strang step, opened and closed, collapses
    # to the Fourier multiplier, so one step must reproduce it to rounding
    m0 = gaussian(GRID)
    stepper = _run_stepper(drift_free(1.5), GRID, 0.1, "mc")
    (out,) = stepper.close(stepper.step(m0.values[None, :], 0.0, 0.1), 0.1)
    want = np.real(
        np.fft.ifft(np.exp(-0.1 * GRID.wavenumber_magnitude**1.5) * np.fft.fft(m0.values))
    )
    assert np.abs(out - want).max() < 1e-12


@pytest.mark.parametrize("spec", [ou_frac_spec(), tempered_ou_spec()], ids=["fractional", "tempered"])
def test_step_conserves_mass(spec):
    stepper = _run_stepper(spec, GRID, 1e-3, "mc")
    m = gaussian(GRID).values[None, :]
    prev = m.sum() * GRID.dx
    for k in range(5):
        m = stepper.step(m, k * 1e-3, (k + 1) * 1e-3)
        mass = m.sum() * GRID.dx
        assert abs(mass - prev) < 1e-12
        prev = mass


def test_tempered_mass_drift_over_many_steps():
    # the tempered factor is exactly 1 at k = 0, so mass telescopes
    run = solve(gaussian(GRID), tempered_ou_spec(), t_final=1.0, dt=5e-4, record_every=100)
    assert len(run.mass) == 21
    assert np.abs(run.mass - run.mass[0]).max() <= 1e-12


def test_tempered_strang_step_matches_unfused_node_loop():
    # reference: the diffusion stage as an exact heat factor followed by an
    # explicit Euler step of the per-node shell loop. The two jump stages
    # differ by O(dt^2) and by the quadrature error; measured 1.4e-7 of a
    # step that moves the data by 5.7e-4
    spec = tempered_ou_spec()
    dt = 5e-4
    m0 = gaussian_difference(GRID, -1.0, 1.0, 1.0, 1.0)
    ref = _run_stepper(spec, GRID, dt, "mc")
    heat = np.exp(-dt * spec.diffusion.lambda0 * GRID.wavenumber_magnitude**2)

    def unfused_stage(m):
        (out,) = np.real(np.fft.ifft(heat * np.fft.fft(m)))
        return (out + dt * levy_integral_field(Field(GRID, out), spec.levy).values)[None, :]

    m = m0.values[None, :]
    want = ref._transport_half(unfused_stage(ref._transport_half(m, 0.0, 0.5 * dt)), 0.5 * dt, dt)
    got = ref.close(ref.step(m, 0.0, dt), dt)
    assert np.abs(got - want).max() <= 1e-6 * np.abs(want).max()


def test_merged_march_keeps_the_law_of_whole_strang_steps():
    # the merged halves T(dt/2) D T(dt) D ... T(dt/2) against the retired
    # loop of whole steps T(dt/2) D T(dt/2), on AC-5's sweep stack (power
    # drifts, local and fractional jumps) over 25 steps of 4e-3: the two
    # differ only in how the middle transport is split. Measured worst L1
    # gap 3.2e-7 (mc) and 2.7e-7 (off)
    g = Grid(256, 12.0)
    specs = [GeneratorSpec(LocalDiffusionSpec.constant(1.0),
                           LevyMeasureSpec.none() if sigma == 2.0 else LevyMeasureSpec.fractional(sigma),
                           DriftSpec.power(1.0, gamma))
             for gamma in (1.2, 1.5, 1.8) for sigma in (2.0, 1.5)]
    m0 = gaussian_difference(g, 0.0, 1.0, 0.0, 2.0)
    for limiter in ("mc", "off"):
        runs = solve_stack(m0, specs, 0.1, 4e-3, limiter, eps_boundary=1.0, record_every=25)
        retired = _Stepper([StepSetup(spec, g, 4e-3, substep=0.5) for spec in specs], limiter)
        m = np.repeat(m0.values[None, :], len(specs), axis=0)
        for k in range(25):
            m = strang_step_retired(retired, m, k * 4e-3, (k + 1) * 4e-3)
        for run, want in zip(runs, m):
            assert np.sum(np.abs(run.final.values - want)) * g.dx <= 1e-6


def test_forward_rung_is_second_order():
    # the forward rung of the verification ladder: local OU from a std-2
    # Gaussian, whose law stays Gaussian with variance 1 + 3 e^{-2t}, to t=1
    # on [-12, 12), refining (N, dt) together. Measured L1 errors 1.756e-3,
    # 4.353e-4, 1.086e-4 and 2.712e-5: orders 2.01, 2.00, 2.00
    var = 1.0 + 3.0 * np.exp(-2.0)
    errors = []
    for n, dt in ((128, 8e-3), (256, 4e-3), (512, 2e-3), (1024, 1e-3)):
        g = Grid(n, 12.0)
        fw = solve(gaussian(g, std=2.0), ou_spec(), t_final=1.0, dt=dt, record_every=10**9)
        exact = np.exp(-0.5 * g.nodes**2 / var) / np.sqrt(2.0 * np.pi * var)
        errors.append(np.sum(np.abs(fw.final.values - exact)) * g.dx)
    orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    assert np.all(orders[-2:] >= 1.8), orders


def test_ou_variance_matches_closed_form():
    # v' = 2 - 2v from v(0) = 4, so v(1) = 1 + 3 e^{-2}; measured 2.1e-4
    fw = solve(gaussian(GRID, std=2.0), ou_spec(), t_final=1.0, dt=1e-3, record_every=10**9)
    var = float(np.sum(GRID.nodes**2 * fw.final.values) * GRID.dx)
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
    series = fw.weighted_norms["m0"]
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


@pytest.mark.parametrize("limiter", ["off"])
def test_solve_is_linear_with_linear_limiters(limiter):
    ma = gaussian(GRID, center=-1.0, std=0.7)
    mb = gaussian(GRID, center=1.5, std=1.2)
    combo = Field(GRID, 0.3 * ma.values - 1.1 * mb.values)
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
    stepper = _run_stepper(ou_frac_spec(), GRID, 1e-3, "mc")
    (manual,) = stepper.close(stepper.step(stepper.step(m0.values[None, :], 0.0, 1e-3), 1e-3, 2e-3), 2e-3)
    assert np.array_equal(fw.snapshots[0].values, manual)


def test_solve_runs_from_the_initial_time_to_t_final():
    # every run starts at t = 0 and t_final is its end time; data tagged with
    # a later time is refused, not restamped
    g = Grid(n=64, half_width=8.0)
    kw = dict(t_final=1.0, dt=0.05, record_every=5, eps_boundary=0.05, snapshot_times=(0.75,))
    fw = solve(gaussian(g), ou_spec(), **kw)
    np.testing.assert_allclose(fw.times, [0.0, 0.25, 0.5, 0.75, 1.0], rtol=0, atol=1e-12)
    assert fw.final.t == pytest.approx(1.0, abs=1e-12)
    assert [snap.t for snap in fw.snapshots] == pytest.approx([0.75], abs=1e-12)
    with pytest.raises(ValueError, match=r"starts at t = 0, got initial data at t=0\.5"):
        solve(Field(g, gaussian(g).values, 0.5), ou_spec(), **kw)


@pytest.mark.parametrize("limiter", ["mc", "off"])
@pytest.mark.parametrize("moving", [False, True], ids=["static", "perturbed-power"])
def test_records_do_not_depend_on_the_stride(monkeypatch, limiter, moving):
    # a record closes the split on a copy and the march goes on from the
    # open state, so every record step shared by two strides reads the same
    # bits. The steady part is evaluated once per run, at setup; a moving
    # drift builds 2 face arrays per step and the end time's at every
    # stride: the two-time memo serves each close and the step after it
    g = Grid(128, 8.0)
    drift = DriftSpec.perturbed_power(1.0, 1.5, 0.3) if moving else DriftSpec.power(1.0, 1.5)
    steadies, evaluate_steady = [], drift.steady

    def steady(x):
        steadies.append(x)
        return evaluate_steady(x)

    drift = dataclasses.replace(drift, steady=steady)
    spec = GeneratorSpec(LocalDiffusionSpec.constant(0.5), LevyMeasureSpec.fractional(1.5), drift)
    n_steps = 30
    kw = dict(t_final=n_steps * 1e-2, dt=1e-2, limiter=limiter, eps_boundary=0.05,
              record_weights={"pow0.5": WeightFunction.power(0.5)})
    builds = []
    evaluate = StepSetup.moving_w

    def spy(self, t):
        builds.append(t)
        return evaluate(self, t)

    monkeypatch.setattr(StepSetup, "moving_w", spy)
    every = solve(gaussian_difference(g, -0.3, 1.0, 0.2, 2.0), spec, record_every=1, **kw)
    counts = [(len(steadies), len(builds))]
    for stride in (10, n_steps):
        steadies.clear()
        builds.clear()
        run = solve(gaussian_difference(g, -0.3, 1.0, 0.2, 2.0), spec, record_every=stride, **kw)
        counts.append((len(steadies), len(builds)))
        shared = np.arange(0, n_steps + 1, stride)
        for key in ("times", "mass", "min_value", "boundary_mass"):
            assert np.array_equal(getattr(run, key), getattr(every, key)[shared])
        assert np.array_equal(run.weighted_norms["pow0.5"], every.weighted_norms["pow0.5"][shared])
        assert np.array_equal(run.final.values, every.final.values)
    assert counts == [(1, 2 * n_steps + 1 if moving else 0)] * 3


def test_norm_series_accessor_matches_direct_norm():
    m0 = gaussian(GRID)
    w = WeightFunction.power(0.5)
    fw = solve(m0, ou_spec(), t_final=0.01, dt=1e-3, record_weights={"mk": w})
    assert fw.weighted_norms["mk"][0] == pytest.approx(weighted_tv_norm(m0.values, w(GRID.nodes), GRID.dx))


# ---------------------------------------------------------------------------
# stacks of runs


def _stack_specs() -> dict:
    def spec(levy, drift, diffusion=LocalDiffusionSpec.constant(1.0)):
        return GeneratorSpec(diffusion, levy, drift)

    # with eps_boundary 1e-4 on Grid(256, 12) at dt 4e-3: "band" breaks the
    # band at t = 0.2, "cfl_setup" fails at setup (max|b| 59.8 > 44.5) and
    # "cfl_moving" at its face array of t = 0.274
    return {
        "power": spec(LevyMeasureSpec.none(), DriftSpec.power(1.0, 1.5)),
        "band": spec(LevyMeasureSpec.fractional(0.8), DriftSpec.power(1.0, 1.5)),
        "cfl_setup": spec(LevyMeasureSpec.fractional(1.5), DriftSpec.ou(5.0)),
        "cfl_moving": spec(LevyMeasureSpec.none(), DriftSpec(
            alpha=1.0, gamma=2.0, steady=np.zeros_like, wave=lambda t, x: (1.0 + 10.0 * t) * x)),
        "moving": spec(LevyMeasureSpec.fractional(1.5), DriftSpec.perturbed_power(1.0, 1.5, 0.3)),
        "variable": spec(LevyMeasureSpec.tempered(1.5), DriftSpec.ou(1.0),
                         LocalDiffusionSpec.tanh_variable(0.5, 0.5)),
    }


def test_stack_rows_match_their_own_solves():
    # each row of a stack records, snapshots, ends and fails bit for bit as
    # its own solve; the failing rows leave and the others go on
    g = Grid(256, 12.0)
    m0 = gaussian_difference(g, -0.3, 1.0, 0.2, 2.0)
    specs = _stack_specs()
    weights = [{"pow0.5": WeightFunction.power(0.5)}, {}, {"pow1": WeightFunction.power(1.0)},
               {"pow0.2": WeightFunction.power(0.2)}, {"pow0.5": WeightFunction.power(0.5)},
               {"pow0.5": WeightFunction.power(0.5), "pow1": WeightFunction.power(1.0)}]
    kw = dict(t_final=1.0, dt=4e-3, record_every=25, eps_boundary=1e-4, snapshot_times=(0.3, 0.5))
    runs = solve_stack(m0, list(specs.values()), record_weights=weights, **kw)
    failed = {}
    for name, spec, w, run in zip(specs, specs.values(), weights, runs):
        try:
            solo = solve(m0, spec, record_weights=w, **kw)
        except NumericalFailure as exc:
            assert type(run) is NumericalFailure and str(run) == str(exc)
            failed[name] = str(exc)
            continue
        for key in ("times", "mass", "min_value", "boundary_mass"):
            assert np.array_equal(getattr(run, key), getattr(solo, key))
        assert run.weighted_norms.keys() == solo.weighted_norms.keys()
        for key in w:
            assert np.array_equal(run.weighted_norms[key], solo.weighted_norms[key])
        assert run.spec is spec and run.final.t == solo.final.t
        assert np.array_equal(run.final.values, solo.final.values)
        assert [snap.t for snap in run.snapshots] == [snap.t for snap in solo.snapshots]
        for got, want in zip(run.snapshots, solo.snapshots):
            assert np.array_equal(got.values, want.values)
    assert sorted(failed) == ["band", "cfl_moving", "cfl_setup"]
    assert failed["band"].startswith("boundary mass 1.359e-04 exceeds eps=0.0001 at t=0.2:")
    assert failed["cfl_moving"].startswith("CFL violation at t=0.274:")


def _assert_same_run(got, want):
    for key in ("times", "mass", "min_value", "boundary_mass"):
        assert np.array_equal(getattr(got, key), getattr(want, key))
    assert list(got.weighted_norms) == list(want.weighted_norms)
    for key in want.weighted_norms:
        assert np.array_equal(got.weighted_norms[key], want.weighted_norms[key])
    assert got.final.t == want.final.t and np.array_equal(got.final.values, want.final.values)
    assert [snap.t for snap in got.snapshots] == [snap.t for snap in want.snapshots]
    for a, b in zip(got.snapshots, want.snapshots):
        assert np.array_equal(a.values, b.values)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_stack_record_matches_the_per_row_oracle(monkeypatch):
    # one record of a 4-row stack: "poisoned" turns inf at step 30 and blows
    # up at the record of step 50 (t = 0.2), where "band" breaks the band;
    # the poisoned row's band is inf too, so its message shows blow-up is
    # checked first. The survivors record, snapshot and end bit for bit as
    # the retired per-row record and as their own solves.
    g = Grid(256, 12.0)
    m0 = gaussian_difference(g, -0.3, 1.0, 0.2, 2.0)
    specs = _stack_specs()
    stack = {"power": specs["power"],
             "poisoned": GeneratorSpec(LocalDiffusionSpec.constant(1.0), LevyMeasureSpec.fractional(1.5),
                                       DriftSpec.power(1.0, 1.2)),
             "band": specs["band"], "moving": specs["moving"]}
    weights = [{"pow0.5": WeightFunction.power(0.5), "pow1": WeightFunction.power(1.0)},
               {"pow0.5": WeightFunction.power(0.5)}, {"pow0.2": WeightFunction.power(0.2)}, {}]
    kw = dict(t_final=1.0, dt=4e-3, record_every=25, eps_boundary=1e-4, snapshot_times=(0.3, 0.5))
    clean = _Stepper.step

    def poisoned(self, m, t, t_end):
        out = clean(self, m, t, t_end)
        if t == 29 * 4e-3:
            out = out.copy()
            for r, stage in enumerate(self.stages):
                if stage.spec is stack["poisoned"]:
                    out[r, 100] = np.inf
        return out

    monkeypatch.setattr(_Stepper, "step", poisoned)
    runs = solve_stack(m0, list(stack.values()), record_weights=weights, **kw)
    oracle = solve_stack_per_row(m0, list(stack.values()), record_weights=weights, **kw)
    failed = {}
    for name, spec, w, run, want in zip(stack, stack.values(), weights, runs, oracle):
        if isinstance(want, NumericalFailure):
            assert type(run) is NumericalFailure and str(run) == str(want)
            failed[name] = str(run)
            continue
        _assert_same_run(run, want)
        _assert_same_run(run, solve(m0, spec, record_weights=w, **kw))
        assert len(run.snapshots) == 2
    assert failed["poisoned"] == "forward run blew up at t=0.2"
    assert failed["band"].startswith("boundary mass 1.359e-04 exceeds eps=0.0001 at t=0.2:")
    assert sorted(failed) == ["band", "poisoned"]


def test_stack_reductions_match_the_per_row_ones():
    # the guard, the mass, the min and the weighted norms of a stack are
    # reductions along its rows: each row keeps the bits of its own scan
    rng = np.random.default_rng(11)
    for rows, n in ((6, 256), (1, 1024), (3, 2048), (7, 512)):
        g = Grid(n, 16.0)
        ws = [WeightFunction.power(0.5), WeightFunction.exponential(0.5, 0.5)]
        phi = np.array([w(g.nodes) for w in ws] * rows)
        guard = RunGuard(1.0, 1.0)
        for _ in range(5):
            stack = rng.standard_normal((rows, n)) * 10.0 ** rng.uniform(-8, 2, (rows, 1))
            sup, band, failed = guard.check_rows(stack, g.dx, np.inf, 0.5)
            norms = weighted_tv_norm(np.repeat(stack, len(ws), axis=0), phi, g.dx)
            assert failed == {}
            for r, row in enumerate(stack):
                own_sup, own_band, _ = guard.check_rows(stack[r:r + 1], g.dx, np.inf, 0.5)  # a lone run's
                assert sup[r] == own_sup[0] == np.abs(row).max()
                assert band[r] == own_band[0]
                assert (stack.sum(axis=1) * g.dx)[r] == row.sum() * g.dx
                assert stack.min(axis=1)[r] == row.min()
                for j, w in enumerate(ws):
                    assert norms[r * len(ws) + j] == weighted_tv_norm_per_field(Field(g, row), w)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_stack_guard_names_each_failing_row():
    # blow-up (inf, NaN or beyond 1e12) before the band, row by row, with
    # the messages of each row's lone check, a one-row stack
    g = Grid(64, 4.0)
    stack = np.tile(gaussian(g).values, (5, 1))
    stack[1, 30], stack[2, 0], stack[3, 30], stack[4, 0] = np.nan, 1.0, 2e12, np.inf
    guard = RunGuard(0.1, 1.0)
    _, band, failed = guard.check_rows(stack, g.dx, 1e-3, 0.5)
    lone = [guard.check_rows(stack[r:r + 1], g.dx, 1e-3, 0.5) for r in range(5)]
    assert sorted(failed) == [1, 2, 3, 4]
    for r in (1, 3, 4):
        assert str(failed[r]) == str(lone[r][2][0]) == "forward run blew up at t=0.5"
    assert str(failed[2]) == str(lone[2][2][0]) == (
        f"boundary mass {band[2]:.3e} exceeds eps=0.001 at t=0.5: the box is too small for this horizon, "
        "or dx=0.125 is too coarse for the data")
    assert lone[0][2] == {} and band[0] == lone[0][1][0]


def test_grid_runs_leave_no_reference_cycle():
    # a run's records, stepper and closed stacks go as soon as it returns,
    # not at the next collection: no closure of a march refers to itself
    g = Grid(256, 12.0)
    specs = [GeneratorSpec(LocalDiffusionSpec.constant(1.0), LevyMeasureSpec.fractional(sigma),
                           DriftSpec.power(1.0, 1.5)) for sigma in (1.2, 1.5)]
    gc.collect()
    gc.disable()
    try:
        solve_stack(gaussian_difference(g), specs, 0.5, 0.002, eps_boundary=0.05, record_every=25)
        solve_backward(tanh_profile(g), specs[0], 0.1, 1e-3, record_every=10)
        stationary_solve(ou_spec(), Grid(64, 8.0), dt=0.01)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_stack_horizon_error_ends_the_runs_past_setup():
    # as in a lone solve, a failed setup comes before the horizon check
    g = Grid(256, 12.0)
    specs = _stack_specs()
    runs = solve_stack(gaussian(g), [specs["power"], specs["cfl_setup"]], t_final=1.001, dt=4e-3)
    assert type(runs[0]) is ValueError and "integer number of steps" in str(runs[0])
    assert type(runs[1]) is NumericalFailure and str(runs[1]).startswith("CFL violation: ")


# ---------------------------------------------------------------------------
# failure paths


def test_cfl_violation_reports_allowed_dt():
    with pytest.raises(NumericalFailure, match="CFL violation.*exceeds"):
        solve(gaussian(GRID), ou_spec(), t_final=1.0, dt=0.01)


def test_cfl_bound_covers_times_past_ten():
    # b = (1 + t) x breaks 0.5 dt max|w| <= 0.95 dx only once t > 11.06
    g = Grid(n=64, half_width=4.0)
    drift = DriftSpec(alpha=1.0, gamma=2.0, steady=np.zeros_like, wave=lambda t, x: (1.0 + t) * x)
    spec = GeneratorSpec(LocalDiffusionSpec.constant(1.0), LevyMeasureSpec.none(), drift)
    m0 = gaussian(g, std=0.5)
    run = solve(m0, spec, t_final=11.0, dt=5e-3, record_every=10**9)
    assert np.all(np.isfinite(run.final.values))
    with pytest.raises(NumericalFailure, match=r"CFL violation at t=11\.06\d*: dt=0\.005 exceeds"):
        solve(m0, spec, t_final=12.0, dt=5e-3, record_every=10**9)


def test_moving_faces_evaluated_once_per_distinct_time(monkeypatch):
    # the march asks for faces at t - dt/2, t and t + dt/2 on each step (t
    # and t + dt/2 on the first), and a record closes at t - dt/2 and t:
    # every record, here every step, asks twice for t - dt/2 and twice for
    # t. The memo of the last two face times builds each once, 2 per step
    # and the end time, and the trajectory does not move
    spec = GeneratorSpec(LocalDiffusionSpec.constant(0.5), LevyMeasureSpec.fractional(1.5),
                         DriftSpec.perturbed_power(1.0, 1.5, 0.3))
    m0 = gaussian(GRID, std=1.0)
    weights = {"pow0.5": WeightFunction.power(0.5)}
    calls = []
    evaluate = StepSetup.moving_w

    def spy(self, t):
        calls.append(t)
        return evaluate(self, t)

    monkeypatch.setattr(StepSetup, "moving_w", spy)
    run = solve(m0, spec, t_final=0.1, dt=1e-2, record_weights=weights, eps_boundary=0.05)
    memo_calls = list(calls)
    assert len(memo_calls) == 2 * 10 + 1
    assert len(memo_calls) == len(set(memo_calls))

    def faces_unmemoized(self, t):
        w = self._w.copy()
        for r in self.moving:
            w[r] = self.stages[r].moving_w(t)
        return self._record(w)

    calls.clear()
    monkeypatch.setattr(_Stepper, "faces", faces_unmemoized)
    oracle = solve(m0, spec, t_final=0.1, dt=1e-2, record_weights=weights, eps_boundary=0.05)
    assert len(calls) == 2 + 3 * 9 + 2 * 10
    assert set(calls) == set(memo_calls)
    assert np.array_equal(run.final.values, oracle.final.values)
    assert np.array_equal(run.weighted_norms["pow0.5"], oracle.weighted_norms["pow0.5"])


def test_steady_drift_part_evaluated_once_per_setup(monkeypatch):
    # perturbed_power's power part alpha x <x>^(gamma-2) does not move: each
    # StepSetup evaluates it at the faces once, and every face array adds
    # only amplitude * sin(x + t)
    spec = GeneratorSpec(LocalDiffusionSpec.constant(0.5), LevyMeasureSpec.fractional(1.5),
                         DriftSpec.perturbed_power(1.0, 1.5, 0.3))
    calls = []
    bracket = generators.bracket

    def spy(x):
        calls.append(1)
        return bracket(x)

    monkeypatch.setattr(generators, "bracket", spy)
    solve(gaussian(GRID), spec, t_final=0.1, dt=1e-2, eps_boundary=0.05)
    assert len(calls) == 1
    calls.clear()
    solve_backward(tanh_profile(GRID), spec, s_final=0.05, dt=5e-3)
    assert len(calls) == 1


def test_tempered_jumps_take_any_step_on_both_clocks():
    # the jump factor exp(-dt symbol) lies in (0, 1] for every dt: one step of
    # 0.5 with lambda0 = 0 and no drift stays finite and keeps the mass
    spec = GeneratorSpec(
        LocalDiffusionSpec.constant(0.0), LevyMeasureSpec.tempered(1.5), DriftSpec.none()
    )
    for start, run in ((gaussian(GRID), solve(gaussian(GRID), spec, t_final=0.5, dt=0.5)),
                       (tanh_profile(GRID), solve_backward(tanh_profile(GRID), spec, s_final=0.5, dt=0.5))):
        assert np.all(np.isfinite(run.final.values))
        mass = np.sum(start.values) * GRID.dx
        assert abs(np.sum(run.final.values) * GRID.dx - mass) <= 1e-12 * max(1.0, abs(mass))


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

    def poisoned(self, m, t, t_end):
        steps.append(t)
        out = clean(self, m, t, t_end).copy()
        if len(steps) == 3:
            out[..., 40] = bad
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
    ref /= ref.sum() * GRID.dx
    assert np.abs(st.values - ref).max() < 1e-4


def test_stationary_mass_is_exactly_normalized(ou_stationary):
    st, _ = ou_stationary
    assert abs(st.values.sum() * GRID.dx - 1.0) < 1e-10


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


def test_stationary_nonconvergence_raises(monkeypatch):
    monkeypatch.setattr(forward, "_STATIONARY_TOL", 1e-15)
    monkeypatch.setattr(forward, "_STATIONARY_MAX_TIME", 2.0)
    g = Grid(n=256, half_width=16.0)
    with pytest.raises(NumericalFailure, match="no stationary profile"):
        stationary_solve(ou_spec(), g, dt=5e-3)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.inf, np.nan, 1e13])
def test_stationary_blow_up_is_raised_at_the_first_block_end(monkeypatch, bad):
    # step 3 writes one bad value; with blocks of unit time and dt 0.01 the
    # first block ends at step 100, not at max_time (500 steps)
    steps = []
    clean = _Stepper.step

    def poisoned(self, m, t, t_end):
        steps.append(t)
        out = clean(self, m, t, t_end).copy()
        if len(steps) == 3:
            out[..., 40] = bad
        return out

    monkeypatch.setattr(_Stepper, "step", poisoned)
    monkeypatch.setattr(forward, "_STATIONARY_MAX_TIME", 5.0)
    with pytest.raises(NumericalFailure) as info:
        stationary_solve(ou_spec(), Grid(64, 8.0), dt=0.01)
    assert str(info.value) == "forward run blew up at t=1"
    assert len(steps) == 100


def test_stationary_clock_is_a_step_count(monkeypatch):
    # t = k * dt: 500 steps reach max_time=5 at dt=0.01, where summing dt
    # 500 times falls short of 5 and ran a sixth block
    steps = []
    clean = _Stepper.step

    def counted(self, m, t, t_end):
        steps.append(t)
        return clean(self, m, t, t_end)

    monkeypatch.setattr(_Stepper, "step", counted)
    monkeypatch.setattr(forward, "_STATIONARY_TOL", 0.0)
    monkeypatch.setattr(forward, "_STATIONARY_MAX_TIME", 5.0)
    with pytest.raises(NumericalFailure, match="no stationary profile within t=5"):
        stationary_solve(ou_spec(), Grid(64, 8.0), dt=0.01)
    assert steps == [k * 0.01 for k in range(500)]
