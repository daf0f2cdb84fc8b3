"""Particle scheme: stable-increment oracles, determinism, histogram checks,
reflection coupling."""
import math
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.integrate import quad

from levyfp.forward import gaussian
from levyfp.generators import DriftSpec, GeneratorSpec, LevyMeasureSpec, LocalDiffusionSpec
from levyfp.grids import Grid
from levyfp import particles
from levyfp.operators import NumericalFailure
from levyfp.particles import (
    _JUMP_CAP,
    ParticleEnsemble,
    _gaussians,
    _ParticleStepper,
    _stable_cms,
    _uniforms,
    empirical_cf,
    ensemble_at,
    ensemble_from_density,
    ensemble_vs_grid_distance,
    reflection_coupling_run,
    sample_stable,
    simulate,
    step_ensemble,
)
from levyfp.weights import WeightFunction

GRID = Grid(dim=1, n=512, half_width=16.0)


def ou_frac_spec() -> GeneratorSpec:
    return GeneratorSpec(
        LocalDiffusionSpec.constant(0.0), LevyMeasureSpec.fractional(1.5), DriftSpec.ou(1.0)
    )


def ou_brownian_spec(lambda0: float = 1.0) -> GeneratorSpec:
    return GeneratorSpec(
        LocalDiffusionSpec.constant(lambda0), LevyMeasureSpec.none(), DriftSpec.ou(1.0)
    )


# ---------------------------------------------------------------------------
# stable sampler


def test_stable_sampler_matches_characteristic_function():
    # E cos(xi S) = e^{-|xi|^sigma} for the unit-scale symmetric stable law
    rng = np.random.default_rng(42)
    draws = sample_stable(1.5, 1.0, rng, size=1_000_000)
    for xi in (0.5, 1.0, 2.0):
        err = abs(np.mean(np.cos(xi * draws)) - np.exp(-abs(xi) ** 1.5))
        assert err < 3e-3


def test_stable_sigma_two_is_gaussian_with_variance_two():
    rng = np.random.default_rng(7)
    draws = sample_stable(2.0, 1.0, rng, size=400_000)
    assert abs(np.var(draws) / 2.0 - 1.0) < 0.01
    assert abs(np.mean(draws)) < 0.01


def test_stable_scale_parameter_multiplies_draws():
    a = sample_stable(1.5, 1.0, np.random.default_rng(3), size=100)
    b = sample_stable(1.5, 2.5, np.random.default_rng(3), size=100)
    assert np.allclose(b, 2.5 * a)


def test_stable_rejects_bad_index():
    rng = np.random.default_rng(0)
    for sigma in (0.0, -1.0, 2.3):
        with pytest.raises(ValueError, match="stability index"):
            sample_stable(sigma, 1.0, rng)


def test_stable_scalar_when_size_omitted():
    out = sample_stable(1.5, 1.0, np.random.default_rng(1))
    assert isinstance(out, float)


# ---------------------------------------------------------------------------
# ensembles


def test_ensemble_rejects_empty_and_nonfinite():
    with pytest.raises(ValueError, match="at least one"):
        ParticleEnsemble(np.empty(0), 0.0, 0)
    with pytest.raises(ValueError, match="finite"):
        ParticleEnsemble(np.array([0.0, np.nan]), 0.0, 0)


def test_ensemble_from_density_rejects_signed_and_empty():
    m = gaussian(GRID, std=1.0)
    signed = type(m)(GRID, m.values - m.values.max())
    with pytest.raises(ValueError, match="signed"):
        ensemble_from_density(signed, 100)
    with pytest.raises(ValueError, match="no mass"):
        ensemble_from_density(type(m)(GRID, np.zeros(GRID.n)), 100)


def test_sampled_ensemble_reproduces_density():
    m = gaussian(GRID, center=0.5, std=1.2)
    flat = WeightFunction.power(0.0)
    d1 = ensemble_vs_grid_distance(ensemble_from_density(m, 200_000, seed=5), m, flat)
    assert d1 < 0.05  # measured 0.016
    d2 = ensemble_vs_grid_distance(ensemble_from_density(m, 800_000, seed=5), m, flat)
    assert d2 < d1  # Monte Carlo error shrinks with the sample


def test_distance_of_disjoint_supports_is_total_mass():
    far = gaussian(GRID, center=6.0, std=0.8)
    near = gaussian(GRID, center=-6.0, std=0.8)
    d = ensemble_vs_grid_distance(ensemble_from_density(far, 100_000, seed=9), near,
                                  WeightFunction.power(0.0))
    assert abs(d - 2.0) < 0.02


def test_empirical_cf_of_point_mass_is_cosine():
    ens = ensemble_at(1.3, 1000, seed=0)
    xi = np.array([0.0, 0.7, 2.0])
    assert np.abs(empirical_cf(ens, xi) - np.cos(1.3 * xi)).max() < 1e-12


# ---------------------------------------------------------------------------
# determinism


def test_chunking_does_not_change_trajectories():
    spec = ou_frac_spec()
    ens = ensemble_from_density(gaussian(GRID, std=1.0), 5000, seed=21)
    whole = ens
    split = ens
    for _ in range(5):
        whole = step_ensemble(whole, spec, 1e-2)
        split = step_ensemble(split, spec, 1e-2, chunk_size=999)
    assert np.array_equal(whole.positions, split.positions)


def test_same_seed_reproduces_run_bitwise():
    spec = ou_brownian_spec()
    a = simulate(ensemble_at(0.5, 2000, seed=4), spec, dt=1e-2, t_final=0.5)
    b = simulate(ensemble_at(0.5, 2000, seed=4), spec, dt=1e-2, t_final=0.5)
    assert np.array_equal(a.final.positions, b.final.positions)
    c = simulate(ensemble_at(0.5, 2000, seed=5), spec, dt=1e-2, t_final=0.5)
    assert not np.array_equal(a.final.positions, c.final.positions)


def test_simulate_requires_integer_step_count():
    with pytest.raises(ValueError, match="integer number of steps"):
        simulate(ensemble_at(0.0, 10), ou_brownian_spec(), dt=0.3, t_final=1.0)


def test_moment_series_accessor():
    w = {"flat": WeightFunction.power(0.0)}
    run = simulate(ensemble_at(0.0, 100), ou_brownian_spec(), dt=0.1, t_final=0.3,
                   moment_weights=w)
    assert np.allclose(run.moment_series("flat"), 1.0)
    assert run.times[0] == 0.0 and run.times[-1] == pytest.approx(0.3)


# ---------------------------------------------------------------------------
# law-level checks


def test_fractional_ou_run_approaches_stationary_cf():
    # stationary law of dX = -X dt + dL_t has cf e^{-|xi|^sigma / sigma}
    run = simulate(ensemble_at(0.0, 50_000, seed=11), ou_frac_spec(), dt=1e-2,
                   t_final=5.0, record_every=10**9)
    xi = np.array([0.5, 1.0])
    err = np.abs(empirical_cf(run.final, xi) - np.exp(-np.abs(xi) ** 1.5 / 1.5))
    assert err.max() < 0.02  # measured 3.3e-3 at this sample size


def test_tempered_run_matches_second_moment_growth():
    # free motion: E X_t^2 = 2 lambda0 t + t * int z^2 nu(dz); the squared
    # bracket weight reports 1 + E X_t^2
    lev = LevyMeasureSpec.tempered(1.5)
    rho = lambda z: lev.density(np.array([z]))[0]
    m2_rate = 2.0 * quad(lambda z: z * z * rho(z), 0.0, np.inf)[0]
    spec = GeneratorSpec(LocalDiffusionSpec.constant(0.25), lev, DriftSpec.none())
    w = {"sq": WeightFunction.custom(lambda r: r * r)}
    run = simulate(ensemble_at(0.0, 50_000, seed=7), spec, dt=5e-3, t_final=0.5,
                   record_every=10**9, moment_weights=w)
    want = 1.0 + 2.0 * 0.25 * 0.5 + 0.5 * m2_rate
    assert abs(run.moments["sq"][-1] - want) / want < 0.05  # measured 0.007


def test_weighted_moment_stays_bounded_when_horizon_doubles():
    spec = GeneratorSpec(
        LocalDiffusionSpec.constant(1.0), LevyMeasureSpec.fractional(1.5), DriftSpec.ou(1.0)
    )
    w = {"k05": WeightFunction.power(0.5)}
    short = simulate(ensemble_at(0.0, 20_000, seed=2), spec, dt=1e-2, t_final=2.0,
                     record_every=20, moment_weights=w)
    long = simulate(ensemble_at(0.0, 20_000, seed=2), spec, dt=1e-2, t_final=4.0,
                    record_every=20, moment_weights=w)
    a, b = short.moments["k05"].max(), long.moments["k05"].max()
    assert b < 1.25 * a  # measured ratio 1.011: confinement keeps the sup flat


# ---------------------------------------------------------------------------
# reflection coupling


def test_identical_starts_couple_immediately():
    run = reflection_coupling_run(ou_brownian_spec(), 0.7, 0.7, dt=1e-2, t_final=0.2,
                                  n_pairs=500, seed=1)
    assert np.all(run.uncoupled_fraction == 0.0)
    assert np.all(run.coupling_times == 0.0)


def test_uncoupled_fraction_never_increases_and_pairs_stay_merged():
    run = reflection_coupling_run(ou_brownian_spec(), 1.0, -1.0, dt=2e-3, t_final=4.0,
                                  n_pairs=2000, seed=1, eps_couple=0.05,
                                  record_every=100)
    assert np.all(np.diff(run.uncoupled_fraction) <= 0.0)
    assert run.uncoupled_fraction[-1] < 0.1  # measured 0.015
    coupled = np.isfinite(run.coupling_times)
    assert coupled.mean() > 0.9
    assert np.array_equal(run.x_final[coupled], run.y_final[coupled])


def test_coupling_survives_jump_part():
    spec = GeneratorSpec(
        LocalDiffusionSpec.constant(0.5), LevyMeasureSpec.fractional(1.5), DriftSpec.ou(1.0)
    )
    run = reflection_coupling_run(spec, 1.0, -1.0, dt=2e-3, t_final=2.0,
                                  n_pairs=2000, seed=3, eps_couple=0.05,
                                  record_every=100)
    assert np.all(np.diff(run.uncoupled_fraction) <= 0.0)
    assert run.uncoupled_fraction[-1] < 0.3  # measured 0.113
    assert run.n_pairs == 2000 and run.eps_couple == 0.05


def test_coupling_requires_integer_step_count():
    with pytest.raises(ValueError, match="integer number of steps"):
        reflection_coupling_run(ou_brownian_spec(), 1.0, -1.0, dt=0.3, t_final=1.0,
                                n_pairs=10)


# ---------------------------------------------------------------------------
# oracles: the whole-array expressions the chunked, in-place kernels replace


def uniforms_oracle(seed, stream, start, count, stride):
    bg = np.random.Philox(key=np.array([seed, stream], dtype=np.uint64))
    bg.advance((stride // 4) * start)
    raw = bg.random_raw(count * stride)
    return ((raw >> np.uint64(11)) * 2.0**-53).reshape(count, stride)


def gaussians_oracle(u1, u2):
    return np.sqrt(-2.0 * np.log1p(-u1)) * np.cos(2.0 * np.pi * u2)


def stable_cms_oracle(sigma, u_angle, u_exp):
    if sigma == 2.0:
        return math.sqrt(2.0) * gaussians_oracle(u_angle, u_exp)
    theta = np.pi * (u_angle - 0.5)
    w = np.maximum(-np.log1p(-u_exp), 1e-12)
    a = np.sin(sigma * theta) / np.cos(theta) ** (1.0 / sigma)
    b = (np.cos((1.0 - sigma) * theta) / w) ** ((1.0 - sigma) / sigma)
    return a * b


def move_oracle(stepper, x, t, u, gauss_flip=None, jump_threshold=None):
    spec, dt = stepper.spec, stepper.dt
    out = x - spec.drift(t, x) * dt
    cols = stepper.columns
    if "brownian" in cols:
        j = cols["brownian"]
        g = gaussians_oracle(u[:, j], u[:, j + 1])
        if gauss_flip is not None:
            g = np.where(gauss_flip, -g, g)
        out = out + math.sqrt(2.0 * spec.diffusion.lambda0 * dt) * g
    if "variable" in cols:
        j = cols["variable"]
        g = gaussians_oracle(u[:, j], u[:, j + 1])
        out = out + math.sqrt(2.0 * dt) * np.sqrt(spec.diffusion.sigma_squared(x)) * g
    if "stable" in cols:
        j = cols["stable"]
        s = stable_cms_oracle(spec.levy.sigma, u[:, j], u[:, j + 1])
        inc = (spec.levy.scale * dt) ** (1.0 / spec.levy.sigma) * s
        if jump_threshold is not None:
            inc = np.where(np.abs(inc) < jump_threshold, -inc, inc)
        out = out + inc
    if stepper.tempered is not None:
        j = cols["small"]
        g = gaussians_oracle(u[:, j], u[:, j + 1])
        if gauss_flip is not None:
            g = np.where(gauss_flip, -g, g)
        out = out + math.sqrt(stepper.tempered.small_variance * dt) * g
        jumps = stepper.tempered.draw(u[:, cols["count"]],
                                      u[:, cols["sizes"]:cols["sizes"] + 2 * _JUMP_CAP])
        if jump_threshold is not None:
            jumps = np.where(np.abs(jumps) < jump_threshold[:, None], -jumps, jumps)
        out = out + jumps.sum(axis=1)
    return out


def simulate_oracle(ens, spec, dt, n_steps):
    stepper = _ParticleStepper(spec, dt)
    x, t = ens.positions, ens.t
    for k in range(1, n_steps + 1):
        u = uniforms_oracle(ens.seed, k, 0, x.size, stepper.stride)
        x = move_oracle(stepper, x, t, u)
        t = t + dt
    return x


def coupling_oracle(spec, x0, y0, dt, n_steps, n_pairs, seed, eps_couple):
    stepper = _ParticleStepper(spec, dt)
    x = np.full(n_pairs, float(x0))
    y = np.full(n_pairs, float(y0))
    coupled = np.abs(x - y) < eps_couple
    y[coupled] = x[coupled]
    t_couple = np.where(coupled, 0.0, np.inf)
    t = 0.0
    for k in range(1, n_steps + 1):
        u = uniforms_oracle(seed, k, 0, n_pairs, stepper.stride)
        thr = np.where(coupled, 0.0, np.minimum(1.0, 0.5 * np.abs(x - y)))
        x_new = move_oracle(stepper, x, t, u)
        y_new = move_oracle(stepper, y, t, u, gauss_flip=~coupled, jump_threshold=thr)
        t = k * dt
        meet = ~coupled & (np.abs(x_new - y_new) < eps_couple)
        y_new[meet] = x_new[meet]
        t_couple[meet] = t
        coupled |= meet
        x, y = x_new, y_new
    return x, y, t_couple


def set_cores(monkeypatch, cores):
    """Make the particle runs see `cores` available cores."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))


def assert_bitwise(a, b):
    assert np.array_equal(a, b)
    assert np.array_equal(np.signbit(a), np.signbit(b))


ORACLE_SPECS = {
    "fractional": GeneratorSpec(LocalDiffusionSpec.constant(0.0),
                                LevyMeasureSpec.fractional(1.5), DriftSpec.ou(1.0)),
    "tempered": GeneratorSpec(LocalDiffusionSpec.constant(0.25),
                              LevyMeasureSpec.tempered(0.7), DriftSpec.power(1.0, 1.5)),
    "brownian-variable": GeneratorSpec(LocalDiffusionSpec.tanh_variable(0.5, 0.4),
                                       LevyMeasureSpec.none(),
                                       DriftSpec.perturbed_power(1.0, 1.5, 0.3)),
}


@pytest.mark.parametrize("start, count, stride", [(0, 1, 4), (7, 1000, 4), (12345, 999, 20)])
def test_uniforms_match_raw_word_oracle(start, count, stride):
    assert_bitwise(_uniforms(11, 3, start, count, stride),
                   uniforms_oracle(11, 3, start, count, stride))


def kernel_inputs():
    """Uniforms from Philox plus the edge values 0, 0.5 and 1 - 2**-53 in
    every pairing."""
    u = uniforms_oracle(5, 1, 0, 20_000, 4)
    edges = np.array([0.0, 0.5, 1.0 - 2.0**-53])
    ea, eb = np.meshgrid(edges, edges)
    return (np.concatenate([u[:, 0], ea.ravel()]), np.concatenate([u[:, 1], eb.ravel()]))


@pytest.mark.parametrize("sigma", [0.3, 0.5, 2.0 / 3.0, 0.7, 1.0, 1.5, 1.9, 1.99, 2.0])
def test_stable_cms_matches_oracle_bitwise(sigma):
    u1, u2 = kernel_inputs()
    assert_bitwise(_stable_cms(sigma, u1, u2), stable_cms_oracle(sigma, u1, u2))
    # strided columns of a uniform block, as the stepper passes them
    u = uniforms_oracle(6, 2, 0, 5000, 4)
    assert_bitwise(_stable_cms(sigma, u[:, 2], u[:, 3]), stable_cms_oracle(sigma, u[:, 2], u[:, 3]))


def test_gaussians_match_oracle_bitwise():
    u1, u2 = kernel_inputs()
    assert_bitwise(_gaussians(u1, u2), gaussians_oracle(u1, u2))


@pytest.mark.parametrize("name", sorted(ORACLE_SPECS))
@pytest.mark.parametrize("cores", [1, 2])
@pytest.mark.parametrize("chunk_size", [None, 999, 10**6])
def test_simulate_matches_whole_array_oracle(monkeypatch, name, cores, chunk_size):
    set_cores(monkeypatch, cores)
    spec = ORACLE_SPECS[name]
    ens = ensemble_from_density(gaussian(GRID, std=1.0), 70_001, seed=21)
    run = simulate(ens, spec, dt=1e-2, t_final=0.05, chunk_size=chunk_size)
    assert_bitwise(run.final.positions, simulate_oracle(ens, spec, 1e-2, 5))


@pytest.mark.parametrize("name", sorted(ORACLE_SPECS))
@pytest.mark.parametrize("cores", [1, 2])
@pytest.mark.parametrize("chunk", [particles._CHUNK, 999, 10**6])
def test_coupling_matches_whole_array_oracle(monkeypatch, name, cores, chunk):
    set_cores(monkeypatch, cores)
    monkeypatch.setattr(particles, "_CHUNK", chunk)
    spec = ORACLE_SPECS[name]
    run = reflection_coupling_run(spec, 1.0, -1.0, dt=1e-2, t_final=0.1, n_pairs=40_001,
                                  seed=3, eps_couple=0.05)
    x, y, t_couple = coupling_oracle(spec, 1.0, -1.0, 1e-2, 10, 40_001, 3, 0.05)
    assert np.isfinite(t_couple).any() and not np.isfinite(t_couple).all()
    assert_bitwise(run.x_final, x)
    assert_bitwise(run.y_final, y)
    assert_bitwise(run.coupling_times, t_couple)


def test_coupling_on_more_threads_than_cores_matches_oracle(monkeypatch):
    # chunks share the position, flag and meet-time arrays and write
    # disjoint slices; frequent thread switches would expose a lost write
    set_cores(monkeypatch, 8)
    monkeypatch.setattr(particles, "_CHUNK", 500)
    spec = ORACLE_SPECS["fractional"]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        run = reflection_coupling_run(spec, 1.0, -1.0, dt=1e-2, t_final=0.1, n_pairs=20_001,
                                      seed=8, eps_couple=0.05)
    finally:
        sys.setswitchinterval(interval)
    x, y, t_couple = coupling_oracle(spec, 1.0, -1.0, 1e-2, 10, 20_001, 8, 0.05)
    assert_bitwise(run.x_final, x)
    assert_bitwise(run.y_final, y)
    assert_bitwise(run.coupling_times, t_couple)


def test_failed_chunk_cancels_the_chunks_not_yet_started():
    # chunk 1 holds the single thread while the failure of chunk 0 is raised,
    # so chunks 2..49 are still queued and must never run
    ran, gate = set(), threading.Event()

    def advance(i0, i1):
        if i0 == 0:
            raise NumericalFailure("chunk 0")
        gate.wait(0.1)
        ran.add(i0)

    with ThreadPoolExecutor(max_workers=1) as pool:
        with pytest.raises(NumericalFailure, match="chunk 0"):
            particles._for_chunks(advance, 50, 1, pool)
    assert ran <= {1}


def test_chunk_size_is_validated():
    with pytest.raises(ValueError, match="chunk_size"):
        simulate(ensemble_at(0.0, 10), ou_brownian_spec(), dt=0.1, t_final=0.2, chunk_size=0)


# ---------------------------------------------------------------------------
# finiteness on every step, whatever the record stride


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("cores", [1, 2])
def test_blow_up_raises_at_first_bad_step_for_any_stride(monkeypatch, cores):
    set_cores(monkeypatch, cores)
    # x -> x (1 - 1e4 dt) = -9999 x per step overflows after about 77 steps
    spec = GeneratorSpec(LocalDiffusionSpec.constant(0.0), LevyMeasureSpec.fractional(1.5),
                         DriftSpec.power(1e4, 2.0))
    n_steps = 200
    messages = []
    for record_every in (1, n_steps):
        with pytest.raises(NumericalFailure) as info:
            simulate(ensemble_at(1.0, 40_000, seed=4), spec, dt=1.0, t_final=float(n_steps),
                     record_every=record_every, chunk_size=10_000)
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith("particle positions left the finite range at t=")
    t_bad = float(messages[0].rsplit("t=", 1)[1])
    assert 50 < t_bad < n_steps
    # one step earlier every position was still finite
    ok = simulate(ensemble_at(1.0, 40_000, seed=4), spec, dt=1.0, t_final=t_bad - 1.0,
                  record_every=10**9)
    assert np.all(np.isfinite(ok.final.positions))


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_coupling_blow_up_raises_numerical_failure():
    spec = GeneratorSpec(LocalDiffusionSpec.constant(1.0), LevyMeasureSpec.none(),
                         DriftSpec.power(1e4, 2.0))
    with pytest.raises(NumericalFailure, match="left the finite range at t="):
        reflection_coupling_run(spec, 1.0, -1.0, dt=1.0, t_final=200.0, n_pairs=100)


# ---------------------------------------------------------------------------
# tempered truncation is carried on the runs


def test_runs_carry_tempered_cap_excess():
    tempered = ORACLE_SPECS["tempered"]
    run = simulate(ensemble_at(0.0, 100), tempered, dt=1e-2, t_final=0.02)
    assert run.cap_excess == _ParticleStepper(tempered, 1e-2).tempered.cap_excess
    assert 0.0 <= run.cap_excess < 1e-6
    coupling = reflection_coupling_run(tempered, 1.0, -1.0, dt=1e-2, t_final=0.02, n_pairs=10)
    assert coupling.cap_excess == run.cap_excess
    assert simulate(ensemble_at(0.0, 10), ou_frac_spec(), dt=0.1, t_final=0.2).cap_excess is None


@pytest.mark.parametrize("dt", [1e-2, 10.0])
def test_cap_excess_is_the_poisson_tail_beyond_the_cap(dt):
    jumps = _ParticleStepper(ORACLE_SPECS["tempered"], dt).tempered
    r = jumps.rate * dt
    tail = math.fsum(math.exp(-r) * r**k / math.factorial(k) for k in range(_JUMP_CAP + 1, 120))
    assert tail > 0.0
    assert abs(jumps.cap_excess - tail) <= 1e-12 * tail
