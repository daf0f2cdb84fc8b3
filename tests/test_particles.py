"""Particle scheme: stable-increment oracles, determinism, histogram checks,
reflection coupling."""
import dataclasses
import math
import os
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.integrate import quad

try:
    import mpmath
except ImportError:  # the 50-digit reference tests need it; nothing else does
    mpmath = None

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
    reflection_coupling_run,
    simulate,
)
from levyfp.weights import WeightFunction

GRID = Grid(n=512, half_width=16.0)


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
    u = np.random.default_rng(42).random((1_000_000, 2))
    draws = _stable_cms(1.5, u[:, 0].copy(), u[:, 1].copy())
    for xi in (0.5, 1.0, 2.0):
        err = abs(np.mean(np.cos(xi * draws)) - np.exp(-abs(xi) ** 1.5))
        assert err < 3e-3


# ---------------------------------------------------------------------------
# ensembles


def test_ensemble_rejects_empty_and_nonfinite():
    with pytest.raises(ValueError, match="at least one"):
        ParticleEnsemble(np.empty(0), 0)
    with pytest.raises(ValueError, match="finite"):
        ParticleEnsemble(np.array([0.0, np.nan]), 0)


def test_ensemble_from_density_rejects_signed_and_empty():
    m = gaussian(GRID, std=1.0)
    signed = type(m)(GRID, m.values - m.values.max())
    with pytest.raises(ValueError, match="signed"):
        ensemble_from_density(signed, 100)
    with pytest.raises(ValueError, match="no mass"):
        ensemble_from_density(type(m)(GRID, np.zeros(GRID.n)), 100)


def test_sampled_ensemble_reproduces_density():
    m = gaussian(GRID, center=0.5, std=1.2)

    def tv_distance(n_particles):
        # TV norm of (cell histogram - m); node i owns [x_i - dx/2, x_i + dx/2)
        ens = ensemble_from_density(m, n_particles, seed=5)
        idx = np.clip(np.floor((ens.positions + GRID.half_width) / GRID.dx + 0.5).astype(int),
                      0, GRID.n - 1)
        hist = np.bincount(idx, minlength=GRID.n) / (n_particles * GRID.dx)
        return float(np.sum(np.abs(hist - m.values)) * GRID.dx)

    d1 = tv_distance(200_000)
    assert d1 < 0.05  # measured 0.016
    d2 = tv_distance(800_000)
    assert d2 < d1  # Monte Carlo error shrinks with the sample


def test_empirical_cf_of_point_mass_is_cosine():
    ens = ensemble_at(1.3, 1000, seed=0)
    xi = np.array([0.0, 0.7, 2.0])
    assert np.abs(empirical_cf(ens.positions, xi) - np.cos(1.3 * xi)).max() < 1e-12


# ---------------------------------------------------------------------------
# determinism


def test_chunking_does_not_change_trajectories(monkeypatch):
    spec = ou_frac_spec()
    ens = ensemble_from_density(gaussian(GRID, std=1.0), 5000, seed=21)
    whole = simulate(ens, spec, dt=1e-2, t_final=0.05)
    monkeypatch.setattr(particles, "_CHUNK", 999)
    split = simulate(ens, spec, dt=1e-2, t_final=0.05)
    assert np.array_equal(whole.final, split.final)


def test_same_seed_reproduces_run_bitwise():
    spec = ou_brownian_spec()
    a = simulate(ensemble_at(0.5, 2000, seed=4), spec, dt=1e-2, t_final=0.5)
    b = simulate(ensemble_at(0.5, 2000, seed=4), spec, dt=1e-2, t_final=0.5)
    assert np.array_equal(a.final, b.final)
    c = simulate(ensemble_at(0.5, 2000, seed=5), spec, dt=1e-2, t_final=0.5)
    assert not np.array_equal(a.final, c.final)


def test_simulate_requires_integer_step_count():
    with pytest.raises(ValueError, match="integer number of steps"):
        simulate(ensemble_at(0.0, 10), ou_brownian_spec(), dt=0.3, t_final=1.0)


def test_moment_series_accessor():
    w = {"flat": WeightFunction.power(0.0)}
    run = simulate(ensemble_at(0.0, 100), ou_brownian_spec(), dt=0.1, t_final=0.3,
                   moment_weights=w)
    assert np.allclose(run.moments["flat"], 1.0)
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
    w = {"sq": WeightFunction.power(2.0)}
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
    assert run.coupling_times.size == 2000


@pytest.mark.parametrize("seed", [-1, 1.5, "3", None])
def test_bad_seeds_are_refused_before_any_draw(seed):
    # SeedSequence refuses them only at the first step's draw; a negative
    # one passed ensemble_at, and 1.5 reached it as numpy's TypeError
    with pytest.raises(ValueError, match="seed must be a nonnegative integer"):
        ensemble_at(0.0, 10, seed=seed)
    with pytest.raises(ValueError, match="seed must be a nonnegative integer"):
        ensemble_from_density(gaussian(GRID, std=1.0), 10, seed=seed)
    with pytest.raises(ValueError, match="seed must be a nonnegative integer"):
        reflection_coupling_run(ou_brownian_spec(), 1.0, -1.0, dt=0.1, t_final=0.2, n_pairs=10, seed=seed)


@pytest.mark.parametrize("seed", [np.int64(3), np.uint64(2**64 - 1), 2**64, 2**70])
def test_numpy_and_wide_seeds_are_accepted(seed):
    run = simulate(ensemble_at(0.0, 10, seed=seed), ou_brownian_spec(), dt=0.1, t_final=0.2)
    assert np.isfinite(run.final).all()
    reflection_coupling_run(ou_brownian_spec(), 1.0, -1.0, dt=0.1, t_final=0.2, n_pairs=10, seed=seed)


def test_coupling_requires_integer_step_count():
    with pytest.raises(ValueError, match="integer number of steps"):
        reflection_coupling_run(ou_brownian_spec(), 1.0, -1.0, dt=0.3, t_final=1.0,
                                n_pairs=10)


# ---------------------------------------------------------------------------
# oracles: the whole-array expressions the chunked, in-place kernels replace


def uniforms_oracle(seed, stream, start, count, stride):
    bg = np.random.PCG64DXSM(np.random.SeedSequence([seed, stream]))
    bg.advance(stride * start)
    raw = bg.random_raw(count * stride)
    return ((raw >> np.uint64(11)) * 2.0**-53).reshape(count, stride)


def gaussians_oracle(u1, u2):
    t = np.tan(np.pi * (u2 - 0.5))
    return np.sqrt(-2.0 * np.log1p(-u1)) * ((t * t - 1.0) / (t * t + 1.0))


def stable_cms_oracle(sigma, u_angle, u_exp):
    h = u_angle - 0.5
    b = np.tan(0.5 * np.pi * (0.5 - np.abs(h)))
    cos_theta = np.maximum((b + b) / (b * b + 1.0), particles._COS_EDGE)
    a = np.tan(0.5 * sigma * np.pi * h)
    c = np.tan(0.5 * (1.0 - sigma) * np.pi * h)
    w = np.maximum(-np.log1p(-u_exp), 1e-12)
    return ((a + a) / (a * a + 1.0) / cos_theta ** (1.0 / sigma)
            * ((1.0 - c * c) / (c * c + 1.0) / w) ** ((1.0 - sigma) / sigma))


# the direct trigonometric forms the half-angle kernels replaced: oracles
# for the law, close in value away from the edge words, not in bits


def gaussians_retired(u1, u2):
    return np.sqrt(-2.0 * np.log1p(-u1)) * np.cos(2.0 * np.pi * u2)


def stable_cms_retired(sigma, u_angle, u_exp):
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
    x = ens.positions
    for k in range(1, n_steps + 1):
        u = uniforms_oracle(ens.seed, k, 0, x.size, stepper.stride)
        x = move_oracle(stepper, x, (k - 1) * dt, u)
    return x


def coupling_oracle(spec, x0, y0, dt, n_steps, n_pairs, seed, eps_couple):
    stepper = _ParticleStepper(spec, dt)
    x = np.full(n_pairs, float(x0))
    y = np.full(n_pairs, float(y0))
    coupled = np.abs(x - y) < eps_couple
    y[coupled] = x[coupled]
    t_couple = np.where(coupled, 0.0, np.inf)
    frac = [np.mean(~coupled)]
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
        frac.append(np.mean(~coupled))
        x, y = x_new, y_new
    return x, y, t_couple, np.array(frac)


def set_cores(monkeypatch, cores):
    """Make the particle runs see `cores` available cores."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))


def set_chunk(monkeypatch, chunk):
    """Run the particle steps in chunks of `chunk`; None keeps _CHUNK (32768)."""
    if chunk is not None:
        monkeypatch.setattr(particles, "_CHUNK", chunk)


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


# the later starts begin inside a block of words: c = 2, 19 and 1 are no
# multiples of the 4-word blocks of a counter-based generator
@pytest.mark.parametrize("start, count, stride", [(0, 1, 4), (7, 1000, 4), (12345, 999, 20),
                                                  (7, 1000, 2), (3, 999, 19), (5, 10, 1)])
def test_uniforms_match_raw_word_oracle(start, count, stride):
    assert_bitwise(_uniforms(11, 3, start, count, stride),
                   uniforms_oracle(11, 3, start, count, stride))


def degenerate_spec(diffusion, levy, drift) -> GeneratorSpec:
    """A spec past the lambda0 + lam > 0 check, which the grid solvers need
    and the particle stepper does not."""
    spec = object.__new__(GeneratorSpec)
    spec.__dict__.update(diffusion=diffusion, levy=levy, drift=drift)
    return spec


# spec -> uniform columns per particle and step
STRIDE_SPECS = {
    "drift-only": (degenerate_spec(LocalDiffusionSpec.constant(0.0), LevyMeasureSpec.none(),
                                   DriftSpec.ou(1.0)), 0),
    "local": (ou_brownian_spec(), 2),
    "variable-only": (degenerate_spec(LocalDiffusionSpec.tanh_variable(0.0, 0.4),
                                      LevyMeasureSpec.none(), DriftSpec.ou(1.0)), 2),
    "fractional": (ou_frac_spec(), 2),
    "tempered": (GeneratorSpec(LocalDiffusionSpec.constant(0.0), LevyMeasureSpec.tempered(0.7),
                               DriftSpec.ou(1.0)), 19),
}


@pytest.mark.parametrize("name", sorted(STRIDE_SPECS))
def test_stride_is_the_columns_a_spec_reads(name):
    spec, columns = STRIDE_SPECS[name]
    assert _ParticleStepper(spec, 1e-2).stride == columns


def test_drift_only_spec_draws_no_words(monkeypatch):
    spec, _ = STRIDE_SPECS["drift-only"]
    shapes = []

    def spy(seed, stream, start, count, stride):
        u = _uniforms(seed, stream, start, count, stride)
        shapes.append(u.shape)
        return u

    monkeypatch.setattr(particles, "_uniforms", spy)
    ens = ensemble_at(0.5, 1000, seed=2)
    run = simulate(ens, spec, dt=0.1, t_final=0.3)
    assert shapes == [(1000, 0)] * 3
    x = ens.positions
    for k in range(3):
        x = x - spec.drift(k * 0.1, x) * 0.1
    assert_bitwise(run.final, x)


@pytest.mark.parametrize("cores", [1, 2])
def test_stride_19_chunks_match_whole_array_oracle(monkeypatch, cores):
    # 999-particle chunks of a jump-only tempered spec start their streams
    # at words that are no multiple of 4; stride 2 at _CHUNK 999 is
    # test_simulate_matches_whole_array_oracle's fractional case
    set_cores(monkeypatch, cores)
    monkeypatch.setattr(particles, "_CHUNK", 999)
    spec, columns = STRIDE_SPECS["tempered"]
    assert columns == 19
    ens = ensemble_from_density(gaussian(GRID, std=1.0), 20_001, seed=13)
    run = simulate(ens, spec, dt=1e-2, t_final=0.03)
    assert_bitwise(run.final, simulate_oracle(ens, spec, 1e-2, 3))


def kernel_inputs():
    """Uniforms from the particle stream plus the edge values 0, 0.5 and
    1 - 2**-53 in every pairing."""
    u = uniforms_oracle(5, 1, 0, 20_000, 4)
    edges = np.array([0.0, 0.5, 1.0 - 2.0**-53])
    ea, eb = np.meshgrid(edges, edges)
    return (np.concatenate([u[:, 0], ea.ravel()]), np.concatenate([u[:, 1], eb.ravel()]))


CMS_SIGMAS = [0.3, 0.5, 2.0 / 3.0, 0.7, 1.0, 1.5, 1.9, 1.99]


@pytest.mark.parametrize("sigma", CMS_SIGMAS)
def test_stable_cms_matches_oracle_bitwise(sigma):
    u1, u2 = kernel_inputs()
    assert_bitwise(_stable_cms(sigma, u1, u2), stable_cms_oracle(sigma, u1, u2))
    # strided columns of a uniform block, as the stepper passes them
    u = uniforms_oracle(6, 2, 0, 5000, 4)
    assert_bitwise(_stable_cms(sigma, u[:, 2], u[:, 3]), stable_cms_oracle(sigma, u[:, 2], u[:, 3]))


def test_gaussians_match_oracle_bitwise():
    u1, u2 = kernel_inputs()
    assert_bitwise(_gaussians(u1, u2), gaussians_oracle(u1, u2))


@pytest.mark.parametrize("sigma", CMS_SIGMAS)
def test_stable_cms_is_finite_at_the_edge_words(sigma):
    # u_angle = 0 puts cos(theta) at 0, which the kernel clamps to the value
    # the direct form gave there; 1 - 2**-53 is the other end of the stream
    edges = np.array([0.0, 1.0 - 2.0**-53])
    for u_exp in (0.0, 0.5, 1.0 - 2.0**-53):
        assert np.isfinite(_stable_cms(sigma, edges, np.full(2, u_exp))).all()
    assert particles._COS_EDGE == np.cos(np.pi * (0.0 - 0.5))


# words where the direct forms lose digits: next to u_angle = 0 and 1, and
# at u2 = 1/4, where cos(2 pi u2) is 0
ACCURACY_WORDS = [2.0**-53, 3 * 2.0**-53, 2.0**-40, 0.25, 0.5 + 2.0**-53, 1 - 2.0**-40, 1 - 2.0**-53]


def mp_stable_cms(sigma, u_angle, u_exp):
    """The CMS variate of the exact float inputs, in 50-digit arithmetic."""
    with mpmath.workdps(50):
        s, theta = mpmath.mpf(sigma), mpmath.pi * (mpmath.mpf(u_angle) - 0.5)
        w = max(-mpmath.log1p(-mpmath.mpf(u_exp)), mpmath.mpf(1e-12))
        return float(mpmath.sin(s * theta) / mpmath.cos(theta) ** (1 / s)
                     * (mpmath.cos((1 - s) * theta) / w) ** ((1 - s) / s))


def accuracy_inputs():
    ua, ue = np.meshgrid(ACCURACY_WORDS, ACCURACY_WORDS)
    return ua.ravel(), ue.ravel()


needs_mpmath = pytest.mark.skipif(mpmath is None, reason="needs mpmath")


@needs_mpmath
@pytest.mark.parametrize("sigma", CMS_SIGMAS)
def test_stable_cms_matches_50_digit_reference(sigma):
    # at sigma 1.99 the sine's tangent argument is 0.995 pi/2 next to the
    # edge words, where tan magnifies the rounding of sigma pi h / 2 about
    # 200-fold: 1.3e-14 measured. The direct form was off by 17% to 71% there.
    ua, ue = accuracy_inputs()
    ref = np.array([mp_stable_cms(sigma, a, b) for a, b in zip(ua, ue)])
    err = np.abs(_stable_cms(sigma, ua, ue) - ref) / np.abs(ref)
    assert err.max() <= (3e-14 if sigma == 1.99 else 1e-14)


@needs_mpmath
def test_gaussians_match_50_digit_reference():
    # the error is taken relative to the radius, the draw's size: at
    # u2 = 1/4 the exact cosine is 0
    u1, u2 = accuracy_inputs()
    with mpmath.workdps(50):
        ref = np.array([float(mpmath.sqrt(-2 * mpmath.log1p(-mpmath.mpf(a)))
                              * mpmath.cos(2 * mpmath.pi * mpmath.mpf(b))) for a, b in zip(u1, u2)])
    radius = np.sqrt(-2.0 * np.log1p(-u1))
    assert (np.abs(_gaussians(u1, u2) - ref) <= 1e-14 * radius).all()


@pytest.mark.parametrize("sigma", CMS_SIGMAS)
def test_stable_cms_keeps_the_retired_law(sigma):
    # away from u_angle = 0 and 1, where the direct form's cos(theta) carries
    # the 6e-17 rounding of pi/2, the two forms differ by rounding only
    u = uniforms_oracle(5, 1, 0, 20_000, 4)
    ua, ue = u[:, 0], u[:, 1]
    away = np.minimum(ua, 1.0 - ua) >= 2.0**-10
    new, old = _stable_cms(sigma, ua, ue), stable_cms_retired(sigma, ua, ue)
    assert away.sum() > 19_900
    assert (np.abs(new - old)[away] <= 1e-11 * np.abs(old)[away]).all()


def test_gaussians_keep_the_retired_law():
    # away from the zeros of cos(2 pi u2) at u2 = 1/4 and 3/4
    u = uniforms_oracle(5, 1, 0, 20_000, 4)
    u1, u2 = u[:, 0], u[:, 1]
    away = np.minimum(np.abs(u2 - 0.25), np.abs(u2 - 0.75)) >= 2.0**-10
    new, old = _gaussians(u1, u2), gaussians_retired(u1, u2)
    assert away.sum() > 19_900
    assert (np.abs(new - old)[away] <= 1e-11 * np.abs(old)[away]).all()


def test_kernels_are_lane_invariant():
    # numpy's vector tan loop runs full lanes and a remainder; the same word
    # must give the same bits at every offset of every short array
    u1, u2 = kernel_inputs()
    words = np.r_[0:200, -9:0]  # 200 stream pairs and the 9 edge pairs
    u1, u2 = u1[words], u2[words]
    kernels = [_gaussians] + [lambda a, b, s=s: _stable_cms(s, a, b) for s in (0.3, 1.5, 1.99)]
    for kernel in kernels:
        want = kernel(u1, u2)
        for n in range(1, 18):
            for shift in range(words.size):
                at = (np.arange(n) + shift) % words.size
                assert_bitwise(kernel(u1[at], u2[at]), want[at])


@pytest.mark.parametrize("name", sorted(ORACLE_SPECS))
@pytest.mark.parametrize("cores", [1, 2])
@pytest.mark.parametrize("chunk", [None, 999, 10**6])
def test_simulate_matches_whole_array_oracle(monkeypatch, name, cores, chunk):
    set_cores(monkeypatch, cores)
    set_chunk(monkeypatch, chunk)
    spec = ORACLE_SPECS[name]
    ens = ensemble_from_density(gaussian(GRID, std=1.0), 70_001, seed=21)
    start = ens.positions.copy()
    run = simulate(ens, spec, dt=1e-2, t_final=0.05)
    assert_bitwise(run.final, simulate_oracle(ens, spec, 1e-2, 5))
    assert_bitwise(ens.positions, start)  # the caller's start is left alone
    assert not np.shares_memory(run.final, ens.positions)


# one spec per increment kind a move adds: "gauss" alone (local Brownian),
# "variable" (tanh Sigma, with a Brownian "gauss" and a time-dependent
# drift), "jump" (fractional) and "jumps" (tempered, with its "gauss" proxy)
KIND_SPECS = {
    "gauss": ou_brownian_spec(),
    "variable": ORACLE_SPECS["brownian-variable"],
    "jump": ORACLE_SPECS["fractional"],
    "jumps": ORACLE_SPECS["tempered"],
}


@pytest.mark.parametrize("kind", sorted(KIND_SPECS))
def test_move_in_place_matches_move_out_of_place(kind):
    stepper = _ParticleStepper(KIND_SPECS[kind], 1e-2)
    x = ensemble_from_density(gaussian(GRID, std=1.0), 5_001, seed=7).positions
    terms = stepper.increments(_uniforms(7, 1, 0, x.size, stepper.stride))
    assert kind in [k for k, _ in terms]
    want = np.empty_like(x)
    stepper.move(x, 0.3, terms, out=want)
    x_in_place = x.copy()
    stepper.move(x_in_place, 0.3, terms, out=x_in_place)
    assert_bitwise(x_in_place, want)


@pytest.mark.parametrize("cores", [1, 2])
def test_simulate_holds_one_position_buffer(monkeypatch, cores):
    # peak of what simulate allocates, in position arrays of n doubles:
    # 1.20 (1 core) and 1.45 (2 cores) for the chunk-major march, which holds
    # the position buffer and the temporaries of one chunk per thread; 2.19
    # and 2.44 for a march that also keeps an n-length buffer of weight
    # values for the records. The bound leaves 0.15 of an array, 160 KB,
    # above the larger of the two.
    set_cores(monkeypatch, cores)
    monkeypatch.setattr(particles, "_CHUNK", 4096)
    n = 1 << 17
    weights = {"pow0.5": WeightFunction.power(0.5)}
    spec = ou_frac_spec()
    ens = ensemble_at(0.5, n, seed=4)
    # a first run pays the one-off allocations
    simulate(ens, spec, dt=1e-2, t_final=0.04, moment_weights=weights)
    tracemalloc.start()
    try:
        run = simulate(ens, spec, dt=1e-2, t_final=0.04, moment_weights=weights)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(run.times) == 5
    assert peak <= 1.6 * 8 * n


@pytest.mark.parametrize("name", sorted(ORACLE_SPECS))
@pytest.mark.parametrize("cores", [1, 2])
@pytest.mark.parametrize("chunk", [particles._CHUNK, 999, 10**6])
def test_coupling_matches_whole_array_oracle(monkeypatch, name, cores, chunk):
    set_cores(monkeypatch, cores)
    monkeypatch.setattr(particles, "_CHUNK", chunk)
    spec = ORACLE_SPECS[name]
    run = reflection_coupling_run(spec, 1.0, -1.0, dt=1e-2, t_final=0.1, n_pairs=40_001,
                                  seed=3, eps_couple=0.05)
    x, y, t_couple, frac = coupling_oracle(spec, 1.0, -1.0, 1e-2, 10, 40_001, 3, 0.05)
    assert np.isfinite(t_couple).any() and not np.isfinite(t_couple).all()
    assert_bitwise(run.x_final, x)
    assert_bitwise(run.y_final, y)
    assert_bitwise(run.coupling_times, t_couple)
    assert_bitwise(run.uncoupled_fraction, frac)


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
    x, y, t_couple, frac = coupling_oracle(spec, 1.0, -1.0, 1e-2, 10, 20_001, 8, 0.05)
    assert_bitwise(run.x_final, x)
    assert_bitwise(run.y_final, y)
    assert_bitwise(run.coupling_times, t_couple)
    assert_bitwise(run.uncoupled_fraction, frac)


def test_failed_chunk_cancels_the_chunks_not_yet_started(monkeypatch):
    # two cores, but a pool of one thread: chunk 1 holds the thread while the
    # failure of chunk 0 is raised, so chunks 2..63 are still queued and must
    # never run
    ran, gate = set(), threading.Event()

    def advance(i0, i1):
        if i0 == 0:
            raise NumericalFailure("chunk 0")
        gate.wait(0.1)
        ran.add(i0)

    # chunks hold at least 128 particles, the pairwise summation block
    monkeypatch.setattr(particles, "_CHUNK", 128)
    set_cores(monkeypatch, 2)
    pools = []

    def one_thread(max_workers):
        pools.append(max_workers)
        return ThreadPoolExecutor(max_workers=1)

    monkeypatch.setattr(particles, "ThreadPoolExecutor", one_thread)
    bounds = particles._chunk_bounds(64 * 128)
    assert len(bounds) == 64
    with pytest.raises(NumericalFailure, match="chunk 0"):
        particles._for_chunks(advance, 64 * 128)
    assert pools == [2]
    assert ran <= {bounds[1][0]}


@pytest.mark.parametrize("cores", [1, 2])
@pytest.mark.parametrize("chunk", [None, 999])
def test_ensemble_from_density_matches_one_block_draw(monkeypatch, cores, chunk):
    # 70_001 particles in chunks of unequal length, drawn on the pool at 2 cores
    set_cores(monkeypatch, cores)
    set_chunk(monkeypatch, chunk)
    m = gaussian(GRID, center=0.5, std=1.2)
    n = 70_001
    assert len(particles._chunk_bounds(n)) > 1
    ens = ensemble_from_density(m, n, seed=9)
    cell_mass = m.values * GRID.dx
    cdf = np.cumsum(cell_mass) / cell_mass.sum()
    u = uniforms_oracle(9, 0, 0, n, 1)[:, 0]
    idx = np.searchsorted(cdf, u, side="right")
    prev = np.where(idx > 0, cdf[np.maximum(idx - 1, 0)], 0.0)
    frac = (u - prev) / np.maximum(cdf[idx] - prev, 1e-300)
    assert_bitwise(ens.positions, GRID.nodes[idx] - 0.5 * GRID.dx + frac * GRID.dx)


def test_ensemble_from_density_keeps_the_top_uniform_on_the_grid(monkeypatch):
    # the running sum of these cell masses, divided by their pairwise sum,
    # ends below 1, so the largest uniform, 1 - 2**-53, lay past every cell
    m = gaussian(Grid(64, 4.0), -1.0, 0.7)
    cell_mass = m.values * m.grid.dx
    assert (np.cumsum(cell_mass) / cell_mass.sum())[-1] < 1.0
    monkeypatch.setattr(particles, "_uniforms",
                        lambda seed, stream, start, count, stride: np.full((count, stride), 1.0 - 2.0**-53))
    ens = ensemble_from_density(m, 3)
    assert np.all(np.abs(ens.positions - m.grid.nodes[-1]) <= 0.5 * m.grid.dx)


@pytest.mark.parametrize("cores", [1, 2, 8])
@pytest.mark.parametrize("chunk", [None, 999, 10**6])
def test_recorded_moments_match_whole_array_mean(monkeypatch, cores, chunk):
    # chunks write disjoint slices of one array; with more threads than
    # cores and frequent switches a lost write would change the mean
    set_cores(monkeypatch, cores)
    set_chunk(monkeypatch, chunk)
    weights = {"pow0.5": WeightFunction.power(0.5), "pow1.2": WeightFunction.power(1.2)}
    ens = ensemble_from_density(gaussian(GRID, std=1.0), 70_001, seed=21)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        run = simulate(ens, ORACLE_SPECS["fractional"], dt=1e-2, t_final=0.05, record_every=5,
                       moment_weights=weights)
    finally:
        sys.setswitchinterval(interval)
    for name, w in weights.items():
        want = [np.mean(w(ens.positions)), np.mean(w(run.final))]
        assert np.array_equal(run.moments[name], want)


@pytest.mark.parametrize("n", [1, 7, 8, 128, 129, 999, 70_001, 1_000_000])
@pytest.mark.parametrize("chunk", [None, 999, 4096])
def test_tree_sum_of_chunk_sums_is_np_sum(monkeypatch, n, chunk):
    # squared Cauchy draws span many magnitudes, so the order in which the
    # chunk sums are added shows in the bits
    set_chunk(monkeypatch, chunk)
    bounds = particles._chunk_bounds(n)
    assert [i0 for i0, _ in bounds] == [0] + [i1 for _, i1 in bounds[:-1]] and bounds[-1][1] == n
    assert max(i1 - i0 for i0, i1 in bounds) <= max(particles._CHUNK, 128)
    v = np.random.default_rng(n).standard_cauchy(n) ** 2
    assert_bitwise(particles._tree_sum(n, lambda i0, i1: np.sum(v[i0:i1])), np.sum(v))


POWER_BLOW_UP = GeneratorSpec(LocalDiffusionSpec.constant(0.0), LevyMeasureSpec.fractional(1.5),
                              DriftSpec.power(1e4, 2.0))  # x -> -9999 x plus a jump per step


@pytest.mark.parametrize("cores", [1, 2])
@pytest.mark.parametrize("chunk", [None, 999])
def test_failure_is_the_earliest_step_over_all_chunks(monkeypatch, cores, chunk):
    # the last chunk starts near 1e150 and leaves the finite range about 40
    # steps before the first chunk, which starts near 1: a march that
    # reported the first chunk's failure would name a later time
    set_cores(monkeypatch, cores)
    set_chunk(monkeypatch, chunk)
    x = ensemble_from_density(gaussian(GRID, std=1.0), 70_001, seed=21).positions
    x[-500:] *= 1e150
    ens = ParticleEnsemble(x, seed=5)
    with pytest.raises(NumericalFailure, match="particle positions left the finite range") as run:
        simulate(ens, POWER_BLOW_UP, dt=1.0, t_final=200.0)
    monkeypatch.setattr(particles, "_CHUNK", x.size)
    assert len(particles._chunk_bounds(x.size)) == 1
    with pytest.raises(NumericalFailure) as whole:
        simulate(ens, POWER_BLOW_UP, dt=1.0, t_final=200.0)
    assert str(run.value) == str(whole.value)
    with pytest.raises(NumericalFailure) as first:
        simulate(ParticleEnsemble(x[:-500], seed=5), POWER_BLOW_UP, dt=1.0, t_final=200.0)
    assert str(first.value) != str(run.value)


def test_particle_clock_is_a_step_count():
    # step k ends at t = k * dt, as on the grid clocks; summing dt misses k * dt
    # on 89 of these 100 steps and ends at 1.0000000000000007
    drift = DriftSpec.perturbed_power(1.0, 1.5, 0.3)
    read = []

    def spy(t, x):
        read.append(t)
        return drift.wave(t, x)

    spec = GeneratorSpec(LocalDiffusionSpec.constant(1.0), LevyMeasureSpec.none(),
                         dataclasses.replace(drift, wave=spy))
    run = simulate(ensemble_at(0.5, 100, seed=3), spec, dt=0.01, t_final=1.0)
    want = [k * 0.01 for k in range(101)]
    assert run.times.tolist() == want
    assert read == want[:-1]  # step k reads the drift at its start, (k - 1) * dt


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
    monkeypatch.setattr(particles, "_CHUNK", 10_000)
    for record_every in (1, n_steps):
        with pytest.raises(NumericalFailure) as info:
            simulate(ensemble_at(1.0, 40_000, seed=4), spec, dt=1.0, t_final=float(n_steps),
                     record_every=record_every)
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith("particle positions left the finite range at t=")
    t_bad = float(messages[0].rsplit("t=", 1)[1])
    assert 50 < t_bad < n_steps
    # one step earlier every position was still finite
    ok = simulate(ensemble_at(1.0, 40_000, seed=4), spec, dt=1.0, t_final=t_bad - 1.0,
                  record_every=10**9)
    assert np.all(np.isfinite(ok.final))


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
