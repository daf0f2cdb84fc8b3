"""Particle scheme: stable-increment oracles, determinism, histogram checks,
reflection coupling."""
import numpy as np
import pytest
from scipy.integrate import quad

from levyfp.forward import gaussian
from levyfp.generators import DriftSpec, GeneratorSpec, LevyMeasureSpec, LocalDiffusionSpec
from levyfp.grids import Grid
from levyfp.particles import (
    ParticleEnsemble,
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
