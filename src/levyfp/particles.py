"""Particle side of the dynamics: Euler steps with exact stable increments,
histogram cross-checks against grid densities, and reflection coupling.

Randomness comes from counter-based Philox substreams. Every step of every
particle consumes a fixed number of 64-bit words determined by the generator
spec alone, rounded up to whole 4-word counter blocks, so a block of
particles can be advanced to its offset exactly and trajectories are bitwise
identical no matter how the ensemble is chunked across workers. Stream id 0
seeds initial positions; step k draws from stream id k + 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .generators import GeneratorSpec, LevyMeasureSpec
from .grids import DensityField
from .norms import weighted_tv_norm
from .weights import WeightFunction

__all__ = [
    "ParticleEnsemble",
    "ParticleRun",
    "CouplingRun",
    "sample_stable",
    "ensemble_at",
    "ensemble_from_density",
    "step_ensemble",
    "simulate",
    "empirical_cf",
    "ensemble_vs_grid_distance",
    "reflection_coupling_run",
]

_JUMP_CAP = 8  # compound-Poisson jumps kept per tempered step; excess reported


# ---------------------------------------------------------------------------
# raw randomness


def _uniforms(seed: int, stream: int, start: int, count: int, stride: int) -> np.ndarray:
    """(count, stride) uniforms on [0, 1) for particles [start, start+count),
    independent of how the index range is split across calls."""
    if stride % 4 != 0:
        raise ValueError(f"stride must be a whole number of counter blocks, got {stride}")
    bg = np.random.Philox(key=np.array([seed, stream], dtype=np.uint64))
    bg.advance((stride // 4) * start)
    raw = bg.random_raw(count * stride)
    return ((raw >> np.uint64(11)) * 2.0**-53).reshape(count, stride)


def _gaussians(u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    # Box-Muller: fixed two-word consumption, unlike the ziggurat
    return np.sqrt(-2.0 * np.log1p(-u1)) * np.cos(2.0 * np.pi * u2)


def _stable_cms(sigma: float, u_angle: np.ndarray, u_exp: np.ndarray) -> np.ndarray:
    """Symmetric sigma-stable variate with characteristic function
    e^{-|xi|^sigma}, by the Chambers-Mallows-Stuck construction."""
    if sigma == 2.0:
        return math.sqrt(2.0) * _gaussians(u_angle, u_exp)
    theta = np.pi * (u_angle - 0.5)
    w = np.maximum(-np.log1p(-u_exp), 1e-12)
    a = np.sin(sigma * theta) / np.cos(theta) ** (1.0 / sigma)
    b = (np.cos((1.0 - sigma) * theta) / w) ** ((1.0 - sigma) / sigma)
    return a * b


def sample_stable(sigma: float, scale: float, rng: np.random.Generator, size=None):
    """Draw symmetric sigma-stable variates scaled so the characteristic
    function is e^{-|scale * xi|^sigma}; sigma = 2 is the Gaussian branch."""
    if not 0.0 < sigma <= 2.0:
        raise ValueError(f"stability index must lie in (0, 2], got {sigma}")
    n = 1 if size is None else int(size)
    u = rng.random((n, 2))
    out = scale * _stable_cms(sigma, u[:, 0], u[:, 1])
    return float(out[0]) if size is None else out


# ---------------------------------------------------------------------------
# ensembles


@dataclass(frozen=True)
class ParticleEnsemble:
    """Positions plus the substream bookkeeping needed to continue the run."""

    positions: np.ndarray
    t: float
    seed: int
    step_index: int = 0

    def __post_init__(self):
        if self.positions.ndim != 1 or self.positions.size < 1:
            raise ValueError("need at least one particle in a flat position array")
        if not np.all(np.isfinite(self.positions)):
            raise ValueError("positions must be finite")

    @property
    def n_particles(self) -> int:
        return self.positions.size


def ensemble_at(x0: float, n_particles: int, seed: int = 0, t: float = 0.0) -> ParticleEnsemble:
    return ParticleEnsemble(np.full(n_particles, float(x0)), t, seed)


def ensemble_from_density(m: DensityField, n_particles: int, seed: int = 0) -> ParticleEnsemble:
    """Inverse-CDF sample of the piecewise-constant law the grid density
    defines on its cells. Draws one word block per particle from stream 0."""
    vals = m.values
    if np.any(vals < 0):
        raise ValueError("cannot sample a signed density")
    g = m.grid
    cell_mass = vals * g.cell_volume
    total = cell_mass.sum()
    if total <= 0:
        raise ValueError("density has no mass to sample")
    cdf = np.cumsum(cell_mass) / total
    u = _uniforms(seed, 0, 0, n_particles, 4)[:, 0]
    idx = np.searchsorted(cdf, u, side="right")
    left = g.nodes[idx] - 0.5 * g.dx
    prev = np.where(idx > 0, cdf[np.maximum(idx - 1, 0)], 0.0)
    frac = (u - prev) / np.maximum(cdf[idx] - prev, 1e-300)
    return ParticleEnsemble(left + frac * g.dx, 0.0, seed)


# ---------------------------------------------------------------------------
# stepping


class _TemperedJumps:
    """Compound-Poisson representation of a tempered kernel above z_cut plus
    a Gaussian proxy for the sub-cutoff activity (variance = small-jump
    second moment). The Poisson count is capped; the neglected probability
    is exposed for the caller to judge."""

    def __init__(self, levy: LevyMeasureSpec, dt: float, z_cut: float = 0.5):
        rho = lambda z: levy.density(np.array([z]))[0]
        self.z_cut = z_cut
        self.rate = 2.0 * quad(rho, z_cut, np.inf)[0]
        self.small_variance = 2.0 * quad(lambda z: z * z * rho(z), 0.0, z_cut)[0]
        # one-sided size table: tempering kills the density ~40 e-folds out
        zs = np.linspace(z_cut, z_cut + 45.0, 4097)
        dens = levy.density(zs)
        c = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(zs))])
        self._size_cdf = c / c[-1]
        self._size_grid = zs
        r = self.rate * dt
        pmf = np.array([math.exp(-r) * r**k / math.factorial(k) for k in range(_JUMP_CAP + 1)])
        self.cap_excess = float(1.0 - pmf.sum())
        self._count_cdf = np.cumsum(pmf)[:-1]  # u beyond the last edge -> cap

    def draw(self, u_count: np.ndarray, u_sizes: np.ndarray) -> np.ndarray:
        """Signed per-slot jumps (n, cap) with inactive slots zeroed."""
        counts = np.searchsorted(self._count_cdf, u_count, side="right")
        usz = u_sizes.reshape(-1, _JUMP_CAP, 2)
        sizes = np.interp(usz[:, :, 0], self._size_cdf, self._size_grid)
        signs = np.where(usz[:, :, 1] < 0.5, -1.0, 1.0)
        active = np.arange(_JUMP_CAP)[None, :] < counts[:, None]
        return np.where(active, signs * sizes, 0.0)


class _ParticleStepper:
    """Column layout and increment arithmetic for one (spec, dt) pair."""

    def __init__(self, spec: GeneratorSpec, dt: float):
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        self.spec = spec
        self.dt = dt
        self.tempered = None
        cols = {}
        c = 0
        if spec.diffusion.lambda0 > 0:
            cols["brownian"] = c
            c += 2
        if spec.diffusion.has_variable_part:
            cols["variable"] = c
            c += 2
        if spec.levy.kind == "fractional":
            cols["stable"] = c
            c += 2
        elif spec.levy.kind == "tempered":
            self.tempered = _TemperedJumps(spec.levy, dt)
            cols["small"] = c
            c += 2
            cols["count"] = c
            c += 1
            cols["sizes"] = c
            c += 2 * _JUMP_CAP
        self.columns = cols
        self.stride = 4 * max(1, math.ceil(c / 4))

    def move(self, x: np.ndarray, t: float, u: np.ndarray,
             gauss_flip: np.ndarray | None = None,
             jump_threshold: np.ndarray | None = None) -> np.ndarray:
        """One Euler increment from the uniform block u. gauss_flip negates
        the lambda0 Brownian (and small-jump proxy) rows where set;
        jump_threshold reflects jump increments below min(1, r/2) row-wise.
        Both default to the plain synchronous move."""
        spec, dt = self.spec, self.dt
        out = x - spec.drift(t, x) * dt
        cols = self.columns
        if "brownian" in cols:
            j = cols["brownian"]
            g = _gaussians(u[:, j], u[:, j + 1])
            if gauss_flip is not None:
                g = np.where(gauss_flip, -g, g)
            out = out + math.sqrt(2.0 * spec.diffusion.lambda0 * dt) * g
        if "variable" in cols:
            j = cols["variable"]
            g = _gaussians(u[:, j], u[:, j + 1])
            out = out + math.sqrt(2.0 * dt) * np.sqrt(spec.diffusion.sigma_squared(x)) * g
        if "stable" in cols:
            j = cols["stable"]
            s = _stable_cms(spec.levy.sigma, u[:, j], u[:, j + 1])
            inc = (spec.levy.scale * dt) ** (1.0 / spec.levy.sigma) * s
            if jump_threshold is not None:
                inc = np.where(np.abs(inc) < jump_threshold, -inc, inc)
            out = out + inc
        if self.tempered is not None:
            j = cols["small"]
            g = _gaussians(u[:, j], u[:, j + 1])
            if gauss_flip is not None:
                g = np.where(gauss_flip, -g, g)
            out = out + math.sqrt(self.tempered.small_variance * dt) * g
            jumps = self.tempered.draw(u[:, cols["count"]],
                                       u[:, cols["sizes"]:cols["sizes"] + 2 * _JUMP_CAP])
            if jump_threshold is not None:
                jumps = np.where(np.abs(jumps) < jump_threshold[:, None], -jumps, jumps)
            out = out + jumps.sum(axis=1)
        return out


def _chunk_bounds(n: int, chunk_size: int | None):
    if chunk_size is None or chunk_size >= n:
        return [(0, n)]
    edges = list(range(0, n, chunk_size)) + [n]
    return list(zip(edges[:-1], edges[1:]))


def step_ensemble(ens: ParticleEnsemble, spec: GeneratorSpec, dt: float,
                  chunk_size: int | None = None,
                  _stepper: _ParticleStepper | None = None) -> ParticleEnsemble:
    """Advance every particle one Euler step. chunk_size only controls the
    working-set size; the result is bitwise independent of it."""
    stepper = _stepper if _stepper is not None else _ParticleStepper(spec, dt)
    stream = ens.step_index + 1
    new = np.empty_like(ens.positions)
    for i0, i1 in _chunk_bounds(ens.n_particles, chunk_size):
        u = _uniforms(ens.seed, stream, i0, i1 - i0, stepper.stride)
        new[i0:i1] = stepper.move(ens.positions[i0:i1], ens.t, u)
    return ParticleEnsemble(new, ens.t + dt, ens.seed, ens.step_index + 1)


@dataclass(frozen=True)
class ParticleRun:
    """Recorded moment series plus the final ensemble."""

    times: np.ndarray
    moments: dict
    final: ParticleEnsemble
    dt: float

    def moment_series(self, name: str) -> np.ndarray:
        return self.moments[name]


def simulate(ens: ParticleEnsemble, spec: GeneratorSpec, dt: float, t_final: float,
             record_every: int = 1,
             moment_weights: dict[str, WeightFunction] | None = None,
             chunk_size: int | None = None) -> ParticleRun:
    """March the ensemble to t_final recording mean weight values (empirical
    weighted moments) every record_every steps."""
    n_steps = int(round((t_final - ens.t) / dt))
    if abs(ens.t + n_steps * dt - t_final) > 1e-9 * max(1.0, abs(t_final)):
        raise ValueError(f"t_final={t_final} is not an integer number of steps of dt={dt}")
    stepper = _ParticleStepper(spec, dt)
    moment_weights = moment_weights or {}

    times, moments = [], {name: [] for name in moment_weights}

    def record():
        if not np.all(np.isfinite(ens.positions)):
            raise RuntimeError(f"particle positions left the finite range at t={ens.t:g}")
        times.append(ens.t)
        for name, w in moment_weights.items():
            moments[name].append(float(np.mean(w(ens.positions))))

    record()
    for k in range(1, n_steps + 1):
        ens = step_ensemble(ens, spec, dt, chunk_size, _stepper=stepper)
        if k % record_every == 0 or k == n_steps:
            record()

    return ParticleRun(
        times=np.array(times),
        moments={k: np.array(v) for k, v in moments.items()},
        final=ens,
        dt=dt,
    )


# ---------------------------------------------------------------------------
# measurement


def empirical_cf(ens: ParticleEnsemble, xi_values: np.ndarray) -> np.ndarray:
    """Re of the empirical characteristic function at each xi: mean cos(xi X).
    The sine part carries no signal for the symmetric laws checked here, so
    dropping it halves the Monte Carlo noise."""
    xi = np.atleast_1d(np.asarray(xi_values, dtype=float))
    return np.array([float(np.mean(np.cos(v * ens.positions))) for v in xi])


def ensemble_vs_grid_distance(ens: ParticleEnsemble, m: DensityField,
                              w: WeightFunction) -> float:
    """Weighted TV norm of (cell histogram of the ensemble) - m. Particles
    outside the box land in the end cells, which charges escaped mass to the
    distance instead of hiding it."""
    g = m.grid
    # node i owns [node_i - dx/2, node_i + dx/2), so round to the nearest node
    idx = np.clip(np.floor((ens.positions + g.half_width) / g.dx + 0.5).astype(int), 0, g.n - 1)
    hist = np.bincount(idx, minlength=g.n) / (ens.n_particles * g.dx)
    return weighted_tv_norm(DensityField(g, hist - m.values), w)


# ---------------------------------------------------------------------------
# reflection coupling


@dataclass(frozen=True)
class CouplingRun:
    """Survival statistics of the pairwise reflection coupling."""

    times: np.ndarray
    uncoupled_fraction: np.ndarray
    coupling_times: np.ndarray  # +inf where the pair never met
    eps_couple: float
    n_pairs: int
    x_final: np.ndarray
    y_final: np.ndarray


def reflection_coupling_run(spec: GeneratorSpec, x0: float, y0: float, dt: float,
                            t_final: float, n_pairs: int, seed: int = 0,
                            eps_couple: float = 1e-3,
                            record_every: int = 1) -> CouplingRun:
    """Advance n_pairs independent (X, Y) pairs with coupled noise: the
    lambda0 Brownian increment is reflected (negated, d = 1) for Y while the
    pair is apart, jump increments are reflected only below min(1, r/2) and
    synchronized above, and a pair couples once |X - Y| < eps_couple, after
    which it moves as one."""
    stepper = _ParticleStepper(spec, dt)
    n_steps = int(round(t_final / dt))
    if abs(n_steps * dt - t_final) > 1e-9 * max(1.0, t_final):
        raise ValueError(f"t_final={t_final} is not an integer number of steps of dt={dt}")

    x = np.full(n_pairs, float(x0))
    y = np.full(n_pairs, float(y0))
    coupled = np.abs(x - y) < eps_couple
    y[coupled] = x[coupled]
    t_couple = np.where(coupled, 0.0, np.inf)

    times, frac = [0.0], [float(np.mean(~coupled))]
    t = 0.0
    for k in range(1, n_steps + 1):
        u = _uniforms(seed, k, 0, n_pairs, stepper.stride)
        gap = np.abs(x - y)
        thr = np.where(coupled, 0.0, np.minimum(1.0, 0.5 * gap))
        x_new = stepper.move(x, t, u)
        y_new = stepper.move(y, t, u, gauss_flip=~coupled, jump_threshold=thr)
        t = k * dt
        meet = ~coupled & (np.abs(x_new - y_new) < eps_couple)
        y_new[meet] = x_new[meet]
        t_couple[meet] = t
        coupled |= meet
        x, y = x_new, y_new
        if k % record_every == 0 or k == n_steps:
            times.append(t)
            frac.append(float(np.mean(~coupled)))

    return CouplingRun(
        times=np.array(times),
        uncoupled_fraction=np.array(frac),
        coupling_times=t_couple,
        eps_couple=eps_couple,
        n_pairs=n_pairs,
        x_final=x,
        y_final=y,
    )
