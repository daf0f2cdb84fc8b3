"""Particle side of the dynamics: Euler steps with exact stable increments,
ensembles sampled from grid densities, the empirical characteristic function,
and reflection coupling.

Randomness comes from counter-based Philox substreams. Every step of every
particle consumes a fixed number of 64-bit words determined by the generator
spec alone, rounded up to whole 4-word counter blocks, so a block of
particles can be advanced to its offset exactly and trajectories are bitwise
identical no matter how the ensemble is chunked across workers. Stream id 0
seeds initial positions; step k draws from stream id k + 1.

A step runs over fixed chunks of particles, each of which draws its own
uniform block and writes its own slice of the new positions, so the chunks
can be mapped over a thread pool: numpy releases the interpreter lock in the
Philox fill and in the ufuncs, and the bytes do not depend on the worker
count.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.special import pdtrc

from .generators import GeneratorSpec, LevyMeasureSpec
from .grids import DensityField
from .operators import RunGuard
from .weights import WeightFunction

__all__ = [
    "ParticleEnsemble",
    "ParticleRun",
    "CouplingRun",
    "ensemble_at",
    "ensemble_from_density",
    "step_ensemble",
    "simulate",
    "empirical_cf",
    "reflection_coupling_run",
]

_JUMP_CAP = 8  # compound-Poisson jumps kept per tempered step; excess reported
# particles per chunk when the caller sets none: a fractional chunk's uniform
# block (1 MB) and its temporaries stay in a 2-4 MB L2 cache. A 1e6-particle
# step on one thread of a 2-vCPU Xeon timed flat from 16k to 128k particles
# per chunk and 27% slower at 256k.
_CHUNK = 32768


# ---------------------------------------------------------------------------
# raw randomness


def _uniforms(seed: int, stream: int, start: int, count: int, stride: int) -> np.ndarray:
    """(count, stride) uniforms on [0, 1) for particles [start, start+count),
    independent of how the index range is split across calls."""
    if stride % 4 != 0:
        raise ValueError(f"stride must be a whole number of counter blocks, got {stride}")
    bg = np.random.Philox(key=np.array([seed, stream], dtype=np.uint64))
    bg.advance((stride // 4) * start)
    # random() maps each raw word to (word >> 11) * 2**-53, one word per double
    return np.random.Generator(bg).random(count * stride).reshape(count, stride)


def _gaussians(u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """sqrt(-2 log1p(-u1)) * cos(2 pi u2), evaluated in place in that order.
    Box-Muller: fixed two-word consumption, unlike the ziggurat."""
    r = np.negative(u1)
    np.log1p(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    c = np.multiply(u2, 2.0 * np.pi)
    np.cos(c, out=c)
    r *= c
    return r


def _stable_cms(sigma: float, u_angle: np.ndarray, u_exp: np.ndarray) -> np.ndarray:
    """Symmetric sigma-stable variate with characteristic function
    e^{-|xi|^sigma}, by the Chambers-Mallows-Stuck construction:
    sin(sigma th) / cos(th)^(1/sigma) * (cos((1-sigma) th) / w)^((1-sigma)/sigma)
    with th = pi (u_angle - 0.5) and w = max(-log1p(-u_exp), 1e-12), each
    operation done in place in that order."""
    if sigma == 2.0:
        g = _gaussians(u_angle, u_exp)
        g *= math.sqrt(2.0)
        return g
    theta = np.subtract(u_angle, 0.5)
    theta *= np.pi
    w = np.negative(u_exp)
    np.log1p(w, out=w)
    np.negative(w, out=w)
    np.maximum(w, 1e-12, out=w)
    a = np.multiply(theta, sigma)
    np.sin(a, out=a)
    c = np.cos(theta)
    c **= 1.0 / sigma
    a /= c
    theta *= 1.0 - sigma
    np.cos(theta, out=theta)
    theta /= w
    theta **= (1.0 - sigma) / sigma
    a *= theta
    return a


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
        # P(count > cap) from the Poisson tail itself: 1 - pmf.sum() is only
        # the rounding of the sum at the small r of a time step
        self.cap_excess = float(pdtrc(_JUMP_CAP, r))
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

    def move(self, x: np.ndarray, t: float, u: np.ndarray, out: np.ndarray,
             gauss_flip: np.ndarray | None = None,
             jump_threshold: np.ndarray | None = None) -> None:
        """One Euler increment from the uniform block u, written to out.
        gauss_flip negates the lambda0 Brownian (and small-jump proxy) rows
        where set; jump_threshold reflects jump increments below min(1, r/2)
        row-wise. Both default to the plain synchronous move."""
        spec, dt = self.spec, self.dt
        np.subtract(x, spec.drift(t, x) * dt, out=out)
        cols = self.columns
        if "brownian" in cols:
            j = cols["brownian"]
            g = _gaussians(u[:, j], u[:, j + 1])
            if gauss_flip is not None:
                g = np.where(gauss_flip, -g, g)
            g *= math.sqrt(2.0 * spec.diffusion.lambda0 * dt)
            out += g
        if "variable" in cols:
            j = cols["variable"]
            g = _gaussians(u[:, j], u[:, j + 1])
            s = np.sqrt(spec.diffusion.sigma_squared(x))
            s *= math.sqrt(2.0 * dt)
            s *= g
            out += s
        if "stable" in cols:
            j = cols["stable"]
            inc = _stable_cms(spec.levy.sigma, u[:, j], u[:, j + 1])
            inc *= (spec.levy.scale * dt) ** (1.0 / spec.levy.sigma)
            if jump_threshold is not None:
                inc = np.where(np.abs(inc) < jump_threshold, -inc, inc)
            out += inc
        if self.tempered is not None:
            j = cols["small"]
            g = _gaussians(u[:, j], u[:, j + 1])
            if gauss_flip is not None:
                g = np.where(gauss_flip, -g, g)
            g *= math.sqrt(self.tempered.small_variance * dt)
            out += g
            jumps = self.tempered.draw(u[:, cols["count"]],
                                       u[:, cols["sizes"]:cols["sizes"] + 2 * _JUMP_CAP])
            if jump_threshold is not None:
                jumps = np.where(np.abs(jumps) < jump_threshold[:, None], -jumps, jumps)
            out += jumps.sum(axis=1)

    @property
    def cap_excess(self) -> float | None:
        """Poisson mass beyond the tempered jump cap; None without tempered jumps."""
        return None if self.tempered is None else self.tempered.cap_excess


def _chunk_bounds(n: int, chunk_size: int | None):
    """The fewest equal chunks of at most chunk_size (default _CHUNK)
    particles, so that threads get even shares."""
    size = _CHUNK if chunk_size is None else chunk_size
    if size < 1:
        raise ValueError(f"chunk_size must be at least 1, got {chunk_size}")
    k = -(-n // size)
    edges = [n * i // k for i in range(k + 1)]
    return list(zip(edges[:-1], edges[1:]))


@contextmanager
def _chunk_pool(n: int, chunk_size: int | None):
    """Thread pool for one run's chunks, one thread per core this process may
    run on but no more than there are chunks; None (run inline) when that is
    one thread."""
    workers = min(len(os.sched_getaffinity(0)), len(_chunk_bounds(n, chunk_size)))
    if workers == 1:
        yield None
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        yield pool


def _for_chunks(advance, n: int, chunk_size: int | None, pool: ThreadPoolExecutor | None):
    """advance(i0, i1) for every chunk, on the pool when there is one. Chunks
    write disjoint slices. The first failure in chunk order is raised once
    the chunks already running have finished; chunks not yet started are
    cancelled."""
    bounds = _chunk_bounds(n, chunk_size)
    if pool is None:
        for i0, i1 in bounds:
            advance(i0, i1)
        return
    futures = [pool.submit(advance, i0, i1) for i0, i1 in bounds]
    try:
        for future in futures:
            future.result()
    except BaseException:
        for future in futures:
            future.cancel()
        wait(futures)
        raise


def step_ensemble(ens: ParticleEnsemble, spec: GeneratorSpec, dt: float,
                  chunk_size: int | None = None,
                  _stepper: _ParticleStepper | None = None,
                  _pool: ThreadPoolExecutor | None = None) -> ParticleEnsemble:
    """Advance every particle one Euler step in chunks of at most chunk_size
    particles (a cache-sized default when None), and raise NumericalFailure
    if a position leaves the finite range. The result is bitwise independent
    of chunk_size and of the pool the chunks run on."""
    stepper = _stepper if _stepper is not None else _ParticleStepper(spec, dt)
    stream = ens.step_index + 1
    t_new = ens.t + dt
    new = np.empty_like(ens.positions)

    def advance(i0: int, i1: int):
        u = _uniforms(ens.seed, stream, i0, i1 - i0, stepper.stride)
        stepper.move(ens.positions[i0:i1], ens.t, u, out=new[i0:i1])
        RunGuard.check_positions(new[i0:i1], t_new)

    _for_chunks(advance, ens.n_particles, chunk_size, _pool)
    return ParticleEnsemble(new, t_new, ens.seed, ens.step_index + 1)


@dataclass(frozen=True)
class ParticleRun:
    """Recorded moment series plus the final ensemble. cap_excess is the
    per-step Poisson mass beyond the tempered jump cap (None without
    tempered jumps)."""

    times: np.ndarray
    moments: dict
    final: ParticleEnsemble
    dt: float
    cap_excess: float | None = None

    def moment_series(self, name: str) -> np.ndarray:
        return self.moments[name]


def simulate(ens: ParticleEnsemble, spec: GeneratorSpec, dt: float, t_final: float,
             record_every: int = 1,
             moment_weights: dict[str, WeightFunction] | None = None,
             chunk_size: int | None = None) -> ParticleRun:
    """March the ensemble to t_final recording mean weight values (empirical
    weighted moments) every record_every steps. Every step is checked for
    finiteness. The chunks of a step run on a thread pool with one thread per
    available core; the result does not depend on the core count."""
    guard = RunGuard(dt, t_final, record_every, t0=ens.t)
    stepper = _ParticleStepper(spec, dt)
    moment_weights = moment_weights or {}

    times, moments = [], {name: [] for name in moment_weights}

    def record():
        times.append(ens.t)
        for name, w in moment_weights.items():
            moments[name].append(float(np.mean(w(ens.positions))))

    record()
    with _chunk_pool(ens.n_particles, chunk_size) as pool:
        for k in range(1, guard.n_steps + 1):
            ens = step_ensemble(ens, spec, dt, chunk_size, _stepper=stepper, _pool=pool)
            if guard.records(k):
                record()

    return ParticleRun(
        times=np.array(times),
        moments={k: np.array(v) for k, v in moments.items()},
        final=ens,
        dt=dt,
        cap_excess=stepper.cap_excess,
    )


# ---------------------------------------------------------------------------
# measurement


def empirical_cf(ens: ParticleEnsemble, xi_values: np.ndarray) -> np.ndarray:
    """Re of the empirical characteristic function at each xi: mean cos(xi X).
    The sine part carries no signal for the symmetric laws checked here, so
    dropping it halves the Monte Carlo noise."""
    xi = np.atleast_1d(np.asarray(xi_values, dtype=float))
    return np.array([float(np.mean(np.cos(v * ens.positions))) for v in xi])


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
    cap_excess: float | None = None  # as in ParticleRun


def reflection_coupling_run(spec: GeneratorSpec, x0: float, y0: float, dt: float,
                            t_final: float, n_pairs: int, seed: int = 0,
                            eps_couple: float = 1e-3,
                            record_every: int = 1) -> CouplingRun:
    """Advance n_pairs independent (X, Y) pairs with coupled noise: the
    lambda0 Brownian increment is reflected (negated, d = 1) for Y while the
    pair is apart, jump increments are reflected only below min(1, r/2) and
    synchronized above, and a pair couples once |X - Y| < eps_couple, after
    which it moves as one. Pairs are stepped in chunks on a thread pool as in
    simulate: each chunk draws one uniform block that moves both X and Y."""
    stepper = _ParticleStepper(spec, dt)
    guard = RunGuard(dt, t_final, record_every)

    x = np.full(n_pairs, float(x0))
    y = np.full(n_pairs, float(y0))
    coupled = np.abs(x - y) < eps_couple
    y[coupled] = x[coupled]
    t_couple = np.where(coupled, 0.0, np.inf)

    times, frac = [0.0], [float(np.mean(~coupled))]
    t = 0.0
    with _chunk_pool(n_pairs, None) as pool:
        for k in range(1, guard.n_steps + 1):
            x_new, y_new = np.empty_like(x), np.empty_like(y)
            t_new = k * dt

            def advance(i0: int, i1: int):
                u = _uniforms(seed, k, i0, i1 - i0, stepper.stride)
                c = coupled[i0:i1]
                xs, ys = x_new[i0:i1], y_new[i0:i1]
                thr = np.where(c, 0.0, np.minimum(1.0, 0.5 * np.abs(x[i0:i1] - y[i0:i1])))
                stepper.move(x[i0:i1], t, u, out=xs)
                stepper.move(y[i0:i1], t, u, out=ys, gauss_flip=~c, jump_threshold=thr)
                meet = ~c & (np.abs(xs - ys) < eps_couple)
                ys[meet] = xs[meet]
                t_couple[i0:i1][meet] = t_new
                c |= meet
                guard.check_positions(xs, t_new)
                guard.check_positions(ys, t_new)

            _for_chunks(advance, n_pairs, None, pool)
            t = t_new
            x, y = x_new, y_new
            if guard.records(k):
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
        cap_excess=stepper.cap_excess,
    )
