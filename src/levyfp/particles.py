"""Particle side of the dynamics: Euler runs from t = 0 with exact stable
increments (``simulate``), ensembles sampled from grid densities, the
empirical characteristic function of a run's final positions, and
reflection coupling.

Randomness comes from PCG64DXSM streams, one per step: step k = 1, 2, ...
draws from the stream seeded by SeedSequence([seed, k]), and stream 0 seeds
initial positions. Every particle of a step reads exactly the number of
64-bit words its generator spec uses, c, so particle i reads words
[c i, c (i + 1)) of its step's stream. A block of particles starting at i
jumps its stream ahead by c i words with PCG's exact ``advance``, and
trajectories are bitwise identical no matter how the ensemble is chunked
across workers.

Particles never interact, so a run marches chunk-major: each chunk of
particles runs every step in turn while its slice of the one position buffer
sits in cache, drawing its own uniform block per step and overwriting its
slice in place. One loop, ``_for_chunks``, maps the chunks of every run and
of every sampled ensemble over a thread pool: numpy releases the
interpreter lock in the PCG fill and in the ufuncs, and the bytes do not
depend on the worker count. The chunks are leaves of numpy's pairwise
summation tree, so a recorded moment folds the chunks' sums into the bits of
``np.mean`` over the whole ensemble.

The Gaussian and stable samplers make no sin or cos call: every angle
comes from the tangent of its half, by the half-angle identities. On x86-64
with AVX-512, numpy runs float64 tan through a vector loop but sin and cos
through scalar libm, which costs them 4-5 times as much per element.
The half-angle forms keep the exact offsets u - 1/2 and 1/2 - |u - 1/2| of a
stream word, which also keeps the stable draw accurate next to u = 0 and 1.

Only a tempered kernel needs scipy, for the compound-Poisson rate and its
Poisson tail; it is imported when such a kernel's jumps are set up, so
fractional and jump-free runs load numpy alone.
"""
from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .generators import GeneratorSpec, LevyMeasureSpec
from .grids import Field
from .operators import NumericalFailure, RunGuard
from .weights import WeightFunction

__all__ = [
    "ParticleEnsemble",
    "ParticleRun",
    "CouplingRun",
    "ensemble_at",
    "ensemble_from_density",
    "simulate",
    "empirical_cf",
    "reflection_coupling_run",
]

_JUMP_CAP = 8  # compound-Poisson jumps kept per tempered step; excess reported
_Z_CUT = 0.5  # tempered jumps above this size are compound Poisson, those below a Gaussian proxy
# particles per chunk, for every particle loop: a fractional chunk's uniform
# block (512 KB) and its temporaries stay in a 2-4 MB L2 cache. A 1e6-particle
# step on one thread of a 2-vCPU Xeon timed flat from 16k to 128k particles
# per chunk and 27% slower at 256k.
_CHUNK = 32768


# ---------------------------------------------------------------------------
# raw randomness


def _uniforms(seed: int, stream: int, start: int, count: int, stride: int) -> np.ndarray:
    """(count, stride) uniforms on [0, 1) for particles [start, start+count):
    words [stride start, stride (start+count)) of the stream, independent of
    how the index range is split across calls."""
    bg = np.random.PCG64DXSM(np.random.SeedSequence([seed, stream]))
    bg.advance(stride * start)
    # random() maps each raw word to (word >> 11) * 2**-53, one word per double
    return np.random.Generator(bg).random(count * stride).reshape(count, stride)


# cos(theta) at u_angle = 0, where the half-angle form gives 0: the value
# cos(pi (0 - 1/2)) takes in floating point, so that word's draw stays finite
_COS_EDGE = math.cos(-0.5 * math.pi)


def _gaussians(u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """sqrt(-2 log1p(-u1)) * cos(2 pi u2), Box-Muller: fixed two-word
    consumption, unlike the ziggurat. The cosine comes from the half-angle
    tangent t = tan(pi (u2 - 1/2)) as (t^2 - 1) / (t^2 + 1), with no sin or
    cos call (see the module docstring). Evaluated in place in that order."""
    r = np.negative(u1)
    np.log1p(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    t = np.subtract(u2, 0.5)
    t *= np.pi
    np.tan(t, out=t)
    s = np.multiply(t, t)
    np.subtract(s, 1.0, out=t)
    s += 1.0
    t /= s
    r *= t
    return r


def _stable_cms(sigma: float, u_angle: np.ndarray, u_exp: np.ndarray) -> np.ndarray:
    """Symmetric sigma-stable variate with characteristic function
    e^{-|xi|^sigma}, by the Chambers-Mallows-Stuck construction:
    sin(sigma th) / cos(th)^(1/sigma) * (cos((1-sigma) th) / w)^((1-sigma)/sigma)
    with th = pi h, h = u_angle - 1/2, and w = max(-log1p(-u_exp), 1e-12).

    The three angles come from half-angle tangents, with no sin or cos call:
    sin(sigma th) = 2a / (1 + a^2) with a = tan(sigma pi h / 2),
    cos((1-sigma) th) = (1 - c^2) / (1 + c^2) with c = tan((1-sigma) pi h / 2),
    and cos(th) = sin(pi m) = 2b / (1 + b^2) with b = tan(pi m / 2),
    m = 1/2 - |h|. h and m are exact for stream words k 2^-53, so near
    u_angle = 0 and 1 cos(th) keeps its relative accuracy instead of
    inheriting the rounding of pi/2. At u_angle = 0, where cos(th) is 0,
    it is clamped to _COS_EDGE. Every operation is done in place in the
    order written, on at most four chunk-length temporaries."""
    h = np.subtract(u_angle, 0.5)
    b = np.abs(h)
    np.subtract(0.5, b, out=b)
    b *= 0.5 * np.pi
    np.tan(b, out=b)
    d = np.multiply(b, b)
    d += 1.0
    b += b
    b /= d
    np.maximum(b, _COS_EDGE, out=b)
    b **= 1.0 / sigma  # cos(th)^(1/sigma)
    a = np.multiply(h, 0.5 * sigma * np.pi)
    np.tan(a, out=a)
    np.multiply(a, a, out=d)
    d += 1.0
    a += a
    a /= d
    a /= b  # sin(sigma th) / cos(th)^(1/sigma)
    h *= 0.5 * (1.0 - sigma) * np.pi
    np.tan(h, out=h)
    np.multiply(h, h, out=b)
    np.subtract(1.0, b, out=h)
    b += 1.0
    h /= b  # cos((1-sigma) th)
    np.negative(u_exp, out=d)
    np.log1p(d, out=d)
    np.negative(d, out=d)
    np.maximum(d, 1e-12, out=d)
    h /= d
    h **= (1.0 - sigma) / sigma
    a *= h
    return a


def _check_seed(seed) -> None:
    """Refuse a seed SeedSequence would refuse at the first draw: it takes
    any nonnegative int, Python's or numpy's, of any size."""
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed!r}")


# ---------------------------------------------------------------------------
# ensembles


@dataclass(frozen=True)
class ParticleEnsemble:
    """The start of a run at t = 0: finite positions and the seed of the
    run's streams."""

    positions: np.ndarray
    seed: int

    def __post_init__(self):
        _check_seed(self.seed)
        if self.positions.ndim != 1 or self.positions.size < 1:
            raise ValueError("need at least one particle in a flat position array")
        if not np.all(np.isfinite(self.positions)):
            raise ValueError("positions must be finite")

    @property
    def n_particles(self) -> int:
        return self.positions.size


def ensemble_at(x0: float, n_particles: int, seed: int = 0) -> ParticleEnsemble:
    """n_particles at x0, as a read-only zero-stride view of one value: a
    point source holds no n-length array until a run copies it into the
    buffer it steps."""
    return ParticleEnsemble(np.broadcast_to(np.float64(x0), (n_particles,)), seed)


def ensemble_from_density(m: Field, n_particles: int, seed: int = 0) -> ParticleEnsemble:
    """Inverse-CDF sample of the piecewise-constant law the grid density
    defines on its cells. Draws one word per particle from stream 0, chunk
    by chunk."""
    _check_seed(seed)
    vals = m.values
    if np.any(vals < 0):
        raise ValueError("cannot sample a signed density")
    g = m.grid
    cell_mass = vals * g.dx
    total = cell_mass.sum()
    if total <= 0:
        raise ValueError("density has no mass to sample")
    cdf = np.cumsum(cell_mass) / total
    # the running sum can end an ulp short of the pairwise total; a top of
    # exactly 1 keeps every u < 1 inside the last cell that holds mass
    cdf[cdf == cdf[-1]] = 1.0
    positions = np.empty(n_particles)

    def draw(i0: int, i1: int):
        u = _uniforms(seed, 0, i0, i1 - i0, 1)[:, 0]
        idx = np.searchsorted(cdf, u, side="right")
        left = g.nodes[idx] - 0.5 * g.dx
        prev = np.where(idx > 0, cdf[np.maximum(idx - 1, 0)], 0.0)
        frac = (u - prev) / np.maximum(cdf[idx] - prev, 1e-300)
        positions[i0:i1] = left + frac * g.dx

    _for_chunks(draw, n_particles)
    return ParticleEnsemble(positions, seed)


# ---------------------------------------------------------------------------
# stepping


class _TemperedJumps:
    """Compound-Poisson representation of a tempered kernel above _Z_CUT plus
    a Gaussian proxy for the sub-cutoff activity (variance = small-jump
    second moment). The Poisson count is capped; the neglected probability
    is exposed for the caller to judge."""

    def __init__(self, levy: LevyMeasureSpec, dt: float):
        from scipy.integrate import quad
        from scipy.special import pdtrc

        rho = lambda z: levy.density(np.array([z]))[0]
        self.rate = 2.0 * quad(rho, _Z_CUT, np.inf)[0]
        self.small_variance = 2.0 * quad(lambda z: z * z * rho(z), 0.0, _Z_CUT)[0]
        # one-sided size table: tempering kills the density ~40 e-folds out
        zs = np.linspace(_Z_CUT, _Z_CUT + 45.0, 4097)
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
    """Column layout and increment arithmetic for one (spec, dt) pair.
    ``stride`` is the number of uniform columns the spec reads per particle
    and step: 0 for a drift-only spec."""

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
        self.stride = c

    def increments(self, u: np.ndarray) -> list:
        """The random increments of one step, drawn once from the uniform
        block u, in the order ``move`` adds them: (kind, values) pairs with
        kind "gauss" (a scaled Brownian or small-jump proxy term), "variable"
        (a unit Gaussian, which move scales by sqrt(2 dt Sigma^2(x))), "jump"
        (a scaled stable increment) or "jumps" (the (n, _JUMP_CAP) signed
        tempered jumps, inactive slots zero)."""
        spec, dt, cols = self.spec, self.dt, self.columns
        terms = []
        if "brownian" in cols:
            j = cols["brownian"]
            g = _gaussians(u[:, j], u[:, j + 1])
            g *= math.sqrt(2.0 * spec.diffusion.lambda0 * dt)
            terms.append(("gauss", g))
        if "variable" in cols:
            j = cols["variable"]
            terms.append(("variable", _gaussians(u[:, j], u[:, j + 1])))
        if "stable" in cols:
            j = cols["stable"]
            inc = _stable_cms(spec.levy.sigma, u[:, j], u[:, j + 1])
            inc *= (spec.levy.scale * dt) ** (1.0 / spec.levy.sigma)
            terms.append(("jump", inc))
        if self.tempered is not None:
            j = cols["small"]
            g = _gaussians(u[:, j], u[:, j + 1])
            g *= math.sqrt(self.tempered.small_variance * dt)
            terms.append(("gauss", g))
            terms.append(("jumps", self.tempered.draw(
                u[:, cols["count"]], u[:, cols["sizes"]:cols["sizes"] + 2 * _JUMP_CAP])))
        return terms

    def move(self, x: np.ndarray, t: float, terms: list, out: np.ndarray,
             reflect_below: np.ndarray | None = None) -> None:
        """x minus drift(t, x) dt plus the increments ``terms`` (from
        ``increments``, left unchanged), written to out. With reflect_below,
        the reflected move of a coupled pair's Y: the "gauss" terms are
        negated, and each jump increment below reflect_below in size, row by
        row. Negation is exact, so both moves of a pair read one draw and
        give the bits of two separate draws.

        out may be x itself: every factor that reads x, the drift and
        Sigma(x), is evaluated before out is first written."""
        shift = self.spec.drift(t, x) * self.dt
        if "variable" in self.columns:
            s = np.sqrt(self.spec.diffusion.sigma_squared(x))
            s *= math.sqrt(2.0 * self.dt)
        np.subtract(x, shift, out=out)
        for kind, v in terms:
            if kind == "gauss":
                if reflect_below is None:
                    out += v
                else:
                    out -= v
            elif kind == "variable":
                s *= v
                out += s
            elif kind == "jump":
                if reflect_below is not None:
                    v = np.where(np.abs(v) < reflect_below, -v, v)
                out += v
            else:  # "jumps"
                if reflect_below is not None:
                    v = np.where(np.abs(v) < reflect_below[:, None], -v, v)
                out += v.sum(axis=1)

    @property
    def cap_excess(self) -> float | None:
        """Poisson mass beyond the tempered jump cap; None without tempered jumps."""
        return None if self.tempered is None else self.tempered.cap_excess


# numpy sums a float64 array pairwise: a run of at most _PAIRWISE_BLOCK
# values in eight interleaved partial sums, a longer run as the sum of its two
# halves, the first rounded down to a multiple of 8 values (pairwise_sum in
# numpy's umath loops)
_PAIRWISE_BLOCK = 128


def _tree_sum(n: int, leaf):
    """leaf(i0, i1) of every chunk [i0, i1) of n values, added up numpy's
    pairwise summation tree: a node of at most max(_CHUNK, _PAIRWISE_BLOCK)
    values is a chunk, and a larger one the sum of its two halves. With
    leaf the np.sum of a chunk's values, the result has the bits of np.sum
    over all n values; leaf's values may be arrays, added elementwise."""
    cap = max(_CHUNK, _PAIRWISE_BLOCK)

    def fold(i0: int, m: int):
        if m <= cap:
            return leaf(i0, i0 + m)
        h = m // 2 - m // 2 % 8
        return fold(i0, h) + fold(i0 + h, m - h)

    return fold(0, n)


def _chunk_bounds(n: int):
    """(i0, i1) of every chunk of n particles, in order: the leaves of
    _tree_sum's tree. The two halves of a node differ by at most 15 values,
    so threads get even shares."""
    return _tree_sum(n, lambda i0, i1: [(i0, i1)])


def _for_chunks(advance, n: int):
    """advance(i0, i1) for every chunk of n particles: the one chunk loop, for
    every run and every sampled ensemble. The chunks run on a thread pool of
    one thread per core this process may run on, but no more than there are
    chunks, and inline when that is one thread. Chunks write disjoint
    slices. The first failure in chunk order is raised once the chunks
    already running have finished; chunks not yet started are cancelled.
    numpy's overflow and invalid warnings are off in every chunk: a blow-up
    is reported by check_positions, and a weight of a huge position is inf.
    The errstate is entered inside the task, since pool threads do not
    inherit the caller's."""
    def quiet(i0: int, i1: int):
        with np.errstate(over="ignore", invalid="ignore"):
            advance(i0, i1)

    bounds = _chunk_bounds(n)
    workers = min(len(os.sched_getaffinity(0)), len(bounds))
    if workers == 1:
        for i0, i1 in bounds:
            quiet(i0, i1)
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(quiet, i0, i1) for i0, i1 in bounds]
        try:
            for future in futures:
                future.result()
        except BaseException:
            for future in futures:
                future.cancel()
            raise  # leaving the pool waits for the chunks already running


def _march(n: int, n_steps: int, chunk):
    """March n particles chunk-major through steps 1..n_steps (see
    _for_chunks). chunk(i0, i1) sets up the particles [i0, i1) and returns
    their step(k), which advances them by step k in place and raises
    NumericalFailure when they leave the finite range. Each chunk runs step
    after step while its slice sits in cache. It stops at its first failing
    step, and skips the steps past the earliest failure any chunk has
    reported so far.

    Once every chunk has stopped, the failure of the earliest failing step
    is raised, the first chunk's on ties. Every chunk runs at least up to
    that step, so the failure raised does not depend on the chunk size or
    the worker count. Any other exception is raised before it, the first in
    chunk order (see _for_chunks)."""
    failures = []  # (k, i0, NumericalFailure)
    earliest = math.inf
    lock = threading.Lock()

    def run(i0: int, i1: int):
        nonlocal earliest
        step = chunk(i0, i1)
        for k in range(1, n_steps + 1):
            if k > earliest:
                return
            try:
                step(k)
            except NumericalFailure as exc:
                with lock:
                    failures.append((k, i0, exc))
                    earliest = min(earliest, k)
                return

    _for_chunks(run, n)
    if failures:
        raise min(failures, key=lambda f: f[:2])[2]


@dataclass(frozen=True)
class ParticleRun:
    """Recorded moment series plus the final positions. cap_excess is the
    per-step Poisson mass beyond the tempered jump cap (None without
    tempered jumps)."""

    times: np.ndarray
    moments: dict
    final: np.ndarray
    cap_excess: float | None = None


def simulate(ens: ParticleEnsemble, spec: GeneratorSpec, dt: float, t_final: float,
             record_every: int = 1,
             moment_weights: dict[str, WeightFunction] | None = None) -> ParticleRun:
    """March the ensemble to t_final recording mean weight values (empirical
    weighted moments) every record_every steps; the run starts at t = 0. The
    march is chunk-major (see the module docstring), on a thread pool with
    one thread per available core; the result does not depend on the core
    count or the chunk size.

    The run allocates one n-length array, the position buffer: each chunk
    copies its slice of the start positions into it and steps that slice in
    place, and at a record it keeps only the sum of each weight over the
    slice. The chunks are leaves of numpy's pairwise summation tree and
    their sums are added up that tree, so every moment has the bits of
    np.mean over the whole ensemble. The buffer is the run's ``final``; the
    caller's ensemble is left unchanged, and a point source
    (``ensemble_at``) holds no n-length array, so such a run holds one in
    all.

    NumericalFailure is raised at the earliest step where a position leaves
    the finite range. A run whose positions stay finite fails at its
    earliest record whose moment is not finite, naming the weight: a weight
    of a huge position is inf. Neither verdict depends on the chunking."""
    guard = RunGuard(dt, t_final, record_every)
    stepper = _ParticleStepper(spec, dt)
    weights = moment_weights or {}
    record_steps = [0] + [k for k in range(1, guard.n_steps + 1) if guard.records(k)]
    row = {k: r for r, k in enumerate(record_steps)}
    start, seed, n = ens.positions, ens.seed, ens.n_particles
    positions = np.empty(n)
    sums = {}  # i0 -> the (record, weight) sums over the chunk [i0, i1)

    def chunk(i0: int, i1: int):
        x = positions[i0:i1]
        x[:] = start[i0:i1]
        chunk_sums = sums[i0] = np.empty((len(record_steps), len(weights)))

        def record(r: int):
            chunk_sums[r] = [np.sum(w(x)) for w in weights.values()]

        def step(k: int):
            u = _uniforms(seed, k, i0, i1 - i0, stepper.stride)
            stepper.move(x, (k - 1) * dt, stepper.increments(u), out=x)
            RunGuard.check_positions(x, k * dt)
            if k in row:
                record(row[k])

        record(0)
        return step

    _march(n, guard.n_steps, chunk)
    means = _tree_sum(n, lambda i0, i1: sums[i0]) / n
    bad = np.argwhere(~np.isfinite(means))  # in time order, then weight order
    if bad.size:
        r, j = bad[0]
        raise NumericalFailure(f"particle moment {list(weights)[j]} left the finite range "
                               f"at t={record_steps[r] * dt:g}")
    return ParticleRun(
        times=np.array([k * dt for k in record_steps]),
        moments={name: means[:, j] for j, name in enumerate(weights)},
        final=positions,
        cap_excess=stepper.cap_excess,
    )


# ---------------------------------------------------------------------------
# measurement


def empirical_cf(positions: np.ndarray, xi_values: np.ndarray) -> np.ndarray:
    """Re of the empirical characteristic function of the positions X (a
    run's ``final``) at each xi: mean cos(xi X). The sine part carries no
    signal for the symmetric laws checked here, so dropping it halves the
    Monte Carlo noise. The cosine is (1 - t^2) / (1 + t^2) with
    t = tan(xi X / 2), with no cos call, as in the samplers (see the module
    docstring)."""
    xi = np.atleast_1d(np.asarray(xi_values, dtype=float))
    cf = []
    for v in xi:
        t = np.multiply(v, positions)
        t *= 0.5
        np.tan(t, out=t)
        t *= t
        c = np.subtract(1.0, t)
        t += 1.0
        c /= t
        cf.append(float(np.mean(c)))
    return np.array(cf)


# ---------------------------------------------------------------------------
# reflection coupling


@dataclass(frozen=True)
class CouplingRun:
    """Survival statistics of the pairwise reflection coupling."""

    times: np.ndarray
    coupling_times: np.ndarray  # +inf where the pair never met
    x_final: np.ndarray
    y_final: np.ndarray
    cap_excess: float | None = None  # as in ParticleRun

    @cached_property
    def uncoupled_fraction(self) -> np.ndarray:
        """Share of pairs still apart at each recorded time: those whose
        coupling time lies beyond it. A pair that meets at step k has
        coupling time k * dt, the same float as the record of step k."""
        met = np.sort(self.coupling_times)
        n = met.size
        return (n - np.searchsorted(met, self.times, side="right")) / n


def reflection_coupling_run(spec: GeneratorSpec, x0: float, y0: float, dt: float,
                            t_final: float, n_pairs: int, seed: int = 0,
                            eps_couple: float = 1e-3,
                            record_every: int = 1) -> CouplingRun:
    """Advance n_pairs independent (X, Y) pairs with coupled noise: the
    lambda0 Brownian increment is reflected (negated, d = 1) for Y while the
    pair is apart, jump increments are reflected only below min(1, r/2) and
    synchronized above, and a pair couples once |X - Y| < eps_couple, after
    which it moves as one. Pairs march chunk-major and in place, as in
    simulate: each chunk runs every step on its slices of X and Y, drawing
    one uniform block a step and turning it into increments once; X moves by
    them, a coupled Y copies X's new position, and only the pairs still apart
    move Y by the reflected increments. A failure is reported as in simulate,
    for the earliest step that has one."""
    _check_seed(seed)
    stepper = _ParticleStepper(spec, dt)
    guard = RunGuard(dt, t_final, record_every)

    x = np.full(n_pairs, float(x0))
    y = np.full(n_pairs, float(y0))
    coupled = np.abs(x - y) < eps_couple
    y[coupled] = x[coupled]
    t_couple = np.where(coupled, 0.0, np.inf)

    def chunk(i0: int, i1: int):
        xs, ys, cs, ts = x[i0:i1], y[i0:i1], coupled[i0:i1], t_couple[i0:i1]

        def step(k: int):
            t, t_new = (k - 1) * dt, k * dt
            terms = stepper.increments(_uniforms(seed, k, i0, i1 - i0, stepper.stride))
            apart = np.flatnonzero(~cs)
            ya = ys[apart]
            reflect_below = np.minimum(1.0, 0.5 * np.abs(xs[apart] - ya))
            stepper.move(xs, t, terms, out=xs)
            RunGuard.check_positions(xs, t_new)
            stepper.move(ya, t, [(kind, v[apart]) for kind, v in terms], out=ya,
                         reflect_below=reflect_below)
            RunGuard.check_positions(ya, t_new)
            meet = np.abs(xs[apart] - ya) < eps_couple
            ys[:] = xs  # a coupled pair moves as one
            ys[apart[~meet]] = ya[~meet]
            met = apart[meet]
            ts[met] = t_new
            cs[met] = True

        return step

    _march(n_pairs, guard.n_steps, chunk)
    return CouplingRun(
        times=np.array([0.0] + [k * dt for k in range(1, guard.n_steps + 1) if guard.records(k)]),
        coupling_times=t_couple,
        x_final=x,
        y_final=y,
        cap_excess=stepper.cap_excess,
    )
