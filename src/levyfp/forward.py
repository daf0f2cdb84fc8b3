"""Time integration of the forward equation d/dt m = -(L*[m] - div(b m)).

One step is a Strang composition: half a transport step, a full diffusion
step, half a transport step. Transport is the conservative upwind flux with
SSP-RK2 substeps. Each face array carries its upwind donors
(``operators.upwind_faces``), picked once for a static drift and once per
face array for a moving one, so a flux reconstructs only the donor side of
each face. The constant-coefficient diffusion and the jump part
(lambda0 xi^2 plus the measure's exact symbol) are applied exactly in Fourier
space; variable Sigma is an explicit Euler term.
Every stage telescopes, so mass is conserved to rounding regardless of step size.

The forward state has one shape, a (rows, n) stack. One marching loop,
``solve_stack``, advances runs that share grid, initial data, clock,
limiter and boundary budget but not their generator specs or record weights
(the cells of a sweep) as one stack: the kernels act along the rows, so
each step costs one numpy call per stage for all rows, and each row keeps
the bits of its own run. Guards and records stay per row; a run that fails
leaves the stack and the others go on. ``solve`` and ``stationary_solve``
march a one-row stack.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .generators import GeneratorSpec
from .grids import Field, Grid
from .norms import weighted_tv_norm
from .operators import (
    NumericalFailure,
    RunGuard,
    StackStepper,
    StepSetup,
    divergence_of_flux,
    transport_flux,
)

__all__ = [
    "NumericalFailure",
    "gaussian",
    "gaussian_difference",
    "smooth_bump",
    "ForwardRun",
    "solve",
    "solve_stack",
    "check_stationary_spec",
    "stationary_solve",
]


# ---------------------------------------------------------------------------
# initial data


def gaussian(grid: Grid, center: float = 0.0, std: float = 1.0) -> Field:
    """Gaussian profile normalized to unit mass on the grid itself, so the
    discrete integral is exactly 1 even when the tails are truncated."""
    if std <= 0:
        raise ValueError(f"std must be positive, got {std}")
    # a std far below dx overflows the exponent to -inf: weight 0, refused below
    with np.errstate(over="ignore"):
        vals = np.exp(-0.5 * ((grid.nodes - center) / std) ** 2)
    total = vals.sum() * grid.dx
    if not np.isfinite(total) or total <= 0:
        raise ValueError(f"std {std:g} is too small for the grid: no node gets weight")
    vals /= total
    return Field(grid=grid, values=vals)


def gaussian_difference(
    grid: Grid,
    center1: float = 0.0,
    std1: float = 1.0,
    center2: float = 0.0,
    std2: float = 2.0,
) -> Field:
    """Difference of two unit-mass Gaussians: signed data with exact zero
    mass, the natural input for decay-rate experiments."""
    a = gaussian(grid, center1, std1)
    b = gaussian(grid, center2, std2)
    return Field(grid=grid, values=a.values - b.values)


def smooth_bump(grid: Grid, center: float = 0.0, width: float = 1.0) -> Field:
    """Compactly supported C^infinity bump, unit mass on the grid."""
    if width <= 0:
        raise ValueError(f"width must be positive, got {width}")
    r = (grid.nodes - center) / width
    vals = np.zeros(grid.n)
    inside = np.abs(r) < 1.0
    vals[inside] = np.exp(-1.0 / (1.0 - r[inside] ** 2))
    total = vals.sum() * grid.dx
    if total <= 0:
        raise ValueError("bump support does not contain any grid node")
    return Field(grid=grid, values=vals / total)


# ---------------------------------------------------------------------------
# stepping machinery

_SUBSTEP = 0.5  # two RK substeps of dt/2 per transport half


class _Stepper(StackStepper):
    """One Strang step of a (rows, n) stack of runs that share grid, dt and
    limiter. It asks for faces at t + dt/2 twice in a row, and the next step
    starts where this one ended, so the memo builds each face time once."""

    def __init__(self, stages: list, limiter: str):
        super().__init__(stages)
        self.limiter = limiter

    def _transport_half(self, m: np.ndarray, t: float, t_end: float) -> np.ndarray:
        # SSP-RK2 over dt/2, from t to t_end, for d/dt m + div(w m) = 0, each
        # stage written over its divergence; a static drift's faces serve
        # both substeps
        tau = 0.5 * self.dt
        dx = self.grid.dx
        faces = self.faces(t)
        div = divergence_of_flux(transport_flux(m, faces, dx, self.limiter), dx)
        div *= tau
        m1 = np.subtract(m, div, out=div)
        faces = self.faces(t_end)
        div = divergence_of_flux(transport_flux(m1, faces, dx, self.limiter), dx)
        div *= tau
        m2 = np.subtract(m1, div, out=div)
        m2 += m
        m2 *= 0.5
        return m2

    def step(self, m: np.ndarray, t: float, t_end: float) -> np.ndarray:
        """One Strang step from t to t_end, both on the run's step grid, so
        that a moving drift's faces at the end of this step are those at the
        start of the next."""
        mid = t + 0.5 * self.dt
        m = self._transport_half(m, t, mid)
        m = self.diffuse(m, adjoint=True)
        return self._transport_half(m, mid, t_end)


def _run_stepper(spec: GeneratorSpec, grid: Grid, dt: float, limiter: str) -> _Stepper:
    """The stepper of a lone run."""
    return _Stepper([StepSetup(spec, grid, dt, substep=_SUBSTEP)], limiter)


@dataclass(frozen=True)
class ForwardRun:
    """Recorded time series of a forward integration."""

    grid: Grid
    spec: GeneratorSpec
    initial: Field
    dt: float
    times: np.ndarray
    mass: np.ndarray
    min_value: np.ndarray
    boundary_mass: np.ndarray
    weighted_norms: dict = field(default_factory=dict)
    final: Field | None = None
    snapshots: tuple = ()


class _Series:
    """The records of one run of a stack, taken from its row of the state."""

    def __init__(self, m0: Field, spec: GeneratorSpec, dt: float, weights: dict, guard: RunGuard,
                 eps_boundary: float):
        self.m0, self.spec, self.dt, self.weights = m0, spec, dt, weights
        self.guard, self.eps_boundary = guard, eps_boundary
        self.times, self.mass, self.minv, self.bnd, self.snaps = [], [], [], [], []
        self.norms: dict = {name: [] for name in weights}

    def record(self, m: np.ndarray, t: float, snapshot: bool):
        grid = self.m0.grid
        self.guard.check_blow_up(m, t)
        self.times.append(t)
        self.mass.append(m.sum() * grid.dx)
        self.minv.append(m.min())
        self.bnd.append(self.guard.boundary_mass(m, grid.dx, self.eps_boundary, t))
        if self.weights or snapshot:
            sample = Field(grid, m, t)  # one copy and finiteness scan for every weight and the snapshot
            for name, phi in self.weights.items():
                self.norms[name].append(weighted_tv_norm(sample, phi))
            if snapshot:
                self.snaps.append(sample)

    def run(self, m: np.ndarray, t: float) -> ForwardRun:
        return ForwardRun(
            grid=self.m0.grid,
            spec=self.spec,
            initial=self.m0,
            dt=self.dt,
            times=np.array(self.times),
            mass=np.array(self.mass),
            min_value=np.array(self.minv),
            boundary_mass=np.array(self.bnd),
            weighted_norms={k: np.array(v) for k, v in self.norms.items()},
            final=Field(self.m0.grid, m, t),
            snapshots=tuple(self.snaps),
        )


def solve(
    m0: Field,
    spec: GeneratorSpec,
    t_final: float,
    dt: float,
    limiter: str = "mc",
    eps_boundary: float = 1e-6,
    record_every: int = 1,
    record_weights: dict | None = None,
    snapshot_times: tuple = (),
) -> ForwardRun:
    """Integrate from m0.t to the end time t_final, recording diagnostics
    every record_every steps and at the steps nearest snapshot_times.

    record_weights maps names to weight functions phi; each recorded entry is
    the weighted total-variation norm of the current (possibly signed) field.
    The run aborts with NumericalFailure once the absolute mass in
    the outer 5% of the cells at each end exceeds eps_boundary: from then on
    the periodic wrap-around is feeding the tails back into the bulk. That
    and blow-up are checked at the recorded steps only (snapshot steps too).
    This is the one-row case of ``solve_stack``: it marches a (1, n) stack.
    """
    (run,) = solve_stack(m0, [spec], t_final, dt, limiter, eps_boundary, record_every,
                         [record_weights or {}], snapshot_times)
    if isinstance(run, Exception):
        raise run
    return run


def solve_stack(
    m0: Field,
    specs: list,
    t_final: float,
    dt: float,
    limiter: str = "mc",
    eps_boundary: float = 1e-6,
    record_every: int = 1,
    record_weights: list | None = None,
    snapshot_times: tuple = (),
) -> list:
    """``solve`` for several generator specs at once, each with its own
    record weights (a list of dicts, one per spec): every run starts from m0
    and shares the clock, the limiter and the boundary budget.

    The runs march as one (rows, n) stack, and each row's every step,
    record and failure is bit for bit that of its own ``solve``, a one-row
    stack. Returns one entry per spec: its ForwardRun, or the exception that
    ended it, which ``solve`` raises. A NumericalFailure ends a run at setup
    (CFL, variable diffusion), at a record (blow-up, boundary band) or, for
    a moving drift, at the face array that broke CFL (its ``row``); the run
    leaves the stack and the others go on. A t_final that is no whole number
    of steps from m0.t is a ValueError for every run that got past setup.
    """
    grid = m0.grid
    results: list = [None] * len(specs)
    live, stages = [], []  # the runs set up, in row order, and their setups
    for i, spec in enumerate(specs):
        try:
            stages.append(StepSetup(spec, grid, dt, substep=_SUBSTEP))
        except NumericalFailure as exc:
            results[i] = exc
        else:
            live.append(i)
    snap_steps = {int(round((ts - m0.t) / dt)) for ts in snapshot_times}
    try:
        guard = RunGuard(dt, t_final, record_every, t0=m0.t, extra_records=snap_steps)
    except ValueError as exc:  # a horizon of no whole number of steps ends every run set up
        return [exc if r is None else r for r in results]
    weights = record_weights or [{}] * len(specs)
    series = {i: _Series(m0, specs[i], dt, weights[i], guard, eps_boundary) for i in live}
    m = np.repeat(m0.values[None, :], len(live), axis=0)
    t = m0.t

    def restack(failed: dict):
        # the rows in failed (row -> NumericalFailure) leave the state and
        # the stepper, which keeps the face memo of the rest
        nonlocal live, m
        keep = [r for r in range(len(live)) if r not in failed]
        for r, exc in failed.items():
            results[live[r]] = exc
        m = m[keep]
        live = [live[r] for r in keep]
        if live:
            stepper.keep(keep)

    def record(k: int):
        failed = {}
        for r, row in enumerate(m):
            try:
                series[live[r]].record(row, t, k in snap_steps)
            except NumericalFailure as exc:
                failed[r] = exc
        if failed:
            restack(failed)

    stepper = _Stepper(stages, limiter) if live else None
    record(0)
    k = 0
    while live and k < guard.n_steps:
        t_next = m0.t + (k + 1) * dt
        try:
            stepped = stepper.step(m, t, t_next)
        except NumericalFailure as exc:
            restack({exc.row: exc})  # the others take the step again
            continue
        m, k, t = stepped, k + 1, t_next
        if guard.records(k):
            record(k)

    for r, i in enumerate(live):
        results[i] = series[i].run(m[r], t)
    return results


def check_stationary_spec(spec: GeneratorSpec) -> None:
    """Refuse a generator that stationary_solve cannot march to a fixed point."""
    if spec.is_time_dependent:
        raise ValueError("stationary solve needs a time-independent drift")


_STATIONARY_TOL = 1e-8  # TV increment over a unit of time that counts as converged
_STATIONARY_MAX_TIME = 400.0  # stationary_solve gives up at this time


def stationary_solve(
    spec: GeneratorSpec,
    grid: Grid,
    dt: float,
    eps_boundary: float = 0.05,
    limiter: str = "mc",
) -> tuple[Field, dict]:
    """March a centered Gaussian forward until successive profiles one unit
    of time apart differ by less than _STATIONARY_TOL in unweighted TV norm.

    Heavy-tailed stationary laws park real mass near the seam, so the
    boundary budget default is far looser than for transient runs; the
    attained boundary mass is reported for the caller to judge. Blow-up is
    checked at the end of every block of unit time.
    """
    check_stationary_spec(spec)
    stepper = _run_stepper(spec, grid, dt, limiter)
    # one block of steps between convergence checks
    block = RunGuard(dt, max(1, int(round(1.0 / dt))) * dt)
    m = gaussian(grid).values[None, :]
    k, t = 0, 0.0
    diff = np.inf
    while t < _STATIONARY_MAX_TIME:
        prev = m
        for _ in range(block.n_steps):
            k += 1
            m = stepper.step(m, t, k * dt)
            t = k * dt
        block.check_blow_up(m, t)
        diff = float(np.sum(np.abs(m - prev)) * grid.dx)
        if diff < _STATIONARY_TOL:
            break
    else:
        raise NumericalFailure(
            f"no stationary profile within t={_STATIONARY_MAX_TIME:g}: last TV increment {diff:.3e}")
    m = m[0] / (m.sum() * grid.dx)  # unit mass exactly on the grid
    out = Field(grid, m, t)
    b = RunGuard.boundary_mass(m, grid.dx, eps_boundary)
    return out, {"t_converged": t, "tv_increment": diff, "boundary_mass": b}
