"""Time integration of the forward equation d/dt m = -(L*[m] - div(b m)).

A run is a Strang splitting, T(dt/2) D T(dt/2) per step, of a transport
step T and a full diffusion step D, with the transport halves of adjacent
steps merged: T(dt/2) D T(dt) D ... T(dt) D T(dt/2) (G. Strang, SIAM J.
Numer. Anal. 5, 1968). The march carries the open state o_k = D T(dt)
o_{k-1}, from o_1 = D T(dt/2) m_0; a record at step k closes the split on a
copy, m_k = T(dt/2) o_k, and the march goes on from o_k, so what a record
reads does not depend on the record stride. T(dt/2) is SSP-RK2 (Heun) and
T(dt) the optimal three-stage SSPRK(3,2) (Spiteri & Ruuth, SIAM J. Numer.
Anal. 40, 2002): every stage of either is a forward-Euler step of dt/2 of
the conservative upwind flux, so the CFL gate's ``substep`` is 0.5 for
both. A step costs 3 flux passes and a record 2 more: 3 stride + 2 per
``stride`` steps, against the 4 stride of unmerged halves, and 5 against 4
at stride 1.

Each face array carries its upwind donors (``operators.upwind_faces``),
picked once for a static drift and once per face time for a moving one,
and is scaled once to Courant numbers w dt / (2 dx), so a stage is m minus
the difference of the flux, with no pass by dx or dt; a flux reconstructs
only the donor side of each face. The constant-coefficient diffusion and
the jump part (lambda0 xi^2 plus the measure's exact symbol) are applied
exactly in Fourier space; variable Sigma is an explicit Euler term.
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

_SUBSTEP = 0.5  # every transport stage is a forward-Euler step of dt/2


class _Stepper(StackStepper):
    """The steps of a (rows, n) stack of runs that share grid, dt and
    limiter: ``step`` marches the open state, ``close`` takes a record of it.
    The half-time of a step from t to t_end is read as t_end - dt/2 by both,
    so a moving drift's face times repeat bit for bit, and the memo of the
    last two face times builds each once."""

    def __init__(self, stages: list, limiter: str):
        super().__init__(stages)
        self.limiter = limiter
        self.opened = False

    def _euler(self, m: np.ndarray, t: float) -> np.ndarray:
        # a forward-Euler stage of dt/2 with the faces at t, written over the difference
        div = divergence_of_flux(transport_flux(m, self.faces(t), self.limiter))
        return np.subtract(m, div, out=div)

    def _transport_half(self, m: np.ndarray, t: float, t_end: float) -> np.ndarray:
        """T(dt/2) from t to t_end by SSP-RK2: (m + E(E(m))) / 2, with
        forward-Euler stages E of dt/2 at t and t_end."""
        m2 = self._euler(self._euler(m, t), t_end)
        m2 += m
        m2 *= 0.5
        return m2

    def _transport(self, m: np.ndarray, t: float, t_mid: float, t_end: float) -> np.ndarray:
        """T(dt) from t to t_end by SSPRK(3,2): m / 3 + (2/3) E(E(E(m))),
        with forward-Euler stages E of dt/2 at t, t_mid and t_end."""
        m1 = self._euler(m, t)
        m3 = self._euler(self._euler(m1, t_mid), t_end)
        m3 *= 2.0 / 3.0
        m3 += np.divide(m, 3.0, out=m1)
        return m3

    def step(self, m: np.ndarray, t: float, t_end: float) -> np.ndarray:
        """March the open state over the step from t to t_end, both on the
        run's step grid. The first step opens the split, D T(dt/2) m over
        [t, t_end - dt/2]; every later one is D T(dt) over
        [t - dt/2, t_end - dt/2], from where the last one ended."""
        mid = t_end - 0.5 * self.dt
        if self.opened:
            m = self._transport(m, t - 0.5 * self.dt, t, mid)
        else:
            m = self._transport_half(m, t, mid)
        m = self.diffuse(m, adjoint=True)
        self.opened = True
        return m

    def close(self, m: np.ndarray, t: float) -> np.ndarray:
        """The state at t, the end of the last step: T(dt/2) of the open
        state over [t - dt/2, t], into a new array."""
        return self._transport_half(m, t - 0.5 * self.dt, t)


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
    """Integrate from t = 0 to the end time t_final, recording diagnostics
    every record_every steps and at the steps nearest snapshot_times.

    record_weights maps names to weight functions phi; each recorded entry is
    the weighted total-variation norm of the current (possibly signed) field.
    The run aborts with NumericalFailure once the absolute mass in
    the outer 5% of the cells at each end exceeds eps_boundary: from then on
    the periodic wrap-around is feeding the tails back into the bulk. That
    and blow-up are checked at the recorded steps only (snapshot steps too).

    The march carries the open state of the merged Strang split; each
    record, snapshot and the final field close it on a copy (module
    docstring), so they read the same values at any record_every, and
    record_every steps cost 3 record_every + 2 flux passes. This is the
    one-row case of ``solve_stack``: it marches a (1, n) stack.
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
    of steps of dt is a ValueError for every run that got past setup. Every
    run starts at t = 0: initial data tagged with another time is a
    ValueError, rather than records stamped from the wrong time.

    The stack marches the open state, and a record closes it on a copy: the
    records, snapshots and final fields read the closed state, while a
    restack and the retake after a CFL failure act on the open one. Every
    record_every steps cost 3 record_every + 2 flux passes.
    """
    if m0.t != 0.0:
        raise ValueError(f"a forward run starts at t = 0, got initial data at t={m0.t:g}")
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
    snap_steps = {int(round(ts / dt)) for ts in snapshot_times}
    try:
        guard = RunGuard(dt, t_final, record_every, extra_records=snap_steps)
    except ValueError as exc:  # a horizon of no whole number of steps ends every run set up
        return [exc if r is None else r for r in results]
    weights = record_weights or [{}] * len(specs)
    series = {i: _Series(m0, specs[i], dt, weights[i], guard, eps_boundary) for i in live}
    m = np.repeat(m0.values[None, :], len(live), axis=0)
    t = 0.0

    def restack(failed: dict):
        # the rows in failed (row -> NumericalFailure) leave the open state,
        # the last closed one and the stepper, which keeps the face memo of the rest
        nonlocal live, m, closed
        keep = [r for r in range(len(live)) if r not in failed]
        for r, exc in failed.items():
            results[live[r]] = exc
        m, closed = m[keep], closed[keep]
        live = [live[r] for r in keep]
        if live:
            stepper.keep(keep)

    def record(k: int):
        nonlocal closed
        while k and live:  # step 0's closed state is m0
            try:
                closed = stepper.close(m, t)
                break
            except NumericalFailure as exc:
                restack({exc.row: exc})  # the others close again
        failed = {}
        for r, row in enumerate(closed):
            try:
                series[live[r]].record(row, t, k in snap_steps)
            except NumericalFailure as exc:
                failed[r] = exc
        if failed:
            restack(failed)

    stepper = _Stepper(stages, limiter) if live else None
    closed = m
    record(0)
    k = 0
    while live and k < guard.n_steps:
        t_next = (k + 1) * dt
        try:
            stepped = stepper.step(m, t, t_next)
        except NumericalFailure as exc:
            restack({exc.row: exc})  # the others take the step again
            continue
        m, k, t = stepped, k + 1, t_next
        if guard.records(k):
            record(k)

    for r, i in enumerate(live):
        results[i] = series[i].run(closed[r], t)
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
    attained boundary mass is reported for the caller to judge. The march
    carries the open state of the merged Strang split (module docstring);
    each block end of unit time closes it on a copy, which the blow-up
    check and the convergence test read.
    """
    check_stationary_spec(spec)
    stepper = _run_stepper(spec, grid, dt, limiter)
    # one block of steps between convergence checks
    block = RunGuard(dt, max(1, int(round(1.0 / dt))) * dt)
    m = closed = gaussian(grid).values[None, :]
    k, t = 0, 0.0
    diff = np.inf
    while t < _STATIONARY_MAX_TIME:
        prev = closed
        for _ in range(block.n_steps):
            k += 1
            m = stepper.step(m, t, k * dt)
            t = k * dt
        closed = stepper.close(m, t)
        block.check_blow_up(closed, t)
        diff = float(np.sum(np.abs(closed - prev)) * grid.dx)
        if diff < _STATIONARY_TOL:
            break
    else:
        raise NumericalFailure(
            f"no stationary profile within t={_STATIONARY_MAX_TIME:g}: last TV increment {diff:.3e}")
    m = closed[0] / (closed.sum() * grid.dx)  # unit mass exactly on the grid
    out = Field(grid, m, t)
    b = RunGuard.boundary_mass(m, grid.dx, eps_boundary)
    return out, {"t_converged": t, "tv_increment": diff, "boundary_mass": b}
