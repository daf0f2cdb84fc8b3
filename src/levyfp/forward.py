"""Time integration of the forward equation d/dt m = -(L*[m] - div(b m)).

One step is a Strang composition: half a transport step, a full diffusion
step, half a transport step. Transport is the conservative upwind flux with
SSP-RK2 substeps. Each face array carries its upwind donors
(``StepSetup.faces``), picked once for a static drift and once per face
array for a moving one, so a flux reconstructs only the donor side of each
face. The constant-coefficient diffusion and the jump part
(lambda0 xi^2 plus the measure's exact symbol) are applied exactly in Fourier
space; variable Sigma is an explicit Euler term.
Every stage telescopes, so mass is conserved to rounding regardless of step size.
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


class _Stepper:
    """Precomputed pieces of one Strang step for a fixed (spec, grid, dt)."""

    def __init__(self, spec: GeneratorSpec, grid: Grid, dt: float, limiter: str):
        # two RK substeps of dt/2 per transport half
        self.stage = StepSetup(spec, grid, dt, substep=0.5)
        self.grid = grid
        self.dt = dt
        self.limiter = limiter

    def _transport_half(self, m: np.ndarray, t: float) -> np.ndarray:
        # SSP-RK2 over dt/2 for d/dt m + div(w m) = 0; a static drift's faces
        # serve both substeps
        tau = 0.5 * self.dt
        dx = self.grid.dx
        faces = self.stage.faces(t)
        div = divergence_of_flux(transport_flux(m, faces, dx, self.limiter), dx)
        div *= tau
        m1 = m - div
        if self.stage.static_faces is None:
            faces = self.stage.faces(t + tau)
        div = divergence_of_flux(transport_flux(m1, faces, dx, self.limiter), dx)
        div *= tau
        m2 = m1 - div
        m2 += m
        m2 *= 0.5
        return m2

    def step(self, m: np.ndarray, t: float) -> np.ndarray:
        m = self._transport_half(m, t)
        m = self.stage.diffuse(m, adjoint=True)
        return self._transport_half(m, t + 0.5 * self.dt)


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
    """
    grid = m0.grid
    stepper = _Stepper(spec, grid, dt, limiter)
    snap_steps = {int(round((ts - m0.t) / dt)) for ts in snapshot_times}
    guard = RunGuard(dt, t_final, record_every, t0=m0.t, extra_records=snap_steps)
    record_weights = record_weights or {}
    dx = grid.dx

    times, mass, minv, bnd = [], [], [], []
    norms: dict = {name: [] for name in record_weights}
    snaps = []

    m = m0.values.copy()
    t = m0.t

    def record(step_idx: int):
        guard.check_blow_up(m, t)
        times.append(t)
        mass.append(m.sum() * dx)
        minv.append(m.min())
        bnd.append(guard.boundary_mass(m, dx, eps_boundary, t))
        for name, phi in record_weights.items():
            norms[name].append(weighted_tv_norm(Field(grid, m, t), phi))
        if step_idx in snap_steps:
            snaps.append(Field(grid, m, t))

    record(0)
    for k in range(1, guard.n_steps + 1):
        m = stepper.step(m, t)
        t = m0.t + k * dt
        if guard.records(k):
            record(k)

    return ForwardRun(
        grid=grid,
        spec=spec,
        initial=m0,
        dt=dt,
        times=np.array(times),
        mass=np.array(mass),
        min_value=np.array(minv),
        boundary_mass=np.array(bnd),
        weighted_norms={k: np.array(v) for k, v in norms.items()},
        final=Field(grid, m, t),
        snapshots=tuple(snaps),
    )


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
    stepper = _Stepper(spec, grid, dt, limiter)
    # one block of steps between convergence checks
    block = RunGuard(dt, max(1, int(round(1.0 / dt))) * dt)
    m = gaussian(grid).values
    k, t = 0, 0.0
    diff = np.inf
    while t < _STATIONARY_MAX_TIME:
        prev = m
        for _ in range(block.n_steps):
            m = stepper.step(m, t)
            k += 1
            t = k * dt
        block.check_blow_up(m, t)
        diff = float(np.sum(np.abs(m - prev)) * grid.dx)
        if diff < _STATIONARY_TOL:
            break
    else:
        raise NumericalFailure(
            f"no stationary profile within t={_STATIONARY_MAX_TIME:g}: last TV increment {diff:.3e}")
    m = m / (m.sum() * grid.dx)  # unit mass exactly on the grid
    out = Field(grid, m, t)
    b = RunGuard.boundary_mass(m, grid.dx, eps_boundary)
    return out, {"t_converged": t, "tv_increment": diff, "boundary_mass": b}
