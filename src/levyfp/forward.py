"""Time integration of the forward equation d/dt m = -(L*[m] - div(b m)).

One step is a Strang composition: half a transport step, a full diffusion
step, half a transport step. Transport is the conservative upwind flux with
SSP-RK2 substeps; the constant-coefficient diffusion (lambda0 plus the
fractional symbol) is applied exactly in Fourier space; an explicit Euler step
of a shell-quadrature jump term rides in the same multiply as the quadrature's
discrete symbol, built once per run; variable Sigma is an explicit Euler term.
Every stage telescopes, so mass is conserved to rounding regardless of step size.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .generators import GeneratorSpec
from .grids import DensityField, Grid
from .norms import weighted_tv_norm
from .operators import (
    NumericalFailure,
    RunGuard,
    StepSetup,
    divergence_of_flux,
    levy_integral_field,  # noqa: F401  perfbench/tracing.py traces the quadrature through this name
    transport_flux,
)

__all__ = [
    "NumericalFailure",
    "gaussian",
    "gaussian_difference",
    "smooth_bump",
    "ForwardRun",
    "solve",
    "stationary_solve",
]


# ---------------------------------------------------------------------------
# initial data


def gaussian(grid: Grid, center: float = 0.0, std: float = 1.0) -> DensityField:
    """Gaussian profile normalized to unit mass on the grid itself, so the
    discrete integral is exactly 1 even when the tails are truncated."""
    if std <= 0:
        raise ValueError(f"std must be positive, got {std}")
    vals = np.exp(-0.5 * ((grid.nodes - center) / std) ** 2)
    vals /= vals.sum() * grid.cell_volume
    return DensityField(grid=grid, values=vals)


def gaussian_difference(
    grid: Grid,
    center1: float = 0.0,
    std1: float = 1.0,
    center2: float = 0.0,
    std2: float = 2.0,
) -> DensityField:
    """Difference of two unit-mass Gaussians: signed data with exact zero
    mass, the natural input for decay-rate experiments."""
    a = gaussian(grid, center1, std1)
    b = gaussian(grid, center2, std2)
    return DensityField(grid=grid, values=a.values - b.values)


def smooth_bump(grid: Grid, center: float = 0.0, width: float = 1.0) -> DensityField:
    """Compactly supported C^infinity bump, unit mass on the grid."""
    if width <= 0:
        raise ValueError(f"width must be positive, got {width}")
    r = (grid.nodes - center) / width
    vals = np.zeros(grid.n)
    inside = np.abs(r) < 1.0
    vals[inside] = np.exp(-1.0 / (1.0 - r[inside] ** 2))
    total = vals.sum() * grid.cell_volume
    if total <= 0:
        raise ValueError("bump support does not contain any grid node")
    return DensityField(grid=grid, values=vals / total)


# ---------------------------------------------------------------------------
# stepping machinery


class _Stepper:
    """Precomputed pieces of one Strang step for a fixed (spec, grid, dt)."""

    def __init__(self, spec: GeneratorSpec, grid: Grid, dt: float, limiter: str, jump_route: str):
        # two RK substeps of dt/2 per transport half
        self.stage = StepSetup(spec, grid, dt, jump_route, substep=0.5)
        self.grid = grid
        self.dt = dt
        self.limiter = limiter

    def _transport_half(self, m: np.ndarray, t: float) -> np.ndarray:
        # SSP-RK2 over dt/2 for d/dt m + div(w m) = 0
        tau = 0.5 * self.dt
        dx = self.grid.dx
        w0 = self.stage.faces(t)
        m1 = m - tau * divergence_of_flux(transport_flux(m, w0, dx, self.limiter), dx)
        w1 = self.stage.faces(t + tau)
        m2 = m1 - tau * divergence_of_flux(transport_flux(m1, w1, dx, self.limiter), dx)
        return 0.5 * (m + m2)

    def step(self, m: np.ndarray, t: float) -> np.ndarray:
        m = self._transport_half(m, t)
        m = self.stage.diffuse(m, adjoint=True)
        return self._transport_half(m, t + 0.5 * self.dt)


@dataclass(frozen=True)
class ForwardRun:
    """Recorded time series of a forward integration."""

    grid: Grid
    spec: GeneratorSpec
    initial: DensityField
    dt: float
    times: np.ndarray
    mass: np.ndarray
    min_value: np.ndarray
    boundary_mass: np.ndarray
    weighted_norms: dict = field(default_factory=dict)
    pairings: np.ndarray | None = None
    final: DensityField | None = None
    snapshots: tuple = ()

    def norm_series(self, name: str) -> np.ndarray:
        return self.weighted_norms[name]


def solve(
    m0: DensityField,
    spec: GeneratorSpec,
    t_final: float,
    dt: float,
    limiter: str = "mc",
    jump_route: str = "auto",
    eps_boundary: float = 1e-6,
    record_every: int = 1,
    record_weights: dict | None = None,
    pair_with: np.ndarray | None = None,
    snapshot_times: tuple = (),
) -> ForwardRun:
    """Integrate to t_final, recording diagnostics every record_every steps.

    record_weights maps names to weight functions phi; each recorded entry is
    the weighted total-variation norm of the current (possibly signed) field.
    pair_with, when given, records the pairing integral of that array against
    the field. The run aborts with NumericalFailure once the absolute mass in
    the outer 5% of the cells at each end exceeds eps_boundary: from then on
    the periodic wrap-around is feeding the tails back into the bulk. That
    and blow-up are checked at the recorded steps only (snapshot steps too).
    """
    grid = m0.grid
    stepper = _Stepper(spec, grid, dt, limiter, jump_route)
    snap_steps = {int(round(ts / dt)) for ts in snapshot_times}
    guard = RunGuard(dt, t_final, record_every, extra_records=snap_steps)
    record_weights = record_weights or {}
    vol = grid.cell_volume

    times, mass, minv, bnd = [], [], [], []
    norms: dict = {name: [] for name in record_weights}
    pair = [] if pair_with is not None else None
    snaps = []

    m = m0.values.copy()
    t = m0.t

    def record(step_idx: int):
        guard.check_blow_up(m, t)
        times.append(t)
        mass.append(m.sum() * vol)
        minv.append(m.min())
        bnd.append(guard.boundary_mass(m, vol, eps_boundary, t))
        for name, phi in record_weights.items():
            norms[name].append(weighted_tv_norm(DensityField(grid, m, t), phi))
        if pair is not None:
            pair.append(float(np.sum(pair_with * m) * vol))
        if step_idx in snap_steps:
            snaps.append(DensityField(grid, m, t))

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
        pairings=None if pair is None else np.array(pair),
        final=DensityField(grid, m, t),
        snapshots=tuple(snaps),
    )


def stationary_solve(
    spec: GeneratorSpec,
    grid: Grid,
    dt: float,
    tol: float = 1e-8,
    check_interval: float = 1.0,
    max_time: float = 400.0,
    eps_boundary: float = 0.05,
    limiter: str = "mc",
    jump_route: str = "auto",
) -> tuple[DensityField, dict]:
    """March a centered Gaussian forward until successive profiles one
    check_interval apart differ by less than tol in unweighted TV norm.

    Heavy-tailed stationary laws park real mass near the seam, so the
    boundary budget default is far looser than for transient runs; the
    attained boundary mass is reported for the caller to judge. Blow-up is
    checked at the end of every block of check_interval.
    """
    if spec.is_time_dependent:
        raise ValueError("stationary solve needs a time-independent drift")
    stepper = _Stepper(spec, grid, dt, limiter, jump_route)
    # one block of steps between convergence checks
    block = RunGuard(dt, max(1, int(round(check_interval / dt))) * dt)
    m = gaussian(grid).values
    k, t = 0, 0.0
    diff = np.inf
    while t < max_time:
        prev = m
        for _ in range(block.n_steps):
            m = stepper.step(m, t)
            k += 1
            t = k * dt
        block.check_blow_up(m, t)
        diff = float(np.sum(np.abs(m - prev)) * grid.cell_volume)
        if diff < tol:
            break
    else:
        raise NumericalFailure(
            f"no stationary profile within t={max_time:g}: last TV increment {diff:.3e}")
    m = m / (m.sum() * grid.cell_volume)  # unit mass exactly on the grid
    out = DensityField(grid, m, t)
    b = RunGuard.boundary_mass(m, grid.cell_volume, eps_boundary)
    return out, {"t_converged": t, "tv_increment": diff, "boundary_mass": b}
