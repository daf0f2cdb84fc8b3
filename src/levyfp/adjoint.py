"""Backward-clock integration of test functions against the generator.

v(s) = u(t - s) satisfies  d/ds v + b . Dv = lambda0 Lap v + tr(Sigma^2 D^2 v)
+ I(x,[v]), marched here with a Lie split: one advection step, then the
diffusion stage the forward solver uses, on a one-row stack of the stepper
machinery both clocks share (``operators.StackStepper``). The advection
update is the exact matrix transpose of the forward donor flux; its two
differences, v_i - v_{i+1} and v_{i-1} - v_i, are read off the ring copy of
-v that the forward flux also takes (``operators._ring``), which the
stepper holds as its ``ring``. The only duality mismatch between the two
solvers is the splitting-order difference, which is O(dt^2) per step and
Theta(dt) accumulated; it cannot hide a sign or stencil inconsistency.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .generators import GeneratorSpec
from .grids import Field, Grid
from .norms import nodal_weights, weighted_seminorm
from .operators import RunGuard, StackStepper, StepSetup
from .weights import WeightFunction

__all__ = [
    "tanh_profile",
    "ramp_profile",
    "smoothed_indicator",
    "tapered_linear",
    "AdjointRun",
    "DualityReport",
    "solve_backward",
    "oscillation_trace",
    "duality_residual",
]


# ---------------------------------------------------------------------------
# terminal data


def tanh_profile(grid: Grid) -> Field:
    return Field(grid=grid, values=np.tanh(grid.nodes))


def ramp_profile(grid: Grid) -> Field:
    """0 left of -1, 1 right of 1, linear in between."""
    return Field(grid=grid, values=np.clip((grid.nodes + 1.0) / 2.0, 0.0, 1.0))


def smoothed_indicator(grid: Grid) -> Field:
    """Smooth profile ~ 1 on [-1, 1], falling to 0 over the scale 0.2."""
    x = grid.nodes
    vals = 0.5 * (np.tanh((x + 1.0) / 0.2) - np.tanh((x - 1.0) / 0.2))
    return Field(grid=grid, values=vals)


def tapered_linear(grid: Grid) -> Field:
    """x rolled off to zero near the seam: exactly x on |x| <= 0.65 L,
    exactly 0 beyond 0.95 L, cos^2-smooth in between. Keeps spectral stages
    free of a seam jump without distorting the interior."""
    x = grid.nodes
    r0 = 0.65 * grid.half_width
    r1 = 0.95 * grid.half_width
    ramp = np.clip((np.abs(x) - r0) / (r1 - r0), 0.0, 1.0)
    vals = np.where(ramp >= 1.0, 0.0, x * np.cos(0.5 * np.pi * ramp) ** 2)
    return Field(grid=grid, values=vals)


# ---------------------------------------------------------------------------
# stepping


class _BackwardStepper(StackStepper):
    """One Lie step of the backward clock on a (rows, n) stack, its drift
    read at forward time t. Its face record is the split max(w_i, 0),
    min(w_{i-1}, 0): it reads no donors. ``rho`` = dt/dx is taken once."""

    def __init__(self, stages: list):
        super().__init__(stages)
        self.rho = self.dt / self.grid.dx

    def _record(self, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # the ring copy (``ring``) of each row of w is w_{n-1}, w_0, ..., w_{n-1}, w_0
        ring = w.take(self.ring, mode="clip")
        return np.maximum(ring[:, 1:-1], 0.0), np.minimum(ring[:, :-2], 0.0)

    def _advect(self, v: np.ndarray, t: float) -> np.ndarray:
        # exact transpose of the forward donor update
        #   m_i <- m_i - rho (wp_i m_i + wm_i m_{i+1} - wp_{i-1} m_{i-1} - wm_{i-1} m_i)
        # with e the ring copy of -v, d[k] = e[k+1] - e[k] = v[k-1] - v[k], k = 0..n:
        # v - rho * (wp * d[1:] + wm_prev * d[:-1]), formed in place
        wp, wm_prev = self.faces(t)
        e = v.take(self.ring, mode="clip")
        np.negative(e, out=e)
        d = e[:, 1:] - e[:, :-1]
        du = wp * d[:, 1:]
        du += wm_prev * d[:, :-1]
        du *= self.rho
        return np.subtract(v, du, out=du)

    def step(self, v: np.ndarray, t: float) -> np.ndarray:
        v = self._advect(v, t)
        return self.diffuse(v, adjoint=False)


@dataclass(frozen=True)
class AdjointRun:
    """Backward-clock trajectory; times are s in [0, s_final], so the profile
    at s corresponds to the test function at forward time t = s_final - s."""

    times: np.ndarray
    profiles: tuple
    sup_norm: np.ndarray

    @property
    def final(self) -> Field:
        return self.profiles[-1]


def solve_backward(
    xi: Field,
    spec: GeneratorSpec,
    s_final: float,
    dt: float,
    record_every: int = 1,
) -> AdjointRun:
    """March v from v(0) = xi through s_final on the backward clock, keeping
    the profile at every record_every-th step (endpoints always included).

    The clock reverses at s_final: a time-dependent drift is read at forward
    time t = s_final - s.
    """
    grid = xi.grid
    stepper = _BackwardStepper([StepSetup(spec, grid, dt, where=" in adjoint advection")])
    guard = RunGuard(dt, s_final, record_every, clock="s")

    times, profiles, sup = [], [], []
    v = xi.values[None, :]  # a one-row stack
    s = 0.0

    def record():
        sup.append(guard.check_blow_up(v, s))
        times.append(s)
        profiles.append(Field(grid, v[0], s))

    record()
    for k in range(1, guard.n_steps + 1):
        v = stepper.step(v, s_final - s)
        s = k * dt
        if guard.records(k):
            record()

    return AdjointRun(times=np.array(times), profiles=tuple(profiles), sup_norm=np.array(sup))


def oscillation_trace(run: AdjointRun, weight: WeightFunction) -> np.ndarray:
    """[v(s)]_w at every recorded s: the quantity whose decay the weighted
    regularity estimates control (backward s plays the role of elapsed time).
    The weight is evaluated on the nodes, and checked, once per trace."""
    phi = nodal_weights(weight, run.final.grid)
    return np.array([weighted_seminorm(p, phi) for p in run.profiles])


@dataclass(frozen=True)
class DualityReport:
    """Cross-check of the two solvers through the pairing identity
    <xi, m(t)> = <v(t), m(0)>."""

    residual: float
    normalized: float
    lhs: float
    rhs: float
    dt: float
    n_steps: int


def duality_residual(fw, xi: Field) -> DualityReport:
    """Measure the pairing gap between a completed forward run and a fresh
    backward run of the same generator on the same grid and time step,
    normalized by sup|xi| * ||m0||_TV."""
    grid = fw.grid
    if xi.grid != grid:
        raise ValueError("xi and the forward run must share one grid")
    t = float(fw.times[-1] - fw.times[0])
    n_steps = RunGuard(fw.dt, t, clock="s").n_steps
    adj = solve_backward(xi, fw.spec, s_final=t, dt=fw.dt, record_every=max(1, n_steps))
    dx = grid.dx
    lhs = float(np.sum(xi.values * fw.final.values) * dx)
    rhs = float(np.sum(adj.final.values * fw.initial.values) * dx)
    residual = abs(lhs - rhs)
    denom = xi.sup_norm * float(np.sum(np.abs(fw.initial.values)) * dx)
    return DualityReport(
        residual=residual,
        normalized=residual / max(denom, 1e-300),
        lhs=lhs,
        rhs=rhs,
        dt=fw.dt,
        n_steps=n_steps,
    )
