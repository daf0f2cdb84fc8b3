"""Backward-clock integration of test functions against the generator.

v(s) = u(t - s) satisfies  d/ds v + b . Dv = lambda0 Lap v + tr(Sigma^2 D^2 v)
+ I(x,[v]) + f,  marched here with a Lie split: one advection step, then the
same diffusion stage the forward solver uses. The advection update is the
exact matrix transpose of the forward donor flux; its two differences,
v_i - v_{i+1} and v_{i-1} - v_i, are two views of one periodic difference
array. The only duality mismatch between the two solvers is the
splitting-order difference, which is O(dt^2) per step and Theta(dt)
accumulated; it cannot hide a sign or stencil inconsistency.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .generators import GeneratorSpec
from .grids import Grid, ScalarField
from .norms import weighted_seminorm
from .operators import RunGuard, StepSetup, _periodic_difference
# levy_integral_field stays importable here: perfbench/tracing.py traces the quadrature through it
from .operators import levy_integral_field  # noqa: F401
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


def tanh_profile(grid: Grid, slope: float = 1.0) -> ScalarField:
    return ScalarField(grid=grid, values=np.tanh(slope * grid.nodes))


def ramp_profile(grid: Grid, a: float = -1.0, b: float = 1.0) -> ScalarField:
    if not a < b:
        raise ValueError(f"ramp needs a < b, got a={a}, b={b}")
    return ScalarField(grid=grid, values=np.clip((grid.nodes - a) / (b - a), 0.0, 1.0))


def smoothed_indicator(grid: Grid, a: float = -1.0, b: float = 1.0, width: float = 0.2) -> ScalarField:
    """Smooth profile ~ 1 on [a, b], falling to 0 over the scale width."""
    if not a < b or width <= 0:
        raise ValueError("need a < b and width > 0")
    x = grid.nodes
    vals = 0.5 * (np.tanh((x - a) / width) - np.tanh((x - b) / width))
    return ScalarField(grid=grid, values=vals)


def tapered_linear(grid: Grid, plateau: float = 0.65, cutoff: float = 0.95) -> ScalarField:
    """x rolled off to zero near the seam: exactly x on |x| <= plateau*L,
    exactly 0 beyond cutoff*L, cos^2-smooth in between. Keeps spectral stages
    free of a seam jump without distorting the interior."""
    if not 0.0 < plateau < cutoff <= 1.0:
        raise ValueError("need 0 < plateau < cutoff <= 1")
    x = grid.nodes
    r0 = plateau * grid.half_width
    r1 = cutoff * grid.half_width
    ramp = np.clip((np.abs(x) - r0) / (r1 - r0), 0.0, 1.0)
    vals = np.where(ramp >= 1.0, 0.0, x * np.cos(0.5 * np.pi * ramp) ** 2)
    return ScalarField(grid=grid, values=vals)


# ---------------------------------------------------------------------------
# stepping


class _AdjointStepper:
    def __init__(self, spec: GeneratorSpec, grid: Grid, dt: float, jump_route: str,
                 forward_horizon: float | None):
        if spec.is_time_dependent and forward_horizon is None:
            raise ValueError("time-dependent drift needs forward_horizon to reverse the clock")
        self.stage = StepSetup(spec, grid, dt, jump_route, substep=1.0, where=" in adjoint advection")
        self.grid = grid
        self.dt = dt
        self.horizon = forward_horizon or 0.0  # a static drift never reads the time

    def _advect(self, v: np.ndarray, s: float) -> np.ndarray:
        # exact transpose of the forward donor update
        #   m_i <- m_i - rho (wp_i m_i + wm_i m_{i+1} - wp_{i-1} m_{i-1} - wm_{i-1} m_i)
        # with e[k] = v[k-1] - v[k] (one periodic difference array, of -v),
        # v_i - v_{i+1} is e[1:] and v_{i-1} - v_i is e[:-1]
        wp, wm_prev = self.stage.transpose_split(self.horizon - s)
        rho = self.dt / self.grid.dx
        e = _periodic_difference(-v)
        return v - rho * (wp * e[1:] + wm_prev * e[:-1])

    def step(self, v: np.ndarray, s: float, source: np.ndarray | None) -> np.ndarray:
        v = self._advect(v, s)
        v = self.stage.diffuse(v, adjoint=False)
        if source is not None:
            v = v + self.dt * source
        return v


@dataclass(frozen=True)
class AdjointRun:
    """Backward-clock trajectory; times are s in [0, s_final], so the profile
    at s corresponds to the test function at forward time t = s_final - s."""

    grid: Grid
    spec: GeneratorSpec
    terminal: ScalarField
    dt: float
    times: np.ndarray
    profiles: tuple
    sup_norm: np.ndarray

    @property
    def final(self) -> ScalarField:
        return self.profiles[-1]


def solve_backward(
    xi: ScalarField,
    spec: GeneratorSpec,
    s_final: float,
    dt: float,
    jump_route: str = "auto",
    source=None,
    forward_horizon: float | None = None,
    record_every: int = 1,
) -> AdjointRun:
    """March v from v(0) = xi through s_final on the backward clock, keeping
    the profile at every record_every-th step (endpoints always included).

    source may be None, a static array/field, or a callable s -> array.
    """
    grid = xi.grid
    stepper = _AdjointStepper(spec, grid, dt, jump_route, forward_horizon)
    guard = RunGuard(dt, s_final, record_every, clock="s")

    if source is None:
        src_at = lambda s: None
    elif callable(source):
        src_at = lambda s: np.asarray(source(s), dtype=float)
    else:
        src_arr = source.values if hasattr(source, "values") else np.asarray(source, dtype=float)
        src_at = lambda s: src_arr

    times, profiles, sup = [], [], []
    v = xi.values.copy()
    s = 0.0

    def record():
        sup.append(guard.check_blow_up(v, s))
        times.append(s)
        profiles.append(ScalarField(grid, v, s))

    record()
    for k in range(1, guard.n_steps + 1):
        v = stepper.step(v, s, src_at(s))
        s = k * dt
        if guard.records(k):
            record()

    return AdjointRun(
        grid=grid,
        spec=spec,
        terminal=xi,
        dt=dt,
        times=np.array(times),
        profiles=tuple(profiles),
        sup_norm=np.array(sup),
    )


def oscillation_trace(run: AdjointRun, weight: WeightFunction) -> np.ndarray:
    """[v(s)]_w at every recorded s: the quantity whose decay the weighted
    regularity estimates control (backward s plays the role of elapsed time)."""
    return np.array([weighted_seminorm(p, weight) for p in run.profiles])


@dataclass(frozen=True)
class DualityReport:
    """Cross-check of the two solvers through the pairing identity
    <xi, m(t)> + int_0^t <f, m(s)> ds = <v(t), m(0)>."""

    residual: float
    normalized: float
    lhs: float
    rhs: float
    dt: float
    n_steps: int
    description: dict


def duality_residual(
    fw,
    xi: ScalarField,
    source=None,
    jump_route: str = "auto",
) -> DualityReport:
    """Measure the pairing gap between a completed forward run and a fresh
    backward run of the same generator on the same grid and time step.

    When a source f is given the forward run must have recorded the pairings
    <f, m(s)> (pass pair_with=f to the forward solve); the f term of the
    identity is then integrated with the trapezoid rule on the recorded
    times. The residual is normalized by sup|xi| * ||m0||_TV + int |<f, m>|.
    """
    grid = fw.grid
    if xi.grid != grid:
        raise ValueError("xi and the forward run must share one grid")
    t = float(fw.times[-1] - fw.times[0])
    src_arr = None
    if source is not None:
        if callable(source):
            raise ValueError("duality_residual supports static sources only")
        src_arr = source.values if hasattr(source, "values") else np.asarray(source, dtype=float)
        if fw.pairings is None:
            raise ValueError("forward run lacks recorded <f, m> pairings; "
                             "re-run solve with pair_with=f")

    n_steps = RunGuard(fw.dt, t, clock="s").n_steps
    adj = solve_backward(
        xi, fw.spec, s_final=t, dt=fw.dt, jump_route=jump_route,
        source=src_arr, forward_horizon=t if fw.spec.is_time_dependent else None,
        record_every=max(1, n_steps),
    )
    vol = grid.cell_volume
    lhs = float(np.sum(xi.values * fw.final.values) * vol)
    rhs = float(np.sum(adj.final.values * fw.initial.values) * vol)
    f_term = 0.0
    denom_f = 0.0
    if src_arr is not None:
        f_term = float(np.trapezoid(fw.pairings, fw.times))
        denom_f = float(np.trapezoid(np.abs(fw.pairings), fw.times))
    residual = abs(lhs + f_term - rhs)
    denom = xi.sup_norm * float(np.sum(np.abs(fw.initial.values)) * vol) + denom_f
    return DualityReport(
        residual=residual,
        normalized=residual / max(denom, 1e-300),
        lhs=lhs + f_term,
        rhs=rhs,
        dt=fw.dt,
        n_steps=n_steps,
        description=fw.spec.describe(),
    )
