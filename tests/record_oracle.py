"""The forward record as a per-row loop, kept as the oracle of the
stack-wide record.

``solve_stack_per_row`` is ``forward.solve_stack`` as it was before a record
became one pass over the stack: the same march, but every row of a record
runs its own blow-up scan, mass sum, band sum and weighted norms on a Field
copy of its row, with its weights evaluated on the nodes again at every
record. ``_SeriesPerRow.record`` is that retired per-row record, with the
guard's blow-up and band checks and their messages written out as they were.
"""
from __future__ import annotations

import numpy as np

from levyfp.forward import _SUBSTEP, ForwardRun, _Stepper
from levyfp.grids import Field
from levyfp.operators import NumericalFailure, RunGuard, StepSetup


def weighted_tv_norm_per_field(m: Field, w) -> float:
    """Integral of phi d|m| by the midpoint rule, one field at a time."""
    phi = np.asarray(w(m.grid.nodes), dtype=float)
    return float(np.sum(phi * np.abs(m.values)) * m.grid.dx)


class _SeriesPerRow:
    """The records of one run of a stack, taken from its row of the state."""

    def __init__(self, m0, spec, dt, weights, eps_boundary):
        self.m0, self.spec, self.dt, self.weights = m0, spec, dt, weights
        self.eps_boundary = eps_boundary
        self.times, self.mass, self.minv, self.bnd, self.snaps = [], [], [], [], []
        self.norms = {name: [] for name in weights}

    def record(self, m: np.ndarray, t: float, snapshot: bool):
        grid, eps = self.m0.grid, self.eps_boundary
        if not np.abs(m).max() <= 1e12:
            raise NumericalFailure(f"forward run blew up at t={t:g}")
        self.times.append(t)
        self.mass.append(m.sum() * grid.dx)
        self.minv.append(m.min())
        w = int(np.ceil(RunGuard.BAND * m.size))
        b = float(np.sum(np.abs(np.concatenate((m[:w], m[-w:])))) * grid.dx)
        if b > eps:
            raise NumericalFailure(
                f"boundary mass {b:.3e} exceeds eps={eps:g} at t={t:g}: the box is too small for this horizon, "
                f"or dx={grid.dx:g} is too coarse for the data")
        self.bnd.append(b)
        if self.weights or snapshot:
            sample = Field(grid, m, t)
            for name, phi in self.weights.items():
                self.norms[name].append(weighted_tv_norm_per_field(sample, phi))
            if snapshot:
                self.snaps.append(sample)

    def run(self, m: np.ndarray, t: float) -> ForwardRun:
        return ForwardRun(
            grid=self.m0.grid, spec=self.spec, initial=self.m0, dt=self.dt,
            times=np.array(self.times), mass=np.array(self.mass), min_value=np.array(self.minv),
            boundary_mass=np.array(self.bnd),
            weighted_norms={k: np.array(v) for k, v in self.norms.items()},
            final=Field(self.m0.grid, m, t), snapshots=tuple(self.snaps),
        )


def solve_stack_per_row(m0, specs, t_final, dt, limiter="mc", eps_boundary=1e-6, record_every=1,
                        record_weights=None, snapshot_times=()) -> list:
    """``solve_stack`` with the per-row record."""
    grid = m0.grid
    results = [None] * len(specs)
    live, stages = [], []
    for i, spec in enumerate(specs):
        try:
            stages.append(StepSetup(spec, grid, dt, substep=_SUBSTEP))
        except NumericalFailure as exc:
            results[i] = exc
        else:
            live.append(i)
    snap_steps = {int(round(ts / dt)) for ts in snapshot_times}
    guard = RunGuard(dt, t_final, record_every, extra_records=snap_steps)
    weights = record_weights or [{}] * len(specs)
    series = {i: _SeriesPerRow(m0, specs[i], dt, weights[i], eps_boundary) for i in live}
    state = {"m": np.repeat(m0.values[None, :], len(live), axis=0), "t": 0.0}
    state["closed"] = state["m"]
    stepper = _Stepper(stages, limiter)

    def restack(failed):
        nonlocal live
        keep = [r for r in range(len(live)) if r not in failed]
        for r, exc in failed.items():
            results[live[r]] = exc
        state["m"], state["closed"] = state["m"][keep], state["closed"][keep]
        live = [live[r] for r in keep]
        if live:
            stepper.keep(keep)

    def record(k):
        while k and live:
            try:
                state["closed"] = stepper.close(state["m"], state["t"])
                break
            except NumericalFailure as exc:
                restack({exc.row: exc})
        failed = {}
        for r, row in enumerate(state["closed"]):
            try:
                series[live[r]].record(row, state["t"], k in snap_steps)
            except NumericalFailure as exc:
                failed[r] = exc
        if failed:
            restack(failed)

    record(0)
    k = 0
    while live and k < guard.n_steps:
        t_next = (k + 1) * dt
        try:
            stepped = stepper.step(state["m"], state["t"], t_next)
        except NumericalFailure as exc:
            restack({exc.row: exc})
            continue
        state["m"], k, state["t"] = stepped, k + 1, t_next
        if guard.records(k):
            record(k)
    for r, i in enumerate(live):
        results[i] = series[i].run(state["closed"][r], state["t"])
    return results
