"""The forward step before its transport halves were merged, kept as the
law oracle of the merged march.

``face_velocities`` is the drift evaluated whole at the faces, as the
steppers read it before ``StepSetup`` evaluated the steady part once.
``mc_slope_retired`` is the MC slope formed on differences divided by dx,
with a select and copysign. ``strang_step_retired`` is one whole Strang step
T(dt/2) D T(dt/2), each half two SSP-RK2 substeps of the physical flux
divided by dx and scaled by dt/2; a run took one per step and read its
records off the stepped state. Both reproduce the code they replaced, bit
for bit: the donors of ``upwind_faces`` do not depend on the scale of the
velocities, and its half-widths +-1/8 times 4 dx are the retired +-(dx/2)
exactly.
"""
from __future__ import annotations

import numpy as np

from levyfp.operators import _ring, upwind_faces


def _face_points(grid) -> np.ndarray:
    """Interfaces x_{i+1/2} = x_i + dx/2. The last face, at L - dx/2,
    separates the last cell from the first; mass crossing it wraps around
    the periodic seam."""
    return grid.nodes + 0.5 * grid.dx


def face_velocities(grid, drift, t: float) -> np.ndarray:
    """Transport velocity w = -b(t, x) at the interfaces ``_face_points``."""
    return -np.asarray(drift(t, _face_points(grid)), dtype=float)


def mc_slope_retired(e: np.ndarray, dx: float) -> np.ndarray:
    """MC slopes of a ring copy e: sign(central) * min(|central|,
    2 min(|left|, |right|)) where left * right > 0 and 0 elsewhere, on the
    differences d = (e[1:] - e[:-1]) / dx, |central| taken as
    (|left| + |right|) / 2 and its sign from left."""
    d = e[1:] - e[:-1]
    d /= dx
    left, right = d[:-1], d[1:]
    a = np.abs(d)
    a_left, a_right = a[:-1], a[1:]
    lim = np.minimum(0.5 * (a_left + a_right), 2.0 * np.minimum(a_left, a_right))
    return np.where(left * right > 0.0, np.copysign(lim, left), 0.0)


def _divergence_retired(stepper, m: np.ndarray, t: float) -> np.ndarray:
    """div(w m_rec) of a (rows, n) stack with each row's drift at time t."""
    grid, dx = stepper.grid, stepper.grid.dx
    faces = upwind_faces(np.array([face_velocities(grid, s.spec.drift, t) for s in stepper.stages]))
    e = m.take(_ring(*m.shape))
    if stepper.limiter == "off":
        rec = faces.half * 0.0
    else:
        rec = mc_slope_retired(e, dx).take(faces.donor)
        rec *= faces.half * (4.0 * dx)
    rec += e[1:].take(faces.donor)
    rec *= faces.w
    div = rec[..., 1:] - rec[..., :-1]
    div /= dx
    return div


def _transport_half_retired(stepper, m: np.ndarray, t: float, t_end: float) -> np.ndarray:
    tau = 0.5 * stepper.dt
    m1 = m - tau * _divergence_retired(stepper, m, t)
    m2 = m1 - tau * _divergence_retired(stepper, m1, t_end)
    return 0.5 * (m2 + m)


def strang_step_retired(stepper, m: np.ndarray, t: float, t_end: float) -> np.ndarray:
    """One whole step T(dt/2) D T(dt/2) from t to t_end, with the diffusion
    stage of ``stepper`` (a forward ``_Stepper``, whose limiter it reads)."""
    mid = t + 0.5 * stepper.dt
    m = _transport_half_retired(stepper, m, t, mid)
    m = stepper.diffuse(m, adjoint=True)
    return _transport_half_retired(stepper, m, mid, t_end)
