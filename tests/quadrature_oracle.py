"""The shell-quadrature jump integral on the periodic grid, kept as the test
oracle for the exact symbols the time steppers apply.

``levy_integral_field`` integrates the compensated jump integral node by node
over dyadic shells of the singular kernel; ``impulse_response`` builds its
response to a unit impulse from the interpolation taps, bit for bit, and
``quadrature_symbol`` is the discrete Fourier symbol of the loop, which is a
symmetric circulant on the periodic grid.
"""
from __future__ import annotations

import numpy as np

from levyfp.generators import LevyMeasureSpec
from levyfp.grids import Field, Grid
from levyfp.lyapunov import _second_moment_inner, shell_quadrature_nodes


def _mass_beyond(nu: LevyMeasureSpec, z_max: float) -> float:
    """integral of density over z > z_max (one sign), geometric ladder."""
    z, w = shell_quadrature_nodes(z_max, max(1e12, z_max * 1e6), 2, 8)
    return float(np.sum(w * nu.density(z)))


def _lagrange_weights(t):
    """Weights of the 4-point Lagrange taps j-1, j, j+1, j+2 at offset t in
    [0, 1) from tap j; t may be a scalar or an array."""
    return (
        -t * (t - 1.0) * (t - 2.0) / 6.0,
        (t + 1.0) * (t - 1.0) * (t - 2.0) / 2.0,
        -t * (t + 1.0) * (t - 2.0) / 2.0,
        t * (t + 1.0) * (t - 1.0) / 6.0,
    )


def periodic_shift_interp(values: np.ndarray, grid: Grid, z: float) -> np.ndarray:
    """u(x_i + z) for all i by periodic 4-point Lagrange interpolation.

    Cubic rather than linear: the jump kernel integrates interpolation error
    against ~1/z^{1+sigma} down to sub-cell radii, and the linear-order error
    floor dx^2*u'' there is far too coarse for cross-route validation.
    """
    s = z / grid.dx
    j = int(np.floor(s))
    wm1, w0, w1, w2 = _lagrange_weights(s - j)
    return (
        wm1 * np.roll(values, -(j - 1))
        + w0 * np.roll(values, -j)
        + w1 * np.roll(values, -(j + 1))
        + w2 * np.roll(values, -(j + 2))
    )


def fourth_order_d2(values: np.ndarray, dx: float) -> np.ndarray:
    """4th-order centered periodic second difference."""
    q = np.concatenate((values[-2:], values, values[:2]))
    return (-q[4:] + 16.0 * q[3:-1] - 30.0 * values + 16.0 * q[1:-3] - q[:-4]) / (12.0 * dx**2)


def _shell_rule(grid: Grid, nu: LevyMeasureSpec, r_min, z_max, shells_per_octave: int = 1,
                nodes_per_shell: int = 8):
    """(r_min, z_max, nodes z, weights w * density(z)) of the quadrature on the
    grid, r_min defaulting to dx/4 and z_max to 64 L."""
    if not 0.0 < nu.sigma < 2.0:
        raise ValueError(f"jump quadrature needs sigma in (0, 2), got {nu.sigma}")
    r_min = grid.dx / 4.0 if r_min is None else float(r_min)
    z_max = 64.0 * grid.half_width if z_max is None else float(z_max)
    if r_min <= 0:
        raise ValueError(f"r_min must be positive, got {r_min}")
    z, w = shell_quadrature_nodes(r_min, z_max, shells_per_octave, nodes_per_shell)
    return r_min, z_max, z, w * nu.density(z)


def _add_local_terms(acc: np.ndarray, vals: np.ndarray, grid: Grid, nu: LevyMeasureSpec,
                     r_min: float, z_max: float) -> np.ndarray:
    """acc plus the Taylor term below r_min, then the tail beyond z_max, in place."""
    # 4th-order centered second difference: the m2 weight blows up like
    # r_min^(2-sigma)/(2-sigma) near sigma = 2, so the dx^2 floor of the
    # 3-point stencil is not good enough there.
    acc += 0.5 * fourth_order_d2(vals, grid.dx) * _second_moment_inner(nu, r_min)
    acc += 2.0 * (float(np.mean(vals)) - vals) * _mass_beyond(nu, z_max)
    return acc


def levy_integral_field(
    u: Field,
    nu: LevyMeasureSpec,
    r_min: float | None = None,
    z_max: float | None = None,
    shells_per_octave: int = 1,
    nodes_per_shell: int = 8,
) -> Field:
    """Compensated jump integral I(x, [u]) on every node of a d=1 grid.

    Uses symmetric pairing u(x+z) + u(x-z) - 2 u(x), which is the compensated
    form for symmetric measures, over dyadic shells from r_min (default dx/4)
    to z_max (default 64 L, contributions wrapping through the periodic cell).
    Below r_min the integrand is replaced by its Taylor model z^2 u''(x) with a
    centered finite-difference u'', i.e. the term 0.5 * u'' * m2(r_min).
    Beyond z_max the wrapped samples equidistribute over the cell, so the tail
    collapses to 2 (mean(u) - u(x)) * nu(z > z_max).
    """
    grid = u.grid
    if not nu.is_active:
        return Field(grid, np.zeros_like(u.values), u.t)
    r_min, z_max, z, rho_w = _shell_rule(grid, nu, r_min, z_max, shells_per_octave, nodes_per_shell)
    vals = u.values
    acc = np.zeros_like(vals)
    for zk, rw in zip(z, rho_w):
        acc += rw * (
            periodic_shift_interp(vals, grid, zk)
            + periodic_shift_interp(vals, grid, -zk)
            - 2.0 * vals
        )
    return Field(grid, _add_local_terms(acc, vals, grid, nu, r_min, z_max), u.t)


def impulse_response(grid: Grid, nu: LevyMeasureSpec) -> np.ndarray:
    """levy_integral_field of the unit impulse at cell 0 (default rule), bit for
    bit, built from the Lagrange taps without the per-node loop.

    On the impulse each shift +-z_k reaches only its 4 tap cells, where the
    loop's interpolant is exactly the tap weight. Row k of ``terms`` is what
    node k adds: the weights of +z_k, those of -z_k summed onto them, minus 2
    at cell 0, times the node weight. Adding the rows in node order repeats
    the loop's additions on every cell.
    """
    n = grid.n
    r_min, z_max, z, rho_w = _shell_rule(grid, nu, None, None)
    terms = np.zeros((z.size, n))
    rows = np.arange(z.size)[:, None]
    for shift in (z, -z):
        s = shift / grid.dx
        j = np.floor(s)
        # the impulse sits in tap j + r of cell i where i + j + r = 0 mod n
        cells = -(j.astype(np.int64)[:, None] + np.arange(-1, 3)) % n
        terms[rows, cells] += np.stack(_lagrange_weights(s - j), axis=1)
    terms[:, 0] -= 2.0
    terms *= rho_w[:, None]
    acc = np.zeros(n)
    for row in terms:
        acc += row
    impulse = np.zeros(n)
    impulse[0] = 1.0
    return _add_local_terms(acc, impulse, grid, nu, r_min, z_max)


def quadrature_symbol(grid: Grid, nu: LevyMeasureSpec) -> np.ndarray:
    """lam on the full spectrum with fft(levy_integral_field(u)) = lam * fft(u):
    the FFT of the unit-impulse response. The loop kills constants, so lam[0]
    is exactly 0, not the impulse sum's residue."""
    lam = np.fft.fft(impulse_response(grid, nu)).real
    lam[0] = 0.0
    return lam
