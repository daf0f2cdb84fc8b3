"""Weighted oscillation seminorms, shifted sup norms, and weighted TV norms.

The oscillation seminorm of u with respect to a weight phi is

    [u]_phi = sup_{x != y} |u(x) - u(y)| / (phi(x) + phi(y)).

It vanishes exactly on constants and is equivalent to a shifted weighted sup
norm: [u]_phi = inf_c sup_x |u(x) + c| / phi(x), with the infimum attained at
c* = inf_x (M*phi(x) - u(x)) where M = [u]_phi.  ``inf_shift_norm`` uses that
constructive shift, so the two routes agree to rounding error and testing one
against the other is meaningful.

On a grid the seminorm is a fractional program over node pairs.  Dinkelbach's
iteration (Management Science 13(7), 1967), Newton's method on the convex,
decreasing, piecewise-linear g(M) = max(u - M phi) - min(u + M phi), finds it
in a few O(N) passes; a final pass over the near-optimal pairs makes the value
equal, bit for bit, to that of the exhaustive O(N^2) pair scan.
"""
from __future__ import annotations

import numpy as np

from .grids import Field, Grid
from .weights import WeightFunction

__all__ = [
    "nodal_weights",
    "weighted_seminorm",
    "inf_shift_norm",
    "weighted_tv_norm",
]

_PAIR_CHUNK = 512
_EPS = float(np.finfo(float).eps)


def nodal_weights(w: WeightFunction, grid: Grid) -> np.ndarray:
    """phi = w on the grid's nodes; ValueError unless it is strictly positive
    there. A caller that takes many norms with one weight evaluates it once."""
    phi = np.asarray(w(grid.nodes), dtype=float)
    if np.any(phi <= 0):
        raise ValueError("weight must be strictly positive on the grid")
    return phi


def _values_and_weights(field: Field, w) -> tuple:
    """The field's values and its weight on the nodes: w is a weight function
    or the nodal values ``nodal_weights`` returned for the field's grid."""
    phi = w if isinstance(w, np.ndarray) else nodal_weights(w, field.grid)
    return np.asarray(field.values, dtype=float), phi


def _max_pair_ratio(u, phi, rows, cols) -> float:
    """max |u_p - u_q| / (phi_p + phi_q) over rows x cols, chunked over rows
    in a fixed order so that no block exceeds _PAIR_CHUNK rows."""
    best = 0.0
    uc, pc = u[cols], phi[cols]
    for start in range(0, rows.size, _PAIR_CHUNK):
        r = rows[start:start + _PAIR_CHUNK]
        num = np.abs(u[r, None] - uc[None, :])
        den = phi[r, None] + pc[None, :]
        best = max(best, float(np.max(num / den)))
    return best


def _seminorm(u: np.ndarray, phi: np.ndarray) -> float:
    """[u]_phi by Dinkelbach's iteration with a rounding-safe stop."""
    finite = np.isfinite(phi)
    if not finite.all():
        # a weight that overflowed puts ratio 0 on every pair it enters, as in
        # the pair scan; left in, it would stop the iteration at M = 0
        u, phi = u[finite], phi[finite]
        if u.size == 0:
            return 0.0
    m = 0.0
    while True:
        a = u - m * phi
        b = u + m * phi
        i = int(np.argmax(a))
        j = int(np.argmin(b))
        if m == 0.0 and u[i] == u[j]:
            return 0.0  # max u == min u: a constant
        r = abs(u[i] - u[j]) / (phi[i] + phi[j])
        if not r > m:
            break
        m = r
    # In exact arithmetic the loop stops at the optimum.  In floating point the
    # scan's best pair (p, q), oriented so u_p >= u_q, need not be (i, j), but
    # it stays close to their optimality.  Let U = max|u|, P = max phi, A and B
    # the exact values of a and b.  Each ratio is within 1.5 eps relative of
    # its exact value, and m is the ratio of an actual pair, so the best float
    # ratio is >= m; hence A_p - B_q >= -2 eps m (phi_p + phi_q), while the
    # stop r <= m gives A_i - B_j <= 2 eps m (phi_i + phi_j).  Each entry of a
    # and b is within delta = eps/2 (U + 2 m P) of its exact value, so
    #   (a_i - a_p) + (b_q - b_j) <= 8 eps m P + 4 delta = 2 eps U + 12 eps m P,
    # and both terms are >= 0 by the choice of i and j.  tol covers that bound
    # with room left for rounding the comparisons themselves.
    tol = 16.0 * _EPS * (float(np.max(np.abs(u))) + m * float(np.max(phi)))
    rows = np.flatnonzero(a >= a[i] - tol)
    cols = np.flatnonzero(b <= b[j] + tol)
    return _max_pair_ratio(u, phi, rows, cols)


def weighted_seminorm(field: Field, w) -> float:
    """[u]_phi, equal bit for bit to the exhaustive pair scan; w is a weight
    function or its ``nodal_weights`` on the field's grid.

    Dinkelbach's iteration starts from M = 0.  Each pass takes
    i = argmax(u - M phi) and j = argmin(u + M phi), the pair that maximizes
    u_i - u_j - M (phi_i + phi_j), and moves M to that pair's ratio
    |u_i - u_j| / (phi_i + phi_j); the iteration stops when the ratio no longer
    exceeds M.  M rises strictly through ratios of actual pairs, so it stops
    after finitely many passes (seven or fewer on smooth and random fields),
    and in exact arithmetic it stops at the maximum ratio.

    Rounding can leave the stopping pair one ulp-level step short of the best
    one when many pairs nearly tie.  A final pass therefore takes every node
    whose u - M phi lies within a rounding bound of the maximum, every node
    whose u + M phi lies within it of the minimum, and scans those pairs with
    the same expression as the exhaustive scan.  The best pair always lies in
    that set, so the result is the scan's value exactly.  The set is one pair
    on generic fields and up to N^2/4 pairs on exact ties (phi = 1, u = +-1),
    hence the chunked scan.
    """
    return _seminorm(*_values_and_weights(field, w))


def inf_shift_norm(field: Field, w: WeightFunction) -> float:
    """inf_c ||u + c||_{sup, 1/phi}, computed via the constructive shift."""
    u, phi = _values_and_weights(field, w)
    m = _seminorm(u, phi)
    c = np.min(m * phi - u)
    return float(np.max(np.abs(u + c) / phi))


def weighted_tv_norm(values: np.ndarray, phi: np.ndarray, dx: float) -> np.ndarray:
    """Integral of phi d|m| by the midpoint rule on a grid of spacing dx,
    along the last axis: of one field's values, or of every row of a
    C-contiguous (rows, n) stack at once, each row the bits of its own
    call. phi holds the weights on the nodes (``nodal_weights``), one row or
    one per row of the stack."""
    return np.sum(phi * np.abs(values), axis=-1) * dx
