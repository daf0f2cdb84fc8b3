"""Discretizations of the generator and its formal adjoint.

The jump part: on the periodic grid every builtin symmetric measure is
diagonal in Fourier space with its exact symbol ``LevyMeasureSpec.symbol``
(scale*|xi|^sigma for the fractional kind, the truncated-Levy exponent for
the tempered one). The time steppers apply constant-coefficient diffusion
and that symbol as one exponential factor in one real FFT pair (rfft/irfft)
on the n//2 + 1 half spectrum. Off the grid, the compensated dyadic-shell
quadrature integrates the singular kernel of a callable at arbitrary points
(``levy_integral_callable``), which the Lyapunov checkers use.

The drift enters the adjoint in divergence form through a conservative
finite-volume upwind flux (optional second-order limited reconstruction),
so the discrete adjoint output always integrates to zero. Its stencils are
taken by slicing one periodic difference array d[k] = m[k] - m[k-1],
k = 0..n with indices mod n: the left slopes are d[:-1], the right slopes
d[1:], and the divergence is d[:-1] of the flux. The upwind choice is made
once per face array, not per flux: ``upwind_faces`` records each face's
donor cell (i where w_i >= 0, i+1 mod n otherwise) and the signed
half-width +dx/2 or -(dx/2) from the donor's centre to the face, and the
flux reconstructs the donor side only. The centered second differences
slice one periodically padded copy of their input.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .generators import GeneratorSpec, LevyMeasureSpec
from .grids import Grid

__all__ = [
    "shell_quadrature_nodes",
    "levy_integral_callable",
    "transport_flux",
    "divergence_of_flux",
    "face_velocities",
    "UpwindFaces",
    "upwind_faces",
    "stack_faces",
    "StepSetup",
    "StepStack",
    "RunGuard",
    "LIMITERS",
]

LIMITERS = ("mc", "off")


# ---------------------------------------------------------------------------
# shell quadrature of callables

_GL_CACHE: dict = {}


def _gauss_legendre(n: int):
    if n not in _GL_CACHE:
        _GL_CACHE[n] = np.polynomial.legendre.leggauss(n)
    return _GL_CACHE[n]


def shell_quadrature_nodes(
    r_min: float,
    z_max: float,
    shells_per_octave: int = 1,
    nodes_per_shell: int = 8,
):
    """Positive quadrature nodes/weights on [r_min, z_max] in dyadic shells.

    Shells are geometric with ratio 2**(1/shells_per_octave) and carry a
    Gauss-Legendre rule each, so power-law tails cost log(z_max/r_min) work.
    """
    if r_min <= 0 or z_max <= r_min:
        raise ValueError(f"need 0 < r_min < z_max, got r_min={r_min}, z_max={z_max}")
    ratio = 2.0 ** (1.0 / shells_per_octave)
    edges = [r_min]
    while edges[-1] < z_max:
        edges.append(min(edges[-1] * ratio, z_max))
    gl_x, gl_w = _gauss_legendre(nodes_per_shell)
    nodes, weights = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        nodes.append(mid + half * gl_x)
        weights.append(half * gl_w)
    return np.concatenate(nodes), np.concatenate(weights)


def _second_moment_inner(nu: LevyMeasureSpec, r_min: float) -> float:
    """integral of z^2 * density(z) over |z| < r_min (both signs).

    Substituting w = z^(2-sigma) turns the z^(1-sigma)-singular integrand into
    the bounded g(z) = z^(1+sigma) * density(z), so one Gauss-Legendre panel
    converges uniformly in sigma. A truncated geometric ladder instead loses a
    z^(2-sigma) fraction of the moment, which near sigma = 2 is not small.
    """
    p = 2.0 - nu.sigma
    gl_x, gl_w = _gauss_legendre(32)
    half = 0.5 * r_min**p
    w = half * (gl_x + 1.0)
    # w^(1/p) underflows for sigma near 2; 1e-60 keeps density * z^(1+sigma)
    # inside double range while g there is already g(0+) to full precision.
    z = np.maximum(w ** (1.0 / p), 1e-60)
    g = nu.density(z) * z ** (1.0 + nu.sigma)
    return 2.0 * float(np.sum(half * gl_w * g)) / p


# shell range of levy_integral_callable: Taylor model below CALLABLE_R_MIN,
# nothing beyond CALLABLE_Z_MAX (callers with power-law integrands add the tail)
CALLABLE_R_MIN, CALLABLE_Z_MAX = 1e-6, 1e12


def levy_integral_callable(fn, xs: np.ndarray, nu: LevyMeasureSpec, d2fn) -> np.ndarray:
    """Compensated jump integral of a callable u at arbitrary points (d=1).

    No periodicity is involved: shells extend geometrically to CALLABLE_Z_MAX,
    astronomically large at logarithmic cost, covering slowly decaying
    power-law integrands such as weights <x>^beta with beta < sigma. Below
    CALLABLE_R_MIN the Taylor model takes u'' from ``d2fn``. The measure
    must be active: an inactive one has no density to integrate.
    """
    z, w = shell_quadrature_nodes(CALLABLE_R_MIN, CALLABLE_Z_MAX)
    rho_w = w * nu.density(z)
    x = np.asarray(xs, dtype=float)[:, None]
    fx = fn(x)
    acc = np.sum(rho_w[None, :] * (fn(x + z[None, :]) + fn(x - z[None, :]) - 2.0 * fx), axis=1)
    return acc + 0.5 * d2fn(x[:, 0]) * _second_moment_inner(nu, CALLABLE_R_MIN)


# ---------------------------------------------------------------------------
# conservative transport pieces


def _face_points(grid: Grid) -> np.ndarray:
    """Interfaces x_{i+1/2} = x_i + dx/2. The last face, at L - dx/2,
    separates the last cell from the first; mass crossing it wraps around
    the periodic seam."""
    return grid.nodes + 0.5 * grid.dx


def face_velocities(grid: Grid, drift, t: float, steady: np.ndarray | None = None) -> np.ndarray:
    """Transport velocity w = -b at the interfaces ``_face_points``.

    ``steady`` is ``drift.steady`` at the faces, evaluated once by the
    caller: then only ``drift.wave`` is evaluated and added to it, as
    ``drift(t, x)`` adds the two, so w keeps every bit.
    """
    x = _face_points(grid)
    if steady is None:
        return -np.asarray(drift(t, x), dtype=float)
    return -(steady + drift.wave(t, x))


def _periodic_difference(m: np.ndarray) -> np.ndarray:
    """d[k] = m[k] - m[k-1] for k = 0..n, indices mod n, so d[0] = d[n]; along
    the rows of a (rows, n) stack. A lone row wraps by scalar indexing, which
    costs less than the column slices of a stack."""
    if m.ndim == 1:
        d = np.empty(m.size + 1)
        np.subtract(m[1:], m[:-1], out=d[1:-1])
        d[0] = d[-1] = m[0] - m[-1]
        return d
    d = np.empty((m.shape[0], m.shape[1] + 1))
    np.subtract(m[:, 1:], m[:, :-1], out=d[:, 1:-1])
    d[:, 0] = d[:, -1] = m[:, 0] - m[:, -1]
    return d


def _mc_slope(m: np.ndarray, dx: float) -> np.ndarray:
    """Monotonized-central cell slopes along the last axis from one periodic
    difference array d / dx: the left slopes are its view d[..., :-1], the
    right slopes its view d[..., 1:].

    The slope is sign(central) * min(|central|, 2 min(|left|, |right|)) with
    central = (left + right) / 2 where left * right > 0, and 0 elsewhere.
    There the two are nonzero with one sign, and rounding is symmetric, so
    |central| is exactly (|left| + |right|) / 2, taken from |d|, and
    sign(central) * lim is copysign(lim, left): central itself is never formed."""
    d = _periodic_difference(m)
    d /= dx
    left, right = d[..., :-1], d[..., 1:]
    a = np.abs(d)
    a_left, a_right = a[..., :-1], a[..., 1:]
    lim = np.minimum(0.5 * (a_left + a_right), 2.0 * np.minimum(a_left, a_right))
    return np.where(left * right > 0.0, np.copysign(lim, left), 0.0)


@dataclass(frozen=True)
class UpwindFaces:
    """Face velocities w with their upwind donors: ``donor[i]`` is the cell
    whose value crosses face i+1/2, and ``half[i]`` the signed distance from
    that cell's centre to the face. A stack's record (``stack_faces``) holds
    one row of each per run, its donors indexing the flattened stack."""

    w: np.ndarray
    donor: np.ndarray
    half: np.ndarray


_CELL_CYCLE: dict = {}  # n -> cells 0..n with indices mod n


def upwind_faces(w: np.ndarray, dx: float) -> UpwindFaces:
    """The face record of w: donor i where w_i >= 0 and i+1 mod n otherwise
    (-0.0 counts as >= 0, NaN does not), half +dx/2 or -(dx/2) to match."""
    n = w.size
    cells = _CELL_CYCLE.get(n)
    if cells is None:
        cells = _CELL_CYCLE[n] = np.append(np.arange(n), 0)
    ahead = w >= 0
    return UpwindFaces(w, np.where(ahead, cells[:-1], cells[1:]), np.where(ahead, 0.5 * dx, -(0.5 * dx)))


def stack_faces(records: list) -> UpwindFaces:
    """One face record for a (rows, n) stack: row r holds records[r].w and
    .half, and donor r * n + records[r].donor, so that ``m.take(donor)``
    picks row r's donors from row r of the stack."""
    n = records[0].w.size
    offsets = np.arange(0, n * len(records), n)[:, None]
    return UpwindFaces(np.stack([r.w for r in records]),
                       np.stack([r.donor for r in records]) + offsets,
                       np.stack([r.half for r in records]))


def transport_flux(m: np.ndarray, faces: UpwindFaces, dx: float, limiter: str = "mc") -> np.ndarray:
    """Upwind flux f[i] = w_{i+1/2} * m_rec at face i+1/2: the donor cell,
    plus with ``limiter="mc"`` the MC-limited linear reconstruction.

    Only the donor side is reconstructed, m[donor] + half * slope[donor];
    with half = -(dx/2) that is bit for bit m - (dx/2) * slope, since IEEE
    negation is exact. ``limiter="off"`` builds no slopes: half * 0.0 is the
    zero slope with the sign that m + 0.0 (donor on the left) and m (donor
    on the right) give, signed zeros included. On a (rows, n) stack m the
    slopes act along the rows and the stacked record's flat donors pick
    within each row.
    """
    if limiter == "off":
        rec = faces.half * 0.0
    elif limiter == "mc":
        rec = _mc_slope(m, dx).take(faces.donor)
        rec *= faces.half
    else:
        raise ValueError(f"unknown limiter {limiter!r}; choose from {LIMITERS}")
    rec += m.take(faces.donor)
    rec *= faces.w
    return rec


def divergence_of_flux(flux: np.ndarray, dx: float) -> np.ndarray:
    """(f_{i+1/2} - f_{i-1/2}) / dx along the last axis; telescopes to zero
    over the period."""
    out = _periodic_difference(flux)[..., :-1]
    out /= dx
    return out


def _variable_diffusion_term(values: np.ndarray, s2: np.ndarray, dx: float, adjoint: bool) -> np.ndarray:
    """tr(Sigma Sigma^T D^2 u) or its adjoint (Sigma^2 m)'' by centered FD,
    with s2 = Sigma^2 at the nodes (row by row on a stack)."""
    if adjoint:
        return _second_difference(s2 * values, dx)
    return s2 * _second_difference(values, dx)


def _periodic_pad(values: np.ndarray, width: int) -> np.ndarray:
    """values with ``width`` periodic ghost cells at each end of the last
    axis: q[..., i + width] = values[..., i mod n]."""
    return np.concatenate((values[..., -width:], values, values[..., :width]), axis=-1)


def _second_difference(p: np.ndarray, dx: float) -> np.ndarray:
    """3-point centered periodic second difference along the last axis."""
    q = _periodic_pad(p, 1)
    return (q[..., 2:] - 2.0 * p + q[..., :-2]) / dx**2


def _upwind_split(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """max(w, 0) and min(w, 0) shifted one cell on (entry i is min(w_{i-1}, 0))."""
    wm = np.minimum(w, 0.0)
    return np.maximum(w, 0.0), np.concatenate((wm[-1:], wm[:-1]))


# ---------------------------------------------------------------------------
# setup shared by the forward and backward time steppers


class NumericalFailure(RuntimeError):
    """A run left its validity envelope (CFL, stability, boundary mass).

    ``row`` is the row of a ``StepStack`` whose faces raised it; a lone run is row 0."""

    row = 0


class RunGuard:
    """The validity envelope every marching loop polices: ``n_steps`` whole steps
    of dt from t0 to t_final, the steps it records, blow-up and the boundary
    band. Messages name the time ``clock``: "t", or "s" on the backward clock."""

    BAND = 0.05  # share of the cells at each end of the box that forms the boundary band

    def __init__(self, dt: float, t_final: float, record_every: int = 1, t0: float = 0.0,
                 clock: str = "t", extra_records=()):
        self.n_steps = int(round((t_final - t0) / dt))
        if abs(t0 + self.n_steps * dt - t_final) > 1e-9 * max(1.0, abs(t_final)):
            raise ValueError(f"{clock}_final={t_final} is not an integer number of steps of dt={dt}")
        self.record_every = record_every
        self.extra_records = extra_records
        self.clock = clock

    def records(self, k: int) -> bool:
        """Every record_every-th step, the last one and those in extra_records."""
        return k % self.record_every == 0 or k == self.n_steps or k in self.extra_records

    def check_blow_up(self, values: np.ndarray, at: float) -> float:
        """sup|values|; NumericalFailure when it is NaN (max propagates NaN) or beyond 1e12."""
        sup = np.abs(values).max()
        if not sup <= 1e12:
            run = "backward run" if self.clock == "s" else "forward run"
            raise NumericalFailure(f"{run} blew up at {self.clock}={at:g}")
        return float(sup)

    @staticmethod
    def boundary_mass(values: np.ndarray, dx: float, eps: float, t: float | None = None) -> float:
        """Absolute mass in the first and last ceil(BAND * n) cells, summed in index
        order; NumericalFailure above eps at time t, or (t=None) in a stationary profile."""
        w = int(np.ceil(RunGuard.BAND * values.size))
        b = float(np.sum(np.abs(np.concatenate((values[:w], values[-w:])))) * dx)
        if b > eps:
            raise NumericalFailure(
                f"stationary profile parks {b:.3e} mass in the boundary band (eps={eps:g}); enlarge the box"
                if t is None else
                f"boundary mass {b:.3e} exceeds eps={eps:g} at t={t:g}: the box is too small for this horizon, "
                f"or dx={dx:g} is too coarse for the data")
        return b

    @staticmethod
    def check_positions(x: np.ndarray, t: float):
        """Finiteness only, which particle loops check on every chunk of every step."""
        if not np.isfinite(x).all():
            raise NumericalFailure(f"particle positions left the finite range at t={t:g}")


class StepSetup:
    """Operator pieces of one time step of either clock for a fixed (spec, grid, dt).

    ``diffuse`` applies constant-coefficient diffusion and the jump part by
    one real FFT pair (rfft/irfft) with ``diffusion_factor``
    exp(-dt (lambda0 xi^2 + symbol(xi))) on the n//2 + 1 half spectrum, the
    exact symbol of every measure in the exponent.
    Faces are in forward time. The explicit pieces are checked at setup, the
    advection against the CFL bound for a step of ``substep * dt``: a static
    drift once, a time-dependent one on every face array ``faces`` builds, so
    over exactly the times a run steps through. ``where`` names the clock in
    the messages. A drift with a ``steady`` part has it evaluated at the
    faces once here; each moving face array then adds only its wave.
    """

    def __init__(self, spec: GeneratorSpec, grid: Grid, dt: float, substep: float = 1.0, where: str = ""):
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        self.spec = spec
        self.grid = grid
        self.dt = dt
        self.substep = substep
        self.where = where
        diffusion = spec.diffusion
        xi = grid.wavenumber_magnitude[: grid.n // 2 + 1]  # the half spectrum of rfft
        self.diffusion_factor = np.exp(-dt * (diffusion.lambda0 * xi**2 + spec.levy.symbol(xi)))
        self.sigma_squared = diffusion.sigma_squared(grid.nodes) if diffusion.has_variable_part else None
        self.variable_rows = ...  # the rows diffuse gives the variable term: all of a lone run
        self.static_faces = self.static_split = self._last_faces = self._steady = None
        if not spec.is_time_dependent:
            w = face_velocities(grid, spec.drift, 0.0)
            self._check_cfl(w)
            self.static_faces = upwind_faces(w, grid.dx)
            self.static_split = _upwind_split(w)
        elif spec.drift.steady is not None:
            self._steady = spec.drift.steady(_face_points(grid))
        self._check_variable_diffusion()

    def _check_cfl(self, w: np.ndarray, t: float | None = None):
        """Raise NumericalFailure if faces w move more than 0.95 dx in one advection step."""
        dt, dx, wmax = self.dt, self.grid.dx, float(np.abs(w).max())
        if wmax > 0 and self.substep * dt * wmax > 0.95 * dx:
            at = "" if t is None else f" at t={t:g}"
            raise NumericalFailure(
                f"CFL violation{self.where}{at}: dt={dt:g} exceeds "
                f"{0.95 * dx / (self.substep * wmax):g} allowed by max|b|={wmax:g} on dx={dx:g}")

    def _check_variable_diffusion(self):
        dt, dx = self.dt, self.grid.dx
        if self.sigma_squared is not None:
            smax = self.sigma_squared.max()
            if dt * smax > 0.45 * dx**2:
                raise NumericalFailure(
                    f"explicit variable diffusion unstable: need dt <= "
                    f"{0.45 * dx**2 / smax:g}, got {dt:g}")

    def faces(self, t: float) -> UpwindFaces:
        """Face velocities at forward time t with their upwind donors, built
        once for a static drift and once per face array when they move."""
        if self.static_faces is not None:
            return self.static_faces
        # a Strang step asks for t + dt/2 twice in a row: keep the last faces
        if self._last_faces is not None and self._last_faces[0] == t:
            return self._last_faces[1]
        faces = upwind_faces(self._moving_w(t), self.grid.dx)
        self._last_faces = (t, faces)
        return faces

    def _moving_w(self, t: float) -> np.ndarray:
        """Face velocities of a time-dependent drift at forward time t, CFL-checked."""
        w = face_velocities(self.grid, self.spec.drift, t, self._steady)
        self._check_cfl(w, t)
        return w

    def transpose_split(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """(max(w, 0), min(w, 0) one cell on) at forward time t: entry i of the
        second is min(w_{i-1}, 0), as the backward advection reads it. The
        backward clock never asks twice for one time and reads no donors, so
        a moving drift's velocities skip the face record."""
        if self.static_split is not None:
            return self.static_split
        return _upwind_split(self._moving_w(t))

    def diffuse(self, values: np.ndarray, adjoint: bool) -> np.ndarray:
        """Diffusion and jumps over dt, then the explicit variable-Sigma term
        (adjoint=True: its Fokker-Planck form, for the forward clock) on
        ``variable_rows``. Both transforms run along the last axis, so a
        StepStack's (rows, n) stack takes this same body."""
        spectrum = np.fft.rfft(values)
        spectrum *= self.diffusion_factor
        out = np.fft.irfft(spectrum, self.grid.n)
        if self.sigma_squared is not None:
            rows = self.variable_rows
            term = _variable_diffusion_term(out[rows], self.sigma_squared, self.grid.dx, adjoint)
            out[rows] += self.dt * term
        return out


class StepStack:
    """The StepSetups of runs on one grid with one dt and substep, as one
    stack for the forward clock: row r of each array is ``rows[r]``'s.

    ``diffusion_factor`` stacks the rows' factors, and ``sigma_squared`` the
    Sigma^2 of the rows in ``variable_rows``, so that the other rows keep
    their bits (adding a zero term would turn -0.0 into 0.0). Face records
    stack by ``stack_faces``, once when every row's drift is static.
    """

    def __init__(self, rows: list):
        self.rows = rows
        self.grid, self.dt = rows[0].grid, rows[0].dt
        self.diffusion_factor = np.stack([r.diffusion_factor for r in rows])
        self.variable_rows = [i for i, r in enumerate(rows) if r.sigma_squared is not None]
        self.sigma_squared = (np.stack([rows[i].sigma_squared for i in self.variable_rows])
                              if self.variable_rows else None)
        static = [r.static_faces for r in rows]
        self.static_faces = None if any(f is None for f in static) else stack_faces(static)

    def faces(self, t: float) -> UpwindFaces:
        """The rows' face records at forward time t, stacked. When a row's
        faces raise NumericalFailure, its ``row`` names that row."""
        if self.static_faces is not None:
            return self.static_faces
        records = []
        for row, setup in enumerate(self.rows):
            try:
                records.append(setup.faces(t))
            except NumericalFailure as exc:
                exc.row = row
                raise
        return stack_faces(records)

    diffuse = StepSetup.diffuse
