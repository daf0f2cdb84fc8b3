"""Discretizations of the generator and its formal adjoint.

Two independent routes exist for the jump part and both stay available:

* spectral: on the periodic grid the symmetric stable integral is diagonal
  in Fourier space with symbol scale*|xi|^sigma (sigma = 2 gives -Lap);
* quadrature: compensated dyadic-shell integration of the singular kernel,
  usable for any symmetric density and for off-grid callables. The time
  steppers apply it as its discrete Fourier symbol, built once per run
  (StepSetup) from the unit-impulse response, which is assembled from the
  interpolation taps each node puts on the impulse, equal bit for bit to
  the per-node loop; the loop stays as the oracle.

The time steppers apply constant-coefficient diffusion and the jump symbol
in one real FFT pair (rfft/irfft) on the n//2 + 1 half spectrum.

The drift enters the adjoint in divergence form through a conservative
finite-volume upwind flux (optional second-order limited reconstruction),
so the discrete adjoint output always integrates to zero. Its stencils are
taken by slicing one periodic difference array d[k] = m[k] - m[k-1],
k = 0..n with indices mod n: the left slopes are d[:-1], the right slopes
d[1:], and the divergence is d[:-1] of the flux. The centered second
differences slice one periodically padded copy of their input.
"""
from __future__ import annotations

import numpy as np

from .generators import GeneratorSpec, LevyMeasureSpec
from .grids import Grid, ScalarField

__all__ = [
    "shell_quadrature_nodes",
    "levy_integral_field",
    "levy_integral_callable",
    "transport_flux",
    "divergence_of_flux",
    "face_velocities",
    "StepSetup",
    "RunGuard",
]

_LIMITERS = ("mc", "minmod", "fromm", "off")


# ---------------------------------------------------------------------------
# quadrature route

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


def _periodic_shift_interp(values: np.ndarray, grid: Grid, z: float) -> np.ndarray:
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


def _periodic_pad(values: np.ndarray, width: int) -> np.ndarray:
    """values with ``width`` periodic ghost cells at each end: q[i + width] = values[i mod n]."""
    return np.concatenate((values[-width:], values, values[:width]))


def _fourth_order_d2(values: np.ndarray, dx: float) -> np.ndarray:
    """4th-order centered periodic second difference."""
    q = _periodic_pad(values, 2)
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
    acc += 0.5 * _fourth_order_d2(vals, grid.dx) * _second_moment_inner(nu, r_min)
    acc += 2.0 * (float(np.mean(vals)) - vals) * _mass_beyond(nu, z_max)
    return acc


def levy_integral_field(
    u: ScalarField,
    nu: LevyMeasureSpec,
    r_min: float | None = None,
    z_max: float | None = None,
    shells_per_octave: int = 1,
    nodes_per_shell: int = 8,
) -> ScalarField:
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
        return u.with_values(np.zeros_like(u.values))
    r_min, z_max, z, rho_w = _shell_rule(grid, nu, r_min, z_max, shells_per_octave, nodes_per_shell)
    vals = u.values
    acc = np.zeros_like(vals)
    for zk, rw in zip(z, rho_w):
        acc += rw * (
            _periodic_shift_interp(vals, grid, zk)
            + _periodic_shift_interp(vals, grid, -zk)
            - 2.0 * vals
        )
    return u.with_values(_add_local_terms(acc, vals, grid, nu, r_min, z_max))


def _impulse_response(grid: Grid, nu: LevyMeasureSpec) -> np.ndarray:
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


def levy_integral_callable(
    fn,
    xs: np.ndarray,
    nu: LevyMeasureSpec,
    d2fn=None,
    r_min: float = 1e-6,
    z_max: float = 1e12,
    shells_per_octave: int = 1,
    nodes_per_shell: int = 8,
) -> np.ndarray:
    """Compensated jump integral of a callable u at arbitrary points (d=1).

    No periodicity is involved: shells extend geometrically to z_max, which
    can be astronomically large at logarithmic cost, covering slowly decaying
    power-law integrands such as weights <x>^beta with beta < sigma.
    """
    if not nu.is_active:
        return np.zeros_like(np.asarray(xs, dtype=float))
    z, w = shell_quadrature_nodes(r_min, z_max, shells_per_octave, nodes_per_shell)
    rho_w = w * nu.density(z)
    x = np.asarray(xs, dtype=float)[:, None]
    fx = fn(x)
    acc = np.sum(rho_w[None, :] * (fn(x + z[None, :]) + fn(x - z[None, :]) - 2.0 * fx), axis=1)
    if d2fn is None:
        h = max(r_min, 1e-7)
        d2 = (fn(x + h) - 2.0 * fx + fn(x - h))[:, 0] / h**2
    else:
        d2 = d2fn(x[:, 0])
    return acc + 0.5 * d2 * _second_moment_inner(nu, r_min)


# ---------------------------------------------------------------------------
# conservative transport pieces


def face_velocities(grid: Grid, drift, t: float) -> np.ndarray:
    """Transport velocity w = -b at interfaces x_{i+1/2} = x_i + dx/2.

    The last face, at L - dx/2, separates the last cell from the first;
    mass crossing it wraps around the periodic seam.
    """
    faces = grid.nodes + 0.5 * grid.dx
    return -np.asarray(drift(t, faces), dtype=float)


def _periodic_difference(m: np.ndarray) -> np.ndarray:
    """d[k] = m[k] - m[k-1] for k = 0..n, indices mod n, so d[0] = d[n]."""
    d = np.empty(m.size + 1)
    np.subtract(m[1:], m[:-1], out=d[1:-1])
    d[0] = d[-1] = m[0] - m[-1]
    return d


def _limited_slope(m: np.ndarray, dx: float, limiter: str) -> np.ndarray:
    """Limited cell slopes from one periodic difference array d / dx: the
    left slopes are its view d[:-1], the right slopes its view d[1:]."""
    d = _periodic_difference(m)
    d /= dx
    left, right = d[:-1], d[1:]
    central = 0.5 * (left + right)
    if limiter == "fromm":
        return central
    a = np.abs(d)
    smaller = np.minimum(a[:-1], a[1:])
    if limiter == "minmod":
        return np.where(left * right > 0, np.sign(left) * smaller, 0.0)
    if limiter == "mc":
        lim = np.minimum(np.abs(central), 2.0 * smaller)
        return np.where(left * right > 0, np.sign(central) * lim, 0.0)
    raise ValueError(f"unknown limiter {limiter!r}; choose from {_LIMITERS}")


def transport_flux(m: np.ndarray, w_faces: np.ndarray, dx: float, limiter: str = "mc") -> np.ndarray:
    """Upwind flux f[i] = w_{i+1/2} * m_rec at face i+1/2 (donor cell plus
    optional limited linear reconstruction).

    The slopes come from one periodic difference array (``_limited_slope``);
    the value reconstructed from the right of face i+1/2 is cell i+1's, taken
    by slicing. ``limiter="off"`` builds no slopes: m + 0.0 and m shifted are
    what zero slopes give, signed zeros included.
    """
    if limiter == "off":
        from_left, from_right = m + 0.0, m
    else:
        half = 0.5 * dx * _limited_slope(m, dx, limiter)
        from_left, from_right = m + half, m - half
    from_right = np.concatenate((from_right[1:], from_right[:1]))
    return w_faces * np.where(w_faces >= 0, from_left, from_right)


def divergence_of_flux(flux: np.ndarray, dx: float) -> np.ndarray:
    """(f_{i+1/2} - f_{i-1/2}) / dx; telescopes to zero over the period."""
    out = _periodic_difference(flux)[:-1]
    out /= dx
    return out


def _variable_diffusion_term(values: np.ndarray, grid: Grid, g: GeneratorSpec, adjoint: bool) -> np.ndarray:
    """tr(Sigma Sigma^T D^2 u) or its adjoint (Sigma^2 m)'' by centered FD."""
    if not g.diffusion.has_variable_part:
        return np.zeros_like(values)
    s2 = g.diffusion.sigma_squared(grid.nodes)
    if adjoint:
        return _second_difference(s2 * values, grid.dx)
    return s2 * _second_difference(values, grid.dx)


def _second_difference(p: np.ndarray, dx: float) -> np.ndarray:
    """3-point centered periodic second difference."""
    q = _periodic_pad(p, 1)
    return (q[2:] - 2.0 * p + q[:-2]) / dx**2


def _upwind_split(w: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """max(w, 0), min(w, 0) and min(w, 0) shifted one cell on (entry i is min(w_{i-1}, 0))."""
    wm = np.minimum(w, 0.0)
    return np.maximum(w, 0.0), wm, np.concatenate((wm[-1:], wm[:-1]))


def _resolve_jump_route(nu: LevyMeasureSpec, route: str) -> str | None:
    """"spectral", "quadrature", or None for an inactive measure."""
    if route == "auto":
        route = "spectral" if nu.has_exact_symbol else "quadrature"
    if route not in ("spectral", "quadrature"):
        raise ValueError(f"unknown jump route {route!r}")
    if not nu.is_active:
        return None
    if route == "spectral" and not nu.has_exact_symbol:
        raise ValueError(f"no exact symbol for levy kind {nu.kind!r}")
    return route


# ---------------------------------------------------------------------------
# setup shared by the forward and backward time steppers


class NumericalFailure(RuntimeError):
    """A run left its validity envelope (CFL, stability, boundary mass)."""


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
                f"boundary mass {b:.3e} exceeds eps={eps:g} at t={t:g}: the box is too small for this horizon")
        return b

    @staticmethod
    def check_positions(x: np.ndarray, t: float):
        """Finiteness only, which particle loops check on every chunk of every step."""
        if not np.isfinite(x).all():
            raise NumericalFailure(f"particle positions left the finite range at t={t:g}")


class StepSetup:
    """Operator pieces of one time step of either clock for a fixed (spec, grid, dt).

    ``diffuse`` applies constant-coefficient diffusion and the jump part by
    one real FFT pair (rfft/irfft) with ``diffusion_factor`` on the n//2 + 1
    half spectrum: an exact symbol sits in the exponent, while the explicit
    Euler jump step of the quadrature route is the factor (1 + dt*lam), with
    ``jump_symbol`` lam such that fft(levy_integral_field(u)) = lam * fft(u)
    on the full spectrum. lam is the FFT of the quadrature's unit-impulse
    response, built from its Lagrange taps (``_impulse_response``).
    Faces are in forward time. The explicit pieces are checked at setup, the
    advection against the CFL bound for a step of ``substep * dt``: a static
    drift once, a time-dependent one on every face array ``faces`` builds, so
    over exactly the times a run steps through. ``where`` names the clock in
    the messages.
    """

    def __init__(self, spec: GeneratorSpec, grid: Grid, dt: float, jump_route: str,
                 substep: float = 1.0, where: str = ""):
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        self.spec = spec
        self.grid = grid
        self.dt = dt
        self.substep = substep
        self.where = where
        self.jump_route = _resolve_jump_route(spec.levy, jump_route)
        modes = grid.n // 2 + 1  # the half spectrum of rfft
        xi = grid.wavenumber_magnitude[:modes]
        sym = spec.diffusion.lambda0 * xi**2
        if self.jump_route == "spectral":
            sym = sym + spec.levy.scale * xi**spec.levy.sigma
        self.diffusion_factor = np.exp(-dt * sym)
        self.jump_symbol, self.jump_radius = None, 0.0
        if self.jump_route == "quadrature":
            # the shell loop on the periodic grid is a symmetric circulant: its
            # symbol is the real FFT of its unit-impulse response. It kills
            # constants, so lam[0] is exactly 0, not the impulse sum's residue.
            lam = np.fft.fft(_impulse_response(grid, spec.levy)).real
            lam[0] = 0.0
            self.diffusion_factor = self.diffusion_factor * (1.0 + dt * lam[:modes])
            self.jump_symbol, self.jump_radius = lam, float(np.abs(lam).max())
        self.static_w = self.static_split = self._last_faces = None
        if not spec.is_time_dependent:
            self.static_w = face_velocities(grid, spec.drift, 0.0)
            self.static_split = _upwind_split(self.static_w)
            self._check_cfl(self.static_w)
        self._check_explicit_terms()

    def _check_cfl(self, w: np.ndarray, t: float | None = None):
        """Raise NumericalFailure if faces w move more than 0.95 dx in one advection step."""
        dt, dx, wmax = self.dt, self.grid.dx, float(np.abs(w).max())
        if wmax > 0 and self.substep * dt * wmax > 0.95 * dx:
            at = "" if t is None else f" at t={t:g}"
            raise NumericalFailure(
                f"CFL violation{self.where}{at}: dt={dt:g} exceeds "
                f"{0.95 * dx / (self.substep * wmax):g} allowed by max|b|={wmax:g} on dx={dx:g}")

    def _check_explicit_terms(self):
        dt, dx = self.dt, self.grid.dx
        # explicit Euler jump step: the spectral radius is max|lam|
        lam = self.jump_radius
        if dt * lam > 1.8:
            raise NumericalFailure(
                f"explicit jump term unstable: dt={dt:g} * |I|={lam:g} > 1.8; "
                f"reduce dt below {1.8 / lam:g}")
        if self.spec.diffusion.has_variable_part:
            smax = self.spec.diffusion.sigma_squared(self.grid.nodes).max()
            if dt * smax > 0.45 * dx**2:
                raise NumericalFailure(
                    f"explicit variable diffusion unstable: need dt <= "
                    f"{0.45 * dx**2 / smax:g}, got {dt:g}")

    def faces(self, t: float) -> np.ndarray:
        """Face velocities w at forward time t, CFL-checked when they move."""
        if self.static_w is not None:
            return self.static_w
        # a Strang step asks for t + dt/2 twice in a row: keep the last faces
        if self._last_faces is not None and self._last_faces[0] == t:
            return self._last_faces[1]
        w = face_velocities(self.grid, self.spec.drift, t)
        self._check_cfl(w, t)
        self._last_faces = (t, w)
        return w

    def _split(self, t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if self.static_split is not None:
            return self.static_split
        return _upwind_split(self.faces(t))

    def upwind_split(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """(max(w, 0), min(w, 0)) at forward time t."""
        return self._split(t)[:2]

    def transpose_split(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """(max(w, 0), min(w, 0) one cell on) at forward time t: entry i of the
        second is min(w_{i-1}, 0), as the backward advection reads it."""
        wp, _, wm_prev = self._split(t)
        return wp, wm_prev

    def diffuse(self, values: np.ndarray, adjoint: bool) -> np.ndarray:
        """Diffusion and jumps over dt, then the explicit variable-Sigma term
        (adjoint=True: its Fokker-Planck form, for the forward clock)."""
        spectrum = np.fft.rfft(values)
        spectrum *= self.diffusion_factor
        out = np.fft.irfft(spectrum, self.grid.n)
        if self.spec.diffusion.has_variable_part:
            out = out + self.dt * _variable_diffusion_term(out, self.grid, self.spec, adjoint)
        return out
