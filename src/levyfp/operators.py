"""Discretizations of the generator and its formal adjoint.

Two independent routes exist for the jump part and both stay available:

* spectral: on the periodic grid the symmetric stable integral is diagonal
  in Fourier space with symbol scale*|xi|^sigma (sigma = 2 gives -Lap);
* quadrature: compensated dyadic-shell integration of the singular kernel,
  usable for any symmetric density and for off-grid callables. The time
  steppers apply it as its discrete Fourier symbol, built once per run
  (StepSetup); the per-node loop stays as the oracle.

The drift enters the adjoint in divergence form through a conservative
finite-volume upwind flux (optional second-order limited reconstruction),
so the discrete adjoint output always integrates to zero. Its stencils are
taken by slicing one periodic difference array d[k] = m[k] - m[k-1],
k = 0..n with indices mod n: the left slopes are d[:-1], the right slopes
d[1:], and the divergence is d[:-1] of the flux.
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


def _periodic_shift_interp(values: np.ndarray, grid: Grid, z: float) -> np.ndarray:
    """u(x_i + z) for all i by periodic 4-point Lagrange interpolation.

    Cubic rather than linear: the jump kernel integrates interpolation error
    against ~1/z^{1+sigma} down to sub-cell radii, and the linear-order error
    floor dx^2*u'' there is far too coarse for cross-route validation.
    """
    s = z / grid.dx
    j = int(np.floor(s))
    t = s - j
    vm1 = np.roll(values, -(j - 1))
    v0 = np.roll(values, -j)
    v1 = np.roll(values, -(j + 1))
    v2 = np.roll(values, -(j + 2))
    return (
        (-t * (t - 1.0) * (t - 2.0) / 6.0) * vm1
        + ((t + 1.0) * (t - 1.0) * (t - 2.0) / 2.0) * v0
        + (-t * (t + 1.0) * (t - 2.0) / 2.0) * v1
        + (t * (t + 1.0) * (t - 1.0) / 6.0) * v2
    )


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
    if not 0.0 < nu.sigma < 2.0:
        raise ValueError(f"jump quadrature needs sigma in (0, 2), got {nu.sigma}")
    r_min = grid.dx / 4.0 if r_min is None else float(r_min)
    z_max = 64.0 * grid.half_width if z_max is None else float(z_max)
    if r_min <= 0:
        raise ValueError(f"r_min must be positive, got {r_min}")
    z, w = shell_quadrature_nodes(r_min, z_max, shells_per_octave, nodes_per_shell)
    rho_w = w * nu.density(z)
    vals = u.values
    acc = np.zeros_like(vals)
    for zk, rw in zip(z, rho_w):
        acc += rw * (
            _periodic_shift_interp(vals, grid, zk)
            + _periodic_shift_interp(vals, grid, -zk)
            - 2.0 * vals
        )
    # 4th-order centered second difference: the m2 weight blows up like
    # r_min^(2-sigma)/(2-sigma) near sigma = 2, so the dx^2 floor of the
    # 3-point stencil is not good enough there.
    d2 = (
        -np.roll(vals, -2)
        + 16.0 * np.roll(vals, -1)
        - 30.0 * vals
        + 16.0 * np.roll(vals, 1)
        - np.roll(vals, 2)
    ) / (12.0 * grid.dx**2)
    acc += 0.5 * d2 * _second_moment_inner(nu, r_min)
    acc += 2.0 * (float(np.mean(vals)) - vals) * _mass_beyond(nu, z_max)
    return u.with_values(acc)


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
        prod = s2 * values
        return (np.roll(prod, -1) - 2.0 * prod + np.roll(prod, 1)) / grid.dx**2
    d2 = (np.roll(values, -1) - 2.0 * values + np.roll(values, 1)) / grid.dx**2
    return s2 * d2


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


class StepSetup:
    """Operator pieces of one time step of either clock for a fixed (spec, grid, dt).

    ``diffuse`` applies constant-coefficient diffusion and the jump part by
    one FFT pair: an exact symbol sits in the exponent, while the explicit
    Euler jump step of the quadrature route is the factor (1 + dt*lam), with
    ``jump_symbol`` lam such that fft(levy_integral_field(u)) = lam * fft(u).
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
        sym = spec.diffusion.lambda0 * grid.wavenumber_magnitude**2
        if self.jump_route == "spectral":
            sym = sym + spec.levy.scale * grid.wavenumber_magnitude**spec.levy.sigma
        self.diffusion_factor = np.exp(-dt * sym)
        self.jump_symbol, self.jump_radius = None, 0.0
        if self.jump_route == "quadrature":
            # the shell loop on the periodic grid is a symmetric circulant: its
            # symbol is the real FFT of its unit-impulse response. It kills
            # constants, so lam[0] is exactly 0, not the impulse sum's residue.
            impulse = np.zeros(grid.n)
            impulse[0] = 1.0
            lam = np.fft.fft(levy_integral_field(ScalarField(grid, impulse), spec.levy).values).real
            lam[0] = 0.0
            self.diffusion_factor = self.diffusion_factor * (1.0 + dt * lam)
            self.jump_symbol, self.jump_radius = lam, float(np.abs(lam).max())
        self.static_w = self.static_split = self._last_faces = None
        if not spec.is_time_dependent:
            self.static_w = face_velocities(grid, spec.drift, 0.0)
            self.static_split = (np.maximum(self.static_w, 0.0), np.minimum(self.static_w, 0.0))
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

    def upwind_split(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """(max(w, 0), min(w, 0)) at forward time t."""
        if self.static_split is not None:
            return self.static_split
        w = self.faces(t)
        return np.maximum(w, 0.0), np.minimum(w, 0.0)

    def diffuse(self, values: np.ndarray, adjoint: bool) -> np.ndarray:
        """Diffusion and jumps over dt, then the explicit variable-Sigma term
        (adjoint=True: its Fokker-Planck form, for the forward clock)."""
        out = np.real(np.fft.ifft(self.diffusion_factor * np.fft.fft(values)))
        if self.spec.diffusion.has_variable_part:
            out = out + self.dt * _variable_diffusion_term(out, self.grid, self.spec, adjoint)
        return out
