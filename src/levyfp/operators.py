"""Grid discretizations of the generator and its formal adjoint, the
validity envelope of the runs that march them, and their one march driver.

The jump part: on the periodic grid every builtin symmetric measure is
diagonal in Fourier space with its exact symbol ``LevyMeasureSpec.symbol``
(scale*|xi|^sigma for the fractional kind, the truncated-Levy exponent for
the tempered one). The time steppers apply constant-coefficient diffusion
and that symbol as one exponential factor in one real FFT pair (rfft/irfft)
on the n//2 + 1 half spectrum. The pair writes its spectrum into a buffer
the stepper owns, and the 1/n of the inverse transform rides in a complex
copy of the factor; n is a power of two, so that fold moves no bit of a
normal number (``StackStepper.diffuse``).

The drift enters the adjoint in divergence form through a conservative
finite-volume upwind flux (optional second-order limited reconstruction),
so the discrete adjoint output always integrates to zero. Its stencils
act on one ring copy of the data: each row of a (rows, n) stack becomes its
cells n-1, 0, ..., n-1, 0 (``_ring``), all rows end to end in one flat
array, so every elementwise call of the flux is a single contiguous pass.
The undivided differences d = e[1:] - e[:-1] of that copy hold
m[k] - m[k-1] at offset k = 0..n of each row; the left differences are
d[:-1], the right ones d[1:], and the two entries at each row seam are junk
that no index reads. The limited slope is formed on them undivided, as
4 dx times the MC slope (``_mc_slope``), so no pass divides by dx.
Faces come in padded order, n + 1 per row: entry j is face j - 1/2, so
entry 0 is face -1/2, the periodic wrap of face n - 1/2. The upwind choice
is made once per face array, not per flux: ``upwind_faces`` records each
face's donor cell (i where w_i >= 0, i+1 mod n otherwise) as an offset into
the ring copy, and the signed offset half = +1/8 or -1/8 that, times the
slope 4 dx s, moves the donor's value +-(dx/2) s to the face; the flux
reconstructs the donor side only, and ``divergence_of_flux`` subtracts
adjacent entries of the padded flux. None of the three reads dx: the flux
carries the units of the velocities it is given. The forward stepper hands
them Courant numbers w dt / (2 dx) of a stage of dt/2, so that a stage is
m minus that difference, with no pass by dx or dt. The ring copy and the
donor reads, here and in the backward advection, are gathers with
``mode="clip"``, which spends no bounds check per call: ``_ring`` and
``_face_cells`` build every index in range, so no clamp ever acts. The
centered second differences slice a copy of their input laid out as a ring
row, joined by concatenate: on this small copy that is faster than the gather.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .generators import GeneratorSpec
from .grids import Grid

__all__ = [
    "transport_flux",
    "divergence_of_flux",
    "UpwindFaces",
    "upwind_faces",
    "StepSetup",
    "StackStepper",
    "RunGuard",
    "march",
    "LIMITERS",
]

LIMITERS = ("mc", "off")


# ---------------------------------------------------------------------------
# conservative transport pieces


_RINGS: dict = {}  # (rows, n) -> ring indices


def _ring(rows: int, n: int) -> np.ndarray:
    """Flat indices into a (rows, n) stack that list each row's cells
    n-1, 0, ..., n-1, 0, the rows end to end: rows * (n + 2) entries, and an
    (n,) array is the rows = 1 case. Entry j of a row's first n + 1 is the
    cell left of face j - 1/2, and entry j + 1 the cell right of it."""
    ring = _RINGS.get((rows, n))
    if ring is None:
        cells = np.concatenate(([n - 1], np.arange(n), [0]))
        ring = _RINGS[rows, n] = (np.arange(0, rows * n, n)[:, None] + cells).ravel()
    return ring


def _mc_slope(e: np.ndarray) -> np.ndarray:
    """4 dx times the monotonized-central cell slopes of a ring copy e
    (``_ring``): the slope of row r's cell i at offset r * (n + 2) + i, the
    two offsets between rows junk. All of it is formed on one flat array of
    undivided differences d = e[1:] - e[:-1]: the left ones are its view
    d[:-1], the right ones its view d[1:].

    The MC slope is sign(central) * min(|central|, 2 min(|left|, |right|))
    with central = (left + right) / 2 where left * right > 0, and 0
    elsewhere. Four dx times it is
    min(|dl| + |dr|, 4 min(|dl|, |dr|)) * (sign dl + sign dr): the sign sum
    is +-2 where the two share a sign, 0 at an extremum, and where one is 0
    the minimum is 0, so flat and extremum cells get +-0. Nine numpy calls,
    with no select and no copysign; a NaN difference spreads through its
    sign to both cells it borders."""
    d = e[1:] - e[:-1]
    s = np.sign(d)
    a = np.abs(d, out=d)
    a_left, a_right = a[:-1], a[1:]
    lim = np.minimum(a_left, a_right)
    lim *= 4.0
    np.minimum(a_left + a_right, lim, out=lim)
    lim *= s[:-1] + s[1:]
    return lim


@dataclass(frozen=True)
class UpwindFaces:
    """Face velocities w with their upwind donors, in padded face order:
    entry j of a row is face j - 1/2 (n + 1 entries, entry 0 the periodic
    wrap of face n - 1/2). ``donor[j]`` indexes the cell whose value crosses
    that face within the flat ring copy of the data (``_ring``): offset
    r * (n + 2) + i for cell i of row r. ``half[j]`` is +1/8 where the face
    lies right of that cell's centre and -1/8 where it lies left: times the
    slope 4 dx s of ``_mc_slope`` it is the move +-(dx/2) s to the face."""

    w: np.ndarray
    donor: np.ndarray
    half: np.ndarray


_FACE_CELLS: dict = {}  # velocity shape -> face indices


def _face_cells(shape: tuple) -> tuple:
    """For each face of a velocity stack of ``shape`` in padded order (row r,
    entry j: face j - 1/2): the flat index of its velocity, that of
    w[r, j - 1 mod n], and the ring offsets r * (n + 2) + i of the cells i
    left and right of it."""
    cells = _FACE_CELLS.get(shape)
    if cells is None:
        n = shape[-1]
        ring = _ring(1, n)
        row = np.arange(int(np.prod(shape[:-1])))[:, None]
        at, left, right = row * n + ring[:-1], row * (n + 2) + ring[:-1], row * (n + 2) + ring[1:]
        cells = _FACE_CELLS[shape] = tuple(a.reshape(shape[:-1] + (n + 1,)) for a in (at, left, right))
    return cells


def upwind_faces(w: np.ndarray) -> UpwindFaces:
    """The face record of a (rows, n) velocity stack in one call, row r
    holding the velocities at faces i + 1/2, i = 0..n-1, of row r of the
    data. In padded face order, the donor is cell i where w[r, i] >= 0 and
    i+1 mod n otherwise (-0.0 counts as >= 0, NaN does not), at ring offset
    r * (n + 2) + cell, and half +1/8 or -1/8 to match. An (n,) array
    gets the one-row record without its row axis."""
    at, left, right = _face_cells(w.shape)
    w = w.take(at)
    ahead = w >= 0
    return UpwindFaces(w, np.where(ahead, left, right), np.where(ahead, 0.125, -0.125))


def transport_flux(m: np.ndarray, faces: UpwindFaces, limiter: str = "mc") -> np.ndarray:
    """Upwind flux f[j] = w_{j-1/2} * m_rec at face j - 1/2, in padded face
    order, for a (rows, n) stack m and the record of its rows' faces
    (``upwind_faces``): (rows, n + 1) entries, entry 0 of a row equal to
    entry n bit for bit; an (n,) array and its record give n + 1. m_rec is
    the donor cell, plus with ``limiter="mc"`` the MC-limited linear
    reconstruction. f is in the units of w times m: a physical flux for
    velocities, the mass a stage moves across each face for Courant numbers.

    One ring copy e of m (``_ring``) feeds both: only the donor side is
    reconstructed, e[1:][donor] + half * slope[donor], with half = +-1/8 and
    the slope 4 dx s (``_mc_slope``); with half = -1/8 that is bit for bit
    m - (1/8) * slope, since IEEE negation is exact.
    ``limiter="off"`` builds no slopes: half * 0.0 is the zero slope with the
    sign that m + 0.0 (donor on the left) and m (donor on the right) give,
    signed zeros included.
    """
    n = m.shape[-1]
    e = m.take(_ring(m.size // n, n), mode="clip")
    if limiter == "off":
        rec = faces.half * 0.0
    elif limiter == "mc":
        rec = _mc_slope(e).take(faces.donor, mode="clip")
        rec *= faces.half
    else:
        raise ValueError(f"unknown limiter {limiter!r}; choose from {LIMITERS}")
    rec += e[1:].take(faces.donor, mode="clip")
    rec *= faces.w
    return rec


def divergence_of_flux(flux: np.ndarray) -> np.ndarray:
    """f_{i+1/2} - f_{i-1/2} along the last axis of a padded flux
    (``transport_flux``): one subtraction of adjacent entries, n per row;
    telescopes to zero over the period. Divided by dx it is the divergence
    of a physical flux; of a Courant flux it is what a stage takes off."""
    return flux[..., 1:] - flux[..., :-1]


def _variable_diffusion_term(values: np.ndarray, s2: np.ndarray, dx: float, adjoint: bool) -> np.ndarray:
    """tr(Sigma Sigma^T D^2 u) or its adjoint (Sigma^2 m)'' by centered FD,
    with s2 = Sigma^2 at the nodes (row by row on a stack)."""
    if adjoint:
        return _second_difference(s2 * values, dx)
    return s2 * _second_difference(values, dx)


def _second_difference(p: np.ndarray, dx: float) -> np.ndarray:
    """3-point centered periodic second difference along the last axis, on
    p with one periodic ghost cell at each end: q[..., i + 1] = p[..., i mod n]."""
    q = np.concatenate((p[..., -1:], p, p[..., :1]), axis=-1)
    return (q[..., 2:] - 2.0 * p + q[..., :-2]) / dx**2


# ---------------------------------------------------------------------------
# setup shared by the forward and backward time steppers


class NumericalFailure(RuntimeError):
    """A run left its validity envelope (CFL, stability, boundary mass).

    ``row`` is the row of a ``StackStepper``'s stack whose moving faces
    raised it; every other failure, and a lone run's, is row 0."""

    row = 0


class RunGuard:
    """The validity envelope every march (``march``) polices: ``n_steps`` whole
    steps of dt from 0 to t_final, the steps it records, blow-up and the
    boundary band. Messages name the time ``clock``: "t", or "s" on the
    backward clock.

    ``check_rows``, the one check of a grid state, takes the guard of a
    (rows, n) stack in one pass: the sup and the band mass of every row are
    reductions along the rows of one |values|, which give each row the bits
    of its own scan; a lone run is a one-row stack. The runs call it from
    their records, so verdicts are still taken at records only."""

    BAND = 0.05  # share of the cells at each end of the box that forms the boundary band

    def __init__(self, dt: float, t_final: float, record_every: int = 1,
                 clock: str = "t", extra_records=()):
        self.n_steps = int(round(t_final / dt))
        if abs(self.n_steps * dt - t_final) > 1e-9 * max(1.0, abs(t_final)):
            raise ValueError(f"{clock}_final={t_final} is not an integer number of steps of dt={dt}")
        self.dt = dt
        self.record_every = record_every
        self.extra_records = extra_records
        self.clock = clock

    def records(self, k: int) -> bool:
        """Every record_every-th step, the last one and those in extra_records."""
        return k % self.record_every == 0 or k == self.n_steps or k in self.extra_records

    def check_rows(self, values: np.ndarray, dx: float, eps: float, t: float | None) -> tuple:
        """The guard of a C-contiguous (rows, n) stack at time t in one pass.
        Returns each row's sup|values|, each row's band mass (the absolute
        mass in its first and last ceil(BAND * n) cells, summed in index
        order) and the rows that fail, each with its NumericalFailure:
        blow-up (a NaN, or a sup beyond 1e12) before a band mass above eps.
        With t=None the band message is that of a stationary profile."""
        magnitudes = np.abs(values)
        sup = magnitudes.max(axis=1)
        w = int(np.ceil(self.BAND * values.shape[1]))
        band = np.concatenate((magnitudes[:, :w], magnitudes[:, -w:]), axis=1).sum(axis=1) * dx
        failed = {}
        for r, (row_sup, b) in enumerate(zip(sup.tolist(), band.tolist())):
            if not row_sup <= 1e12:  # NaN too
                run = "backward run" if self.clock == "s" else "forward run"
                failed[r] = NumericalFailure(f"{run} blew up at {self.clock}={t:g}")
            elif b > eps:
                failed[r] = NumericalFailure(
                    f"stationary profile parks {b:.3e} mass in the boundary band (eps={eps:g}); enlarge the box"
                    if t is None else
                    f"boundary mass {b:.3e} exceeds eps={eps:g} at t={t:g}: the box is too small for this "
                    f"horizon, or dx={dx:g} is too coarse for the data")
        return sup, band, failed

    @staticmethod
    def check_positions(x: np.ndarray, t: float):
        """Finiteness only, which particle loops check on every chunk of every step."""
        if not np.isfinite(x).all():
            raise NumericalFailure(f"particle positions left the finite range at t={t:g}")


def march(step, guard: RunGuard, m, record, retake=None) -> None:
    """The one march of a grid run, on either clock: m = step(m, t, t_end)
    over the ``guard.n_steps`` steps, step k + 1 from t = k dt to t_end =
    (k + 1) dt, and m = record(k, t, m) at step 0 and at each step
    ``guard.records`` picks. A record returns the state to go on from, or
    None to stop. A NumericalFailure a step raises goes to retake(exc, m),
    which returns the state to take the step again from, or None to stop;
    with no retake it propagates. The records take the verdicts."""
    dt, n_steps, records = guard.dt, guard.n_steps, guard.records
    m = record(0, 0.0, m)
    k = 0
    while m is not None and k < n_steps:
        t_end = (k + 1) * dt
        try:
            stepped = step(m, k * dt, t_end)
        except NumericalFailure as exc:
            if retake is None:
                raise
            m = retake(exc, m)
            continue
        k += 1
        m = record(k, t_end, stepped) if records(k) else stepped


class StepSetup:
    """The per-spec pieces of a time step of either clock for a fixed (spec,
    grid, dt): ``diffusion_factor`` exp(-dt (lambda0 xi^2 + symbol(xi))) on
    the n//2 + 1 half spectrum of rfft, the exact symbol of every measure in
    the exponent; Sigma^2; the drift's steady part at the faces nodes + dx/2,
    evaluated once, so that a static drift's velocities ``static_w`` are
    -steady and each face array ``moving_w`` builds for a moving drift adds
    only its wave; and the two gates. Faces are in forward time. The
    advection is checked against the CFL bound for a step of ``substep * dt``
    on every face array, so over exactly the times a run steps through; the
    variable diffusion once. ``where`` names the clock in the messages."""

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
        self._face_x = grid.nodes + 0.5 * grid.dx  # the last face, at L - dx/2, is the periodic seam
        self._steady = spec.drift.steady(self._face_x)
        self.static_w = None
        if not spec.is_time_dependent:
            self.static_w = -self._steady
            self._check_cfl(self.static_w)
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

    def moving_w(self, t: float) -> np.ndarray:
        """Face velocities -(steady + wave(t)) of a moving drift at forward
        time t, CFL-checked: the bits of -drift(t, faces)."""
        w = -(self._steady + self.spec.drift.wave(t, self._face_x))
        self._check_cfl(w, t)
        return w


class StackStepper:
    """What a step of either clock shares on a (rows, n) stack of runs with
    one grid and dt, row r that of the StepSetup ``stages[r]``: the diffusion
    stage, the ring index of the stack (``_ring`` as a (rows, n + 2) array,
    which the backward clock's gathers read) and the face memo. ``_factor``
    stacks the rows' diffusion factors over n as complex numbers, for the
    spectrum buffer ``_spectrum`` that ``diffuse`` owns, and
    ``sigma_squared`` the Sigma^2 of the ``variable_rows`` only, so that
    the other rows keep their bits (adding a zero term would turn -0.0 into
    0.0). The face record, ``_record`` of the (rows, n) velocity stack, is
    built once when every drift is static, else once per face time, after
    the ``moving`` rows write their velocities into a copy of ``_w``, which
    holds the static rows' velocities."""

    MEMO = 2  # moving face times the memo keeps, the last ones built

    def __init__(self, stages: list):
        self.stages = stages
        self.grid, self.dt = stages[0].grid, stages[0].dt
        n, rows = self.grid.n, len(stages)
        # the complex copy spares the multiply a cast of the factor per call
        self._factor = (np.stack([s.diffusion_factor for s in stages]) / n).astype(complex)
        self._spectrum = np.empty((rows, n // 2 + 1), complex)
        self.ring = _ring(rows, n).reshape(rows, n + 2)
        self.variable_rows = [r for r, s in enumerate(stages) if s.sigma_squared is not None]
        self.sigma_squared = (np.stack([stages[r].sigma_squared for r in self.variable_rows])
                              if self.variable_rows else None)
        self.moving = [r for r, s in enumerate(stages) if s.static_w is None]
        self._w = np.array([s.static_w if s.static_w is not None else np.zeros(self.grid.n) for s in stages])
        self._faces = None if self.moving else self._record(self._w)
        self._memo: dict = {}  # face time -> (velocities, record), oldest first

    def _record(self, w: np.ndarray) -> UpwindFaces:
        # the forward clock's: the upwind donors of the Courant numbers w dt / (2 dx)
        # of a stage of dt/2, scaled once per face array
        return upwind_faces(w * (0.5 * self.dt / self.grid.dx))

    def faces(self, t: float):
        """The stack's face record at forward time t. Moving faces keep the
        records of the last ``MEMO`` times built, for a clock that comes back
        to a time it has asked for. The moving rows write their velocities
        into a scratch copy, which joins the memo only once every row has
        passed the CFL check. When a row's faces raise NumericalFailure, its
        ``row`` names that row, and the memo still holds the times it held,
        from which the rows that stay retake the step."""
        if not self.moving:
            return self._faces
        hit = self._memo.get(t)
        if hit is not None:
            return hit[1]
        w = self._w.copy()
        for r in self.moving:
            try:
                w[r] = self.stages[r].moving_w(t)
            except NumericalFailure as exc:
                exc.row = r
                raise
        if len(self._memo) == self.MEMO:
            del self._memo[next(iter(self._memo))]
        self._memo[t] = w, self._record(w)
        return self._memo[t][1]

    def keep(self, rows: list):
        """Drop every row but ``rows``, which keep their order, face velocities
        and memo times: the records are rebuilt from them, with no new face
        array and no new CFL check."""
        kept = {t: w[rows] for t, (w, _) in self._memo.items()}
        StackStepper.__init__(self, [self.stages[r] for r in rows])
        if self.moving:
            self._memo = {t: (w, self._record(w)) for t, w in kept.items()}

    def diffuse(self, values: np.ndarray, adjoint: bool) -> np.ndarray:
        """Diffusion and jumps over dt on a (rows, n) stack, by one real FFT
        pair with the stacked factors, then the explicit variable-Sigma term
        (adjoint=True: its Fokker-Planck form, for the forward clock) on
        ``variable_rows``. Returns a new array and leaves ``values`` alone.

        rfft writes into ``_spectrum``, which the stepper owns and each call
        overwrites; the factor over n scales it in place, and irfft with
        norm="forward" (no 1/n of its own) writes into a fresh array. n is a
        power of two (``Grid``), so dividing by it and multiplying by 1/n
        are exact and commute with every rounding of the pair: the output
        keeps the bits of rfft, factor, irfft(..., n) wherever the numbers
        involved are normal. On subnormal data the two can differ in the
        last places (by up to 2.5e-321 at inputs of 1e-310); where the
        unscaled inverse transform, n times the output, would overflow, the
        fold still returns the finite result."""
        spectrum = np.fft.rfft(values, out=self._spectrum)
        spectrum *= self._factor
        out = np.fft.irfft(spectrum, norm="forward", out=np.empty_like(values))
        if self.sigma_squared is not None:
            rows = self.variable_rows
            term = _variable_diffusion_term(out[rows], self.sigma_squared, self.grid.dx, adjoint)
            out[rows] += self.dt * term
        return out
