"""Transport layer against its np.roll oracles: the limited upwind flux, its
divergence and the backward advection must agree bit for bit, sign bits of
zeros included, and so must whole forward and backward steps. The backward
advection is also held to the retired one-dimensional code it replaced,
NaN payloads included, and the undivided MC slope to the retired divided
one, to rounding. A (rows, n) stack must give each row the bits of that
row alone, whatever its neighbours hold."""
import numpy as np
import pytest

import levyfp.forward as forward
import levyfp.operators as operators
from levyfp.adjoint import _BackwardStepper
from levyfp.forward import _run_stepper, _Stepper
from levyfp.generators import DriftSpec, GeneratorSpec, LevyMeasureSpec, LocalDiffusionSpec
from levyfp.grids import Grid
from levyfp.operators import (
    LIMITERS,
    StepSetup,
    UpwindFaces,
    _mc_slope,
    _ring,
    divergence_of_flux,
    transport_flux,
    upwind_faces,
)
from strang_oracle import face_velocities, mc_slope_retired

# ---------------------------------------------------------------------------
# oracles: the np.roll expressions the slicing code replaced


def oracle_slope(m, limiter):
    # 4 dx times the MC slope, from undivided differences
    if limiter == "off":
        return np.zeros_like(m)
    left = m - np.roll(m, 1, axis=-1)
    right = np.roll(m, -1, axis=-1) - m
    lim = np.minimum(np.abs(left) + np.abs(right), 4.0 * np.minimum(np.abs(left), np.abs(right)))
    return lim * (np.sign(left) + np.sign(right))


def oracle_flux(m, faces, limiter="mc"):
    # both reconstructions, then the upwind pick per face, row by row: reads
    # only faces.w, faces 1/2 .. n - 1/2 of the padded record
    w = faces.w[..., 1:]
    s = oracle_slope(m, limiter)
    from_left = m + 0.125 * s
    from_right = np.roll(m - 0.125 * s, -1, axis=-1)
    return np.where(w >= 0, w * from_left, w * from_right)


def oracle_divergence(flux):
    return flux - np.roll(flux, 1, axis=-1)


def oracle_advect(stepper, v, t):
    w = face_velocities(stepper.grid, stepper.stages[0].spec.drift, t)
    wp, wm = np.maximum(w, 0.0), np.minimum(w, 0.0)
    rho = stepper.dt / stepper.grid.dx
    return v - rho * (wp * (v - np.roll(v, -1, axis=-1)) + np.roll(wm, 1) * (np.roll(v, 1, axis=-1) - v))


def retired_advect(stepper, v, t):
    # the backward advection of an (n,) array before it read the ring copy:
    # one periodic difference array e[k] = v[k-1] - v[k], k = 0..n, taken
    # of -v, and max(w, 0) with min(w, 0) shifted one cell on
    w = face_velocities(stepper.grid, stepper.stages[0].spec.drift, t)
    wm = np.minimum(w, 0.0)
    wp, wm_prev = np.maximum(w, 0.0), np.concatenate((wm[-1:], wm[:-1]))
    m = -v
    e = np.empty(m.size + 1)
    np.subtract(m[1:], m[:-1], out=e[1:-1])
    e[0] = e[-1] = m[0] - m[-1]
    rho = stepper.dt / stepper.grid.dx
    return v - rho * (wp * e[1:] + wm_prev * e[:-1])


def assert_bitwise(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


# ---------------------------------------------------------------------------
# seeded fields: scales 1e-5 to 1e5, exact zeros of both signs, equal
# neighbours (zero differences), and velocities of both signs with zeros


def random_field(rng, n):
    x = rng.standard_normal(n) * 10.0 ** rng.uniform(-5.0, 5.0, n)
    k = max(1, n // 8)
    x[rng.choice(n, k, replace=False)] = 0.0
    x[rng.choice(n, k, replace=False)] = -0.0
    i = rng.choice(n, k, replace=False)
    x[i] = x[(i + 1) % n]
    return x


def random_velocity(rng, n):
    w = rng.standard_normal(n)
    p = rng.permutation(n)
    k = max(1, n // 8)
    w[p[:k]] = 0.0
    w[p[k:2 * k]] = -0.0
    w[p[-2]], w[p[-1]] = abs(w[p[-2]]), -abs(w[p[-1]])
    return w


SIZES = (4, 8, 256, 1024)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("limiter", LIMITERS)
def test_flux_and_divergence_match_roll_oracle(n, limiter):
    rng = np.random.default_rng(1000 + n)
    for _ in range(3):
        m = random_field(rng, n)
        w = random_velocity(rng, n)
        assert np.any(w > 0) and np.any(w < 0) and np.any(w == 0)
        faces = upwind_faces(w)
        flux = transport_flux(m, faces, limiter)
        # padded face order: entry 0 is face -1/2, the wrap of face n - 1/2
        assert_bitwise(flux[:1], flux[n:])
        assert_bitwise(flux[1:], oracle_flux(m, faces, limiter))
        assert_bitwise(divergence_of_flux(flux), oracle_divergence(flux[1:]))


@pytest.mark.parametrize("limiter", LIMITERS)
def test_flux_matches_oracle_on_signed_zero_fields(limiter):
    # all-zero data of mixed sign: the "off" reconstruction m + 0.0 must
    # turn -0.0 into +0.0 exactly as zero slopes did
    m = np.array([0.0, -0.0, -0.0, 0.0, -0.0, 0.0, 0.0, -0.0])
    w = np.array([1.0, -1.0, 0.0, -0.0, 2.0, -2.0, -0.0, 1.0])
    faces = upwind_faces(w)
    assert_bitwise(transport_flux(m, faces, limiter)[1:], oracle_flux(m, faces, limiter))


@pytest.mark.parametrize("scale", [1e-318, 1e303])
def test_flux_matches_oracle_at_the_ends_of_the_float_range(scale):
    # subnormal differences and overflowing ones (|dl| + |dr| of inf): the
    # slope formed in place on |d| must still agree with the oracle bit for bit
    rng = np.random.default_rng(5000)
    for _ in range(20):
        m = random_field(rng, 64) * scale
        faces = upwind_faces(random_velocity(rng, 64))
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            got, want = transport_flux(m, faces, "mc")[1:], oracle_flux(m, faces, "mc")
        # inf * 0 leaves NaN in both; the other entries agree with their sign bits
        assert np.array_equal(np.isnan(got), np.isnan(want))
        number = ~np.isnan(want)
        assert_bitwise(got[number], want[number])


@pytest.mark.parametrize("n", SIZES)
def test_mc_slope_keeps_the_retired_law(n):
    # the undivided slope is 4 dx times the retired MC slope, to 4 ulp of the
    # larger of the cell's two differences; flat and extremum cells get +-0
    rng = np.random.default_rng(5100 + n)
    for dx in (1e-3, 0.1, 3.0):
        for rows in (1, 3):
            e = np.array([random_field(rng, n) for _ in range(rows)]).take(_ring(rows, n))
            got, want = _mc_slope(e), mc_slope_retired(e, dx)
            cells = (np.arange(rows)[:, None] * (n + 2) + np.arange(n)).ravel()  # no row seams
            d = np.diff(e)
            left, right = d[:-1][cells], d[1:][cells]
            gap = np.abs(got[cells] / 4.0 - want[cells] * dx)
            assert np.all(gap <= 4.0 * np.finfo(float).eps * np.maximum(np.abs(left), np.abs(right)))
            still = left * right <= 0.0
            assert still.any() and np.all(got[cells][still] == 0.0)


def _advect_stepper(n, rng, time_dependent):
    g = Grid(n=n, half_width=4.0)
    w = random_velocity(rng, n)
    if time_dependent:
        # -w - t w: the moving faces keep the signed zeros of w
        drift = DriftSpec(alpha=0.0, gamma=2.0, steady=lambda x: -w, wave=lambda t, x: -t * w)
    else:
        drift = DriftSpec(alpha=0.0, gamma=2.0, steady=lambda x: -w)
    spec = GeneratorSpec(LocalDiffusionSpec.constant(1.0), LevyMeasureSpec.none(), drift)
    # up to t = 1 the moving faces reach 2 max|w|
    dt = 0.2 * g.dx / (2.0 * np.abs(w).max())
    return _BackwardStepper([StepSetup(spec, g, dt)])


def extreme_field(rng, n):
    # scales 1e-300 to 1e300, signed zeros, NaN and both infinities, each on n/16 cells
    x = rng.standard_normal(n) * 10.0 ** rng.uniform(-300.0, 300.0, n)
    p = rng.permutation(n)
    k = max(1, n // 16)
    for j, value in enumerate((0.0, -0.0, np.nan, np.inf, -np.inf)):
        x[p[j * k:(j + 1) * k]] = value
    return x


@pytest.mark.parametrize("n", SIZES[1:])  # Grid needs n >= 8
@pytest.mark.parametrize("time_dependent", [False, True])
def test_advect_matches_roll_oracle(n, time_dependent):
    rng = np.random.default_rng(2000 + n)
    stepper = _advect_stepper(n, rng, time_dependent)
    for t in (1.0, 0.75, 0.5):
        v = random_field(rng, n)
        (got,) = stepper._advect(v[None, :], t)
        assert_bitwise(got, oracle_advect(stepper, v, t))
        # the retired code, bit for bit on ordinary fields and on fields of
        # NaN, infinities and extreme scales, NaN payloads and sign bits included
        assert_same_bits(got, retired_advect(stepper, v, t))
        v = extreme_field(rng, n)
        with np.errstate(all="ignore"):
            (got,) = stepper._advect(v[None, :], t)
            assert_same_bits(got, retired_advect(stepper, v, t))


# ---------------------------------------------------------------------------
# whole steps built from the oracles


def open_step_close(stepper, m):
    """The opening step from t = 0.25, one merged step and the closing half
    at 0.254, each state as the stepper leaves it."""
    opened = stepper.step(m, 0.25, 0.252)
    stepped = stepper.step(opened, 0.252, 0.254)
    return opened, stepped, stepper.close(stepped, 0.254)


FRAC_OU = GeneratorSpec(LocalDiffusionSpec.constant(0.5), LevyMeasureSpec.fractional(1.5), DriftSpec.ou(1.0))
MOVING = GeneratorSpec(LocalDiffusionSpec.constant(1.0), LevyMeasureSpec.none(),
                       DriftSpec.perturbed_power(1.0, 2.0, 0.5))


@pytest.mark.parametrize("limiter", LIMITERS)
@pytest.mark.parametrize("spec", [FRAC_OU, MOVING], ids=["spectral", "moving"])
def test_forward_strang_step_matches_oracle_step(monkeypatch, limiter, spec):
    # the opening step, a merged step and the closing half, each built from
    # the oracles bit for bit
    g = Grid(n=256, half_width=8.0)
    m = random_field(np.random.default_rng(3), g.n)[None, :]

    got = open_step_close(_run_stepper(spec, g, 2e-3, limiter), m)
    # the stepper must reach the oracles through forward's module names (the
    # names perfbench's spans wrap): 2 forward-Euler stages to open, 3 per
    # merged step and 2 to close
    calls = []

    def counted(name, fn):
        def call(*args):
            calls.append(name)
            return fn(*args)
        return call

    monkeypatch.setattr(forward, "transport_flux", counted("flux", oracle_flux))
    monkeypatch.setattr(forward, "divergence_of_flux", counted("div", oracle_divergence))
    oracle = _run_stepper(spec, g, 2e-3, limiter)
    opened = oracle.step(m, 0.25, 0.252)
    assert calls == ["flux", "div"] * 2
    stepped = oracle.step(opened, 0.252, 0.254)
    assert calls == ["flux", "div"] * (2 + 3)
    closed = oracle.close(stepped, 0.254)
    assert calls == ["flux", "div"] * (2 + 3 + 2)
    for got_state, want_state in zip(got, (opened, stepped, closed)):
        assert_bitwise(got_state, want_state)


def test_static_faces_are_one_record_at_every_time():
    stepper = _run_stepper(FRAC_OU, Grid(n=64, half_width=8.0), 2e-3, "mc")
    faces = stepper.faces(0.0)
    assert all(stepper.faces(t) is faces for t in (1e-3, 0.25, 7.5, -1.0))


@pytest.mark.parametrize("spec", [FRAC_OU, MOVING], ids=["spectral", "moving"])
def test_backward_step_matches_oracle_step(monkeypatch, spec):
    g = Grid(n=256, half_width=8.0)
    rng = np.random.default_rng(4)
    v = random_field(rng, g.n)[None, :]
    stepper = _BackwardStepper([StepSetup(spec, g, 2e-3)])
    got = stepper.step(v, 0.75)
    monkeypatch.setattr(_BackwardStepper, "_advect", oracle_advect)
    assert_bitwise(got, stepper.step(v, 0.75))


class Gathered(np.ndarray):
    """An array that counts the gathers (``take``) made from it and from the
    arrays computed from it."""

    takes = 0

    def take(self, *args, **kwargs):
        Gathered.takes += 1
        return super().take(*args, **kwargs)


@pytest.mark.parametrize("spec", [FRAC_OU, MOVING], ids=["spectral", "moving"])
def test_backward_step_gathers_its_ring_once(monkeypatch, spec):
    # the stepper holds its ring index: a step makes one gather of the state
    # and looks up no ring; moving faces gather their velocities, not v
    g = Grid(n=256, half_width=8.0)
    stepper = _BackwardStepper([StepSetup(spec, g, 2e-3)])
    lookups = spy_on(monkeypatch, "_ring")
    monkeypatch.setattr(Gathered, "takes", 0)
    v = random_field(np.random.default_rng(4), g.n)[None, :].view(Gathered)
    for k in range(1, 4):
        v = stepper.step(v, 1.0 - k * 2e-3)
        assert type(v) is Gathered and Gathered.takes == k
    assert lookups == []


# ---------------------------------------------------------------------------
# stacks: every kernel acts row by row


def assert_complex_bitwise(got, want):
    assert_bitwise(got.real, want.real)
    assert_bitwise(got.imag, want.imag)


@pytest.mark.parametrize("n", [8, 256, 1024, 2048])
def test_real_fft_pair_over_a_stack_matches_each_row(n):
    # the diffusion stage transforms a (rows, n) stack along its rows; numpy
    # must give every row the bits of its own 1-D transform
    rng = np.random.default_rng(6000 + n)
    for rows in range(1, 9):
        stack = np.array([random_field(rng, n) for _ in range(rows)])
        spectra = np.fft.rfft(stack)
        spectra_in = spectra * np.exp(-rng.uniform(0.0, 3.0, spectra.shape))
        back = np.fft.irfft(spectra_in, n)
        for r in range(rows):
            assert_complex_bitwise(spectra[r], np.fft.rfft(stack[r]))
            assert_bitwise(back[r], np.fft.irfft(spectra_in[r], n))


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("limiter", LIMITERS)
def test_flux_and_divergence_of_a_stack_match_each_row(n, limiter):
    rng = np.random.default_rng(7000 + n)
    for _ in range(3):
        m = np.array([random_field(rng, n) for _ in range(5)])
        w = np.array([random_velocity(rng, n) for _ in range(5)])
        flux = transport_flux(m, upwind_faces(w), limiter)
        assert_bitwise(flux[:, 0], flux[:, n])
        div = divergence_of_flux(flux)
        for r in range(5):
            assert_bitwise(flux[r], transport_flux(m[r], upwind_faces(w[r]), limiter))
            assert_bitwise(div[r], divergence_of_flux(flux[r]))


VARIABLE = GeneratorSpec(LocalDiffusionSpec.tanh_variable(0.5, 0.5), LevyMeasureSpec.fractional(1.5),
                         DriftSpec.ou(1.0))
TEMPERED_POWER = GeneratorSpec(LocalDiffusionSpec.constant(1.0), LevyMeasureSpec.tempered(1.2),
                               DriftSpec.power(1.0, 1.5))


DRIFT_FREE = GeneratorSpec(LocalDiffusionSpec.constant(0.5), LevyMeasureSpec.fractional(1.5),
                           DriftSpec.none())


@pytest.mark.parametrize("limiter", LIMITERS)
@pytest.mark.parametrize("specs, zero_rows", [
    ([FRAC_OU, TEMPERED_POWER, FRAC_OU], ()),
    ([MOVING, FRAC_OU, VARIABLE, TEMPERED_POWER, MOVING, VARIABLE], ()),
    ([VARIABLE, DRIFT_FREE], (1,)),
], ids=["static", "mixed", "signed-zero"])
def test_forward_step_of_a_stack_matches_each_row(limiter, specs, zero_rows):
    # "mixed" stacks moving faces with static ones, and variable Sigma with
    # constant diffusion. In "signed-zero" a row of -0.0 keeps its sign bits
    # next to a variable-Sigma row: the stack adds it no zero term
    g = Grid(n=256, half_width=8.0)
    rng = np.random.default_rng(8)
    m = np.array([random_field(rng, g.n) for _ in specs])
    m[list(zero_rows)] = -0.0
    stepper = _Stepper([StepSetup(spec, g, 2e-3, substep=0.5) for spec in specs], limiter)
    states = open_step_close(stepper, m)
    for r, spec in enumerate(specs):
        lone = open_step_close(_run_stepper(spec, g, 2e-3, limiter), m[r:r + 1])
        for state, lone_state in zip(states, lone):
            assert_bitwise(state[r], lone_state[0])


def oracle_stacked_faces(w):
    # the retired path: each row's one-row record (donor i where w_i >= 0,
    # i + 1 mod n otherwise, as an offset into its own ring copy), then the
    # rows stacked with donor offsets r * (n + 2)
    rows, n = w.shape
    left = np.concatenate(([n - 1], np.arange(n)))
    right = np.concatenate((np.arange(n), [0]))
    records = []
    for row in w:
        padded = row.take(left)
        ahead = padded >= 0
        records.append((padded, np.where(ahead, left, right), np.where(ahead, 0.125, -0.125)))
    offsets = np.arange(0, (n + 2) * rows, n + 2)[:, None]
    return UpwindFaces(np.stack([r[0] for r in records]), np.stack([r[1] for r in records]) + offsets,
                       np.stack([r[2] for r in records]))


def special_velocity(rng, n):
    # mixed signs with signed zeros, NaN and both infinities, each on n/16 faces
    w = rng.standard_normal(n)
    p = rng.permutation(n)
    k = max(1, n // 16)
    for j, value in enumerate((0.0, -0.0, np.nan, np.inf, -np.inf, 1.0, -1.0)):
        w[p[j * k:(j + 1) * k]] = value
    return w


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("n", [8, 256, 1024])
@pytest.mark.parametrize("rows", range(1, 9))
def test_one_call_record_matches_stacked_rows(n, rows):
    # one upwind_faces call over a (rows, n) stack against the retired
    # per-row records stacked by hand: the same w, donors and half-widths,
    # bit for bit, NaN and the sign bits of zeros included
    rng = np.random.default_rng(7800 + 10 * n + rows)
    for _ in range(3):
        w = np.array([special_velocity(rng, n) for _ in range(rows)])
        got, want = upwind_faces(w), oracle_stacked_faces(w)
        for name in ("w", "donor", "half"):
            assert_same_bits(getattr(got, name), getattr(want, name))
        # an (n,) array gets the one-row record without its row axis
        lone = upwind_faces(w[0])
        for name in ("w", "donor", "half"):
            assert_same_bits(getattr(lone, name), getattr(oracle_stacked_faces(w[:1]), name)[0])


def assert_donors_inside_their_rows(faces, n):
    # a donor is offset r * (n + 2) + cell of the ring copy: its row is its
    # record row, and it never lands on the two junk slots of a row seam
    rows = faces.donor.shape[0]
    assert faces.donor.shape == faces.w.shape == faces.half.shape == (rows, n + 1)
    assert np.all(faces.donor % (n + 2) < n)
    assert np.all(faces.donor // (n + 2) == np.arange(rows)[:, None])


@pytest.mark.parametrize("n", SIZES[1:])  # Grid needs n >= 8
def test_stacked_donors_stay_inside_their_rows(n):
    rng = np.random.default_rng(7700 + n)
    w = np.array([random_velocity(rng, n) for _ in range(5)])
    assert_donors_inside_their_rows(upwind_faces(w), n)
    # the steppers' records: static faces built once, moving ones per time
    g = Grid(n=n, half_width=8.0)
    for specs in ([FRAC_OU, TEMPERED_POWER], [MOVING, FRAC_OU, MOVING]):
        stepper = _Stepper([StepSetup(spec, g, 2e-3, substep=0.5) for spec in specs], "mc")
        for t in (0.0, 0.25):
            assert_donors_inside_their_rows(stepper.faces(t), n)


def assert_gathers_in_range(index, size):
    # the ring and donor gathers run with mode="clip", which would clamp an
    # out-of-range index to the nearest end without a word: every index must
    # lie inside the array it reads
    assert index.dtype.kind == "i"
    assert index.min() >= 0 and index.max() < size


def test_index_guard_fails_on_an_out_of_range_index():
    ring = _ring(3, 8)
    assert_gathers_in_range(ring, 3 * 8)
    for bad in (3 * 8, -1):
        with pytest.raises(AssertionError):
            assert_gathers_in_range(np.append(ring, bad), 3 * 8)
    # what the guard stands for: clip reads the last cell for the index past it
    assert np.arange(4.0).take([4], mode="clip")[0] == 3.0


@pytest.mark.parametrize("n", [8, 256, 1024])
@pytest.mark.parametrize("rows", range(1, 9))
def test_check_free_gathers_stay_in_range(rows, n):
    rng = np.random.default_rng(7900 + 10 * n + rows)
    # the ring copy gathers from a (rows, n) stack, and so does the backward
    # stepper's ring, the same index in rows of n + 2
    ring = _ring(rows, n)
    assert ring.size == rows * (n + 2)
    assert_gathers_in_range(ring, rows * n)
    stepper = _BackwardStepper([StepSetup(FRAC_OU, Grid(n=n, half_width=8.0), 1e-3)] * rows)
    assert_same_bits(stepper.ring, ring.reshape(rows, n + 2))
    # donors gather from e[1:], the ring copy after its first entry
    for w in (np.array([random_velocity(rng, n) for _ in range(rows)]),
              np.array([special_velocity(rng, n) for _ in range(rows)])):
        assert_gathers_in_range(upwind_faces(w).donor, rows * (n + 2) - 1)


JUNK = {
    "nan": lambda rng, n: np.full(n, np.nan),
    "inf": lambda rng, n: np.full(n, np.inf),
    "-inf": lambda rng, n: np.full(n, -np.inf),
    "mixed-inf": lambda rng, n: np.where(rng.random(n) < 0.5, np.inf, -np.inf),
    "huge": lambda rng, n: random_field(rng, n) * 1e303,
    "+0": lambda rng, n: np.zeros(n),
    "-0": lambda rng, n: np.full(n, -0.0),
}


@pytest.mark.parametrize("limiter", LIMITERS)
@pytest.mark.parametrize("junk", sorted(JUNK))
def test_junk_rows_do_not_leak_into_their_neighbours(limiter, junk):
    # junk rows between and around ordinary ones: the seams of the ring copy
    # mix neighbouring rows, so the ordinary rows' flux, divergence, opening
    # and merged steps and closing half must still be those of their lone
    # runs, bit for bit
    g = Grid(n=256, half_width=8.0)
    rng = np.random.default_rng(9000)
    specs = [FRAC_OU, MOVING, FRAC_OU, TEMPERED_POWER, MOVING]
    m = np.array([JUNK[junk](rng, g.n) if r % 2 == 0 else random_field(rng, g.n) for r in range(len(specs))])
    stepper = _Stepper([StepSetup(spec, g, 2e-3, substep=0.5) for spec in specs], limiter)
    faces = stepper.faces(0.25)
    with np.errstate(all="ignore"):
        flux = transport_flux(m, faces, limiter)
        div = divergence_of_flux(flux)
        states = open_step_close(stepper, m)
    for r in (1, 3):
        lone = _run_stepper(specs[r], g, 2e-3, limiter)
        (lone_flux,) = transport_flux(m[r:r + 1], lone.faces(0.25), limiter)
        assert_bitwise(flux[r], lone_flux)
        assert_bitwise(div[r], divergence_of_flux(lone_flux))
        for state, lone_state in zip(states, open_step_close(lone, m[r:r + 1])):
            assert_bitwise(state[r], lone_state[0])


# ---------------------------------------------------------------------------
# moving faces: one face array per distinct time of the step grid


def spy_on(monkeypatch, name):
    """Record the arguments of every call of operators.<name>."""
    calls = []
    fn = getattr(operators, name)

    def spy(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(operators, name, spy)
    return calls


def spy_on_moving_w(monkeypatch):
    """Record (drift, t) of every face array a moving drift's StepSetup builds."""
    calls = []
    build = StepSetup.moving_w

    def spy(self, t):
        calls.append((self.spec.drift, t))
        return build(self, t)

    monkeypatch.setattr(StepSetup, "moving_w", spy)
    return calls


PERTURBED = GeneratorSpec(LocalDiffusionSpec.constant(0.5), LevyMeasureSpec.fractional(1.5),
                          DriftSpec.perturbed_power(1.0, 1.5, 0.3))


def step_grid_times(n_steps, dt):
    # each step's start, k dt, and its midpoint, read from its end as
    # (k + 1) dt - dt/2, the end of one step being the start of the next
    return sorted([k * dt for k in range(n_steps + 1)] + [(k + 1) * dt - 0.5 * dt for k in range(n_steps)])


def test_moving_faces_are_built_once_per_step_grid_time(monkeypatch):
    # a record at every step closes at t - dt/2 and t, and the march comes
    # back to both: the two-time memo builds each face time once, 2 per step
    # and the end time, 2 n_steps + 1 face arrays
    calls = spy_on_moving_w(monkeypatch)
    g = Grid(n=64, half_width=4.0)
    forward.solve(forward.gaussian(g), PERTURBED, t_final=0.1, dt=1e-2, eps_boundary=1.0)
    assert sorted(t for _, t in calls) == step_grid_times(10, 1e-2)


def test_a_stack_stacks_each_face_time_once(monkeypatch):
    # the stepper keeps its last record: two moving rows get one record of
    # the stack per step grid time, and keep their lone bits
    g = Grid(n=64, half_width=4.0)
    m0 = forward.gaussian(g)
    specs = [PERTURBED, GeneratorSpec(LocalDiffusionSpec.constant(1.0), LevyMeasureSpec.none(),
                                      DriftSpec.perturbed_power(1.0, 2.0, 0.5))]
    lone = [forward.solve(m0, spec, t_final=0.1, dt=1e-2, eps_boundary=1.0) for spec in specs]
    stacked = spy_on(monkeypatch, "upwind_faces")
    velocities = spy_on_moving_w(monkeypatch)
    runs = forward.solve_stack(m0, specs, t_final=0.1, dt=1e-2, eps_boundary=1.0)
    assert len(stacked) == len(step_grid_times(10, 1e-2)) == 21
    assert all(args[0].shape == (2, g.n) for args in stacked)
    assert len(velocities) == 2 * 21
    for run, want in zip(runs, lone):
        assert_bitwise(run.final.values, want.final.values)


def test_a_restack_keeps_the_face_memo(monkeypatch):
    # the static row 0 fails the band at t=0.02 and leaves the stack; the
    # moving row marches on with the face velocities and memo time it had,
    # so it builds exactly the face arrays of its lone run and keeps its bits
    g = Grid(n=256, half_width=8.0)
    m0 = forward.gaussian(g)
    moving = GeneratorSpec(LocalDiffusionSpec.constant(0.5), LevyMeasureSpec.fractional(1.9),
                           DriftSpec.perturbed_power(1.0, 1.5, 0.3))
    heavy = GeneratorSpec(LocalDiffusionSpec.constant(0.5), LevyMeasureSpec.fractional(1.1), DriftSpec.ou(1.0))
    clock = dict(t_final=0.06, dt=4e-3, eps_boundary=3e-4)
    calls = spy_on_moving_w(monkeypatch)
    lone = forward.solve(m0, moving, **clock)
    assert sorted(t for _, t in calls) == step_grid_times(15, 4e-3)
    alone = len(calls)
    calls.clear()
    failed, run = forward.solve_stack(m0, [heavy, moving], **clock)
    assert isinstance(failed, forward.NumericalFailure) and "at t=0.02:" in str(failed)
    assert len([t for drift, t in calls if drift is moving.drift]) == alone == 31
    assert_bitwise(run.final.values, lone.final.values)
    assert_bitwise(run.boundary_mass, lone.boundary_mass)


@pytest.mark.parametrize("failing_first, built", [(True, 51), (False, 52)])
def test_a_cfl_failure_keeps_the_face_memo(monkeypatch, failing_first, built):
    # the amplitude-26.89453125 row fails CFL at t=0.03, mid-step; the memo
    # still holds that step's start, so the moving row that stays builds its
    # lone run's 51 face arrays, plus the failing time once when it was
    # built before the failing row's
    g = Grid(n=256, half_width=8.0)
    m0 = forward.gaussian(g)
    moving = GeneratorSpec(LocalDiffusionSpec.constant(0.5), LevyMeasureSpec.fractional(1.9),
                           DriftSpec.perturbed_power(1.0, 1.5, 0.3))
    fast = GeneratorSpec(LocalDiffusionSpec.constant(0.5), LevyMeasureSpec.fractional(1.9),
                         DriftSpec.perturbed_power(1.0, 1.5, 26.89453125))
    clock = dict(t_final=0.1, dt=4e-3, eps_boundary=1.0)
    calls = spy_on_moving_w(monkeypatch)
    lone = forward.solve(m0, moving, **clock)
    assert sorted(t for _, t in calls) == step_grid_times(25, 4e-3)
    calls.clear()
    runs = forward.solve_stack(m0, [fast, moving] if failing_first else [moving, fast], **clock)
    failed, run = runs if failing_first else runs[::-1]
    assert isinstance(failed, forward.NumericalFailure) and "CFL violation at t=0.03:" in str(failed)
    assert len([t for drift, t in calls if drift is moving.drift]) == built
    assert_bitwise(run.final.values, lone.final.values)
    assert_bitwise(run.boundary_mass, lone.boundary_mass)
