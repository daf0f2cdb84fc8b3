import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levyfp.grids import Field, Grid
from levyfp.norms import inf_shift_norm, weighted_seminorm, weighted_tv_norm
from levyfp.weights import WeightFunction, bracket

GRID = Grid(256, 8.0)


def field(values):
    return Field(GRID, values)


# ---------------------------------------------------------------------------
# weights


def test_bracket_values():
    assert bracket(0.0) == 1.0
    assert bracket(1.0) == pytest.approx(np.sqrt(2.0))


def test_power_weight_basics():
    w = WeightFunction.power(0.5)
    assert w(0.0) == 1.0
    assert w(3.0) == pytest.approx(10.0**0.25)
    x = np.linspace(0, 5, 50)
    assert np.all(np.diff(w(x)) > 0)  # nondecreasing in |x|


def test_weight_derivatives_match_finite_differences():
    h1, h2 = 1e-6, 1e-4
    xs = np.array([-3.2, -0.7, 0.0, 0.4, 2.9])
    for w in (WeightFunction.power(0.9), WeightFunction.exponential(0.5, 1.0), WeightFunction.exponential(0.25, 2.0)):
        fd1 = (w(xs + h1) - w(xs - h1)) / (2 * h1)
        fd2 = (w(xs + h2) - 2 * w(xs) + w(xs - h2)) / h2**2
        np.testing.assert_allclose(w.grad(xs), fd1, rtol=1e-7, atol=1e-7)
        np.testing.assert_allclose(w.hess(xs), fd2, rtol=1e-5, atol=1e-6)


def test_weight_validation():
    with pytest.raises(ValueError):
        WeightFunction.power(-1.0)
    with pytest.raises(ValueError):
        WeightFunction.exponential(0.0, 1.0)
    with pytest.raises(ValueError):
        WeightFunction.exponential(0.5, -2.0)
    # non-finite numbers, as power refuses them
    for bad in (np.inf, -np.inf, np.nan):
        for mu, k in ((bad, 1.0), (1.0, bad)):
            with pytest.raises(ValueError, match="exponential weight needs finite mu > 0 and k > 0"):
                WeightFunction.exponential(mu, k)


# ---------------------------------------------------------------------------
# seminorm: oracle is an independent brute-force double loop


def brute_force_seminorm(u, phi):
    best = 0.0
    n = len(u)
    for i in range(n):
        for j in range(n):
            if i != j:
                best = max(best, abs(u[i] - u[j]) / (phi[i] + phi[j]))
    return best


def test_seminorm_matches_brute_force_oracle():
    rng = np.random.default_rng(7)
    g = Grid(64, 8.0)
    w = WeightFunction.power(0.5)
    phi = w(g.nodes)
    for _ in range(5):
        u = rng.normal(size=64)
        assert weighted_seminorm(Field(g, u), w) == pytest.approx(
            brute_force_seminorm(u, phi), rel=1e-14
        )


def test_seminorm_on_sin_with_unit_weight():
    # phi = 1: [u] = (max - min)/2; for sin over a full period that is 1
    w = WeightFunction.power(0.0)
    u = field(np.sin(np.pi * GRID.nodes / GRID.half_width))
    assert weighted_seminorm(u, w) == pytest.approx(1.0, abs=1e-6)


def test_seminorm_vanishes_on_constants():
    w = WeightFunction.power(0.5)
    assert weighted_seminorm(field(np.full(GRID.n, 3.7)), w) == 0.0


def test_seminorm_of_identity_under_linear_weight():
    # u = x, phi = <x>: |x - y| <= <x> + <y> with near-equality for x = -y large
    w = WeightFunction.power(1.0)
    u = field(GRID.nodes.copy())
    val = weighted_seminorm(u, w)
    assert 0.9 < val < 1.0


@settings(max_examples=25, deadline=None)
@given(
    shift=st.floats(-50, 50),
    scale=st.floats(0.01, 100),
    seed=st.integers(0, 2**32 - 1),
)
def test_seminorm_shift_invariance_and_homogeneity(shift, scale, seed):
    rng = np.random.default_rng(seed)
    u = rng.normal(size=GRID.n)
    w = WeightFunction.power(0.5)
    base = weighted_seminorm(field(u), w)
    shifted = weighted_seminorm(field(u + shift), w)
    scaled = weighted_seminorm(field(scale * u), w)
    assert shifted == pytest.approx(base, rel=1e-9, abs=1e-12)
    assert scaled == pytest.approx(scale * base, rel=1e-12)


# ---------------------------------------------------------------------------
# seminorm: the exhaustive O(N^2) pair scan is the oracle for the linear-time
# iteration, which must return the same float, not just a close one

ORACLE_WEIGHTS = (
    WeightFunction.power(0.5),
    WeightFunction.power(1.0),
    WeightFunction.exponential(0.25, 1.0),
    WeightFunction.power(0.0),
)


def pair_scan_seminorm(u, phi, chunk=512):
    """max |u_i - u_j| / (phi_i + phi_j) over all pairs, by row chunks."""
    best = 0.0
    for start in range(0, u.size, chunk):
        sl = slice(start, min(start + chunk, u.size))
        num = np.abs(u[sl, None] - u[None, :])
        den = phi[sl, None] + phi[None, :]
        best = max(best, float(np.max(num / den)))
    return best


def assert_matches_pair_scan(g, u, w):
    expected = pair_scan_seminorm(np.asarray(u, dtype=float), w(g.nodes))
    assert weighted_seminorm(Field(g, u), w) == expected


def oracle_fields(g, rng):
    x = g.nodes
    L = g.half_width
    yield rng.normal(size=g.n)
    yield rng.uniform(-1e3, 1e3, size=g.n)
    yield np.sin(np.pi * x / L) * np.exp(-x**2 / 8.0) + 0.1 * x
    yield np.cos(3 * np.pi * x / L) + 0.01 * x**2
    yield np.tanh(x)
    yield np.tanh(2.0 * (x - 1.0)) + 0.5


@pytest.mark.parametrize("n", [8, 64, 1024])
@pytest.mark.parametrize("w", ORACLE_WEIGHTS, ids=lambda w: w.label)
def test_seminorm_equals_pair_scan_on_random_and_smooth_fields(n, w):
    g = Grid(n, 16.0)
    rng = np.random.default_rng(1000 + n)
    for u in oracle_fields(g, rng):
        assert_matches_pair_scan(g, u, w)


@pytest.mark.parametrize("w", ORACLE_WEIGHTS, ids=lambda w: w.label)
def test_seminorm_equals_pair_scan_on_near_ties(w):
    # u = +-c*phi + const makes every (+, -) pair tie at ratio c; a 1e-15
    # relative perturbation leaves many pairs within rounding of the best
    rng = np.random.default_rng(29)
    for n in (8, 64, 1024):
        g = Grid(n, 16.0)
        phi = w(g.nodes)
        for _ in range(25):
            c = rng.uniform(0.1, 10.0)
            const = rng.uniform(-100.0, 100.0)
            signs = rng.choice([-1.0, 1.0], size=n)
            u = signs * c * phi + const
            u = u * (1.0 + 1e-15 * rng.standard_normal(n))
            assert_matches_pair_scan(g, u, w)


@pytest.mark.parametrize("w", ORACLE_WEIGHTS, ids=lambda w: w.label)
def test_seminorm_of_constants_is_exactly_zero(w):
    for n in (8, 1024):
        g = Grid(n, 16.0)
        for c in (0.0, -2.5, 3.7, 1e12):
            assert weighted_seminorm(Field(g, np.full(n, c)), w) == 0.0


def test_seminorm_all_tie_field_runs_chunked_final_pass(monkeypatch):
    # phi = 1, u = +-1: every (+1, -1) pair attains the maximum 1, so the
    # final pass scans N/2 x N/2 pairs, more rows than one chunk holds
    import levyfp.norms as norms

    g = Grid(2048, 16.0)
    u = np.where(np.arange(g.n) % 2 == 0, 1.0, -1.0)
    w = WeightFunction.power(0.0)
    seen = []
    original = norms._max_pair_ratio

    def spy(u, phi, rows, cols):
        seen.append((rows.size, cols.size))
        return original(u, phi, rows, cols)

    monkeypatch.setattr(norms, "_max_pair_ratio", spy)
    assert weighted_seminorm(Field(g, u), w) == pair_scan_seminorm(u, w(g.nodes)) == 1.0
    assert seen == [(g.n // 2, g.n // 2)]
    assert g.n // 2 > norms._PAIR_CHUNK


@pytest.mark.parametrize("mu", [3.0, 800.0])
def test_seminorm_equals_pair_scan_when_weight_overflows(mu):
    # exp(mu <x>^2) is inf near the box edges (mu = 3) or on every node
    # (mu = 800); pairs with an infinite weight have ratio 0 in the scan
    g = Grid(64, 16.0)
    w = WeightFunction.exponential(mu, 2.0)
    rng = np.random.default_rng(3)
    with np.errstate(over="ignore"):
        assert np.isinf(w(g.nodes)).any()
        for u in oracle_fields(g, rng):
            assert_matches_pair_scan(g, u, w)


@settings(max_examples=200, deadline=None)
@given(
    n=st.sampled_from([8, 16, 32]),
    w=st.sampled_from(ORACLE_WEIGHTS),
    data=st.data(),
)
def test_seminorm_equals_pair_scan_property(n, w, data):
    g = Grid(n, 4.0)
    values = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
    u = np.array(data.draw(st.lists(values, min_size=n, max_size=n)))
    assert_matches_pair_scan(g, u, w)


# ---------------------------------------------------------------------------
# inf-shift norm: dense c-scan oracle


def dense_shift_scan(u, phi, c_grid):
    return min(np.max(np.abs(u + c) / phi) for c in c_grid)


def test_inf_shift_equals_seminorm():
    rng = np.random.default_rng(11)
    w = WeightFunction.power(0.5)
    for _ in range(20):
        u = field(rng.normal(size=GRID.n) * 3.0)
        m = weighted_seminorm(u, w)
        v = inf_shift_norm(u, w)
        assert v == pytest.approx(m, rel=1e-10)


def test_inf_shift_beats_dense_scan():
    rng = np.random.default_rng(13)
    w = WeightFunction.exponential(0.25, 1.0)
    u = field(rng.normal(size=GRID.n))
    v = inf_shift_norm(u, w)
    c_grid = np.linspace(-3, 3, 20001)
    scan = dense_shift_scan(u.values, w(GRID.nodes), c_grid)
    assert v <= scan + 1e-9
    assert v == pytest.approx(scan, abs=1e-3)


def test_inf_shift_norm_on_plus_minus_one():
    # u = +-1 alternating, phi = 1: best shift is 0 and the norm is 1
    u = field(np.where(np.arange(GRID.n) % 2 == 0, 1.0, -1.0))
    w = WeightFunction.power(0.0)
    assert inf_shift_norm(u, w) == pytest.approx(1.0, rel=1e-12)


# ---------------------------------------------------------------------------
# weighted TV norm: Gaussian moment oracle


def test_weighted_tv_gaussian_second_moment():
    g = Grid(1024, 16.0)
    x = g.nodes
    m = Field(g, np.exp(-x**2 / 2) / np.sqrt(2 * np.pi))
    w = WeightFunction.power(2.0)
    # E<X>^2 = 1 + E X^2 = 2 for a standard Gaussian
    assert weighted_tv_norm(m.values, w(x), g.dx) == pytest.approx(2.0, abs=1e-10)
    assert weighted_tv_norm(m.values, WeightFunction.power(0.0)(x), g.dx) == pytest.approx(1.0, abs=1e-12)


def test_weighted_tv_sign_insensitive():
    g = Grid(256, 8.0)
    x = g.nodes
    m = Field(g, np.exp(-x**2 / 2) / np.sqrt(2 * np.pi))
    w = WeightFunction.power(1.0)
    assert weighted_tv_norm(-m.values, w(x), g.dx) == pytest.approx(weighted_tv_norm(m.values, w(x), g.dx))
