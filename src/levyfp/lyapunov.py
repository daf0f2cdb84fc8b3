"""Lyapunov-side checkers: super-solution inequalities for bracket weights,
classification of weights by decay regime, and the decay-rate ODE.

Everything here is pointwise: weights are differentiated analytically and the
jump integral goes through shell quadrature for callables, so no periodic box
is involved and sample radii can sit far beyond any solver grid.

Only the rate ODE needs scipy, for its integrator and the quadrature of the
implicit time identity; ``solve_rate_ode`` imports it when called, so the
checkers and every other experiment load numpy alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .generators import GeneratorSpec, LevyMeasureSpec
from .rates import _linear_fit
from .weights import WeightFunction, bracket

__all__ = [
    "H_FORMS",
    "LyapunovReport",
    "RateOdeSolution",
    "check_weight_against_measure",
    "check_lemma_preconditions",
    "check_rate_ode_arguments",
    "generator_on_weight",
    "verify_lemma_lyap",
    "classify_weight",
    "h_model_function",
    "solve_rate_ode",
    "shell_quadrature_nodes",
    "levy_integral_callable",
]

# times besides t = 0 at which a time-dependent drift is probed
_DRIFT_PROBE_TIMES = (0.7, 1.9)
# sample radii of the super-solution inequality, before midpoint refinement
_LEMMA_RADII = np.concatenate([[0.0], np.geomspace(0.05, 80.0, 161)])


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
# generator action on weights


def check_weight_against_measure(w: WeightFunction, nu) -> None:
    """Refuse a weight the jump measure nu cannot integrate: with jumps a
    power weight needs k in (0, sigma) and an exponential weight none at all."""
    if not nu.is_active:
        return
    if w.kind == "power" and not 0.0 < w.k < nu.sigma:
        raise ValueError(f"{w.label} violates the moment constraint k in (0, sigma) required when a "
                         f"jump part is present: k={w.k:g}, sigma={nu.sigma:g}")
    if w.kind == "exponential":
        raise ValueError(f"{w.label} is not integrable against a jump measure with polynomial tails; "
                         f"exponential weights need a generator without jumps")


def generator_on_weight(g: GeneratorSpec, w: WeightFunction, xs: np.ndarray, t: float = 0.0) -> np.ndarray:
    """L^b[w](x) = -(lambda0 + Sigma^2(x)) w'' - I(x, [w]) + b(t, x) w' at xs.

    Derivatives are analytic; the jump integral uses shell quadrature plus an
    exact power-law tail beyond CALLABLE_Z_MAX, so weights with k close to
    sigma do not lose their slowly converging tail."""
    x = np.asarray(xs, dtype=float)
    out = -(g.diffusion.lambda0 + g.diffusion.sigma_squared(x)) * w.hess(x)
    out = out + np.asarray(g.drift(t, x), dtype=float) * w.grad(x)
    nu = g.levy
    if nu.is_active:
        check_weight_against_measure(w, nu)
        jump = levy_integral_callable(w, x, nu, d2fn=w.hess)
        if nu.kind == "fractional" and w.kind == "power":
            # beyond CALLABLE_Z_MAX the compensated difference is 2 z^k - 2 w(x)
            # up to O(x^2/z^2) relative, and the pure power density integrates exactly
            s, z_max = nu.sigma, CALLABLE_Z_MAX
            jump = jump + 2.0 * nu.lower * (
                z_max ** (w.k - s) / (s - w.k) - w(x) * z_max ** (-s) / s
            )
        out = out - jump
    return out


# ---------------------------------------------------------------------------
# Lyapunov inequality gate


def _lower_envelope(g: GeneratorSpec, w: WeightFunction, xs: np.ndarray) -> np.ndarray:
    """min over t of L^b[w](xs) at t = 0 and, for a moving drift, at
    _DRIFT_PROBE_TIMES: the inequalities checked on it are one-sided."""
    out = generator_on_weight(g, w, xs)
    if g.is_time_dependent:
        for t in _DRIFT_PROBE_TIMES:
            out = np.minimum(out, generator_on_weight(g, w, xs, t=t))
    return out


def _smallest_K(g: GeneratorSpec, beta: float, eps: float, radii: np.ndarray) -> float:
    w = WeightFunction.power(beta)
    x = np.concatenate([radii, -radii[radii > 0]])
    alpha, gamma = g.drift.alpha, g.drift.gamma
    rhs = (alpha - eps) * beta * w(x) / bracket(x) ** (2.0 - gamma)
    # rounding is monotone, so max over t of rhs - L_t equals rhs - min over t of L_t
    return max(0.0, float((rhs - _lower_envelope(g, w, x)).max()))


def check_lemma_preconditions(g: GeneratorSpec, beta: float, eps: float) -> None:
    """Refuse (beta, eps) outside the lemma's hypotheses for the generator g.
    Each message starts with the name of the argument it blames."""
    if beta < 0 or not np.isfinite(beta):
        raise ValueError(f"beta must be >= 0 and finite, got {beta}")
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if g.levy.is_active and beta >= g.levy.sigma:
        raise ValueError(f"beta < sigma is needed with a jump part for the super-solution inequality "
                         f"(<x>^beta against the jump tail): got beta={beta:g}, sigma={g.levy.sigma:g}")
    if g.levy.is_active and beta > 1.0 and g.drift.gamma <= 1.0:
        raise ValueError(f"beta > 1 with a jump part needs drift growth gamma > 1 to dominate the jump "
                         f"transport: got beta={beta:g}, gamma={g.drift.gamma:g}")


def verify_lemma_lyap(g: GeneratorSpec, beta: float, eps: float) -> tuple[bool, float]:
    """Smallest additive constant K closing the super-solution inequality

        L^b[<x>^beta] >= (alpha - eps) beta <x>^beta / <x>^{2-gamma} - K

    on _LEMMA_RADII (both signs), together with a verdict: K must be finite
    and stable under midpoint refinement of the radius set."""
    check_lemma_preconditions(g, beta, eps)
    if beta == 0.0:
        # <x>^0 = 1 closes it with K = 0; with jumps generator_on_weight refuses k = 0
        return True, 0.0
    radii = _LEMMA_RADII
    refined = np.unique(np.concatenate([radii, 0.5 * (radii[:-1] + radii[1:])]))
    k_coarse = _smallest_K(g, beta, eps, radii)
    k_fine = _smallest_K(g, beta, eps, refined)
    holds = bool(
        np.isfinite(k_fine) and k_fine - k_coarse <= 0.05 * max(1.0, abs(k_coarse))
    )
    return holds, float(k_fine)


# ---------------------------------------------------------------------------
# weight classification


@dataclass(frozen=True)
class LyapunovReport:
    """Measured generator-to-weight ratios and the regime they support."""

    weight: WeightFunction
    radii: np.ndarray
    ratio: np.ndarray
    classification: str  # "H1" | "H2" | "neither"
    omega0: float | None
    h_model: dict | None
    K_eps_table: dict

    def to_json(self) -> dict:
        d = {
            "weight": self.weight.label,
            "classification": self.classification,
            "K_eps_table": {f"{k:g}": v for k, v in self.K_eps_table.items()},
            "samples": {"radii": self.radii.tolist(), "ratio": self.ratio.tolist()},
        }
        if self.omega0 is not None:
            d["omega0"] = self.omega0
        if self.h_model is not None:
            d["h_model"] = self.h_model
        return d


def _default_radii(w: WeightFunction) -> np.ndarray:
    if w.kind == "exponential":
        # keep mu * <r>^k below the exp overflow threshold
        r_cap = min((280.0 / w.mu) ** (1.0 / w.k), 1e6)
        return np.geomspace(1.0, max(r_cap, 8.0), 121)
    return np.geomspace(1.0, 300.0, 121)


def _log_slope(logx: np.ndarray, logy: np.ndarray) -> tuple[float, float, float]:
    """LSQ slope/intercept of logy against logx (``rates._linear_fit``) plus
    the RMS residual."""
    slope, intercept = _linear_fit(logx, logy)
    res = logy - (slope * logx + intercept)
    return slope, intercept, float(np.sqrt(np.mean(res**2)))


def classify_weight(g: GeneratorSpec, w: WeightFunction) -> LyapunovReport:
    """Decide which decay regime the weight supports under the generator.

    The liminf of L^b[w]/w is approximated by the infimum over the outer
    quartile of the (geometric) radius ladder; the estimate must move by less
    than 10% when the band shrinks by half, otherwise the tail has not settled
    and the exponential regime is not claimed. Failing that, decreasing-h
    models (power in w, inverse power of log w) are fitted on the outer half
    and selected by residual; "neither" is a valid outcome."""
    radii = _default_radii(w)
    vals = np.minimum(_lower_envelope(g, w, radii), _lower_envelope(g, w, -radii))
    phi = w(radii)
    ratio = vals / phi

    def report(classification, omega0=None, h_model=None):
        table = {}
        if w.kind == "power":
            try:
                table = {e: verify_lemma_lyap(g, w.k, e)[1] for e in (0.1, 0.3, 0.5)}
            except ValueError:
                table = {}
        return LyapunovReport(
            weight=w, radii=radii, ratio=ratio, classification=classification,
            omega0=omega0, h_model=h_model, K_eps_table=table,
        )

    if not np.all(np.isfinite(ratio)):
        return report("neither")

    def band_inf(rs, values):
        cut = rs.size - max(2, rs.size // 4)
        return float(values[cut:].min())

    # a ratio still decaying at the edge puts its band infimum at the largest
    # radius, so the stability probe halves the radius range from above: a
    # settled liminf barely moves, a decaying one shifts by the decade ratio
    omega_full = band_inf(radii, ratio)
    keep = radii <= radii[-1] / 2.0
    omega_half = band_inf(radii[keep], ratio[keep]) if keep.sum() >= 8 else omega_full
    stable = abs(omega_full - omega_half) <= 0.1 * max(abs(omega_half), 1e-12)
    if omega_full > 1e-3 and stable:
        return report("H1", omega0=omega_full)

    # sub-exponential regime: L^b[w] must still blow up along the tail
    half = radii.size // 2
    tail_vals, tail_phi, tail_r = vals[half:], phi[half:], radii[half:]
    if np.any(tail_vals <= 0):
        return report("neither")
    grow_slope, _, _ = _log_slope(np.log(tail_r), np.log(tail_vals))
    if grow_slope < 0.05:
        return report("neither")

    candidates = []
    log_phi, log_ratio = np.log(tail_phi), np.log(ratio[half:])
    slope, intercept, res = _log_slope(log_phi, log_ratio)
    p = -slope
    if p > 0.01:
        candidates.append({"form": "power", "c": math.exp(intercept), "p": p, "residual": res})
    if w.kind == "exponential" and w.k > 0:
        q = (2.0 - g.drift.gamma) / w.k - 1.0
        if q > 0.01:
            # exponent pinned by (gamma, k); only the prefactor is fitted
            log_c = float(np.mean(log_ratio + q * np.log(log_phi)))
            res_q = float(np.sqrt(np.mean((log_ratio - log_c + q * np.log(log_phi)) ** 2)))
            candidates.append(
                {"form": "inverse-log", "c": math.exp(log_c), "q": q, "residual": res_q}
            )
    if not candidates:
        return report("neither")
    return report("H2", h_model=min(candidates, key=lambda m: m["residual"]))


H_FORMS = ("constant", "power", "inverse-log")


def h_model_function(model: dict):
    """Callable h(r) from a fitted or declared model dict; "constant" is the
    power form with p = 0, so c * r**-0.0 is c bit for bit."""
    form = model.get("form")
    if form not in H_FORMS:
        raise ValueError(f"unknown h model form {form!r}")
    c = float(model["c"])
    if form == "inverse-log":
        q = float(model["q"])
        return lambda r: c / np.log(np.asarray(r, dtype=float)) ** q
    p = float(model["p"]) if form == "power" else 0.0
    return lambda r: c * np.asarray(r, dtype=float) ** (-p)


# ---------------------------------------------------------------------------
# rate ODE


@dataclass(frozen=True)
class RateOdeSolution:
    """Recorded varpi trajectory and the worst implicit-identity residual."""

    times: np.ndarray
    varpi: np.ndarray
    max_implicit_residual: float


def check_rate_ode_arguments(h, L: float, theta: float, T: float, n_points: int) -> None:
    """Refuse what solve_rate_ode cannot integrate; h is probed on L times
    [1, 1e6] and must be positive and nonincreasing there. Needs no scipy."""
    if L <= 0:
        raise ValueError(f"L must be positive, got {L}")
    if not 0.0 < theta < 1.0:
        raise ValueError(f"theta must lie in (0, 1), got {theta}")
    if T <= 0:
        raise ValueError(f"T must be positive, got {T}")
    if n_points < 2:
        raise ValueError(f"need at least 2 recorded points, got {n_points}")
    # a probe that divides by log(1) = 0 or overflows is refused below, not warned about
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        hp = [float(h(r)) for r in L * np.geomspace(1.0, 1e6, 7)]
    if not all(math.isfinite(v) and v > 0 for v in hp):
        raise ValueError("h must be positive, got a nonpositive or non-finite probe value")
    if any(b - a > 1e-9 * abs(a) for a, b in zip(hp, hp[1:])):
        raise ValueError("h must be nonincreasing on its whole range")


def solve_rate_ode(h, L: float, theta: float, T: float, n_points: int = 201) -> RateOdeSolution:
    """Integrate varpi' = -varpi h(L varpi^{-1/(1-theta)}) / 2, varpi(0) = 1,
    by adaptive 4th/5th-order explicit Runge-Kutta, then cross-check the
    implicit time identity

        int_varpi^1 ds / (s h(L s^{-1/(1-theta)})) = t / 2

    at recorded times; a relative residual above 1e-6 is an error."""
    check_rate_ode_arguments(h, L, theta, T, n_points)
    from scipy.integrate import quad, solve_ivp

    inv = 1.0 / (1.0 - theta)

    def rhs(t, y):
        v = y[0]
        r = L * v ** (-inv)
        hv = float(h(r))
        if not np.isfinite(hv) or hv <= 0:
            raise ValueError(f"h must be positive, got h({r:g})={hv:g}")
        return [-0.5 * v * hv]

    times = np.linspace(0.0, T, n_points)
    sol = solve_ivp(
        rhs, (0.0, T), [1.0], method="RK45", t_eval=times,
        rtol=1e-11, atol=1e-16,
    )
    if not sol.success:
        raise RuntimeError(f"rate ODE integration failed: {sol.message}")
    varpi = sol.y[0]
    idx = np.unique(np.linspace(1, n_points - 1, 12).astype(int))
    worst = 0.0
    for i in idx:
        v_up = math.log(1.0 / varpi[i])
        integral = quad(
            lambda v: 1.0 / float(h(L * math.exp(v * inv))), 0.0, v_up,
            epsabs=1e-13, epsrel=1e-10, limit=400,
        )[0]
        worst = max(worst, abs(integral - 0.5 * times[i]) / max(0.5 * times[i], 1e-300))
    if worst > 1e-6:
        raise RuntimeError(
            f"rate ODE output violates the implicit time identity: relative "
            f"residual {worst:.3e} exceeds 1e-6"
        )
    return RateOdeSolution(times=times, varpi=varpi, max_implicit_residual=float(worst))
