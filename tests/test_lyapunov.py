import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levyfp.generators import DriftSpec, GeneratorSpec, LevyMeasureSpec, LocalDiffusionSpec
from levyfp.lyapunov import (
    classify_weight,
    h_model_function,
    solve_rate_ode,
    verify_lemma_lyap,
)
from levyfp.weights import WeightFunction, bracket

LOCAL = LocalDiffusionSpec.constant(1.0)


def ou_gen(lambda0=1.0, alpha=1.0):
    return GeneratorSpec(LocalDiffusionSpec.constant(lambda0), LevyMeasureSpec.none(), DriftSpec.ou(alpha))


def power_gen(gamma, alpha=1.0):
    return GeneratorSpec(LOCAL, LevyMeasureSpec.none(), DriftSpec.power(alpha, gamma))


def frac_gen(sigma=1.5, gamma=2.0):
    drift = DriftSpec.ou(1.0) if gamma == 2.0 else DriftSpec.power(1.0, gamma)
    return GeneratorSpec(LOCAL, LevyMeasureSpec.fractional(sigma), drift)


# ---------------------------------------------------------------------------
# super-solution inequality: smallest additive constant


def test_lemma_constant_matches_closed_form_ou():
    # phi = <x>: -lambda0*Lap(phi) = -1/<x>^3, drift term = x^2/<x>.  The
    # deficit (alpha-eps)<x> - x^2/<x> + 1/<x>^3 peaks at x = 0 with value
    # 2 - eps, so the smallest constant for eps = 0.5 is exactly 1.5.
    holds, K = verify_lemma_lyap(ou_gen(), beta=1.0, eps=0.5)
    assert holds
    xs = np.linspace(0.0, 100.0, 400001)
    s = bracket(xs)
    oracle = np.max(0.5 * s - xs**2 / s + 1.0 / s**3)
    assert K == pytest.approx(oracle, abs=1e-6)
    assert K == pytest.approx(1.5, abs=1e-9)


def test_lemma_beta_zero_trivial():
    # phi = 1 is annihilated by every term: 0 >= -K with K = 0
    holds, K = verify_lemma_lyap(ou_gen(), beta=0.0, eps=0.5)
    assert holds
    assert K == 0.0


def test_lemma_constant_nonincreasing_in_eps():
    generators = [ou_gen(), frac_gen(sigma=1.5)]
    betas = [1.0, 1.2]
    for g, beta in zip(generators, betas):
        table = [verify_lemma_lyap(g, beta=beta, eps=e)[1] for e in (0.1, 0.3, 0.5)]
        assert all(np.isfinite(table))
        assert table[0] >= table[1] >= table[2]


def test_lemma_ou_eps_table_values():
    # for the OU closed form K(eps) = 2 - eps on this sweep
    table = [verify_lemma_lyap(ou_gen(), beta=1.0, eps=e)[1] for e in (0.1, 0.3, 0.5)]
    np.testing.assert_allclose(table, [1.9, 1.7, 1.5], atol=1e-8)


def test_lemma_fractional_admissible_beta():
    holds, K = verify_lemma_lyap(frac_gen(sigma=1.5), beta=1.4, eps=0.5)
    assert holds
    assert np.isfinite(K) and K >= 0.0


def test_lemma_refuses_beta_at_or_above_sigma():
    with pytest.raises(ValueError, match="beta < sigma"):
        verify_lemma_lyap(frac_gen(sigma=1.5), beta=1.6, eps=0.5)
    with pytest.raises(ValueError, match="beta < sigma"):
        verify_lemma_lyap(frac_gen(sigma=1.5), beta=1.5, eps=0.5)


def test_lemma_refuses_large_beta_with_weak_drift_and_jumps():
    # beta > 1 with a jump part needs gamma > 1 for the drift to dominate
    g = GeneratorSpec(LOCAL, LevyMeasureSpec.fractional(1.8), DriftSpec.power(1.0, 1.0))
    with pytest.raises(ValueError, match="gamma > 1"):
        verify_lemma_lyap(g, beta=1.2, eps=0.5)


def test_lemma_argument_validation():
    with pytest.raises(ValueError):
        verify_lemma_lyap(ou_gen(), beta=-0.5, eps=0.5)
    with pytest.raises(ValueError):
        verify_lemma_lyap(ou_gen(), beta=1.0, eps=0.0)


@settings(max_examples=15, deadline=None)
@given(beta=st.floats(0.1, 1.4), eps=st.floats(0.05, 0.9))
def test_lemma_holds_across_ou_parameter_box(beta, eps):
    holds, K = verify_lemma_lyap(ou_gen(), beta=beta, eps=eps)
    assert holds
    assert K >= 0.0


# ---------------------------------------------------------------------------
# weight classification


def test_classify_ou_power_weight_is_h1():
    report = classify_weight(ou_gen(), WeightFunction.power(0.5))
    assert report.classification == "H1"
    # asymptotic ratio is k*alpha = 0.5; the floor from the module contract
    assert report.omega0 >= 0.5 * 0.5 * 1.0
    assert report.omega0 == pytest.approx(0.5, abs=0.02)


def test_classify_fractional_ou_power_weight_is_h1():
    report = classify_weight(frac_gen(sigma=1.5), WeightFunction.power(0.9))
    assert report.classification == "H1"
    assert report.omega0 == pytest.approx(0.9, abs=0.05)


def test_classify_small_power_weight_under_weak_drift_is_neither():
    # k = 0.3 < 2 - gamma = 0.5: the generator stays bounded on the weight
    report = classify_weight(power_gen(1.5), WeightFunction.power(0.3))
    assert report.classification == "neither"
    assert report.omega0 is None and report.h_model is None


def test_classify_large_power_weight_under_weak_drift_is_h2_power():
    report = classify_weight(power_gen(1.5), WeightFunction.power(0.8))
    assert report.classification == "H2"
    assert report.h_model["form"] == "power"
    # ratio ~ k*alpha*<x>^{gamma-2}, phi = <x>^k, so h(r) ~ r^{-(2-gamma)/k}
    assert report.h_model["p"] == pytest.approx((2.0 - 1.5) / 0.8, abs=0.05)
    assert report.h_model["residual"] < 0.05


def test_classify_exponential_weight_linear_drift_is_h1():
    report = classify_weight(power_gen(1.0), WeightFunction.exponential(0.2, 1.0))
    assert report.classification == "H1"
    # local balance: mu*(alpha - lambda0*mu) at k = 1
    assert report.omega0 == pytest.approx(0.2 * (1.0 - 0.2), abs=0.01)


@pytest.mark.parametrize("gamma,k", [(0.9, 0.5), (0.5, 0.4)])
def test_classify_exponential_weight_sublinear_drift_is_h2_inverse_log(gamma, k):
    report = classify_weight(power_gen(gamma), WeightFunction.exponential(0.5, k))
    assert report.classification == "H2"
    assert report.h_model["form"] == "inverse-log"
    # the exponent is pinned by the weight shape, only the level is fitted
    assert report.h_model["q"] == pytest.approx((2.0 - gamma) / k - 1.0, abs=1e-12)
    assert report.h_model["c"] > 0.0
    assert report.h_model["residual"] < 0.05


def test_classify_consistent_with_lemma_gate():
    # H1 for <x>^beta under gamma = 2 must coincide with a finite-constant,
    # positive-tail lemma verdict
    for beta in (0.3, 0.7, 1.0):
        report = classify_weight(ou_gen(), WeightFunction.power(beta))
        holds, K = verify_lemma_lyap(ou_gen(), beta=beta, eps=0.5)
        assert report.classification == "H1"
        assert holds and np.isfinite(K)
        assert report.omega0 > 0.0


def test_classify_report_serializes_to_json():
    report = classify_weight(ou_gen(), WeightFunction.power(0.5))
    payload = json.loads(json.dumps(report.to_json()))
    assert payload["weight"] == "pow0.5"
    assert payload["classification"] == "H1"
    assert payload["omega0"] == pytest.approx(report.omega0)
    assert set(payload["K_eps_table"]) == {"0.1", "0.3", "0.5"}
    vals = [payload["K_eps_table"][k] for k in ("0.1", "0.3", "0.5")]
    assert vals[0] >= vals[1] >= vals[2]
    assert len(payload["samples"]["radii"]) == len(payload["samples"]["ratio"])


def test_classify_h2_report_carries_h_model_not_omega0():
    report = classify_weight(power_gen(1.5), WeightFunction.power(0.8))
    payload = report.to_json()
    assert "h_model" in payload and "omega0" not in payload


def test_h_model_function_forms():
    r = np.array([10.0, 100.0])
    power = h_model_function({"form": "power", "c": 2.0, "p": 0.5})
    np.testing.assert_allclose(power(r), 2.0 * r**-0.5)
    invlog = h_model_function({"form": "inverse-log", "c": 3.0, "q": 2.0})
    np.testing.assert_allclose(invlog(r), 3.0 / np.log(r) ** 2)
    with pytest.raises(ValueError):
        h_model_function({"form": "spline"})


# ---------------------------------------------------------------------------
# rate ODE


def const_h(c):
    return lambda r: c * np.ones_like(np.asarray(r, dtype=float))


def test_rate_ode_constant_h_is_exponential():
    sol = solve_rate_ode(const_h(0.7), L=np.e, theta=0.5, T=10.0)
    np.testing.assert_allclose(sol.varpi, np.exp(-0.35 * sol.times), atol=1e-9)
    assert sol.max_implicit_residual < 1e-6


@pytest.mark.parametrize("p", [0.5, 1.0])
def test_rate_ode_power_h_matches_bernoulli_solution(p):
    L, theta = 2.0, 0.3
    sol = solve_rate_ode(lambda r: np.asarray(r, dtype=float) ** (-p), L=L, theta=theta, T=20.0)
    exact = (1.0 + p * sol.times * L ** (-p) / (2.0 * (1.0 - theta))) ** (-(1.0 - theta) / p)
    np.testing.assert_allclose(sol.varpi, exact, atol=1e-8)


def test_rate_ode_trajectory_invariants():
    sol = solve_rate_ode(const_h(0.3), L=1.0, theta=0.2, T=5.0)
    assert sol.varpi[0] == 1.0
    assert np.all(np.diff(sol.varpi) < 0)  # strictly decreasing
    assert np.all((sol.varpi > 0) & (sol.varpi <= 1.0))
    assert sol.max_implicit_residual < 1e-6
    # dense evaluator agrees with the recorded samples
    assert sol(sol.times[57]) == pytest.approx(sol.varpi[57], rel=1e-9)


def test_rate_ode_inverse_log_h_gives_stretched_profile():
    # for h = 1/log r, L = e the implicit identity reduces to
    # t/log(1/varpi) = 2 + log(1/varpi)/(1-theta), affine in log(1/varpi)
    theta = 0.5
    h = h_model_function({"form": "inverse-log", "c": 1.0, "q": 1.0})
    sol = solve_rate_ode(h, L=np.e, theta=theta, T=400.0, n_points=801)
    lam = np.log(1.0 / sol.varpi)
    mask = sol.varpi < 0.9
    lhs = sol.times[mask] / lam[mask]
    rhs = 2.0 + lam[mask] / (1.0 - theta)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-8)
    # late-time profile: -log varpi ~ sqrt((1-theta) t), slope 1/2 in log-log
    late = sol.times >= 100.0
    slope = np.polyfit(np.log(sol.times[late]), np.log(lam[late]), 1)[0]
    assert slope == pytest.approx(0.5, abs=0.1)


def test_rate_ode_rejects_bad_h():
    with pytest.raises(ValueError, match="positive"):
        solve_rate_ode(const_h(-1.0), L=1.0, theta=0.5, T=1.0)
    with pytest.raises(ValueError, match="nonincreasing"):
        solve_rate_ode(lambda r: np.log(np.asarray(r, dtype=float) + 1.0), L=1.0, theta=0.5, T=1.0)


def test_rate_ode_argument_validation():
    with pytest.raises(ValueError):
        solve_rate_ode(const_h(1.0), L=0.0, theta=0.5, T=1.0)
    with pytest.raises(ValueError):
        solve_rate_ode(const_h(1.0), L=1.0, theta=1.0, T=1.0)
    with pytest.raises(ValueError):
        solve_rate_ode(const_h(1.0), L=1.0, theta=0.5, T=0.0)
