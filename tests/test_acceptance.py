"""Acceptance runs: one test per shipping criterion, one PASS/FAIL line each.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines
next to pytest's verdicts.  Total runtime is a few minutes, dominated by the
million-particle law check (AC-3).
"""

import csv
import json
import os

import numpy as np
import pytest

from levyfp.adjoint import (
    duality_residual,
    oscillation_trace,
    solve_backward,
    tanh_profile,
)
from levyfp.cli import main as cli_main
from levyfp.forward import gaussian, gaussian_difference, solve, stationary_solve
from levyfp.generators import (
    DriftSpec,
    GeneratorSpec,
    LevyMeasureSpec,
    LocalDiffusionSpec,
)
from levyfp.grids import Field, Grid
from levyfp.lyapunov import (
    classify_weight,
    h_model_function,
    solve_rate_ode,
    verify_lemma_lyap,
)
from levyfp.norms import inf_shift_norm, weighted_seminorm
from levyfp.particles import (
    empirical_cf,
    ensemble_at,
    reflection_coupling_run,
    simulate,
)
from levyfp.rates import (
    fit_exponential,
    fit_stretched,
    predicted_q,
    window_shift_stability,
)
from levyfp.weights import WeightFunction

G = Grid(1024, 16.0)
W05 = WeightFunction.power(0.5)


def _report(num: int, ok: bool, detail: str) -> None:
    line = f"AC-{num} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line, flush=True)
    assert ok, line


def _local_ou() -> GeneratorSpec:
    return GeneratorSpec(
        LocalDiffusionSpec.constant(1.0), LevyMeasureSpec.none(), DriftSpec.ou(1.0)
    )


# ---------------------------------------------------------------------------
# AC-1: driftless solver output at t=1 against the exact Fourier multiplier


def test_ac01_exact_semigroup():
    t_final = 1.0
    errs = {}
    for sigma in (0.8, 1.5, 2.0):
        if sigma == 2.0:
            spec = GeneratorSpec(
                LocalDiffusionSpec.constant(1.0), LevyMeasureSpec.none(), DriftSpec.none()
            )
            symbol = G.wavenumber_magnitude**2
        else:
            spec = GeneratorSpec(
                LocalDiffusionSpec.constant(0.0),
                LevyMeasureSpec.fractional(sigma),
                DriftSpec.none(),
            )
            symbol = G.wavenumber_magnitude**sigma
        m0 = gaussian(G)
        run = solve(m0, spec, t_final=t_final, dt=0.01, eps_boundary=0.05,
                    record_every=10**9)
        exact = np.real(np.fft.ifft(np.fft.fft(m0.values) * np.exp(-t_final * symbol)))
        errs[sigma] = float(np.abs(run.final.values - exact).max())
    ok = all(e <= 1e-8 for e in errs.values())
    _report(1, ok, "sup err vs Fourier kernel at t=1: "
            + ", ".join(f"sigma={s:g}: {e:.2e}" for s, e in errs.items()) + " (tol 1e-8)")


# ---------------------------------------------------------------------------
# AC-2: local OU variance trajectory and stationary profile


def test_ac02_local_ou_oracle():
    spec = _local_ou()
    m0 = gaussian(G, std=2.0)
    v0 = float(np.sum(G.nodes**2 * m0.values) * G.dx)
    snaps = tuple(0.25 * i for i in range(1, 13))
    run = solve(m0, spec, t_final=3.0, dt=1e-3, record_every=10**9,
                snapshot_times=snaps)
    var_err = 0.0
    for snap in run.snapshots:
        var = float(np.sum(G.nodes**2 * snap.values) * G.dx)
        pred = 1.0 + (v0 - 1.0) * np.exp(-2.0 * snap.t)
        var_err = max(var_err, abs(var - pred))

    rho, _ = stationary_solve(spec, G, dt=2e-3)
    norm = np.exp(-0.5 * G.nodes**2) / np.sqrt(2.0 * np.pi)
    stat_err = float(np.abs(rho.values - norm).max())

    ok = var_err <= 1e-3 and stat_err <= 1e-4
    _report(2, ok, f"variance err {var_err:.2e} (tol 1e-3), "
            f"stationary sup err {stat_err:.2e} (tol 1e-4)")


# ---------------------------------------------------------------------------
# AC-3: fractional OU stationary law, grid transform and particle ECF


def test_ac03_fractional_ou_stationary_law():
    spec = GeneratorSpec(
        LocalDiffusionSpec.constant(0.0), LevyMeasureSpec.fractional(1.5), DriftSpec.ou(1.0)
    )
    xi = np.linspace(-8.0, 8.0, 161)
    target = np.exp(-np.abs(xi) ** 1.5 / 1.5)

    # wider box than default: the sigma=1.5 tails carry O(L^{-1.5}) mass and
    # the transform inherits the truncation error
    g3 = Grid(2048, 32.0)
    rho, _ = stationary_solve(spec, g3, dt=1.5e-3, eps_boundary=0.05)
    cf = np.array([np.sum(rho.values * np.cos(v * g3.nodes)) * g3.dx for v in xi])
    grid_err = float(np.abs(cf - target).max())

    ens = ensemble_at(0.0, 1_000_000, seed=11)
    run = simulate(ens, spec, dt=4e-3, t_final=5.0, record_every=10**9)
    ecf = empirical_cf(run.final, xi)
    particle_err = float(np.abs(ecf - target).max())

    ok = grid_err <= 1e-2 and particle_err <= 5e-3
    _report(3, ok, f"stationary transform: grid sup err {grid_err:.2e} (tol 1e-2), "
            f"particle ECF err {particle_err:.2e} at Np=1e6 (tol 5e-3)")


# ---------------------------------------------------------------------------
# AC-4: exponential regime, zero-average data, both generators


def test_ac04_exponential_regime():
    m0 = gaussian_difference(G, center1=-1.0, std1=1.0, center2=1.0, std2=1.0)
    results = {}
    for name, levy in (("sigma=2", LevyMeasureSpec.none()),
                       ("fractional sigma=1.5", LevyMeasureSpec.fractional(1.5))):
        spec = GeneratorSpec(LocalDiffusionSpec.constant(1.0), levy, DriftSpec.ou(1.0))
        run = solve(m0, spec, t_final=30.0, dt=3e-3, eps_boundary=0.05,
                    record_every=100, record_weights={"k": W05})
        rep = window_shift_stability(fit_exponential, run.times,
                                     run.weighted_norms["k"], window=(6.0, 30.0))
        results[name] = (rep["fit"].params["omega"], rep["fit"].r2, rep["max_rel_change"])
    ok = all(om > 0 and r2 >= 0.99 and shift <= 0.15 for om, r2, shift in results.values())
    _report(4, ok, "window [6,30]: " + "; ".join(
        f"{n}: omega={om:.3f}, R2={r2:.5f}, shift {shift:.1%}"
        for n, (om, r2, shift) in results.items()) + " (need omega>0, R2>=0.99, shift<=15%)")


# ---------------------------------------------------------------------------
# AC-5 + AC-13 share one serial sweep run


_SWEEP_CONFIG = {
    "experiment": "forward-decay",
    "grid.n": 256,
    "grid.half_width": 12.0,
    "initial.kind": "gaussian-difference",
    "time.dt": 0.002,
    "time.t_final": 3.0,
    "time.stride": 25,
    "weights": ["pow0.5"],
    "solver.eps_boundary": 0.05,
    "fit.model": "power",
    "fit.t_lo": 1.0,
    "fit.t_hi": 3.0,
    "seed": 3,
    "sweep.gamma": [1.2, 1.5, 1.8],
    "sweep.sigma": [2.0, 1.5],
    "sweep.k": [0.2],
    "sweep.kbar": [0.7],
}


def _run_sweep(root, workers: int):
    out = root / f"run_w{workers}"
    cfg = dict(_SWEEP_CONFIG)
    cfg["output.dir"] = str(out)
    path = root / f"sweep_w{workers}.json"
    path.write_text(json.dumps(cfg))
    code = cli_main(["sweep", str(path), "--workers", str(workers)])
    return code, out


@pytest.fixture(scope="module")
def serial_sweep(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance_sweep")
    code, out = _run_sweep(root, 1)
    return root, code, out


def test_ac05_polynomial_sweep(serial_sweep):
    _, code, out = serial_sweep
    assert code == 0
    with open(out / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6
    checks = []
    ok = True
    for row in rows:
        if row["status"] != "ok":
            ok = False
            checks.append(f"({row['gamma']},{row['sigma']}): {row['status']}")
            continue
        fitted = float(row["fitted_exponent"])
        pred = predicted_q(float(row["k"]), float(row["kbar"]), float(row["gamma"]))
        r2 = float(row["r2"])
        good = fitted >= pred - 0.2 and r2 >= 0.98
        ok = ok and good
        checks.append(f"({row['gamma']},{row['sigma']}): q={fitted:.2f}>={pred - 0.2:.2f}, R2={r2:.4f}")
    _report(5, ok, "6-cell sweep, window [1,3]: " + "; ".join(checks)
            + " (need fitted>=predicted-0.2, R2>=0.98)")


# ---------------------------------------------------------------------------
# AC-6: forward/backward pairing gap and its first-order decay in dt


def test_ac06_duality():
    spec = GeneratorSpec(
        LocalDiffusionSpec.constant(1.0), LevyMeasureSpec.fractional(1.5), DriftSpec.ou(1.0)
    )
    xi = tanh_profile(G)
    residuals = {}
    for dt in (1e-3, 5e-4):
        fw = solve(gaussian(G), spec, t_final=2.0, dt=dt, eps_boundary=0.05,
                   limiter="off", record_every=10**9)
        residuals[dt] = duality_residual(fw, xi).normalized
    ratio = residuals[5e-4] / residuals[1e-3]
    ok = residuals[1e-3] <= 5e-3 and 0.4 <= ratio <= 0.6
    _report(6, ok, f"normalized residual {residuals[1e-3]:.2e} at dt=1e-3 (tol 5e-3), "
            f"halving ratio {ratio:.3f} (need 0.4..0.6)")


# ---------------------------------------------------------------------------
# AC-7: seminorm equals the shift-infimum norm on random fields


def test_ac07_seminorm_shift_identity():
    g = Grid(256, 12.0)
    rng = np.random.default_rng(20260816)
    weights = [WeightFunction.power(0.5), WeightFunction.power(1.0),
               WeightFunction.exponential(0.5, 1.0)]
    worst = 0.0
    for _ in range(100):
        smooth = np.real(np.fft.ifft(
            np.fft.fft(rng.normal(size=g.n)) * np.exp(-0.05 * g.wavenumber_magnitude**2)))
        u = Field(g, rng.normal(size=g.n) + 3.0 * smooth + 5.0 * rng.normal())
        for w in weights:
            a = weighted_seminorm(u, w)
            b = inf_shift_norm(u, w)
            worst = max(worst, abs(a - b) / max(abs(b), 1e-300))
    ok = worst <= 1e-10
    _report(7, ok, f"worst relative gap over 100 fields x 3 weights: {worst:.2e} (tol 1e-10)")


# ---------------------------------------------------------------------------
# AC-8: super-solution gate and weight classification


def test_ac08_lyapunov_gate():
    frac_ou = GeneratorSpec(
        LocalDiffusionSpec.constant(1.0), LevyMeasureSpec.fractional(1.5), DriftSpec.ou(1.0)
    )
    holds, k_eps = verify_lemma_lyap(frac_ou, beta=0.9, eps=0.5)

    with pytest.raises(ValueError, match="beta < sigma"):
        verify_lemma_lyap(frac_ou, beta=1.6, eps=0.5)

    weak = GeneratorSpec(
        LocalDiffusionSpec.constant(1.0), LevyMeasureSpec.none(), DriftSpec.power(1.0, 1.5)
    )
    neither = classify_weight(weak, WeightFunction.power(0.3)).classification
    h1 = classify_weight(_local_ou(), W05)

    ok = (holds and np.isfinite(k_eps) and neither == "neither"
          and h1.classification == "H1" and h1.omega0 > 0)
    _report(8, ok, f"lemma holds with K_eps={k_eps:.3f} (beta=0.9), refuses beta=1.6; "
            f"k=0.3 under gamma=1.5 -> {neither}; OU k=0.5 -> {h1.classification} "
            f"(omega0={h1.omega0:.3f})")


# ---------------------------------------------------------------------------
# AC-9: rate ODE against the closed-form Bernoulli solution


def test_ac09_rate_ode_bernoulli():
    L, theta, T = 2.0, 0.3, 20.0
    worst_sol, worst_impl = 0.0, 0.0
    for p in (0.5, 1.0):
        sol = solve_rate_ode(lambda r, p=p: r**-p, L=L, theta=theta, T=T, n_points=401)
        exact = (1.0 + p * sol.times * L**-p / (2.0 * (1.0 - theta))) ** (-(1.0 - theta) / p)
        worst_sol = max(worst_sol, float(np.abs(sol.varpi / exact - 1.0).max()))
        worst_impl = max(worst_impl, sol.max_implicit_residual)
    ok = worst_sol <= 1e-8 and worst_impl <= 1e-6
    _report(9, ok, f"Bernoulli closed form rel err {worst_sol:.2e} (tol 1e-8), "
            f"implicit identity residual {worst_impl:.2e} (tol 1e-6)")


# ---------------------------------------------------------------------------
# AC-10: stretched regime through the reduced rate ODE


def test_ac10_stretched_regime():
    gamma, k = 0.5, 1.0
    # the literal weight (mu=0.5, k=1) fails the regime test under this weak
    # drift: the diffusion term mu^2 |x|^{2k-2} dominates mu |x|^{gamma+k-2},
    # so the series comes from the reduced ODE with the tail exponent
    # q = (2-gamma)/k - 1 instead
    weak = GeneratorSpec(
        LocalDiffusionSpec.constant(1.0), LevyMeasureSpec.none(), DriftSpec.power(1.0, gamma)
    )
    literal = classify_weight(weak, WeightFunction.exponential(0.5, 1.0)).classification
    q = (2.0 - gamma) / k - 1.0
    sol = solve_rate_ode(h_model_function({"form": "inverse-log", "c": 1.0, "q": q}),
                         L=float(np.e), theta=0.5, T=40.0, n_points=801)
    fit = fit_stretched(sol.times, sol.varpi, window=(5.0, 40.0))
    beta_s = fit.params["beta_s"]
    target = k / (2.0 - gamma)
    ok = abs(beta_s - target) <= 0.15
    _report(10, ok, f"theta-reduced series (literal weight classifies '{literal}'): "
            f"beta_s={beta_s:.4f} vs k/(2-gamma)={target:.4f} (tol 0.15), R2={fit.r2:.5f}")


# ---------------------------------------------------------------------------
# AC-11: backward oscillation decay and its bounded-perturbation stability


def test_ac11_adjoint_oscillation():
    xi = tanh_profile(G)
    s_final = 20.0
    fits = {}
    mono = True
    for name, drift in (("base", DriftSpec.ou(1.0)), ("perturbed", DriftSpec.perturbed_power(1.0, 2.0, 0.3))):
        spec = GeneratorSpec(LocalDiffusionSpec.constant(0.0),
                             LevyMeasureSpec.fractional(1.5), drift)
        run = solve_backward(xi, spec, s_final=s_final, dt=1e-3, record_every=50)
        trace = oscillation_trace(run, W05)
        tail = run.times >= 1.0
        mono = mono and bool(np.all(np.diff(trace[tail]) <= 1e-9 * trace[tail][0]))
        fits[name] = fit_exponential(run.times, trace, window=(8.0, 20.0)).params["omega"]
    rel = abs(fits["perturbed"] - fits["base"]) / fits["base"]
    ok = mono and fits["base"] > 0 and fits["perturbed"] > 0 and rel < 0.5
    _report(11, ok, f"eventually decreasing={mono}; rate {fits['base']:.3f} -> "
            f"{fits['perturbed']:.3f} under A=0.3 sin(x+t), change {rel:.1%} (need <50%, both >0)")


# ---------------------------------------------------------------------------
# AC-12: reflection coupling decay, ensemble-size stability


def test_ac12_reflection_coupling():
    spec = _local_ou()
    rates = {}
    mono = True
    for n_pairs in (10_000, 40_000):
        cr = reflection_coupling_run(spec, -1.0, 1.0, dt=2e-3, t_final=4.0,
                                     n_pairs=n_pairs, seed=7, eps_couple=0.05,
                                     record_every=10)
        frac = cr.uncoupled_fraction
        mono = mono and bool(np.all(np.diff(frac) <= 0))
        pos = frac > 0
        rates[n_pairs] = fit_exponential(cr.times[pos], frac[pos]).params["omega"]
    rel = abs(rates[40_000] - rates[10_000]) / rates[40_000]
    ok = mono and all(r > 0 for r in rates.values()) and rel <= 0.15
    _report(12, ok, f"never increasing={mono}; rates Np=1e4: {rates[10_000]:.3f}, "
            f"Np=4e4: {rates[40_000]:.3f}, spread {rel:.1%} (need <=15%)")


# ---------------------------------------------------------------------------
# AC-13: worker count must not leak into any CSV byte


def test_ac13_determinism(serial_sweep):
    root, code, serial_out = serial_sweep
    assert code == 0
    workers = max(os.cpu_count() or 2, 2)
    code_par, par_out = _run_sweep(root, workers)
    assert code_par == 0

    def csv_map(base):
        found = {}
        for dirpath, _, names in os.walk(base):
            for name in names:
                if name.endswith(".csv"):
                    full = os.path.join(dirpath, name)
                    found[os.path.relpath(full, base)] = open(full, "rb").read()
        return found

    a, b = csv_map(serial_out), csv_map(par_out)
    same_files = sorted(a) == sorted(b)
    identical = same_files and all(a[rel] == b[rel] for rel in a)
    ok = identical and len(a) >= 7
    _report(13, ok, f"{len(a)} CSVs byte-identical across 1 vs {workers} workers: {identical}")
