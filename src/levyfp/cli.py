"""Experiment runner: `levyfp run|sweep|validate <config.json>`.

Exit codes partition failures for CI: 0 success, 2 validation error (the
message names the violated constraint), 3 numerical failure (CFL, boundary
leakage, blowup) with a machine-readable failure.json.  All emitted floats
carry 17 significant digits and CSVs use `\\n` endings with a mandatory
header, so reruns with the same config and seed are byte-identical.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import os
import sys
from pathlib import Path

import numpy as np

from .adjoint import duality_residual, oscillation_trace, solve_backward
from .config import (
    ConfigError,
    ExperimentConfig,
    canonical_json,
    config_hash,
    format_float,
    load_config,
    parse_config,
)
from .forward import NumericalFailure, solve, solve_stack, stationary_solve
from .lyapunov import classify_weight, solve_rate_ode, verify_lemma_lyap
from .particles import (
    ParticleEnsemble,
    ensemble_at,
    ensemble_from_density,
    reflection_coupling_run,
    simulate,
)
from .rates import FITTERS, predicted_q, window_shift_stability

__all__ = ["main"]


# ---------------------------------------------------------------------------
# deterministic artifact writers


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format_float(float(value))


def write_csv(path, header, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        if len(row) != len(header):
            raise ValueError(f"row width {len(row)} does not match header width {len(header)}")
        lines.append(",".join(_cell(v) for v in row))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(canonical_json(obj) + "\n")


def _fit_series(cfg: ExperimentConfig, outdir: Path, times, series: dict, prefix: str = "") -> dict:
    """Fit each labelled series (column prefix + label) per config, with its window-shift
    stability report; write fit.json if any fit ran. A fit that fails is recorded as a result."""
    model = cfg["fit.model"]
    if model == "none" or not series:
        return dict.fromkeys(series)
    window = None if cfg["fit.t_lo"] is None else (cfg["fit.t_lo"], cfg["fit.t_hi"])
    fits = {}
    for lab, values in series.items():
        try:
            report = window_shift_stability(FITTERS[model], times, values, window=window,
                                            transient_frac=cfg["fit.transient_frac"],
                                            series_source=prefix + lab)
        except ValueError as exc:
            fits[lab] = {"error": str(exc)}
            continue
        fits[lab] = {
            "fit": report["fit"].to_json(),
            "shifted_exponents": report["shifted_exponents"],
            "max_rel_change": report["max_rel_change"],
        }
    write_json(outdir / "fit.json", fits)
    return fits


# ---------------------------------------------------------------------------
# experiments


def _solver_kwargs(cfg: ExperimentConfig) -> dict:
    kwargs = {"limiter": cfg["solver.limiter"]}
    if cfg["solver.eps_boundary"] is not None:
        kwargs["eps_boundary"] = cfg["solver.eps_boundary"]
    return kwargs


def _run_forward_decay(cfg: ExperimentConfig, outdir: Path) -> dict:
    run = solve(
        cfg.initial,
        cfg.generator,
        cfg["time.t_final"],
        cfg["time.dt"],
        record_every=cfg["time.stride"],
        record_weights=cfg.weights,
        **_solver_kwargs(cfg),
    )
    return _forward_decay_outputs(cfg, outdir, run)


def _forward_decay_outputs(cfg: ExperimentConfig, outdir: Path, run) -> dict:
    """series.csv, fit.json and the summary of a forward-decay run."""
    labels = list(cfg.weights)
    header = ["t", "mass", "min_value", "boundary_mass"] + [f"norm_{lab}" for lab in labels]
    cols = [run.times, run.mass, run.min_value, run.boundary_mass]
    cols += [run.weighted_norms[lab] for lab in labels]
    write_csv(outdir / "series.csv", header, list(zip(*cols)))
    return {
        "t_final": float(run.times[-1]),
        "mass_initial": float(run.mass[0]),
        "mass_final": float(run.mass[-1]),
        "min_value": float(run.min_value.min()),
        "boundary_mass_max": float(run.boundary_mass.max()),
        "fits": _fit_series(cfg, outdir, run.times, run.weighted_norms, "norm_"),
    }


def _run_adjoint_oscillation(cfg: ExperimentConfig, outdir: Path) -> dict:
    run = solve_backward(
        cfg.terminal,
        cfg.generator,
        cfg["time.t_final"],
        cfg["time.dt"],
        record_every=cfg["time.stride"],
    )
    labels = list(cfg.weights)
    traces = {lab: oscillation_trace(run, w) for lab, w in cfg.weights.items()}
    header = ["s", "sup_norm"] + [f"osc_{lab}" for lab in labels]
    cols = [run.times, run.sup_norm] + [traces[lab] for lab in labels]
    write_csv(outdir / "series.csv", header, list(zip(*cols)))
    return {
        "s_final": float(run.times[-1]),
        "sup_norm_final": float(run.sup_norm[-1]),
        "fits": _fit_series(cfg, outdir, run.times, traces, "osc_"),
    }


def _run_duality_check(cfg: ExperimentConfig, outdir: Path) -> dict:
    fw = solve(
        cfg.initial,
        cfg.generator,
        cfg["time.t_final"],
        cfg["time.dt"],
        record_every=cfg["time.stride"],
        **_solver_kwargs(cfg),
    )
    payload = dataclasses.asdict(duality_residual(fw, cfg.terminal))
    write_json(outdir / "duality.json", payload)
    return payload


def _start_ensemble(cfg: ExperimentConfig) -> ParticleEnsemble:
    n, seed = cfg["particles.n"], cfg["seed"]
    if cfg["particles.source"] == "initial":
        return ensemble_from_density(cfg.initial, n, seed=seed)
    return ensemble_at(cfg["particles.x0"], n, seed=seed)


def _run_particles(cfg: ExperimentConfig, outdir: Path) -> dict:
    run = simulate(
        _start_ensemble(cfg),
        cfg.generator,
        cfg["time.dt"],
        cfg["time.t_final"],
        record_every=cfg["time.stride"],
        moment_weights=cfg.weights,
    )
    labels = list(cfg.weights)
    header = ["t"] + [f"moment_{lab}" for lab in labels]
    cols = [run.times] + [run.moments[lab] for lab in labels]
    write_csv(outdir / "series.csv", header, list(zip(*cols)))
    return {
        "n_particles": cfg["particles.n"],
        "t_final": float(run.times[-1]),
        "final_moments": {lab: float(run.moments[lab][-1]) for lab in labels},
        **_cap_excess_entry(run.cap_excess),
    }


def _cap_excess_entry(cap_excess) -> dict:
    """The Monte Carlo truncation a tempered run accepted; nothing otherwise,
    so that other summaries keep their bytes."""
    return {} if cap_excess is None else {"tempered_cap_excess": cap_excess}


def _run_coupling(cfg: ExperimentConfig, outdir: Path) -> dict:
    run = reflection_coupling_run(
        cfg.generator,
        cfg["coupling.x0"],
        cfg["coupling.y0"],
        cfg["time.dt"],
        cfg["time.t_final"],
        cfg["coupling.n_pairs"],
        seed=cfg["seed"],
        eps_couple=cfg["coupling.eps"],
        record_every=cfg["time.stride"],
    )
    write_csv(
        outdir / "series.csv",
        ["t", "uncoupled_fraction"],
        list(zip(run.times, run.uncoupled_fraction)),
    )
    # the fraction hits exact zero once every pair meets; fit the positive part
    positive = run.uncoupled_fraction > 0.0
    series = {"uncoupled_fraction": run.uncoupled_fraction[positive]}
    return {
        "n_pairs": cfg["coupling.n_pairs"],
        "final_uncoupled_fraction": float(run.uncoupled_fraction[-1]),
        "fits": _fit_series(cfg, outdir, run.times[positive], series),
        **_cap_excess_entry(run.cap_excess),
    }


def _run_lyapunov_report(cfg: ExperimentConfig, outdir: Path) -> dict:
    reports = {lab: classify_weight(cfg.generator, w).to_json() for lab, w in cfg.weights.items()}
    lemma = None
    if cfg["lyapunov.beta"] is not None:
        holds, K = verify_lemma_lyap(cfg.generator, beta=cfg["lyapunov.beta"], eps=cfg["lyapunov.eps"])
        lemma = {"beta": cfg["lyapunov.beta"], "eps": cfg["lyapunov.eps"], "holds": holds, "K_eps": K}
    payload = {"reports": reports, "lemma": lemma}
    write_json(outdir / "lyapunov.json", payload)
    return payload


def _run_rate_ode(cfg: ExperimentConfig, outdir: Path) -> dict:
    sol = solve_rate_ode(
        cfg.rate_h(),
        L=cfg["rate_ode.L"],
        theta=cfg["rate_ode.theta"],
        T=cfg["rate_ode.t_final"],
        n_points=cfg["rate_ode.n_points"],
    )
    write_csv(outdir / "varpi.csv", ["t", "varpi"], list(zip(sol.times, sol.varpi)))
    return {
        "max_implicit_residual": sol.max_implicit_residual,
        "varpi_final": float(sol.varpi[-1]),
        "fits": _fit_series(cfg, outdir, sol.times, {"varpi": sol.varpi}),
    }


def _run_stationary(cfg: ExperimentConfig, outdir: Path) -> dict:
    profile, info = stationary_solve(cfg.generator, cfg.grid, cfg["time.dt"], **_solver_kwargs(cfg))
    write_csv(outdir / "profile.csv", ["x", "density"], list(zip(cfg.grid.nodes, profile.values)))
    return {
        "t_converged": info["t_converged"],
        "tv_increment": info["tv_increment"],
        "boundary_mass": info["boundary_mass"],
        "variance": profile.variance(),
    }


_EXPERIMENTS = {
    "forward-decay": _run_forward_decay,
    "adjoint-oscillation": _run_adjoint_oscillation,
    "duality-check": _run_duality_check,
    "particles": _run_particles,
    "coupling": _run_coupling,
    "lyapunov-report": _run_lyapunov_report,
    "rate-ode": _run_rate_ode,
    "stationary": _run_stationary,
}


# ---------------------------------------------------------------------------
# commands


def _execute(cfg: ExperimentConfig, outdir: Path, experiment=None) -> tuple:
    """Echo the resolved config, run the experiment, write the summary.
    ``experiment(cfg, outdir)`` stands in for the config's experiment when
    given: a sweep cell writes the outputs of its row of a stack.

    Returns (exit code, summary-or-failure payload)."""
    outdir.mkdir(parents=True, exist_ok=True)
    write_json(outdir / "config.resolved.json", cfg.data)
    digest = config_hash(cfg)
    try:
        summary = (experiment or _EXPERIMENTS[cfg.experiment])(cfg, outdir)
    except NumericalFailure as exc:
        failure = {
            "kind": "numerical-failure",
            "experiment": cfg.experiment,
            "error": str(exc),
            "config_hash": digest,
        }
        write_json(outdir / "failure.json", failure)
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3, failure
    summary = {"experiment": cfg.experiment, "config_hash": digest, **summary}
    write_json(outdir / "summary.json", summary)
    return 0, summary


def cmd_run(config_path: str) -> int:
    cfg = load_config(config_path)
    code, _ = _execute(cfg, Path(cfg["output.dir"]))
    return code


# ---------------------------------------------------------------------------
# parameter sweep


def _sweep_axes(cfg: ExperimentConfig):
    axes = {name: cfg[f"sweep.{name}"] for name in ("gamma", "sigma", "k", "kbar")}
    empty = [name for name, vals in axes.items() if not vals]
    if empty:
        raise ConfigError(f"sweep needs nonempty axes: sweep.{', sweep.'.join(empty)}")
    return axes


def _cell_config(base: dict, index: int, n_cells: int, gamma, sigma, k, out_root: str) -> dict:
    data = dict(base)
    width = max(4, len(str(n_cells - 1)))
    data.update(
        {
            "experiment": "forward-decay",
            "drift.kind": "power",
            "drift.gamma": gamma,
            # sigma = 2 is the purely local case; below 2 the jump part takes over
            "levy.kind": "none" if sigma == 2.0 else "fractional",
            "levy.sigma": 1.5 if sigma == 2.0 else sigma,
            "weights": [f"pow{k:g}"],
            "fit.model": "power",
            "output.dir": os.path.join(out_root, "cells", f"cell_{index:0{width}d}"),
            "sweep.gamma": [],
            "sweep.sigma": [],
            "sweep.k": [],
            "sweep.kbar": [],
        }
    )
    return data


def _sweep_group(payloads) -> list:
    """A contiguous group of sweep cells, its forward runs marched as one
    stack; returns their sweep.csv rows in order. Runs in a worker process.

    Every cell is built from one base config and changes only drift, jump
    part, weight and fit, so the cells share grid, data, clock and solver
    settings, and the first cell's settings serve the stack. Each cell writes
    the files its own ``levyfp run`` would, failure.json included."""
    cells, rows = [], {}
    for index, data, gamma, sigma, k, kbar in payloads:
        try:
            q_pred = predicted_q(k, kbar, gamma)
        except ValueError:
            q_pred = None
        try:
            cfg = parse_config(data)
        except ValueError as exc:
            rows[index] = (gamma, sigma, k, kbar, q_pred, None, None, _sanitize(f"validation-error: {exc}"))
            continue
        cells.append((index, cfg, (gamma, sigma, k, kbar, q_pred)))
    if cells:
        first = cells[0][1]
        runs = solve_stack(
            first.initial,
            [cfg.generator for _, cfg, _ in cells],
            first["time.t_final"],
            first["time.dt"],
            record_every=first["time.stride"],
            record_weights=[cfg.weights for _, cfg, _ in cells],
            **_solver_kwargs(first),
        )
        for (index, cfg, head), run in zip(cells, runs):
            rows[index] = head + _sweep_cell(cfg, run)
    return [rows[payload[0]] for payload in payloads]


def _sweep_cell(cfg: ExperimentConfig, run) -> tuple:
    """Write one cell's files from its row of the stack (a ForwardRun, or the
    exception that ended it); returns the (fitted_exponent, r2, status) of its row."""

    def outputs(cfg, outdir):
        if isinstance(run, Exception):
            raise run
        return _forward_decay_outputs(cfg, outdir, run)

    try:
        code, summary = _execute(cfg, Path(cfg["output.dir"]), outputs)
    except ValueError as exc:
        return (None, None, _sanitize(f"validation-error: {exc}"))
    if code != 0:
        return (None, None, _sanitize(f"numerical-failure: {summary['error']}"))
    fit = summary["fits"][cfg.data["weights"][0]]
    if fit is None or "error" in fit:
        reason = (fit or {}).get("error", "fit.model is none")
        return (None, None, _sanitize(f"fit-error: {reason}"))
    return (fit["fit"]["params"]["q"], fit["fit"]["r2"], "ok")


def _sanitize(text: str) -> str:
    return text.replace(",", ";").replace("\n", " ").replace('"', "'")


def cmd_sweep(config_path: str, workers: int) -> int:
    if workers < 1:
        raise ValueError(f"--workers must be at least 1, got {workers}")
    cfg = load_config(config_path)
    axes = _sweep_axes(cfg)
    out_root = cfg["output.dir"]
    Path(out_root).mkdir(parents=True, exist_ok=True)
    write_json(Path(out_root) / "config.resolved.json", cfg.data)

    cells = list(itertools.product(axes["gamma"], axes["sigma"], axes["k"], axes["kbar"]))
    payloads = [
        (i, _cell_config(cfg.data, i, len(cells), gamma, sigma, k, out_root), gamma, sigma, k, kbar)
        for i, (gamma, sigma, k, kbar) in enumerate(cells)
    ]
    # --workers N: N contiguous groups of cells, each marched as one stack
    n_groups = min(workers, len(payloads))
    bounds = [len(payloads) * g // n_groups for g in range(n_groups + 1)]
    groups = [payloads[a:b] for a, b in zip(bounds, bounds[1:])]
    if n_groups == 1:
        rows = _sweep_group(payloads)
    else:
        import multiprocessing

        with multiprocessing.get_context("spawn").Pool(processes=n_groups) as pool:
            rows = [row for group in pool.map(_sweep_group, groups) for row in group]

    write_csv(
        Path(out_root) / "sweep.csv",
        ["gamma", "sigma", "k", "kbar", "predicted_q", "fitted_exponent", "r2", "status"],
        rows,
    )
    return 0


def cmd_validate(config_path: str) -> int:
    cfg = load_config(config_path)
    print(f"valid: {cfg.experiment} ({config_hash(cfg)[:12]})")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="levyfp", description="configuration-driven experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute one experiment")
    p_run.add_argument("config")
    p_sweep = sub.add_parser("sweep", help="run a parameter grid and aggregate sweep.csv")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--workers", type=int, default=1)
    p_val = sub.add_parser("validate", help="parse and validate only")
    p_val.add_argument("config")
    args = parser.parse_args(argv)

    try:
        if args.command == "run":
            return cmd_run(args.config)
        if args.command == "sweep":
            return cmd_sweep(args.config, args.workers)
        return cmd_validate(args.config)
    except ValueError as exc:  # a ConfigError, or a library argument check
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
