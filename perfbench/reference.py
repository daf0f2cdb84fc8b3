"""Recompute the reference values the workload checks hold to.

    python3 perfbench/reference.py     (from the root of a levyfp checkout)

Particles: the Euler chain X_{j+1} = (1 - alpha dt) X_j + dt^(1/sigma) S_j
from X_0 = 0, with S_j independent standard symmetric sigma-stable variates
(characteristic function exp(-|xi|^sigma)), is itself sigma-stable after n
steps, with scale c = (dt * sum_{j<n} (1 - alpha dt)^(sigma j))^(1/sigma).  The
weighted moment E[<X>^k] and its standard deviation follow by quadrature
against scipy's stable density.

Oscillation: the trace sum and fitted omega of one CLI run per terminal
profile.  The printout should match the constants in workloads.py.
"""
import json
import os
import sys

import numpy as np
from scipy import integrate, stats

from workloads import (
    OSCILLATION_REF,
    PARTICLE_MOMENT_REF,
    PARTICLE_MOMENT_SD,
    _oscillation_config,
    _particles_config,
    _read_csv,
    _read_json,
)

K = 0.5  # the pow0.5 weight


def stable_moment(sigma: float, scale: float, p: float) -> float:
    """E[(1 + X^2)^(p/2)] for X = scale * S, S standard symmetric sigma-stable."""
    pdf = stats.levy_stable(sigma, 0.0).pdf
    f = lambda s: (1.0 + (scale * s) ** 2) ** (p / 2.0) * pdf(s)
    body = integrate.quad(f, 0.0, 50.0, limit=200)[0]
    tail = integrate.quad(f, 50.0, np.inf, limit=200)[0]
    return 2.0 * (body + tail)


def particle_reference():
    cfg = _particles_config(0)
    sigma, alpha, dt = cfg["levy.sigma"], cfg["drift.alpha"], cfg["time.dt"]
    n = round(cfg["time.t_final"] / dt)
    scale = (dt * sum((1.0 - alpha * dt) ** (sigma * j) for j in range(n))) ** (1.0 / sigma)
    mean = stable_moment(sigma, scale, K)
    sd = (stable_moment(sigma, scale, 2 * K) - mean**2) ** 0.5
    print(f"particles: moment={mean!r} sd={sd!r}")
    print(f"committed: moment={PARTICLE_MOMENT_REF!r} sd={PARTICLE_MOMENT_SD!r}")


def oscillation_reference():
    sys.path.insert(0, os.path.abspath("src"))
    from levyfp.cli import main

    work = os.path.join(".perfbench", "reference")
    os.makedirs(work, exist_ok=True)
    refs = {}
    for kind in OSCILLATION_REF:
        outdir = os.path.join(work, kind)
        cfg = dict(_oscillation_config(0), **{"terminal.kind": kind, "output.dir": outdir})
        path = os.path.join(work, f"{kind}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        if main(["run", path]) != 0:
            raise SystemExit(f"oscillation run for {kind} failed")
        trace = sum(float(r["osc_pow0.5"]) for r in _read_csv(os.path.join(outdir, "series.csv")))
        omega = _read_json(os.path.join(outdir, "fit.json"))["pow0.5"]["fit"]["params"]["omega"]
        refs[kind] = (trace, omega)
    print(f"oscillation: {refs}")
    print(f"committed:   {OSCILLATION_REF}")


if __name__ == "__main__":
    particle_reference()
    oscillation_reference()
